"""Principal-value offset sets for the punctured lattice sums.

Offsets are the nonzero lattice vectors of one torus cell, taken as centered
minimal-image representatives.  The set is symmetric under negation; for even
M the Nyquist face (any component equal to -M/2) is excluded, since that face
has no negative partner on the lattice and would break the PV cancellation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridSpec


class OffsetSet:
    """Integer offsets in a fixed order: displacements xi, norms, optional weights."""

    def __init__(self, grid: GridSpec, ints, weight=None):
        self.grid, self.ints, self.count, self.weight = grid, ints, ints.shape[0], weight
        self.xi = ints * grid.spacing
        self.r = np.sqrt(np.sum(self.xi**2, axis=1))
        for table in (ints, self.xi, self.r, weight):  # shared through the lru_caches below
            if table is not None:
                table.setflags(write=False)


def _box(lo, hi, dim) -> np.ndarray:
    """All integer vectors with components in [lo, hi], in lexicographic order."""
    rng = np.arange(lo, hi + 1)
    return np.stack([m.ravel() for m in np.meshgrid(*([rng] * dim), indexing="ij")], axis=1)


class PVOffsets(OffsetSet):
    """The PV offset table: every nonzero offset with a negative partner."""

    def __init__(self, grid: GridSpec):
        ints = _box(-((grid.points - 1) // 2), (grid.points - 1) // 2, grid.dim)
        super().__init__(grid, ints[np.any(ints != 0, axis=1)])


@lru_cache(maxsize=None)
def pv_offsets(grid: GridSpec) -> PVOffsets:
    return PVOffsets(grid)


@lru_cache(maxsize=None)
def face_ring(grid: GridSpec) -> OffsetSet:
    """The outermost offset ring, sampling the cell faces |xi_j| = L/2, with face weights.

    An offset's weight sums |xi_j| = (M//2) h over its face axes j, the outward
    normal +-e_j dotted with xi on either face of axis j.  For even
    M both faces xi_j = +-L/2 fall on the one Nyquist ring, so each offset of
    it counts twice, and its other components span the PV range (no corners).
    """
    M, even = grid.points, grid.points % 2 == 0
    ints = _box(-((M - 1) // 2), M // 2, grid.dim)
    faces = np.sum(np.abs(ints) == M // 2, axis=1)
    keep = faces == 1 if even else faces > 0
    return OffsetSet(grid, ints[keep], (2 if even else 1) * faces[keep] * (M // 2) * grid.spacing)


def lattice_sum(grid: GridSpec, term, shape=None, offsets=None) -> np.ndarray:
    """Sum of ``term(t, roll_t)`` over the offsets t, accumulated in offset order.

    The offsets default to the PV set of ``grid``.  ``roll_t(u)`` is ``u``
    periodically shifted by offset t on every axis, so it holds u(x - xi_t)
    at x.  The accumulator has ``shape`` (default the grid shape), which
    every term must broadcast to.  The fixed order keeps results
    bit-identical across runs.
    """
    axes = tuple(range(grid.dim))
    acc = np.zeros(grid.shape if shape is None else shape)
    for t, shift in enumerate((offsets or pv_offsets(grid)).ints.tolist()):
        acc += term(t, lambda u, shift=shift: np.roll(u, shift, axis=axes))
    return acc


def sphere_area(dim: int) -> float:
    """|S^dim|, the surface area of the unit sphere in R^{dim+1}."""
    from math import gamma, pi
    return 2.0 * pi ** ((dim + 1) / 2.0) / gamma((dim + 1) / 2.0)
