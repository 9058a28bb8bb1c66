"""Principal-value offset sets for the punctured lattice sums.

Offsets are the nonzero lattice vectors of one torus cell, taken as centered
minimal-image representatives.  The set is symmetric under negation; for even
M the Nyquist face (any component equal to -M/2) is excluded, since that face
has no negative partner on the lattice and would break the PV cancellation.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec

_CACHE: dict = {}


class PVOffsets:
    """Offset table: integer reps, displacements, norms, per-nu caches."""

    def __init__(self, grid: GridSpec):
        M, N, h = grid.points, grid.dim, grid.spacing
        half = (M - 1) // 2 if M % 2 else M // 2 - 1
        rng = np.arange(-half, half + 1)
        mesh = np.meshgrid(*([rng] * N), indexing="ij")
        ints = np.stack([m.ravel() for m in mesh], axis=1)
        ints = ints[np.any(ints != 0, axis=1)]
        # lexicographic order of the centered representatives, fixed for determinism
        order = np.lexsort(ints.T[::-1])
        self.grid = grid
        self.ints = ints[order]
        self.xi = self.ints * h
        self.r = np.sqrt(np.sum(self.xi**2, axis=1))
        self.count = self.ints.shape[0]
        self._nu_cache: dict = {}
        assert np.all(np.any(self.ints != 0, axis=1))

    def angular_factor(self, nu) -> np.ndarray:
        """xi^nu / |xi|^{|nu|} per offset, cached per multi-index."""
        nu = tuple(int(v) for v in nu)
        if len(nu) != self.grid.dim or any(v < 0 for v in nu):
            raise ValueError(f"bad multi-index {nu} for dim {self.grid.dim}")
        if nu not in self._nu_cache:
            out = np.ones(self.count)
            total = sum(nu)
            for j, p in enumerate(nu):
                if p:
                    out = out * self.xi[:, j] ** p
            if total:
                out = out / self.r**total
            out.setflags(write=False)
            self._nu_cache[nu] = out
        return self._nu_cache[nu]


def pv_offsets(grid: GridSpec) -> PVOffsets:
    key = (grid.dim, grid.points, grid.extent)
    if key not in _CACHE:
        _CACHE[key] = PVOffsets(grid)
    return _CACHE[key]


def lattice_sum(grid: GridSpec, term, shape=None) -> np.ndarray:
    """Sum of ``term(t, roll_t)`` over the PV offsets t, accumulated in offset order.

    ``roll_t(u)`` is ``u`` periodically shifted by offset t on every axis, so
    it holds u(x - xi_t) at x.  The accumulator has ``shape`` (default the
    grid shape), which every term must broadcast to.  The fixed order keeps
    results bit-identical across runs.
    """
    axes = tuple(range(grid.dim))
    acc = np.zeros(grid.shape if shape is None else shape)
    for t, shift in enumerate(pv_offsets(grid).ints.tolist()):
        acc += term(t, lambda u, shift=shift: np.roll(u, shift, axis=axes))
    return acc


def sphere_area(dim: int) -> float:
    """|S^dim|, the surface area of the unit sphere in R^{dim+1}."""
    from math import gamma, pi
    return 2.0 * pi ** ((dim + 1) / 2.0) / gamma((dim + 1) / 2.0)
