"""Principal-value offset sets for the punctured lattice sums.

Offsets are the nonzero lattice vectors of one torus cell, taken as centered
minimal-image representatives.  The set is symmetric under negation; for even
M the Nyquist face (any component equal to -M/2) is excluded, since that face
has no negative partner on the lattice and would break the PV cancellation.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import GridSpec


# Byte cap of one block-shaped temporary (a field for every offset of a block).
# At 2D M=64 a 128 KB cap made the velocity operator slower than 64 KB did.
BLOCK_BYTES = 64 * 1024


class OffsetSet:
    """Integer offsets in a fixed order: displacements xi, norms, optional weights.

    ``blocks`` splits the order into runs of consecutive offsets that share
    every component but the last, which goes up by 1 along the run; each run
    holds at most BLOCK_BYTES / (8 * grid size) offsets (at least one).  A
    block is a pair (t, view) of indices, see :func:`lattice_sum`; built on first use.
    """

    def __init__(self, grid: GridSpec, ints, weight=None):
        self.grid, self.ints, self.count, self.weight = grid, ints, ints.shape[0], weight
        self.xi = ints * grid.spacing
        self.r = np.sqrt(np.sum(self.xi**2, axis=1))
        for table in (ints, self.xi, self.r, weight):  # shared through the lru_caches below
            if table is not None:
                table.setflags(write=False)

    @cached_property
    def blocks(self) -> list:
        grid, ints = self.grid, self.ints
        cap = max(1, BLOCK_BYTES // (8 * grid.size))
        breaks = (np.flatnonzero(np.any(ints[1:, :-1] != ints[:-1, :-1], axis=1)
                                 | (ints[1:, -1] != ints[:-1, -1] + 1)) + 1).tolist()
        return [_block(grid, ints, lo, min(lo + cap, hi))
                for run_lo, hi in zip([0] + breaks, breaks + [self.count])
                for lo in range(run_lo, hi, cap)]


def _block(grid: GridSpec, ints, lo, hi) -> tuple:
    """(t, view) for offsets lo..hi-1: table rows as columns, and the window index of the run.

    In a field wrap-padded by M//2 per axis, window index M//2 - s holds
    u(x - s h), so the run's last axis is read backwards from M//2 - ints[lo].
    """
    pad = grid.points // 2
    stop = pad - ints[hi - 1, -1] - 1
    view = tuple((pad - ints[lo, :-1]).tolist()) + (
        slice(pad - ints[lo, -1], stop if stop >= 0 else None, -1),)
    return (slice(lo, hi),) + (None,) * grid.dim, view


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


@lru_cache(maxsize=8)  # the few radii in use at a time
def near_offsets(grid: GridSpec, radius: int) -> OffsetSet:
    """The PV offsets with |xi| <= radius * h, in PV order (all of them past the cell)."""
    pv = pv_offsets(grid)
    near = np.sum(pv.ints**2, axis=1) <= radius**2
    return pv if near.all() else OffsetSet(grid, pv.ints[near])


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
    """Sum of ``term(t, shifted)`` over the blocks of the offsets, in offset order.

    The offsets default to the PV set of ``grid``; ``offsets.blocks`` fixes
    the blocks.  For a block of n offsets, ``t`` indexes a per-offset table
    of shape (count,) into a column of shape (n, 1, ..., 1), and
    ``shifted(u)`` is a read-only view of shape (n,) + grid shape holding
    u(x - xi) for each offset xi of the block.  Each distinct array passed to
    ``shifted`` is wrap-padded once per call by M//2 per axis (the face ring
    reaches +M//2) and read through a sliding window, so no block copies a
    field.  The term returns an array with the block on the axis before the
    grid axes; that axis is summed in order and added to an accumulator of
    ``shape`` (default the grid shape).  The fixed blocks and order keep results
    bit-identical across runs.
    """
    off = offsets or pv_offsets(grid)
    windows = {}

    def window(u):
        if id(u) not in windows:  # keep u, so its id stays unique during the call
            padded = np.pad(u, grid.points // 2, mode="wrap")
            windows[id(u)] = (u, sliding_window_view(padded, grid.shape))
        return windows[id(u)][1]

    acc = np.zeros(grid.shape if shape is None else shape)
    for t, view in off.blocks:
        acc += np.sum(term(t, lambda u: window(u)[view]), axis=-1 - grid.dim)
    return acc


def sphere_area(dim: int) -> float:
    """|S^dim|, the surface area of the unit sphere in R^{dim+1}."""
    from math import gamma, pi
    return 2.0 * pi ** ((dim + 1) / 2.0) / gamma((dim + 1) / 2.0)
