"""Principal-value offset sets for the punctured lattice sums.

Offsets are the nonzero lattice vectors of one torus cell, taken as centered
minimal-image representatives.  The set is symmetric under negation; for even
M the Nyquist face (any component equal to -M/2) is excluded, since that face
has no negative partner on the lattice and would break the PV cancellation.

:func:`lattice_sum` walks a set's offsets a block at a time, in work buffers of
at most BLOCK_BYTES (128 KB, measured on 1D M=256..1024, 2D M=64 and 3D M=16)
allocated once per sum.  The near/far split's far field sizes its transform
chunks and its batches of groups by the same :func:`block_rows`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import GridSpec


# Byte cap of one block-shaped work buffer (a field for every offset of a block):
# 32 offsets at 1D M=512, 4 at 2D M=64 and at 3D M=16.  Over caps of 32 KB to
# 1 MB the kernel sums of D, A and the velocity operator on 1D M=256..1024, 2D
# M=64 and 3D M=16 ran fastest at 128 or 256 KB, 7 to 15% faster at 128 KB than
# at 64 KB (one core of a 2-core Xeon with 2 MB of L2).  256 KB ran whole
# contrast-2d evolves and validate runs about 4% faster still, but raised
# validate's peak RSS by 2.7 MB against 0.7 MB at 128 KB.
BLOCK_BYTES = 128 * 1024


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
        cap = block_rows(grid)
        breaks = (np.flatnonzero(np.any(ints[1:, :-1] != ints[:-1, :-1], axis=1)
                                 | (ints[1:, -1] != ints[:-1, -1] + 1)) + 1).tolist()
        return [_block(grid, ints, lo, min(lo + cap, hi))
                for run_lo, hi in zip([0] + breaks, breaks + [self.count])
                for lo in range(run_lo, hi, cap)]


def block_rows(grid: GridSpec) -> int:
    """How many fields on grid a block of BLOCK_BYTES holds, at least one."""
    return max(1, BLOCK_BYTES // (8 * grid.size))


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


def lattice_sum(grid: GridSpec, term, fields, outputs: int = 1, offsets=None) -> np.ndarray:
    """Sum of the terms of every offset, in offset order: shape (outputs,) + grid shape.

    The offsets default to the PV set of ``grid``; ``offsets.blocks`` fixes
    the blocks.  For a block of n offsets, ``term(t, shifted, out, buffer)``
    writes the block's terms into ``out``, of shape (outputs, n) + grid
    shape.  ``t`` indexes a per-offset table of shape (count,) into a column
    of shape (n, 1, ..., 1); ``shifted[j]`` is a read-only view of shape
    (n,) + grid shape holding fields[j](x - xi) for each offset xi of the
    block; ``buffer(j)`` is work buffer j, of shape (n,) + grid shape.
    ``out`` and the buffers are allocated once per call, for the longest
    block, and every block reuses them, so no block allocates a block-shaped
    array.  Each field is wrap-padded once per call by M//2 per axis (the
    face ring reaches +M//2) and read through a sliding window, so no block
    copies a field.

    ``out`` is rows 1..n of a buffer whose row 0 holds the running sum, and
    the block axis, an outer one, is reduced with ``np.sum``, which adds its
    rows one after another.  So the result is the sequential sum over the
    offsets whatever the blocks, and bit-identical across runs.
    """
    off = offsets or pv_offsets(grid)
    windows = [sliding_window_view(np.pad(u, grid.points // 2, mode="wrap"), grid.shape)
               for u in fields]
    work = []

    def buffer(j):
        while len(work) <= j:
            work.append(np.empty((longest,) + grid.shape))
        return work[j][:n]

    longest = max(t[0].stop - t[0].start for t, _ in off.blocks)
    acc = np.zeros((outputs,) + grid.shape)
    rows = np.empty((outputs, longest + 1) + grid.shape)
    for t, view in off.blocks:
        n = t[0].stop - t[0].start
        rows[:, 0] = acc
        term(t, [w[view] for w in windows], rows[:, 1:n + 1], buffer)
        np.sum(rows[:, :n + 1], axis=1, out=acc)
    return acc


def sphere_area(dim: int) -> float:
    """|S^dim|, the surface area of the unit sphere in R^{dim+1}."""
    from math import gamma, pi
    return 2.0 * pi ** ((dim + 1) / 2.0) / gamma((dim + 1) / 2.0)
