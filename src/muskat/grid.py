"""Discrete calculus on a uniform periodic lattice.

The lattice is a flat torus of side ``L`` with ``M`` points per axis, used as
a computational proxy for R^N.  Fields that live on it are expected to decay
near the cell boundary; the periodization error this leaves behind is
measured by the refinement tests, not assumed away.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SNAPSHOT_MAGIC = b"MUSK"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice: ``dim`` axes, side ``extent``, ``points`` per axis."""

    dim: int
    extent: float
    points: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.points < 8:
            raise ValueError(f"points per axis must be >= 8, got {self.points}")
        if not (self.extent > 0 and np.isfinite(self.extent)):
            raise ValueError(f"extent must be positive and finite, got {self.extent}")

    @property
    def spacing(self) -> float:
        return self.extent / self.points

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dim

    @property
    def size(self) -> int:
        return self.points**self.dim

    def axis_coords(self) -> np.ndarray:
        return self.spacing * np.arange(self.points)

    def meshgrid(self):
        x = self.axis_coords()
        return np.meshgrid(*([x] * self.dim), indexing="ij")

    def mode_numbers(self) -> np.ndarray:
        """Integer mode numbers along one axis, fft ordering."""
        return np.fft.fftfreq(self.points, d=1.0 / self.points)

    def frequencies(self, axis: int) -> np.ndarray:
        """Physical frequencies 2*pi*k/L along ``axis``, broadcast to grid shape."""
        k = self.mode_numbers() * (2.0 * np.pi / self.extent)
        shape = [1] * self.dim
        shape[axis] = self.points
        return k.reshape(shape)


class ScalarField:
    """Real samples of a function on the lattice, immutable after construction."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")


def require_same_grid(*fields) -> GridSpec:
    """The one grid all ``fields`` live on; ValueError if they live on several."""
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise ValueError("fields live on different grids")
    return g


def spectral_derivative(u: ScalarField, axis: int) -> ScalarField:
    """d/dx_axis by FFT with symbol i*2*pi*k/L: the one-axis case of :func:`gradient`."""
    if not 0 <= axis < u.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {u.grid.dim}")
    return _derivatives(u.grid, np.fft.rfftn(u.values), (axis,))[0]


def gradient(u: ScalarField) -> list:
    """The N spectral derivatives of u, from one rfftn and one stacked irfftn."""
    return _derivatives(u.grid, np.fft.rfftn(u.values), range(u.grid.dim))


def _derivatives(g: GridSpec, uh: np.ndarray, axes) -> list:
    """d/dx_j u for each j of axes from u's rfftn half uh, by one irfftn for them all."""
    stack = np.empty((len(axes),) + uh.shape, complex)
    for row, j in zip(stack, axes):
        np.multiply(uh, _derivative_symbol(g, j), out=row)
    return [ScalarField(g, v) for v in np.fft.irfftn(stack, s=g.shape, axes=range(1, g.dim + 1))]


@lru_cache(maxsize=None)
def _derivative_symbol(grid: GridSpec, axis: int) -> np.ndarray:
    """i*2*pi*k/L along ``axis`` on the rfftn half, broadcast over the others.

    The Nyquist mode (even M) is zeroed: its one-sided representative has no
    consistent odd symbol on a real field.  The last axis holds the modes
    0..M//2 of the half.
    """
    k = grid.mode_numbers()
    if axis == grid.dim - 1:
        k = k[:grid.points // 2 + 1]
    if grid.points % 2 == 0:
        k = k.copy()
        k[grid.points // 2] = 0.0
    shape = [1] * grid.dim
    shape[axis] = k.size
    sym = 1j * (2.0 * np.pi / grid.extent) * k.reshape(shape)
    sym.setflags(write=False)
    return sym


@lru_cache(maxsize=None)
def wavenumber_squared(grid: GridSpec) -> np.ndarray:
    """|2*pi*k/L|^2 on the full FFT grid, read-only; one array per grid."""
    k2 = sum(grid.frequencies(j) ** 2 for j in range(grid.dim))
    k2.setflags(write=False)
    return k2


@lru_cache(maxsize=None)
def half_pairs(grid: GridSpec) -> np.ndarray:
    """How many modes of the full spectrum each last-axis index of the rfftn half stands for.

    The half holds the last axis's modes 0..M//2; a mode with last index 0
    or (even M) M/2 has its conjugate in the half, every other one stands
    for itself and its conjugate.  Read-only.
    """
    pairs = np.full(grid.points // 2 + 1, 2.0)
    pairs[0] = 1.0
    if grid.points % 2 == 0:
        pairs[-1] = 1.0
    pairs.setflags(write=False)
    return pairs


def half_sobolev_norm(grid: GridSpec, uh: np.ndarray, s: float) -> float:
    """Discrete H^s proxy of the real field whose rfftn half is ``uh``:

        (sum_k (1+|2 pi k/L|^2)^s |u_k|^2 L^N / M^{2N})^(1/2).

    Each mode of the half is weighted by the square root of the modes it
    stands for (:func:`half_pairs`).  Computed as a scaled 2-norm, with the
    largest weighted |u_k| factored out, so the squares cannot overflow.
    """
    s = float(s)
    if s < 0:
        raise ValueError("Sobolev order must be nonnegative")
    terms = np.abs(uh)
    terms *= _sobolev_weights(grid, s)
    peak = float(np.max(terms))
    if peak == 0.0:
        return 0.0
    terms /= peak
    return peak * float(np.sqrt(np.sum(np.square(terms, out=terms))
                                * grid.extent**grid.dim / grid.size**2))


@lru_cache(maxsize=None)
def _sobolev_weights(grid: GridSpec, s: float) -> np.ndarray:
    """(1+|2 pi k/L|^2)^(s/2) times the square root of half_pairs, on the rfftn half; read-only."""
    k2 = wavenumber_squared(grid)[..., :grid.points // 2 + 1]
    weights = (1.0 + k2) ** (0.5 * s) * np.sqrt(half_pairs(grid))
    weights.setflags(write=False)
    return weights


def l2_norm(u: ScalarField) -> float:
    """Discrete L2 norm (h^N sum u^2)^(1/2).

    Computed as a scaled 2-norm, with the largest |u| factored out, so the
    squares of a small nonzero field cannot underflow to a zero norm.
    """
    g = u.grid
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0 or not np.isfinite(peak):
        return peak
    return peak * float(np.sqrt(g.spacing**g.dim * np.sum((u.values / peak) ** 2)))


def inner(u: ScalarField, v: ScalarField) -> float:
    g = require_same_grid(u, v)
    return float(g.spacing**g.dim * np.sum(u.values * v.values))


def integrate(u: ScalarField) -> float:
    """h^N sum of values (trapezoid is exact on the torus)."""
    g = u.grid
    return float(g.spacing**g.dim * np.sum(u.values))


def make_zero(grid: GridSpec) -> ScalarField:
    return ScalarField(grid, np.zeros(grid.shape))


def make_mode(grid: GridSpec, amplitude: float, k) -> ScalarField:
    """amplitude * cos(2*pi*k.x/L) for an integer mode vector k, |k_j| <= M/2."""
    k = tuple(int(v) for v in k)
    if len(k) != grid.dim:
        raise ValueError("frequency index length must match grid dimension")
    if any(abs(v) > grid.points // 2 for v in k):
        raise ValueError(f"|k_j| <= M/2 required, got {k}")
    phase = np.zeros(grid.shape)
    coords = grid.meshgrid()
    for j, kj in enumerate(k):
        phase = phase + (2.0 * np.pi / grid.extent) * kj * coords[j]
    return ScalarField(grid, amplitude * np.cos(phase))


def make_gaussian_bump(grid: GridSpec, amplitude: float, center, width: float) -> ScalarField:
    """amplitude * exp(-|x-center|^2 / (2 width^2)), minimal-image displacement.

    A bump whose relative boundary value exceeds 1e-8 is rejected; such a
    bump is not decayed enough for the torus proxy.  Lengths are taken in
    units of s, the power of two with width/s in [1, 2): the scaling is
    exact, so it changes no bit, and a displacement past 80 s, where the
    exponential is 0 to double precision, is held at 80 s, so no square
    overflows whatever grid.extent and width are.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.dim,):
        raise ValueError("center length must match grid dimension")
    L = grid.extent
    s = math.ldexp(1.0, math.frexp(width)[1] - 1)
    w, cap = width / s, 80.0 * s  # exp(-(80 s)^2 / (2 width^2)) <= exp(-800) = 0
    coords = grid.meshgrid()
    r2 = np.zeros(grid.shape)
    for j in range(grid.dim):
        d = coords[j] - center[j]
        d = (d + 0.5 * L) % L - 0.5 * L
        d = np.clip(d, -cap, cap) / s
        r2 = r2 + d * d
    values = amplitude * np.exp(-r2 / (2.0 * w * w))
    if amplitude != 0.0:
        edge = np.exp(-((min(0.5 * L, cap) / s) ** 2) / (2.0 * w * w))
        if edge > 1e-8:
            raise ValueError(
                f"bump does not decay at the torus boundary (relative edge value {edge:.3e} > 1e-8); "
                "reduce width")
    return ScalarField(grid, values)


def band_limited_random(grid: GridSpec, kmax: int, rng, amplitude: float = 1.0) -> ScalarField:
    """Random real field with integer modes |k_j| <= kmax, unit-scale values."""
    shape = grid.shape
    coeff = np.zeros(shape, dtype=complex)
    modes = grid.mode_numbers()
    sel = [np.abs(modes) <= kmax] * grid.dim
    mask = sel[0].reshape([-1] + [1] * (grid.dim - 1))
    for j in range(1, grid.dim):
        shp = [1] * grid.dim
        shp[j] = grid.points
        mask = mask & sel[j].reshape(shp)
    coeff[mask] = rng.standard_normal(int(mask.sum())) + 1j * rng.standard_normal(int(mask.sum()))
    vals = np.fft.ifftn(coeff).real
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals * (amplitude / peak)
    return ScalarField(grid, vals)


# -- serialization ------------------------------------------------------------

_HEADER = struct.Struct("<4sIddd")  # magic, version u32, N, M, L as f64


def save_field(path, u: ScalarField) -> None:
    """Write the flat little-endian snapshot: 32-byte header + M^N f64 row-major."""
    g = u.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                              float(g.dim), float(g.points), g.extent))
        fh.write(u.values.astype("<f8").tobytes(order="C"))


def load_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, dim, points, extent = _HEADER.unpack(head)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if not (dim.is_integer() and points.is_integer()):
            raise ValueError(f"{path}: header N = {dim}, M = {points} must be integers")
        grid = GridSpec(int(dim), extent, int(points))
        # checked before reading, so a header cannot ask for more than the file holds
        size, expected = os.fstat(fh.fileno()).st_size, _HEADER.size + 8 * grid.size
        if size != expected:
            raise ValueError(f"{path}: {size} bytes, but the header's grid needs {expected}")
        data = np.frombuffer(fh.read(8 * grid.size), dtype="<f8")
        return ScalarField(grid, data.reshape(grid.shape))
