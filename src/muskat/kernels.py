"""Generalized Riesz transforms as principal-value lattice sums.

The operator B^phi_{n,nu}(a)[b, beta] is realized as the symmetric punctured
single-image lattice sum of its kernel, with minimal-image periodic
differences.  On top of that, the exact split

    phi = (phi - phi(0)) + phi(0)

isolates, for n = 0, the constant-coefficient Riesz core
phi(0) * xi^nu / |xi|^{|nu|+N}: its lattice realization carries an O(h)
puncture error plus an O(1/|k|) periodization tail, both of which are removed
by replacing the core's lattice symbol with the exact continuum symbol
(``riesz_core='spectral'``, the default of :func:`apply_B`; |nu| = 1, the
only cores the interface operators have).  ``riesz_core='lattice'``, the
default of :func:`phibar_transform`, keeps the bare sum, which the
brute-force oracle and the composed-form validators reproduce term by term.
The replacement is made in one place, :func:`core_fix_apply`, the product
of the fix with a field's real-FFT half; :func:`apply_B` transforms and
inverts around it, and the velocity operator's near/far split
(:mod:`muskat.potentials`) adds it inside its far field's pass, before that
pass's one inverse per output.  :func:`far_symbols` builds the split's
far-field symbols and holds none; the split keeps its own.

The n b-slots multiply into each term one at a time, in one order fixed per
sum by the slots' values (their bytes), so a permutation of the slots gives
the same bits.  The composed forms of the interface operators
(:mod:`muskat.potentials`) skip the transforms whose field vanishes
identically, and take a transform that several outputs share once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, ScalarField, l2_norm, require_same_grid, spectral_derivative
from .multipliers import riesz_core_symbol_grid
from .offsets import lattice_sum, pv_offsets, sphere_area
from .profiles import SmoothProfile, phibar

RIESZ_CORE_MODES = ("spectral", "lattice")


@dataclass(frozen=True)
class OperatorSpec:
    """Triple (profile, n, nu) identifying one generalized Riesz transform."""

    profile: SmoothProfile
    n: int
    nu: tuple

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(int(v) for v in self.nu))
        if self.n < 0 or any(v < 0 for v in self.nu):
            raise ValueError("n and nu must be nonnegative")
        if (self.n + sum(self.nu)) % 2 == 0:
            raise ValueError(
                f"n + |nu| must be odd, got n={self.n}, |nu|={sum(self.nu)}")

    @property
    def arity(self) -> int:
        return self.profile.arity


def check_riesz_core(riesz_core: str) -> bool:
    """True for the spectral core, False for the lattice one; ValueError for any other mode."""
    if riesz_core not in RIESZ_CORE_MODES:
        raise ValueError(f"riesz_core must be one of {RIESZ_CORE_MODES}, got {riesz_core!r}")
    return riesz_core == "spectral"


@lru_cache(maxsize=None)
def riesz_core_weight(grid: GridSpec, nu: tuple, q: int) -> np.ndarray:
    """h^N xi^nu / (|S^N| |xi|^q) per PV offset.

    q = |nu| + N is the unit Riesz core's lattice weight; q = N + 1 is the
    order-0 kernel of the near/far split's far field (see far_symbols).
    """
    if len(nu) != grid.dim or any(v < 0 for v in nu):
        raise ValueError(f"bad multi-index {nu} for dim {grid.dim}")
    off = pv_offsets(grid)
    ang = np.ones(off.count)
    for j, p in enumerate(nu):
        ang = ang * off.xi[:, j] ** p
    ang = ang / off.r ** sum(nu)
    w = ang * grid.spacing**grid.dim / (off.r ** (q - sum(nu)) * sphere_area(grid.dim))
    w.setflags(write=False)
    return w


def far_symbols(grid: GridSpec, radius: int, nu: tuple, order: int) -> list:
    """rfftn halves of the lattice sums of xi^nu/(|S^N| |xi|^(N+1+2k)), k <= order, beyond a radius.

    The sums run over the PV offsets with |xi| > radius * h; entry k of the
    list is the symbol of order k.  Each call builds fresh, writable arrays
    that the caller owns; the near/far split scales and keeps one set per
    split (see :mod:`muskat.potentials`).
    """
    off = pv_offsets(grid)
    far = np.sum(off.ints**2, axis=1) > radius**2
    index = tuple((off.ints[far] % grid.points).T)
    arr, inv_r2 = np.zeros(grid.shape), np.zeros(grid.shape)
    arr[index] = riesz_core_weight(grid, nu, grid.dim + 1)[far]
    inv_r2[index] = off.r[far] ** -2
    del far, index  # the far field's working set is what bounds memory
    out = []
    for k in range(order + 1):
        out.append(np.fft.rfftn(arr))
        arr *= inv_r2
    return out


@lru_cache(maxsize=None)
def riesz_core_fix(grid: GridSpec, nu: tuple) -> np.ndarray:
    """rfftn half of the exact-minus-lattice symbol of the unit constant Riesz core.

    The exact symbol is zeroed on the Nyquist plane of nu's axis for even M,
    where it is not Hermitian and a real field has nothing for it to act on.
    The lattice symbol is far_symbols' order 0 at radius 0: for a unit nu its
    weights xi^nu / |xi|^(N+1) are the core's.
    """
    exact = riesz_core_symbol_grid(grid, nu)[..., :grid.points // 2 + 1]
    if grid.points % 2 == 0:
        exact[(slice(None),) * nu.index(1) + (grid.points // 2,)] = 0.0
    fix = exact - far_symbols(grid, 0, nu, 0)[0]
    fix.setflags(write=False)
    return fix


def core_fix_apply(grid: GridSpec, nu, spectrum: np.ndarray, out=None) -> np.ndarray:
    """spectrum * riesz_core_fix, into out if given; spectrum is a field's rfftn half.

    The callers transform and invert: :func:`apply_B` on its own, the
    near/far split inside its far field's pass (:mod:`muskat.potentials`).
    """
    return np.multiply(spectrum, riesz_core_fix(grid, nu), out=out)


def _naked_sum(spec: OperatorSpec, a_vals, b_vals, beta_vals, grid: GridSpec):
    off = pv_offsets(grid)
    w_geom = riesz_core_weight(grid, spec.nu, sum(spec.nu) + grid.dim)
    # phibar_transform passes one field as a and as every b: difference it once
    diffs = list({id(v): v for v in a_vals + b_vals}.values())
    at = {id(v): j for j, v in enumerate(diffs)}
    # slots multiply in value order, so any permutation of b gives the same bits
    b_at = [at[id(v)] for v in sorted(b_vals, key=lambda v: v.tobytes())]

    def term(t, shifted, out, buffer):
        r, row = off.r[t], out[0]
        quot = []
        for j, v in enumerate(diffs):
            quot.append(np.subtract(v, shifted[j], out=buffer(j)))
            quot[j] /= r
        squares = tuple(np.square(quot[at[id(av)]], out=buffer(len(diffs) + j))
                        for j, av in enumerate(a_vals))
        phiv = spec.profile(squares, out=buffer(len(diffs) + len(a_vals)))
        np.multiply(phiv, shifted[-1], out=row)
        for j in b_at:
            row *= quot[j]
        row *= w_geom[t]

    return lattice_sum(grid, term, diffs + [beta_vals])[0]


def apply_B(spec: OperatorSpec, a, b, beta: ScalarField,
            riesz_core: str = "spectral") -> ScalarField:
    """Apply B^phi_{n,nu}(a)[b, beta] on the lattice.

    ``a`` has the profile arity, ``b`` has n entries, all on one grid.  See
    the module docstring for the meaning of ``riesz_core``.
    """
    spectral = check_riesz_core(riesz_core)
    a = list(a)
    b = list(b)
    if len(a) != spec.arity:
        raise ValueError(f"profile arity {spec.arity}, got {len(a)} a-fields")
    if len(b) != spec.n:
        raise ValueError(f"operator has n={spec.n} linear slots, got {len(b)}")
    grid = require_same_grid(beta, *a, *b)
    out = _naked_sum(spec, [f.values for f in a], [f.values for f in b],
                     beta.values, grid)
    if spec.n == 0 and spectral:
        phi0 = float(spec.profile(tuple(0.0 for _ in range(spec.arity))))
        out = out + phi0 * np.fft.irfftn(core_fix_apply(grid, spec.nu, np.fft.rfftn(beta.values)),
                                         s=grid.shape, axes=range(grid.dim))
    return ScalarField(grid, out)


def phibar_transform(f: ScalarField, n: int, axis, values: np.ndarray,
                     riesz_core: str = "lattice") -> np.ndarray:
    """B^phibar_{n,nu}(f)[f,...,f, values] as an array, nu = e_axis (0 when axis is None).

    These are the transforms the interface operators are composed of.
    """
    g = f.grid
    nu = tuple(int(j == axis) for j in range(g.dim))
    return apply_B(OperatorSpec(phibar(g.dim), n, nu), [f], [f] * n, ScalarField(g, values),
                   riesz_core).values


def chain_rule_residual(spec: OperatorSpec, a: ScalarField, b, beta: ScalarField) -> float:
    """Defect of the derivative representation of B^phi_{n,nu}(a)[b, beta].

    For each axis j compares the spectral derivative of the output against
    B(a)[b, d_j beta] + sum_i B(a)[.., d_j b_i, ..] + 2 B^{phi'}_{n+2,nu}(a)[d_j a, a, b, beta]
    and returns the largest discrete L2 norm of the difference.
    """
    if spec.arity != 1:
        raise ValueError("the derivative representation is implemented for p = 1")
    b = list(b)
    grid = beta.grid
    prime_spec = OperatorSpec(spec.profile.partial_profile(0), spec.n + 2, spec.nu)
    base = apply_B(spec, [a], b, beta)
    worst = 0.0
    for j in range(grid.dim):
        lhs = spectral_derivative(base, j)
        rhs = apply_B(spec, [a], b, spectral_derivative(beta, j)).values
        for i in range(len(b)):
            bi = list(b)
            bi[i] = spectral_derivative(b[i], j)
            rhs = rhs + apply_B(spec, [a], bi, beta).values
        da = spectral_derivative(a, j)
        rhs = rhs + 2.0 * apply_B(prime_spec, [a], [da, a] + b, beta).values
        worst = max(worst, l2_norm(ScalarField(grid, lhs.values - rhs)))
    return worst
