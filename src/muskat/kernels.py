"""Generalized Riesz transforms as principal-value lattice sums.

The operator B^phi_{n,nu}(a)[b, beta] is realized as the symmetric punctured
single-image lattice sum of its kernel, with minimal-image periodic
differences.  On top of that, the exact split

    phi = (phi - phi(0)) + phi(0)

isolates, for n = 0, the constant-coefficient Riesz core
phi(0) * xi^nu / |xi|^{|nu|+N}: its lattice realization carries an O(h)
puncture error plus an O(1/|k|) periodization tail, both of which are removed
by replacing the core's lattice symbol with the exact continuum symbol
(``riesz_core='spectral'``, the default).  ``riesz_core='lattice'`` keeps the
bare sum, which the brute-force oracle and the composed-form validators
reproduce term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridSpec, ScalarField, l2_norm, spectral_derivative
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
def riesz_core_weight(grid: GridSpec, nu: tuple) -> np.ndarray:
    """h^N xi^nu / (|S^N| |xi|^{|nu|+N}) per PV offset: the unit Riesz core's lattice weight."""
    if len(nu) != grid.dim or any(v < 0 for v in nu):
        raise ValueError(f"bad multi-index {nu} for dim {grid.dim}")
    off = pv_offsets(grid)
    ang = np.ones(off.count)
    for j, p in enumerate(nu):
        ang = ang * off.xi[:, j] ** p
    ang = ang / off.r ** sum(nu)
    w = ang * grid.spacing**grid.dim / (off.r**grid.dim * sphere_area(grid.dim))
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def lattice_core_symbol(grid: GridSpec, nu: tuple) -> np.ndarray:
    """Symbol of the naked punctured lattice sum of xi^nu/(|S^N| |xi|^{|nu|+N})."""
    arr = np.zeros(grid.shape)
    arr[tuple((pv_offsets(grid).ints % grid.points).T)] = riesz_core_weight(grid, nu)
    sym = np.fft.fftn(arr)
    sym.setflags(write=False)
    return sym


@lru_cache(maxsize=None)
def riesz_core_fix(grid: GridSpec, nu: tuple) -> np.ndarray:
    """Exact-minus-lattice symbol of the unit constant Riesz core."""
    fix = riesz_core_symbol_grid(grid, nu) - lattice_core_symbol(grid, nu)
    fix.setflags(write=False)
    return fix


def core_fix_apply(grid: GridSpec, nu, values: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale * F^-1[ riesz_core_fix * F[values] ], as a plain array."""
    if scale == 0.0:
        return np.zeros(grid.shape)
    out = np.fft.ifftn(np.fft.fftn(values) * riesz_core_fix(grid, nu)).real
    return scale * out


def _slot_product(factors):
    """Product over b-slots, canonical per-point order for n >= 3.

    IEEE multiplication commutes, so pairs are permutation safe; for three or
    more slots the values are sorted pointwise first to keep the output
    bit-identical under slot permutation.
    """
    if not factors:
        return None
    if len(factors) <= 2:
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        return prod
    stack = np.sort(np.stack(factors, axis=0), axis=0)
    return np.prod(stack, axis=0)


def _naked_sum(spec: OperatorSpec, a_vals, b_vals, beta_vals, grid: GridSpec):
    off = pv_offsets(grid)
    w_geom = riesz_core_weight(grid, spec.nu)
    # all-zero a collapses phi((D a)^2) to the constant phi(0); skip the rolls
    phi0 = None
    if not any(np.any(av) for av in a_vals):
        phi0 = float(spec.profile(tuple(0.0 for _ in range(spec.arity))))

    def term(t, roll):
        r = off.r[t]
        if phi0 is not None:
            phiv = phi0
        else:
            phiv = spec.profile(tuple(((av - roll(av)) / r) ** 2 for av in a_vals))
        out = phiv * roll(beta_vals)
        if b_vals:
            out = out * _slot_product([(bv - roll(bv)) / r for bv in b_vals])
        return w_geom[t] * out

    return lattice_sum(grid, term)


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
    grid = beta.grid
    for f in a + b:
        if f.grid != grid:
            raise ValueError("all fields must share one grid")
    out = _naked_sum(spec, [f.values for f in a], [f.values for f in b],
                     beta.values, grid)
    if spec.n == 0 and spectral:
        phi0 = float(spec.profile(tuple(0.0 for _ in range(spec.arity))))
        out = out + core_fix_apply(grid, spec.nu, beta.values, phi0)
    return ScalarField(grid, out)


def apply_B_frozen(spec: OperatorSpec, f: ScalarField, beta: ScalarField,
                   riesz_core: str = "spectral") -> ScalarField:
    """The single-function instance B^phi_{n,nu}(f)[f,...,f, beta]."""
    return apply_B(spec, [f] * spec.arity, [f] * spec.n, beta, riesz_core)


def phibar_transform(f: ScalarField, n: int, axis, values: np.ndarray,
                     riesz_core: str = "lattice") -> np.ndarray:
    """B^phibar_{n,nu}(f)[f,...,f, values] as an array, nu = e_axis (0 when axis is None).

    These are the transforms the interface operators are composed of.
    """
    g = f.grid
    nu = tuple(int(j == axis) for j in range(g.dim))
    return apply_B_frozen(OperatorSpec(phibar(g.dim), n, nu), f, ScalarField(g, values),
                          riesz_core).values


def chain_rule_residual(spec: OperatorSpec, a: ScalarField, b, beta: ScalarField,
                        riesz_core: str = "spectral") -> float:
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
    base = apply_B(spec, [a], b, beta, riesz_core)
    worst = 0.0
    for j in range(grid.dim):
        lhs = spectral_derivative(base, j)
        rhs = apply_B(spec, [a], b, spectral_derivative(beta, j), riesz_core).values
        for i in range(len(b)):
            bi = list(b)
            bi[i] = spectral_derivative(b[i], j)
            rhs = rhs + apply_B(spec, [a], bi, beta, riesz_core).values
        da = spectral_derivative(a, j)
        rhs = rhs + 2.0 * apply_B(prime_spec, [a], [da, a] + b, beta, riesz_core).values
        worst = max(worst, l2_norm(ScalarField(grid, lhs.values - rhs)))
    return worst
