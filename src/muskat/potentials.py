"""Muskat interface operators assembled over the generalized Riesz kernels.

For each operator both the direct principal-value kernel and its composition
out of the B-transforms are implemented; the direct form is canonical, the
composed form is the validator.  The two are algebraically identical term by
term on the lattice, so the cross-checks hold near rounding.

The velocity operator carries the non-decaying constant Riesz core
(-xi . b(x-xi) in its kernel); that core is always evaluated with its exact
continuum symbol (see :mod:`muskat.kernels`).  Near a flat interface the
velocity operator re-sums its lattice sum by FFT within an a-priori error
bound; the direct sum stays as the private ``_apply_AA_direct``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import (GridSpec, ScalarField, gradient, inner, integrate, l2_norm,
                   require_same_grid)
from .kernels import core_fix_apply, lattice_core_symbol, phibar_transform, riesz_core_fix
from .offsets import face_ring, lattice_sum, pv_offsets, sphere_area

# The velocity operator's small-slope path runs when its error bound, relative
# to the scale ||b||_inf W_0 (see _small_slope_order), is at most
# SMALL_SLOPE_TOL for an expansion order K <= SMALL_SLOPE_MAX_ORDER.
SMALL_SLOPE_TOL = 1e-13
SMALL_SLOPE_MAX_ORDER = 4
# Rounding model: an FFT convolution is off by at most ROUNDING_GROWTH * eps *
# log2(M^N) times its absolute mass (sum of |weight| times the largest |field|).
ROUNDING_GROWTH = 4.0


@dataclass(frozen=True)
class InterfaceGeometry:
    """Interface function f with cached gradient, omega = 1 + |grad f|^2, normal."""

    f: ScalarField
    grad_f: tuple = field(init=False)
    omega: ScalarField = field(init=False)
    normal: tuple = field(init=False)

    def __post_init__(self):
        gf = tuple(gradient(self.f))
        om = 1.0 + sum(g.values**2 for g in gf)
        sq = np.sqrt(om)
        nu = tuple(ScalarField(self.f.grid, -g.values / sq) for g in gf) + (
            ScalarField(self.f.grid, 1.0 / sq),)
        object.__setattr__(self, "grad_f", gf)
        object.__setattr__(self, "omega", ScalarField(self.f.grid, om))
        object.__setattr__(self, "normal", nu)
        norm2 = sum(c.values**2 for c in nu)
        if np.max(np.abs(norm2 - 1.0)) > 1e-12:
            raise AssertionError("normal is not unit length")

    @property
    def grid(self) -> GridSpec:
        return self.f.grid

    @cached_property
    def _small_slope(self):
        """(order, bound) of the velocity operator's small-slope path; see _small_slope_order."""
        return _small_slope_order(self.f)


def _dot(xs, ys):
    """sum_j xs[j] * ys[j], accumulated in axis order."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc += x * y
    return acc


def _interface_sum(geom: InterfaceGeometry, numerator, shape=None, offsets=None) -> np.ndarray:
    """h^N/|S^N| times the sum of numerator(xi, df, shifted) / (|xi|^2 + df^2)^((N+1)/2).

    The kernel shared by D, D*, A, AA and the torus flux, evaluated a block of
    offsets at a time: df = f(x) - f(x-xi) for each offset xi of the block,
    ``xi[j]`` is the block's column of j-th components, ``shifted`` maps a
    field u to u(x - xi), and a weighted offset set weights its terms; see
    :func:`muskat.offsets.lattice_sum`.
    """
    g = geom.grid
    off = offsets or pv_offsets(g)
    fvals, xi_cols = geom.f.values, off.xi.T

    def term(t, shifted):
        df = fvals - shifted(fvals)
        den = df * df
        den += off.r[t] ** 2
        if g.dim == 2:
            den *= np.sqrt(den)  # x * sqrt(x) is faster than x ** 1.5
        elif g.dim == 3:
            den *= den
        out = numerator([col[t] for col in xi_cols], df, shifted) / den
        return out if off.weight is None else off.weight[t] * out

    return g.spacing**g.dim / sphere_area(g.dim) * lattice_sum(g, term, shape, off)


def apply_D(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    """Double layer potential: PV sum of (df - xi.grad f(x-xi)) / (|xi|^2 + df^2)^((N+1)/2)."""
    require_same_grid(geom.f, beta)
    gfv = [c.values for c in geom.grad_f]

    def numerator(xi, df, shifted):
        num = df
        for j, gj in enumerate(gfv):
            num = num - xi[j] * shifted(gj)
        return num * shifted(beta.values)

    return ScalarField(geom.grid, _interface_sum(geom, numerator))


def apply_D_composed(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    """B-transform representation of the double layer, for cross-checking."""
    require_same_grid(geom.f, beta)
    f, bv = geom.f, beta.values
    out = phibar_transform(f, 1, None, bv)
    for i, gi in enumerate(geom.grad_f):
        out = out - phibar_transform(f, 0, i, bv * gi.values)
    return ScalarField(geom.grid, out)


def apply_D_star(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    """L2-adjoint of the double layer: kernel (-df + xi.grad f(x)) / (...)^((N+1)/2)."""
    require_same_grid(geom.f, beta)
    gfv = [c.values for c in geom.grad_f]

    def numerator(xi, df, shifted):
        num = -df
        for j, gj in enumerate(gfv):
            num = num + xi[j] * gj
        return num * shifted(beta.values)

    return ScalarField(geom.grid, _interface_sum(geom, numerator))


def apply_D_star_composed(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    require_same_grid(geom.f, beta)
    f, bv = geom.f, beta.values
    out = -phibar_transform(f, 1, None, bv)
    for i, gi in enumerate(geom.grad_f):
        out = out + gi.values * phibar_transform(f, 0, i, bv)
    return ScalarField(geom.grid, out)


def apply_A(geom: InterfaceGeometry, b) -> list:
    """Tangential matrix operator: N components coupling grad f and b."""
    b = list(b)
    if len(b) != geom.grid.dim:
        raise ValueError("b must have one component per axis")
    g = require_same_grid(geom.f, *b)
    gfv = [c.values for c in geom.grad_f]
    bv = [c.values for c in b]

    def numerator(xi, df, shifted):
        rgf = [shifted(v) for v in gfv]
        rb = [shifted(v) for v in bv]
        dl, xib = df, _dot(xi, rb)
        for j in range(g.dim):
            dl = dl - xi[j] * rgf[j]
        return np.stack([dl * rb[k] - xib * (gfv[k] - rgf[k]) for k in range(g.dim)])

    return [ScalarField(g, c) for c in _interface_sum(geom, numerator, (g.dim,) + g.shape)]


def apply_A_composed(geom: InterfaceGeometry, b) -> list:
    b = list(b)
    require_same_grid(geom.f, *b)
    f, gfv, bv = geom.f, [c.values for c in geom.grad_f], [c.values for c in b]
    out = []
    for k in range(geom.grid.dim):
        acc = phibar_transform(f, 1, None, bv[k])
        for i in range(geom.grid.dim):
            acc = acc + phibar_transform(f, 0, i, gfv[k] * bv[i] - gfv[i] * bv[k])
            acc = acc - gfv[k] * phibar_transform(f, 0, i, bv[i])
        out.append(ScalarField(geom.grid, acc))
    return out


def torus_byparts_flux(geom: InterfaceGeometry, beta: ScalarField) -> list:
    """Cell-boundary flux of the gradient identity on the torus, per component.

    The identity grad(D(f)[beta]) = A(f)[grad beta] is proved by moving a
    xi-divergence onto beta; on R^N the boundary term vanishes, on the torus
    cell it survives as the flux of

        V_k(xi) = xi (d_k f(x) - d_k f(x-xi)) / (|xi|^2 + df^2)^((N+1)/2)

    through the cell faces |xi_j| = L/2.  The faces are sampled on the
    outermost offset ring (the Nyquist ring for even M, see
    :func:`muskat.offsets.face_ring`), which is O(h) accurate; the
    approximation error refines along with the identity defect.
    """
    g = require_same_grid(geom.f, beta)
    gfv = [c.values for c in geom.grad_f]

    def numerator(xi, df, shifted):
        rb = shifted(beta.values)
        return np.stack([(v - shifted(v)) * rb for v in gfv])

    acc = _interface_sum(geom, numerator, (g.dim,) + g.shape, face_ring(g))
    return [ScalarField(g, -c / g.spacing) for c in acc]  # a face cell has measure h^(N-1)


def gradient_identity_residual(geom: InterfaceGeometry, beta: ScalarField) -> float:
    """Discrete defect of grad(D(f)[beta]) = A(f)[grad beta], spectral gradients.

    The exact single-cell boundary flux of the underlying integration by parts
    is subtracted (see :func:`torus_byparts_flux`); without it the defect
    saturates at an O(1/L) floor for data with overlapping supports.
    """
    require_same_grid(geom.f, beta)
    d = apply_D(geom, beta)
    lhs = gradient(d)
    rhs = apply_A(geom, gradient(beta))
    flux = torus_byparts_flux(geom, beta)
    rhs = [ScalarField(geom.grid, r.values + fl.values) for r, fl in zip(rhs, flux)]
    total = sum(l2_norm(ScalarField(geom.grid, a.values - b.values)) ** 2
                for a, b in zip(lhs, rhs))
    return float(np.sqrt(total))


def _aa_numerator(gfv, bv) -> list:
    """The velocity operator's numerator as (field, monomials) pairs.

    The numerator (xi.grad f(x-xi) - df) grad f(x).b(x-xi)
    - xi.b(x-xi) (1 + grad f(x).grad f(x-xi)) loses its j = k terms:

        sum_{j<k} xi_j d_k f(x) w_jk(x-xi) - xi_k d_j f(x) w_jk(x-xi)
        - sum_k (xi_k + d_k f(x) df) b_k(x-xi),   w_jk = d_j f b_k - b_j d_k f,

    in 1D -b(x-xi) (xi + f'(x) df).  A pair (u, monomials) stands for
    u(x-xi) times the sum of sign * coef(x) * xi^nu * df^m over its monomials
    (sign, c, axis, m): coef = d_c f, or 1 for c None; nu = e_axis, or 0 for
    axis None; m is 0 or 1.  Both evaluation paths of :func:`apply_AA` read
    this one table.
    """
    dim = len(bv)
    table = [(bv[k], ((-1.0, None, k, 0), (-1.0, k, None, 1))) for k in range(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            table.append((gfv[j] * bv[k] - bv[j] * gfv[k], ((1.0, k, j, 0), (-1.0, j, k, 0))))
    return table


def _unit(dim: int, axis) -> tuple:
    return tuple(int(j == axis) for j in range(dim))


def _aa_operands(geom: InterfaceGeometry, b):
    b = list(b)
    if len(b) != geom.grid.dim:
        raise ValueError("b must have one component per axis")
    require_same_grid(geom.f, *b)
    gfv = [c.values for c in geom.grad_f]
    return gfv, _aa_numerator(gfv, [c.values for c in b])


def _apply_AA_direct(geom: InterfaceGeometry, b) -> ScalarField:
    """The velocity operator as the blocked PV lattice sum; see :func:`apply_AA`."""
    gfv, table = _aa_operands(geom, b)
    g = geom.grid

    def numerator(xi, df, shifted):
        out = None
        for u, monomials in table:
            fac = None
            for sign, c, axis, m in monomials:
                val = xi[axis] if axis is not None else 1.0
                if c is not None:
                    val = val * gfv[c]
                if m:
                    val = val * df
                if fac is None:
                    fac = val if sign > 0 else -val
                else:
                    fac = fac + val if sign > 0 else fac - val
            if out is None:
                out = fac * shifted(u)
            else:
                out += fac * shifted(u)
        return out

    out = _interface_sum(geom, numerator)
    # the constant-coefficient cores sign * xi_axis u(x-xi) / |xi|^(N+1)
    for u, monomials in table:
        for sign, c, axis, m in monomials:
            if c is None and m == 0:
                out = out + core_fix_apply(g, _unit(g.dim, axis), u, sign)
    return ScalarField(g, out)


class _SmallSlope(NamedTuple):
    order: int | None  # None: the direct sum
    bound: float       # relative to ||b||_inf W_0, see _small_slope_order


def _binom(x: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out = out * (x - i) / (i + 1)
    return out


def _small_slope_order(f: ScalarField) -> _SmallSlope:
    """The velocity operator's expansion order K for interface f, and its error bound.

    Bound the slope by s = sum_k |k| |f^_k| (Fourier coefficients, any alias
    of the Nyquist mode): s >= sup |grad f| and s >= |df| / |xi| for every PV
    offset, so u = (df/|xi|)^2 <= s^2.  With p = (N+1)/2 the kernel is
    sum_k c_k df^(2k) / |xi|^(2p+2k), c_k = binom(-p, k); cut after k = K it is
    off by at most T_K |xi|^(-2p), where

        T_K = sum_{k>K} |c_k| s^(2k) <= |c_{K+1}| s^(2K+2) / (1 - rho s^2),
        rho = (p+K+1)/(K+2) >= |c_{k+1}/c_k| for k > K.

    The numerator is at most |xi| |b| (1 + 3 s^2), so the truncation is at most
    (1 + 3 s^2) T_K relative to the scale ||b||_inf W_0, where ||b||_inf is
    the largest |b(x)| and W_0 = h^N/|S^N| sum |xi|^-N over the PV offsets.

    Rounding: the binomial pieces f(x)^a f(x-xi)^(e-a) of df^e add up to at
    most (2A)^e in absolute value, A = (max f - min f)/2, where df^e itself is
    at most (s |xi|)^e, and |xi| >= h.  So the convolutions of order k have absolute mass at most
    N |c_k| (t^(2k) (1 + 2(N-1) s^2) + s t^(2k+1)) ||b||_inf W_0, t = 2A/h,
    and the rounding term is ROUNDING_GROWTH eps log2(M^N) times their sum.
    The model, not a proof, is meant to cover the direct sum's rounding as
    well; the slope-ladder test checks it against the direct sum.

    K is the smallest order whose truncation plus rounding is at most
    SMALL_SLOPE_TOL; without one, or for s >= 1, the order is None.
    """
    g = f.grid
    k2 = sum(g.frequencies(j) ** 2 for j in range(g.dim))
    s = float(np.sum(np.sqrt(k2) * np.abs(np.fft.fftn(f.values)))) / g.size
    if not s < 1.0:
        return _SmallSlope(None, np.inf)
    u = s * s
    t = float(np.max(f.values) - np.min(f.values)) / g.spacing
    p, dim = (g.dim + 1) / 2, g.dim
    rounding = ROUNDING_GROWTH * np.finfo(float).eps * np.log2(g.size) * dim
    for K in range(SMALL_SLOPE_MAX_ORDER + 1):
        rho = (p + K + 1) / (K + 2)
        if rho * u >= 1.0:
            continue
        tail = (1 + 3 * u) * abs(_binom(-p, K + 1)) * u ** (K + 1) / (1 - rho * u)
        mass = sum(abs(_binom(-p, k)) * (t ** (2 * k) * (1 + 2 * (dim - 1) * u)
                                         + s * t ** (2 * k + 1)) for k in range(K + 1))
        bound = tail + rounding * mass
        if bound <= SMALL_SLOPE_TOL:
            return _SmallSlope(K, bound)
    return _SmallSlope(None, np.inf)


def _apply_AA_small_slope(geom: InterfaceGeometry, b, order: int) -> ScalarField:
    """The velocity operator's PV lattice sum re-summed as FFT convolutions, to order K.

    Each monomial of :func:`_aa_numerator` times c_k df^(2k) / |xi|^(N+1+2k),
    k <= K, with df^e = sum_a binom(e, a) f(x)^a (-f(x-xi))^(e-a), is the
    x-coefficient coef(x) f(x)^a times the convolution of the lattice kernel
    xi^nu / |xi|^(N+1+2k) with f^(e-a) u.  One forward FFT per distinct
    (field, power) and one inverse FFT per distinct x-coefficient.
    """
    gfv, table = _aa_operands(geom, b)
    g = geom.grid
    f = geom.f.values
    powers = [1.0, f - 0.5 * (np.max(f) + np.min(f))]  # AA sees f only through df
    while len(powers) <= 2 * order + 1:
        powers.append(powers[-1] * powers[1])
    half = (Ellipsis, slice(0, g.points // 2 + 1))  # the rfftn half of a full symbol
    spectra, acc = {}, {}
    for u, monomials in table:
        for sign, c, axis, m in monomials:
            nu = _unit(g.dim, axis)
            for k in range(order + 1):
                sym = lattice_core_symbol(g, nu, g.dim + 1 + 2 * k)
                if c is None and m == 0 and k == 0:
                    sym = sym + riesz_core_fix(g, nu)  # the exact core symbol
                sym = sym[half] * (sign * _binom(-(g.dim + 1) / 2, k))
                e = m + 2 * k
                for a in range(e + 1):
                    key = (id(u), e - a)
                    if key not in spectra:
                        spectra[key] = np.fft.rfftn(powers[e - a] * u)
                    term = (_binom(e, a) * (-1) ** (e - a)) * sym * spectra[key]
                    acc[c, a] = acc[c, a] + term if (c, a) in acc else term
    out = np.zeros(g.shape)
    for (c, a), spectrum in acc.items():
        v = np.fft.irfftn(spectrum, s=g.shape, axes=range(g.dim))
        if a:
            v = v * powers[a]
        if c is not None:
            v = v * gfv[c]
        out += v
    return ScalarField(g, out)


def apply_AA(geom: InterfaceGeometry, b) -> ScalarField:
    """Velocity operator: the two-integral kernel of the evolution's right side.

    The second integral contains the constant core -xi.b(x-xi)/|xi|^{N+1},
    which is evaluated with its exact symbol.

    Near a flat interface the PV lattice sum is re-summed by FFT, to the
    order :func:`_small_slope_order` picks; otherwise it is the direct blocked
    sum.
    """
    order = geom._small_slope.order
    if order is None:
        return _apply_AA_direct(geom, b)
    return _apply_AA_small_slope(geom, b, order)


def apply_AA_composed(geom: InterfaceGeometry, b) -> ScalarField:
    """B-transform representation of the velocity operator (validation path)."""
    b = list(b)
    require_same_grid(geom.f, *b)
    f, gfv, bv = geom.f, [c.values for c in geom.grad_f], [c.values for c in b]
    out = np.zeros(geom.grid.shape)
    for i in range(geom.grid.dim):
        for k in range(geom.grid.dim):
            out = out + gfv[k] * phibar_transform(f, 0, i, bv[k] * gfv[i] - bv[i] * gfv[k])
        out = out - phibar_transform(f, 0, i, bv[i], "spectral")
        out = out - gfv[i] * phibar_transform(f, 1, None, bv[i])
    return ScalarField(geom.grid, out)


def boundary_trace(geom: InterfaceGeometry, beta: ScalarField) -> list:
    """PV trace of the layer gradient on the interface, N+1 components.

    The horizontal components are the constant-core transforms applied to the
    raw density and use the spectral core; the vertical component has a
    decaying kernel and stays on the lattice.
    """
    require_same_grid(geom.f, beta)
    f, bv = geom.f, beta.values
    comps = [phibar_transform(f, 0, i, bv, "spectral") for i in range(geom.grid.dim)]
    comps.append(phibar_transform(f, 1, None, bv))
    return [ScalarField(geom.grid, c) for c in comps]


def rellich_residual(geom: InterfaceGeometry, beta: ScalarField) -> float:
    """Defect of the '+' Rellich identity evaluated from the boundary traces.

    On the torus the Stokes flux through y -> -inf does not vanish: a density
    with nonzero mean leaves the exact flux (mean beta)^2 L^N / 4 on the right
    side, which is included here so that the identity is exact for decaying
    fields of any mean.
    """
    g = require_same_grid(geom.f, beta)
    om = geom.omega.values
    sq = np.sqrt(om)
    nu = [c.values for c in geom.normal]
    G = [c.values for c in boundary_trace(geom, beta)]
    g_dot_nu = sum(Gc * nc for Gc, nc in zip(G, nu))
    F = [sq * (Gc - g_dot_nu * nc) for Gc, nc in zip(G, nu)]
    f_sq = sum(Fc * Fc for Fc in F)
    plus = beta.values - 2.0 * apply_D_star(geom, beta).values
    integrand = plus**2 / (4.0 * om) + plus * F[-1] / sq - f_sq / om
    lhs = g.spacing**g.dim * float(np.sum(integrand))
    flux = integrate(beta) ** 2 / (4.0 * g.extent**g.dim)
    return abs(lhs - flux)


def adjointness_defect(geom: InterfaceGeometry, beta: ScalarField,
                       gamma: ScalarField) -> float:
    """Relative defect of <D beta, gamma> = <beta, D* gamma>."""
    left = inner(apply_D(geom, beta), gamma)
    right = inner(beta, apply_D_star(geom, gamma))
    scale = max(abs(left), abs(right), 1e-300)
    return abs(left - right) / scale
