"""Muskat interface operators assembled over the generalized Riesz kernels.

For each operator both the direct principal-value kernel and its composition
out of the B-transforms are implemented; the direct form is canonical, the
composed form is the validator.  The two are algebraically identical term by
term on the lattice, so the cross-checks hold near rounding.

The velocity operator carries the non-decaying constant Riesz core
(-xi . b(x-xi) in its kernel); as in :mod:`muskat.kernels`, that core is
evaluated spectrally by default and on the bare lattice when
``riesz_core='lattice'``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, ScalarField, gradient, inner, integrate, l2_norm
from .kernels import check_riesz_core, core_fix_apply, phibar_transform
from .offsets import face_ring, lattice_sum, pv_offsets, sphere_area


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


def _check_grid(geom: InterfaceGeometry, *fields):
    for u in fields:
        if u.grid != geom.grid:
            raise ValueError("field grid does not match the interface grid")


def _interface_sum(geom: InterfaceGeometry, numerator, shape=None, offsets=None) -> np.ndarray:
    """h^N/|S^N| times the sum of numerator(xi, df, roll) / (|xi|^2 + df^2)^((N+1)/2).

    The kernel shared by D, D*, A, AA and the torus flux: df = f(x) - f(x-xi)
    for the offset xi, ``roll`` maps a field u to u(x - xi), and a weighted
    offset set weights its terms; see :func:`muskat.offsets.lattice_sum`.
    """
    g = geom.grid
    off = offsets or pv_offsets(g)
    fvals = geom.f.values
    power = (g.dim + 1) / 2.0

    def term(t, roll):
        df = fvals - roll(fvals)
        den = (off.r[t] ** 2 + df * df) ** power
        out = numerator(off.xi[t], df, roll) / den
        return out if off.weight is None else off.weight[t] * out

    return g.spacing**g.dim / sphere_area(g.dim) * lattice_sum(g, term, shape, off)


def apply_D(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    """Double layer potential: PV sum of (df - xi.grad f(x-xi)) / (|xi|^2 + df^2)^((N+1)/2)."""
    _check_grid(geom, beta)
    gfv = [c.values for c in geom.grad_f]

    def numerator(xi, df, roll):
        num = df
        for j, gj in enumerate(gfv):
            num = num - xi[j] * roll(gj)
        return num * roll(beta.values)

    return ScalarField(geom.grid, _interface_sum(geom, numerator))


def apply_D_composed(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    """B-transform representation of the double layer, for cross-checking."""
    _check_grid(geom, beta)
    f, bv = geom.f, beta.values
    out = phibar_transform(f, 1, None, bv)
    for i, gi in enumerate(geom.grad_f):
        out = out - phibar_transform(f, 0, i, bv * gi.values)
    return ScalarField(geom.grid, out)


def apply_D_star(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    """L2-adjoint of the double layer: kernel (-df + xi.grad f(x)) / (...)^((N+1)/2)."""
    _check_grid(geom, beta)
    gfv = [c.values for c in geom.grad_f]

    def numerator(xi, df, roll):
        num = -df
        for j, gj in enumerate(gfv):
            num = num + xi[j] * gj
        return num * roll(beta.values)

    return ScalarField(geom.grid, _interface_sum(geom, numerator))


def apply_D_star_composed(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    _check_grid(geom, beta)
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
    _check_grid(geom, *b)
    g = geom.grid
    gfv = [c.values for c in geom.grad_f]
    bv = [c.values for c in b]

    def numerator(xi, df, roll):
        rgf = [roll(v) for v in gfv]
        rb = [roll(v) for v in bv]
        dl, xib = df, 0.0
        for j in range(g.dim):
            dl = dl - xi[j] * rgf[j]
            xib = xib + xi[j] * rb[j]
        return np.stack([dl * rb[k] - xib * (gfv[k] - rgf[k]) for k in range(g.dim)])

    return [ScalarField(g, c) for c in _interface_sum(geom, numerator, (g.dim,) + g.shape)]


def apply_A_composed(geom: InterfaceGeometry, b) -> list:
    b = list(b)
    _check_grid(geom, *b)
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
    _check_grid(geom, beta)
    g = geom.grid
    gfv = [c.values for c in geom.grad_f]

    def numerator(xi, df, roll):
        rb = roll(beta.values)
        return np.stack([(v - roll(v)) * rb for v in gfv])

    acc = _interface_sum(geom, numerator, (g.dim,) + g.shape, face_ring(g))
    return [ScalarField(g, -c / g.spacing) for c in acc]  # a face cell has measure h^(N-1)


def gradient_identity_residual(geom: InterfaceGeometry, beta: ScalarField,
                               include_torus_flux: bool = True) -> float:
    """Discrete defect of grad(D(f)[beta]) = A(f)[grad beta], spectral gradients.

    With ``include_torus_flux`` the exact single-cell boundary flux of the
    underlying integration by parts is subtracted (see
    :func:`torus_byparts_flux`); without it the defect saturates at an
    O(1/L) floor for data with overlapping supports.
    """
    _check_grid(geom, beta)
    d = apply_D(geom, beta)
    lhs = gradient(d)
    rhs = apply_A(geom, gradient(beta))
    if include_torus_flux:
        flux = torus_byparts_flux(geom, beta)
        rhs = [ScalarField(geom.grid, r.values + fl.values)
               for r, fl in zip(rhs, flux)]
    total = sum(l2_norm(ScalarField(geom.grid, a.values - b.values)) ** 2
                for a, b in zip(lhs, rhs))
    return float(np.sqrt(total))


def apply_AA(geom: InterfaceGeometry, b, riesz_core: str = "spectral") -> ScalarField:
    """Velocity operator: the two-integral kernel of the evolution's right side.

    The second integral contains the constant core -xi.b(x-xi)/|xi|^{N+1},
    which is evaluated spectrally unless ``riesz_core='lattice'``.
    """
    spectral = check_riesz_core(riesz_core)
    b = list(b)
    if len(b) != geom.grid.dim:
        raise ValueError("b must have one component per axis")
    _check_grid(geom, *b)
    g = geom.grid
    gfv = [c.values for c in geom.grad_f]
    bv = [c.values for c in b]

    def numerator(xi, df, roll):
        xigf = xib = gfgf = gfb = 0.0
        for j in range(g.dim):
            rgf, rb = roll(gfv[j]), roll(bv[j])
            xigf = xigf + xi[j] * rgf
            xib = xib + xi[j] * rb
            gfgf = gfgf + gfv[j] * rgf
            gfb = gfb + gfv[j] * rb
        return (xigf - df) * gfb - xib * (1.0 + gfgf)

    out = _interface_sum(geom, numerator)
    if spectral:
        for d in range(g.dim):
            out = out - core_fix_apply(g, tuple(int(j == d) for j in range(g.dim)), bv[d])
    return ScalarField(g, out)


def apply_AA_composed(geom: InterfaceGeometry, b, riesz_core: str = "spectral") -> ScalarField:
    """B-transform representation of the velocity operator (validation path)."""
    b = list(b)
    _check_grid(geom, *b)
    f, gfv, bv = geom.f, [c.values for c in geom.grad_f], [c.values for c in b]
    out = np.zeros(geom.grid.shape)
    for i in range(geom.grid.dim):
        for k in range(geom.grid.dim):
            out = out + gfv[k] * phibar_transform(f, 0, i, bv[k] * gfv[i] - bv[i] * gfv[k])
        out = out - phibar_transform(f, 0, i, bv[i], riesz_core)
        out = out - gfv[i] * phibar_transform(f, 1, None, bv[i])
    return ScalarField(geom.grid, out)


def boundary_trace(geom: InterfaceGeometry, beta: ScalarField) -> list:
    """PV trace of the layer gradient on the interface, N+1 components.

    The horizontal components are the constant-core transforms applied to the
    raw density and use the spectral core; the vertical component has a
    decaying kernel and stays on the lattice.
    """
    _check_grid(geom, beta)
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
    _check_grid(geom, beta)
    g = geom.grid
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
