"""Off-interface velocity and pressure reconstruction with jump validators.

Probes live in R^{N+1}; horizontal displacements to the interface lattice are
taken with minimal images, the vertical coordinate is unwrapped.  Off the
interface the integrands are smooth, so plain lattice quadrature applies; a
probe closer than h/2 to the interface is refused rather than extrapolated
(the trace is a principal-value limit there and plain quadrature is
meaningless).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, gradient, require_same_grid
from .offsets import sphere_area
from .potentials import InterfaceGeometry


@dataclass(frozen=True)
class ProbePoint:
    """Evaluation point z = (x, y); side is +1 above the interface, -1 below."""

    x: tuple
    y: float
    side: int
    distance: float

    @classmethod
    def locate(cls, geom: InterfaceGeometry, x, y: float):
        g = geom.grid
        x = tuple(float(v) % g.extent for v in np.atleast_1d(np.asarray(x, dtype=float)))
        if len(x) != g.dim:
            raise ValueError(f"probe x must have length {g.dim}")
        idx = tuple(int(round(v / g.spacing)) % g.points for v in x)
        fval = float(geom.f.values[idx])
        omega = float(geom.omega.values[idx])
        dist = abs(y - fval) / np.sqrt(omega)
        return cls(x=x, y=float(y), side=1 if y >= fval else -1, distance=float(dist))


def _displacements(geom: InterfaceGeometry, probe: ProbePoint):
    """Minimal-image dx (per axis), dy, and squared distance arrays."""
    g = geom.grid
    L = g.extent
    coords = g.meshgrid()
    dxs = []
    r2 = np.zeros(g.shape)
    for j in range(g.dim):
        d = probe.x[j] - coords[j]
        d = (d + 0.5 * L) % L - 0.5 * L
        dxs.append(d)
        r2 = r2 + d * d
    dy = probe.y - geom.f.values
    r2 = r2 + dy * dy
    return dxs, dy, r2


def check_clearance(geom: InterfaceGeometry, probe: ProbePoint):
    if probe.distance < 0.5 * geom.grid.spacing:
        raise ValueError(
            f"probe at distance {probe.distance:.3e} is within h/2 of the interface; "
            "use the jump/trace utilities instead")


def eval_velocity(geom: InterfaceGeometry, beta: ScalarField, probes) -> list:
    """Velocity vectors (N+1 components) at off-interface probes.

    v_i(z) = (1/|S^N|) sum_xi K_ij(z, xi) d_j beta(xi) h^N with the kernels
    K_ij = [(-(x-xi).grad f(xi) + y - f(xi)) delta_ij + (x_j - xi_j) d_i f(xi)] / |z-z_xi|^{N+1}
    K_(N+1)j = -(x_j - xi_j) / |z-z_xi|^{N+1}.
    """
    g = require_same_grid(geom.f, beta)
    grad_beta = [c.values for c in gradient(beta)]
    gf = [c.values for c in geom.grad_f]
    scale = g.spacing**g.dim / sphere_area(g.dim)
    out = []
    for probe in probes:
        check_clearance(geom, probe)
        dxs, dy, r2 = _displacements(geom, probe)
        denom = r2 ** ((g.dim + 1) / 2.0)
        core = dy.copy()
        xi_dot_gb = np.zeros(g.shape)
        for j in range(g.dim):
            core -= dxs[j] * gf[j]
            xi_dot_gb += dxs[j] * grad_beta[j]
        vec = np.empty(g.dim + 1)
        for i in range(g.dim):
            vec[i] = scale * np.sum((core * grad_beta[i] + xi_dot_gb * gf[i]) / denom)
        vec[g.dim] = -scale * np.sum(xi_dot_gb / denom)
        out.append(vec)
    return out


def eval_pressure(geom: InterfaceGeometry, beta: ScalarField, probes) -> list:
    """Pressure potential q(z) = -(1/|S^N|) sum_xi G(z, xi) beta(xi) h^N."""
    g = require_same_grid(geom.f, beta)
    gf = [c.values for c in geom.grad_f]
    scale = g.spacing**g.dim / sphere_area(g.dim)
    out = []
    for probe in probes:
        check_clearance(geom, probe)
        dxs, dy, r2 = _displacements(geom, probe)
        core = dy.copy()
        for j in range(g.dim):
            core -= dxs[j] * gf[j]
        out.append(-scale * float(np.sum(core * beta.values / r2 ** ((g.dim + 1) / 2.0))))
    return out


def analytic_velocity_jump(geom: InterfaceGeometry, beta: ScalarField, idx) -> np.ndarray:
    """The trace jump (grad beta - (grad f . grad beta) grad f / omega, (grad f . grad beta)/omega)."""
    g = geom.grid
    grad_beta = [c.values[idx] for c in gradient(beta)]
    gf = [c.values[idx] for c in geom.grad_f]
    om = geom.omega.values[idx]
    dot = sum(a * b for a, b in zip(gf, grad_beta))
    jump = np.empty(g.dim + 1)
    for i in range(g.dim):
        jump[i] = grad_beta[i] - dot * gf[i] / om
    jump[g.dim] = dot / om
    return jump


@dataclass
class JumpReport:
    offsets: list          # distances d, descending
    max_deviation: dict    # d -> max over samples of |numeric - analytic|
    jump_scale: float      # max analytic jump magnitude over the samples

    def deviation_fraction(self, d) -> float:
        return self.max_deviation[d] / self.jump_scale if self.jump_scale else 0.0


def jump_check(geom: InterfaceGeometry, beta: ScalarField, sample_indices) -> JumpReport:
    """Compare V+ - V- of the velocity against the analytic trace jump.

    For each lattice sample x the probes sit at z = z_x +- d nu(x) for
    d = c h, c in (8, 4, 2); reports the worst absolute deviation per d.
    """
    g = geom.grid
    h = g.spacing
    offsets = [c * h for c in (8.0, 4.0, 2.0)]
    coords = g.meshgrid()
    max_dev = {d: 0.0 for d in offsets}
    scale = 0.0
    for raw_idx in sample_indices:
        idx = tuple(int(v) % g.points for v in np.atleast_1d(raw_idx))
        x = [float(coords[j][idx]) for j in range(g.dim)]
        fx = float(geom.f.values[idx])
        nu = [float(c.values[idx]) for c in geom.normal]
        analytic = analytic_velocity_jump(geom, beta, idx)
        scale = max(scale, float(np.linalg.norm(analytic)))
        for d in offsets:
            zp = ProbePoint.locate(geom, [xj + d * nuj for xj, nuj in zip(x, nu)],
                                   fx + d * nu[-1])
            zm = ProbePoint.locate(geom, [xj - d * nuj for xj, nuj in zip(x, nu)],
                                   fx - d * nu[-1])
            vp, vm = eval_velocity(geom, beta, [zp, zm])
            dev = float(np.max(np.abs((vp - vm) - analytic)))
            max_dev[d] = max(max_dev[d], dev)
    return JumpReport(offsets=offsets, max_deviation=max_dev, jump_scale=scale)
