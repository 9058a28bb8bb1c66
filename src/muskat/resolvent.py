"""Matrix-free solution of the interface density equation.

The density beta solves (1 + 2 a_mu D(f)) beta = f.  Invertibility holds for
|2 a_mu| < 2 but no contraction bound is available, so the solver is a
restarted GMRES rather than a fixed-point iteration.  The Krylov loop uses
plain ``np.sum`` reductions only, keeping results bit-identical for any
thread count (BLAS-threaded dot products are avoided on purpose).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField
from .potentials import InterfaceGeometry, apply_D


class SolveFailure(RuntimeError):
    """GMRES did not reach the requested tolerance; carries the report."""

    def __init__(self, report):
        super().__init__(
            f"density solve failed: residual {report.residual:.3e} after "
            f"{report.iterations} iterations")
        self.report = report


@dataclass
class SolveReport:
    iterations: int
    residual: float


GMRES_RESTART = 30


def _dot(u, v):
    return float(np.sum(u * v))


def _gmres(apply_op, rhs, x0, tol, max_iter):
    """Restarted GMRES with modified Gram-Schmidt and Givens rotations.

    Returns (x, iterations, ||rhs - apply_op(x)|| / ||rhs||), the residual
    computed by substituting the returned x.
    """
    bnorm = np.sqrt(_dot(rhs, rhs))
    if bnorm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    x = x0.copy()
    total = 0
    while True:
        r = rhs - apply_op(x)
        rnorm = np.sqrt(_dot(r, r))
        if rnorm <= tol * bnorm:
            return x, total, rnorm / bnorm
        if total >= max_iter:
            return x, total, rnorm / bnorm
        m = GMRES_RESTART
        V = [r / rnorm]
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = rnorm
        j = 0
        while j < m and total < max_iter:
            w = apply_op(V[j])
            total += 1
            for i in range(j + 1):
                H[i, j] = _dot(w, V[i])
                w = w - H[i, j] * V[i]
            H[j + 1, j] = np.sqrt(_dot(w, w))
            breakdown = H[j + 1, j] == 0.0
            if not breakdown:
                V.append(w / H[j + 1, j])
            for i in range(j):
                hi = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = hi
            denom = np.hypot(H[j, j], H[j + 1, j])
            cs[j] = H[j, j] / denom if denom else 1.0
            sn[j] = H[j + 1, j] / denom if denom else 0.0
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            j += 1
            if abs(g[j]) <= tol * bnorm or breakdown:
                break
        y = np.linalg.solve(np.triu(H[:j, :j]), g[:j]) if j else np.zeros(0)
        for i in range(j):
            x = x + y[i] * V[i]


def solve_beta(geom: InterfaceGeometry, a_mu: float, tol: float = 1e-10,
               max_iter: int = 200, warm_start: ScalarField | None = None):
    """Solve beta + 2 a_mu D(f)[beta] = f; returns (beta, SolveReport).

    The returned residual is obtained by substituting beta back,
    independently of the solver's own estimate.  Raises SolveFailure on
    non-convergence (a discretization pathology; invertibility itself is
    guaranteed for |a_mu| < 1).
    """
    if not -1.0 < a_mu < 1.0:
        raise ValueError(f"a_mu must lie in (-1, 1), got {a_mu}")
    g = geom.grid
    rhs = geom.f.values
    if a_mu == 0.0:
        # the equation degenerates to beta = f
        return ScalarField(g, rhs), SolveReport(iterations=1, residual=0.0)

    def op(vals):
        field = ScalarField(g, vals)
        return vals + 2.0 * a_mu * apply_D(geom, field).values

    x0 = warm_start.values if warm_start is not None else np.zeros(g.shape)
    sol, iters, true_resid = _gmres(op, rhs, x0, tol, max_iter)
    report = SolveReport(iterations=iters, residual=true_resid)
    if true_resid > tol:
        raise SolveFailure(report)
    return ScalarField(g, sol), report
