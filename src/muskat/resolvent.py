"""Matrix-free solution of the interface density equation.

The density beta solves (1 + 2 a_mu D(f)) beta = f.  Invertibility holds for
|2 a_mu| < 2 but no contraction bound is available, so the solver is a
restarted GMRES rather than a fixed-point iteration.  The Krylov loop uses
plain ``np.sum`` reductions only, keeping results bit-identical for any
thread count (BLAS-threaded dot products are avoided on purpose).

The products of the Arnoldi loop are inexact on purpose.  In an inexact
Krylov method product j may carry an error of about tol ||rhs|| / ||r_j||,
r_j the residual before it, without moving the residual GMRES attains
(Simoncini & Szyld, SIAM J. Sci. Comput. 25, 2003; Bouras & Fraysse, SIAM
J. Matrix Anal. Appl. 26, 2005).  D's near/far split within a tolerance tau
errs by at most tau ||v||_inf W_0 at each of the M^N points, so each product
takes the loosest split tolerance of a short fixed ladder
(RELAXATION_LADDER) whose 2-norm bound 2 |a_mu| sqrt(M^N) W_0 tau ||v||_inf
is within that allowance.  The ladder is measured, not derived: with the
split bounded by its computed Chebyshev tail, a third rung at 1e-5 ran a
2D M=64 evolve at a_mu = 0.5 faster than one at 1e-3, 1e-4, 1e-6 or 1e-7
(the last products of most solves take it), with the same iterations
per solve.  The residuals, the first and the substituted one,
are exact (SMALL_SLOPE_TOL); a substituted residual that misses tol restarts
GMRES on exact products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .grid import ScalarField
from .potentials import SMALL_SLOPE_TOL, InterfaceGeometry, apply_D, d_split, split_weight


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
    d_applies: dict = field(default_factory=dict)  # split tolerance -> applies of D
    d_splits: dict = field(default_factory=dict)  # split tolerance -> the (R, K) D took


GMRES_RESTART = 30
# The split tolerances a density solve's Arnoldi products may take, tightest first
RELAXATION_LADDER = (SMALL_SLOPE_TOL, 1e-8, 1e-5)


def _dot(u, v):
    return float(np.sum(u * v))


def _rung(allowed: float) -> float:
    """The loosest split tolerance of the ladder at most allowed; the tightest if none is."""
    return max((t for t in RELAXATION_LADDER if t <= allowed), default=RELAXATION_LADDER[0])


def _gmres(apply_op, rhs, x0, tol, max_iter):
    """Restarted GMRES with modified Gram-Schmidt and Givens rotations, on inexact products.

    apply_op(v, slack) may be off by slack ||v|| in the 2-norm.  Product j
    of a cycle gets slack tol ||rhs|| / |g_j|, |g_j| the Givens estimate of
    the residual before it; the residuals get slack 0, and an all-zero x
    has residual rhs, with no apply.  A cycle that ends on its estimate is
    the last relaxed one: should its substituted residual miss tol, the
    next cycle runs at slack 0.  Returns (x, iterations, ||rhs -
    apply_op(x, 0)|| / ||rhs||), the residual computed by substituting the
    returned x.
    """
    bnorm = np.sqrt(_dot(rhs, rhs))
    if bnorm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    x = x0.copy()
    total, relax = 0, True
    while True:
        r = rhs - apply_op(x, 0.0) if np.any(x) else rhs
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
            w = apply_op(V[j], tol * bnorm / abs(g[j]) if relax else 0.0)
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
                relax = False
                break
        y = np.linalg.solve(np.triu(H[:j, :j]), g[:j]) if j else np.zeros(0)
        for i in range(j):
            x = x + y[i] * V[i]


def solve_beta(geom: InterfaceGeometry, a_mu: float, tol: float = 1e-10,
               max_iter: int = 200, warm_start: ScalarField | None = None):
    """Solve beta + 2 a_mu D(f)[beta] = f; returns (beta, SolveReport).

    The returned residual is obtained by substituting beta back, with D
    at SMALL_SLOPE_TOL, independently of the solver's own estimate; the
    Krylov products take the ladder's split tolerances (see the module
    docstring), and the report counts D's applies per tolerance and names
    the (R, K) D took at each.  Raises
    SolveFailure on non-convergence (a discretization pathology;
    invertibility itself is guaranteed for |a_mu| < 1).  At a_mu = 0 the
    equation is beta = f: no GMRES runs and beta is geom.f itself, so a
    caller can take grad beta from geom.grad_f.
    """
    if not -1.0 < a_mu < 1.0:
        raise ValueError(f"a_mu must lie in (-1, 1), got {a_mu}")
    if a_mu == 0.0:
        return geom.f, SolveReport(iterations=0, residual=0.0)
    g = geom.grid
    rhs = geom.f.values

    # a split within tau moves 2 a_mu D(f)[v] by at most scale tau ||v||_inf in the 2-norm
    scale = 2.0 * abs(a_mu) * sqrt(g.size) * split_weight(g)
    applies = {}

    def op(vals, slack):
        split_tol = SMALL_SLOPE_TOL
        if slack:
            split_tol = _rung(slack * sqrt(_dot(vals, vals)) / (scale * np.max(np.abs(vals))))
        applies[split_tol] = applies.get(split_tol, 0) + 1
        return vals + 2.0 * a_mu * apply_D(geom, ScalarField(g, vals), split_tol=split_tol).values

    x0 = warm_start.values if warm_start is not None else np.zeros(g.shape)
    sol, iters, true_resid = _gmres(op, rhs, x0, tol, max_iter)
    report = SolveReport(iterations=iters, residual=true_resid, d_applies=applies,
                         d_splits={t: d_split(geom, t) for t in applies})
    if true_resid > tol:
        raise SolveFailure(report)
    return ScalarField(g, sol), report
