import numpy as np
import pytest

from muskat.grid import (GridSpec, ScalarField, l2_norm, make_gaussian_bump,
                         make_zero)
import muskat.resolvent
from muskat.potentials import SMALL_SLOPE_TOL, InterfaceGeometry, apply_D
from muskat.resolvent import _gmres, solve_beta


def gaussian_geometry(M, amp=0.8, width=0.5, L=2 * np.pi, dim=1):
    g = GridSpec(dim, L, M)
    return InterfaceGeometry(make_gaussian_bump(g, amp, [L / 2] * dim, width))


def test_identity_case_no_iteration():
    geom = gaussian_geometry(64)
    beta, report = solve_beta(geom, 0.0)
    assert np.array_equal(beta.values, geom.f.values)
    assert report.iterations == 0
    assert report.d_applies == {}
    assert report.residual == 0.0


def test_zero_rhs():
    g = GridSpec(1, 2 * np.pi, 32)
    geom = InterfaceGeometry(make_zero(g))
    beta, report = solve_beta(geom, 0.5)
    assert np.all(beta.values == 0.0)
    assert report.iterations == 0


def test_residual_reverified():
    geom = gaussian_geometry(64, amp=0.9)
    for a_mu in (0.5, -0.9, 0.9):
        beta, report = solve_beta(geom, a_mu, tol=1e-10)
        back = beta.values + 2 * a_mu * apply_D(geom, beta).values
        rel = l2_norm(ScalarField(geom.grid, back - geom.f.values)) / l2_norm(geom.f)
        assert rel <= 1e-10
        assert report.residual <= 1e-10
        assert report.iterations <= 50


def test_solve_applies_D_iterations_plus_one_cold_plus_two_warm(monkeypatch):
    # a cold solve's first residual is the right side itself, a warm solve's
    # takes an apply; the residual GMRES computes for its returned x is the
    # substitution check
    calls = []

    def counted(geom, beta, **kwargs):
        calls.append(beta)
        return apply_D(geom, beta, **kwargs)

    monkeypatch.setattr("muskat.resolvent.apply_D", counted)
    beta, report = solve_beta(gaussian_geometry(64), 0.5)
    assert report.iterations > 0
    assert len(calls) == report.iterations + 1 == sum(report.d_applies.values())
    calls.clear()
    _, report = solve_beta(gaussian_geometry(64, amp=0.82), 0.5, warm_start=beta)
    assert report.iterations > 0
    assert len(calls) == report.iterations + 2 == sum(report.d_applies.values())


def test_gmres_meets_tol_however_far_off_its_products_are():
    # products off by as much as their slack allows, in one fixed direction,
    # take as many iterations as exact ones; products 1000 times further off
    # make the substituted residual miss, and the cycles after it run exact
    # and meet tol
    rng = np.random.default_rng(1)
    n, tol = 60, 1e-10
    A = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    rhs, e = rng.standard_normal(n), rng.standard_normal(n)
    e /= np.linalg.norm(e)
    iterations = {}
    for excess in (0.0, 1.0, 1000.0):
        slacks = []

        def op(v, slack):
            slacks.append(slack)
            return A @ v + excess * slack * np.linalg.norm(v) * e

        x, iterations[excess], resid = _gmres(op, rhs, np.zeros(n), tol, 200)
        true = np.linalg.norm(rhs - A @ x) / np.linalg.norm(rhs)
        assert true <= tol and abs(resid - true) <= 1e-12 * tol
        # the applies after the last relaxed product: the substituted residual
        # alone, or a missed one, the exact cycle and its own
        tail = len(slacks) - 1 - max(i for i, s in enumerate(slacks) if s > 0.0)
        assert (tail == 1 == slacks.count(0.0)) if excess <= 1.0 else tail > 2
    assert iterations[1.0] == iterations[0.0] < iterations[1000.0]


def _contrast_bump(M, amp=0.7):
    g = GridSpec(2, 2 * np.pi, M)
    return InterfaceGeometry(make_gaussian_bump(g, amp, [np.pi] * 2, 0.5))


@pytest.mark.parametrize("M", [32, 64])
@pytest.mark.parametrize("a_mu", [0.5, -0.9])
def test_relaxed_solve_keeps_its_promise(monkeypatch, M, a_mu):
    # the Krylov products take looser splits, the residuals SMALL_SLOPE_TOL; the
    # substituted residual still meets tol, with at most one more iteration
    # than exact products take, cold and warm (from the solution on a lower bump)
    tol, tols = 1e-10, []

    def recorded(geom, beta, *, split_tol):
        tols.append(split_tol)
        return apply_D(geom, beta, split_tol=split_tol)

    def solve(warm_start, ladder):
        monkeypatch.setattr(muskat.resolvent, "RELAXATION_LADDER", ladder)
        monkeypatch.setattr(muskat.resolvent, "apply_D", recorded)
        tols.clear()
        geom = _contrast_bump(M, 0.7 if warm_start is None else 0.72)
        beta, report = solve_beta(geom, a_mu, tol=tol, warm_start=warm_start)
        monkeypatch.undo()
        back = beta.values + 2 * a_mu * apply_D(geom, beta).values - geom.f.values
        assert np.sqrt(np.sum(back**2) / np.sum(geom.f.values**2)) <= tol
        assert report.residual <= tol
        return beta, report, list(tols)

    ladder = muskat.resolvent.RELAXATION_LADDER
    assert ladder[0] == SMALL_SLOPE_TOL and len(ladder) > 1

    def check(warm_start):
        beta, report, used = solve(warm_start, ladder)
        _, exact, _ = solve(warm_start, (SMALL_SLOPE_TOL,))
        assert report.iterations <= exact.iterations + 1, (report, exact)
        assert used[0] == used[-1] == SMALL_SLOPE_TOL
        assert max(used) > SMALL_SLOPE_TOL, used
        if warm_start is not None and M == 64:  # no rung of the ladder is dead
            assert ladder[-1] in used, used
        assert report.d_applies == {t: used.count(t) for t in ladder if t in used}
        assert set(report.d_splits) == set(report.d_applies)
        return beta

    cold = check(None)
    check(cold)
    again, _, _ = solve(None, ladder)
    assert np.array_equal(cold.values, again.values)


def test_a_mu_range_checked():
    geom = gaussian_geometry(32)
    with pytest.raises(ValueError):
        solve_beta(geom, 1.0)


def test_neumann_two_term_quadratic_remainder():
    # beta = f - 2 a_mu D(f) f + O(||D||^2): the relative remainder scales
    # quadratically in the data amplitude
    a_mu = 0.5
    rels = []
    amps = (0.05, 0.1, 0.2)
    for amp in amps:
        geom = gaussian_geometry(64, amp=amp)
        beta, _ = solve_beta(geom, a_mu, tol=1e-12)
        two_term = geom.f.values - 2 * a_mu * apply_D(geom, geom.f).values
        rem = l2_norm(ScalarField(geom.grid, beta.values - two_term)) / l2_norm(geom.f)
        rels.append(rem)
    slope1 = np.log2(rels[1] / rels[0])
    slope2 = np.log2(rels[2] / rels[1])
    assert 1.7 <= slope1 <= 2.3, rels
    assert 1.7 <= slope2 <= 2.3, rels


def test_solution_unique_across_initial_guesses():
    geom = gaussian_geometry(64, amp=0.9)
    tol = 1e-11
    b1, _ = solve_beta(geom, 0.7, tol=tol)
    guess = make_gaussian_bump(geom.grid, 0.5, [np.pi + 0.5], 0.4)
    b2, _ = solve_beta(geom, 0.7, tol=tol, warm_start=guess)
    diff = l2_norm(ScalarField(geom.grid, b1.values - b2.values))
    assert diff <= 10 * tol * l2_norm(geom.f)


def resolvent_witness(geom, a, trials, seed):
    """min over random unit beta of ||(1 - a D(f)) beta||_2 / ||beta||_2.

    An empirical lower-bound witness for the resolvent constant; the theory
    guarantees positivity for a in [-2, 2], not a value.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        beta = ScalarField(geom.grid, rng.standard_normal(geom.grid.shape))
        out = ScalarField(geom.grid, beta.values - a * apply_D(geom, beta).values)
        worst = min(worst, l2_norm(out) / l2_norm(beta))
    return float(worst)


def test_probe_identity_cases():
    g = GridSpec(1, 2 * np.pi, 32)
    flat = InterfaceGeometry(make_zero(g))
    assert abs(resolvent_witness(flat, 2.0, 3, 0) - 1.0) < 1e-12
    geom = gaussian_geometry(32)
    assert abs(resolvent_witness(geom, 0.0, 3, 0) - 1.0) < 1e-12


def test_probe_positive_and_stable():
    # steep interface, endpoint values a = +-2: strictly positive witness,
    # stable within +-20 percent across refinement
    for a in (2.0, -2.0):
        vals = []
        for M in (48, 96):
            geom = gaussian_geometry(M, amp=1.6, width=0.6, L=4 * np.pi)
            vals.append(resolvent_witness(geom, a, 8, 3))
        assert vals[0] > 0 and vals[1] > 0
        assert abs(vals[1] - vals[0]) <= 0.2 * max(vals)


def test_probe_continuous_in_a():
    # adjacent a-samples (step 0.1) differ by bounded jumps
    geom = gaussian_geometry(48, amp=0.9)
    samples = [resolvent_witness(geom, a, 4, 1)
               for a in np.linspace(-2.0, 2.0, 41)]
    jumps = np.abs(np.diff(samples))
    assert np.max(jumps) < 0.2, samples
