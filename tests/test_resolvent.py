import numpy as np
import pytest

from muskat.grid import (GridSpec, ScalarField, l2_norm, make_gaussian_bump,
                         make_zero)
from muskat.potentials import InterfaceGeometry, apply_D
from muskat.resolvent import solve_beta


def gaussian_geometry(M, amp=0.8, width=0.5, L=2 * np.pi, dim=1):
    g = GridSpec(dim, L, M)
    return InterfaceGeometry(make_gaussian_bump(g, amp, [L / 2] * dim, width))


def test_identity_case_one_iteration():
    geom = gaussian_geometry(64)
    beta, report = solve_beta(geom, 0.0)
    assert np.array_equal(beta.values, geom.f.values)
    assert report.iterations == 1
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


def test_solve_applies_D_iterations_plus_two(monkeypatch):
    # the residual GMRES computes for its returned x is the substitution check
    calls = []

    def counted(geom, beta):
        calls.append(beta)
        return apply_D(geom, beta)

    monkeypatch.setattr("muskat.resolvent.apply_D", counted)
    _, report = solve_beta(gaussian_geometry(64), 0.5)
    assert report.iterations > 0
    assert len(calls) == report.iterations + 2


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
