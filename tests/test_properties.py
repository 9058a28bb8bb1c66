"""Property tests of the interface operators on random band-limited data.

Adjointness of D and D*, agreement of every direct operator with its
composition out of the B-transforms, and the Lambda-rescaling of discrete
trajectories are exact on the lattice up to rounding and the solver
tolerance, so they must hold for any interface and density, not only for the
fixed cases of the validate suites.
"""

import numpy as np

from muskat.dynamics import InterfaceState, PhysicalParams, step
from muskat.grid import GridSpec, band_limited_random, inner, l2_norm, make_gaussian_bump
from muskat.offsets import near_offsets, pv_offsets
from muskat.potentials import (InterfaceGeometry, _a_operator, _aa_operator, _d_operator,
                               _d_star_operator, _first_split, _split_sum, apply_A,
                               apply_A_composed, apply_AA, apply_AA_composed, apply_D,
                               apply_D_composed, apply_D_star, apply_D_star_composed)

# Each case is drawn from its own fixed seed, so the cases do not depend on
# anything but this file.
SEEDS = range(25)


def interface_data(seed):
    """(geometry, beta, gamma, b): a random band-limited interface, two densities, a vector field.

    The amplitude is log-uniform in [1e-4, 1.5], so the flattest interfaces
    meet the all-far small-slope split's bound and the steepest do not.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([1, 2]))
    M = int(rng.integers(8, 33)) if dim == 1 else 8
    g = GridSpec(dim, float(rng.choice([2 * np.pi, 3.0])), M)
    kmax = int(rng.integers(1, (M - 1) // 2 + 1))
    f = band_limited_random(g, kmax, rng, amplitude=10 ** rng.uniform(-4.0, np.log10(1.5)))
    beta, gamma = (band_limited_random(g, kmax, rng) for _ in range(2))
    return InterfaceGeometry(f), beta, gamma, [band_limited_random(g, kmax, rng)
                                               for _ in range(dim)]


def rel_err(direct, composed):
    return np.max(np.abs(direct - composed)) / max(np.max(np.abs(composed)), 1e-300)


def near_and_far_bump():
    """(geometry, beta, gamma) on a 2D M=32 bump where D and D* take a near and a far field."""
    g = GridSpec(2, 2 * np.pi, 32)
    geom = InterfaceGeometry(make_gaussian_bump(g, 0.7, [np.pi] * 2, 0.5))
    for op in (_d_operator(2), _d_star_operator(2)):
        assert 0 < near_offsets(g, geom.split(op).radius).count < pv_offsets(g).count
    rng = np.random.default_rng(32)
    return geom, band_limited_random(g, 8, rng), band_limited_random(g, 8, rng)


def test_D_star_is_the_adjoint_of_D():
    cases = [interface_data(seed)[:3] for seed in SEEDS] + [near_and_far_bump()]
    for case, (geom, beta, gamma) in enumerate(cases):
        d_beta = apply_D(geom, beta)
        defect = abs(inner(d_beta, gamma) - inner(beta, apply_D_star(geom, gamma)))
        # the two pairings sum the same terms in another order, or split within 1e-13
        assert defect <= 1e-12 * max(l2_norm(d_beta) * l2_norm(gamma), 1e-300), case


def test_direct_operators_equal_their_compositions():
    paths = set()
    for seed in SEEDS:
        geom, beta, _, b = interface_data(seed)
        assert rel_err(apply_D(geom, beta).values,
                       apply_D_composed(geom, beta).values) < 1e-10, seed
        assert rel_err(apply_D_star(geom, beta).values,
                       apply_D_star_composed(geom, beta).values) < 1e-10, seed
        for direct, composed in zip(apply_A(geom, b), apply_A_composed(geom, b)):
            assert rel_err(direct.values, composed.values) < 1e-10, seed
        assert rel_err(apply_AA(geom, b).values, apply_AA_composed(geom, b).values) < 1e-10, seed
        # the all-far split (R = 0) wherever its bound is met at a low order, although
        # on these small grids the chooser takes the cheaper direct sum
        dim, bv = geom.grid.dim, [c.values for c in b]
        for op, inputs, composed in (
                (_d_operator(dim), [beta.values], [apply_D_composed(geom, beta)]),
                (_d_star_operator(dim), [beta.values], [apply_D_star_composed(geom, beta)]),
                (_a_operator(dim), bv, apply_A_composed(geom, b)),
                (_aa_operator(dim), bv, [apply_AA_composed(geom, b)])):
            split = _first_split(geom, op, 0, 8)
            paths.add(split is not None)
            if split is not None:
                far = _split_sum(geom, op, inputs, split)
                for far_k, composed_k in zip(far, composed, strict=True):
                    assert rel_err(far_k, composed_k.values) < 1e-10, seed
    assert paths == {True, False}  # flat interfaces were checked all-far, steep ones not


def test_lambda_rescaling_on_random_data():
    # f_Lambda(t) = f_1(Lambda t): Lambda at dt / Lambda retraces Lambda = 1 at dt
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = GridSpec(1, 2 * np.pi, int(rng.integers(8, 17)))
        f0 = band_limited_random(g, int(rng.integers(1, 4)), rng,
                                 amplitude=rng.uniform(0.0, 0.5))
        a_mu, lam = rng.uniform(-0.9, 0.9), rng.uniform(0.25, 4.0)
        dt = 0.02
        ones, scaled = PhysicalParams(lam=1.0, a_mu=a_mu), PhysicalParams(lam=lam, a_mu=a_mu)
        s1, s2 = InterfaceState.compute(f0, ones), InterfaceState.compute(f0, scaled)
        for _ in range(int(rng.integers(1, 4))):
            s1, s2 = step(s1, ones, dt), step(s2, scaled, dt / lam)
        diff = np.max(np.abs(s1.f.values - s2.f.values))
        assert diff <= 1e-8 * max(1.0, np.max(np.abs(s1.f.values))), seed
