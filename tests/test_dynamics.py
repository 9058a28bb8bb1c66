import dataclasses
import os

import numpy as np
import pytest

import muskat.dynamics
import muskat.potentials
from muskat.cli import main
from muskat.config import initial_field, parse_config
from muskat.dynamics import (InterfaceState, PhysicalParams, StepperConfig,
                             evolve, rt_margin, step, wow_residual)
from muskat.grid import (GridSpec, ScalarField, gradient, l2_norm,
                         make_gaussian_bump, make_mode, make_zero)
from muskat.kernels import far_symbols
from muskat.potentials import (InterfaceGeometry, _aa_operator, _d_operator, _d_star_operator,
                               _direct_sum, apply_AA, apply_D, apply_D_star)
from muskat.resolvent import RELAXATION_LADDER, solve_beta

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "decay_demo.cfg")


def test_params_reduction():
    p = PhysicalParams.from_raw(porosity=1.0, gravity=1.0, mu_plus=1.0,
                                mu_minus=1.0, rho_plus=1.0, rho_minus=2.0)
    assert p.lam == 1.0 and p.a_mu == 0.0
    q = PhysicalParams.from_raw(porosity=2.0, gravity=0.5, mu_plus=3.0,
                                mu_minus=1.0, rho_plus=1.0, rho_minus=3.0)
    assert abs(q.lam - 1.0) < 1e-15
    assert abs(q.a_mu - 0.5) < 1e-15


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(lam=1.0, a_mu=1.2)
    with pytest.raises(ValueError):
        PhysicalParams.from_raw(porosity=-1.0, gravity=1.0, mu_plus=1.0,
                                mu_minus=1.0, rho_plus=1.0, rho_minus=2.0)


def test_stepper_validation():
    with pytest.raises(ValueError):
        StepperConfig(scheme="leapfrog")
    with pytest.raises(ValueError):
        StepperConfig(rt_floor=1.5)
    s = StepperConfig(cfl=0.5)
    g = GridSpec(1, 2 * np.pi, 64)
    assert abs(s.resolve_dt(g, 2.0) - 0.5 * g.spacing / 2.0) < 1e-15


def test_phi_tilde_vanishes_at_equilibrium():
    g = GridSpec(1, 2 * np.pi, 32)
    state = InterfaceState.compute(make_zero(g), PhysicalParams(lam=1.0, a_mu=0.5))
    assert np.all(state.phi_tilde.values == 0.0)
    assert np.all(state.beta.values == 0.0)


def test_phi_tilde_linearization():
    # small mode, a_mu=0: Phi~ = -(|2 pi k/L|/2) f within 3 percent
    g = GridSpec(1, 2 * np.pi * 10, 512)
    eps, kmode = 1e-3, 4          # physical frequency 0.4
    f = make_mode(g, eps, (kmode,))
    phi = InterfaceState.compute(f, PhysicalParams(lam=1.0, a_mu=0.0)).phi_tilde
    z = 2 * np.pi * kmode / g.extent
    predicted = -(z / 2.0) * f.values
    err = l2_norm(ScalarField(g, phi.values - predicted)) / l2_norm(f) / (z / 2.0)
    assert err <= 0.03, err


def test_phi_tilde_independent_of_lambda():
    # Phi~ depends only on a_mu; Lambda never enters the computation
    g = GridSpec(1, 2 * np.pi, 48)
    f = make_gaussian_bump(g, 0.4, [np.pi], 0.5)
    s1 = InterfaceState.compute(f, PhysicalParams(lam=1.0, a_mu=0.5))
    s2 = InterfaceState.compute(f, PhysicalParams(lam=7.0, a_mu=0.5))
    assert np.array_equal(s1.phi_tilde.values, s2.phi_tilde.values)


def test_rt_margin_flat():
    g = GridSpec(1, 2 * np.pi, 32)
    f = make_zero(g)
    for lam, holds in ((1.0, True), (-1.0, False)):
        params = PhysicalParams(lam=lam, a_mu=0.5)
        state = InterfaceState.compute(f, params)
        fieldv, mn, ok = rt_margin(state, params)
        assert np.all(fieldv.values == 1.0)
        assert mn == 1.0
        assert ok is holds


def test_rt_margin_equal_viscosities():
    g = GridSpec(1, 2 * np.pi, 48)
    f = make_gaussian_bump(g, 0.7, [np.pi], 0.5)
    params = PhysicalParams(lam=1.0, a_mu=0.0)
    state = InterfaceState.compute(f, params)
    fieldv, mn, ok = rt_margin(state, params)
    assert np.all(fieldv.values == 1.0) and ok


def test_rt_margin_steep_slope_recorded():
    # exploratory: value logged, no sign asserted
    g = GridSpec(1, 2 * np.pi, 64)
    f = make_gaussian_bump(g, 1.2, [np.pi], 0.45)
    params = PhysicalParams(lam=1.0, a_mu=0.9)
    state = InterfaceState.compute(f, params)
    _, mn, _ = rt_margin(state, params)
    assert np.isfinite(mn)


def test_wow_identity_flat():
    g = GridSpec(1, 2 * np.pi, 32)
    params = PhysicalParams(lam=1.0, a_mu=0.5)
    state = InterfaceState.compute(make_zero(g), params)
    assert wow_residual(state, params) < 1e-14


def test_wow_identity_refinement():
    for a_mu in (0.0, 0.5):
        residuals = []
        for M in (48, 96):
            g = GridSpec(1, 2 * np.pi, M)
            f = make_gaussian_bump(g, 0.6, [np.pi], 0.5)
            params = PhysicalParams(lam=1.0, a_mu=a_mu)
            state = InterfaceState.compute(f, params, tol=1e-12)
            residuals.append(wow_residual(state, params))
        if a_mu == 0.0:
            assert residuals[1] < 1e-12, residuals
        else:
            order = np.log2(residuals[0] / residuals[1])
            assert order >= 1.0, residuals


def test_step_preserves_equilibrium():
    g = GridSpec(1, 2 * np.pi, 32)
    params = PhysicalParams(lam=1.0, a_mu=0.3)
    state = InterfaceState.compute(make_zero(g), params)
    out = step(state, params, 0.05)
    assert np.all(out.f.values == 0.0)
    assert out.t == 0.05


def test_step_linear_decay_rate():
    # single small mode, a_mu=0: amplitude shrinks by exp(-Lambda |z| dt / 2)
    g = GridSpec(1, 2 * np.pi * 10, 256)
    params = PhysicalParams(lam=1.0, a_mu=0.0)
    kmode = 4
    z = 2 * np.pi * kmode / g.extent
    f = make_mode(g, 1e-3, (kmode,))
    state = InterfaceState.compute(f, params)
    dt = 0.1 * g.spacing / params.lam
    nxt = step(state, params, dt)
    ratio = l2_norm(nxt.f) / l2_norm(f)
    assert abs(ratio - np.exp(-params.lam * z * dt / 2.0)) < 0.01 * ratio


def test_trajectory_converges_at_the_scheme_order():
    # a 1D mode of slope 0.08 at a_mu = 0.5, where D and the velocity operator both
    # take a near and a far field, to t = h in 8, 16 and 32 steps (dt = h/8 down to
    # h/32): successive final interfaces differ by a factor 2^order per halving of dt
    # (measured: rk2 2.002, euler 1.002)
    g = GridSpec(1, 20 * np.pi, 512)
    f0 = make_mode(g, 0.2, (4,))
    params = PhysicalParams(lam=1.0, a_mu=0.5)
    geom = InterfaceGeometry(f0)
    for op in (_d_operator(1), _aa_operator(1)):
        assert 0 < geom.split(op).radius < g.points // 2, geom.split(op)
    for scheme, order in (("rk2", 1.8), ("euler", 0.9)):
        finals = []
        for n in (8, 16, 32):
            state = InterfaceState.compute(f0, params)
            for _ in range(n):
                state = step(state, params, g.spacing / n, scheme=scheme)
            finals.append(state.f.values)
        coarse, fine = (np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:]))
        assert np.log2(coarse / fine) >= order, (scheme, coarse, fine)


def test_step_unstable_orientation_grows():
    g = GridSpec(1, 2 * np.pi * 10, 256)
    params = PhysicalParams(lam=-1.0, a_mu=0.0)
    kmode = 4
    z = 2 * np.pi * kmode / g.extent
    f = make_mode(g, 1e-3, (kmode,))
    state = InterfaceState.compute(f, params)
    dt = 0.1 * g.spacing / abs(params.lam)
    nxt = step(state, params, dt)
    ratio = l2_norm(nxt.f) / l2_norm(f)
    assert abs(ratio - np.exp(abs(params.lam) * z * dt / 2.0)) < 0.01 * ratio


def test_rt_floor_guard():
    # the steep bump of test_evolve_guards_the_final_state starts at margin
    # 0.125: a floor above that halts the run on its initial state, unstepped
    g = GridSpec(1, 2 * np.pi, 64)
    params = PhysicalParams(lam=1.0, a_mu=0.9)
    f0 = make_gaussian_bump(g, 1.4, [np.pi], 0.45)
    result = evolve(f0, params, StepperConfig(dt=0.01, t_end=0.01, rt_floor=0.5))
    assert result.halted == "rt-floor"
    assert len(result.series) == 1 and result.final.t == 0
    assert abs(result.series[0][1] - 0.125) < 0.01
    assert result.snapshots == [(0, result.final.f)]
    assert np.array_equal(result.final.f.values, f0.values)


def test_evolve_zero_data():
    g = GridSpec(1, 2 * np.pi, 32)
    params = PhysicalParams(lam=1.0, a_mu=0.2)
    result = evolve(make_zero(g), params,
                    StepperConfig(dt=0.05, t_end=0.2, snapshot_stride=2))
    assert result.halted is None
    assert np.all(result.final.f.values == 0.0)
    assert len(result.series) == 5
    assert len(result.snapshots) == 3  # strides at 2, 4 plus the final state


def test_evolve_ends_at_t_end():
    # the demo's step rule (cfl dt on its spacing, t_end 2) on a 32-point cell
    # of the same spacing; t_end/dt = 65.2 must give 66 steps, not 65
    cfg = parse_config(DEMO)
    g = GridSpec(1, 32 * cfg.grid.spacing, 32)
    result = evolve(make_zero(g), cfg.params, cfg.stepper)
    t = np.array([row[0] for row in result.series])
    dt = result.series[-1][5]
    assert abs(t[-1] - cfg.stepper.t_end) <= 1e-12
    assert len(t) - 1 == 66
    assert dt <= cfg.stepper.resolve_dt(cfg.grid, cfg.params.lam)
    assert np.allclose(np.diff(t), dt, rtol=0.0, atol=1e-12)


def test_demo_decay_small_slope_path_matches_the_direct_sum(monkeypatch):
    # 8 RK2 steps of the demo, velocity by the automatic path and by the direct sum
    cfg = parse_config(DEMO)
    f0 = initial_field(cfg)
    stepper = dataclasses.replace(cfg.stepper, t_end=8 * cfg.stepper.resolve_dt(
        cfg.grid, cfg.params.lam), snapshot_stride=0)
    auto = evolve(f0, cfg.params, stepper).final
    assert auto.geom.split(_aa_operator(1)).radius == 0

    def direct(geom, b):
        return ScalarField(geom.grid, _direct_sum(geom, _aa_operator(1), [b[0].values])[0])

    monkeypatch.setattr(muskat.dynamics, "apply_AA", direct)
    direct = evolve(f0, cfg.params, stepper).final
    assert auto.t == direct.t
    diff = np.max(np.abs(auto.f.values - direct.f.values))
    assert diff <= 1e-12 * np.max(np.abs(direct.f.values))


def test_a_warm_stage_at_equal_viscosities_transforms_f_once_each_way(monkeypatch):
    # the demo decay's stage: f's spectrum and grad f (the slope bound and
    # grad beta reuse them), then the velocity operator's one field forward
    # and its two groups' accumulators in one inverse
    cfg = parse_config(DEMO)
    f = initial_field(cfg)
    first = InterfaceState.compute(f, cfg.params).phi_tilde.values  # builds the split's symbols
    calls = []

    def counting(name):
        fn = getattr(np.fft, name)
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("rfftn", "irfftn", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counting(name))
    assert np.array_equal(InterfaceState.compute(f, cfg.params).phi_tilde.values, first)
    assert calls == ["rfftn", "irfftn", "rfftn", "irfftn"]


@pytest.mark.parametrize("case", ["demo", "bump-2d"])
def test_equal_viscosities_take_beta_as_f_itself(case):
    # at a_mu = 0 beta is the geometry's f, and the velocity reads the
    # geometry's grad f: the same bits as the gradient taken afresh
    if case == "demo":
        cfg = parse_config(DEMO)
        f, params = initial_field(cfg), cfg.params
    else:
        f = make_gaussian_bump(GridSpec(2, 2 * np.pi, 16), 0.7, [np.pi] * 2, 0.5)
        params = PhysicalParams(lam=1.0, a_mu=0.0)
    geom = InterfaceGeometry(f)
    assert solve_beta(geom, 0.0)[0] is geom.f
    state = InterfaceState.compute(f, params)
    assert state.beta is state.geom.f
    assert np.array_equal(state.phi_tilde.values, apply_AA(geom, gradient(geom.f)).values)


def test_a_step_builds_no_omega_or_normal():
    # evolve reads neither; the validators and the fields module build them on first use
    cfg = parse_config(DEMO)
    geom = InterfaceState.compute(initial_field(cfg), cfg.params).geom
    assert "omega" not in geom.__dict__ and "normal" not in geom.__dict__


def _contrast_bump(M, amp=0.7):
    """The contrast-2d bump on a 2D grid of M points per axis, with random beta and b."""
    g = GridSpec(2, 2 * np.pi, M)
    geom = InterfaceGeometry(make_gaussian_bump(g, amp, [np.pi] * 2, 0.5))
    rng = np.random.default_rng(3)
    beta = ScalarField(g, rng.standard_normal(g.shape))
    return geom, beta, [ScalarField(g, rng.standard_normal(g.shape)) for _ in range(2)]


def test_a_density_solve_builds_each_symbol_list_once(monkeypatch):
    # GMRES applies D about iterations + 1 times, at more than one split
    # tolerance; D's N+1 lists (nu = 0 with df, and each e_j) are built once
    # per split for the whole solve
    calls = []

    def counting(*args):
        calls.append(args)
        return far_symbols(*args)

    monkeypatch.setattr(muskat.potentials, "far_symbols", counting)
    muskat.potentials._symbol_table.cache_clear()
    geom, _, _ = _contrast_bump(64)
    _, report = solve_beta(geom, 0.5)
    splits = {geom.split(_d_operator(2), split_tol=tol) for tol in report.d_applies}
    assert len(splits) > 1 and all(s.order > 0 for s in splits)  # D takes far fields here
    assert report.iterations >= 3
    assert len(calls) == len(set(calls)) == (geom.grid.dim + 1) * len(splits), calls


def test_far_field_symbols_are_scaled_once():
    # the table's lists are read-only and carry no sign: D on either side of a
    # velocity-operator apply, and D* reading D's entries with the opposite
    # sign, return what a fresh table gives
    geom, beta, b = _contrast_bump(32)
    d_op, d_star_op = _d_operator(2), _d_star_operator(2)
    assert geom.split(d_op) == geom.split(d_star_op)  # one split, one table
    first = apply_D(geom, beta).values
    apply_AA(geom, b)
    again = [apply_D(geom, beta).values for _ in range(2)]
    shared = apply_D_star(geom, beta).values
    muskat.potentials._symbol_table.cache_clear()
    fresh = apply_D_star(geom, beta).values
    assert all(np.array_equal(first, d) for d in again)
    assert np.array_equal(shared, fresh)


def test_far_field_holds_at_most_four_tables(monkeypatch):
    # a stage (a geometry's density solve with D at every relaxation rung,
    # then its velocity operator) reads at most four tables, which the cache
    # holds: the stage builds each list once, one at the same splits builds
    # nothing, and each table holds its N+1 lists (nu = 0 with m = 1 and each
    # e_j with m = 0), each read-only
    table = muskat.potentials._symbol_table
    assert table.cache_parameters()["maxsize"] >= len(RELAXATION_LADDER) + 1
    table.cache_clear()
    builds = []

    def counting(*args):
        builds.append(args)
        return far_symbols(*args)

    monkeypatch.setattr(muskat.potentials, "far_symbols", counting)

    def stage(amp):
        geom, _, _ = _contrast_bump(64, amp)
        beta, _ = solve_beta(geom, 0.5)
        for tol in RELAXATION_LADDER:
            apply_D(geom, beta, split_tol=tol)
        apply_AA(geom, gradient(beta))
        splits = [geom.split(_d_operator(2), split_tol=tol) for tol in RELAXATION_LADDER]
        splits.append(geom.split(_aa_operator(2)))
        return {(geom.grid, s.radius, s.coefs): s for s in splits if s.coefs}

    first = stage(0.7)
    assert len(first) > 2 and table.cache_info().currsize == len(first)
    assert len(builds) == sum(len(table(*key)) for key in first)  # each list once
    second = stage(0.35)
    assert set(second) - set(first)  # the second stage builds
    assert table.cache_info().currsize <= 4
    built = len(builds)
    assert stage(0.35) == second and len(builds) == built
    for key, split in second.items():
        assert len(table(*key)) == key[0].dim + 1
        for symbols in table(*key).values():
            assert len(symbols) == split.order + 1
            assert all(s.shape == (64, 33) and s.dtype == complex and not s.flags.writeable
                       for s in symbols)
    with pytest.raises(ValueError):
        symbols[0] *= 2.0


@pytest.mark.parametrize("amplitude", ["1e200", "1e307"])
def test_huge_interface_ends_with_exit_6(tmp_path, amplitude):
    # far too steep for the small-slope path; the arithmetic overflows, at
    # 1e307 already in the interface's FFTs
    with open(DEMO) as fh:
        text = fh.read().replace("initial.amplitude = 1e-3", f"initial.amplitude = {amplitude}")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text.replace("output.dir = out", f"output.dir = {tmp_path / 'out'}"))
    assert main(["evolve", str(cfg)]) == 6


def test_step_count_is_bounded():
    g = GridSpec(1, 2 * np.pi, 16)
    assert StepperConfig(dt=0.05, t_end=0.1).steps(g, 1.0) == (2, 0.05)
    # a ratio that underflows to 0 is one step of t_end
    assert StepperConfig(dt=1e10, t_end=1e-320).steps(g, 1.0) == (1, 1e-320)
    for dt, t_end in ((1e-300, 0.1), (1e-320, 1e10)):
        with pytest.raises(ValueError, match="steps"):
            StepperConfig(dt=dt, t_end=t_end).steps(g, 1.0)


def test_evolve_volume_conservation_short_horizon():
    # brute-force short-horizon check, not asserted from theory
    g = GridSpec(1, 2 * np.pi, 64)
    params = PhysicalParams(lam=1.0, a_mu=0.4)
    f0 = make_gaussian_bump(g, 0.3, [np.pi], 0.5)
    result = evolve(f0, params, StepperConfig(dt=0.02, t_end=0.2))
    drift = abs(result.series[-1][2] - result.series[0][2])
    assert drift <= 1e-6 * g.extent


def test_lambda_rescaling_of_trajectories():
    # f_Lambda(t) = f_1(Lambda t): run Lambda=2 at dt/2 against Lambda=1 at dt
    g = GridSpec(1, 2 * np.pi, 48)
    f0 = make_gaussian_bump(g, 0.3, [np.pi], 0.5)
    dt = 0.0125
    s1 = InterfaceState.compute(f0, PhysicalParams(lam=1.0, a_mu=0.4))
    s2 = InterfaceState.compute(f0, PhysicalParams(lam=2.0, a_mu=0.4))
    for _ in range(10):
        s1 = step(s1, PhysicalParams(lam=1.0, a_mu=0.4), dt)
    for _ in range(10):
        s2 = step(s2, PhysicalParams(lam=2.0, a_mu=0.4), dt / 2.0)
    diff = np.max(np.abs(s1.f.values - s2.f.values))
    assert diff <= 1e-8 * max(1.0, np.max(np.abs(s1.f.values)))


def test_phi_tilde_linearization_2d():
    # small single mode in 2D follows the same half-derivative linearization
    g = GridSpec(2, 2 * np.pi * 4, 32)
    f = make_mode(g, 1e-3, (2, 0))
    z = 2 * np.pi * 2 / g.extent
    state = InterfaceState.compute(f, PhysicalParams(lam=1.0, a_mu=0.0))
    predicted = -(z / 2.0) * f.values
    err = l2_norm(ScalarField(g, state.phi_tilde.values - predicted)) \
        / l2_norm(f) / (z / 2.0)
    assert err <= 0.03, err


def test_step_equilibrium_3d():
    g = GridSpec(3, 2 * np.pi, 8)
    params = PhysicalParams(lam=1.0, a_mu=0.2)
    state = InterfaceState.compute(make_zero(g), params)
    out = step(state, params, 0.05)
    assert np.all(out.f.values == 0.0)


def test_step_stamps_both_stages_at_t_plus_dt(monkeypatch):
    g = GridSpec(1, 2 * np.pi, 32)
    params = PhysicalParams(lam=1.0, a_mu=0.3)
    state = InterfaceState.compute(make_gaussian_bump(g, 0.2, [np.pi], 0.5), params, t=0.5)
    compute = InterfaceState.compute.__func__
    stamps = []

    def recording(cls, f, p, **kwargs):
        stamps.append(kwargs["t"])
        return compute(cls, f, p, **kwargs)

    monkeypatch.setattr(InterfaceState, "compute", classmethod(recording))
    step(state, params, 0.25)
    assert stamps == [0.75, 0.75]


def test_evolve_guards_the_final_state():
    # one step of a steep bump at a_mu = 0.9 lowers the margin; a floor between
    # the two margins must halt the run at its final state
    g = GridSpec(1, 2 * np.pi, 64)
    params = PhysicalParams(lam=1.0, a_mu=0.9)
    f0 = make_gaussian_bump(g, 1.4, [np.pi], 0.45)
    free = evolve(f0, params, StepperConfig(dt=0.01, t_end=0.01, rt_floor=0.01))
    m0, m1 = free.series[0][1], free.series[1][1]
    assert free.halted is None and m1 < m0
    floor = 0.5 * (m0 + m1)
    result = evolve(f0, params, StepperConfig(dt=0.01, t_end=0.01, rt_floor=floor))
    assert result.halted == "rt-floor"
    assert len(result.series) == 2 and result.final.t == 0.01
    assert np.array_equal(result.final.f.values, free.final.f.values)
