import os

import numpy as np
import pytest

from muskat.config import parse_config
from muskat.dynamics import (InterfaceState, PhysicalParams,
                             RTFloorBreach, StepperConfig, compute_phi_tilde,
                             evolve, rt_margin, step, wow_residual)
from muskat.grid import (GridSpec, ScalarField, l2_norm,
                         make_gaussian_bump, make_mode, make_zero)
from muskat.potentials import InterfaceGeometry


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
    geom = InterfaceGeometry(make_zero(g))
    phi, beta, _ = compute_phi_tilde(geom, 0.5)
    assert np.all(phi.values == 0.0)
    assert np.all(beta.values == 0.0)


def test_phi_tilde_linearization():
    # small mode, a_mu=0: Phi~ = -(|2 pi k/L|/2) f within 3 percent
    g = GridSpec(1, 2 * np.pi * 10, 512)
    eps, kmode = 1e-3, 4          # physical frequency 0.4
    f = make_mode(g, eps, (kmode,))
    geom = InterfaceGeometry(f)
    phi, _, _ = compute_phi_tilde(geom, 0.0)
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
    g = GridSpec(1, 2 * np.pi, 32)
    params = PhysicalParams(lam=1.0, a_mu=0.3)
    state = InterfaceState.compute(make_zero(g), params)
    with pytest.raises(RTFloorBreach):
        step(state, params, 0.01, rt_floor=2.0)  # floor above the flat margin 1


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
    cfg = parse_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                    "configs", "decay_demo.cfg"))
    g = GridSpec(1, 32 * cfg.grid.spacing, 32)
    result = evolve(make_zero(g), cfg.params, cfg.stepper)
    t = np.array([row[0] for row in result.series])
    dt = result.series[-1][5]
    assert abs(t[-1] - cfg.stepper.t_end) <= 1e-12
    assert len(t) - 1 == 66
    assert dt <= cfg.stepper.resolve_dt(cfg.grid, cfg.params.lam)
    assert np.allclose(np.diff(t), dt, rtol=0.0, atol=1e-12)


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
