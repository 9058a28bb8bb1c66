import numpy as np
import pytest

from muskat.fields import (ProbePoint, analytic_velocity_jump, eval_pressure,
                           eval_velocity, jump_check)
from muskat.grid import GridSpec, ScalarField, make_gaussian_bump, make_zero
from muskat.potentials import InterfaceGeometry


def gaussian_setup(M=128, L=2 * np.pi, famp=0.5, bamp=1.0, width=0.5):
    g = GridSpec(1, L, M)
    geom = InterfaceGeometry(make_gaussian_bump(g, famp, [L / 2], width))
    beta = make_gaussian_bump(g, bamp, [L / 2 + 0.2], width)
    return geom, beta


def test_probe_side_and_rejection():
    geom, beta = gaussian_setup()
    g = geom.grid
    p = ProbePoint.locate(geom, [np.pi], 2.0)
    assert p.side == 1
    p = ProbePoint.locate(geom, [np.pi], -1.0)
    assert p.side == -1
    near = ProbePoint.locate(geom, [np.pi], float(geom.f.values[g.points // 2]) + 0.1 * g.spacing)
    with pytest.raises(ValueError):
        eval_velocity(geom, beta, [near])


def test_zero_density_zero_fields():
    geom, _ = gaussian_setup(64)
    z = make_zero(geom.grid)
    probes = [ProbePoint.locate(geom, [1.0], 2.5)]
    assert np.allclose(eval_velocity(geom, z, probes)[0], 0.0)
    assert eval_pressure(geom, z, probes)[0] == 0.0


def test_velocity_linearity():
    geom, beta = gaussian_setup(64)
    g = geom.grid
    beta2 = make_gaussian_bump(g, 0.7, [np.pi - 0.4], 0.45)
    combo = ScalarField(g, 2.0 * beta.values - 0.5 * beta2.values)
    probes = [ProbePoint.locate(geom, [2.0], 1.5)]
    v = eval_velocity(geom, combo, probes)[0]
    v1 = eval_velocity(geom, beta, probes)[0]
    v2 = eval_velocity(geom, beta2, probes)[0]
    np.testing.assert_allclose(v, 2.0 * v1 - 0.5 * v2, atol=1e-14)


def test_far_field_decay_trend():
    # |v| decays along a vertical ray (the paper's far-field statement is
    # qualitative; the trend over the last decade of distances is checked)
    geom, beta = gaussian_setup(128)
    heights = [2.0, 4.0, 8.0, 16.0]
    mags = []
    for yv in heights:
        p = ProbePoint.locate(geom, [np.pi], yv)
        mags.append(float(np.linalg.norm(eval_velocity(geom, beta, [p])[0])))
    assert all(a > b for a, b in zip(mags, mags[1:])), mags
    q = [abs(eval_pressure(geom, beta, [ProbePoint.locate(geom, [np.pi], yv)])[0])
         for yv in heights]
    assert q[0] > q[-1]


def test_velocity_is_minus_grad_pressure():
    # v ~ -grad q via central differences of eval_pressure at probe stencils
    geom, beta = gaussian_setup(256)
    x0, y0, d = 3.4, 1.2, 1e-4
    v = eval_velocity(geom, beta, [ProbePoint.locate(geom, [x0], y0)])[0]
    qx = [eval_pressure(geom, beta, [ProbePoint.locate(geom, [x0 + s * d], y0)])[0]
          for s in (+1, -1)]
    qy = [eval_pressure(geom, beta, [ProbePoint.locate(geom, [x0], y0 + s * d)])[0]
          for s in (+1, -1)]
    grad_q = np.array([(qx[0] - qx[1]) / (2 * d), (qy[0] - qy[1]) / (2 * d)])
    assert np.max(np.abs(v + grad_q)) < 5e-4 * max(1.0, np.max(np.abs(v)))


def test_divergence_free_stencil():
    geom, beta = gaussian_setup(256)
    x0, y0, d = 2.6, 0.9, 1e-4

    def vel(x, y):
        return eval_velocity(geom, beta, [ProbePoint.locate(geom, [x], y)])[0]

    div = ((vel(x0 + d, y0)[0] - vel(x0 - d, y0)[0])
           + (vel(x0, y0 + d)[1] - vel(x0, y0 - d)[1])) / (2 * d)
    assert abs(div) < 5e-4


def test_pressure_harmonic_stencil():
    geom, beta = gaussian_setup(256)
    x0, y0, d = 3.0, 1.1, 5e-3

    def q(x, y):
        return eval_pressure(geom, beta, [ProbePoint.locate(geom, [x], y)])[0]

    lap = (q(x0 + d, y0) + q(x0 - d, y0) + q(x0, y0 + d) + q(x0, y0 - d)
           - 4 * q(x0, y0)) / d**2
    assert abs(lap) < 1e-3


def test_jump_constant_windowed_density():
    # grad beta ~ 0 where beta is flat: the jump nearly vanishes
    geom, _ = gaussian_setup(128, famp=0.4)
    g = geom.grid
    x = g.axis_coords()
    plateau = np.exp(-((x - np.pi) ** 4) / (2 * 1.2**4))
    beta = ScalarField(g, plateau)
    idx = g.points // 2
    analytic = analytic_velocity_jump(geom, beta, (idx,))
    assert np.max(np.abs(analytic)) < 1e-3


def _documented_jump_case(M):
    g = GridSpec(1, 16.0, M)
    geom = InterfaceGeometry(make_gaussian_bump(g, 0.3, [8.0], 1.3))
    beta = make_gaussian_bump(g, 1.0, [8.4], 1.3)
    c = M // 2
    samples = [(c + s,) for s in range(-M // 16, M // 16 + 1, M // 32)]
    return geom, beta, samples


def test_jump_check_decay_trend():
    geom, beta, samples = _documented_jump_case(384)
    report = jump_check(geom, beta, samples)
    h = geom.grid.spacing
    devs = [report.max_deviation[d] for d in report.offsets]  # descending d
    assert devs[0] > devs[1] > devs[2], report
    assert np.polyfit(np.log(report.offsets), np.log(devs), 1)[0] > 0.5  # decay order in d
    assert report.deviation_fraction(4 * h) <= 0.20, report


def test_jump_check_flat_interface():
    g = GridSpec(1, 16.0, 384)
    geom = InterfaceGeometry(make_zero(g))
    beta = make_gaussian_bump(g, 1.0, [8.0], 1.3)
    report = jump_check(geom, beta, [(192,), (200,)])
    h = g.spacing
    devs = [report.max_deviation[d] for d in report.offsets]
    assert devs[0] > devs[1] > devs[2], report
    assert report.deviation_fraction(4 * h) <= 0.20, report
