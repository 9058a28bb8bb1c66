import numpy as np
import pytest

from muskat.grid import (GridSpec, ScalarField, band_limited_random, gradient,
                         l2_norm, make_gaussian_bump, make_mode, make_zero)
from muskat.potentials import (InterfaceGeometry, adjointness_defect, apply_A,
                               apply_A_composed, apply_AA, apply_AA_composed,
                               apply_D, apply_D_composed, apply_D_star,
                               apply_D_star_composed, boundary_trace,
                               gradient_identity_residual, rellich_residual)


def rel_err(a, b):
    scale = max(np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


def gaussian_geometry(M, dim=1, amp=0.8, width=0.5, L=2 * np.pi):
    g = GridSpec(dim, L, M)
    f = make_gaussian_bump(g, amp, [L / 2] * dim, width)
    return InterfaceGeometry(f)


def test_geometry_invariants():
    geom = gaussian_geometry(64)
    assert np.min(geom.omega.values) >= 1.0
    norm2 = sum(c.values**2 for c in geom.normal)
    assert np.max(np.abs(norm2 - 1.0)) < 1e-12


def test_D_flat_interface_vanishes():
    g = GridSpec(1, 2 * np.pi, 32)
    geom = InterfaceGeometry(make_zero(g))
    beta = band_limited_random(g, 4, np.random.default_rng(0))
    assert np.max(np.abs(apply_D(geom, beta).values)) == 0.0
    assert np.max(np.abs(apply_D_star(geom, beta).values)) == 0.0


def test_D_windowed_linear_interface():
    # numerator df - xi.grad f(x-xi) vanishes identically where f is linear;
    # only window-edge and tail terms remain (quadrature, not rounding, level)
    g = GridSpec(1, 2 * np.pi, 128)
    x = g.axis_coords()
    window = np.exp(-((x - np.pi) ** 2) / (2 * 0.7**2))
    f = ScalarField(g, 0.5 * (x - np.pi) * window)
    geom = InterfaceGeometry(f)
    beta = make_gaussian_bump(g, 1.0, [np.pi], 0.3)
    out = apply_D(geom, beta)
    center = g.points // 2
    assert abs(out.values[center]) < 2e-3


def test_D_direct_equals_composed():
    for dim, M in ((1, 64), (2, 16)):
        g = GridSpec(dim, 2 * np.pi, M)
        rng = np.random.default_rng(dim)
        f = make_gaussian_bump(g, 0.7, [np.pi] * dim, 0.5)
        beta = band_limited_random(g, 3, rng)
        geom = InterfaceGeometry(f)
        direct = apply_D(geom, beta)
        composed = apply_D_composed(geom, beta)
        assert rel_err(direct.values, composed.values) < 1e-10


def test_D_star_direct_equals_composed():
    g = GridSpec(1, 2 * np.pi, 64)
    geom = gaussian_geometry(64)
    beta = band_limited_random(g, 3, np.random.default_rng(5))
    direct = apply_D_star(geom, beta)
    composed = apply_D_star_composed(geom, beta)
    assert rel_err(direct.values, composed.values) < 1e-10


def test_adjointness_exact():
    # discrete kernels are exact transposes: rounding-level adjointness
    rng = np.random.default_rng(17)
    for dim, M in ((1, 64), (2, 16)):
        g = GridSpec(dim, 2 * np.pi, M)
        f = make_gaussian_bump(g, 0.9, [np.pi] * dim, 0.5)
        geom = InterfaceGeometry(f)
        for _ in range(5):
            beta = band_limited_random(g, 3, rng)
            gamma = band_limited_random(g, 3, rng)
            assert adjointness_defect(geom, beta, gamma) < 1e-12


def test_D_linearity():
    g = GridSpec(1, 2 * np.pi, 48)
    geom = gaussian_geometry(48)
    rng = np.random.default_rng(2)
    b1 = band_limited_random(g, 3, rng)
    b2 = band_limited_random(g, 4, rng)
    combo = ScalarField(g, 2.0 * b1.values - 3.0 * b2.values)
    out = apply_D(geom, combo)
    ref = 2.0 * apply_D(geom, b1).values - 3.0 * apply_D(geom, b2).values
    np.testing.assert_allclose(out.values, ref, atol=1e-13)


def test_A_flat_interface_vanishes():
    g = GridSpec(2, 2 * np.pi, 12)
    geom = InterfaceGeometry(make_zero(g))
    beta = band_limited_random(g, 3, np.random.default_rng(1))
    out = apply_A(geom, gradient(beta))
    for comp in out:
        assert np.max(np.abs(comp.values)) == 0.0


def test_A_direct_equals_composed():
    for dim, M in ((1, 64), (2, 16)):
        g = GridSpec(dim, 2 * np.pi, M)
        rng = np.random.default_rng(3 + dim)
        f = make_gaussian_bump(g, 0.6, [np.pi] * dim, 0.5)
        geom = InterfaceGeometry(f)
        b = [band_limited_random(g, 3, rng) for _ in range(dim)]
        direct = apply_A(geom, b)
        composed = apply_A_composed(geom, b)
        for dc, cc in zip(direct, composed):
            assert rel_err(dc.values, cc.values) < 1e-10


def test_gradient_identity_flat():
    g = GridSpec(1, 2 * np.pi, 32)
    geom = InterfaceGeometry(make_zero(g))
    beta = band_limited_random(g, 4, np.random.default_rng(0))
    assert gradient_identity_residual(geom, beta) < 1e-14


def test_gradient_identity_refinement():
    residuals = []
    for M in (64, 128):
        geom = gaussian_geometry(M, amp=0.8, width=0.5)
        beta = make_gaussian_bump(geom.grid, 1.0, [np.pi + 0.3], 0.5)
        residuals.append(gradient_identity_residual(geom, beta))
    order = np.log2(residuals[0] / residuals[1])
    assert order >= 0.95, residuals


def test_gradient_identity_flux_floor_documented():
    # without the torus flux term the defect saturates at the O(1/L) floor
    geom = gaussian_geometry(128, amp=0.8, width=0.5)
    beta = make_gaussian_bump(geom.grid, 1.0, [np.pi + 0.3], 0.5)
    with_flux = gradient_identity_residual(geom, beta)
    without = gradient_identity_residual(geom, beta, include_torus_flux=False)
    assert with_flux < 0.5 * without


def test_AA_flat_interface_is_half_derivative_symbol():
    # f = 0, b = grad beta: Fourier symbol -|z|/2 applied to beta
    g = GridSpec(1, 2 * np.pi, 64)
    geom = InterfaceGeometry(make_zero(g))
    for k in (1, 3, 5):
        beta = make_mode(g, 1.0, (k,))
        out = apply_AA(geom, gradient(beta))
        np.testing.assert_allclose(out.values, -0.5 * k * beta.values, atol=1e-11)


def test_AA_zero_b():
    g = GridSpec(1, 2 * np.pi, 32)
    geom = gaussian_geometry(32)
    out = apply_AA(geom, [make_zero(g)])
    assert np.max(np.abs(out.values)) == 0.0


def test_AA_direct_equals_composed():
    for dim, M in ((1, 64), (2, 16)):
        g = GridSpec(dim, 2 * np.pi, M)
        rng = np.random.default_rng(7 + dim)
        f = make_gaussian_bump(g, 0.7, [np.pi] * dim, 0.5)
        geom = InterfaceGeometry(f)
        b = [band_limited_random(g, 3, rng) for _ in range(dim)]
        direct = apply_AA(geom, b)
        composed = apply_AA_composed(geom, b)
        assert rel_err(direct.values, composed.values) < 1e-10
        # and the lattice modes agree with each other as well
        dl = apply_AA(geom, b, riesz_core="lattice")
        cl = apply_AA_composed(geom, b, riesz_core="lattice")
        assert rel_err(dl.values, cl.values) < 1e-10


def test_misspelled_core_mode_is_rejected():
    geom = gaussian_geometry(32)
    b = [band_limited_random(geom.grid, 3, np.random.default_rng(0))]
    for op in (apply_AA, apply_AA_composed):
        with pytest.raises(ValueError, match="riesz_core"):
            op(geom, b, riesz_core="spectra")


def test_rellich_flat_interface():
    # reduces to the exact discrete Riesz identity plus the torus flux term
    g = GridSpec(1, 2 * np.pi, 64)
    geom = InterfaceGeometry(make_zero(g))
    beta = make_gaussian_bump(g, 1.0, [np.pi], 0.5)
    res = rellich_residual(geom, beta)
    assert res <= 1e-6 * l2_norm(beta) ** 2


def test_rellich_zero_density():
    geom = gaussian_geometry(32)
    assert rellich_residual(geom, make_zero(geom.grid)) == 0.0


def test_rellich_refinement():
    residuals = []
    for M in (64, 128):
        geom = gaussian_geometry(M, amp=0.6, width=0.5)
        beta = make_gaussian_bump(geom.grid, 1.0, [np.pi], 0.45)
        residuals.append(rellich_residual(geom, beta))
    assert residuals[1] < residuals[0], residuals


def test_boundary_trace_flat_is_riesz():
    g = GridSpec(1, 2 * np.pi, 64)
    geom = InterfaceGeometry(make_zero(g))
    beta = make_mode(g, 1.0, (2,))
    G = boundary_trace(geom, beta)
    x = g.axis_coords()
    np.testing.assert_allclose(G[0].values, 0.5 * np.sin(2 * x), atol=1e-12)
    assert np.max(np.abs(G[1].values)) == 0.0


def test_grid_mismatch_errors():
    geom = gaussian_geometry(32)
    other = GridSpec(1, 2 * np.pi, 64)
    with pytest.raises(ValueError):
        apply_D(geom, make_zero(other))
    with pytest.raises(ValueError):
        apply_AA(geom, [make_zero(other)])


def test_adjointness_3d():
    g = GridSpec(3, 2 * np.pi, 8)
    rng = np.random.default_rng(11)
    f = make_gaussian_bump(g, 0.5, [np.pi] * 3, 0.5)
    geom = InterfaceGeometry(f)
    beta = band_limited_random(g, 2, rng)
    gamma = band_limited_random(g, 2, rng)
    assert adjointness_defect(geom, beta, gamma) < 1e-12


def test_AA_flat_symbol_3d():
    g = GridSpec(3, 2 * np.pi, 8)
    geom = InterfaceGeometry(make_zero(g))
    beta = make_mode(g, 1.0, (1, 0, 0))
    out = apply_AA(geom, gradient(beta))
    np.testing.assert_allclose(out.values, -0.5 * beta.values, atol=1e-9)
