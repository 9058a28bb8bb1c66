import numpy as np
import pytest

from muskat.grid import (GridSpec, ScalarField, band_limited_random, gradient,
                         integrate, l2_norm, load_field,
                         make_gaussian_bump, make_mode, make_zero, save_field,
                         sobolev_norm, spectral_derivative, wavenumber_squared)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 1.0, 16)
    with pytest.raises(ValueError):
        GridSpec(1, 1.0, 4)
    with pytest.raises(ValueError):
        GridSpec(2, -1.0, 16)
    g = GridSpec(2, 10.0, 20)
    assert g.spacing * g.points == g.extent


def test_field_invariants():
    g = GridSpec(1, 1.0, 16)
    with pytest.raises(ValueError):
        ScalarField(g, np.full(16, np.nan))
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(8))
    u = make_zero(g)
    with pytest.raises(ValueError):
        u.values[0] = 1.0  # immutable buffer


def test_frequency_index_bounds():
    g = GridSpec(1, 2 * np.pi, 16)
    make_mode(g, 1.0, (8,))
    with pytest.raises(ValueError):
        make_mode(g, 1.0, (9,))


def test_single_mode_derivative():
    g = GridSpec(1, 4.0, 64)
    u = make_mode(g, 1.0, (1,))
    du = spectral_derivative(u, 0)
    x = g.axis_coords()
    expected = -(2 * np.pi / g.extent) * np.sin(2 * np.pi * x / g.extent)
    np.testing.assert_allclose(du.values, expected, atol=1e-12)


def test_constant_derivative_zero():
    g = GridSpec(2, 3.0, 16)
    u = ScalarField(g, np.full(g.shape, 2.5))
    for j in range(2):
        assert np.max(np.abs(spectral_derivative(u, j).values)) < 1e-13


def test_derivative_matches_finite_differences():
    # central differences are the independent O(h^2) oracle
    g = GridSpec(1, 2 * np.pi, 128)
    rng = np.random.default_rng(7)
    u = band_limited_random(g, 4, rng)
    du = spectral_derivative(u, 0)
    h = g.spacing
    fd = (np.roll(u.values, -1) - np.roll(u.values, 1)) / (2 * h)
    # O(h^2) with the third-derivative constant of a |k|<=4 field
    assert np.max(np.abs(du.values - fd)) < (4.0**3 / 6.0) * h**2 * np.max(np.abs(u.values)) * 1.5


def test_derivatives_commute():
    g = GridSpec(2, 5.0, 24)
    rng = np.random.default_rng(3)
    u = band_limited_random(g, 5, rng)
    a = spectral_derivative(spectral_derivative(u, 0), 1)
    b = spectral_derivative(spectral_derivative(u, 1), 0)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_integral_of_derivative_vanishes():
    g = GridSpec(1, 7.0, 64)
    rng = np.random.default_rng(11)
    u = band_limited_random(g, 9, rng)
    assert abs(integrate(spectral_derivative(u, 0))) < 1e-10


def test_axis_out_of_range():
    g = GridSpec(1, 1.0, 16)
    with pytest.raises(ValueError):
        spectral_derivative(make_zero(g), 1)


def test_sobolev_parseval():
    g = GridSpec(2, 3.0, 16)
    rng = np.random.default_rng(5)
    u = band_limited_random(g, 6, rng)
    assert abs(sobolev_norm(u, 0.0) - l2_norm(u)) <= 1e-12 * l2_norm(u)


def test_sobolev_constant():
    # the squares of the last two constants underflow and overflow; the norms do not
    g = GridSpec(1, 4.0, 32)
    for c in (-1.7, 1e-200, 1e200):
        u = ScalarField(g, np.full(g.shape, c))
        expected = abs(c) * g.extent**0.5
        assert abs(l2_norm(u) - expected) < 1e-13 * expected
        for s in (0.0, 1.0, 2.5):
            assert abs(sobolev_norm(u, s) - expected) < 1e-13 * expected


def test_sobolev_single_mode():
    # the second case's (1+|k|^2)^s |u_k|^2 overflows; the norm does not.  The
    # Nyquist mode k = M/2 has one Fourier coefficient, any other mode two.
    for M, eps, k, s, coeffs in ((64, 1e-3, 3, 1.5, 2), (16, 0.1, 8, 170.0, 1)):
        g = GridSpec(1, 2 * np.pi, M)
        u = make_mode(g, eps, (k,))
        expected = eps * (1 + k**2) ** (s / 2) * np.sqrt(g.extent / coeffs)
        assert abs(sobolev_norm(u, s) - expected) < 1e-12 * expected


@pytest.mark.parametrize("dim, M", [(1, 64), (1, 63), (2, 16), (2, 15), (3, 8), (3, 9)])
def test_sobolev_half_spectrum_matches_full(dim, M):
    # the rfftn half with conjugate pairs weighted, against the full fftn sum
    g = GridSpec(dim, 2 * np.pi, M)
    u = band_limited_random(g, M // 2, np.random.default_rng(dim + M))
    full = np.abs(np.fft.fftn(u.values)) ** 2
    for s in (0.0, 1.0, 2.0, 3.5):
        expected = np.sqrt(np.sum((1.0 + wavenumber_squared(g)) ** s * full)
                           * g.extent**dim / g.size**2)
        assert abs(sobolev_norm(u, s) - expected) <= 1e-13 * expected


def test_integrate_constant_and_mode():
    g = GridSpec(2, 3.0, 16)
    assert abs(integrate(ScalarField(g, np.full(g.shape, 2.0))) - 2.0 * 3.0**2) < 1e-12
    assert abs(integrate(make_mode(g, 1.0, (1, 0)))) < 1e-12


def test_gaussian_mass():
    # oracle: the analytic Gaussian integral amplitude*(2*pi)^(N/2)*width^N
    g = GridSpec(1, 40.0, 256)
    amp, width = 0.7, 1.3
    u = make_gaussian_bump(g, amp, [20.0], width)
    mass = amp * np.sqrt(2 * np.pi) * width
    assert abs(integrate(u) - mass) < 1e-8 * mass


def test_gaussian_strict_rejects_fat_bump():
    g = GridSpec(1, 10.0, 64)
    with pytest.raises(ValueError):
        make_gaussian_bump(g, 1.0, [5.0], 4.0)


def test_snapshot_roundtrip(tmp_path):
    g = GridSpec(2, 6.0, 12)
    rng = np.random.default_rng(2)
    u = band_limited_random(g, 4, rng)
    path = tmp_path / "f.bin"
    save_field(path, u)
    v = load_field(path)
    assert v.grid == g
    assert np.array_equal(v.values, u.values)


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "g.bin"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(ValueError):
        load_field(path)


@pytest.mark.parametrize("dim,M", [(1, 64), (1, 63), (2, 16), (2, 15), (3, 8), (3, 9)])
def test_gradient_is_the_stacked_spectral_derivative(dim, M):
    # one rfftn and one stacked irfftn give each axis's derivative bit for bit
    g = GridSpec(dim, 2 * np.pi, M)
    u = band_limited_random(g, M // 2, np.random.default_rng(dim * M))
    for j, du in enumerate(gradient(u)):
        assert np.array_equal(du.values, spectral_derivative(u, j).values)


@pytest.mark.parametrize("dim,M", [(1, 64), (1, 63), (2, 16), (2, 15), (3, 8), (3, 9)])
def test_band_limited_fields_differentiate_to_rounding(dim, M):
    g = GridSpec(dim, 2 * np.pi, M)
    x = g.meshgrid()
    rng = np.random.default_rng(M)
    u, exact = np.zeros(g.shape), np.zeros((dim,) + g.shape)
    for _ in range(4):
        k, phase = rng.integers(-3, 4, dim), rng.uniform(0, 2 * np.pi)
        arg = sum(kj * xj for kj, xj in zip(k, x)) + phase
        u += np.sin(arg)
        exact += np.cos(arg) * k.reshape((dim,) + (1,) * dim)
    for du, ex in zip(gradient(ScalarField(g, u)), exact):
        assert np.max(np.abs(du.values - ex)) <= 1e-13


@pytest.mark.parametrize("dim,M", [(1, 8), (1, 12), (2, 8), (2, 16), (3, 8), (3, 16)])
def test_a_nyquist_mode_differentiates_to_zero(dim, M):
    # the Nyquist plane of each axis has a zero symbol: (-1)^n along axis j,
    # times the mode M/4 (1, 0, -1, 0, ...) along the next axis, has an exactly
    # zero derivative along j; at these M the transforms of these values are
    # exact, so nothing else is left to act on
    g = GridSpec(dim, 2 * np.pi, M)
    n = np.indices(g.shape)
    for j in range(dim):
        u = np.where(n[j] % 2 == 0, 1.0, -1.0)
        if dim > 1:
            u = u * np.array([1.0, 0.0, -1.0, 0.0])[n[(j + 1) % dim] % 4]
        assert not np.any(gradient(ScalarField(g, u))[j].values)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gradient_takes_one_transform_each_way(monkeypatch, dim):
    u = band_limited_random(GridSpec(dim, 2 * np.pi, 8), 2, np.random.default_rng(0))
    calls = []

    def counting(name):
        fn = getattr(np.fft, name)
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("rfftn", "irfftn", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counting(name))
    assert len(gradient(u)) == dim
    assert calls == ["rfftn", "irfftn"]


def test_a_huge_extent_bump_does_not_overflow():
    # no square of a displacement or of L/2 overflows; the bump is the one grid
    # point at its center, and a bump too wide for the cell is still refused
    g = GridSpec(2, 1e300, 16)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        u = make_gaussian_bump(g, 0.5, [g.extent / 2] * 2, 0.5)
        with pytest.raises(ValueError, match="does not decay"):
            make_gaussian_bump(g, 0.5, [g.extent / 2] * 2, 1e299)
    assert u.values[8, 8] == 0.5 and np.count_nonzero(u.values) == 1


def test_gradient_helper():
    g = GridSpec(2, 2 * np.pi, 16)
    u = make_mode(g, 1.0, (0, 2))
    gx, gy = gradient(u)
    assert np.max(np.abs(gx.values)) < 1e-12
    assert np.max(np.abs(gy.values)) > 0.1
