import itertools

import numpy as np
import pytest

import muskat.offsets

from muskat.grid import (GridSpec, ScalarField, band_limited_random,
                         make_gaussian_bump, make_mode, make_zero)
from muskat.kernels import (OperatorSpec, apply_B, chain_rule_residual, core_fix_apply,
                            far_symbols, riesz_core_fix, riesz_core_weight)
from muskat.multipliers import riesz_core_symbol_grid
from muskat.offsets import PVOffsets, pv_offsets, sphere_area
from muskat.profiles import DifferenceProfile, SmoothProfile, phibar


def oracle_apply_B(profile, n, nu, a_fields, b_fields, beta):
    """Dense double-loop reference with the same offsets as the fast path."""
    g = beta.grid
    M, N, h = g.points, g.dim, g.spacing
    half = (M - 1) // 2 if M % 2 else M // 2 - 1
    area = sphere_area(N)
    out = np.zeros(g.shape)
    offs = [m for m in itertools.product(range(-half, half + 1), repeat=N)
            if any(m)]
    for x_idx in np.ndindex(g.shape):
        total = 0.0
        for m in offs:
            xi = h * np.asarray(m, dtype=float)
            r = float(np.sqrt(np.sum(xi**2)))
            y_idx = tuple((np.asarray(x_idx) - np.asarray(m)) % M)
            pargs = tuple(np.asarray(((f.values[x_idx] - f.values[y_idx]) / r) ** 2)
                          for f in a_fields)
            phiv = float(profile(pargs))
            prod = 1.0
            for f in b_fields:
                prod *= (f.values[x_idx] - f.values[y_idx]) / r
            ang = 1.0
            for j, p in enumerate(nu):
                if p:
                    ang *= xi[j] ** p
            ang /= r ** sum(nu)
            total += phiv * prod * ang * beta.values[y_idx] / r**N * h**N
        out[x_idx] = total / area
    return out


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


# -- profile algebra ----------------------------------------------------------

def test_phibar_values_and_partials():
    for N in (1, 2, 3):
        p = phibar(N)
        assert p((0.0,)) == 1.0
        assert abs(p((1.0,)) - 2.0 ** (-(N + 1) / 2)) < 1e-15
        # stored first and second derivatives against central differences
        for prof, points in ((p, (0.1, 1.0, 3.0)), (p.partial_profile(0), (0.2, 2.0))):
            dprof = prof.partial_profile(0)
            for x in points:
                fd = (prof((x + 1e-5,)) - prof((x - 1e-5,))) / 2e-5
                assert abs(fd - dprof((x,))) <= 1e-6 * max(1.0, abs(dprof((x,))))


def test_difference_profile_linear_base():
    # linear phi: the s-integrand is constant, phi^i(x, y) = d_i phi
    class Linear(SmoothProfile):
        arity = 1

        def __call__(self, args):
            return 3.0 * np.asarray(args[0]) + 1.0

        def partial_profile(self, i):
            return lambda args: 3.0

    d = DifferenceProfile(Linear(), 0)
    assert abs(d((np.asarray(2.0), np.asarray(0.5))) - 3.0) < 1e-14


def test_difference_profile_diagonal():
    # x = y makes the integrand constant in s, so phi^0(x, x) = phibar'(x)
    p = phibar(2)
    d = DifferenceProfile(p, 0)
    for x in (0.0, 0.7, 2.3):
        assert abs(d((np.asarray(x), np.asarray(x))) - p.partial_profile(0)((x,))) < 1e-14


def test_difference_profile_vs_adaptive_quadrature():
    from scipy.integrate import quad
    p = phibar(2)
    d = DifferenceProfile(p, 0)
    dp = p.partial_profile(0)
    x, y = 1.0, 0.0
    ref, _ = quad(lambda s: float(dp((s * x + (1 - s) * y,))), 0.0, 1.0,
                  epsabs=1e-14, epsrel=1e-14)
    assert abs(d((np.asarray(x), np.asarray(y))) - ref) < 1e-12


# -- operator spec ------------------------------------------------------------

def test_parity_enforced():
    with pytest.raises(ValueError):
        OperatorSpec(phibar(2), 0, (1, 1))
    with pytest.raises(ValueError):
        OperatorSpec(phibar(2), 1, (1, 0))
    OperatorSpec(phibar(2), 1, (0, 0))
    OperatorSpec(phibar(2), 0, (0, 1))


def test_argument_count_checks():
    g = GridSpec(1, 2 * np.pi, 16)
    beta = make_mode(g, 1.0, (1,))
    spec = OperatorSpec(phibar(1), 1, (0,))
    with pytest.raises(ValueError):
        apply_B(spec, [], [beta], beta)          # arity mismatch
    with pytest.raises(ValueError):
        apply_B(spec, [beta], [], beta)          # slot mismatch
    g2 = GridSpec(1, 2 * np.pi, 32)
    with pytest.raises(ValueError):
        apply_B(spec, [beta], [beta], make_zero(g2))  # grid mismatch


# -- lattice sum vs brute-force oracle ----------------------------------------

@pytest.mark.parametrize("dim,M,n,nu", [
    (1, 16, 0, (1,)),
    (1, 16, 1, (0,)),
    (1, 12, 2, (1,)),
    (2, 8, 0, (1, 0)),
    (2, 8, 1, (0, 0)),
    (1, 15, 1, (0,)),
    (2, 9, 0, (0, 1)),
    (3, 8, 1, (0, 0, 0)),
])
def test_apply_B_matches_bruteforce(dim, M, n, nu):
    g = GridSpec(dim, 2 * np.pi, M)
    rng = np.random.default_rng(42 + dim + n)
    a = band_limited_random(g, 2, rng, amplitude=0.8)
    bs = [band_limited_random(g, 2, rng, amplitude=0.5) for _ in range(n)]
    beta = band_limited_random(g, 3, rng)
    spec = OperatorSpec(phibar(dim), n, nu)
    fast = apply_B(spec, [a], bs, beta, riesz_core="lattice")
    slow = oracle_apply_B(phibar(dim), n, nu, [a], bs, beta)
    assert rel_err(fast.values, slow) < 1e-12


def test_spectral_mode_is_lattice_plus_corefix():
    g = GridSpec(1, 2 * np.pi, 32)
    rng = np.random.default_rng(0)
    a = band_limited_random(g, 2, rng, amplitude=0.6)
    beta = band_limited_random(g, 4, rng)
    spec = OperatorSpec(phibar(1), 0, (1,))
    lat = apply_B(spec, [a], [], beta, riesz_core="lattice")
    spe = apply_B(spec, [a], [], beta, riesz_core="spectral")
    fix = np.fft.irfft(np.fft.rfft(beta.values) * riesz_core_fix(g, (1,)), n=g.points)
    np.testing.assert_allclose(spe.values, lat.values + fix, rtol=0, atol=1e-14)


def hermitian_core_fix(g, nu):
    """Full-grid Hermitian part (S(k) + conj S(-k)) / 2 of S = exact minus lattice core symbol."""
    weights = np.zeros(g.shape)
    weights[tuple((pv_offsets(g).ints % g.points).T)] = riesz_core_weight(g, nu, g.dim + 1)
    S = riesz_core_symbol_grid(g, nu) - np.fft.fftn(weights)
    return 0.5 * (S + np.conj(S[np.ix_(*[-np.arange(g.points) % g.points] * g.dim)]))


@pytest.mark.parametrize("dim, M", [(1, 16), (1, 15), (2, 16), (2, 9), (3, 8), (3, 9)])
def test_riesz_core_fix_is_the_half_of_the_hermitian_fix(dim, M):
    g = GridSpec(dim, 2 * np.pi, M)
    rng = np.random.default_rng(dim * M)
    # a field with Nyquist content along every axis (for even M)
    v = rng.standard_normal(g.shape) + np.cos(np.pi * sum(np.indices(g.shape)))
    for d in range(dim):
        nu = tuple(int(j == d) for j in range(dim))
        full = hermitian_core_fix(g, nu)
        fix = riesz_core_fix(g, nu)
        assert fix.shape == g.shape[:-1] + (M // 2 + 1,) and not fix.flags.writeable
        assert np.max(np.abs(fix - full[..., :M // 2 + 1])) <= 1e-15
        ref = -2.5 * np.fft.ifftn(np.fft.fftn(v) * full).real
        applied = np.fft.irfftn(core_fix_apply(g, nu, np.fft.rfftn(v)), s=g.shape, axes=range(dim))
        assert np.max(np.abs(-2.5 * applied - ref)) <= 1e-14


def test_riesz_symbol_at_zero_coefficients():
    # spectral mode reproduces the half-Riesz symbol -(i/2) k1/|k| exactly
    g = GridSpec(1, 2 * np.pi, 64)
    spec = OperatorSpec(phibar(1), 0, (1,))
    z = make_zero(g)
    for k in (1, 3, 7):
        beta = make_mode(g, 1.0, (k,))
        out = apply_B(spec, [z], [], beta)
        ft = np.fft.fft(out.values) / g.points
        measured = 2.0 * ft[k]  # cos mode splits into two conjugate bins
        assert abs(measured - (-0.5j)) < 1e-12


def test_windowed_linear_coefficients_cancel():
    # odd kernel with frozen coefficients cancels on the symmetric offset set;
    # window-edge effects keep this at quadrature (not rounding) level
    g = GridSpec(1, 2 * np.pi, 64)
    x = g.axis_coords()
    window = np.exp(-((x - np.pi) ** 2) / (2 * 0.5**2))
    lin = ScalarField(g, 0.5 * (x - np.pi) * window)
    beta = ScalarField(g, np.ones(g.shape))
    spec = OperatorSpec(phibar(1), 0, (1,))
    out = apply_B(spec, [lin], [], beta, riesz_core="lattice")
    center = g.points // 2
    assert abs(out.values[center]) < 5e-3


def test_multilinearity_scaling():
    g = GridSpec(1, 2 * np.pi, 32)
    rng = np.random.default_rng(1)
    a = band_limited_random(g, 2, rng, amplitude=0.5)
    b1 = band_limited_random(g, 2, rng)
    b2 = band_limited_random(g, 3, rng)
    beta = band_limited_random(g, 3, rng)
    spec = OperatorSpec(phibar(1), 2, (1,))
    base = apply_B(spec, [a], [b1, b2], beta)
    scaled = apply_B(spec, [a], [ScalarField(g, 3.0 * b1.values), b2], beta)
    np.testing.assert_allclose(scaled.values, 3.0 * base.values, rtol=0, atol=1e-13)


@pytest.mark.parametrize("order,twins",
                         [pytest.param(p, False, id="".join(map(str, p)))
                          for p in itertools.permutations(range(3))]
                         + [pytest.param((1, 0), False, id="10"),
                            pytest.param((1, 2, 0), True, id="120-twins")])
def test_slot_permutation_bit_identical(order, twins):
    # b permuted by ``order``: every order of three slots, two slots, and
    # three slots of which two are distinct arrays holding equal values
    g = GridSpec(1, 2 * np.pi, 24)
    rng = np.random.default_rng(9)
    a = band_limited_random(g, 2, rng, amplitude=0.5)
    bs = [band_limited_random(g, 2, rng) for _ in range(3)]
    beta = band_limited_random(g, 2, rng)
    if twins:
        bs[0] = ScalarField(g, bs[2].values)
        assert bs[0].values is not bs[2].values
    bs = bs[:len(order)]
    spec = OperatorSpec(phibar(1), len(order), ((len(order) + 1) % 2,))  # n + |nu| odd
    out1 = apply_B(spec, [a], bs, beta)
    out2 = apply_B(spec, [a], [bs[i] for i in order], beta)
    assert np.array_equal(out1.values, out2.values)


def test_difference_identity():
    # B^phi(a) - B^phi(atilde) = sum_i B^{phi^i}_{n+2}(a, atilde)[a_i - at_i, a_i + at_i, b, beta]
    g = GridSpec(1, 2 * np.pi, 48)
    rng = np.random.default_rng(4)
    a = band_limited_random(g, 3, rng, amplitude=0.7)
    at = band_limited_random(g, 3, rng, amplitude=0.7)
    b = band_limited_random(g, 2, rng)
    beta = band_limited_random(g, 3, rng)
    spec = OperatorSpec(phibar(1), 1, (0,))
    lhs = (apply_B(spec, [a], [b], beta).values
           - apply_B(spec, [at], [b], beta).values)
    dspec = OperatorSpec(DifferenceProfile(phibar(1), 0), 3, (0,))
    diff = ScalarField(g, a.values - at.values)
    summ = ScalarField(g, a.values + at.values)
    rhs = apply_B(dspec, [a, at], [diff, summ, b], beta).values
    assert rel_err(lhs, rhs) < 1e-10


def test_chain_rule_constant_coefficients():
    # at a = 0 the operator is a convolution and commutes with derivatives
    g = GridSpec(1, 2 * np.pi, 64)
    rng = np.random.default_rng(12)
    beta = band_limited_random(g, 5, rng)
    spec = OperatorSpec(phibar(1), 0, (1,))
    res = chain_rule_residual(spec, make_zero(g), [], beta)
    assert res < 1e-8


def test_chain_rule_refinement_order():
    # smooth Gaussian data, residual must drop with observed order >= 1
    residuals = []
    for M in (48, 96):
        g = GridSpec(1, 2 * np.pi, M)
        a = make_gaussian_bump(g, 0.8, [np.pi], 0.45)
        beta = make_gaussian_bump(g, 1.0, [np.pi + 0.4], 0.5)
        spec = OperatorSpec(phibar(1), 1, (0,))
        residuals.append(chain_rule_residual(spec, a, [a], beta))
    order = np.log2(residuals[0] / residuals[1])
    assert order >= 1.0, residuals


def test_chain_rule_linear_a():
    # windowed linear a freezes the D-factors; residual stays at quadrature level
    g = GridSpec(1, 2 * np.pi, 64)
    x = g.axis_coords()
    window = np.exp(-((x - np.pi) ** 2) / (2 * 0.6**2))
    a = ScalarField(g, 0.4 * (x - np.pi) * window)
    beta = make_gaussian_bump(g, 1.0, [np.pi], 0.4)
    spec = OperatorSpec(phibar(1), 1, (0,))
    res = chain_rule_residual(spec, a, [a], beta)
    assert res < 0.05


def test_lattice_core_symbol_is_fft_of_weights():
    g = GridSpec(1, 2 * np.pi, 16)
    off = pv_offsets(g)
    sym = far_symbols(g, 0, (1,), 0)[0]
    # reconstruct mode-3 response directly
    k = 3
    direct = sum(off.xi[t, 0] / off.r[t] * g.spacing / (off.r[t] * sphere_area(1))
                 * np.exp(-2j * np.pi * k * off.ints[t, 0] / g.points)
                 for t in range(off.count))
    assert abs(sym[k] - direct) < 1e-14


def test_offsets_symmetric_and_punctured():
    for dim, M in ((1, 16), (1, 17), (2, 8)):
        off = pv_offsets(GridSpec(dim, 1.0, M))
        ints = {tuple(v) for v in off.ints}
        assert all(tuple(-np.asarray(v)) in ints for v in ints)
        assert (0,) * dim not in ints
        if M % 2 == 0:
            assert all(abs(c) < M // 2 for v in ints for c in v)


def test_apply_B_does_not_depend_on_the_block_cap(monkeypatch):
    # the B-transforms share the kernel loop's running sum: the n = 0 core, a
    # one-slot transform and the three-slot difference profile, bit for bit
    g = GridSpec(1, 2 * np.pi, 512)
    rng = np.random.default_rng(5)
    a, at, b, beta = (band_limited_random(g, 3, rng, amplitude=0.7) for _ in range(4))
    cases = [(OperatorSpec(phibar(1), 0, (1,)), [a], []),
             (OperatorSpec(phibar(1), 1, (0,)), [a], [b]),
             (OperatorSpec(DifferenceProfile(phibar(1), 0), 3, (0,)), [a, at], [b, at, a])]
    outs, blocks = [], set()
    for cap in (8 * 1024, 64 * 1024, 1024 * 1024):
        monkeypatch.setattr(muskat.offsets, "BLOCK_BYTES", cap)
        # a fresh PV set for the kernel loop: the cached one keeps its blocks
        monkeypatch.setattr(muskat.offsets, "pv_offsets", PVOffsets)
        blocks.add(len(PVOffsets(g).blocks))
        outs.append([apply_B(spec, a_f, b_f, beta).values for spec, a_f, b_f in cases])
    assert len(blocks) == 3
    for other in outs[1:]:
        assert all(np.array_equal(x, y) for x, y in zip(outs[0], other))


def test_thread_count_bit_identity(monkeypatch):
    g = GridSpec(1, 2 * np.pi, 48)
    rng = np.random.default_rng(5)
    a = band_limited_random(g, 3, rng, amplitude=0.7)
    b = band_limited_random(g, 2, rng)
    beta = band_limited_random(g, 3, rng)
    spec = OperatorSpec(phibar(1), 1, (0,))
    monkeypatch.setenv("MUSKAT_THREADS", "1")
    one = apply_B(spec, [a], [b], beta)
    monkeypatch.setenv("MUSKAT_THREADS", "4")
    four = apply_B(spec, [a], [b], beta)
    assert np.array_equal(one.values, four.values)
