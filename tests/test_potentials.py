import tracemalloc

import numpy as np
import pytest

import muskat.offsets
import muskat.potentials

from muskat.grid import (GridSpec, ScalarField, band_limited_random, gradient,
                         l2_norm, make_gaussian_bump, make_mode, make_zero,
                         wavenumber_squared)
from muskat.kernels import OperatorSpec, apply_B, core_fix_apply, phibar_transform
from muskat.potentials import (EPS, ROUNDING_GROWTH, SMALL_SLOPE_TOL, InterfaceGeometry, _Split,
                               _a_operator, _aa_operator, _cosines, _d_operator,
                               _d_star_operator, _direct_sum, _first_split, _flux_operator,
                               _interface_sum, _interpolant, _interval, _radii, _scales,
                               _slope_weights, _split_costs, _split_sum, adjointness_defect,
                               apply_A, apply_A_composed, apply_AA, apply_AA_composed, apply_D,
                               apply_D_composed, apply_D_star, apply_D_star_composed,
                               boundary_trace, gradient_identity_residual, rellich_residual,
                               torus_byparts_flux)
from muskat.offsets import OffsetSet, face_ring, near_offsets, pv_offsets, sphere_area
from muskat.profiles import phibar
from muskat.resolvent import RELAXATION_LADDER


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
    lhs = gradient(apply_D(geom, beta))
    rhs = apply_A(geom, gradient(beta))
    without = np.sqrt(sum(l2_norm(ScalarField(geom.grid, a.values - b.values)) ** 2
                          for a, b in zip(lhs, rhs)))
    assert with_flux < 0.5 * without


@pytest.mark.parametrize("dim,M", [(1, 32), (1, 33), (2, 16), (2, 15)])
def test_torus_flux_matches_per_offset_roll(dim, M):
    # reference: the flux kernel summed one face-ring offset at a time with np.roll
    g = GridSpec(dim, 2 * np.pi, M)
    rng = np.random.default_rng(M)
    geom = InterfaceGeometry(band_limited_random(g, 3, rng, amplitude=0.8))
    beta = band_limited_random(g, 3, rng)
    f, gfv = geom.f.values, [c.values for c in geom.grad_f]
    ring = face_ring(g)
    ref = np.zeros((dim,) + g.shape)
    for t, shift in enumerate(ring.ints.tolist()):
        def roll(u):
            return np.roll(u, shift, axis=tuple(range(dim)))
        df = f - roll(f)
        den = (ring.r[t] ** 2 + df * df) ** ((dim + 1) / 2)
        for k in range(dim):
            ref[k] += ring.weight[t] * (gfv[k] - roll(gfv[k])) * roll(beta.values) / den
    ref *= -g.spacing ** (dim - 1) / sphere_area(dim)
    for got, want in zip(torus_byparts_flux(geom, beta), ref):
        assert rel_err(got.values, want) < 1e-13


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


@pytest.mark.parametrize("dim,M", [(1, 16), (2, 8), (3, 8)])
def test_composed_forms_take_each_nonvanishing_transform_once(monkeypatch, dim, M):
    # A: B_1[b_k] per k, a cross term per i != k, B_0[b_i] once per i;
    # AA: a cross term per k != i, B_0[b_i] and B_1[b_i] per i
    geom = gaussian_geometry(M, dim)
    b = [band_limited_random(geom.grid, 2, np.random.default_rng(dim)) for _ in range(dim)]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return phibar_transform(*args, **kwargs)

    monkeypatch.setattr(muskat.potentials, "phibar_transform", counting)
    apply_A_composed(geom, b)
    assert len(calls) == dim + dim * (dim - 1) + dim
    calls.clear()
    apply_AA_composed(geom, b)
    assert len(calls) == dim * (dim - 1) + 2 * dim


def reference_sum(geom, op, bv):
    """op's PV lattice sum over every offset, its exact cores added by kernels.core_fix_apply.

    Independent of the split's near and far fields.
    """
    g = geom.grid
    us = op.fields([c.values for c in geom.grad_f], bv)
    out = _interface_sum(geom, op, us, pv_offsets(g))
    for i, k, monomials in op.terms:
        for sign, c, axis, m in monomials:
            if op.exact_core and c is None and m == 0:
                nu = tuple(int(j == axis) for j in range(g.dim))
                fix = core_fix_apply(g, nu, np.fft.rfftn(us[i]))
                out[k] += sign * np.fft.irfftn(fix, s=g.shape, axes=range(g.dim))
    return out


def operands(geom, b):
    """(operator, field values, its split, ||b||_inf W_0): D and D* on b[0], A and AA on b."""
    g = geom.grid
    # the stated scale ||b||_inf W_0, W_0 = h^N/|S^N| sum |xi|^-N
    w0 = g.spacing**g.dim / sphere_area(g.dim) * np.sum(pv_offsets(g).r ** -g.dim)
    scalar = ([b[0].values], w0 * np.max(np.abs(b[0].values)))
    vector = ([c.values for c in b], w0 * np.max(np.sqrt(sum(c.values**2 for c in b))))
    return [(op, bv, geom.split(op), scale)
            for op, (bv, scale) in ((_d_operator(g.dim), scalar), (_d_star_operator(g.dim), scalar),
                                    (_a_operator(g.dim), vector), (_aa_operator(g.dim), vector))]


@pytest.mark.parametrize("dim,M", [(1, 64), (1, 512), (2, 16), (2, 32), (3, 8)])
def test_split_within_its_bound(dim, M):
    # a ladder of oscillations and slopes: the split each geometry picks for D,
    # D*, A and AA must be within its own bound of the direct sum, in each
    # output component
    g = GridSpec(dim, 2 * np.pi, M)
    rng = np.random.default_rng(3)
    # every mode of b, so the Nyquist planes of the spectral core are exercised
    b = [band_limited_random(g, M // 2, rng) for _ in range(dim)]
    shapes = (band_limited_random(g, 3, rng), make_gaussian_bump(g, 1.0, [np.pi] * dim, 0.3))
    radii = set()
    for shape in shapes:
        lip0 = np.max(np.sqrt(sum(c.values**2 for c in gradient(shape))))
        for lip in (1e-5, 1e-3, 0.1, 0.9, 3.0):
            geom = InterfaceGeometry(ScalarField(g, shape.values * (lip / lip0)))
            for op, bv, split, scale in operands(geom, b):
                assert split.bound <= SMALL_SLOPE_TOL
                got, ref = _split_sum(geom, op, bv, split), reference_sum(geom, op, bv)
                if split.bound == 0.0:  # the direct sum; its core symbols by rfftn, not fftn
                    assert np.array_equal(got, _direct_sum(geom, op, bv))
                for k, (got_k, ref_k) in enumerate(zip(got, ref)):
                    err = np.max(np.abs(got_k - ref_k))
                    if split.bound == 0.0:
                        assert err <= 1e-14 * np.max(np.abs(ref_k)), (lip, split, k)
                    else:
                        assert err <= split.bound * scale, (lip, split, k)
                radii.add(split.radius)
    assert 0 in radii and len(radii) > 1, radii


def test_forced_split_within_its_bound():
    # a near field of 6 cells on the 2D M=32 bump, whatever the chooser takes:
    # the far field runs, to the first order within the bound, in each output
    g = GridSpec(2, 2 * np.pi, 32)
    geom = InterfaceGeometry(make_gaussian_bump(g, 0.7, [np.pi] * 2, 0.5))
    rng = np.random.default_rng(4)
    b = [band_limited_random(g, 16, rng) for _ in range(2)]
    for op, bv, _, scale in operands(geom, b):
        split = _first_split(g, _scales(geom, op), 6, 100)
        got, ref = _split_sum(geom, op, bv, split), reference_sum(geom, op, bv)
        for k, (got_k, ref_k) in enumerate(zip(got, ref)):
            err = np.max(np.abs(got_k - ref_k))
            assert 0 < err <= split.bound * scale, (split.order, k, err / scale)


def test_AA_path_choice_on_the_benchmark_interfaces():
    # the demo decay (Lip 4e-4) is re-summed whole at order 1; the 2D contrast
    # bump (Lip 0.85) sums a near field directly and the rest by FFT, for D and AA
    demo = make_mode(GridSpec(1, 20 * np.pi, 512), 1e-3, (4,))
    assert InterfaceGeometry(demo).split(_aa_operator(1))[:2] == (0, 1)
    g = GridSpec(2, 2 * np.pi, 64)
    geom = InterfaceGeometry(make_gaussian_bump(g, 0.7, [np.pi] * 2, 0.5))
    past_the_cell = int(np.ceil(np.sqrt(2) * ((g.points - 1) // 2)))
    for split in (geom.split(_d_operator(2)), geom.split(_aa_operator(2))):
        assert 0 < split.radius < past_the_cell and split.bound <= SMALL_SLOPE_TOL, split


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_interpolant_is_within_its_bound(monkeypatch, dim):
    # each coefficient table entry on a ladder of slopes x: the polynomial sum_k c_k u^k
    # the far field sums, its stored coefficients taken exactly (in long double), lies
    # within the entry's bound of (1+u)^(-p) on its whole interval [0, X], which holds
    # [0, x^2], at every order until the rounding term (t = x, log2(M^N) = 1) ends the walk;
    # the bound is never above the Bernstein-ellipse bound alone (no computed tail, as
    # with TAIL_DEGREE = 0), and tracks the error: wherever it exceeds 1e-12 it is at
    # most 4 times the error sampled on the interval
    def ellipse_only(j, K):
        with monkeypatch.context() as m:
            m.setattr(muskat.potentials, "TAIL_DEGREE", 0)
            return _interpolant.__wrapped__(dim, j, K)[1]

    p, eps = np.longdouble(dim + 1) / 2, np.finfo(float).eps
    for x in np.geomspace(1e-3, 1.3, 24):
        j = _interval(x)
        X = 2.0 ** (j / 8)
        assert x * x <= X <= 1.1 * x * x
        u = np.linspace(0, 1, 2000, dtype=np.longdouble) * X
        exact = (1 + u) ** -p
        for K in range(60):
            coefs, error = _interpolant(dim, j, K)
            if ROUNDING_GROWTH * eps * sum(abs(c) * x ** (2 * k) for k, c in enumerate(coefs)) \
                    > SMALL_SLOPE_TOL:
                break
            poly = np.zeros_like(u)
            for c in reversed(coefs):
                poly = poly * u + np.longdouble(c)
            sampled = float(np.max(np.abs(poly - exact)))
            assert sampled <= error, (x, K)
            assert error <= ellipse_only(j, K), (x, K)
            if error > 1e-12:
                assert error <= 4 * sampled, (x, K, error / sampled)
        assert K > 5, x


@pytest.mark.parametrize("K", [16, 32, 64])
def test_the_cosine_matrix_is_within_its_rounding_model(K):
    # every entry of _cosines(K)'s C, taken exactly, against 40 digits: within
    # the per-entry model the interpolant's conversion and tail terms charge,
    # (3 pi K + 2) eps_L 2/(K+1), the cosines' arguments reaching K pi
    mpmath = pytest.importorskip("mpmath")
    C, n = _cosines(K)[1], K + 1
    info = np.finfo(np.longdouble)
    mant, expo = np.frexp(C)
    worst = mpmath.mpf(0)
    with mpmath.workdps(40):
        for i in range(n):
            for j in range(n):
                got = mpmath.ldexp(int(np.ldexp(mant[i, j], info.nmant + 1)),
                                   int(expo[i, j]) - info.nmant - 1)
                exact = mpmath.cos(i * (2 * j + 1) * mpmath.pi / (2 * n)) * 2 / n
                worst = max(worst, abs(got - (exact / 2 if i == 0 else exact)))
    assert worst <= (3 * np.pi * K + 2) * float(info.eps) * 2 / n, float(worst * n / 2 / info.eps)


def first_order(geom, op, R, tol):
    # the first K <= 200 within tol at radius R, by the bound of _choose_split's
    # docstring from the interpolant's own coefficients and error, or None;
    # the walk ends where the rounding term alone passes tol
    g, radii = geom.grid, _radii(geom.grid)
    s, osc, alpha, beta = _scales(geom, op)
    r, w = radii.nearest[R], radii.share[R]
    t = osc / r
    x = min(s, t)
    if not x <= 2.0**32:
        return None
    for K in range(201):
        coefs, error = _interpolant(g.dim, _interval(x), K)
        mass = sum(abs(c) * t ** (2 * k) for k, c in enumerate(coefs))
        rounding = w * (alpha + beta * t) * ROUNDING_GROWTH * EPS * np.log2(g.size) * mass
        if not rounding <= tol:
            return None
        if w * (alpha + beta * x) * error + rounding <= tol:
            return K
    return None


def test_the_pick_is_the_cheapest_pair_within_the_bound():
    # at each radius of the schedule and each rung of the density solve's
    # ladder, the first order K <= 200 within the bound, costed by the cost
    # model: the cheapest of those, or the direct sum (first on a tie, as the
    # chooser keeps it), is the pick
    g1, g2, g24 = GridSpec(1, 16.0, 1024), GridSpec(2, 2 * np.pi, 64), GridSpec(2, 2 * np.pi, 24)
    g3 = GridSpec(3, 2 * np.pi, 16)
    interfaces = (make_mode(GridSpec(1, 20 * np.pi, 512), 1e-3, (4,)),  # the demo decay
                  make_gaussian_bump(g2, 0.7, [np.pi] * 2, 0.5),  # the contrast bump
                  make_gaussian_bump(g1, 0.3, [8.0], 1.3),
                  make_gaussian_bump(g24, 0.1, [np.pi] * 2, 0.5),  # validate's low 2D bump
                  make_gaussian_bump(g3, 0.7, [np.pi] * 3, 0.5))
    for f in interfaces:
        geom, g = InterfaceGeometry(f), f.grid
        for op in (_d_operator(g.dim), _d_star_operator(g.dim), _a_operator(g.dim),
                   _aa_operator(g.dim)):
            near, A, B, C = _split_costs(g, op)
            for tol in RELAXATION_LADDER:
                direct, R = len(near) - 1, 0
                candidates = [(near[direct], (direct, 0))]
                while R < direct:
                    K = first_order(geom, op, R, tol)
                    if K is not None:
                        candidates.append((near[R] + (A * (K + 1) + B) * (K + 1) + C, (R, K)))
                    R += 1 + R // 8
                pick = geom.split(op, split_tol=tol)
                assert min(candidates, key=lambda c: c[0])[1] == pick[:2], (g, op.terms, tol)
                assert pick.bound <= tol


def test_the_split_leaves_the_pv_blocks_unbuilt():
    # D on the 2D M=64 contrast bump sums a near field over its own offsets and the
    # rest by FFT, which reads only the PV set's tables: its blocks are never built
    pv_offsets.cache_clear()  # a fresh PV set, whatever earlier tests summed over it
    g = GridSpec(2, 2 * np.pi, 64)
    geom = InterfaceGeometry(make_gaussian_bump(g, 0.7, [np.pi] * 2, 0.5))
    apply_D(geom, band_limited_random(g, 4, np.random.default_rng(0)))
    assert "blocks" not in pv_offsets(g).__dict__


# (dim, M, near radius): at 8 KB a block holds one or two offsets, at 1 MB a
# whole run
BLOCK_CAP_GRIDS = [(1, 512, 100), (2, 32, 8), (3, 16, 4)]


@pytest.mark.parametrize("dim,M,R", BLOCK_CAP_GRIDS,
                         ids=[f"{d}d-M{M}" for d, M, _ in BLOCK_CAP_GRIDS])
def test_interface_sums_do_not_depend_on_the_block_cap(monkeypatch, dim, M, R):
    # the block axis is summed in offset order into a running sum, so every
    # operator's kernel sum is the sequential sum over its offsets, bit for bit
    geom = gaussian_geometry(M, dim, amp=0.7)
    g, rng = geom.grid, np.random.default_rng(M)
    gfv = [c.values for c in geom.grad_f]
    b = [band_limited_random(g, 3, rng).values for _ in range(dim)]
    ops = [(_d_operator(dim), b[:1]), (_d_star_operator(dim), b[:1]), (_a_operator(dim), b),
           (_aa_operator(dim), b), (_flux_operator(dim), b[:1])]
    sums, blocks = [], set()
    for cap in (8 * 1024, 64 * 1024, 1024 * 1024):
        monkeypatch.setattr(muskat.offsets, "BLOCK_BYTES", cap)
        # fresh sets: the cached ones keep the blocks of the cap they were built at
        sets = [OffsetSet(g, near_offsets(g, R).ints),
                OffsetSet(g, face_ring(g).ints, face_ring(g).weight)]
        blocks.add(tuple(len(off.blocks) for off in sets))
        sums.append([_interface_sum(geom, op, op.fields(gfv, bv), off)
                     for op, bv in ops for off in sets])
    assert len(blocks) == 3
    for other in sums[1:]:
        assert all(np.array_equal(a, c) for a, c in zip(sums[0], other))


# (dim, M, near radius) of a split of order 8, whatever its bound: 17 or 18
# powers per field, all in one chunk at the default cap, and 18 accumulators
# per group, so 14, 3 and 1 group per batch at the default cap
FAR_CHUNK_GRIDS = [(1, 64, 2), (2, 16, 1), (3, 8, 1)]


@pytest.mark.parametrize("dim,M,R", FAR_CHUNK_GRIDS,
                         ids=[f"{d}d-M{M}" for d, M, _ in FAR_CHUNK_GRIDS])
def test_far_fields_do_not_depend_on_the_chunk_or_batch_size(monkeypatch, dim, M, R):
    # a stacked transform handles each field as a single one does, and a batch
    # visits its fields in index order and adds each group to the output in
    # turn, so the far field is the same bits with one power per chunk and one
    # group per batch, three powers (a power carried across each chunk's end),
    # the default chunks and batches, or all powers and groups in one
    geom = gaussian_geometry(M, dim, amp=0.7)
    g, rng = geom.grid, np.random.default_rng(M)
    b = [band_limited_random(g, 3, rng) for _ in range(dim)]
    s, osc, _ = geom.slope_bound
    coefs = _interpolant(dim, _interval(min(s, osc / _radii(g).nearest[R])), 8)[0]
    splits = [_Split(R, 8, np.inf, coefs) for _ in operands(geom, b)]
    far_batch, batches = muskat.potentials._far_batch, []

    def counting(*args):
        batches[-1] += 1
        return far_batch(*args)

    monkeypatch.setattr(muskat.potentials, "_far_batch", counting)
    sums, runs = [], {}
    for cap in (1, 3 * 8 * g.size, muskat.offsets.BLOCK_BYTES, 1 << 40):
        monkeypatch.setattr(muskat.offsets, "BLOCK_BYTES", cap)
        sums.append([])
        for (op, bv, *_), split in zip(operands(geom, b), splits):
            batches.append(0)
            sums[-1].append(_split_sum(geom, op, bv, split))
        runs[cap], batches = batches, []
    assert max(runs[1]) > 1
    assert runs[1 << 40] == [1] * len(splits)
    for other in sums[1:]:
        assert all(np.array_equal(a, c) for a, c in zip(sums[0], other))


def test_a_velocity_operator_apply_transforms_each_field_once(monkeypatch):
    # the demo decay's split (0, 1): its one field b's four powers in one
    # forward transform, and the accumulators of both (output, x-coefficient)
    # groups in one inverse, the exact core's fix added in the far field's
    # pass; the 2D direct sum has no far field, yet its two cores' fields, one
    # forward transform each, share their output's one inverse
    geom = InterfaceGeometry(make_mode(GridSpec(1, 20 * np.pi, 512), 1e-3, (4,)))
    assert geom.split(_aa_operator(1))[:2] == (0, 1)
    b = [band_limited_random(geom.grid, 8, np.random.default_rng(0))]
    first = apply_AA(geom, b).values  # builds the split's symbols
    direct = gaussian_geometry(16, 2, amp=0.7)
    rng = np.random.default_rng(1)
    bv = [band_limited_random(direct.grid, 4, rng).values for _ in range(2)]
    first_direct = _direct_sum(direct, _aa_operator(2), bv)  # builds the cores' fixes
    calls = []

    def counting(name):
        fn = getattr(np.fft, name)
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("rfftn", "irfftn", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counting(name))
    assert np.array_equal(apply_AA(geom, b).values, first)
    assert calls == ["rfftn", "irfftn"]
    calls.clear()
    assert np.array_equal(_direct_sum(direct, _aa_operator(2), bv), first_direct)
    assert calls == ["rfftn", "rfftn", "irfftn"]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("M", [16, 17])
def test_the_slope_bound_sums_the_held_half_spectrum(dim, M):
    # every mode present, the Nyquist one too for even M: the half-spectrum
    # sums, each conjugate pair counted twice, are the full spectrum's: the
    # Wiener sum sum_k |k| |f^_k| and the curvature sum h sum_k |k|^2 |f^_k|;
    # s is the lesser of the Wiener sum and G + sqrt(N)/2 times the curvature sum
    g = GridSpec(dim, 2 * np.pi, M)
    f = band_limited_random(g, M // 2, np.random.default_rng(M + dim))
    geom = InterfaceGeometry(f)
    s, _, lip = geom.slope_bound
    k, full = np.sqrt(wavenumber_squared(g)), np.abs(np.fft.fftn(f.values)) / g.size
    wiener_weights, curvature_weights = _slope_weights(g)
    wiener = np.sum(wiener_weights * np.abs(geom.spectrum)) / g.size
    curvature = np.sum(curvature_weights * np.abs(geom.spectrum)) / g.size
    assert abs(wiener - np.sum(k * full)) <= 1e-13 * wiener
    assert abs(curvature - g.spacing * np.sum(k * k * full)) <= 1e-13 * curvature
    assert s == min(wiener, lip + np.sqrt(dim) / 2 * curvature)
    assert wiener >= s >= lip > 0.0
    for weights in (geom.spectrum, wiener_weights, curvature_weights):
        assert not weights.flags.writeable
    with pytest.raises(ValueError):
        geom.spectrum[0] = 0.0


def brute_slope(f):
    # max |f(x) - f(x-xi)| / |xi| over the grid points x and the PV offsets xi
    g, off = f.grid, pv_offsets(f.grid)
    return max(np.max(np.abs(f.values - np.roll(f.values, tuple(n), axis=tuple(range(g.dim)))))
               / r for n, r in zip(off.ints, off.r))


def nyquist(g, axes):
    # alternating +-1 along each of axes: a pure Nyquist mode
    parity = sum(np.indices(g.shape)[j] for j in axes)
    return ScalarField(g, 0.3 * (-1.0) ** parity)


SLOPE_GRIDS = [(1, 64), (1, 33), (2, 16), (2, 15), (3, 8)]


@pytest.mark.parametrize("dim, M", SLOPE_GRIDS, ids=[f"{d}d-M{M}" for d, M in SLOPE_GRIDS])
def test_the_slope_bound_bounds_every_difference_quotient(dim, M):
    # s >= |f(x) - f(x-xi)| / |xi| at every grid point and PV offset, by brute
    # force, on band-limited random data up to the full spectrum, on pure
    # Nyquist modes (every axis, one axis), and never above the Wiener sum;
    # on a single Fourier mode s is the Wiener sum itself
    g = GridSpec(dim, 2 * np.pi, M)
    rng = np.random.default_rng(10 * M + dim)
    randoms = [band_limited_random(g, kmax, rng) for kmax in (1, 3, M // 4, M // 2)]
    modes = [make_mode(g, 0.4, (1,) + (0,) * (dim - 1)),
             make_mode(g, 0.2, tuple(range(2, dim + 2)))]
    if M % 2 == 0:
        modes += [nyquist(g, range(dim)), nyquist(g, [0])]
    for n, f in enumerate(randoms + modes):
        geom = InterfaceGeometry(f)
        s = geom.slope_bound[0]
        wiener = np.sum(_slope_weights(g)[0] * np.abs(geom.spectrum)) / g.size
        assert brute_slope(f) <= s <= wiener, n
        assert s == wiener or n < len(randoms), n


def test_the_slope_bound_on_the_benchmark_interfaces():
    # the contrast bump: brute-force quotients within s, s well below the Wiener
    # sum (the curvature term binds); the demo decay's single mode: s is the
    # Wiener sum, so its pick stays
    g = GridSpec(2, 2 * np.pi, 64)
    bump = InterfaceGeometry(make_gaussian_bump(g, 0.7, [np.pi] * 2, 0.5))
    s, _, lip = bump.slope_bound
    wiener = np.sum(_slope_weights(g)[0] * np.abs(bump.spectrum)) / g.size
    assert brute_slope(bump.f) <= s < 0.75 * wiener and s > lip
    demo = InterfaceGeometry(make_mode(GridSpec(1, 20 * np.pi, 512), 1e-3, (4,)))
    assert demo.slope_bound[0] == np.sum(_slope_weights(demo.grid)[0]
                                         * np.abs(demo.spectrum)) / demo.grid.size


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 16), (3, 8)])
def test_every_operator_field_is_within_its_size(dim, M):
    # sizes[i] = (n, q) claims |u_i| <= n G^q ||b||_inf, G the largest |grad f|
    # at the grid points, and _scales builds the split's bound from it.  On a
    # steep bump (G > 1) and random signs b (|b| = ||b||_inf everywhere) the
    # fields come near their bounds, so a size too small shows
    geom = gaussian_geometry(M, dim, amp=1.5, width=0.4)
    gfv = [c.values for c in geom.grad_f]
    G = np.sqrt(np.max(sum(v**2 for v in gfv)))
    assert G > 1.5
    rng = np.random.default_rng(dim)
    for make, inputs in ((_d_operator, 1), (_d_star_operator, 1), (_flux_operator, 1),
                         (_a_operator, dim), (_aa_operator, dim)):
        op = make(dim)
        bv = [rng.choice([-1.0, 1.0], geom.grid.shape) for _ in range(inputs)]
        b_inf = max(np.max(np.abs(v)) for v in bv)
        us = op.fields(gfv, bv)
        assert len(op.sizes) == len(us), make
        for i, (u, (n, q)) in enumerate(zip(us, op.sizes)):
            assert np.max(np.abs(u)) <= n * G**q * b_inf * (1 + 1e-12), (make, i)


def test_a_near_sum_allocates_its_block_buffers_once(monkeypatch):
    # one D near sum at 2D M=64 peaks at its three work buffers (df, the
    # denominator, one product), its output rows, a padded window per field and
    # its per-offset tables, whether the offsets fill 54 blocks or 176: no
    # block allocates a block-shaped array of its own
    monkeypatch.setattr(muskat.offsets, "BLOCK_BYTES", 256 * 1024)
    geom = gaussian_geometry(64, 2, amp=0.7)
    g, op, rng = geom.grid, _d_operator(2), np.random.default_rng(0)
    us = op.fields([c.values for c in geom.grad_f], [band_limited_random(g, 4, rng).values])
    grid_bytes = 8 * g.size
    padded = 8 * (g.points + 2 * (g.points // 2)) ** g.dim
    for R, nblocks in ((10, 54), (20, 176)):
        off = OffsetSet(g, near_offsets(g, R).ints)
        longest = max(t[0].stop - t[0].start for t, _ in off.blocks)
        assert (len(off.blocks), longest) == (nblocks, 8)
        buffers = grid_bytes * ((3 + op.outputs) * longest + op.outputs)
        tables = 8 * off.count * (g.dim + 1)
        # eight grids cover the running sum, the result and np.pad's scratch
        budget = buffers + (len(us) + 1) * padded + tables + 8 * grid_bytes
        tracemalloc.start()
        try:
            _interface_sum(geom, op, us, off)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (R, peak, budget)


def test_misspelled_core_mode_is_rejected():
    geom = gaussian_geometry(32)
    beta = band_limited_random(geom.grid, 3, np.random.default_rng(0))
    spec = OperatorSpec(phibar(1), 0, (1,))
    with pytest.raises(ValueError, match="riesz_core"):
        apply_B(spec, [geom.f], [], beta, riesz_core="spectra")
    with pytest.raises(ValueError, match="riesz_core"):
        phibar_transform(geom.f, 0, 0, beta.values, riesz_core="spectra")


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
