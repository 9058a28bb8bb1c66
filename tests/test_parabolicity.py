"""The discrete right side against the paper's parabolic symbol.

At the flat interface the evolution's generator is -Lambda |z|/2.  On a
Gaussian bump (amplitude 0.7, width 0.5, L = 2 pi, Lambda = 1) the
Jacobian J of f -> Phi~(f), probed by central differences, must stay
negative on every unit cosine mode e_k up to M/2 - 1:

    q(k) = <e_k, J e_k> / (<e_k, e_k> |k|)

reads -0.459 to -0.475 in 1D and -0.491 to -0.498 in 2D along (k, 0)
(M = 32 and 64), and settles under refinement; along the diagonal (k, k)
it reads -0.492 to -0.497.  The band is measured, not derived: how the Rayleigh-Taylor
margin weights the frozen-coefficient symbol m_T(grad f(x), z) over x is
not settled here.  The band is checked at a_mu = 0 only: at a_mu != 0 the
punctured origin of D's lattice sum adds an O(h) k^3 term to q.  At
a_mu = -0.5 that term damps, and only the sign of q is checked (it reads
-0.48 to -2.80 in 1D).  At a_mu = +0.5 it is an anti-diffusion that makes
q(M/2 - 1) positive (+0.25, +1.04 and +2.64 at M = 64, 128 and 256), an
expected failure until the origin is filled (ROADMAP item 1).  In 2D, at
M = 32 and 64, q stays negative at both contrasts along (k, 0) (-0.49 to
-0.61 at a_mu = -0.5, -0.34 to -0.49 at +0.5) and along (k, k) (-0.50 to
-0.60 at -0.5, -0.34 to -0.49 at +0.5), and only its sign is checked: at
+0.5 the top mode moves toward zero as M doubles (-0.42 to -0.34), the
same O(h) k^3 term.

The one positive eigenvalue of the full 1D M = 64 Jacobian at a_mu = 0 is
kept in view: it reads 0.727, and its eigenvector is the Nyquist mode,
which the spectral gradient zeroes and the lattice differences see.
"""

import numpy as np
import pytest

from muskat.dynamics import InterfaceState, PhysicalParams
from muskat.grid import GridSpec, ScalarField, inner, make_gaussian_bump, make_mode

EPS = 1e-6
CASES = [(1, 64), (1, 128), (1, 256), (2, 32), (2, 64)]
DIAGONAL = (1, 1)


def modes(M):
    return (M // 8, M // 4, 3 * M // 8, M // 2 - 1)


def q(dim, M, k, a_mu=0.0, direction=None):
    """q at the mode k * direction (default (1, 0, ...)) on the bump, by central differences."""
    params = PhysicalParams(lam=1.0, a_mu=a_mu)
    g = GridSpec(dim, 2 * np.pi, M)
    f = make_gaussian_bump(g, 0.7, [np.pi] * dim, 0.5).values
    wave = [k * d for d in direction or (1,) + (0,) * (dim - 1)]
    e = make_mode(g, 1.0, wave)
    plus, minus = (InterfaceState.compute(ScalarField(g, f + s * EPS * e.values), params,
                                          tol=1e-12).phi_tilde.values for s in (1.0, -1.0))
    Je = ScalarField(g, (plus - minus) / (2 * EPS))
    return inner(e, Je) / (inner(e, e) * (2 * np.pi / g.extent) * np.linalg.norm(wave))


@pytest.fixture(scope="module")
def symbols():
    """q at modes(M) along (k, 0, ...) per (dim, M), and along (k, k) per (2, M, DIAGONAL)."""
    out = {(dim, M): [q(dim, M, k) for k in modes(M)] for dim, M in CASES}
    out.update({(dim, M, DIAGONAL): [q(dim, M, k, direction=DIAGONAL) for k in modes(M)]
                for dim, M in CASES if dim == 2})
    return out


@pytest.mark.parametrize("dim, M", CASES)
def test_the_right_side_damps_every_mode_near_half_its_wavenumber(symbols, dim, M):
    qs = symbols[dim, M] + symbols.get((dim, M, DIAGONAL), [])
    assert all(-0.51 <= v <= -0.44 for v in qs), qs


def test_the_damping_settles_under_refinement(symbols):
    # q at fixed k/M moves by at most 2e-3 from M to 2M
    for dim, M in ((1, 64), (1, 128), (2, 32)):
        moved = np.abs(np.subtract(symbols[dim, 2 * M], symbols[dim, M]))
        assert np.max(moved) <= 2e-3, (dim, M, moved)


def test_the_one_growing_mode_is_the_nyquist_mode():
    # the full Jacobian at 1D M = 64, a_mu = 0, column by column: its largest
    # Re lambda (0.727) is the one positive eigenvalue, on the Nyquist mode
    params = PhysicalParams(lam=1.0, a_mu=0.0)
    g = GridSpec(1, 2 * np.pi, 64)
    f = make_gaussian_bump(g, 0.7, [np.pi], 0.5).values
    J = np.empty((g.points, g.points))
    for i, e in enumerate(np.eye(g.points)):
        plus, minus = (InterfaceState.compute(ScalarField(g, f + s * EPS * e), params,
                                              tol=1e-12).phi_tilde.values for s in (1.0, -1.0))
        J[:, i] = (plus - minus) / (2 * EPS)
    lam, vectors = np.linalg.eig(J)
    top = np.argmax(lam.real)
    assert 0.70 <= lam[top].real <= 0.76 and np.sum(lam.real > 1e-6) == 1, lam[top]
    v, nyquist = vectors[:, top], (-1.0) ** np.arange(g.points)
    assert abs(np.vdot(nyquist, v)) / (np.linalg.norm(nyquist) * np.linalg.norm(v)) >= 0.99


@pytest.mark.parametrize("M", (64, 128, 256))
def test_the_right_side_damps_every_mode_at_negative_contrast(M):
    qs = [q(1, M, k, a_mu=-0.5) for k in modes(M)]
    assert all(v < 0 for v in qs), qs


@pytest.mark.parametrize("M", (32, 64))
@pytest.mark.parametrize("a_mu", (-0.5, 0.5))
def test_the_right_side_damps_every_mode_at_either_contrast_in_2d(M, a_mu):
    qs = [q(2, M, k, a_mu=a_mu, direction=d) for d in ((1, 0), DIAGONAL) for k in modes(M)]
    assert all(v < 0 for v in qs), qs


@pytest.mark.xfail(strict=True, reason="the punctured origin of D's lattice sum anti-diffuses "
                   "the top modes at a_mu > 0; filling it is ROADMAP item 1")
@pytest.mark.parametrize("M", (64, 128, 256))
def test_the_right_side_damps_every_mode_at_positive_contrast(M):
    qs = [q(1, M, k, a_mu=0.5) for k in modes(M)]
    assert all(v < 0 for v in qs), qs
