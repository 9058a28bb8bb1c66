"""Property tests of the interface operators on random band-limited data.

Adjointness of D and D*, and agreement of every direct operator with its
composition out of the B-transforms, are exact on the lattice up to rounding,
so they must hold for any interface and density, not only for the fixed cases
of the validate suites.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from muskat.grid import GridSpec, band_limited_random, inner, l2_norm
from muskat.potentials import (InterfaceGeometry, apply_A, apply_A_composed, apply_AA,
                               apply_AA_composed, apply_D, apply_D_composed, apply_D_star,
                               apply_D_star_composed)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def interface_data(draw):
    """(geometry, beta, gamma, b): a random band-limited interface, two densities, a vector field."""
    dim = draw(st.sampled_from([1, 2]))
    M = draw(st.integers(8, 32)) if dim == 1 else 8
    g = GridSpec(dim, draw(st.sampled_from([2 * np.pi, 3.0])), M)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kmax = draw(st.integers(1, (M - 1) // 2))
    f = band_limited_random(g, kmax, rng, amplitude=draw(st.floats(0.0, 1.5)))
    beta, gamma = (band_limited_random(g, kmax, rng) for _ in range(2))
    return InterfaceGeometry(f), beta, gamma, [band_limited_random(g, kmax, rng)
                                               for _ in range(dim)]


def rel_err(direct, composed):
    return np.max(np.abs(direct - composed)) / max(np.max(np.abs(composed)), 1e-300)


@PROPERTY
@given(interface_data())
def test_D_star_is_the_adjoint_of_D(data):
    geom, beta, gamma, _ = data
    d_beta = apply_D(geom, beta)
    defect = abs(inner(d_beta, gamma) - inner(beta, apply_D_star(geom, gamma)))
    # the two pairings sum the same terms in another order
    assert defect <= 1e-12 * max(l2_norm(d_beta) * l2_norm(gamma), 1e-300)


@PROPERTY
@given(interface_data())
def test_direct_operators_equal_their_compositions(data):
    geom, beta, _, b = data
    assert rel_err(apply_D(geom, beta).values, apply_D_composed(geom, beta).values) < 1e-10
    assert rel_err(apply_D_star(geom, beta).values,
                   apply_D_star_composed(geom, beta).values) < 1e-10
    for direct, composed in zip(apply_A(geom, b), apply_A_composed(geom, b)):
        assert rel_err(direct.values, composed.values) < 1e-10
    for core in ("spectral", "lattice"):
        assert rel_err(apply_AA(geom, b, riesz_core=core).values,
                       apply_AA_composed(geom, b, riesz_core=core).values) < 1e-10
