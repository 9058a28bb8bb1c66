"""The spatial order of the interface operators and of the evolution's right side.

Every principal-value sum is a trapezoidal rule with the offset xi = 0
punctured (and, for even M, the Nyquist face dropped), so D, the velocity
operator and f_t converge like h at fixed L.  The figure at M is
|u_M - u_2M| / max|u_2M| at the points of the M grid; its order is log2 of
the ratio of two consecutive figures.  The near/far splits err by at most
SMALL_SLOPE_TOL relative to ||b||_inf W_0, far below these figures, so
which (R, K) a split takes moves no accuracy.
"""

import numpy as np
import pytest

from muskat.dynamics import InterfaceState, PhysicalParams
from muskat.grid import GridSpec, ScalarField, gradient, make_gaussian_bump
from muskat.potentials import (InterfaceGeometry, _d_operator, _direct_sum, apply_AA, apply_D,
                               split_weight)

L = 2 * np.pi


def _fields(dim, M, amp):
    """(geom, beta): a bump of width 0.5 and the offset density, centred 0.3 off it."""
    g = GridSpec(dim, L, M)
    geom = InterfaceGeometry(make_gaussian_bump(g, amp, [L / 2] * dim, 0.5))
    centre = [L / 2 + 0.3] + [L / 2] * (dim - 1)
    beta = make_gaussian_bump(g, 1.0, centre, 0.4).values * np.cos(2 * g.meshgrid()[0])
    return geom, ScalarField(g, beta)


def _outputs(dim, M, amp):
    geom, beta = _fields(dim, M, amp)
    state = InterfaceState.compute(geom.f, PhysicalParams(lam=1.0, a_mu=0.5))
    return {"D": apply_D(geom, beta).values, "AA": apply_AA(geom, gradient(beta)).values,
            "f_t": state.phi_tilde.values}


def _figures(dim, sizes, amp):
    """Per output, the figure at each size but the last."""
    outputs = [_outputs(dim, M, amp) for M in sizes]
    coarse = (slice(None, None, 2),) * dim
    return {name: [np.max(np.abs(u[name] - fine[name][coarse])) / np.max(np.abs(fine[name]))
                   for u, fine in zip(outputs, outputs[1:])]
            for name in outputs[0]}


# 2D starts at M = 32: at M = 16 (h = 0.39 against the bump's width 0.5) the
# figures are not yet asymptotic, and 16 -> 32 -> 64 reads order 1.25 for D,
# 1.15 for the velocity operator and 0.53 for f_t
@pytest.mark.parametrize("dim,sizes,amp", [(1, (64, 128, 256, 512, 1024), 0.5),
                                           (2, (32, 64, 128), 0.3)], ids=["1d", "2d"])
def test_the_operators_converge_at_first_order_in_space(dim, sizes, amp):
    figures = _figures(dim, sizes, amp)
    for name, errs in figures.items():
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((0.8 <= orders) & (orders <= 1.2)), (name, errs, orders)


def test_the_split_moves_no_accuracy():
    # on a 2D grid of the order test D takes a far field, and its deviation from
    # the direct sum is within its bound and below 1e-9 of the figure at M = 32
    geom, beta = _fields(2, 64, 0.3)
    split = geom.split(_d_operator(2))
    assert split.order > 0, split
    got = apply_D(geom, beta).values
    direct = _direct_sum(geom, _d_operator(2), [beta.values])[0]
    deviation = np.max(np.abs(got - direct))
    assert deviation <= split.bound * np.max(np.abs(beta.values)) * split_weight(geom.grid)
    coarse = apply_D(*_fields(2, 32, 0.3)).values
    figure = np.max(np.abs(coarse - direct[::2, ::2]))
    assert deviation <= 1e-9 * figure, (deviation, figure)
