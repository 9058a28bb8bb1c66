"""Muskat interface operators assembled over the generalized Riesz kernels.

For each operator both the direct principal-value kernel and its composition
out of the B-transforms are implemented; the direct form is canonical, the
composed form is the validator.  The two are algebraically identical term by
term on the lattice, so the cross-checks hold near rounding.

The velocity operator carries the non-decaying constant Riesz core
(-xi . b(x-xi) in its kernel); that core is always evaluated with its exact
continuum symbol, its fix (:func:`muskat.kernels.core_fix_apply`) added in
the far field's pass on every split, the direct one included; the double
layer keeps its lattice core.

Every operator's numerator is one table (:class:`_Operator`), read by one
kernel sum (:func:`_interface_sum`).  D, D*, A and the velocity operator are
evaluated by one near/far split (:func:`_split_sum`): the offsets |xi| <= R
are summed directly, the far field |xi| > R by FFT convolutions of a
polynomial of degree K in (df/|xi|)^2: the kernel's Chebyshev interpolant
on the interval [0, x^2] that the slope bound x proves for the far field,
which exists on any interface because |df| <= max f - min f.  Each
geometry picks the cheapest (R, K) per operator within an a-priori error
bound (:func:`_choose_split`), SMALL_SLOPE_TOL unless the density solve
asks D for a looser one (:mod:`muskat.resolvent`); R = 0 is all far field
(the small-slope expansion of every offset), R past the cell is the direct
sum.  A split sums the near field, then the far field with the exact cores
in it.  One byte cap, :data:`muskat.offsets.BLOCK_BYTES`, sizes every work
buffer (:func:`muskat.offsets.block_rows`): the near field's blocks, the
far field's transform chunks (each field's powers in one stacked rfftn,
the accumulators of every group of a batch in one stacked irfftn) and its
batches of groups, each added straight into the output as it ends.  A
geometry transforms f once each way: its rfftn half is held, read by grad f
and the slope bound alike.  The torus flux is summed directly over the
cell's face ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import count, islice
from math import ceil, factorial, inf, isfinite, log1p, log2, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .grid import (GridSpec, ScalarField, _derivatives, gradient, half_pairs, inner, integrate,
                   l2_norm, require_same_grid, wavenumber_squared)
from .kernels import core_fix_apply, far_symbols, phibar_transform
from .offsets import (block_rows, face_ring, lattice_sum, near_offsets, pv_offsets,
                      sphere_area)

# An operator's near/far split takes the cheapest (R, K)
# whose error bound, relative to the scale ||b||_inf W_0 (see _choose_split),
# is at most SMALL_SLOPE_TOL; only the density solve's Krylov products ask D
# for a looser one.
SMALL_SLOPE_TOL = 1e-13
# Rounding model: an FFT convolution is off by at most ROUNDING_GROWTH * EPS *
# log2(M^N) times its absolute mass (sum of |weight| times the largest |field|),
# EPS the unit roundoff of a double.
ROUNDING_GROWTH = 4.0
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class InterfaceGeometry:
    """Interface function f with its cached spectrum and gradient; omega = 1 + |grad f|^2
    and normal on first use.

    ``spectrum`` is f's rfftn half, taken once and read-only: grad f and the
    slope bound both read it, so a geometry transforms f once each way.
    """

    f: ScalarField
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    grad_f: tuple = field(init=False)
    _splits: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        spectrum = np.fft.rfftn(self.f.values)
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "grad_f", tuple(_derivatives(self.grid, spectrum,
                                                              range(self.grid.dim))))

    @cached_property
    def omega(self) -> ScalarField:
        return ScalarField(self.grid, 1.0 + sum(g.values**2 for g in self.grad_f))

    @cached_property
    def normal(self) -> tuple:
        """Unit normal (-grad f, 1) / sqrt(omega)."""
        sq = np.sqrt(self.omega.values)
        nu = tuple(ScalarField(self.grid, -g.values / sq) for g in self.grad_f) + (
            ScalarField(self.grid, 1.0 / sq),)
        if np.max(np.abs(sum(c.values**2 for c in nu) - 1.0)) > 1e-12:
            raise AssertionError("normal is not unit length")
        return nu

    @property
    def grid(self) -> GridSpec:
        return self.f.grid

    @cached_property
    def slope_bound(self) -> tuple:
        """(s, osc f, G): what every operator's split bound knows of f; see _choose_split.

        s bounds |grad f| and every |df| / |xi| between grid points, osc f =
        max f - min f bounds every |df|, and G is the largest |grad f| at the
        grid points.  s is the lesser of the Wiener sum sum_k |k| |f^_k| and

            L = G + (sqrt(N) h / 2) sum_k |k|^2 |f^_k|.

        L: the real part p of the trigonometric interpolant matches f at the
        grid points, and its gradient there is grad f, the spectral one with
        the Nyquist mode zeroed (d_j of a mode at the Nyquist index of axis j
        is imaginary at every grid point).  Every point lies within
        sqrt(N) h / 2 of a grid point and p's Hessian has operator norm at
        most sum_k |k|^2 |f^_k|, so |grad p| <= L everywhere and |df| <= L |xi|
        along the segment between any two grid points.  Both sums run over the
        held half spectrum, each conjugate pair counted twice
        (:func:`_slope_weights`).  G and the sums are taken in floating point,
        as every scale of the bound is.
        """
        g, f = self.grid, self.f.values
        lip = float(np.sqrt(np.max(sum(c.values**2 for c in self.grad_f))))
        spectrum = np.abs(self.spectrum)
        wiener, curvature = (float(np.sum(w * spectrum)) / g.size for w in _slope_weights(g))
        return min(wiener, lip + sqrt(g.dim) / 2 * curvature), float(np.max(f) - np.min(f)), lip

    def split(self, op: _Operator, *, split_tol: float = SMALL_SLOPE_TOL) -> _Split:
        """op's near/far split within split_tol, chosen once per pair; see _choose_split."""
        split = self._splits.get((op, split_tol))
        if split is None:
            split = self._splits[op, split_tol] = _choose_split(self, op, split_tol)
        return split


@lru_cache(maxsize=None)
def _slope_weights(grid: GridSpec) -> tuple:
    """(|k|, |k| (h |k|)) on the rfftn half, each times the modes it stands for (half_pairs).

    So sum w |f^| over the half is sum |k| |f^_k|, and h sum |k|^2 |f^_k|,
    over the full spectrum of a real f; h |k| <= pi sqrt(N), so the second
    overflows nowhere the first does not.  Read-only.
    """
    k = np.sqrt(wavenumber_squared(grid)[..., :grid.points // 2 + 1])
    weights = k * half_pairs(grid), k * (grid.spacing * k) * half_pairs(grid)
    for w in weights:
        w.setflags(write=False)
    return weights


def _interface_sum(geom: InterfaceGeometry, op: _Operator, us, offsets) -> np.ndarray:
    """h^N/|S^N| times the sum of op's numerator / (|xi|^2 + df^2)^((N+1)/2), per output.

    The one kernel of every interface operator, summed over ``offsets`` a
    block at a time: df = f(x) - f(x-xi) for each offset xi of the block, a
    term (i, k, monomials) of op adds us[i](x-xi) times its monomials to
    output k, and a weighted offset set weights its terms; see
    :func:`muskat.offsets.lattice_sum`, whose work buffers hold df, the
    denominator and the factors.  The result has shape (outputs,) + grid
    shape.
    """
    g = geom.grid
    fvals, r2 = geom.f.values, offsets.r**2
    steps = _steps(op, offsets.xi.T, [c.values for c in geom.grad_f])

    def term(t, shifted, out, buffer):
        df, den, part = buffer(0), buffer(1), buffer(2)
        np.subtract(fvals, shifted(fvals), out=df)
        np.multiply(df, df, out=den)
        den += r2[t]
        if g.dim == 2:
            den *= np.sqrt(den, out=part)  # x * sqrt(x) is faster than x ** 1.5
        elif g.dim == 3:
            den *= den
        for i, k, first, monomials in steps:
            fac = None  # the sum of the monomials, in buffer 3 once it takes a pass
            for add, row, coef, m, scale in monomials:
                factors = [v for v in (None if row is None else row[t], coef, df if m else None,
                                       scale) if v is not None]
                if len(factors) < 2:
                    val = factors[0] if factors else 1.0
                else:
                    val = buffer(3) if fac is None else part
                    np.multiply(factors[0], factors[1], out=val)
                    for v in factors[2:]:
                        val *= v
                fac = val if fac is None else (np.add if add else np.subtract)(
                    fac, val, out=buffer(3))
            if first:
                np.multiply(fac, shifted(us[i]), out=out[k])
            else:
                out[k] += np.multiply(fac, shifted(us[i]), out=part)
        out /= den
        if offsets.weight is not None:
            out *= offsets.weight[t]

    total = lattice_sum(g, term, op.outputs, offsets)
    return g.spacing**g.dim / sphere_area(g.dim) * total


def _steps(op: _Operator, xi_rows, gfv) -> list:
    """op's terms as the steps of :func:`_interface_sum`'s term, built once per sum.

    A step (i, k, first, monomials) adds u_i(x-xi) times the sum of its
    monomials to output k, or writes it there for the first step of output
    k.  A monomial (add, row, coef, m, scale) is row[t] * coef * df^m * scale
    (each factor absent for None, or m = 0), added to the sum, or subtracted
    from it for not add.  The term's sign is folded into its first monomial,
    on the first factor it has: a negated row of xi or field d_c f, so a
    sign costs no pass over a block; only df alone and the constant 1 take
    scale -1.  -(a*b) = (-a)*b and -(a+b) = (-a)-b exactly, so the steps
    compute the table's terms bit for bit.
    """
    neg_rows = -xi_rows
    steps, written = [], set()
    for i, k, monomials in op.terms:
        lead, folded = monomials[0][0], []
        for n, (sign, c, axis, m) in enumerate(monomials):
            flip = n == 0 and lead < 0
            row = None if axis is None else (neg_rows if flip else xi_rows)[axis]
            coef = None if c is None else -gfv[c] if flip and row is None else gfv[c]
            scale = -1.0 if flip and row is None and coef is None else None
            folded.append((sign > 0, row, coef, m, scale))
        steps.append((i, k, k not in written, tuple(folded)))
        written.add(k)
    return steps


def _apply(geom: InterfaceGeometry, op: _Operator, inputs, *,
           split_tol: float = SMALL_SLOPE_TOL) -> list:
    """op on the input fields, split at geom's (R, K) within split_tol: one field per output."""
    inputs = list(inputs)
    g = require_same_grid(geom.f, *inputs)
    split = geom.split(op, split_tol=split_tol)
    return [ScalarField(g, c) for c in _split_sum(geom, op, [u.values for u in inputs], split)]


def apply_D(geom: InterfaceGeometry, beta: ScalarField, *,
            split_tol: float = SMALL_SLOPE_TOL) -> ScalarField:
    """Double layer potential: PV sum of (df - xi.grad f(x-xi)) beta(x-xi) / (...)^((N+1)/2).

    Its core keeps the lattice sum.  The split errs by at most split_tol
    ||beta||_inf W_0 per point (see _choose_split); only the density solve
    asks for more than SMALL_SLOPE_TOL, on its Krylov products.
    """
    return _apply(geom, _d_operator(geom.grid.dim), [beta], split_tol=split_tol)[0]


def apply_D_composed(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    """B-transform representation of the double layer, for cross-checking."""
    require_same_grid(geom.f, beta)
    f, bv = geom.f, beta.values
    out = phibar_transform(f, 1, None, bv)
    for i, gi in enumerate(geom.grad_f):
        out = out - phibar_transform(f, 0, i, bv * gi.values)
    return ScalarField(geom.grid, out)


def apply_D_star(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    """L2-adjoint of the double layer: kernel (-df + xi.grad f(x)) / (...)^((N+1)/2)."""
    return _apply(geom, _d_star_operator(geom.grid.dim), [beta])[0]


def apply_D_star_composed(geom: InterfaceGeometry, beta: ScalarField) -> ScalarField:
    require_same_grid(geom.f, beta)
    f, bv = geom.f, beta.values
    out = -phibar_transform(f, 1, None, bv)
    for i, gi in enumerate(geom.grad_f):
        out = out + gi.values * phibar_transform(f, 0, i, bv)
    return ScalarField(geom.grid, out)


def apply_A(geom: InterfaceGeometry, b) -> list:
    """Tangential matrix operator: N components coupling grad f and b."""
    return _apply(geom, _a_operator(geom.grid.dim), b)


def apply_A_composed(geom: InterfaceGeometry, b) -> list:
    b = list(b)
    require_same_grid(geom.f, *b)
    f, gfv, bv = geom.f, [c.values for c in geom.grad_f], [c.values for c in b]
    # the cross term's field vanishes at i = k; B(f)[b_i] does not depend on k
    plain = [phibar_transform(f, 0, i, bv[i]) for i in range(geom.grid.dim)]
    out = []
    for k in range(geom.grid.dim):
        acc = phibar_transform(f, 1, None, bv[k])
        for i in range(geom.grid.dim):
            if i != k:
                acc = acc + phibar_transform(f, 0, i, gfv[k] * bv[i] - gfv[i] * bv[k])
            acc = acc - gfv[k] * plain[i]
        out.append(ScalarField(geom.grid, acc))
    return out


def torus_byparts_flux(geom: InterfaceGeometry, beta: ScalarField) -> list:
    """Cell-boundary flux of the gradient identity on the torus, per component.

    The identity grad(D(f)[beta]) = A(f)[grad beta] is proved by moving a
    xi-divergence onto beta; on R^N the boundary term vanishes, on the torus
    cell it survives as the flux of

        V_k(xi) = xi (d_k f(x) - d_k f(x-xi)) / (|xi|^2 + df^2)^((N+1)/2)

    through the cell faces |xi_j| = L/2.  The faces are sampled on the
    outermost offset ring (the Nyquist ring for even M, see
    :func:`muskat.offsets.face_ring`), which is O(h) accurate; the
    approximation error refines along with the identity defect.
    """
    g = require_same_grid(geom.f, beta)
    op = _flux_operator(g.dim)
    acc = _interface_sum(geom, op, op.fields([c.values for c in geom.grad_f], [beta.values]),
                         face_ring(g))
    return [ScalarField(g, -c / g.spacing) for c in acc]  # a face cell has measure h^(N-1)


def gradient_identity_residual(geom: InterfaceGeometry, beta: ScalarField) -> float:
    """Discrete defect of grad(D(f)[beta]) = A(f)[grad beta], spectral gradients.

    The exact single-cell boundary flux of the underlying integration by parts
    is subtracted (see :func:`torus_byparts_flux`); without it the defect
    saturates at an O(1/L) floor for data with overlapping supports.
    """
    d = apply_D(geom, beta)
    lhs = gradient(d)
    rhs = apply_A(geom, gradient(beta))
    flux = torus_byparts_flux(geom, beta)
    rhs = [ScalarField(geom.grid, r.values + fl.values) for r, fl in zip(rhs, flux)]
    total = sum(l2_norm(ScalarField(geom.grid, a.values - b.values)) ** 2
                for a, b in zip(lhs, rhs))
    return float(np.sqrt(total))


class _Operator(NamedTuple):
    """An interface operator's numerator, as the table the kernel sums read.

    ``fields(gfv, bv)`` builds the fields u_i from the values of grad f and of
    b.  A term (i, k, monomials) adds to output k the field u_i(x-xi) times
    the sum of sign * coef(x) * xi^nu * df^m over its monomials
    (sign, c, axis, m): coef = d_c f, or 1 for c None; nu = e_axis, or 0 for
    axis None; m is 0 or 1.  ``sizes[i] = (n, q)`` bounds |u_i| by
    n G^q ||b||_inf, G the largest |grad f| at the grid points.  The
    monomials with c None and m = 0 are constant Riesz cores; with
    ``exact_core`` they take their exact continuum symbol (see
    :mod:`muskat.kernels`), otherwise their lattice sum.  ``outputs`` is the
    number of output components.
    """

    fields: Callable
    terms: tuple
    sizes: tuple
    exact_core: bool
    outputs: int


def _d_fields(gfv, bv):
    return [bv[0]] + [g * bv[0] for g in gfv]


@lru_cache(maxsize=None)
def _d_operator(dim: int) -> _Operator:
    """Double layer: (df - xi.grad f(x-xi)) beta(x-xi) is beta with +df, d_j f beta with -xi_j."""
    return _Operator(_d_fields, ((0, 0, ((1.0, None, None, 1),)),)
                     + tuple((1 + j, 0, ((-1.0, None, j, 0),)) for j in range(dim)),
                     ((1, 0),) + ((1, 1),) * dim, False, 1)


def _beta_field(gfv, bv):
    return [bv[0]]


@lru_cache(maxsize=None)
def _d_star_operator(dim: int) -> _Operator:
    """Adjoint double layer: (-df + xi.grad f(x)) beta(x-xi), one term of beta."""
    return _Operator(_beta_field, ((0, 0, ((-1.0, None, None, 1),)
                                    + tuple((1.0, j, j, 0) for j in range(dim))),),
                     ((1, 0),), False, 1)


@lru_cache(maxsize=None)
def _flux_operator(dim: int) -> _Operator:
    """Torus flux on D's fields: output k, (d_k f(x) - d_k f(x-xi)) beta(x-xi), in two terms."""
    return _Operator(_d_fields, tuple((0, k, ((1.0, k, None, 0),)) for k in range(dim))
                     + tuple((1 + k, k, ((-1.0, None, None, 0),)) for k in range(dim)),
                     ((1, 0),) + ((1, 1),) * dim, False, dim)


def _aa_fields(gfv, bv):
    dim = len(gfv)
    if len(bv) != dim:
        raise ValueError("b must have one component per axis")
    return list(bv) + [gfv[j] * bv[k] - bv[j] * gfv[k]
                       for j in range(dim) for k in range(j + 1, dim)]


@lru_cache(maxsize=None)
def _aa_operator(dim: int) -> _Operator:
    """Velocity operator, its constant cores on their exact symbol.

    The numerator (xi.grad f(x-xi) - df) grad f(x).b(x-xi)
    - xi.b(x-xi) (1 + grad f(x).grad f(x-xi)) loses its j = k terms:

        sum_{j<k} xi_j d_k f(x) w_jk(x-xi) - xi_k d_j f(x) w_jk(x-xi)
        - sum_k (xi_k + d_k f(x) df) b_k(x-xi),   w_jk = d_j f b_k - b_j d_k f,

    in 1D -b(x-xi) (xi + f'(x) df).
    """
    pairs = [(j, k) for j in range(dim) for k in range(j + 1, dim)]
    return _Operator(_aa_fields,
                     tuple((k, 0, ((-1.0, None, k, 0), (-1.0, k, None, 1))) for k in range(dim))
                     + tuple((dim + n, 0, ((1.0, k, j, 0), (-1.0, j, k, 0)))
                             for n, (j, k) in enumerate(pairs)),
                     ((1, 0),) * dim + ((2, 1),) * len(pairs), True, 1)


@lru_cache(maxsize=None)
def _a_operator(dim: int) -> _Operator:
    """Tangential matrix operator on the velocity operator's fields.

    Output k, (df - xi.grad f(x-xi)) b_k(x-xi) - xi.b(x-xi) (d_k f(x) -
    d_k f(x-xi)), is b_k with +df, w_jk with -xi_j for j != k (w_kj = -w_jk),
    and b_j with -xi_j d_k f(x).
    """
    pairs = [(j, k) for j in range(dim) for k in range(j + 1, dim)]
    terms = [(k, k, ((1.0, None, None, 1), (-1.0, k, k, 0))) for k in range(dim)]
    terms += [(j, k, ((-1.0, k, j, 0),)) for k in range(dim) for j in range(dim) if j != k]
    for n, (j, k) in enumerate(pairs):  # w_jk: -xi_j to output k, +xi_k to output j
        terms += [(dim + n, k, ((-1.0, None, j, 0),)), (dim + n, j, ((1.0, None, k, 0),))]
    return _Operator(_aa_fields, tuple(terms), ((1, 0),) * dim + ((2, 1),) * len(pairs), False,
                     dim)


class _Split(NamedTuple):
    """A near/far split, as :func:`_choose_split` picks it."""

    radius: int    # the near field |xi| <= radius * h is summed directly
    order: int     # the far field's degree K in (df/|xi|)^2
    bound: float   # relative to ||b||_inf W_0, see _choose_split
    coefs: tuple   # the far field's kernel coefficients c_0..c_K, see _interpolant


def _split_sum(geom: InterfaceGeometry, op: _Operator, bv, split: _Split) -> np.ndarray:
    """op's PV lattice sum, per output: the near field directly, the far field by FFT to order K.

    The near field |xi| <= R is the blocked :func:`_interface_sum` over
    :func:`muskat.offsets.near_offsets`.  On the far field the kernel is
    sum_{k<=K} c_k df^(2k) / |xi|^(N+1+2k), c_k the split's coefficients
    (the degree-K interpolant of (1+u)^(-(N+1)/2) in u = (df/|xi|)^2, see
    :func:`_interpolant`).  With df^e = sum_a binom(e, a) f(x)^a
    (-f(x-xi))^(e-a), each monomial's term of order k is coef(x) f(x)^a
    times the convolution of the truncated lattice kernel
    xi^nu / |xi|^(N+1+2k) 1{|xi| > R} with f^(e-a) u; its symbols are
    built once per split (:func:`_symbol_table`).  Grouped by output
    and x-coefficient (k, c), in batches of as many groups as a block of
    :func:`block_rows` holds accumulators for (at least one): per field of a
    batch one stacked rfftn of its powers p = e - a, the products summed per
    group and power a in Fourier space, and one stacked irfftn of every
    group's powers a per chunk of the batch, added straight to the output
    (:func:`_far_batch`).  The exact cores ride the same pass
    (:func:`_far_field`); the direct split (no coefficients) runs it for
    them alone.  The near field comes first, then the pass.
    """
    g = geom.grid
    us = op.fields([c.values for c in geom.grad_f], bv)
    near = near_offsets(g, split.radius)
    out = (_interface_sum(geom, op, us, near) if near.count
           else np.zeros((op.outputs,) + g.shape))
    far = bool(split.coefs)
    groups = {}  # (output k, x-coefficient c) -> the pass's entries (field, sign, axis, m, core)
    for i, k, monomials in op.terms:
        for sign, c, axis, m in monomials:
            core = op.exact_core and c is None and m == 0
            if far or core:
                groups.setdefault((k, c), []).append((i, sign, axis, m, core))
    if groups:
        f = geom.f.values
        fc = f - 0.5 * (np.max(f) + np.min(f))  # the sum sees f only through df
        # as many groups per batch as a block holds accumulators for (2K+2 each)
        items = list(groups.items())
        per = max(1, block_rows(g) // (2 * split.order + 2))
        for lo in range(0, len(items), per):
            _far_batch(geom, split, us, dict(items[lo:lo + per]), fc, out)
    return out


def _direct_sum(geom: InterfaceGeometry, op: _Operator, bv) -> np.ndarray:
    """op's PV lattice sum, per output, with every offset in the near field: no far field."""
    return _split_sum(geom, op, bv, _direct_split(geom.grid))


def _far_batch(geom, split, us, batch, fc, out):
    """Add the far field of a batch {(k, c): entries} of groups to out[k]; see _split_sum.

    The accumulators of every group of the batch, one half spectrum per
    power a of f(x), form one run in (group, a) order, stacked a chunk of
    :func:`block_rows` at a time; each chunk is inverted by one irfftn and
    added to its outputs' rows accumulator by accumulator, so out[k] takes
    its additions in the same order whatever the chunks.  The fields'
    powers are transformed through two work stacks of as many rows, one
    real and one complex, held for the batch.  The fields are visited in
    index order, so the bits depend on neither the chunk nor the batch size.
    """
    g, K = geom.grid, split.order
    half = g.shape[:-1] + (g.points // 2 + 1,)
    tops = {key: 2 * K + 1 + max(m for _, _, _, m, _ in entries)
            for key, entries in batch.items()}
    slots = [(key, a) for key, top in tops.items() for a in range(top)]
    rows = min(block_rows(g), len(slots))
    chunks = [np.zeros((min(rows, len(slots) - lo),) + half, complex)
              for lo in range(0, len(slots), rows)]
    run = (acc for chunk in chunks for acc in chunk)
    accs = {key: list(islice(run, top)) for key, top in tops.items()}
    fields = {}
    for key, entries in batch.items():
        for i, *entry in entries:
            fields.setdefault(i, []).append((key, *entry))
    work = np.empty((rows,) + g.shape), np.empty((rows,) + half, complex)
    for i in sorted(fields):
        _far_field(geom, split, us[i], fields[i], fc, accs, work)
    slots, power = iter(slots), None
    for chunk in chunks:
        values = np.fft.irfftn(chunk, s=g.shape, axes=range(1, g.dim + 1),
                               out=work[0][:len(chunk)])
        for v, ((k, c), a) in zip(values, slots):  # values first: zip takes no slot past it
            if a:
                power = fc if a == 1 else power * fc
                v *= power
            if a > 1:
                v *= 1.0 / factorial(a)
            if c is not None:
                v *= geom.grad_f[c].values
            out[k] += v


def _far_field(geom, split, u, monomials, fc, accs, work):
    """Add the terms of field u's monomials ((k, c), sign, axis, m, core) to accs[k, c][a].

    The powers u fc^p are formed in work's real stack and transformed a
    chunk at a time by one rfftn into its complex one.  The symbols are
    read from the split's table (:func:`_symbol_table`), built on first
    use; they carry no sign, so a term adds or subtracts.  An exact core
    (c None, m = 0) also adds its p = 0 spectrum times the core's fix
    (:func:`muskat.kernels.core_fix_apply`) to accumulator a = 0, the one
    its symbols meet p = 0 in; the direct split has no symbols, so there
    the pass adds the fixes alone.
    """
    g, K = geom.grid, split.order
    table = _symbol_table(g, split.radius, split.coefs) if split.coefs else None
    terms = []
    for (k_out, c), sign, axis, m, core in monomials:
        nu = tuple(int(j == axis) for j in range(g.dim))
        scaled = () if table is None else table.get((nu, m))
        if scaled is None:
            # binom(e, a) = e! / (a! p!): e! goes with the symbol, 1/p! with
            # the field's spectrum, 1/a! with the power of f(x)
            scaled = table[nu, m] = far_symbols(g, split.radius, nu, K)
            for k, (sym, ck) in enumerate(zip(scaled, split.coefs)):
                sym *= ck * factorial(m + 2 * k)
                sym.setflags(write=False)
        terms.append((accs[k_out, c], np.add if sign > 0 else np.subtract, m, scaled,
                      nu if core else None))
    powers, transforms = work
    buf = np.empty(transforms.shape[1:], complex)
    top = 2 * K + 1 + max(m for _, _, m, _, _ in terms)
    for lo in range(0, top, len(powers)):
        n = min(len(powers), top - lo)
        for j in range(n):
            if lo + j == 0:
                powers[0] = u
            else:
                np.multiply(powers[j - 1], fc, out=powers[j])  # row -1 ends the chunk before
        np.fft.rfftn(powers[:n], axes=range(1, g.dim + 1), out=transforms[:n])
        for p, spec in enumerate(transforms[:n], lo):
            if p:
                spec *= (-1) ** p / factorial(p)
            for acc, combine, m, scaled, core in terms:
                for k in range(max(p - m + 1, 0) // 2, len(scaled)):
                    np.multiply(spec, scaled[k], out=buf)
                    combine(acc[m + 2 * k - p], buf, out=acc[m + 2 * k - p])
                if core is not None and p == 0:
                    combine(acc[0], core_fix_apply(g, core, spec, out=buf), out=acc[0])


@lru_cache(maxsize=4)
def _symbol_table(grid: GridSpec, radius: int, coefs: tuple) -> dict:
    """The far field's symbol table of the split (grid, radius, coefs), empty at first.

    It maps (nu, m) to :func:`muskat.kernels.far_symbols` of orders k <= K,
    each scaled by c_k (m+2k)! and read-only, filled by :func:`_far_field`;
    coefs fix N, the ladder interval and K, so the split's operators share
    its N+1 entries.  Four tables are held, the most one stage reads: D at
    each rung of the density solve's relaxation ladder, and the velocity
    operator.
    """
    return {}


# Cost model of the split, in ns on one core of a 2-core Xeon (fitted on 1D
# M=64..1024 and 2D M=16..64): a near-field pair term per monomial (plus two
# for the denominator), a field's wrap-padded window, a far-field product of
# two half spectra, and an FFT (fixed per axis, plus per point times log2 of
# the size); each pair is (fixed, per grid point).  Read only by _split_costs.
# The allocation-free near field alone measures about 2 to 3 ns per pair term
# and monomial at 2D M=32..64 and 1D M=1024, but PAIR_NS = 1.9 moves 2D picks to
# splits that time up to 70% slower (and 1D picks to ones up to 25% faster): the
# constants fit the picks as a set, so re-fit them together.
PAIR_NS = 3.5
WINDOW_NS = (40000.0, 50.0)
PRODUCT_NS = (2000.0, 1.0)
FFT_NS = (14000.0, 0.9)


class _Radii(NamedTuple):
    """Per near-field radius R = 0, 1, ... in cells, up to the first past the cell."""

    near: list     # the number of PV offsets with |xi| <= R h
    nearest: list  # the smallest far |xi| (inf past the cell)
    share: list    # the far field's share of W_0
    w0: float      # W_0 = h^N/|S^N| sum |xi|^-N over the PV offsets


@lru_cache(maxsize=None)
def _radii(grid: GridSpec) -> _Radii:
    off = pv_offsets(grid)
    n2 = np.sort(np.sum(off.ints**2, axis=1))
    cum = np.cumsum(n2.astype(float) ** (-grid.dim / 2))
    radii = np.arange(ceil(sqrt(n2[-1])) + 1)
    near = np.searchsorted(n2, radii**2, side="right")
    nearest = np.sqrt(np.append(n2, np.inf)[near]) * grid.spacing
    share = 1.0 - np.append(0.0, cum)[near] / cum[-1]
    return _Radii(near.tolist(), nearest.tolist(), share.tolist(),
                  float(cum[-1]) / sphere_area(grid.dim))


def split_weight(grid: GridSpec) -> float:
    """W_0: a split within tol errs by at most tol ||b||_inf W_0 at each point; see _choose_split."""
    return _radii(grid).w0


def d_split(geom: InterfaceGeometry, split_tol: float = SMALL_SLOPE_TOL) -> tuple:
    """(R, K) of the split D takes on geom within split_tol; see _choose_split."""
    return geom.split(_d_operator(geom.grid.dim), split_tol=split_tol)[:2]


def velocity_split(geom: InterfaceGeometry) -> tuple:
    """(R, K) of the split the velocity operator takes on geom; see _choose_split."""
    return geom.split(_aa_operator(geom.grid.dim))[:2]


@lru_cache(maxsize=None)
def _split_costs(grid: GridSpec, op: _Operator) -> tuple:
    """(near, A, B, C): op's split on grid costs near[R] + A (K+1)^2 + B (K+1) + C ns.

    near[R], per radius of :func:`_radii` (the last is the direct sum), is a
    window per field and for f plus the pair terms of every near offset at
    every grid point (0 with no near offset).  The far field at order K: per
    entry (power m of df) 2K+1+m rfftn, K+1 symbols (an FFT and two
    products' work each) and (K+1)(K+1+m) products; per (output,
    x-coefficient) group (top power m) 2K+1+m irfftn.  The exact cores cost
    the same on every split and are left out.  The model counts a transform
    per power, although the far field stacks them (one call per field and
    chunk, and one per chunk of a batch's accumulators, of
    :func:`muskat.offsets.block_rows`).
    """
    ms = [m for _, _, monomials in op.terms for *_, m in monomials]
    tops = {}
    for _, k, monomials in op.terms:
        for _, c, _, m in monomials:
            tops[k, c] = max(tops.get((k, c), 0), m)
    fft_ns = grid.dim * FFT_NS[0] + FFT_NS[1] * grid.size * log2(grid.size)
    product_ns = PRODUCT_NS[0] + PRODUCT_NS[1] * grid.size
    E, G = len(ms), len(tops)
    A = E * product_ns
    B = (sum(ms) + 2 * E) * product_ns + (3 * E + 2 * G) * fft_ns
    C = (sum(ms) + sum(tops.values()) - E - G) * fft_ns
    pair_ns = PAIR_NS * grid.size * (E + 2)
    window_ns = (len(op.sizes) + 1) * (WINDOW_NS[0] + WINDOW_NS[1] * grid.size)
    near = tuple((window_ns + n * pair_ns) if n else 0.0 for n in _radii(grid).near)
    return near, A, B, C


class _Scales(NamedTuple):
    """What the split's error bound knows of an interface and an operator; see _choose_split."""

    slope: float  # s, the lesser of sum_k |k| |f^_k| and L; see InterfaceGeometry.slope_bound
    osc: float    # max f - min f
    alpha: float  # the numerator's bound: |xi| ||b||_inf (alpha + beta |df| / |xi|)
    beta: float


def _scales(geom: InterfaceGeometry, op: _Operator) -> _Scales:
    s, osc, lip = geom.slope_bound
    # alpha and beta of each output; the largest of each bounds every output
    alphas, betas = [0.0] * op.outputs, [0.0] * op.outputs
    for i, k, monomials in op.terms:
        n, q = op.sizes[i]
        for _, c, _, m in monomials:
            (betas if m else alphas)[k] += n * lip**q * (lip if c is not None else 1.0)
    return _Scales(s, osc, max(alphas), max(betas))


def _interval(x: float) -> int:
    """j of the narrowest ladder interval [0, 2^(j/8)], j >= -512, holding [0, x^2]; x <= 2^32."""
    X = x * x
    if X <= 2.0**-64:
        return -512
    j = ceil(8 * log2(X))
    return j if 2.0 ** (j / 8) >= X else j + 1


@lru_cache(maxsize=None)
def _cosines(K: int) -> tuple:
    """(v, C) of degree K on [0, 1], in long double.

    v are the K+1 Chebyshev points of the first kind, (1 + cos theta_i)/2,
    theta_i = (2i+1) pi / (2K+2); C is the discrete cosine matrix that takes
    values at v to the coefficients a_j of the interpolant sum_j a_j T*_j(v),
    T*_j(v) = T_j(2v - 1).
    """
    n = K + 1
    theta = (2 * np.arange(n) + 1) * np.arccos(np.longdouble(-1)) / (2 * n)
    C = np.cos(np.outer(np.arange(n), theta)) * (np.longdouble(2) / n)
    C[0] /= 2
    return (1 + np.cos(theta)) / 2, C


@lru_cache(maxsize=None)
def _chebyshev(K: int) -> tuple:
    """(S, sigma) of degree K, in long double: row j of S holds the monomial coefficients
    of T*_j(v), by T*_j = (4v - 2) T*_(j-1) - T*_(j-2); sigma_j = sum_k |S_jk|."""
    n = K + 1
    S = np.zeros((n, n), np.longdouble)
    S[0, 0] = 1
    if K:
        S[1, :2] = -1, 2
    for j in range(2, n):
        S[j, 1:] = 4 * S[j - 1, :-1]
        S[j] -= 2 * S[j - 1] + S[j - 2]
    return S, np.sum(np.abs(S), axis=1)


def _coefficients(dim: int, j: int, K: int) -> tuple:
    """(g - 1, a = C g) for g = (1+u)^(-p) at u = X v, v and C of :func:`_cosines`, in
    long double; see _interpolant."""
    p, X = (dim + 1) / 2, 2.0 ** (j / 8)
    v, C = _cosines(K)
    gm = np.expm1(-p * np.log1p(X * v))  # g - 1 keeps its digits when X is small
    a = C @ gm
    a[0] += 1
    return gm, a


# Ellipse parameters r = rho^(1 - delta) over which _interpolant minimizes its bound
_ELLIPSES = 1.0 - np.geomspace(1e-4, 0.999, 64)
# The degree J of the interpolant whose computed coefficients bound the
# truncation of every lower degree; see _interpolant
TAIL_DEGREE = 64


def _ellipse(dim: int, j: int, K: int) -> float:
    """min over the r of _ELLIPSES of 4 M_r r^(-K) / (r - 1); see _interpolant."""
    p, X = (dim + 1) / 2, 2.0 ** (j / 8)
    # log r over the ellipses, log rho = arccosh(y); X/2 (y - cosh log r) = 1 - X sinh^2(log r/2)
    log_r = _ELLIPSES * log1p(2.0 / X + sqrt(2.0 / X * (2.0 + 2.0 / X)))
    log_m = -p * np.log(1.0 - X * np.sinh(log_r / 2) ** 2)
    return float((4.0 * np.exp(log_m - K * log_r) / np.expm1(log_r)).min())


@lru_cache(maxsize=None)
def _tails(dim: int, j: int) -> tuple:
    """Per K < J = TAIL_DEGREE: 2 sum_{K<i<=J} |a~_i| + 2 E_J + rounding; see _interpolant."""
    J = TAIL_DEGREE
    gm, a = _coefficients(dim, j, J)
    eps_l = float(np.finfo(np.longdouble).eps)
    rest = 2.0 * _ellipse(dim, j, J) + 4 * J * ((3 * np.pi + 1) * J + 7) * eps_l * float(
        np.abs(gm).max())
    tails = np.cumsum(np.abs(a[:0:-1]))[::-1]  # sum_{K<i<=J} |a~_i| for K = 0..J-1
    return tuple((2.0 * tails.astype(float) + rest).tolist())


@lru_cache(maxsize=None)
def _interpolant(dim: int, j: int, K: int) -> tuple:
    """(coefs, error): the degree-K Chebyshev interpolant of (1+u)^(-p), p = (N+1)/2, on [0, X].

    X = 2^(j/8) (see :func:`_interval`); coefs are the interpolant's monomial
    coefficients c_k in u, and sum_k c_k u^k lies within error of (1+u)^(-p)
    for every u in [0, X].  With v = u/X on the points of :func:`_cosines`,
    the values g, their Chebyshev coefficients a = C g and the monomial
    coefficients in v, d = S^T a (:func:`_chebyshev`), are taken in long
    double; c_k = d_k / X^k.  S grows like 5.83^K but a decays as fast, so
    the product S^T a stays small; the premultiplied S^T C would carry S's
    rounding into every g.

    Truncation: let a_i be the kernel's own Chebyshev coefficients.  At the
    K+1 first-kind points T_i, i > K, equals +-T_l for one l <= K or
    vanishes, so the interpolant aliases each a_i past K onto at most one
    index below and |g - p_K| <= 2 sum_{i>K} |a_i|, for K = 0 too.

    Ellipse: z = 2v - 1 maps [-1, 1] onto [0, X], and the kernel's one
    singularity u = -1 lies at z = -y, y = 1 + 2/X.  So the kernel is
    analytic inside the Bernstein ellipse E_rho, rho = y + sqrt(y^2 - 1),
    and on E_r, r < rho, at most M_r = ((X/2)(y - (r + 1/r)/2))^(-p), its
    value at the vertex nearest -y.  Then |a_i| <= 2 M_r r^(-i) (Trefethen,
    Approximation Theory and Approximation Practice, 2013, Thm 8.1), and
    2 sum_{i>K} |a_i| <= E_K = 4 M_r r^(-K) / (r - 1) (Thm 8.2), the least
    over the r of _ELLIPSES (:func:`_ellipse`).

    Computed tail, for K < J = TAIL_DEGREE (:func:`_tails`): the degree-J
    interpolant's coefficients are a~_i = a_i + the a_l, l > J, aliased
    onto i, each l onto at most one i, so sum_{K<i<=J} |a_i| <=
    sum_{K<i<=J} |a~_i| + sum_{i>J} |a_i|, and with sum_{i>J} |a_i| <= E_J/2

        |g - p_K| <= 2 sum_{K<i<=J} |a~_i| + 8 M_r r^(-J) / (r - 1).

    The truncation is the lesser of the two bounds; the tail's is within
    about 2 of the error where E_K is 40-90 times above it.  Rounding of
    a~, by the model below: g - 1 moves each a~_i by at most 8 eps_L
    max|g - 1| (sum_k |C_ik| <= 2), the product C g by 2(J+1) eps_L
    max|g - 1| and C by 2(3 pi J + 2) eps_L max|g - 1| (each cosine's
    argument, up to J pi, off by 3 eps_L relative), so the tail adds
    4 J ((3 pi + 1) J + 7) eps_L max|g - 1|.  The tail reads only v and C
    of degree J, not S.

    Conversion, by the standard rounding model with unit eps_L in long
    double: g - 1 (to 4 eps_L relative) moves the interpolant by at most
    4(K+1) eps_L max|g - 1| (a Lebesgue constant of at most K+1); each
    entry of C is off by at most (3 pi K + 2) eps_L 2/(K+1) (its cosine's
    argument, up to K pi, off by 3 eps_L relative, as in the tail) and
    |C_ij| <= 2/(K+1), so C g moves it by 2(K+1)((3 pi + 1) K + 3) eps_L
    max|g - 1| with the product's own rounding (the term charges both
    with K+2 for K+1); S^T by (K+2) eps_L sum_j sigma_j |a_j|, and
    c_k = d_k / X^k by (K+2) eps_L sum_k |d_k|; rounding c_k to double adds
    eps/2 sum_k |d_k|, and 2^-1075 sum_k X^k where c_k falls below double's
    normal range.  A long double no wider than a double makes the term
    larger, not wrong.  A c_k past double's range makes the error inf.
    """
    X = 2.0 ** (j / 8)
    gm, a = _coefficients(dim, j, K)
    S, sigma = _chebyshev(K)
    d = S.T @ a
    powers = np.longdouble(X) ** np.arange(K + 1)
    with np.errstate(over="ignore"):  # past double range the walk ends; see _walk
        coefs = tuple((d / powers).astype(float).tolist())
    truncation = _ellipse(dim, j, K)
    if K < TAIL_DEGREE:
        truncation = min(truncation, _tails(dim, j)[K])
    eps_l = float(np.finfo(np.longdouble).eps)
    d_abs, g_max = float(np.abs(d).sum()), float(np.abs(gm).max())
    conversion = (EPS * d_abs + eps_l * (K + 2) * (
        1.0 + d_abs + float(sigma @ np.abs(a)) + 2 * ((3 * np.pi + 1) * K + 5) * g_max)
        + float(powers.sum() * np.longdouble(2) ** -1075))  # c_k below double's normal range
    return coefs, truncation + conversion if isfinite(sum(coefs)) else inf


@lru_cache(maxsize=None)
def _schedule(grid: GridSpec, op: _Operator) -> tuple:
    """(radii, (A, B, C), direct): op's split search on grid; see _choose_split.

    radii holds (R, r, w, near) for R = 0..8 and then in steps of 1 + R // 8
    while R stays inside the cell: r the smallest far |xi|, w the far
    field's share of W_0 and near the near field's cost; A, B and C price
    the far field and direct the direct sum (:func:`_split_costs`).
    """
    radii, (near, *costs) = _radii(grid), _split_costs(grid, op)
    schedule, R = [], 0
    while R < len(near) - 1:
        schedule.append((R, radii.nearest[R], radii.share[R], near[R]))
        R += 1 + R // 8
    return tuple(schedule), tuple(costs), near[-1]


def _walk(grid: GridSpec, scales: _Scales, schedule, tol: float, costs: tuple,
          best_ns: float) -> tuple | None:
    """The cheapest (R, K, bound, coefs) within tol over schedule that costs below best_ns, or None.

    schedule holds (R, r, w, near) per radius, as :func:`_schedule`'s radii
    do; with costs (A, B, C) a split costs near + A (K+1)^2 + B (K+1) + C.  At
    each radius the slope's ladder interval is taken once, and K = 0, 1, 2,
    ... is walked to the first K within tol, which becomes the best; the
    walk at R ends first where the next K costs at least the best or where
    the rounding term alone passes tol, and the search ends at the first R
    whose K = 0 costs at least the best.  See :func:`_choose_split`.
    """
    slope, osc, alpha, beta = scales
    A, B, C = costs
    best, log_size = None, log2(grid.size)
    for R, r, w, near in schedule:
        if not near + (A + B) + C < best_ns:
            break
        # x bounds |df| / |xi| on the far field, t = osc f / r
        t = osc / r
        x = min(slope, t)
        if not x <= 2.0**32:  # past the ladder; nan on a non-finite interface
            continue
        j, t2 = _interval(x), t * t
        # the truncation term is error times w (alpha + beta x), the rounding term
        # sum_k |c_k| t^(2k) times w (alpha + beta t) ROUNDING_GROWTH eps log2(M^N)
        truncation = w * (alpha + beta * x)
        rounding = w * (alpha + beta * t) * ROUNDING_GROWTH * EPS * log_size
        for K in count():
            coefs, error = _interpolant(grid.dim, j, K)
            mass = 0.0
            for c in reversed(coefs):
                mass = mass * t2 + abs(c)
            if not rounding * mass <= tol:  # nan past double range
                break
            bound = truncation * error + rounding * mass
            if bound <= tol:
                best, best_ns = (R, K, bound, coefs), near + (A * (K + 1) + B) * (K + 1) + C
                break
            if not near + (A * (K + 2) + B) * (K + 2) + C < best_ns:
                break
    return best


def _direct_split(grid: GridSpec) -> _Split:
    """The split past the cell: every PV offset in the near field, no far field, bound 0."""
    return _Split(len(_radii(grid).near) - 1, 0, 0.0, ())


def _first_split(grid: GridSpec, scales: _Scales, radius: int, orders: int):
    """The split at radius with the first K < orders within SMALL_SLOPE_TOL, or None."""
    radii = _radii(grid)
    # a split costs K + 1 here, so K < orders
    first = _walk(grid, scales, [(radius, radii.nearest[radius], radii.share[radius], 0.0)],
                  SMALL_SLOPE_TOL, (0.0, 1.0, 0.0), orders + 1)
    return None if first is None else _Split(*first)


def _choose_split(geom: InterfaceGeometry, op: _Operator, tol: float) -> _Split:
    """The cheapest (R, K) whose error bound, relative to ||b||_inf W_0, is at most tol.

    Bound the slope by s (:attr:`InterfaceGeometry.slope_bound`, the lesser
    of the Wiener sum and a Lipschitz bound from G and f's curvature):
    s >= |df| / |xi| for every offset.  On the far field |xi| > R also
    |df| <= osc f = max f - min f, so |df| / |xi| <= x = min(s, osc f / r),
    r the smallest far |xi|, and
    u = (df/|xi|)^2 <= x^2 <= X, X the top of the ladder interval
    (:func:`_interval`, at most 9% above x^2).  With p = (N+1)/2 the kernel
    is (1+u)^(-p) |xi|^(-2p); the far field replaces (1+u)^(-p) by its
    degree-K Chebyshev interpolant on [0, X], sum_{k<=K} c_k u^k, within
    E_K (:func:`_interpolant`: the computed Chebyshev tail of a degree-64
    interpolant plus a proven remainder, or the Bernstein-ellipse bound
    where that is less, plus the conversion to monomials) of it.  The
    coefficients are the split's, so the bound and the far field read one
    table.

    The coefficients d_c f(x) and op's fields are only taken at grid points,
    so by the fields' sizes and G = max |grad f| there each output's
    numerator is at most |xi| ||b||_inf (alpha + beta |df|/|xi|), alpha the
    largest sum over an output's monomials with m = 0 and beta with m = 1
    (a sum over every output would be N times looser for A), and the
    truncation is at most w (alpha + beta x) E_K relative to ||b||_inf W_0,
    where w is the far field's share of W_0 = h^N/|S^N| sum |xi|^-N over
    the PV offsets.

    Rounding: the binomial pieces f(x)^a f(x-xi)^(e-a) of df^e add up to at
    most (osc f)^e in absolute value, where df^e itself is at most
    (x |xi|)^e.  So the convolutions of order k have absolute mass at most
    w |c_k| t^(2k) (alpha + beta t) ||b||_inf W_0, t = osc f / r, and the
    rounding term is ROUNDING_GROWTH eps log2(M^N) times their sum.  The
    model, not a proof, is meant to cover the near field's rounding as well;
    the bound-ladder test checks it against the direct sum.

    The search starts from the direct sum (R past the cell, bound 0) and
    walks op's radius schedule (:func:`_schedule`, held per grid and op):
    R = 0 (no near field: the small-slope expansion of every offset), every
    cell up to 8 and then in steps of 1 + R // 8, while its K = 0 is cheaper
    (:func:`_split_costs`) than the best so far.  At each R the first K
    within the bound becomes the best, unless a K that costs at least the
    best comes first (:func:`_walk`); only the pick is built into a
    :class:`_Split`.
    """
    g = geom.grid
    schedule, costs, direct_ns = _schedule(g, op)
    best = _walk(g, _scales(geom, op), schedule, tol, costs, direct_ns)
    return _direct_split(g) if best is None else _Split(*best)


def apply_AA(geom: InterfaceGeometry, b) -> ScalarField:
    """Velocity operator: the two-integral kernel of the evolution's right side.

    The second integral contains the constant core -xi.b(x-xi)/|xi|^{N+1},
    which is evaluated with its exact symbol.
    """
    return _apply(geom, _aa_operator(geom.grid.dim), b)[0]


def apply_AA_composed(geom: InterfaceGeometry, b) -> ScalarField:
    """B-transform representation of the velocity operator (validation path)."""
    b = list(b)
    require_same_grid(geom.f, *b)
    f, gfv, bv = geom.f, [c.values for c in geom.grad_f], [c.values for c in b]
    out = np.zeros(geom.grid.shape)
    for i in range(geom.grid.dim):
        for k in range(geom.grid.dim):
            if k != i:  # the field vanishes at k = i
                out = out + gfv[k] * phibar_transform(f, 0, i, bv[k] * gfv[i] - bv[i] * gfv[k])
        out = out - phibar_transform(f, 0, i, bv[i], "spectral")
        out = out - gfv[i] * phibar_transform(f, 1, None, bv[i])
    return ScalarField(geom.grid, out)


def boundary_trace(geom: InterfaceGeometry, beta: ScalarField) -> list:
    """PV trace of the layer gradient on the interface, N+1 components.

    The horizontal components are the constant-core transforms applied to the
    raw density and use the spectral core; the vertical component has a
    decaying kernel and stays on the lattice.
    """
    require_same_grid(geom.f, beta)
    f, bv = geom.f, beta.values
    comps = [phibar_transform(f, 0, i, bv, "spectral") for i in range(geom.grid.dim)]
    comps.append(phibar_transform(f, 1, None, bv))
    return [ScalarField(geom.grid, c) for c in comps]


def rellich_residual(geom: InterfaceGeometry, beta: ScalarField) -> float:
    """Defect of the '+' Rellich identity evaluated from the boundary traces.

    On the torus the Stokes flux through y -> -inf does not vanish: a density
    with nonzero mean leaves the exact flux (mean beta)^2 L^N / 4 on the right
    side, which is included here so that the identity is exact for decaying
    fields of any mean.
    """
    g = require_same_grid(geom.f, beta)
    om = geom.omega.values
    sq = np.sqrt(om)
    nu = [c.values for c in geom.normal]
    G = [c.values for c in boundary_trace(geom, beta)]
    g_dot_nu = sum(Gc * nc for Gc, nc in zip(G, nu))
    F = [sq * (Gc - g_dot_nu * nc) for Gc, nc in zip(G, nu)]
    f_sq = sum(Fc * Fc for Fc in F)
    plus = beta.values - 2.0 * apply_D_star(geom, beta).values
    integrand = plus**2 / (4.0 * om) + plus * F[-1] / sq - f_sq / om
    lhs = g.spacing**g.dim * float(np.sum(integrand))
    flux = integrate(beta) ** 2 / (4.0 * g.extent**g.dim)
    return abs(lhs - flux)


def adjointness_defect(geom: InterfaceGeometry, beta: ScalarField,
                       gamma: ScalarField) -> float:
    """Relative defect of <D beta, gamma> = <beta, D* gamma>."""
    left = inner(apply_D(geom, beta), gamma)
    right = inner(beta, apply_D_star(geom, gamma))
    scale = max(abs(left), abs(right), 1e-300)
    return abs(left - right) / scale
