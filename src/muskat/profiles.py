"""Smooth kernel profiles and their calculus.

A profile is a smooth function phi: [0, inf)^p -> R entering the generalized
Riesz kernels through phi((D a)^2).  The family used by the interface
operators is phibar(x) = (1+x)^(-(N+1)/2); it is closed under
differentiation, which the chain-rule and difference constructions rely on.
"""

from __future__ import annotations

import numpy as np


class SmoothProfile:
    """Evaluation rule for phi and each first partial d_i phi, arity p >= 1."""

    arity = 1

    def __call__(self, args, out=None):
        """phi(args), written into ``out`` when given (an array of the args' shape)."""
        raise NotImplementedError

    def partial_profile(self, i) -> "SmoothProfile":
        raise NotImplementedError

    def _check_args(self, args):
        if len(args) != self.arity:
            raise ValueError(f"profile arity {self.arity}, got {len(args)} arguments")


class PowerProfile(SmoothProfile):
    """phi(x) = c * (1 + x)^e on [0, inf); closed under differentiation."""

    arity = 1

    def __init__(self, coeff, exponent):
        self.coeff = float(coeff)
        self.exponent = float(exponent)

    def __call__(self, args, out=None):
        self._check_args(args)
        val = np.add(1.0, args[0], out=out)
        val **= self.exponent
        val *= self.coeff
        return val

    def partial_profile(self, i):
        if i != 0:
            raise IndexError("arity-1 profile")
        return PowerProfile(self.coeff * self.exponent, self.exponent - 1.0)


def phibar(dim: int) -> PowerProfile:
    """The reference profile (1+x)^(-(N+1)/2) for space dimension ``dim``."""
    return PowerProfile(1.0, -(dim + 1) / 2.0)


class DifferenceProfile(SmoothProfile):
    """phi^0(x, y) = int_0^1 phi'(s x + (1-s) y) ds = (phi(x) - phi(y)) / (x - y), arity 2.

    For a power base phi = c (1+x)^e take v = 1 + min(x, y), d = |x - y| / v:
    1 + max(x, y) = v (1 + d), so phi^0 = c v^(e-1) expm1(e log1p(d)) / d, or
    c e v^(e-1) as d -> 0.  log1p and expm1 keep relative accuracy as d -> 0,
    where the power difference cancels; d >= 0 keeps log1p off its pole at -1.
    A subnormal d, where e log1p(d) would lose digits, counts as the diagonal.
    """

    arity = 2

    def __init__(self, base: SmoothProfile, i: int):
        if not isinstance(base, PowerProfile):
            raise TypeError("the difference profile needs a PowerProfile base")
        if i != 0:
            raise IndexError(f"slot {i} out of range for an arity-1 base")
        self.base = base

    def __call__(self, args, out=None):
        """phi^0 at args = (x, y), written into ``out`` (not an arg) on one work array."""
        self._check_args(args)
        x, y = args
        c, e = self.base.coeff, self.base.exponent
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        out = np.empty(shape) if out is None else out
        d = np.maximum(x, y, out=np.empty(shape))
        d -= np.minimum(x, y, out=out)
        d /= np.add(out, 1.0, out=out)
        diagonal = d < np.finfo(float).tiny
        np.expm1(np.multiply(e, np.log1p(d, out=out), out=out), out=out)
        np.divide(out, d, out=out, where=~diagonal)
        np.copyto(out, e, where=diagonal)
        out *= np.power(np.add(np.minimum(x, y, out=d), 1.0, out=d), e - 1.0, out=d)
        out *= c
        return out
