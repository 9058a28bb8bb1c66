"""Smooth kernel profiles and their calculus.

A profile is a smooth function phi: [0, inf)^p -> R entering the generalized
Riesz kernels through phi((D a)^2).  The family used by the interface
operators is phibar(x) = (1+x)^(-(N+1)/2); it is closed under
differentiation, which the chain-rule and difference constructions rely on.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)
# map from [-1,1] to [0,1]
_GL_S = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


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
    """phi^i(x, y) = int_0^1 d_i phi(s x + (1-s) y) ds, arity doubled.

    Evaluated with fixed 16-point Gauss-Legendre on [0,1]; the integrand is
    smooth so the rule is far below the quadrature noise of the lattice sums.
    """

    def __init__(self, base: SmoothProfile, i: int):
        if not 0 <= i < base.arity:
            raise IndexError(f"slot {i} out of range for arity {base.arity}")
        self.base = base
        self.slot = i
        self.arity = 2 * base.arity

    def __call__(self, args, out=None):
        """The rule's sum, accumulated in ``out`` on p + 1 work arrays allocated once per call."""
        self._check_args(args)
        dphi = self.base.partial_profile(self.slot)
        p = self.base.arity
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        acc = np.empty(shape) if out is None else out
        acc[...] = 0.0
        blend = [np.empty(shape) for _ in range(p)]
        val = np.empty(shape)
        for s, w in zip(_GL_S, _GL_W):
            for j, b in enumerate(blend):
                np.multiply(s, args[j], out=b)
                b += np.multiply(1.0 - s, args[p + j], out=val)
            acc += np.multiply(w, dphi(blend), out=val)
        return acc

