"""Fourier multipliers of the frozen-coefficient singular operators.

The constant-coefficient instances of the generalized Riesz transforms act
diagonally in frequency with purely imaginary symbol i*m(z),

    m(z) = -(pi/2) int_{S^{N-1}} sgn(w.z) K(w) dS(w),
    K(w) = (1/|S^N|) phi((A.w)^2) (A.w)^n w^nu,

computed here by sphere quadrature whose panels are aligned with the
sgn/abs kink circle {w.z = 0}.  For N=1 the sphere is the two points +-1 and
everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import GridSpec, wavenumber_squared
from .offsets import sphere_area
from .profiles import phibar


# the Gauss-Legendre rule on [-1, 1] of every sphere-rule panel, built once
_GL_X, _GL_W = leggauss(32)


def _gl_panels(bounds):
    """Composite Gauss-Legendre nodes/weights over consecutive [a,b] panels."""
    nodes, weights = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        nodes.append(0.5 * (b - a) * _GL_X + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * _GL_W)
    return np.concatenate(nodes), np.concatenate(weights)


def _orthonormal_frame(direction):
    """Orthonormal basis (e1, e2, zhat) of R^3 with given last axis."""
    zhat = direction / np.linalg.norm(direction)
    probe = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(probe, zhat)) > 0.9:
        probe = np.array([0.0, 1.0, 0.0])
    e1 = probe - np.dot(probe, zhat) * zhat
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(zhat, e1)
    return e1, e2, zhat


# azimuthal nodes of a rule on S^2
_N_AZIMUTH = 128


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes/weights on S^{N-1}; weights positive, sum |S^{N-1}|."""

    dim: int                 # ambient space dimension N
    nodes: np.ndarray        # (n, N)
    weights: np.ndarray      # (n,)

    @classmethod
    def for_direction(cls, dim: int, direction) -> "SphereRule":
        """Rule with panel boundaries on the great circle {w.direction = 0}."""
        if dim == 1:
            return cls(1, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        if dim == 2:
            # split the circle at the kink points alpha +- pi/2 of sgn(w.z)
            alpha = np.arctan2(direction[1], direction[0])
            upper = np.linspace(alpha - np.pi / 2.0, alpha + np.pi / 2.0, 5)
            lower = np.linspace(alpha + np.pi / 2.0, alpha + 3.0 * np.pi / 2.0, 5)
            theta, w = _gl_panels(np.concatenate([upper, lower[1:]]))
            nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            return cls(2, nodes, w)
        if dim == 3:
            e1, e2, zhat = _orthonormal_frame(np.asarray(direction, dtype=float))
            u, wu = _gl_panels(np.array([-1.0, 0.0, 1.0]))
            psi = 2.0 * np.pi * np.arange(_N_AZIMUTH) / _N_AZIMUTH
            wpsi = 2.0 * np.pi / _N_AZIMUTH
            s = np.sqrt(np.clip(1.0 - u**2, 0.0, None))
            nodes = (s[:, None, None] * (np.cos(psi)[None, :, None] * e1 + np.sin(psi)[None, :, None] * e2)
                     + u[:, None, None] * zhat)
            weights = np.repeat(wu * wpsi, _N_AZIMUTH)
            return cls(3, nodes.reshape(-1, 3), weights)
        raise ValueError(f"unsupported dimension {dim}")

    def integrate(self, values) -> float:
        return float(np.sum(self.weights * values))


@dataclass(frozen=True)
class MultiplierSpec:
    """Frozen-gradient instance: arity-1 profile, n linear slots, index nu, A."""

    profile: object
    n: int
    nu: tuple
    A: tuple

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(int(v) for v in self.nu))
        object.__setattr__(self, "A", tuple(float(v) for v in self.A))
        if getattr(self.profile, "arity", 1) != 1:
            raise ValueError("multiplier symbols take an arity-1 profile")
        if self.n < 0 or any(v < 0 for v in self.nu):
            raise ValueError("n and nu must be nonnegative")
        if (self.n + sum(self.nu)) % 2 == 0:
            raise ValueError(f"n + |nu| must be odd, got n={self.n}, nu={self.nu}")
        if len(self.A) != len(self.nu):
            raise ValueError("A and nu must have the space dimension length")
        if not 1 <= len(self.nu) <= 3:
            raise ValueError(f"the space dimension must be 1, 2 or 3, got {len(self.nu)}")

    @property
    def dim(self) -> int:
        return len(self.nu)


def _kernel_on_sphere(mspec: MultiplierSpec, nodes: np.ndarray) -> np.ndarray:
    A = np.asarray(mspec.A)
    aw = nodes @ A
    vals = mspec.profile((aw**2,)) * aw**mspec.n
    for j, p in enumerate(mspec.nu):
        if p:
            vals = vals * nodes[:, j] ** p
    return vals / sphere_area(mspec.dim)


def symbol_D(mspec: MultiplierSpec, z) -> complex:
    """Symbol i*m(z) of the frozen-coefficient operator at frequency z; 0 at z=0."""
    z = np.asarray(z, dtype=float)
    if z.shape != (mspec.dim,):
        raise ValueError(f"frequency must be a length-{mspec.dim} vector")
    if not np.any(z):
        return 0.0 + 0.0j
    rule = SphereRule.for_direction(mspec.dim, z)
    kern = _kernel_on_sphere(mspec, rule.nodes)
    sgn = np.sign(rule.nodes @ z)
    m = -(np.pi / 2.0) * rule.integrate(sgn * kern)
    return 1j * m


def symbol_T(A, z) -> float:
    """m_T(z) >= 0 for T = sum_k D^{phibar,A}_{0,e_k} d_k.

    m_T(z) = (pi / (2 |S^N|)) int_{S^{N-1}} |w.z| phibar((A.w)^2) dS(w);
    equals |z|/2 exactly at A = 0.
    """
    A = np.asarray(A, dtype=float)
    z = np.asarray(z, dtype=float)
    dim = A.shape[0]
    if z.shape != (dim,):
        raise ValueError("A and z must have equal length")
    if not np.any(z):
        return 0.0
    rule = SphereRule.for_direction(dim, z)
    vals = np.abs(rule.nodes @ z) * phibar(dim)(((rule.nodes @ A) ** 2,))
    return float(np.pi / (2.0 * sphere_area(dim)) * rule.integrate(vals))


def riesz_core_symbol_grid(grid: GridSpec, nu) -> np.ndarray:
    """Exact symbol array -(i/2) z_d/|z| of the unit core xi_d / |xi|^{N+1}, nu = e_d.

    Returned in fft layout on the grid's integer modes, zero at z = 0.
    """
    nu = tuple(int(v) for v in nu)
    if len(nu) != grid.dim or sorted(nu) != [0] * (grid.dim - 1) + [1]:
        raise ValueError(f"nu must be a unit multi-index of length {grid.dim}, got {nu}")
    norm = np.sqrt(wavenumber_squared(grid))
    norm[(0,) * grid.dim] = 1.0
    sym = -0.5j * grid.frequencies(nu.index(1)) / norm
    sym[(0,) * grid.dim] = 0.0
    return sym
