"""Boundary-integral engine for the gravity-driven Muskat interface evolution.

The interface y = f(x) between two fluids in a porous medium evolves by
df/dt = Lambda * AA(f)[grad beta(f)], with AA the velocity operator, where
beta solves a second-kind singular integral equation built from the double
layer potential of the Lipschitz graph.  This package realizes the singular operators as principal-value
lattice sums on a periodic grid, solves the density equation matrix-free,
advances the interface explicitly, and ships validation suites for every
exact operator identity the construction rests on.
"""

__version__ = "0.1.0"

from .dynamics import (InterfaceState, PhysicalParams, StepperConfig, evolve,
                       rt_margin, step, wow_residual)
from .grid import (GridSpec, ScalarField, integrate, l2_norm, load_field, save_field,
                   spectral_derivative)
from .kernels import OperatorSpec, apply_B, chain_rule_residual
from .multipliers import MultiplierSpec, SphereRule, symbol_D, symbol_T
from .potentials import (InterfaceGeometry, apply_A, apply_AA, apply_D,
                         apply_D_star, gradient_identity_residual,
                         rellich_residual)
from .profiles import DifferenceProfile, SmoothProfile, phibar
from .resolvent import SolveFailure, SolveReport, solve_beta

__all__ = [
    "DifferenceProfile", "GridSpec", "InterfaceGeometry", "InterfaceState",
    "MultiplierSpec", "OperatorSpec", "PhysicalParams", "ScalarField",
    "SmoothProfile", "SolveFailure", "SolveReport", "SphereRule",
    "StepperConfig", "apply_A", "apply_AA", "apply_B", "apply_D",
    "apply_D_star", "chain_rule_residual", "evolve",
    "gradient_identity_residual", "integrate", "l2_norm", "load_field",
    "phibar", "rellich_residual", "rt_margin", "save_field",
    "solve_beta", "spectral_derivative", "step", "symbol_D", "symbol_T",
    "wow_residual",
]
