"""Interface evolution df/dt = Lambda * AA(f)[grad beta(f)] with monitoring.

AA is the velocity operator :func:`muskat.potentials.apply_AA`.

The reduced parameters are the characteristic velocity Lambda and the
viscosity contrast a_mu; the scaled right side depends on a_mu only, so
trajectories obey the exact rescaling f_Lambda(t) = f_1(Lambda t).

The linearization at the flat interface is the Fourier multiplier -|z|/2, so
the stability constraint of the explicit steppers is CFL-like (dt ~ h), not
parabolic (dt ~ h^2).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarField, gradient, half_sobolev_norm, integrate, l2_norm
from .kernels import phibar_transform
from .potentials import InterfaceGeometry, apply_AA, velocity_split
from .resolvent import SolveReport, solve_beta


class NonFiniteInterface(ArithmeticError):
    """The arithmetic of a state (interface, density or velocity) overflowed."""


@contextmanager
def overflow_guard(t=0.0):
    """Raise NonFiniteInterface where the arithmetic inside overflows or turns invalid."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteInterface(f"the state at t={t:.6f} overflowed ({exc})") from exc


@dataclass(frozen=True)
class PhysicalParams:
    """Reduced parameters: Lambda (characteristic velocity) and a_mu in (-1,1)."""

    lam: float
    a_mu: float

    def __post_init__(self):
        if not -1.0 < self.a_mu < 1.0:
            raise ValueError(f"a_mu must lie in (-1, 1), got {self.a_mu}")
        if not np.isfinite(self.lam):
            raise ValueError("Lambda must be finite")

    @classmethod
    def from_raw(cls, porosity, gravity, mu_plus, mu_minus, rho_plus, rho_minus):
        """Reduce raw constants: Lambda = 2 k g (rho- - rho+)/(mu+ + mu-),
        a_mu = (mu+ - mu-)/(mu+ + mu-)."""
        for name, v in (("porosity", porosity), ("gravity", gravity),
                        ("mu_plus", mu_plus), ("mu_minus", mu_minus),
                        ("rho_plus", rho_plus), ("rho_minus", rho_minus)):
            if v <= 0:
                raise ValueError(f"{name} must be positive, got {v}")
        lam = 2.0 * porosity * gravity * (rho_minus - rho_plus) / (mu_plus + mu_minus)
        a_mu = (mu_plus - mu_minus) / (mu_plus + mu_minus)
        return cls(lam=lam, a_mu=a_mu)


MAX_STEPS = 10**6  # the most time steps one run may take
SCHEMES = ("rk2", "euler")  # the explicit steppers step knows


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "rk2"            # 'rk2' (SSP) or 'euler'
    dt: float | None = None        # None: auto, cfl * h / |Lambda|
    cfl: float = 0.5
    t_end: float = 1.0
    snapshot_stride: int = 0       # 0: final snapshot only
    rt_floor: float = 0.05

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 < self.rt_floor < 1.0:
            raise ValueError("rt_floor must lie in (0, 1)")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")

    def resolve_dt(self, grid, lam) -> float:
        if self.dt is not None:
            return self.dt
        if lam == 0:
            raise ValueError("auto dt needs Lambda != 0")
        return self.cfl * grid.spacing / abs(lam)

    def steps(self, grid, lam) -> tuple:
        """(n_steps, dt): the fewest equal steps of at most the resolved dt that end at t_end.

        A ratio t_end/dt within 1e-9 relative above an integer counts as that
        integer.  More than MAX_STEPS steps, or a ratio that overflows, is a
        ValueError.
        """
        ratio = self.t_end / self.resolve_dt(grid, lam) * (1.0 - 1e-9)
        if not ratio <= MAX_STEPS:
            raise ValueError(f"t_end / dt asks for {ratio:.3g} steps, more than {MAX_STEPS}")
        n_steps = max(1, math.ceil(ratio))
        return n_steps, self.t_end / n_steps


@dataclass(frozen=True)
class InterfaceState:
    """Interface plus caches: beta(f), the scaled velocity, the RT margin.

    The scaled velocity is Phi~ = AA(f)[grad beta(f)], the right side without Lambda;
    where beta is f itself (a_mu = 0), grad beta is the geometry's grad f.
    """

    geom: InterfaceGeometry
    beta: ScalarField
    phi_tilde: ScalarField
    rt_margin_field: ScalarField
    t: float = 0.0
    beta_report: SolveReport = field(default=None, repr=False)

    @classmethod
    def compute(cls, f: ScalarField, params: PhysicalParams, tol: float = 1e-10,
                t: float = 0.0, warm_start: ScalarField | None = None,
                max_iter: int = 200):
        with overflow_guard(t):
            geom = InterfaceGeometry(f)
            beta, report = solve_beta(geom, params.a_mu, tol=tol, max_iter=max_iter,
                                      warm_start=warm_start)
            phi = apply_AA(geom, geom.grad_f if beta is geom.f else gradient(beta))
            margin = ScalarField(f.grid, 1.0 - 2.0 * params.a_mu * phi.values)
        return cls(geom=geom, beta=beta, phi_tilde=phi, rt_margin_field=margin,
                   t=t, beta_report=report)

    @property
    def f(self) -> ScalarField:
        return self.geom.f


def rt_margin(state: InterfaceState, params: PhysicalParams):
    """(field, min, holds): the Rayleigh-Taylor margin 1 - 2 a_mu Phi~(f).

    The condition holds when Lambda * margin > 0 everywhere; since the margin
    tends to 1 in the far field, Lambda > 0 is necessary.
    """
    if params.lam == 0:
        raise ValueError("RT margin requires Lambda != 0")
    fieldv = state.rt_margin_field
    mn = float(np.min(fieldv.values))
    mx = float(np.max(fieldv.values))
    holds = mn > 0.0 if params.lam > 0 else mx < 0.0
    return fieldv, mn, holds


def wow_residual(state: InterfaceState, params: PhysicalParams) -> float:
    """Defect of the margin identity

    1 - 2 a_mu Phi~(f) = -grad f . grad beta
        + (1 + |grad f|^2)(1 + 2 a_mu sum_k B_{0,e_k}(f)[d_k beta]).
    """
    geom = state.geom
    g = geom.grid
    a = params.a_mu
    lhs = state.rt_margin_field.values
    grad_beta = gradient(state.beta)
    gf_dot_gb = sum(geom.grad_f[j].values * grad_beta[j].values for j in range(g.dim))
    riesz_sum = np.zeros(g.shape)
    for k in range(g.dim):
        riesz_sum += phibar_transform(geom.f, 0, k, grad_beta[k].values, "spectral")
    rhs = -gf_dot_gb + geom.omega.values * (1.0 + 2.0 * a * riesz_sum)
    return l2_norm(ScalarField(g, lhs - rhs))


def step(state: InterfaceState, params: PhysicalParams, dt: float,
         scheme: str = "rk2", tol: float = 1e-10, max_iter: int = 200,
         on_stage=None) -> InterfaceState:
    """Advance one explicit step: an Euler stage, plus the SSP-RK2 correction for 'rk2'.

    Each stage's InterfaceState is passed to ``on_stage`` when given.  Raises
    NonFiniteInterface when a stage overflows.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    g, t = state.f.grid, state.t + dt

    def stage(values, warm_start):
        out = InterfaceState.compute(ScalarField(g, values), params, tol=tol, t=t,
                                     warm_start=warm_start, max_iter=max_iter)
        if on_stage is not None:
            on_stage(out)
        return out

    with overflow_guard(t):
        k1 = params.lam * state.phi_tilde.values
        euler = stage(state.f.values + dt * k1, state.beta)
        if scheme == "euler":
            return euler
        k2 = params.lam * euler.phi_tilde.values
        return stage(state.f.values + 0.5 * dt * (k1 + k2), euler.beta)


@dataclass
class EvolutionResult:
    final: InterfaceState
    series: list                # monitor rows
    snapshots: list             # (step index, ScalarField)
    halted: str | None = None   # 'rt-floor' or 'non-finite' when the run stopped early
    solves: list = field(default_factory=list)  # every density solve's SolveReport, in order
    # the (R, K) of every stage's velocity-operator apply, in order
    velocity_splits: list = field(default_factory=list)

    SERIES_HEADER = ("t", "min_rt_margin", "volume", "sobolev_norm_s", "beta_iters", "dt")


def evolve(f0: ScalarField, params: PhysicalParams, stepper: StepperConfig,
           solver_tol: float = 1e-10, sobolev_s: float = 2.0,
           solver_max_iter: int = 200) -> EvolutionResult:
    """Run the time loop with monitors; snapshots every ``snapshot_stride`` steps.

    The run takes the equal steps of :meth:`StepperConfig.steps`, so the dt
    used is t_end / n_steps.

    Monitor columns: t, min RT margin, volume integral of f, discrete H^s
    norm, density-solve iterations, dt.  Each state is recorded, and
    snapshotted on the stride, before the RT floor is checked on it.  A
    margin at most ``rt_floor`` (for Lambda > 0 only: the paper leaves open
    whether Lambda > 0 alone implies the condition for a_mu != 0, so the
    run monitors and halts) or a stage that overflows stops the run and
    keeps the last finite state as the final snapshot.
    """
    n_steps, dt = stepper.steps(f0.grid, params.lam)
    solves, velocity_splits = [], []

    def record(stage):
        solves.append(stage.beta_report)
        velocity_splits.append(velocity_split(stage.geom))

    state = InterfaceState.compute(f0, params, tol=solver_tol, max_iter=solver_max_iter)
    record(state)
    series = []
    snapshots = []
    halted = None
    for i in range(n_steps + 1):
        if i:
            try:
                state = step(state, params, dt, scheme=stepper.scheme, tol=solver_tol,
                             max_iter=solver_max_iter, on_stage=record)
            except NonFiniteInterface:
                halted = "non-finite"
                break
        series.append((state.t, float(np.min(state.rt_margin_field.values)), integrate(state.f),
                       half_sobolev_norm(state.f.grid, state.geom.spectrum, sobolev_s),
                       state.beta_report.iterations, dt))
        if i and stepper.snapshot_stride and i % stepper.snapshot_stride == 0:
            snapshots.append((i, state.f))
        if params.lam > 0 and series[-1][1] <= stepper.rt_floor:
            halted = "rt-floor"
            break
    snapshots.append((len(series) - 1, state.f))
    return EvolutionResult(final=state, series=series, snapshots=snapshots,
                           halted=halted, solves=solves, velocity_splits=velocity_splits)
