"""Outside input: config files, snapshots, probe lists and numbers from the command line.

Config files are strict flat key=value files with dotted sections.  KEYS
declares every key once, with its parser, default and domain; unknown keys and
values outside their domain are errors, and the fully resolved mapping is
echoed into the run manifest so outputs are reproducible from the manifest
alone.  Every failure to read outside input is a ConfigError.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .dynamics import SCHEMES, PhysicalParams, StepperConfig
from .fields import ProbePoint, check_clearance
from .grid import GridSpec, ScalarField, load_field, make_gaussian_bump, make_mode, make_zero
from .validate import SUITES


class ConfigError(ValueError):
    """Invalid outside input; the message names the key or source and the reason."""


@contextmanager
def reading(what):
    """Turn a ValueError, OverflowError or OSError inside into a ConfigError about ``what``."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _items(cast):
    return lambda raw: [cast(part.strip()) for part in raw.split(",") if part.strip()]


def _finite_and(test):
    return lambda v: math.isfinite(v) and test(v)


_POSITIVE = ("be finite and > 0", _finite_and(lambda v: v > 0))
_RAW_PARAM_KEYS = ("params.porosity", "params.gravity", "params.mu_plus",
                   "params.mu_minus", "params.rho_plus", "params.rho_minus")
# initial.kind: (constructor, the initial.* keys it takes by name after the grid)
_INITIAL_KINDS = {
    "zero": (make_zero, ()),
    "mode": (make_mode, ("amplitude", "k")),
    "gaussian": (make_gaussian_bump, ("amplitude", "center", "width")),
    "snapshot": (lambda grid, path: load_snapshot("initial.path", path, grid), ("path",)),
}

# key: (parser, default or None, domain, test of the parsed value)
KEYS = {
    "grid.dim": (int, "1", "be 1, 2 or 3", lambda v: v in (1, 2, 3)),
    "grid.extent": (float, repr(2 * math.pi), *_POSITIVE),
    "grid.points": (int, "64", "be >= 8", lambda v: v >= 8),
    "params.lambda": (float, "1.0", "be finite and != 0", _finite_and(lambda v: v != 0)),
    "params.a_mu": (float, "0.0", "lie in (-1, 1)", lambda v: -1 < v < 1),
    **{key: (float, None, *_POSITIVE) for key in _RAW_PARAM_KEYS},
    "initial.kind": (str, "zero", f"be one of {', '.join(_INITIAL_KINDS)}",
                     lambda v: v in _INITIAL_KINDS),
    "initial.amplitude": (float, "1.0", "be finite", math.isfinite),
    "initial.k": (_items(int), "1", "be integers, one per axis", lambda v: True),
    "initial.center": (_items(float), None, "be finite, one per axis",
                       lambda v: all(map(math.isfinite, v))),
    "initial.width": (float, "0.5", *_POSITIVE),
    "initial.path": (str, None, "be a snapshot file", lambda v: True),
    "stepper.scheme": (str, "rk2", f"be {' or '.join(SCHEMES)}", lambda v: v in SCHEMES),
    "stepper.dt": (lambda raw: None if raw == "auto" else float(raw), "auto",
                   "be auto or finite and > 0", lambda v: v is None or _POSITIVE[1](v)),
    "stepper.cfl": (float, "0.5", *_POSITIVE),
    "stepper.t_end": (float, "1.0", *_POSITIVE),
    "stepper.snapshot_stride": (int, "0", "be >= 0", lambda v: v >= 0),
    "stepper.rt_floor": (float, "0.05", "lie in (0, 1)", lambda v: 0 < v < 1),
    "solver.tol": (float, "1e-10", *_POSITIVE),
    "solver.max_iter": (int, "200", "be >= 1", lambda v: v >= 1),
    "monitor.sobolev_s": (float, "2.0", "be finite and >= 0", _finite_and(lambda v: v >= 0)),
    "output.dir": (str, "out", "be a directory", lambda v: True),
    "validate.suites": (_items(str), "all", f"be all or name suites among {', '.join(SUITES)}",
                        lambda v: v == ["all"] or all(s in SUITES for s in v)),
    "seed": (int, "0", "be >= 0", lambda v: v >= 0),
}


@dataclass
class SimConfig:
    grid: GridSpec
    params: PhysicalParams
    initial_kind: str
    initial: dict
    stepper: StepperConfig
    solver_tol: float
    solver_max_iter: int
    sobolev_s: float
    output_dir: str
    suites: list
    seed: int
    echo: dict = field(default_factory=dict)


def parse_value(key, raw, what=None):
    """The value of ``raw`` for ``key`` of KEYS; ConfigError naming ``what`` (default key)."""
    cast, _, domain, test = KEYS[key]
    what = what or key
    with reading(what):
        value = cast(raw.strip())
    if not test(value):
        raise ConfigError(f"{what} must {domain}, got {raw!r}")
    return value


def parse_numbers(what, raw, cast=float) -> list:
    """Finite numbers of a comma-separated list, as a ConfigError naming ``what``."""
    with reading(what):
        values = _items(cast)(raw)
        if not values or not all(map(math.isfinite, values)):
            raise ConfigError(f"{what} must be finite numbers, got {raw!r}")
    return values


def parse_kv_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = body.split("=", 1)
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def build_config(kv: dict) -> SimConfig:
    values = {key: parse_value(key, raw) for key, row in KEYS.items()
              if (raw := kv.get(key, row[1])) is not None}
    raw_given = [k for k in _RAW_PARAM_KEYS if k in kv]
    if raw_given and (len(raw_given) < len(_RAW_PARAM_KEYS) or "params.lambda" in kv
                      or "params.a_mu" in kv):
        raise ConfigError("params: give either reduced (lambda, a_mu) or all of the raw "
                          f"constants {', '.join(_RAW_PARAM_KEYS)}, not both")
    kind = values["initial.kind"]
    if kind == "snapshot" and "initial.path" not in values:
        raise ConfigError("initial.path: required for initial.kind = snapshot")

    # the library's own checks, behind the domains above; raw constants may overflow
    with reading("grid, params and stepper"):
        grid = GridSpec(values["grid.dim"], values["grid.extent"], values["grid.points"])
        if raw_given:
            params = PhysicalParams.from_raw(*(values[k] for k in _RAW_PARAM_KEYS))
            if params.lam == 0:
                raise ConfigError("params: rho_plus = rho_minus gives Lambda = 0")
        else:
            params = PhysicalParams(values["params.lambda"], values["params.a_mu"])
        stepper = StepperConfig(**{k: values[f"stepper.{k}"] for k in (
            "scheme", "dt", "cfl", "t_end", "snapshot_stride", "rt_floor")})
        stepper.steps(grid, params.lam)
    # the monitor's H^s weight (1+|k|^2)^s is largest at the grid's top frequency,
    # which overflows for a tiny grid.extent, and whose square overflows sooner
    k_top = grid.points // 2 * 2.0 * math.pi / grid.extent
    if not math.isfinite(k_top):
        raise ConfigError(f"grid.extent = {grid.extent:.4g}: the top frequency "
                          f"{grid.points // 2} * 2 pi / grid.extent overflows")
    # the lattice sums raise the longest PV offset sqrt(N) ((M-1)//2) h to the
    # power N+1, which overflows for a huge grid.extent
    reach = math.sqrt(grid.dim) * ((grid.points - 1) // 2) * grid.spacing
    try:
        reach ** (grid.dim + 1)
    except OverflowError:
        raise ConfigError(f"grid.extent = {grid.extent:.4g}: the longest lattice offset "
                          f"{reach:.4g} overflows at the power N+1 = {grid.dim + 1}") from None
    try:
        (1.0 + grid.dim * k_top ** 2) ** values["monitor.sobolev_s"]
    except OverflowError:
        raise ConfigError(f"monitor.sobolev_s = {values['monitor.sobolev_s']}: the weight "
                          f"(1+|k|^2)^s overflows at the top frequency |k| = "
                          f"{math.sqrt(grid.dim) * k_top:.4g} (grid.extent = {grid.extent:.4g})"
                          ) from None
    values["params.lambda"], values["params.a_mu"] = params.lam, params.a_mu
    values.setdefault("initial.center", [grid.extent / 2] * grid.dim)
    initial = {name: values[f"initial.{name}"] for name in _INITIAL_KINDS[kind][1]}

    cfg = SimConfig(grid=grid, params=params, initial_kind=kind, initial=initial,
                    stepper=stepper, solver_tol=values["solver.tol"],
                    solver_max_iter=values["solver.max_iter"],
                    sobolev_s=values["monitor.sobolev_s"],
                    output_dir=values["output.dir"], suites=values["validate.suites"],
                    seed=values["seed"])
    cfg.echo = {k: v for k, v in values.items() if k not in _RAW_PARAM_KEYS
                and (not k.startswith("initial.") or k == "initial.kind"
                     or k[len("initial."):] in initial)}
    return cfg


def parse_config(path) -> SimConfig:
    """Read and validate a configuration file; raises ConfigError on any issue."""
    with reading(f"cannot read config {path}"), open(path, "r") as fh:
        text = fh.read()
    return build_config(parse_kv_text(text))


def initial_field(cfg: SimConfig) -> ScalarField:
    """The run's initial interface, or a ConfigError for data the grid cannot hold."""
    make = _INITIAL_KINDS[cfg.initial_kind][0]
    with reading(f"initial.kind = {cfg.initial_kind}"):
        return make(cfg.grid, **cfg.initial)


def load_snapshot(source: str, path, grid) -> ScalarField:
    """The snapshot at ``path`` (named ``source`` in errors); a ConfigError unless on ``grid``."""
    with reading(f"{source}: cannot load snapshot"):
        snap = load_field(path)
    if snap.grid != grid:
        raise ConfigError(f"{source}: snapshot grid {snap.grid} does not match config grid {grid}")
    return snap


def load_probes(path, geom) -> list:
    """Probe points of a CSV with columns x0.., y, each at least h/2 off the interface."""
    expected = [f"x{j}" for j in range(geom.grid.dim)] + ["y"]
    with reading(f"probes {path}"), open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
        if not rows or [h.strip() for h in rows[0]] != expected:
            raise ConfigError(f"probe CSV must have columns {expected}, got {rows[:1]}")
        probes = []
        for row in rows[1:]:
            vals = parse_numbers(f"probes {path}", ",".join(row))
            if len(vals) != len(expected):
                raise ConfigError(f"probe row {row} needs {len(expected)} values")
            probes.append(ProbePoint.locate(geom, vals[:-1], vals[-1]))
            check_clearance(geom, probes[-1])
    return probes
