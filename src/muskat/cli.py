"""Command line interface.

Subcommands: evolve, validate, symbol, field, rt-check.  Exit codes:
0 success, 2 configuration error (any bad outside input), 3 solver failure,
4 RT-floor halt, 5 validation failure, 6 non-finite interface; main() is the
one place that maps an exception to its code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np

from . import __version__
from .config import (ConfigError, SimConfig, initial_field, load_probes, load_snapshot,
                     parse_config, parse_numbers, parse_value, reading)
from .dynamics import InterfaceState, NonFiniteInterface, evolve, overflow_guard, rt_margin
from .fields import eval_pressure, eval_velocity
from .grid import save_field
from .multipliers import MultiplierSpec, symbol_D
from .potentials import InterfaceGeometry
from .profiles import phibar
from .resolvent import SolveFailure, solve_beta
from .validate import CSV_HEADER, run_validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_RT = 4
EXIT_VALIDATION = 5
EXIT_NONFINITE = 6
EXIT_HALTED = {None: EXIT_OK, "rt-floor": EXIT_RT, "non-finite": EXIT_NONFINITE}


def _output_dir(args, cfg: SimConfig) -> str:
    outdir = args.output or cfg.output_dir
    with reading("output directory"):
        os.makedirs(outdir, exist_ok=True)
    return outdir


@contextmanager
def _writing(path):
    """``path`` opened for text; a path that cannot be written is a ConfigError."""
    with reading(f"cannot write {path}"), open(path, "w", newline="") as fh:
        yield fh


def _write_csv(path, header, rows):
    """The one CSV writer: Python's csv quoting, LF line ends, each float as its repr."""
    with _writing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def _write_manifest(cfg: SimConfig, outdir, extra):
    manifest = {
        "config": cfg.echo,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "seed": cfg.seed,
        "grid": {"dim": cfg.grid.dim, "extent": cfg.grid.extent,
                 "points": cfg.grid.points, "spacing": cfg.grid.spacing},
        **extra,
    }
    with _writing(os.path.join(outdir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solve_totals(reports) -> dict:
    """The density solves' count, GMRES iterations (in all and per solve, in solve order),
    worst true residual, applies of D per split tolerance, and per split tolerance
    D's applies per (R, K) it took ("R,K")."""
    applies, splits = {}, {}
    for report in reports:
        for tol, n in report.d_applies.items():
            applies[repr(tol)] = applies.get(repr(tol), 0) + n
            picks = splits.setdefault(repr(tol), {})
            pick = "%d,%d" % report.d_splits[tol]
            picks[pick] = picks.get(pick, 0) + n
    per_solve = [r.iterations for r in reports]
    return {"count": len(reports), "iterations": sum(per_solve),
            "iterations_per_solve": per_solve,
            "max_residual": max((r.residual for r in reports), default=0.0),
            "d_applies": applies, "d_splits": splits}


def _split_totals(picks) -> dict:
    """The applies per (R, K) pick, keyed "R,K"."""
    return dict(Counter("%d,%d" % pick for pick in picks))


def cmd_evolve(args) -> int:
    cfg = parse_config(args.config)
    outdir = _output_dir(args, cfg)
    result = evolve(initial_field(cfg), cfg.params, cfg.stepper, solver_tol=cfg.solver_tol,
                    sobolev_s=cfg.sobolev_s, solver_max_iter=cfg.solver_max_iter)
    _write_csv(os.path.join(outdir, "series.csv"), result.SERIES_HEADER, result.series)
    with reading(f"cannot write snapshots to {outdir}"):
        for index, snap in result.snapshots:
            save_field(os.path.join(outdir, f"snapshot_{index:06d}.bin"), snap)
        save_field(os.path.join(outdir, "final.bin"), result.final.f)
    steps = len(result.series) - 1
    _write_manifest(cfg, outdir, {"halted": result.halted, "steps": steps,
                                  "density_solves": _solve_totals(result.solves),
                                  "velocity_splits": _split_totals(result.velocity_splits)})
    if result.halted:
        print(f"halted ({result.halted}) at t={result.final.t:.6f} after {steps} steps; "
              f"outputs in {outdir}", file=sys.stderr)
    else:
        print(f"evolved to t={result.final.t:.6f} in {steps} steps; outputs in {outdir}")
    return EXIT_HALTED[result.halted]


def cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    outdir = _output_dir(args, cfg)
    selection = (parse_value("validate.suites", args.suite, "--suite") if args.suite
                 else cfg.suites or "all")
    rows, ok = run_validate(cfg, selection)
    _write_csv(os.path.join(outdir, "validate_report.csv"), CSV_HEADER,
               [(r.suite, r.check, r.value, r.threshold, int(r.passed), r.note) for r in rows])
    _write_manifest(cfg, outdir, {"validate_passed": ok})
    for r in rows:
        print(r.line())
    print(f"{sum(r.passed for r in rows)}/{len(rows)} checks passed; "
          f"report in {outdir}/validate_report.csv")
    return EXIT_OK if ok else EXIT_VALIDATION


# The most samples one `muskat symbol` run takes: each costs about 2 ms and
# every row is held until the CSV is written.
MAX_SYMBOL_SAMPLES = 10**5


def cmd_symbol(args) -> int:
    A = tuple(parse_numbers("--A", args.A))
    nu = tuple(parse_numbers("--nu", args.nu, int))
    dim = len(nu)
    with reading("--A, --n, --nu"):
        mspec = MultiplierSpec(phibar(dim), args.n, nu, A)
    ray = np.asarray(parse_numbers("--ray", args.ray))
    if ray.shape != (dim,) or not np.any(ray):
        raise ConfigError("--ray must be a nonzero direction of the same dimension")
    if not 1 <= args.num <= MAX_SYMBOL_SAMPLES:
        raise ConfigError(f"--num must lie in [1, {MAX_SYMBOL_SAMPLES}], got {args.num}")
    if not np.isfinite(args.zmax * args.num):  # the samples' zmax * i / num
        raise ConfigError(f"--zmax * --num must be finite, got {args.zmax} * {args.num}")
    ray = ray / np.linalg.norm(ray)
    rows = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(1, args.num + 1):
                z = ray * (args.zmax * i / args.num)
                s = symbol_D(mspec, z)
                rows.append(list(z) + [s.real, s.imag])
    except FloatingPointError as exc:
        raise ConfigError(f"--A, --n: the symbol is not finite ({exc})") from exc
    out = args.out or "symbol.csv"
    _write_csv(out, [f"z{j}" for j in range(dim)] + ["re_symbol", "im_symbol"], rows)
    print(f"wrote {len(rows)} symbol samples to {out}")
    return EXIT_OK


def cmd_field(args) -> int:
    cfg = parse_config(args.config)
    with overflow_guard():
        geom = InterfaceGeometry(initial_field(cfg))
        beta, _ = solve_beta(geom, cfg.params.a_mu, tol=cfg.solver_tol,
                             max_iter=cfg.solver_max_iter)
        probes = load_probes(args.probes, geom)
        vs = eval_velocity(geom, beta, probes)
        qs = eval_pressure(geom, beta, probes)
    out = args.out or "field.csv"
    _write_csv(out, ["probe"] + [f"v{j}" for j in range(cfg.grid.dim + 1)] + ["q", "side"],
               [[i, *v, q, p.side] for i, (v, q, p) in enumerate(zip(vs, qs, probes))])
    print(f"wrote {len(probes)} probes to {out}")
    return EXIT_OK


def cmd_rt_check(args) -> int:
    cfg = parse_config(args.config)
    f = load_snapshot("--snapshot", args.snapshot, cfg.grid)
    state = InterfaceState.compute(f, cfg.params, tol=cfg.solver_tol,
                                   max_iter=cfg.solver_max_iter)
    _, mn, holds = rt_margin(state, cfg.params)
    print(f"min RT margin: {mn!r}; condition holds: {holds}")
    return EXIT_OK if holds else EXIT_RT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="muskat",
        description="Boundary-integral engine for the gravity-driven Muskat "
                    "interface evolution")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run a time evolution")
    p.add_argument("config")
    p.add_argument("--output", help="override output.dir")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("validate", help="run identity validation suites")
    p.add_argument("config")
    p.add_argument("--suite", help="single suite name (default: config selection)")
    p.add_argument("--output", help="override output.dir")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("symbol", help="dump multiplier symbol samples along a ray")
    p.add_argument("--A", required=True, help="frozen gradient, comma separated")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--nu", required=True, help="multi-index, comma separated")
    p.add_argument("--ray", required=True, help="frequency direction, comma separated")
    p.add_argument("--num", type=int, default=32)
    p.add_argument("--zmax", type=float, default=8.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("field", help="evaluate velocity/pressure at probes")
    p.add_argument("config")
    p.add_argument("--probes", required=True, help="CSV with columns x0..,y")
    p.add_argument("--out")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("rt-check", help="Rayleigh-Taylor margin of a snapshot")
    p.add_argument("config")
    p.add_argument("--snapshot", required=True)
    p.set_defaults(func=cmd_rt_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid too large for this machine
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolveFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NonFiniteInterface as exc:
        print(f"non-finite interface: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


if __name__ == "__main__":
    sys.exit(main())
