"""Benchmark of the muskat engine through its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fresh single-threaded ``muskat evolve`` / ``muskat validate`` processes
(closed loop, one at a time) from the ``src`` tree of the checkout this file
sits in, for about S seconds, checks every process's outputs, prints a table
of every metric by name and unit, and prints one JSON result as the last line
of standard output.  With ``--trace 0`` the result holds the end-to-end
metrics, measured without tracing; with ``--trace 1`` it holds the per-layer
metrics, taken from traced processes alternated with untraced ones.

Workloads (see WORKLOADS):

- ``contrast-2d``: 2D M=64 at a_mu = 0.5 with a steep bump (Lip f = 0.85), so
  the GMRES density solve and apply_D dominate, on 16 M pair terms per apply;
- ``validate``: all ten identity suites, which use the same operators in
  short calls on many grids plus the multiplier and field modules;
- ``decay-1d``: the demo decay, a_mu = 0, so the density solve short-circuits
  and apply_AA does nearly all the work on a working set that fits in cache;
  its slope is small enough for a small-slope expansion, which contrast-2d's
  is not.

The seed sets every config's ``seed`` key (the validate suites draw their
random fields from it) and moves the contrast-2d bump centre by at most one
grid spacing; seed 0 leaves it centred, which is the case the stored
reference covers.

End-to-end metrics are medians over the run's processes: ``wall_s`` (process
start to exit), ``step_s`` (a process's mean time per RK2 step, or per suite
for validate), ``setup_s`` (process start to the first density solve, or the
first suite; also from set-up-only probe processes) and ``peak_rss_mb``.

The times are scaled to a fixed host speed.  On a shared host one CPU's speed
drifts by tens of percent over seconds to minutes, for every kind of work
alike, and a minute-long run cannot average that out.  So the benchmark pins
itself and its processes to one CPU, and a thread of its own (SpeedProbe)
times a fixed numpy kernel on that CPU every SAMPLE_EVERY_S while they run.
Each interval timed (a process, its set-up, a step, a suite or a traced span)
is multiplied by PROBE_REF_S over the probe's mean during that interval, so it
reads as if the kernel took PROBE_REF_S.  The kernel does not call muskat,
so a change to the package moves the scaled times as much as the raw ones;
the table prints the raw medians as well.

The table also prints ``step_s_tail``, ``ref_err`` and ``fail_frac``, which the
JSON result leaves out: the tail needs eleven samples and contrast-2d has two
per run, ``ref_err`` is exactly 0 or undefined on some workloads, and failed
processes are counted in ``failed``.

Every end-to-end metric of all three workloads, with fail_frac:

    for w in contrast-2d validate decay-1d; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 40 --trace 0
    done
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

from child import FIRST_WORK

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench-work")
REFERENCE = os.path.join(HERE, "reference", "contrast-2d-seed0-final.npy")

DEFAULT_SEED = 0
SETUP_PROBES = 6            # set-up-only processes, half before and half after the workload
RUN_LIMIT_S = 170.0         # a run must end within 180 s; children are killed past this
REF_REL_TOL = 1e-10         # contrast-2d final interface vs stored reference
DECAY_REF_TOL = 1e-5        # decay-1d final interface vs exact linear decay
SOLVER_TOL = 1e-10
SAMPLE_EVERY_S = 0.05       # period of the host speed probe
PROBE_REF_S = 3e-4          # probe kernel CPU time at the reference speed

CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, MUSKAT_THREADS="1",
                 OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

DEMO_PHYSICS = """\
grid.dim = 1
grid.extent = 62.83185307179586
grid.points = 512
params.lambda = 1.0
params.a_mu = 0.0
initial.kind = mode
initial.amplitude = 1e-3
initial.k = 4
stepper.scheme = rk2
stepper.dt = auto
stepper.cfl = 0.25
stepper.t_end = 2.0
stepper.snapshot_stride = 16
"""

CONTRAST_L = 2 * math.pi
CONTRAST_M = 64


def contrast_physics(seed):
    rng = random.Random(seed)
    shift = 0.0 if seed == DEFAULT_SEED else rng.uniform(0.0, CONTRAST_L / CONTRAST_M)
    angle = rng.uniform(0.0, 2 * math.pi)
    center = [CONTRAST_L / 2 + shift * math.cos(angle), CONTRAST_L / 2 + shift * math.sin(angle)]
    return f"""\
grid.dim = 2
grid.extent = {CONTRAST_L!r}
grid.points = {CONTRAST_M}
params.lambda = 1.0
params.a_mu = 0.5
initial.kind = gaussian
initial.amplitude = 0.7
initial.width = 0.5
initial.center = {center[0]!r},{center[1]!r}
stepper.scheme = rk2
stepper.dt = 0.05
stepper.t_end = 0.1
"""


WORKLOADS = {
    "contrast-2d": ("evolve", contrast_physics),
    "validate": ("validate", lambda seed: DEMO_PHYSICS),
    "decay-1d": ("evolve", lambda seed: DEMO_PHYSICS),
}
SUITES = ("adjoint", "gradient-identity", "chain-rule", "wow", "symbols",
          "difference", "composed", "rellich", "resolvent", "jump")

# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("step_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
_CALLS_S = ("calls", "count", "lower"), ("s", "s", "lower")
_OPERATOR = _CALLS_S + (("busy_s", "s", "lower"),
                        ("pair_terms_per_s", "1/s", "higher"))
PER_LAYER = (
    [(f"potentials.apply_D.{k}", u, b) for k, u, b in _OPERATOR]
    + [(f"potentials.apply_AA.{k}", u, b) for k, u, b in _OPERATOR]
    + [(f"potentials.apply_D_star.{k}", u, b) for k, u, b in _CALLS_S]
    + [(f"potentials.apply_A.{k}", u, b) for k, u, b in _CALLS_S]
    + [("potentials.InterfaceGeometry.s", "s", "lower"),
       ("resolvent.solve_beta.calls", "count", "lower"),
       ("resolvent.solve_beta.s", "s", "lower"),
       ("resolvent.solve_beta.self_s", "s", "lower"),
       ("resolvent.gmres_iters", "count", "lower"),
       ("resolvent.D_applies_per_solve", "count", "lower"),
       ("resolvent.useful_apply_ratio", "ratio", "higher"),
       ("resolvent.true_residual_max", "rel", "lower"),
       ("dynamics.step.calls", "count", "lower"),
       ("dynamics.step.s", "s", "lower"),
       ("dynamics.InterfaceState.compute.s", "s", "lower"),
       ("kernels.apply_B.calls", "count", "lower"),
       ("kernels.apply_B.s", "s", "lower"),
       ("kernels.apply_B.busy_s", "s", "lower")]
    + [(f"kernels.core_fix_apply.{k}", u, b) for k, u, b in _CALLS_S]
    + [("offsets.pv_offsets.build_s", "s", "lower"),
       ("multipliers.riesz_core_symbol_grid.s", "s", "lower"),
       ("config.parse_config.s", "s", "lower")]
    + [(f"multipliers.symbol_D.{k}", u, b) for k, u, b in _CALLS_S]
    + [(f"fields.eval_velocity.{k}", u, b) for k, u, b in _CALLS_S]
    + [(f"fields.jump_check.{k}", u, b) for k, u, b in _CALLS_S]
    + [(f"grid.save_field.{k}", u, b) for k, u, b in _CALLS_S]
    + [("grid.save_field.bytes", "B", "lower")]
    + [(f"grid.spectral_derivative.{k}", u, b) for k, u, b in _CALLS_S]
    + [(f"validate.suite.{s}.s", "s", "lower") for s in SUITES]
    + [("trace_overhead_frac", "ratio", "lower")]
)
# deterministic per-layer values; every traced process of a run must agree
COUNTS = [name for name, unit, _ in PER_LAYER
          if unit == "count" or name in ("grid.save_field.bytes",
                                         "resolvent.useful_apply_ratio")]
COMPUTED = ("potentials.apply_D.pair_terms_per_s", "potentials.apply_AA.pair_terms_per_s")


# -- statistics -----------------------------------------------------------------

def tail(values):
    """(percentile, value): the highest percentile with ten samples beyond it.

    None when there are fewer than eleven samples.
    """
    if len(values) < 11:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def describe(values, unit):
    """Median, tail percentile and sample count of a non-empty sample."""
    text = f"median {statistics.median(values):.6g} {unit}"
    t = tail(values)
    text += (f", p{t[0]:.1f} {t[1]:.6g} {unit}" if t
             else ", tail n/a (fewer than 11 samples)")
    return text + f", n={len(values)}"


# -- host speed -------------------------------------------------------------------

class SpeedProbe:
    """CPU time of a fixed kernel, sampled every SAMPLE_EVERY_S from a thread.

    The kernel has the shape of the operators' inner loop (np.roll and
    element-wise arithmetic on small arrays, driven from Python) and a working
    set of a few KiB, and it is timed on its second pass, so what a child
    process leaves in the caches barely moves it.  The thread must share the
    children's CPU: the CPUs of the host do not drift together.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.a = np.random.default_rng(0).random((32, 32))
        self._kernel()          # numpy's first calls pay one-time set-up
        self.samples = []       # (monotonic time, CPU seconds of one kernel)
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._loop, daemon=True)

    def _kernel(self):
        np, a = self.np, self.a
        acc = np.zeros(a.shape)
        for i in range(8):
            d = a - np.roll(a, (i % 7, i % 5), axis=(0, 1))
            acc += d * a / (1.0 + d * d) ** 1.5
        return acc

    def _loop(self):
        while not self.done.wait(SAMPLE_EVERY_S):
            self._kernel()      # refills the caches the child process used
            at, cpu = time.monotonic(), time.thread_time()
            self._kernel()
            self.samples.append((at, time.thread_time() - cpu))

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.done.set()
        self.thread.join()

    @functools.cached_property
    def _times(self):
        return [t for t, _ in self.samples]

    def scaled(self, start, end):
        """end - start, times PROBE_REF_S over the probe's mean in between.

        Call it once the probe has stopped.
        """
        i = bisect.bisect_left(self._times, start)
        j = bisect.bisect_right(self._times, end)
        if i == j:              # shorter than a period: the nearest sample
            i = min((k for k in (i - 1, i) if 0 <= k < len(self._times)),
                    key=lambda k: abs(self._times[k] - start))
            j = i + 1
        return (end - start) * PROBE_REF_S / statistics.fmean(
            c for _, c in self.samples[i:j])


# -- processes --------------------------------------------------------------------

def run_child(mode, cli_args, outdir, timeout):
    """One child process, killed after ``timeout`` seconds; returns its record."""
    os.makedirs(outdir)
    report_path = os.path.join(outdir, "report.json")
    with open(os.path.join(outdir, "stderr.txt"), "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, mode, report_path, "--", *cli_args],
            cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    rec = {"mode": mode, "outdir": outdir, "start": start, "wall": wall,
           "exit": code, "spans": [], "error": None}
    if code != 0:
        rec["error"] = f"exit code {code}"
        return rec
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        rec["error"] = f"no report: {exc}"
        return rec
    rec["spans"] = report["spans"]
    rec["maxrss_mb"] = report["maxrss_kb"] / 1024.0
    firsts = [s[2] for s in rec["spans"] if s[0].startswith(FIRST_WORK)]
    rec["setup"] = (report["end"] if mode == "setup" else min(firsts, default=math.nan)) - start
    if not rec["setup"] > 0:
        rec["error"] = "no unit of work started"
    return rec


def unit_times(rec, command, speed):
    """Scaled per-unit durations: RK2 steps for evolve, suites for validate."""
    want = "dynamics.step" if command == "evolve" else "validate.suite."
    return [speed.scaled(s[2], s[3]) for s in rec["spans"] if s[0].startswith(want)]


# -- correctness ------------------------------------------------------------------

def _final_and_t(outdir):
    from muskat.grid import load_field
    final = load_field(os.path.join(outdir, "final.bin"))
    with open(os.path.join(outdir, "series.csv")) as fh:
        last = fh.read().strip().splitlines()[-1]
    return final, float(last.split(",")[0])


def check(workload, seed, rec):
    """Fill rec['error'] when the outputs are wrong; returns the reference error."""
    import numpy as np
    outdir = rec["outdir"]
    residuals = [s[4][1] for s in rec["spans"] if s[0] == "resolvent.solve_beta"]
    if residuals and max(residuals) > SOLVER_TOL:
        rec["error"] = f"true residual {max(residuals):.3e} > {SOLVER_TOL}"
        return None
    if workload == "validate":
        with open(os.path.join(outdir, "validate_report.csv")) as fh:
            rows = [line.split(",") for line in fh.read().strip().splitlines()[1:]]
        failed = [f"{r[0]}/{r[1]}" for r in rows if r[4] != "1"]
        if failed or {r[0] for r in rows} != set(SUITES):
            rec["error"] = f"validate checks failed: {failed or 'suites missing'}"
        return None
    final, t = _final_and_t(outdir)
    if not np.all(np.isfinite(final.values)):
        rec["error"] = "non-finite final interface"
        return None
    if workload == "decay-1d":
        g = final.grid
        z = 2 * np.pi * 4 / g.extent
        exact = 1e-3 * math.exp(-abs(z) * t / 2) * np.cos(z * g.axis_coords())
        err = float(np.max(np.abs(final.values - exact)) / np.max(np.abs(exact)))
        if not err <= DECAY_REF_TOL:
            rec["error"] = f"decay ref_err {err:.3e} > {DECAY_REF_TOL}"
        return err
    if seed != DEFAULT_SEED:
        return None
    ref = np.load(REFERENCE)
    err = float(np.max(np.abs(final.values - ref)) / np.max(np.abs(ref)))
    if not err <= REF_REL_TOL:
        rec["error"] = f"contrast ref_err {err:.3e} > {REF_REL_TOL}"
    return err


# -- per-layer metrics ------------------------------------------------------------

def layer_metrics(spans, speed):
    """Per-layer metrics of one traced process; self time = span minus children."""
    dur = [speed.scaled(s[2], s[3]) for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]] += dur[i]
    agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self": 0.0, "extra": 0.0})
    d_in_solve = {}             # solve span index -> apply_D calls it made
    for i, s in enumerate(spans):
        a = agg[s[0]]
        a["calls"] += 1
        a["s"] += dur[i]
        a["self"] += dur[i] - children[i]
        if s[0] in ("potentials.apply_D", "potentials.apply_AA", "grid.save_field"):
            a["extra"] += s[4]
        if s[0] == "potentials.apply_D" and s[1] >= 0 \
                and spans[s[1]][0] == "resolvent.solve_beta":
            d_in_solve[s[1]] = d_in_solve.get(s[1], 0) + 1
    solves = [(i, s[4]) for i, s in enumerate(spans) if s[0] == "resolvent.solve_beta"]
    # a solve that applied no D (a_mu = 0) ran no GMRES iteration
    iters = sum(rep[0] for i, rep in solves if i in d_in_solve)
    d_applies = sum(d_in_solve.values())

    m = {}
    for name, unit, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        a = agg[layer]
        if field == "calls":
            m[name] = a["calls"]
        elif field == "s":
            m[name] = a["s"]
        elif field in ("busy_s", "self_s"):
            m[name] = a["self"]
        elif field == "pair_terms_per_s":
            m[name] = a["extra"] / a["self"] if a["self"] > 0 else 0.0
        elif field == "bytes":
            m[name] = int(a["extra"])
    m["offsets.pv_offsets.build_s"] = agg["offsets.pv_offsets.build"]["s"]
    m["resolvent.gmres_iters"] = iters
    m["resolvent.D_applies_per_solve"] = (d_applies / len(d_in_solve)) if d_in_solve else 0.0
    m["resolvent.useful_apply_ratio"] = iters / d_applies if d_applies else 0.0
    m["resolvent.true_residual_max"] = max((rep[1] for _, rep in solves), default=0.0)
    return m


# -- environment ------------------------------------------------------------------

def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "?"


def environment():
    import numpy as np
    cpu = "?"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        if not os.path.isdir(base):
            break
        caches[f"L{_read(base + '/level')}{_read(base + '/type')[0].lower()}"] = \
            _read(base + "/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "l2": caches.get("L2u", "?"), "l3": caches.get("L3u", "?"),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: CHILD_ENV[k] for k in ("MUSKAT_THREADS", "OPENBLAS_NUM_THREADS")}}


# -- main -------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "muskat", "cli.py")):
        print(f"perfbench: no muskat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    command, physics = WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg = os.path.join(work, "workload.cfg")
    with open(cfg, "w") as fh:
        fh.write(physics(args.seed) + f"seed = {args.seed}\n")

    env = environment()
    # the speed probe and the processes it scales share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with SpeedProbe() as speed:
        records = []
        start = time.monotonic()
        deadline = start + args.seconds

        def launch(mode):
            outdir = os.path.join(work, f"{len(records):03d}-{mode}")
            rec = run_child(mode, [command, cfg, "--output", outdir], outdir,
                            start + RUN_LIMIT_S - time.monotonic())
            records.append(rec)
            return rec

        # the first process of a batch pays cold caches; it is not measured.  The
        # host's speed drifts over tens of seconds, so set-up probes follow every
        # workload process as well as open and close the run.
        warmup = launch("setup")
        probes = [launch("setup") for _ in range(SETUP_PROBES // 2)]
        probe_s = max(r["wall"] for r in probes)
        cycle = ("run", "trace") if args.trace else ("run",)
        runs = []
        while True:
            rec = launch(cycle[len(runs) % len(cycle)])
            if rec["error"] is None:
                rec["ref_err"] = check(args.workload, args.seed, rec)
            runs.append(rec)
            probes.append(launch("setup"))
            longest = max(r["wall"] for r in runs)
            top_up = max(0, SETUP_PROBES - len(probes))
            if len(runs) >= len(cycle) and \
                    time.monotonic() + longest + probe_s * (1 + top_up) > deadline:
                break
        while len(probes) < SETUP_PROBES:
            probes.append(launch("setup"))

    traced = [r for r in runs if r["error"] is None and r["mode"] == "trace"]
    per_process = [layer_metrics(r["spans"], speed) for r in traced]
    for r, m in zip(traced[1:], per_process[1:]):
        differ = [name for name in COUNTS if m[name] != per_process[0][name]]
        if differ:
            r["error"] = f"counts differ from the first traced process: {differ}"
    per_process = [m for r, m in zip(traced, per_process) if r["error"] is None]
    good = [r for r in records if r["error"] is None]
    failed = [r for r in records if r["error"] is not None]
    plain = [r for r in good if r["mode"] == "run"]
    traced = [r for r in good if r["mode"] == "trace"]
    for r in good:
        r["wall_s"] = speed.scaled(r["start"], r["start"] + r["wall"])
        r["setup_s"] = speed.scaled(r["start"], r["start"] + r["setup"])
    env["speed_probe_s"] = {"median": statistics.median(c for _, c in speed.samples),
                            "reference": PROBE_REF_S}
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} processes "
          f"({len(records) - len(runs)} set-up probes, the first a discarded warm-up)")
    for r in failed:
        print(f"FAILED {os.path.basename(r['outdir'])}: {r['error']}")

    metrics = {}
    if plain:
        setup_runs = [r for r in good if r is not warmup and r["mode"] != "trace"]
        setups = [r["setup_s"] for r in setup_runs]
        walls = [r["wall_s"] for r in plain]
        rss = [r["maxrss_mb"] for r in plain]
        # a process's mean over its steps or suites; the host's speed varies
        # from one process to the next, so single units are not independent
        units = [unit_times(r, command, speed) for r in plain]
        unit_means = [sum(u) / len(u) for u in units]
        steps = [t for u in units for t in u]
        unit_name = "RK2 step" if command == "evolve" else "validate suite"
        print(f"wall_s       [s]     {describe(walls, 's')}")
        print(f"step_s       [s]     mean per {unit_name} of each process: "
              f"{describe(unit_means, 's')}")
        t = tail(steps)
        print(f"step_s_tail  [s]     "
              + (f"p{t[0]:.1f} {t[1]:.6g} s, n={len(steps)}" if t
                 else f"n/a: {len(steps)} samples, fewer than 11"))
        print(f"setup_s      [s]     {describe(setups, 's')}")
        print(f"peak_rss_mb  [MB]    {describe(rss, 'MB')}")
        print(f"unscaled     [s]     wall median "
              f"{statistics.median(r['wall'] for r in plain):.6g} s, setup median "
              f"{statistics.median(r['setup'] for r in setup_runs):.6g} s")
        refs = [r["ref_err"] for r in plain if r["ref_err"] is not None]
        print(f"ref_err      [rel]   "
              + (f"{max(refs):.6g}" if refs else "n/a (no reference for this workload/seed)"))
        print(f"fail_frac    [ratio] {len(failed) / len(records):.6g} "
              f"({len(failed)} of {len(records)} processes)")
        if not args.trace:
            values = {"wall_s": statistics.median(walls),
                      "step_s": statistics.median(unit_means),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": statistics.median(rss)}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in END_TO_END}
    if args.trace and plain and traced:
        values = {name: (per_process[0][name] if name in COUNTS
                         else statistics.median(m[name] for m in per_process))
                  for name, _, _ in PER_LAYER if name != "trace_overhead_frac"}
        values["trace_overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0)
        for name, unit, _ in PER_LAYER:
            note = " (computed)" if name in COMPUTED else ""
            print(f"{name:42s} [{unit}] {values[name]:.6g}{note}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    ok = not failed and bool(metrics)
    print(json.dumps({"correct": ok, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
