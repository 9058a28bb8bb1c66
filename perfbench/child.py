"""One ``muskat`` command-line process, instrumented from outside the package.

    python3 child.py MODE REPORT -- ARGS...

runs ``muskat.cli.main(ARGS)`` and writes REPORT, a JSON object with the
recorded spans, the exit code and the peak resident memory.  MODE is

- ``setup``: stop at the start of the first unit of work (the first density
  solve of ``evolve``, the first suite of ``validate``) and report only that;
- ``run``: record spans around the units of work only (each density solve,
  each RK2 step, each validate suite), a few hundred calls at most;
- ``trace``: also record a span around every call into the layers in LAYERS.

A layer is wrapped in every ``muskat`` module that binds it by name, so calls
made through ``from .x import f`` bindings are seen, not only calls through
the defining module.  Spans are ``[name, parent, start, end, extra]`` with
``time.monotonic()`` times, which the parent process shares.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# (span name, defining module, attribute); every module binding the same
# object under that attribute name gets the same wrapper.
UNITS = [
    ("resolvent.solve_beta", "muskat.resolvent", "solve_beta"),
    ("dynamics.step", "muskat.dynamics", "step"),
]
LAYERS = UNITS + [
    ("potentials.apply_D", "muskat.potentials", "apply_D"),
    ("potentials.apply_D_star", "muskat.potentials", "apply_D_star"),
    ("potentials.apply_A", "muskat.potentials", "apply_A"),
    ("potentials.apply_AA", "muskat.potentials", "apply_AA"),
    ("potentials.InterfaceGeometry", "muskat.potentials", "InterfaceGeometry"),
    ("kernels.apply_B", "muskat.kernels", "apply_B"),
    ("kernels.core_fix_apply", "muskat.kernels", "core_fix_apply"),
    ("offsets.pv_offsets.build", "muskat.offsets", "PVOffsets"),
    ("multipliers.riesz_core_symbol_grid", "muskat.multipliers", "riesz_core_symbol_grid"),
    ("multipliers.symbol_D", "muskat.multipliers", "symbol_D"),
    ("config.parse_config", "muskat.config", "parse_config"),
    ("fields.eval_velocity", "muskat.fields", "eval_velocity"),
    ("fields.jump_check", "muskat.fields", "jump_check"),
    ("grid.save_field", "muskat.grid", "save_field"),
    ("grid.spectral_derivative", "muskat.grid", "spectral_derivative"),
]
# spans whose start ends set-up
FIRST_WORK = ("resolvent.solve_beta", "validate.suite.")


def _pair_terms(args, out):
    from muskat.offsets import pv_offsets
    grid = args[0].grid
    return pv_offsets(grid).count * grid.size


def _solve_report(args, out):
    report = out[1]
    return [report.iterations, report.residual]


def _file_bytes(args, out):
    return os.path.getsize(args[0])


EXTRAS = {
    "potentials.apply_D": _pair_terms,
    "potentials.apply_AA": _pair_terms,
    "resolvent.solve_beta": _solve_report,
    "grid.save_field": _file_bytes,
}


class Tracer:
    """In-memory span recorder; nesting follows the call stack."""

    def __init__(self, report_path, stop_at_first_work=False):
        self.report_path = report_path
        self.stop_at_first_work = stop_at_first_work
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)

        def traced(*args, **kwargs):
            if self.stop_at_first_work and name.startswith(FIRST_WORK):
                self.write(None)
                os._exit(0)
            span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                self.stack.pop()
            if extra is not None:
                span[4] = extra(args, out)
            return out

        return traced

    def write(self, exit_code):
        report = {"spans": self.spans, "exit": exit_code, "end": time.monotonic(),
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        with open(self.report_path, "w") as fh:
            json.dump(report, fh)


def install(tracer, full):
    """Wrap the units of work (all layers when ``full``) wherever muskat binds them."""
    layers = LAYERS if full else UNITS
    modules = [m for n, m in sys.modules.items()
               if (n == "muskat" or n.startswith("muskat.")) and m is not None]
    for name, module, attr in layers:
        original = getattr(sys.modules[module], attr)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
    from muskat import dynamics, validate
    if full:
        compute = dynamics.InterfaceState.compute
        dynamics.InterfaceState.compute = staticmethod(
            tracer.wrap("dynamics.InterfaceState.compute", compute))
    for suite, fn in list(validate.SUITES.items()):
        validate.SUITES[suite] = tracer.wrap(f"validate.suite.{suite}", fn)


def main(argv):
    mode, report_path = argv[0], argv[1]
    if mode not in ("setup", "run", "trace") or argv[2] != "--":
        raise SystemExit("usage: child.py setup|run|trace REPORT -- ARGS...")
    import muskat.cli
    tracer = Tracer(report_path, stop_at_first_work=mode == "setup")
    install(tracer, full=mode == "trace")
    code = muskat.cli.main(argv[3:])
    tracer.write(code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
