"""Guards against library surface that nothing in the package uses, and against output
written, the lattice kernel summed, the exact Riesz core corrected, the split's cost
model built, the relaxation ladder or the byte cap read or a split tolerance passed, from
more than one place."""

import ast
import inspect
import re
from pathlib import Path

import muskat
from muskat import potentials

SRC = Path(__file__).resolve().parents[1] / "src" / "muskat"


def test_every_public_name_has_a_caller_in_the_package():
    # a caller is a word-boundary reference outside the definition and __init__.py
    texts = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    uncalled = []
    for name, text in texts.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            others = [t for n, t in texts.items() if n != name] + [rest]
            if not any(re.search(rf"\b{node.name}\b", t) for t in others):
                uncalled.append(f"{name}:{node.name}")
    assert uncalled == []


def test_every_exported_name_is_bound():
    assert [name for name in muskat.__all__ if not hasattr(muskat, name)] == []


# main(argv) is the entry point: the console script calls it with no arguments
# and tests pass argv, so no call inside the package ever sets it.
DEFAULT_EXEMPT = {("cli.py", "main", "argv")}


def _defaulted(fn, method):
    """(position or None, name) of each defaulted parameter; self/cls dropped for methods."""
    a = fn.args
    pos = a.posonlyargs + a.args
    if method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list):
        pos = pos[1:]
    out = [(i, p.arg) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    return out + [(None, k.arg) for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def test_every_defaulted_parameter_is_passed_in_the_package():
    # a parameter that no call inside the package sets is a constant in disguise;
    # module-level functions count whether public or private, methods only when
    # public or __init__; calls match by name, and a class-name call counts for
    # its __init__
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((mod, node.name, node.name, node, False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                            item.name == "__init__" or not item.name.startswith("_")):
                        callee = node.name if item.name == "__init__" else item.name
                        defs.append((mod, f"{node.name}.{item.name}", callee, item, True))
    calls = {}
    for tree in trees.values():
        for c in ast.walk(tree):
            if isinstance(c, ast.Call):
                name = getattr(c.func, "id", None) or getattr(c.func, "attr", None)
                calls.setdefault(name, []).append(c)

    def passed(c, i, arg):
        if any(isinstance(x, ast.Starred) for x in c.args):
            return True
        if any(k.arg is None for k in c.keywords):  # **kwargs
            return True
        return (i is not None and len(c.args) > i) or any(k.arg == arg for k in c.keywords)

    unset = [f"{mod}:{qual}({arg})"
             for mod, qual, callee, fn, method in defs
             for i, arg in _defaulted(fn, method)
             if (mod, qual, arg) not in DEFAULT_EXEMPT
             and not any(passed(c, i, arg) for c in calls.get(callee, []))]
    assert unset == []


# (module, top-level function) of the one place each kind of output is written
OUTPUT_WRITERS = {
    "csv.writer": {("cli.py", "_write_csv")},
    "open for writing": {("cli.py", "_writing"), ("grid.py", "save_field")},
}


def _output_call(call):
    """'csv.writer', 'open for writing' (a mode that is not a read-only literal) or None."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "writer" \
            and getattr(func.value, "id", None) == "csv":
        return "csv.writer"
    if getattr(func, "id", None) != "open":
        return None
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None or isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value):
        return None
    return "open for writing"


def test_outputs_are_written_in_one_place():
    found = {kind: set() for kind in OUTPUT_WRITERS}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for call in ast.walk(node):
                kind = isinstance(call, ast.Call) and _output_call(call)
                if kind:
                    found[kind].add((path.name, getattr(node, "name", "<module>")))
    assert found == OUTPUT_WRITERS


def _callers(name):
    """(module, top-level function) of every call to ``name`` in the package."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and name in (
                        getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                    found.add((path.name, getattr(node, "name", "<module>")))
    return found


# (module, top-level function) of the calls to the one lattice kernel loop: the
# interface operators' tables and the B-transforms' profiles
LATTICE_SUM_CALLERS = {("potentials.py", "_interface_sum"), ("kernels.py", "_naked_sum")}


def test_the_lattice_kernel_is_summed_in_one_place_per_family():
    assert _callers("lattice_sum") == LATTICE_SUM_CALLERS


def test_the_exact_riesz_core_is_corrected_in_one_place():
    # the symbol is read only by the one apply, which B and the interface
    # operators' split call for their exact cores
    assert _callers("riesz_core_fix") == {("kernels.py", "core_fix_apply")}
    assert _callers("core_fix_apply") == {("kernels.py", "apply_B"),
                                          ("potentials.py", "_split_sum")}


# the split's cost constants, read only where the cost model is built
COST_CONSTANTS = {"PAIR_NS", "WINDOW_NS", "PRODUCT_NS", "FFT_NS"}


def test_the_split_cost_model_is_built_in_one_place():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and {getattr(t, "id", None)
                                                 for t in node.targets} <= COST_CONSTANTS:
                continue  # the constants' own definitions
            for name in ast.walk(node):
                if (getattr(name, "id", None) or getattr(name, "attr", None)) in COST_CONSTANTS:
                    found.add((path.name, getattr(node, "name", "<module>")))
    assert found == {("potentials.py", "_split_costs")}


def test_the_relaxation_ladder_is_read_in_one_place():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name in ast.walk(node):
                if isinstance(name, ast.Name) and name.id == "RELAXATION_LADDER" \
                        and isinstance(name.ctx, ast.Load):
                    found.add((path.name, getattr(node, "name", "<module>")))
    assert found == {("resolvent.py", "_rung")}


def test_one_byte_cap_sizes_every_work_buffer():
    caps, found = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                caps |= {(path.name, t.id) for t in targets
                         if isinstance(t, ast.Name) and t.id.endswith("_BYTES")}
            for name in ast.walk(node):
                if isinstance(name, ast.Name) and name.id == "BLOCK_BYTES" \
                        and isinstance(name.ctx, ast.Load) \
                        or isinstance(name, ast.Attribute) and name.attr == "BLOCK_BYTES":
                    found.add((path.name, getattr(node, "name", "<module>")))
    assert caps == {("offsets.py", "BLOCK_BYTES")}
    assert found == {("offsets.py", "block_rows")}


def test_only_the_density_solve_relaxes_a_split():
    # split_tol is keyword-only all the way down; the density solve's apply of D
    # is the one call that sets it, the rest of the chain passes it on, and D*,
    # A and the velocity operator never see it; d_split only reads the split D
    # took at a tolerance, for the solve's report
    for fn in (potentials.apply_D, potentials._apply, potentials.InterfaceGeometry.split):
        assert inspect.signature(fn).parameters["split_tol"].kind is inspect.Parameter.KEYWORD_ONLY
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and any(k.arg == "split_tol"
                                                      for k in call.keywords):
                    callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                    found.add((path.name, getattr(node, "name", "<module>"), callee))
    assert found == {("resolvent.py", "solve_beta", "apply_D"),
                     ("potentials.py", "apply_D", "_apply"),
                     ("potentials.py", "_apply", "split"),
                     ("potentials.py", "d_split", "split")}
