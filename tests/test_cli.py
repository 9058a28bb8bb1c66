import csv
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muskat.cli import main
from muskat.config import (KEYS, ConfigError, build_config, initial_field, parse_config,
                           parse_kv_text)
from muskat.grid import GridSpec, load_field, make_gaussian_bump, save_field
from muskat.potentials import InterfaceGeometry, d_split, velocity_split


DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "decay_demo.cfg")


def write(path, text):
    path.write_text(text)
    return str(path)


MINIMAL = """
grid.dim = 1
grid.extent = 6.283185307179586
grid.points = 32
params.lambda = 1.0
params.a_mu = 0.0
initial.kind = gaussian
initial.amplitude = 0.2
initial.width = 0.5
stepper.dt = 0.05
stepper.t_end = 0.2
"""


def test_parse_minimal_defaults(tmp_path):
    cfg = parse_config(write(tmp_path / "c.cfg", MINIMAL))
    assert cfg.grid.points == 32
    assert cfg.stepper.scheme == "rk2"
    assert cfg.solver_tol == 1e-10
    assert cfg.echo["stepper.cfl"] == 0.5
    assert cfg.echo["seed"] == 0


def test_initial_kinds_build_their_fields():
    # each initial.kind reaches its constructor; an unknown kind is a config error
    base = "grid.points = 32\ninitial.kind = "
    assert np.all(initial_field(build_config(parse_kv_text(base + "zero"))).values == 0)
    cfg = build_config(parse_kv_text(base + "mode\ninitial.amplitude = 1\ninitial.k = 1"))
    np.testing.assert_allclose(initial_field(cfg).values, np.cos(cfg.grid.axis_coords()),
                               atol=1e-14)
    with pytest.raises(ConfigError, match="initial.kind must be one of"):
        build_config(parse_kv_text(base + "sawtooth"))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_kv_text("grid.dims = 2")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("seed = 1\nseed = 2")


def test_a_mu_out_of_range():
    kv = parse_kv_text("params.a_mu = 1.2")
    with pytest.raises(ConfigError, match="a_mu must lie in"):
        build_config(kv)


def test_raw_params_arithmetic():
    kv = parse_kv_text("\n".join([
        "params.porosity = 1.0", "params.gravity = 1.0",
        "params.mu_plus = 1.0", "params.mu_minus = 1.0",
        "params.rho_plus = 1.0", "params.rho_minus = 2.0",
    ]))
    cfg = build_config(kv)
    assert cfg.params.lam == 1.0
    assert cfg.params.a_mu == 0.0


def test_raw_and_reduced_conflict():
    kv = parse_kv_text("params.lambda = 1.0\nparams.porosity = 1.0")
    with pytest.raises(ConfigError, match="not both"):
        build_config(kv)


def test_evolve_cli_and_outputs(tmp_path):
    cfg = write(tmp_path / "c.cfg", MINIMAL + f"output.dir = {tmp_path}/out\n")
    assert main(["evolve", cfg]) == 0
    outdir = tmp_path / "out"
    assert (outdir / "series.csv").exists()
    assert (outdir / "final.bin").exists()
    assert (outdir / "manifest.json").exists()
    lines = (outdir / "series.csv").read_text().strip().splitlines()
    assert lines[0] == "t,min_rt_margin,volume,sobolev_norm_s,beta_iters,dt"
    assert len(lines) == 6  # header + t=0 + 4 steps
    # at a_mu = 0 no GMRES runs: every solve reports 0 iterations
    assert all(line.split(",")[4] == "0" for line in lines[1:])
    solves = json.loads((outdir / "manifest.json").read_text())["density_solves"]
    assert solves["iterations_per_solve"] == [0] * 9 and solves["max_residual"] == 0.0
    f = load_field(outdir / "final.bin")
    assert f.grid == GridSpec(1, 6.283185307179586, 32)


# a 2D M=16 bump at a_mu = 0.5: every step solves for the density with GMRES
GMRES_2D = """
grid.dim = 2
grid.extent = 6.283185307179586
grid.points = 16
params.lambda = 1.0
params.a_mu = 0.5
initial.kind = gaussian
initial.amplitude = 0.5
initial.width = 0.5
stepper.dt = 0.05
stepper.t_end = 0.1
"""


@pytest.mark.parametrize("text", [MINIMAL, GMRES_2D], ids=["1d", "2d-gmres"])
def test_evolve_rerun_is_bit_identical(text, tmp_path):
    cfg = write(tmp_path / "c.cfg", text + f"output.dir = {tmp_path}/o1\n")
    assert main(["evolve", cfg]) == 0
    cfg2 = write(tmp_path / "c2.cfg", text + f"output.dir = {tmp_path}/o2\n")
    assert main(["evolve", cfg2]) == 0
    a = (tmp_path / "o1" / "series.csv").read_bytes()
    b = (tmp_path / "o2" / "series.csv").read_bytes()
    assert a == b
    assert (tmp_path / "o1" / "final.bin").read_bytes() == \
        (tmp_path / "o2" / "final.bin").read_bytes()


def test_evolve_manifest_counts_the_applies_of_D(tmp_path):
    # a cold first solve skips its first residual's apply, every later solve is
    # warm: D is applied iterations + 2 times per solve, less one
    text = GMRES_2D.replace("grid.points = 16", "grid.points = 32")
    cfg = write(tmp_path / "c.cfg", text + f"output.dir = {tmp_path}/out\n")
    assert main(["evolve", cfg]) == 0
    solves = json.loads((tmp_path / "out" / "manifest.json").read_text())["density_solves"]
    assert solves["count"] == 5  # the initial state and two RK2 stages per step
    per_solve = solves["iterations_per_solve"]
    assert len(per_solve) == 5 and sum(per_solve) == solves["iterations"]
    assert all(n > 0 for n in per_solve)
    assert 0.0 < solves["max_residual"] <= 1e-10
    applies = solves["d_applies"]
    assert sum(applies.values()) == solves["iterations"] + 2 * solves["count"] - 1
    assert applies["1e-13"] >= 2 * solves["count"] - 1 and len(applies) > 1, applies


@pytest.mark.parametrize("text, stages", [(MINIMAL, 9), (GMRES_2D, 5)], ids=["1d", "2d-gmres"])
def test_evolve_manifest_counts_the_velocity_operators_picks(text, stages, tmp_path):
    # one velocity-operator apply per stage, as many as density solves, keyed by
    # the (R, K) each stage's geometry took; the initial interface's is among them
    cfg = write(tmp_path / "c.cfg", text + f"output.dir = {tmp_path}/out\n")
    assert main(["evolve", cfg]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    picks = manifest["velocity_splits"]
    assert sum(picks.values()) == manifest["density_solves"]["count"] == stages
    first = InterfaceGeometry(initial_field(parse_config(cfg)))
    assert "%d,%d" % velocity_split(first) in picks


def test_evolve_manifest_counts_the_demo_decays_velocity_applies(tmp_path):
    # 66 RK2 steps of the demo decay, all on the small-slope split (0, 1)
    assert main(["evolve", DEMO, "--output", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["velocity_splits"] == {"0,1": 133}


def test_evolve_manifest_names_the_splits_of_D(tmp_path):
    # per split tolerance, D's applies per (R, K) it took: they add up to the applies
    # at that tolerance, and the first solve's exact split is the initial interface's
    text = GMRES_2D.replace("grid.points = 16", "grid.points = 32")
    cfg = write(tmp_path / "c.cfg", text + f"output.dir = {tmp_path}/out\n")
    assert main(["evolve", cfg]) == 0
    solves = json.loads((tmp_path / "out" / "manifest.json").read_text())["density_solves"]
    applies, splits = solves["d_applies"], solves["d_splits"]
    assert set(splits) == set(applies)
    for tol, picks in splits.items():
        assert sum(picks.values()) == applies[tol], (tol, picks)
        assert all(len(pick.split(",")) == 2 for pick in picks)
    first = InterfaceGeometry(initial_field(parse_config(cfg)))
    assert "%d,%d" % d_split(first) in splits["1e-13"]
    assert any(pick.split(",")[1] != "0" for picks in splits.values() for pick in picks)


def test_config_error_exit_code(tmp_path):
    bad = write(tmp_path / "bad.cfg", "grid.bogus = 1\n")
    assert main(["evolve", bad]) == 2


def test_solver_max_iter_reaches_solver(tmp_path):
    # one GMRES iteration cannot reach 1e-10 on the first step's solve
    cfg = write(tmp_path / "c.cfg",
                GMRES_2D + f"solver.max_iter = 1\noutput.dir = {tmp_path}/out\n")
    assert main(["evolve", cfg]) == 3


def test_rt_floor_exit_code(tmp_path):
    # a_mu close to 1 with a steep bump: margin dips below a high floor
    text = """
grid.dim = 1
grid.extent = 6.283185307179586
grid.points = 64
params.lambda = 1.0
params.a_mu = 0.9
initial.kind = gaussian
initial.amplitude = 1.4
initial.width = 0.45
stepper.dt = 0.01
stepper.t_end = 0.05
stepper.rt_floor = 0.9
"""
    cfg = write(tmp_path / "c.cfg", text + f"output.dir = {tmp_path}/out\n")
    code = main(["evolve", cfg])
    assert code == 4
    assert (tmp_path / "out" / "final.bin").exists()


def test_validate_cli(tmp_path):
    cfg = write(tmp_path / "c.cfg", MINIMAL + f"output.dir = {tmp_path}/v\n")
    assert main(["validate", "--suite", "difference,symbols", cfg]) == 0
    report = (tmp_path / "v" / "validate_report.csv").read_text()
    assert report.startswith("suite,check,value,threshold,passed")
    rows = list(csv.DictReader(report.splitlines()))
    assert {row["suite"] for row in rows} == {"difference", "symbols"}
    for row in rows:
        float(row["value"]), float(row["threshold"])  # a ValueError for anything but a number
    assert main(["validate", "--suite", "nonsense", cfg]) == 2


def test_validate_report_quotes_notes_with_commas(tmp_path):
    # the resolvent suite's note lists its Neumann remainders, commas and all
    cfg = write(tmp_path / "c.cfg", MINIMAL + f"output.dir = {tmp_path}/v\n")
    assert main(["validate", "--suite", "resolvent", cfg]) == 0
    with open(tmp_path / "v" / "validate_report.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["suite", "check", "value", "threshold", "passed", "note"]
    assert rows and all(list(row) == reader.fieldnames for row in rows)
    assert any("," in row["note"] for row in rows)


def test_symbol_cli(tmp_path):
    out = str(tmp_path / "sym.csv")
    assert main(["symbol", "--A", "0.5,0.0", "--n", "0", "--nu", "1,0",
                 "--ray", "1,1", "--num", "8", "--zmax", "4", "--out", out]) == 0
    assert b"\r" not in open(out, "rb").read()
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "z0,z1,re_symbol,im_symbol"
    assert len(lines) == 9
    # purely imaginary symbol
    assert all(abs(float(l.split(",")[2])) < 1e-14 for l in lines[1:])


def test_symbol_cli_parity_rejected(tmp_path):
    assert main(["symbol", "--A", "0.5", "--n", "1", "--nu", "1",
                 "--ray", "1"]) == 2


def test_field_cli(tmp_path):
    cfg = write(tmp_path / "c.cfg", MINIMAL)
    probes = write(tmp_path / "p.csv", "x0,y\n3.1,2.0\n3.1,-2.0\n")
    out = str(tmp_path / "f.csv")
    assert main(["field", cfg, "--probes", probes, "--out", out]) == 0
    assert b"\r" not in open(out, "rb").read()
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "probe,v0,v1,q,side"
    assert len(lines) == 3
    assert lines[1].split(",")[-1] == "1"
    assert lines[2].split(",")[-1] == "-1"


def test_rt_check_cli(tmp_path):
    g = GridSpec(1, 6.283185307179586, 32)
    snap = tmp_path / "f.bin"
    save_field(snap, make_gaussian_bump(g, 0.2, [3.14], 0.5))
    cfg = write(tmp_path / "c.cfg", MINIMAL)
    assert main(["rt-check", cfg, "--snapshot", str(snap)]) == 0


def test_missing_snapshot_is_config_error(tmp_path):
    text = MINIMAL.replace("initial.kind = gaussian",
                           "initial.kind = snapshot\ninitial.path = missing.bin")
    text = "\n".join(l for l in text.splitlines()
                     if not l.startswith(("initial.amplitude", "initial.width")))
    cfg = write(tmp_path / "c.cfg", text)
    assert main(["evolve", cfg]) == 2


def test_thread_env_bit_identity(tmp_path):
    # the determinism contract across thread settings, via subprocesses: numpy's
    # BLAS reads OPENBLAS_NUM_THREADS and OMP_NUM_THREADS at import
    results = {}
    for threads in ("1", "4"):
        outdir = tmp_path / f"t{threads}"
        cfg = write(tmp_path / f"c{threads}.cfg",
                    MINIMAL + f"output.dir = {outdir}\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "muskat.cli", "evolve", cfg],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        results[threads] = ((outdir / "series.csv").read_bytes(),
                            (outdir / "final.bin").read_bytes())
    assert results["1"] == results["4"]


def config_text(keys):
    """A 1D M=32 gaussian run with ``keys`` set on top."""
    base = {"grid.dim": "1", "grid.points": "32", "initial.kind": "gaussian",
            "initial.amplitude": "0.2", "stepper.dt": "0.05", "stepper.t_end": "0.1"}
    return "".join(f"{k} = {v}\n" for k, v in {**base, **keys}.items())


# (config keys, command line after the config path; None: no config argument)
BAD_INPUT = {
    "cfl-zero": ({"stepper.dt": "auto", "stepper.cfl": "0"}, []),
    "cfl-negative": ({"stepper.dt": "auto", "stepper.cfl": "-1"}, []),
    "dt-nan": ({"stepper.dt": "nan"}, []),
    "t-end-inf": ({"stepper.t_end": "inf"}, []),
    "stride-negative": ({"stepper.snapshot_stride": "-1"}, []),
    "sobolev-negative": ({"monitor.sobolev_s": "-1"}, []),
    "sobolev-weight-overflows": ({"monitor.sobolev_s": "1e6"}, []),
    "step-count-overflows": ({"stepper.dt": "1e-320", "stepper.t_end": "1e10"}, []),
    "step-count-beyond-ceiling": ({"stepper.dt": "1e-300"}, []),
    "extent-top-frequency-overflows": ({"grid.extent": "1e-300"}, []),
    "extent-top-frequency-inf": ({"grid.extent": "1e-310", "initial.kind": "mode"}, []),
    # the longest offset 7 h, squared in 1D and cubed in 2D, overflows
    "extent-offset-overflows-1d": ({"grid.points": "16", "grid.extent": "4e154"}, []),
    "extent-offset-overflows-2d": ({"grid.dim": "2", "grid.points": "16",
                                    "grid.extent": "1.2e103"}, []),
    "extent-offset-overflows-flat": ({"grid.points": "16", "grid.extent": "1e200",
                                      "initial.kind": "zero"}, []),
    # 8e15 bytes per field, which numpy refuses before allocating anything
    "grid-beyond-memory": ({"grid.dim": "3", "grid.points": "100000"}, []),
    "tol-negative": ({"params.a_mu": "0.5", "solver.tol": "-1"}, []),
    "tol-nan": ({"params.a_mu": "0.5", "solver.tol": "nan"}, []),
    "wide-gaussian": ({"initial.width": "3"}, []),
    "wide-gaussian-2d": ({"grid.dim": "2", "grid.points": "16",
                          "initial.width": "0.8"}, []),
    "mode-beyond-nyquist": ({"initial.kind": "mode", "initial.k": "40"}, []),
    "amplitude-nan": ({"initial.amplitude": "nan"}, []),
    "missing-snapshot": ({}, ["rt-check", "--snapshot", "{tmp}/missing.bin"]),
    "snapshot-header-beyond-file": ({}, ["rt-check", "--snapshot", "{tmp}/huge.bin"]),
    "snapshot-trailing-bytes": ({}, ["rt-check", "--snapshot", "{tmp}/trailing.bin"]),
    "snapshot-fractional-header": ({}, ["rt-check", "--snapshot", "{tmp}/fractional.bin"]),
    "snapshot-on-another-grid": ({"grid.dim": "2", "grid.points": "8"},
                                 ["rt-check", "--snapshot", "{tmp}/other.bin"]),
    "missing-probes": ({}, ["field", "--probes", "{tmp}/missing.csv"]),
    "probe-not-a-number": ({}, ["field", "--probes", "{tmp}/probes.csv"]),
    "probe-within-half-h": ({}, ["field", "--probes", "{tmp}/near.csv"]),
    "symbol-not-a-number": (None, ["symbol", "--A", "0.5,x", "--nu", "1,0",
                                   "--ray", "1,1"]),
    "symbol-no-samples": (None, ["symbol", "--A", "0.5,0", "--nu", "1,0",
                                 "--ray", "1,1", "--num", "0"]),
    "symbol-out-unwritable": (None, ["symbol", "--A", "0", "--nu", "1", "--ray", "1",
                                     "--out", "{tmp}/missing/s.csv"]),
    "field-out-unwritable": ({}, ["field", "--probes", "{tmp}/far.csv",
                                  "--out", "{tmp}/missing/f.csv"]),
}


# cases whose stray numpy warnings would reach stderr only outside pytest's capture
SUBPROCESS_CASES = {"extent-top-frequency-inf"}


def snapshot_bytes(dim, points, n_values):
    """A snapshot header (magic, version, N, M, L) followed by n_values zeros."""
    return struct.pack("<4sIddd", b"MUSK", 1, dim, points, 2 * np.pi) + bytes(8 * n_values)


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_is_config_error(case, tmp_path, capsys):
    keys, tail = BAD_INPUT[case]
    write(tmp_path / "probes.csv", "x0,y\n1.0,abc\n")
    write(tmp_path / "near.csv", "x0,y\n3.1,0.2\n")  # the bump is 0.199 at x = 3.1
    write(tmp_path / "far.csv", "x0,y\n3.1,2.0\n")
    (tmp_path / "huge.bin").write_bytes(snapshot_bytes(1, 2**34, 64))  # 128 GiB of data
    (tmp_path / "trailing.bin").write_bytes(snapshot_bytes(1, 64, 64 + 100))
    (tmp_path / "fractional.bin").write_bytes(snapshot_bytes(1.7, 64.9, 64))
    (tmp_path / "other.bin").write_bytes(snapshot_bytes(1, 16, 16))
    tail = [a.format(tmp=tmp_path) for a in tail]
    if keys is None:
        argv = tail
    else:
        cfg = write(tmp_path / "c.cfg", config_text({"output.dir": tmp_path / "out", **keys}))
        argv = [tail[0] if tail else "evolve", cfg] + tail[1:]
    if case in SUBPROCESS_CASES:
        proc = subprocess.run([sys.executable, "-m", "muskat.cli", *map(str, argv)],
                              capture_output=True, text=True, timeout=60)
        code, err = proc.returncode, proc.stderr.strip().splitlines()
    else:
        code, err = main(argv), capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("config error: "), err


def test_symbol_sample_count_is_bounded(tmp_path):
    # 10^9 samples would take weeks; the count is refused before any is taken
    proc = subprocess.run([sys.executable, "-m", "muskat.cli", "symbol", "--A", "0.5,0",
                           "--nu", "1,0", "--ray", "1,1", "--num", "1000000000",
                           "--out", str(tmp_path / "s.csv")],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --num must lie in [1, "), err
    assert not (tmp_path / "s.csv").exists()


def test_bad_input_has_no_traceback(tmp_path):
    cfg = write(tmp_path / "c.cfg", config_text({"stepper.dt": "auto", "stepper.cfl": "0"}))
    proc = subprocess.run([sys.executable, "-m", "muskat.cli", "evolve", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: stepper.cfl must be finite and > 0")
    assert "Traceback" not in proc.stderr


def test_non_finite_interface_exit_code(tmp_path):
    # Lambda < 0 is the unstable orientation: the bump grows until the velocity
    # operator overflows, near t = 3.4
    cfg = write(tmp_path / "c.cfg", config_text({
        "params.lambda": "-1", "params.a_mu": "0.3", "initial.amplitude": "0.5",
        "stepper.t_end": "30", "output.dir": tmp_path / "out"}))
    assert main(["evolve", cfg]) == 6
    out = tmp_path / "out"
    final = load_field(out / "final.bin")
    assert np.all(np.isfinite(final.values))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["halted"] == "non-finite"
    rows = (out / "series.csv").read_text().strip().splitlines()
    assert len(rows) - 2 == manifest["steps"] < 600


def test_overflowing_interface_in_field_exit_code(tmp_path):
    cfg = write(tmp_path / "c.cfg", config_text({"initial.kind": "mode",
                                                 "initial.amplitude": "1e200"}))
    probes = write(tmp_path / "p.csv", "x0,y\n1.0,5.0\n")
    assert main(["field", cfg, "--probes", probes, "--out", str(tmp_path / "f.csv")]) == 6


# key: (valid values, invalid values); 1D, at most 16 points, short runs
FUZZ_VALUES = {
    "grid.dim": (["1"], ["0", "4", "1.5"]),
    "grid.extent": (["6.283185307179586", "3"], ["0", "-1", "nan", "inf"]),
    "grid.points": (["8", "12", "16"], ["7", "x"]),
    "params.lambda": (["1", "-1", "2.5"], ["0", "nan"]),
    "params.a_mu": (["0", "0.5", "-0.9"], ["1", "nan"]),
    "initial.kind": (["zero", "mode", "gaussian"], ["snapshot", "bogus"]),
    "initial.amplitude": (["0.1", "-0.3", "1e200"], ["nan", "inf"]),
    "initial.k": (["1", "3"], ["9", "1,1", "x"]),
    "initial.center": (["3"], ["3,3", "nan", "x"]),
    "initial.width": (["0.5", "0.3"], ["3", "0", "nan"]),
    "initial.path": ([], ["missing.bin"]),
    "stepper.scheme": (["rk2", "euler"], ["leapfrog"]),
    "stepper.dt": (["auto", "0.05", "0.5"], ["0", "-1", "nan"]),
    "stepper.cfl": (["0.5", "2"], ["0", "-1", "nan"]),
    "stepper.t_end": (["0.1", "0.2"], ["0", "-1", "inf"]),
    "stepper.snapshot_stride": (["0", "1", "2"], ["-1", "x"]),
    "stepper.rt_floor": (["0.05", "0.5", "0.99"], ["0", "1", "nan"]),
    "solver.tol": (["1e-10", "1e-3"], ["0", "-1", "nan"]),
    "solver.max_iter": (["200", "1"], ["0", "x"]),
    "monitor.sobolev_s": (["2", "0"], ["-1", "nan", "1e6"]),
    "seed": (["0", "7"], ["-1", "x"]),
}


def test_fuzz_values_cover_the_key_table():
    assert set(FUZZ_VALUES) <= set(KEYS)


@st.composite
def fuzz_keys(draw):
    """Valid values for some keys, and an invalid one for at most one key."""
    keys = draw(st.fixed_dictionaries({}, optional={
        k: st.sampled_from(valid) for k, (valid, _) in FUZZ_VALUES.items() if valid}))
    bad = draw(st.none() | st.sampled_from(sorted(FUZZ_VALUES)))
    if bad is not None:
        keys[bad] = draw(st.sampled_from(FUZZ_VALUES[bad][1]))
    return keys


@settings(max_examples=100, deadline=None)
@given(keys=fuzz_keys())
def test_config_fuzz_ends_with_a_documented_exit_code(keys, tmp_path_factory):
    keys = {"grid.points": "16", "stepper.t_end": "0.1", **keys}
    tmp = tmp_path_factory.mktemp("fuzz")
    text = "".join(f"{k} = {v}\n" for k, v in keys.items())
    cfg = write(tmp / "c.cfg", text + f"output.dir = {tmp}/out\n")
    assert main(["evolve", cfg]) in (0, 2, 3, 4, 5, 6)


def test_a_huge_extent_builds_the_bump_without_a_warning(tmp_path):
    # at L = 1e300 the squares of the bump's displacements and of L/2 would
    # overflow; the bump is built warning-free (pytest turns a RuntimeWarning
    # into an error), and the run is refused as a config error, warning-free,
    # before the lattice's powers overflow
    bump = make_gaussian_bump(GridSpec(2, 1e300, 16), 0.2, [5e299] * 2, 0.5)
    assert np.all(np.isfinite(bump.values))
    cfg = write(tmp_path / "c.cfg", config_text({
        "grid.dim": "2", "grid.points": "16", "grid.extent": "1e300",
        "output.dir": tmp_path / "out"}))
    proc = subprocess.run([sys.executable, "-m", "muskat.cli", "evolve", cfg],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: grid.extent = 1e+300"), err
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("dim, extent", [("1", "3e154"), ("2", "9e102")])
def test_the_largest_extents_below_the_offset_overflow_run(dim, extent, tmp_path):
    # the same bump at any scale (amplitude L/100, width L/40): just below the
    # extent whose longest offset overflows at the power N+1, the run ends well
    L = float(extent)
    cfg = write(tmp_path / "c.cfg", config_text({
        "grid.dim": dim, "grid.points": "16", "grid.extent": extent,
        "initial.amplitude": repr(L / 100), "initial.width": repr(L / 40),
        "output.dir": tmp_path / "out"}))
    assert main(["evolve", cfg]) == 0
