import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muskat.cli import main
from muskat.config import KEYS, ConfigError, build_config, parse_config, parse_kv_text
from muskat.grid import GridSpec, load_field, make_gaussian_bump, save_field


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
    f = load_field(outdir / "final.bin")
    assert f.grid == GridSpec(1, 6.283185307179586, 32)


def test_evolve_rerun_is_bit_identical(tmp_path):
    cfg = write(tmp_path / "c.cfg", MINIMAL + f"output.dir = {tmp_path}/o1\n")
    assert main(["evolve", cfg]) == 0
    cfg2 = write(tmp_path / "c2.cfg", MINIMAL + f"output.dir = {tmp_path}/o2\n")
    assert main(["evolve", cfg2]) == 0
    a = (tmp_path / "o1" / "series.csv").read_bytes()
    b = (tmp_path / "o2" / "series.csv").read_bytes()
    assert a == b
    assert (tmp_path / "o1" / "final.bin").read_bytes() == \
        (tmp_path / "o2" / "final.bin").read_bytes()


def test_config_error_exit_code(tmp_path):
    bad = write(tmp_path / "bad.cfg", "grid.bogus = 1\n")
    assert main(["evolve", bad]) == 2


def test_solver_max_iter_reaches_solver(tmp_path):
    # one GMRES iteration cannot reach 1e-10 on a 2D bump at a_mu = 0.5
    text = """
grid.dim = 2
grid.extent = 6.283185307179586
grid.points = 16
params.lambda = 1.0
params.a_mu = 0.5
initial.kind = gaussian
initial.amplitude = 0.5
initial.width = 0.5
stepper.dt = 0.05
stepper.t_end = 0.05
solver.max_iter = 1
"""
    cfg = write(tmp_path / "c.cfg", text + f"output.dir = {tmp_path}/out\n")
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


def test_symbol_cli(tmp_path):
    out = str(tmp_path / "sym.csv")
    assert main(["symbol", "--A", "0.5,0.0", "--n", "0", "--nu", "1,0",
                 "--ray", "1,1", "--num", "8", "--zmax", "4", "--out", out]) == 0
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


def test_bad_thread_env_is_config_error(tmp_path):
    cfg = write(tmp_path / "c.cfg", MINIMAL + f"output.dir = {tmp_path}/out\n")
    env = dict(os.environ, MUSKAT_THREADS="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "muskat.cli", "evolve", cfg],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "config error: MUSKAT_THREADS" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_thread_env_bit_identity(tmp_path):
    # the determinism contract across MUSKAT_THREADS settings, via subprocesses
    results = {}
    for threads in ("1", "4"):
        outdir = tmp_path / f"t{threads}"
        cfg = write(tmp_path / f"c{threads}.cfg",
                    MINIMAL + f"output.dir = {outdir}\n")
        env = dict(os.environ, MUSKAT_THREADS=threads)
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
    "tol-negative": ({"params.a_mu": "0.5", "solver.tol": "-1"}, []),
    "tol-nan": ({"params.a_mu": "0.5", "solver.tol": "nan"}, []),
    "wide-gaussian": ({"initial.width": "3"}, []),
    "wide-gaussian-2d": ({"grid.dim": "2", "grid.points": "16",
                          "initial.width": "0.8"}, []),
    "mode-beyond-nyquist": ({"initial.kind": "mode", "initial.k": "40"}, []),
    "amplitude-nan": ({"initial.amplitude": "nan"}, []),
    "missing-snapshot": ({}, ["rt-check", "--snapshot", "{tmp}/missing.bin"]),
    "missing-probes": ({}, ["field", "--probes", "{tmp}/missing.csv"]),
    "probe-not-a-number": ({}, ["field", "--probes", "{tmp}/probes.csv"]),
    "probe-within-half-h": ({}, ["field", "--probes", "{tmp}/near.csv"]),
    "symbol-not-a-number": (None, ["symbol", "--A", "0.5,x", "--nu", "1,0",
                                   "--ray", "1,1"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_is_config_error(case, tmp_path, capsys):
    keys, tail = BAD_INPUT[case]
    write(tmp_path / "probes.csv", "x0,y\n1.0,abc\n")
    write(tmp_path / "near.csv", "x0,y\n3.1,0.2\n")  # the bump is 0.199 at x = 3.1
    tail = [a.format(tmp=tmp_path) for a in tail]
    if keys is None:
        argv = tail
    else:
        cfg = write(tmp_path / "c.cfg", config_text({"output.dir": tmp_path / "out", **keys}))
        argv = [tail[0] if tail else "evolve", cfg] + tail[1:]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err


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
