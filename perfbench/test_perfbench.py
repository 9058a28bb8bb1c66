"""Checks of the benchmark itself (about a minute and a half):

    python3 -m pytest perfbench

- its metric lists match BENCHMARK.json, whose workloads it defines;
- traced call counts repeat exactly between two processes of one workload;
- a timed interval is scaled by the speed probe's samples taken during it;
- it exits non-zero, printing no result, where the package sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SELFTEST = os.path.join(run.WORK, "selftest")


@pytest.fixture
def workdir():
    shutil.rmtree(SELFTEST, ignore_errors=True)
    os.makedirs(SELFTEST)
    yield SELFTEST
    shutil.rmtree(SELFTEST, ignore_errors=True)


def test_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    percentile, value = run.tail(list(range(100)))
    assert sum(v > value for v in range(100)) == 10
    assert percentile == 90.0


def test_speed_scale_uses_samples_during_the_process():
    probe = run.SpeedProbe()
    probe.samples = [(0.0, 2e-4), (1.0, 4e-4), (2.0, 6e-4)]
    assert probe.scaled(0.5, 2.5) == pytest.approx(2.0 * run.PROBE_REF_S / 5e-4)
    assert probe.scaled(2.8, 2.9) == pytest.approx(0.1 * run.PROBE_REF_S / 6e-4)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_counts_repeat(workload, workdir):
    command, physics = run.WORKLOADS[workload]
    cfg = os.path.join(workdir, "workload.cfg")
    with open(cfg, "w") as fh:
        fh.write(physics(run.DEFAULT_SEED) + f"seed = {run.DEFAULT_SEED}\n")
    speed = run.SpeedProbe()
    speed.samples = [(0.0, run.PROBE_REF_S)]
    metrics = []
    for i in range(2):
        outdir = os.path.join(workdir, str(i))
        rec = run.run_child("trace", [command, cfg, "--output", outdir], outdir,
                            run.RUN_LIMIT_S)
        assert rec["error"] is None
        metrics.append(run.layer_metrics(rec["spans"], speed))
    assert {n: metrics[0][n] for n in run.COUNTS} == {n: metrics[1][n] for n in run.COUNTS}

    m = metrics[0]
    steps = m["dynamics.step.calls"]
    if workload == "decay-1d":
        assert m["potentials.apply_D.calls"] == 0
        assert m["potentials.apply_AA.calls"] == m["resolvent.solve_beta.calls"] == 2 * steps + 1
    elif workload == "contrast-2d":
        assert m["resolvent.solve_beta.calls"] == 2 * steps + 1
        assert m["potentials.apply_D.calls"] >= m["resolvent.gmres_iters"] > 0
    else:
        assert all(m[f"validate.suite.{s}.s"] > 0 for s in run.SUITES)


def test_refuses_without_sources(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decay-1d",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
