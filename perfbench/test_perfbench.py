"""Self-tests of the benchmark: tiny runs of every workload, and checks
that each correctness check rejects a wrong answer.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from workloads import Contaminated, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = list(run.metric_units("end_to_end"))
PER_LAYER = list(run.metric_units("per_layer"))
COUNT_METRICS = [m for m in PER_LAYER
                 if m.endswith((".calls", "row_starts", "iterations", "subsets"))]

TINY = {
    "fit_large": replace(WORKLOADS["fit_large"], samples=(
        Contaminated(300, 3, 0.2, 0.0, (1.0, 2.0, 3.0)),
        Contaminated(300, 3, 0.1, 0.1, (1.0, 2.0, 3.0)))),
    "bootstrap_ci": replace(WORKLOADS["bootstrap_ci"], m=20),
    "mc_study": replace(WORKLOADS["mc_study"], commands=(
        ("simulate-consistency", "--n-grid", "100,400,1600", "--reps", "20",
         "--p", "3", "--threads", "2", "--starts", "10"),
        ("simulate-normality", "--n", "50", "--reps", "200", "--p", "3",
         "--threads", "2", "--starts", "10"))),
    "enumerate_oracle": replace(WORKLOADS["enumerate_oracle"], samples=(
        Contaminated(12, 2, 0.1, 0.0, (1.0, 2.0)),
        Contaminated(12, 2, 0.0, 0.1, (1.0, 2.0)))),
}


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run(name, out_dir):
    workload = TINY[name]
    workdir = out_dir / "work"
    workdir.mkdir()
    workload.write_inputs(workdir, 7)
    runner, metrics, notes = run.measure(workload, 7, 0.0, workdir, setups=0)
    assert runner.failures == [] and runner.attempted == len(workload.cycle(workdir, 7))
    assert sorted(metrics) == sorted(set(E2E) - {"setup_s"})
    assert all(v > 0 for v in metrics.values())
    assert notes["op_count"] == runner.attempted

    first = run.measure_traced(workload, 7, workdir)
    second = run.measure_traced(workload, 7, workdir)
    assert first[0].failures == [] and second[0].failures == []
    assert sorted(first[1]) == sorted(PER_LAYER)
    assert {m: first[1][m] for m in COUNT_METRICS} == {m: second[1][m] for m in COUNT_METRICS}


def test_setups_are_spread_over_the_run(out_dir):
    workload = TINY["enumerate_oracle"]
    workdir = out_dir / "work"
    workdir.mkdir()
    workload.write_inputs(workdir, 1)
    runner, metrics, notes = run.measure(workload, 1, 0.5, workdir, setups=3)
    assert runner.failures == [] and sorted(metrics) == sorted(E2E)
    times = notes["setup_samples_s"]
    assert len(times) == 3 and all(0 < t < 60 for t in times)
    assert metrics["setup_s"] == sorted(times)[1]
    assert sorted(p.name for p in (workdir / "setup").iterdir()) == ["input0.csv", "input1.csv"]


# Runs every tiny workload on seed 5 and prints the payload digests.
_DIGESTS = """
import json, sys, tempfile
from pathlib import Path
import run, test_perfbench
digests = {}
for name, workload in test_perfbench.TINY.items():
    workdir = Path(tempfile.mkdtemp(dir=sys.argv[1]))
    workload.write_inputs(workdir, 5)
    runner, _, _ = run.measure(workload, 5, 0.0, workdir, setups=0)
    assert runner.failures == [], runner.failures
    digests.update({f"{name}: {argv}": d for argv, d in runner.digests.items()})
print(json.dumps(digests))
"""


def test_digests_repeat_across_processes(tmp_path):
    outputs = [subprocess.run(
        [sys.executable, "-c", _DIGESTS, str(tmp_path)], cwd=run.BENCH_DIR,
        capture_output=True, text=True, timeout=300, check=True).stdout
        for _ in range(2)]
    first, second = (json.loads(out.splitlines()[-1]) for out in outputs)
    assert len(first) == 2 + 2 + 2 + 4  # the oracle's follow-up fits count too
    assert all("<work>" in argv for argv in first if "simulate" not in argv)
    assert first == second


def test_traced_layers_are_seen(out_dir):
    workdir = out_dir / "work"
    workdir.mkdir()
    _, metrics, _ = run.measure_traced(TINY["mc_study"], 3, workdir)
    assert metrics["simulate.generate.calls"] == 60 + 200
    assert metrics["solver.fit.calls"] == 60 + 200  # all inside pool workers
    assert 0 < metrics["simulate.worker_busy_frac"] <= 1
    assert metrics["simulate.study.wait_s"] > 0


def test_tracer_restores_bindings(tmp_path):
    run.import_trimreg()
    import trimreg.inference
    import trimreg.solver

    original = trimreg.solver.fit
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        assert trimreg.inference.fit is not original
        assert trimreg.inference.fit is trimreg.solver.fit
    finally:
        tracer.uninstall()
    assert trimreg.inference.fit is original and trimreg.solver.fit is original


def test_self_time_subtracts_same_process_children():
    records = [
        {"key": (1, 0), "parent": None, "pid": 1, "dur": 10.0},
        {"key": (1, 1), "parent": (1, 0), "pid": 1, "dur": 3.0},
        {"key": (1, 2), "parent": (1, 0), "pid": 1, "dur": 2.0},
        {"key": (2, 0), "parent": (1, 0), "pid": 2, "dur": 9.0},  # a worker
    ]
    assert spans.self_times(records) == {(1, 0): 5.0, (1, 1): 3.0, (1, 2): 2.0,
                                         (2, 0): 9.0}


def test_tail_keeps_ten_samples_beyond():
    times = list(range(1, 26))
    assert run.tail(times) == (15, 60.0, 10)
    assert run.tail(list(range(20))) == (10, 55.0, 9)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 66.66666666666667, 1)


def test_inputs_repeat_for_a_seed():
    w = WORKLOADS["bootstrap_ci"]
    a, b, c = w.inputs(5), w.inputs(5), w.inputs(6)
    assert all(np.array_equal(p[0], q[0]) and np.array_equal(p[1], q[1])
               for p, q in zip(a, b))
    assert not np.array_equal(a[0][1], c[0][1])


def test_empty_checkout_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- the checks reject wrong answers -----------------------------------------

def _fit_artifact(x, y, beta):
    return {"result": {"beta": list(beta),
                       "objective": workloads.trimmed_objective(x, y, beta, 0.75)}}


def test_fit_check():
    spec = Contaminated(2000, 3, 0.1, 0.1, (1.0, 2.0, 3.0))
    x, y = spec.draw(np.random.default_rng(0))
    beta0 = np.array(spec.beta0)
    # The LS fit on the clean rows stands in for the estimate.
    clean = slice(0, 1600)
    W = np.column_stack([np.ones(1600), x[clean]])
    beta = np.linalg.lstsq(W, y[clean], rcond=None)[0]
    assert workloads.check_fit(_fit_artifact(x, y, beta), x, y, beta0) is None
    far = beta + np.array([0.0, 0.4, 0.0])  # tolerance 0.387 at n = 2000
    assert "beta0" in workloads.check_fit(_fit_artifact(x, y, far), x, y, beta0)
    worse = _fit_artifact(x, y, beta)
    worse["result"]["objective"] = workloads.trimmed_objective(x, y, beta0, 0.75) * 1.01
    assert "objective" in workloads.check_fit(worse, x, y, beta0)


def _cloud_artifact(cloud, retained):
    return {"result": {"region": {"cloud": cloud.tolist(), "retained": retained}}}


def test_bootstrap_check():
    beta0 = (1.0, 2.0, 3.0)
    cloud = np.asarray(beta0) + 0.05 * np.random.default_rng(0).standard_normal((40, 3))
    good = list(range(38))
    assert workloads.check_bootstrap(_cloud_artifact(cloud, good), beta0, 40) is None
    assert "retained" in workloads.check_bootstrap(
        _cloud_artifact(cloud, good[:-1]), beta0, 40)
    assert "median" in workloads.check_bootstrap(
        _cloud_artifact(cloud + 1.0, good), beta0, 40)
    holed = cloud.copy()
    holed[3, 1] = math.nan
    assert "finite" in workloads.check_bootstrap(_cloud_artifact(holed, good), beta0, 40)
    assert "rows" in workloads.check_bootstrap(_cloud_artifact(cloud[:39], good), beta0, 40)


def test_oracle_check():
    def fitted(objective):
        return {"result": {"objective": objective}}

    oracle = fitted(0.731)
    assert workloads.check_oracle(oracle, fitted(0.731 * (1 + 1e-13))) is None
    assert "oracle" in workloads.check_oracle(oracle, fitted(0.731 * (1 + 1e-8)))


def test_study_check():
    summary = {"study": "consistency", "median_error": [0.3, 0.2, 0.1],
               "monotone_decreasing": True, "solver": {"seed": 0}}
    assert workloads.check_study({"result": {"summary": summary}}) is None
    flat = dict(summary, median_error=[0.3, 0.31, 0.1], monotone_decreasing=False)
    assert "decrease" in workloads.check_study({"result": {"summary": flat}})
    nan = {"study": "normality", "skewness": [0.1, math.nan]}
    assert "finite" in workloads.check_study({"result": {"summary": nan}})


class _FakeCli:
    """cli.main stand-in writing a scripted artifact or exit code per call."""

    def __init__(self, output: Path, script):
        self.output, self.script = output, list(script)

    def main(self, argv):
        step = self.script.pop(0)
        if isinstance(step, int):
            return step
        self.output.write_text(json.dumps({"timestamp": step, "result": step[:1]}))
        return 0


def test_runner_counts_exit_codes_and_digest_changes(tmp_path):
    out = tmp_path / "a.json"
    op = workloads.Op(argv=("fit",), output=out, check=lambda a, _: None)
    runner = run.Runner(_FakeCli(out, ["x1", "x2", "y1", 4]), tmp_path)
    for _ in range(4):
        runner.run(op)
    # x1 and x2 differ only in the timestamp; y1 changes the payload.
    assert runner.attempted == 4
    assert [f.split(":")[1].strip() for f in runner.failures] == [
        "payload digest differs from an earlier run", "exit code 4"]
