"""Tests of the benchmark itself: every named metric is emitted, the
correctness checks fire on wrong outputs, the tracer sees calls made through
any module's globals, and the command refuses to run without the library.

Run with ``python -m pytest lqrbench`` from the repository root.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lqrnewton import (Gain, OptimizerConfig, benchmarks, derivatives,  # noqa: E402
                       lqr, optimize)


def _tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], pool=1, traced=1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, tmp_path):
    res = harness.measure(_tiny(name), seed=0, seconds=0, workdir=tmp_path, min_tasks=1)
    assert res["failed"] == 0, res["failures"]
    assert list(res["metrics"]) == list(harness.END_TO_END)
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())

    res = harness.measure_traced(_tiny(name), seed=0, seconds=0, workdir=tmp_path)
    assert res["failed"] == 0, res["failures"]
    assert list(res["metrics"]) == list(harness.PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert list(e2e) == list(harness.GATED)
    assert all(e2e[k] == harness.END_TO_END[k][:2] for k in e2e)
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {k: v[:2] for k, v in harness.PER_LAYER.items()}


NEWTON_CHECK = workloads.WORKLOADS["building48_newton"].check


@pytest.fixture(scope="module")
def newton_case():
    prob = benchmarks.make_shear_building(floors=2, seed=0)
    case = workloads.Case(prob, benchmarks.initial_gain(prob, r_inflation=2.0), "tiny")
    cfg = OptimizerConfig(method="newton", grad_tol=1e-12, max_iter=4,
                          seed_gain=case.seed_gain)
    return case, workloads.reference_for(case, with_fd=True), cfg


def _failures(check, case, rec, ref):
    out = check(case, rec, ref)
    return out.failures + workloads.ceiling_failures(out.accuracy)


def test_check_passes_a_correct_run(newton_case):
    case, ref, cfg = newton_case
    rec = optimize.run(case.prob, cfg)
    assert _failures(NEWTON_CHECK, case, rec, ref) == []
    assert ref.grad_fd_rel_err < workloads.CEILINGS["grad_fd_rel_err"]


@pytest.mark.parametrize("tamper", ["k_star", "cost", "nan_cost", "rising_cost",
                                    "unstable_iterate", "slow_gradient", "short_run"])
def test_check_fires_on_wrong_output(newton_case, tamper):
    case, ref, cfg = newton_case
    rec = optimize.run(case.prob, cfg)
    if tamper == "k_star":
        rec.k_star = Gain(rec.k_star.K * (1.0 + 1e-6))
    elif tamper == "cost":
        rec.steps[-1].J *= 1.0 + 1e-6
    elif tamper == "nan_cost":
        rec.steps[-1].J = math.nan
    elif tamper == "rising_cost":
        rec.steps[2].J = rec.steps[1].J * (1.0 + 1e-9)
    elif tamper == "unstable_iterate":
        rec.gains[1] = Gain(-100.0 * rec.gains[1].K)
    elif tamper == "slow_gradient":
        rec.steps[-1].grad_norm = rec.steps[0].grad_norm * 0.1
    else:
        del rec.steps[-1], rec.gains[-1]
    assert _failures(NEWTON_CHECK, case, rec, ref)


def test_wrong_output_counts_as_failed_task(newton_case):
    case, _, cfg = newton_case
    rec = optimize.run(case.prob, cfg)
    rec.k_star = Gain(rec.k_star.K + 1e-3)
    w = dataclasses.replace(workloads.WORKLOADS["building48_newton"], check=NEWTON_CHECK)
    failed, worst, reasons = harness._check_all(w, [case], [(0, rec, None), (0, None, "boom")])
    assert failed == 2 and len(reasons) == 2
    assert worst["gain_rel_err"] > workloads.CEILINGS["gain_rel_err"]


def test_pendulum_check_reads_the_emitted_files(tmp_path):
    w = _tiny("pendulum_experiment")
    case = w.make_cases(np.random.default_rng(0), 1)[0]
    ref = workloads.reference_for(case, with_fd=False)
    output = w.task(case, tmp_path)
    assert _failures(w.check, case, output, ref) == []
    trace = output[1] / "trace_newton.csv"
    lines = trace.read_text(encoding="utf-8").splitlines()
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) * (1.0 + 1e-6))
    trace.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n", encoding="utf-8")
    assert _failures(w.check, case, output, ref)


def test_tracer_rebinds_module_globals_and_restores_them():
    prob = benchmarks.make_shear_building(floors=2, seed=0)
    gain = benchmarks.initial_gain(prob)
    original = derivatives.solve_value
    tracer = spans.Tracer()
    with tracer:
        assert derivatives.solve_value is not original
        derivatives.exact_hessian(prob, gain)
    assert derivatives.solve_value is original and lqr.solve_value is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "derivatives.exact_hessian"
    direct = {s.name for s in tracer.spans if s.parent == 0}
    assert direct == {"lqr.solve_value", "lqr.solve_sigma"}
    selfs = spans.self_times(tracer.spans)
    children = sum(s.duration for s in tracer.spans if s.parent == 0)
    assert selfs[0] == pytest.approx(tracer.spans[0].duration - children)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "pendulum_experiment", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
