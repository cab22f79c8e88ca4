"""Measurement loops, metrics and reports for one workload.

Load comes from one closed-loop client in this process: each task starts
when the previous one has returned. An untraced run gives the end-to-end
metrics; a traced run gives the per-layer metrics, timing each task once
untraced and once traced so that the tracing overhead is measured in the
same run.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads
from lqrnewton import derivatives

# Enough tasks that solve_s.tail always has ten samples beyond it.
MIN_TASKS = 11
SETUP_REPEATS = 3
REPLAY_GAINS = 3

# name -> (unit, better, meaning). Accuracy metrics are gated
# by absolute ceilings (workloads.CEILINGS) instead of relative bounds.
END_TO_END = {
    "solve_s": ("s", "lower", "median wall time per task"),
    "solve_s.min": ("s", "lower", "wall time of the fastest task"),
    "solve_s.tail": ("s", "lower",
                     "highest percentile with ten samples beyond it"),
    "solves_per_s": ("1/s", "higher", "correct tasks per second of timed wall time"),
    "setup_s": ("s", "lower", "import, plant generation and starting gains"),
    "peak_rss_mb": ("MiB", "lower", "peak resident memory"),
    "fail_rate": ("1", "lower", "failed tasks over attempted tasks"),
    "gain_rel_err": ("1", "lower", "largest relative gap to the DARE gain"),
    "lyap_resid": ("1", "lower", "largest relative P and Sigma residual"),
    "cost_rel_err": ("1", "lower", "recorded J against a scipy Lyapunov cost"),
    "grad_fd_rel_err": ("1", "lower", "policy_gradient against fd_gradient"),
}
# The end-to-end metrics that the last output line carries and that
# BENCHMARK.json bounds. The others are printed above that line.
# fail_rate and the accuracy figures are zero or at round-off level. The
# median, the tail and the throughput follow the shared host's slow phases,
# which last from seconds to minutes: over ten runs their spread reached
# 34% of the median. Host contention only ever adds time, so the fastest
# task was the steadiest timing in seven of nine sets.
GATED = ("solve_s.min", "setup_s", "peak_rss_mb")

_FO = ("building20_first_order", "building48_first_order")
_ALL = ("pendulum_experiment",) + _FO + ("building48_newton",)
# name -> (unit, better, (end-to-end metric it should move, workloads)).
# calls, self_s and self_pct are per traced task; self_pct is the share of
# the traced tasks' wall time.
PER_LAYER = {}


def _layer(name, stats, moves):
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
             "self_pct": ("%", "lower"), "total_s": ("s", "lower"),
             "replay_s": ("s", "lower"), "iterations": ("count", "lower"),
             "backtracks": ("count", "lower"), "bytes": ("B", "lower"),
             "setup_pct": ("%", "lower")}
    for stat in stats:
        PER_LAYER[f"{name}.{stat}"] = (*units[stat], moves)


_layer("lqr.is_gamma_stabilizing", ("calls", "self_s", "self_pct"),
       ("solve_s", ("building48_first_order", "pendulum_experiment")))
for _name in ("lqr.solve_value", "lqr.solve_sigma"):
    _layer(_name, ("calls", "self_s", "self_pct"), ("solve_s", _FO))
_layer("lqr.performance", ("calls", "self_s", "self_pct"),
       ("solve_s", _FO + ("pendulum_experiment",)))
_layer("lqr.optimal_gain", ("calls", "total_s"),
       ("solve_s", ("building20_first_order",)))
_layer("derivatives.exact_hessian", ("calls", "self_pct", "replay_s"),
       ("solve_s peak_rss_mb", ("building48_newton",)))
_layer("optimize.search_direction", ("calls", "self_s", "self_pct"),
       ("solve_s", ("building48_newton",)))
_layer("optimize.run", ("calls", "self_s", "self_pct", "iterations", "backtracks"),
       ("solve_s", ("pendulum_experiment",)))
_layer("experiment.write_atomic", ("calls", "self_pct", "bytes"),
       ("solve_s", ("pendulum_experiment",)))
_layer("benchmarks.initial_gain", ("total_s", "setup_pct"), ("setup_s", _ALL))
_layer("benchmarks.make_shear_building", ("setup_pct",), ("setup_s", _ALL[1:]))
for _name in ("jacobian_vecP", "lambda_term", "gn_hessian", "policy_gradient"):
    _layer(f"derivatives.{_name}", ("replay_s",), ("solve_s", ("building48_newton",)))
PER_LAYER.update({
    "optimize.line_search.accept_ratio": ("1", "higher", ("solve_s", _ALL)),
    "lqr.stein_solves_per_iter": ("count/iter", "lower", ("solve_s", _ALL)),
    "lqr.stability_checks_per_iter": ("count/iter", "lower", ("solve_s", _ALL)),
    "tracing.overhead_pct": ("%", "lower", ("none", ())),
})


def blas_threads() -> dict:
    """BLAS thread counts reported by the OpenBLAS builds numpy and scipy
    load, where they expose the query; the environment setting otherwise."""
    found = {"env": os.environ.get("OPENBLAS_NUM_THREADS")}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": platform.processor() or platform.machine()}


def tail(times: list[float]) -> tuple[float, float]:
    """The highest order statistic with ten samples beyond it (the smallest
    sample when there are fewer than eleven), and its percentile."""
    k = max(len(times) - 10, 1)
    return sorted(times)[k - 1], 100.0 * k / len(times)


def _timed(task, case, workdir):
    """Run one task; returns (seconds, output, error text or None)."""
    t = time.perf_counter()
    try:
        out, err = task(case, workdir), None
    except Exception as exc:  # the loop must go on; the task counts as failed
        traceback.print_exc(file=sys.stderr)
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, out, err


def _check_all(w, cases, results) -> tuple[int, dict, list]:
    """Check every (case index, output, error); returns (failed, worst
    accuracy, failure reasons)."""
    refs, worst, reasons, failed = {}, {}, [], 0
    for idx, out, err in results:
        if idx not in refs:
            refs[idx] = workloads.reference_for(cases[idx],
                                                with_fd=len(refs) < workloads.FD_CHECKS)
        ref = refs[idx]
        if err is not None:
            problems = [err]
        else:
            try:
                outcome = w.check(cases[idx], out, ref)
            except Exception as exc:  # a malformed output fails its task
                outcome = workloads.Outcome(failures=[f"check raised {exc!r}"])
            if ref.grad_fd_rel_err is not None:
                outcome.worst("grad_fd_rel_err", ref.grad_fd_rel_err)
            for name, value in outcome.accuracy.items():
                worst[name] = workloads.worse(worst.get(name), value)
            problems = outcome.failures + workloads.ceiling_failures(outcome.accuracy)
        if problems:
            failed += 1
            reasons.append(f"{cases[idx].label}: {'; '.join(problems)}")
    return failed, worst, reasons


def _setup(w, seed: int):
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        cases = w.make_cases(np.random.default_rng(seed), w.pool)
        times.append(time.perf_counter() - t)
    return cases, times


_FRESH_SETUP = ("import sys; sys.path[:0] = sys.argv[1:3]; import numpy, workloads; "
                "w = workloads.WORKLOADS[sys.argv[3]]; "
                "w.make_cases(numpy.random.default_rng(int(sys.argv[4])), int(sys.argv[5]))")


def fresh_setup_times(w: workloads.Workload, seed: int) -> list[float]:
    """Wall times of fresh interpreters that import the library and build
    the workload's cases, which is the set-up a user pays on every run."""
    here = Path(__file__).resolve().parent
    args = [sys.executable, "-c", _FRESH_SETUP, str(here.parent / "src"), str(here),
            w.name, str(seed), str(w.pool)]
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run(args, check=True)
        times.append(time.perf_counter() - t)
    return times


def measure(w: workloads.Workload, seed: int, seconds: float, workdir: Path,
            min_tasks: int = MIN_TASKS) -> dict:
    """Untraced run: end-to-end metrics for one workload."""
    setup_times = fresh_setup_times(w, seed)
    cases = w.make_cases(np.random.default_rng(seed), w.pool)
    _timed(w.task, cases[0], workdir)  # warm-up: lazy imports, first-call costs
    times, results = [], []
    start = time.perf_counter()
    while len(times) < min_tasks or time.perf_counter() - start < seconds:
        idx = len(times) % len(cases)
        dt, out, err = _timed(w.task, cases[idx], workdir)
        times.append(dt)
        results.append((idx, out, err))
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, worst, reasons = _check_all(w, cases, results)
    tail_s, tail_pct = tail(times)
    n = len(times)
    values = {
        "solve_s": statistics.median(times),
        "solve_s.min": min(times),
        "solve_s.tail": tail_s,
        "solves_per_s": (n - failed) / wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak,
        "fail_rate": failed / n,
        **{k: worst.get(k, math.nan) for k in workloads.CEILINGS},
    }
    return {"workload": w.name, "seed": seed, "trace": 0, "attempted": n,
            "failed": failed, "failures": reasons, "times": times,
            "notes": {"solve_s.tail": f"p{tail_pct:.1f} of {n} tasks",
                      "solve_s": f"{n} tasks over {wall:.2f} s",
                      "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup_times)
                                 + " s in fresh processes"},
            "metrics": {k: {"value": v, "unit": END_TO_END[k][0]}
                        for k, v in values.items()}}


def _replay(prob, gains) -> dict:
    """Median time per call of the curvature pieces at recorded gains."""
    times = {k: [] for k in ("policy_gradient", "gn_hessian", "jacobian_vecP",
                             "lambda_term", "exact_hessian")}
    for gain in gains:
        for key in times:
            t = time.perf_counter()
            if key == "lambda_term":
                derivatives.lambda_term(prob, gain, jac)
            elif key == "jacobian_vecP":
                jac = derivatives.jacobian_vecP(prob, gain)
            else:
                getattr(derivatives, key)(prob, gain)
            times[key].append(time.perf_counter() - t)
    return {f"derivatives.{k}.replay_s": statistics.median(v) for k, v in times.items()}


def _sample(seq, count):
    idx = sorted({round(i * (len(seq) - 1) / max(count - 1, 1)) for i in range(count)})
    return [seq[i] for i in idx]


def layer_metrics(trace: spans.Tracer, task_wall: float, n_tasks: int,
                  setup_wall: float) -> dict:
    """Per-layer metrics from the spans of the traced tasks and set-ups."""
    all_spans = trace.spans
    selfs = spans.self_times(all_spans)
    calls, self_s, total_s, setup_s = (defaultdict(int), defaultdict(float),
                                       defaultdict(float), defaultdict(float))
    runs, written, in_loop = [], 0, defaultdict(int)
    for i, s in enumerate(all_spans):
        if s.task == "setup":
            if s.parent is None:
                setup_s[s.name] += s.duration
            continue
        calls[s.name] += 1
        self_s[s.name] += selfs[i]
        total_s[s.name] += s.duration
        if s.name == "optimize.run":
            runs.append(s.attrs)
        elif s.name == "experiment.write_atomic":
            written += s.attrs["bytes"]
        elif s.name in ("lqr.solve_value", "lqr.solve_sigma", "lqr.is_gamma_stabilizing"):
            up = set(spans.ancestors(all_spans, i))
            if "optimize.run" in up and "lqr.optimal_gain" not in up:
                in_loop[s.name] += 1
    per_task = {"calls": calls, "self_s": self_s, "total_s": total_s}
    out = {}
    for key in PER_LAYER:
        layer, stat = key.rsplit(".", 1)
        if layer.startswith("benchmarks."):
            out[key] = (setup_s[layer] / SETUP_REPEATS if stat == "total_s"
                        else 100.0 * setup_s[layer] / setup_wall)
        elif stat in per_task:
            out[key] = per_task[stat][layer] / n_tasks
        elif stat == "self_pct":
            out[key] = 100.0 * self_s[layer] / task_wall
    iterations = max(sum(r["iterations"] for r in runs), 1)
    out["experiment.write_atomic.bytes"] = written / n_tasks
    out["optimize.run.iterations"] = sum(r["iterations"] for r in runs) / n_tasks
    out["optimize.run.backtracks"] = sum(r["backtracks"] for r in runs) / n_tasks
    out["optimize.line_search.accept_ratio"] = (
        sum(r["steps_taken"] for r in runs) / max(sum(r["trials"] for r in runs), 1))
    out["lqr.stein_solves_per_iter"] = (
        in_loop["lqr.solve_value"] + in_loop["lqr.solve_sigma"]) / iterations
    out["lqr.stability_checks_per_iter"] = in_loop["lqr.is_gamma_stabilizing"] / iterations
    return out


def measure_traced(w: workloads.Workload, seed: int, seconds: float,
                   workdir: Path) -> dict:
    """Traced run: per-layer metrics and the tracing overhead.

    Up to ``w.traced`` tasks (at least one, fewer if ``seconds`` runs out)
    each run once untraced and once traced, alternating which goes first.
    """
    tracer = spans.Tracer()
    tracer.task = "setup"
    with tracer:
        cases, setup_times = _setup(w, seed)
    _timed(w.task, cases[0], workdir)
    ratios, traced_wall, results, run_gains = [], 0.0, [], []
    start = time.perf_counter()
    for i in range(w.traced):
        if i and time.perf_counter() - start >= seconds:
            break
        idx = i % len(cases)
        timing = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.task, first = i, len(tracer.spans)
                with tracer:
                    timing[traced] = _timed(w.task, cases[idx], workdir)
                if i == 0:
                    run_gains = [g for s in tracer.spans[first:]
                                 if s.name == "optimize.run" for g in s.attrs["gains"]]
            else:
                timing[traced] = _timed(w.task, cases[idx], workdir)
            results.append((idx, timing[traced][1], timing[traced][2]))
        ratios.append(timing[True][0] / timing[False][0])
        traced_wall += timing[True][0]
    n = len(ratios)
    failed, _, reasons = _check_all(w, cases, results)
    values = layer_metrics(tracer, traced_wall, n, sum(setup_times))
    values.update(_replay(cases[0].prob,
                          _sample(run_gains or [cases[0].seed_gain], REPLAY_GAINS)))
    values["tracing.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    return {"workload": w.name, "seed": seed, "trace": 1, "attempted": len(results),
            "failed": failed, "failures": reasons,
            "notes": {"traced tasks": n, "spans": len(tracer.spans)},
            "metrics": {k: {"value": values[k], "unit": PER_LAYER[k][0]}
                        for k in PER_LAYER}}
