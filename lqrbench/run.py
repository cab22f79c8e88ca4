"""Benchmark for lqrnewton: time to solution, accuracy and per-layer spans.

Usage, from the root of a source checkout:

    python3 lqrbench/run.py --workload building48_newton --seed 1 \\
        --seconds 50 --trace 0
    python3 lqrbench/run.py --workload all --seed 1 --seconds 25 --out report.json

One workload per process. ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` the per-layer metrics. ``--workload all`` runs every workload
with both settings, each in its own process. The human-readable report goes
to standard output; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every task passed its checks; 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS thread (at most nproc): the runs are single-client, and one
# thread keeps them steadier on a shared host. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".lqrbench_out"  # task outputs, removed after each run
WORKLOADS = ("pendulum_experiment", "building20_first_order",
             "building48_first_order", "building48_newton")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="also write the full result as JSON")
    return p.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_result(res: dict) -> None:
    from harness import END_TO_END, PER_LAYER
    print(f"# {res['workload']} seed={res['seed']} trace={res['trace']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for key, note in {**res["notes"], **res["machine"]}.items():
        print(f"#   {key}: {note}")
    table = PER_LAYER if res["trace"] else END_TO_END
    for name, m in res["metrics"].items():
        print(f"{name:40s} {_fmt(m['value']):>14s} {m['unit']:10s} "
              f"{table[name][1]} is better")
    for reason in res["failures"]:
        print(f"FAILED {reason}")


def _last_line(res: dict, metrics: dict) -> str:
    return json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def run_one(args) -> int:
    import harness  # numpy, scipy and lqrnewton load here
    import lqrnewton
    if Path(lqrnewton.__file__).resolve().parent != SRC / "lqrnewton":
        print(f"error: imported lqrnewton from {lqrnewton.__file__}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        w = harness.workloads.WORKLOADS[args.workload]
        if args.trace:
            res = harness.measure_traced(w, args.seed, args.seconds, workdir)
        else:
            res = harness.measure(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["machine"] = harness.machine()
    _print_result(res)
    if args.out:
        args.out.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    gated = harness.PER_LAYER if args.trace else harness.GATED
    print(_last_line(res, {k: res["metrics"][k] for k in gated}))
    return 0 if res["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results, metrics, status = [], {}, 0
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        for name in WORKLOADS:
            for trace in (0, 1):
                out = Path(tmp) / f"{name}.{trace}.json"
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out)],
                    stdout=subprocess.PIPE, text=True, check=False)
                print("\n".join(proc.stdout.splitlines()[:-1]))
                if proc.returncode != 0:
                    print(f"FAILED {name} trace={trace}: exit {proc.returncode}")
                    status = status or proc.returncode
                if not out.is_file():
                    continue
                res = json.loads(out.read_text(encoding="utf-8"))
                results.append(res)
                metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if args.out:
        from harness import END_TO_END, PER_LAYER
        from workloads import CEILINGS
        # (unit, better, meaning) and (unit, better, (moves, on workloads))
        definitions = {"end_to_end": END_TO_END, "ceilings": CEILINGS,
                       "per_layer": PER_LAYER}
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                        "definitions": definitions, "runs": results},
                                       indent=1) + "\n", encoding="utf-8")
    total = {"attempted": sum(r["attempted"] for r in results),
             "failed": sum(r["failed"] for r in results)}
    print(json.dumps({"correct": status == 0 and total["failed"] == 0, **total,
                      "metrics": metrics}))
    return status


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "lqrnewton" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    finally:
        with contextlib.suppress(OSError):  # another run may still use it
            WORKDIR.rmdir()


if __name__ == "__main__":
    sys.exit(main())
