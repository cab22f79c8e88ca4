"""Alternating parent/change pairs of one benchmark workload.

Usage, from the root of a source checkout:

    python3 tools/pairs.py PARENT_ROOT --workload building48_newton \\
        --pairs 10 --seconds 50 --first-seed 11

Pair i runs ``lqrbench/run.py --workload W --seed K+i --seconds S --trace 0``
once from PARENT_ROOT and once from this checkout, one process at a time;
the parent runs first in even pairs and second in odd ones, so a drift of
the host falls on both sides alike. Each run's last line, the benchmark's
JSON summary, is parsed. The tool prints every pair's gated metrics with
its task counts, then, per metric, both medians, the parent's
interquartile range (inclusive quartiles), the relative gap of the
medians, the change's wins and the ties, whether a gain holds, and a
no-regression verdict against the metric's bound in BENCHMARK.json. A gain
holds when the change wins at least nine in ten pairs, its median beats
the parent's by more than that range, and no more of its tasks fail than
of the parent's. The verdict is ``worse`` when the gap exceeds the bound,
``unresolved`` when the parent's range, relative to its median, exceeds
the bound and not every change run beats every parent run, and ``held``
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the gated metrics of lqrbench/run.py --trace 0 and their relative bounds;
# lower is better for each
BOUNDS = {m["name"]: m["bound"] for m in
          json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
GATED = tuple(BOUNDS)


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark process from ``root``: its last line, parsed."""
    proc = subprocess.run(
        [sys.executable, "lqrbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: no output (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarize(pairs: list[tuple[dict, dict]]) -> dict[str, dict]:
    """Per gated metric, over (parent, change) pairs of parsed last lines:
    both medians, the parent's interquartile range, the relative gap of the
    medians (negative when the change is lower), wins of the change, ties,
    whether a gain holds, and the verdict against the metric's bound."""
    more_failed = sum(c["failed"] for _, c in pairs) > sum(p["failed"] for p, _ in pairs)
    out = {}
    for name in GATED:
        par = [p["metrics"][name]["value"] for p, _ in pairs]
        chg = [c["metrics"][name]["value"] for _, c in pairs]
        q1, _, q3 = statistics.quantiles(par, n=4, method="inclusive")
        med_p, med_c = statistics.median(par), statistics.median(chg)
        wins = sum(c < p for p, c in zip(par, chg))
        ties = sum(c == p for p, c in zip(par, chg))
        gap, bound = (med_c - med_p) / med_p, BOUNDS[name]
        if gap > bound:
            verdict = "worse"
        elif (q3 - q1) / med_p > bound and not max(chg) < min(par):
            verdict = "unresolved"
        else:
            verdict = "held"
        out[name] = {"parent_median": med_p, "change_median": med_c, "parent_iqr": q3 - q1,
                     "gap": gap, "wins": wins, "ties": ties,
                     "gain": (10 * wins >= 9 * len(pairs) and med_p - med_c > q3 - q1
                              and not more_failed),
                     "verdict": verdict}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--first-seed", type=int, required=True)
    args = p.parse_args(argv)
    if not (args.parent / "lqrbench" / "run.py").is_file():
        print(f"no lqrbench/run.py under {args.parent}", file=sys.stderr)
        return 2

    print(f"{'pair':>4} {'seed':>5} {'first':>7}  " + "  ".join(
        f"{m + ' parent':>20} {m + ' change':>20}" for m in GATED)
        + "  tasks (failed) parent / change")
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        sides = [("parent", args.parent), ("change", ROOT)]
        if i % 2:
            sides.reverse()
        res = {side: run_once(root, args.workload, seed, args.seconds) for side, root in sides}
        pairs.append((res["parent"], res["change"]))
        print(f"{i:>4} {seed:>5} {sides[0][0]:>7}  " + "  ".join(
            f"{res['parent']['metrics'][m]['value']:>20.6g} "
            f"{res['change']['metrics'][m]['value']:>20.6g}" for m in GATED)
            + "  " + " / ".join(f"{res[s]['attempted']} ({res[s]['failed']})"
                                for s in ("parent", "change")), flush=True)

    print(f"{'metric':<12} {'parent median':>14} {'change median':>14} {'parent IQR':>11} "
          f"{'gap':>8} {'wins':>5} {'ties':>5}  gain  verdict (bound)")
    for name, s in summarize(pairs).items():
        print(f"{name:<12} {s['parent_median']:>14.6g} {s['change_median']:>14.6g} "
              f"{s['parent_iqr']:>11.3g} {100 * s['gap']:>+7.2f}% {s['wins']:>5} "
              f"{s['ties']:>5}  {'yes' if s['gain'] else 'no':<4}  {s['verdict']} "
              f"({100 * BOUNDS[name]:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
