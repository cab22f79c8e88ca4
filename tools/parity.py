"""Size and output parity of a source checkout of lqrnewton.

Usage, from the root of a source checkout:

    python3 tools/parity.py                      # this checkout
    python3 tools/parity.py OTHER_ROOT           # another checkout
    python3 tools/parity.py --against PARENT_ROOT

Prints the code lines of each module of ``src/lqrnewton`` (lines that hold
code: no docstrings, comments or blank lines), then five SHA-256 digests
of what the library computes:

- ``criterion10``: the files of the criterion-10 pendulum experiment
  (``CRITERION_10_DOC`` of ``tests/conftest.py``);
- ``pendulum64``: the files of the first 64 seed-1 ``pendulum_experiment``
  benchmark tasks;
- ``buildings``: every field of the seed-1 ``RunRecord`` of each case of
  the three building workloads (each iterate's row, every gain, the final
  gain, ``k_star``, ``converged`` and ``flag``);
- ``riccati``: the bytes of ``K*`` and ``P`` from ``optimal_gain`` on the
  pendulum and on the 32 buildings of 3, 5, 10 and 24 floors, seeds 0-7,
  printed with the largest relative gap of those ``K*`` to scipy's DARE
  gain, so that a change which moves only ``K*``'s last bits can be told
  from one that moves optimizer paths, and its accuracy read beside it;
- ``validate``: what ``lqrnewton validate`` prints, one line per oracle
  check with its observed error, and its exit status, so that a change to
  the oracles or to the checks is seen as the outputs above are.

Last come the work counts per task of two seed-1 pools, every case of
``building48_newton`` and the first 64 ``pendulum_experiment`` tasks:
Stein operators built, ``solve`` calls, doubling levels (summed over the
``_doubling`` calls, correction passes included), eigenvalue solves
(``lqr._geev``) and Hessian-vector products. They repeat exactly, so a
change that removes work can be told from one that only makes it cheaper.

Two checkouts that compute the same numbers print the same digests. A
change that moves last bits moves them, so ``--against PARENT_ROOT``
compares the numbers behind the digests instead. It runs each checkout in
its own process, prints both sides' code lines, digests and work counts,
and then, per output family, the largest gap and the case where it occurs
(see :func:`compare`):

- ``riccati``: the relative gaps of ``K*`` and ``P``, and each side's
  relative gap to scipy's DARE gain;
- ``pendulum64`` (per method) and ``buildings`` (per workload): the
  relative gap of each iterate's ``J``, the gradient-norm gaps scaled by
  the run's first gradient norm (a converged run's last ``||g||`` sits at
  round-off, where a relative gap means nothing), the gain-error gaps
  scaled by ``||K*||``, the relative gap of the final gain, and the runs
  whose iteration count, outcome or backtrack counts moved, each named;
- ``validate``: the relative gap of the printed errors, and the checks
  whose verdict moved.

Gaps are gated by ``TOLERANCES`` and counts must not move, except on
first-order runs and the ``validate`` errors, which are reported only: a
first-order run turns a last-bit change into a different trajectory. The
exit status is 1 when a gated row misses its tolerance.

The library, ``lqrbench/workloads.py`` and ``tests/conftest.py`` are
imported from ROOT and used read-only; every file is written to a
temporary directory. One BLAS thread is pinned, since a multithreaded BLAS
need not reproduce its own bits.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from typing import NamedTuple, Optional

SEED = 1
PENDULUM_TASKS = 64
BUILDING_WORKLOADS = ("building20_first_order", "building48_first_order",
                      "building48_newton")
RICCATI_FLOORS = (3, 5, 10, 24)
RICCATI_SEEDS = range(8)
# (workload, tasks counted: None for the whole pool)
COUNTED_WORKLOADS = (("building48_newton", None), ("pendulum_experiment", PENDULUM_TASKS))
WORK = ("operators", "solves", "levels", "eigvals", "hvps")
# the gaps --against gates, each the largest over its family (see compare)
TOLERANCES = {"K*": 1e-13, "P": 1e-13, "K* to DARE": 1e-12, "J": 1e-13,
              "||g|| / ||g_0||": 1e-12, "gain error / ||K*||": 1e-12, "final K": 1e-12}
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def code_lines(path: Path) -> int:
    """Lines that hold a token other than a comment or a docstring."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _digest_files(h, directory: Path) -> None:
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")


def criterion10_digest(experiment, doc) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = experiment.config_from_dict(doc, output_dir=Path(tmp))
        h.update(str(experiment.run_experiment(cfg)).encode())
        _digest_files(h, Path(tmp))
    return h.hexdigest()


def _run_numbers(rec, method: str) -> dict:
    """What --against compares of one RunRecord."""
    return {"method": method, "J": [s.J for s in rec.steps],
            "g": [s.grad_norm for s in rec.steps], "e": [s.gain_error for s in rec.steps],
            "bt": [s.backtracks for s in rec.steps], "K": rec.final_gain.K,
            "k_star": float(math.sqrt((rec.k_star.K ** 2).sum())),
            "end": (rec.converged, rec.flag)}


def pendulum_digest(np, workloads) -> tuple[str, dict]:
    """Digest of the pendulum tasks' files, and each method's run numbers,
    keyed ("pendulum64", method, case), from the RunRecords behind them."""
    w = workloads.WORKLOADS["pendulum_experiment"]
    cases = w.make_cases(np.random.default_rng(SEED), w.pool)[:PENDULUM_TASKS]
    experiment = workloads.experiment
    run, records = experiment.run, []

    def recording(prob, cfg, **kwargs):
        rec = run(prob, cfg, **kwargs)
        records.append((cfg.method, rec))
        return rec

    h, runs = hashlib.sha256(), {}
    experiment.run = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for i, case in enumerate(cases):
                status, out_dir = w.task(case, Path(tmp))
                h.update(str(status).encode())
                _digest_files(h, out_dir)
                for method, rec in records:
                    runs["pendulum64", method, f"task {i} ({case.label})"] = \
                        _run_numbers(rec, method)
                records.clear()
    finally:
        experiment.run = run
    return h.hexdigest(), runs


def _digest_record(h, rec) -> None:
    for s in rec.steps:
        h.update(repr((s.k, s.J, s.grad_norm, s.gain_error, s.alpha_used,
                       type(s.alpha_used).__name__, s.backtracks)).encode())
    for gain in rec.gains + [rec.final_gain, rec.k_star]:
        h.update(gain.K.tobytes())
    h.update(repr((rec.converged, rec.flag)).encode())


def buildings_digest(np, workloads) -> tuple[str, dict]:
    """Digest of the building RunRecords, and each one's run numbers,
    keyed ("buildings", workload, case)."""
    h, runs = hashlib.sha256(), {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in BUILDING_WORKLOADS:
            w = workloads.WORKLOADS[name]
            for i, case in enumerate(w.make_cases(np.random.default_rng(SEED), w.pool)):
                rec = w.task(case, Path(tmp))
                _digest_record(h, rec)
                method = "newton" if name.endswith("newton") else "first_order"
                runs["buildings", name, f"case {i} ({case.label})"] = _run_numbers(rec, method)
    return h.hexdigest(), runs


def riccati_digest(workloads, lqrnewton) -> tuple[str, dict]:
    """Digest of optimal_gain's K* and P over the pendulum and the
    buildings, and per plant K*, P and K*'s relative gap to scipy's DARE
    gain."""
    probs = [("pendulum", lqrnewton.make_pendulum())]
    probs += [(f"floors={f} seed={s}", lqrnewton.make_shear_building(floors=f, seed=s))
              for f in RICCATI_FLOORS for s in RICCATI_SEEDS]
    h, plants = hashlib.sha256(), {}
    for name, p in probs:
        k_star, value = lqrnewton.optimal_gain(p)
        h.update(k_star.K.tobytes() + value.P.tobytes())
        plants[name] = {"K*": k_star.K, "P": value.P,
                        "dare": workloads.rel_err(k_star.K, workloads.dare_reference(p)[0])}
    return h.hexdigest(), plants


def validate_output(cli) -> str:
    """The lines ``lqrnewton validate`` prints, from ``cli.main``, followed
    by its exit status."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["validate"])
    return f"{out.getvalue()}{status}"


def validate_digest(cli) -> str:
    """Digest of :func:`validate_output`."""
    return hashlib.sha256(validate_output(cli).encode()).hexdigest()


def work_counts(lqr, derivatives, task) -> dict[str, int]:
    """The work ``task()`` does, counted by the names of ``WORK``."""
    counts = dict.fromkeys(WORK, 0)
    counted = [(lqr.SteinOperator, "__init__", "operators"),
               (lqr.SteinOperator, "solve", "solves"),
               (lqr.SteinOperator, "_doubling", "levels"),
               (lqr, "_geev", "eigvals"),
               (derivatives.Evaluation, "hvp", "hvps")]
    saved = [getattr(owner, name) for owner, name, _ in counted]

    def counting(fn, key):
        def call(*args, **kwargs):
            # a doubling call runs one level per power of its operator
            counts[key] += len(args[0]._powers) if key == "levels" else 1
            return fn(*args, **kwargs)
        return call

    for (owner, name, key), fn in zip(counted, saved):
        setattr(owner, name, counting(fn, key))
    try:
        task()
    finally:
        for (owner, name, _), fn in zip(counted, saved):
            setattr(owner, name, fn)
    return counts


def workload_counts(np, workloads, lqr, derivatives, name: str, tasks) -> dict[str, float]:
    """Work per task over the first ``tasks`` seed-1 cases of a workload."""
    w = workloads.WORKLOADS[name]
    cases = w.make_cases(np.random.default_rng(SEED), w.pool)[:tasks]

    def run_all():
        with tempfile.TemporaryDirectory() as tmp:
            for case in cases:
                w.task(case, Path(tmp))

    return {k: v / len(cases) for k, v in work_counts(lqr, derivatives, run_all).items()}


def collect(root: Path) -> dict:
    """Everything this tool prints of the checkout at ``root``, and the
    numbers behind its digests, from one import of that checkout."""
    package = root / "src" / "lqrnewton"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "lqrbench"), str(root / "tests")]
    import numpy as np
    import workloads
    from conftest import CRITERION_10_DOC
    import lqrnewton
    from lqrnewton import cli, derivatives, experiment, lqr

    raw = {"lines": {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}}
    pendulum, pendulum_runs = pendulum_digest(np, workloads)
    buildings, building_runs = buildings_digest(np, workloads)
    riccati, plants = riccati_digest(workloads, lqrnewton)
    validate = validate_output(cli)
    raw["digests"] = {
        "criterion10": criterion10_digest(experiment, CRITERION_10_DOC),
        "pendulum64": pendulum, "buildings": buildings, "riccati": riccati,
        "validate": hashlib.sha256(validate.encode()).hexdigest()}
    raw.update(riccati=plants, runs={**pendulum_runs, **building_runs}, validate=validate,
               work={name: workload_counts(np, workloads, lqr, derivatives, name, tasks)
                     for name, tasks in COUNTED_WORKLOADS})
    return raw


class Row(NamedTuple):
    """One line of the comparison: the largest ``gap`` of an output over
    ``runs`` of a family, or for a count (``gap`` an int) the cases where it
    moved, and the tolerance it is gated by (None: reported only)."""

    family: str
    runs: str
    output: str
    gap: float
    case: str
    tol: Optional[float]

    @property
    def over(self) -> bool:
        return self.tol is not None and not self.gap <= self.tol


def _largest(gaps) -> tuple[float, str]:
    """The largest of (gap, case) pairs, a NaN gap counting as the largest;
    (0.0, "-") when every gap is 0."""
    return max(((gap, case) for gap, case in gaps if gap != 0.0),
               key=lambda gc: (math.isnan(gc[0]), gc[0]), default=(0.0, "-"))


def _gap(a, b, scale=None) -> float:
    """The largest |a - b| over the common prefix of two sequences, or the
    Frobenius norm of the difference of two matrices, divided by ``scale``:
    by default |b| entrywise, or ||b||_F. A zero scale reads the absolute
    gap."""
    # imported here: collect pins BLAS to one thread before numpy loads
    import numpy as np
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim == 2:
        diff, size = np.sqrt(((a - b) ** 2).sum()), np.sqrt((b ** 2).sum())
    else:
        k = min(len(a), len(b))
        diff, size = np.abs(a[:k] - b[:k]), np.abs(b[:k])
    scale = size if scale is None else scale
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where(scale == 0.0, diff, diff / scale)
    return float(np.max(gap, initial=0.0))


RUN_GAPS = ("J", "||g|| / ||g_0||", "gain error / ||K*||", "final K")


def _run_gaps(p: dict, c: dict) -> tuple[float, ...]:
    """The gaps of RUN_GAPS of one run, the change's c from the parent's p."""
    return (_gap(c["J"], p["J"]), _gap(c["g"], p["g"], p["g"][0]),
            _gap(c["e"], p["e"], p["k_star"]), _gap(c["K"], p["K"]))


def _count_row(family, runs, output, moved, gated) -> Row:
    return Row(family, runs, output, len(moved), ", ".join(moved) or "-",
               0 if gated else None)


def _validate_checks(text: str) -> dict[str, tuple[str, list[float]]]:
    """check -> (verdict, the numbers printed after its ``--``) of
    ``validate``'s output, the tolerances in parentheses left out, and the
    exit status as the check "exit status"."""
    *lines, status = text.splitlines()
    checks = {"exit status": (status, [])}
    for line in lines:
        head, _, tail = line.partition(" -- ")
        verdict, _, name = head.partition(": ")
        checks[name] = (verdict, [float(x) for x in
                                  _NUMBER.findall(re.sub(r"\(tol [^)]*\)", "", tail))])
    return checks


def compare(parent: dict, change: dict) -> list[Row]:
    """The gap rows of two checkouts' collected numbers (see the module
    docstring), parent first: every gap is the change's distance from the
    parent, relative to the parent's value or to the scale named."""
    rows = []
    plants = parent["riccati"]
    runs = f"{len(plants)} plants"
    for output in ("K*", "P"):
        rows.append(Row("riccati", runs, output, *_largest(
            (_gap(change["riccati"][name][output], q[output]), name)
            for name, q in plants.items()), TOLERANCES[output]))
    for side, raw in (("parent", parent), ("change", change)):
        rows.append(Row("riccati", runs, f"K* to DARE, {side}",
                        *_largest((q["dare"], name) for name, q in raw["riccati"].items()),
                        TOLERANCES["K* to DARE"]))

    # a run that one side has and the other lacks raised on that side
    groups: dict[tuple[str, str], list] = {}
    for key in {**parent["runs"], **change["runs"]}:
        groups.setdefault(key[:2], []).append(
            (key[2], parent["runs"].get(key), change["runs"].get(key)))
    for (family, group), runs in groups.items():
        gated = next(p or c for _, p, c in runs)["method"] != "first_order"
        label = f"{group}, {len(runs)} runs" + ("" if gated else " (not gated)")
        matched = [(case, p, c) for case, p, c in runs if p is not None and c is not None]
        gaps = [(_run_gaps(p, c), case) for case, p, c in matched]
        for i, output in enumerate(RUN_GAPS):
            rows.append(Row(family, label, output, *_largest((g[i], case) for g, case in gaps),
                            TOLERANCES[output] if gated else None))
        rows.append(_count_row(family, label, "runs on one side", [
            f"{case} ({'parent' if c is None else 'change'} only)"
            for case, p, c in runs if p is None or c is None], True))
        rows.append(_count_row(family, label, "iterations", [
            f"{case} ({len(p['J']) - 1} -> {len(c['J']) - 1})"
            for case, p, c in matched if len(p["J"]) != len(c["J"])], gated))
        rows.append(_count_row(family, label, "outcome", [
            f"{case} ({p['end']} -> {c['end']})"
            for case, p, c in matched if p["end"] != c["end"]], gated))
        rows.append(_count_row(family, label, "backtracks", [
            f"{case} (total {sum(p['bt'])} -> {sum(c['bt'])})"
            for case, p, c in matched if p["bt"] != c["bt"]], gated))

    checks, other = _validate_checks(parent["validate"]), _validate_checks(change["validate"])
    runs = f"{len(checks) - 1} checks"
    rows.append(Row("validate", runs, "printed errors", *_largest(
        (_gap(other[name][1], numbers), name) for name, (_, numbers) in checks.items()
        if name in other), None))
    rows.append(_count_row("validate", runs, "verdicts", [
        name for name, (verdict, _) in checks.items()
        if name not in other or other[name][0] != verdict], True))
    return rows


def print_comparison(parent: dict, change: dict, against: Path) -> int:
    """Both sides' lines, digests and work counts, then the gap rows; 1 when
    a gated row misses its tolerance."""
    print(f"parent: {against}")
    print(f"{'code lines of src/lqrnewton':<28}{'parent':>8}{'change':>8}")
    for name in sorted(set(parent["lines"]) | set(change["lines"])):
        print(f"  {name:<26}{parent['lines'].get(name, 0):>8}{change['lines'].get(name, 0):>8}")
    print(f"  {'total':<26}{sum(parent['lines'].values()):>8}"
          f"{sum(change['lines'].values()):>8}")
    for name, digest in parent["digests"].items():
        same = "same" if change["digests"][name] == digest else "moved"
        print(f"sha256 {name:<12} {digest[:16]} {change['digests'][name][:16]}  {same}")
    print(f"{'work per task, seed 1':<30}{''.join(f'{k:>10}' for k in WORK)}")
    for name in parent["work"]:
        for side, raw in (("parent", parent), ("change", change)):
            print(f"  {name:<20}{side:<8}"
                  f"{''.join(f'{v:>10.3f}' for v in raw['work'][name].values())}")
    rows = compare(parent, change)
    print(f"{'family':<11}{'runs':<46}{'output':<22}{'gap':>9}{'tolerance':>11}  case")
    for r in rows:
        gap = f"{r.gap:>9d}" if isinstance(r.gap, int) else f"{r.gap:>9.2g}"
        tol = "-" if r.tol is None else f"{r.tol:.0e}" if r.tol else "0"
        print(f"{r.family:<11}{r.runs:<46}{r.output:<22}{gap}{tol:>11}  "
              f"{r.case}{'  OVER' if r.over else ''}")
    over = sum(r.over for r in rows)
    print("parity: " + (f"{over} gated rows over their tolerance" if over
                        else "every gated row within its tolerance"))
    return 1 if over else 0


def print_checkout(raw: dict) -> None:
    print("code lines of src/lqrnewton (no docstrings, comments or blanks)")
    for name, n in raw["lines"].items():
        print(f"  {name:<16}{n:>6}")
    print(f"  {'total':<16}{sum(raw['lines'].values()):>6}")
    d = raw["digests"]
    print(f"sha256 criterion10 {d['criterion10']}")
    print(f"sha256 pendulum64  {d['pendulum64']}")
    print(f"sha256 buildings   {d['buildings']}")
    gap = max(q["dare"] for q in raw["riccati"].values())
    print(f"sha256 riccati     {d['riccati']}  (largest K* gap to scipy's DARE {gap:.2g})")
    print(f"sha256 validate    {d['validate']}")
    print(f"{'work per task, seed 1':<22}{''.join(f'{k:>10}' for k in WORK)}")
    for name, counts in raw["work"].items():
        print(f"  {name:<20}{''.join(f'{v:>10.3f}' for v in counts.values())}")


def _collect_in_child(root: Path, out: Path) -> dict:
    subprocess.run([sys.executable, __file__, str(root), "--dump", str(out)], check=True)
    with open(out, "rb") as f:
        return pickle.load(f)


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="the checkout to measure (default: this one)")
    p.add_argument("--against", type=Path, metavar="PARENT_ROOT",
                   help="compare ROOT with this checkout by the gaps of their numbers")
    p.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv[1:])
    for root in (args.root, args.against):
        if root is not None and not (root / "src" / "lqrnewton").is_dir():
            print(f"no {root / 'src' / 'lqrnewton'}", file=sys.stderr)
            return 2
    if args.against is not None:
        with tempfile.TemporaryDirectory() as tmp:
            parent = _collect_in_child(args.against.resolve(), Path(tmp) / "parent.pickle")
            change = _collect_in_child(args.root.resolve(), Path(tmp) / "change.pickle")
        return print_comparison(parent, change, args.against)
    raw = collect(args.root.resolve())
    if args.dump is not None:
        with open(args.dump, "wb") as f:
            pickle.dump(raw, f)
    else:
        print_checkout(raw)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
