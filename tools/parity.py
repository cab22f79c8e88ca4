"""Size and output parity of a source checkout of lqrnewton.

Usage, from the root of a source checkout:

    python3 tools/parity.py            # this checkout
    python3 tools/parity.py OTHER_ROOT # another checkout, e.g. a parent commit

Prints the code lines of each module of ``src/lqrnewton`` (lines that hold
code: no docstrings, comments or blank lines), then four SHA-256 digests
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
  from one that moves optimizer paths, and its accuracy read beside it.

Last come the work counts per task of two seed-1 pools, every case of
``building48_newton`` and the first 64 ``pendulum_experiment`` tasks:
Stein operators built, ``solve`` calls, doubling levels (summed over the
``_doubling`` calls, correction passes included), eigenvalue solves
(``lqr._geev``) and Hessian-vector products. They repeat exactly, so a
change that removes work can be told from one that only makes it cheaper.

Two checkouts that compute the same numbers print the same digests. The
library, ``lqrbench/workloads.py`` and ``tests/conftest.py`` are imported
from ROOT and used read-only; every file is written to a temporary
directory. One BLAS thread is pinned, since a multithreaded BLAS need not
reproduce its own bits.
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import sys
import tempfile
import tokenize
from pathlib import Path

SEED = 1
PENDULUM_TASKS = 64
BUILDING_WORKLOADS = ("building20_first_order", "building48_first_order",
                      "building48_newton")
RICCATI_FLOORS = (3, 5, 10, 24)
RICCATI_SEEDS = range(8)
# (workload, tasks counted: None for the whole pool)
COUNTED_WORKLOADS = (("building48_newton", None), ("pendulum_experiment", PENDULUM_TASKS))
WORK = ("operators", "solves", "levels", "eigvals", "hvps")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


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


def pendulum_digest(np, workloads) -> str:
    w = workloads.WORKLOADS["pendulum_experiment"]
    cases = w.make_cases(np.random.default_rng(SEED), w.pool)[:PENDULUM_TASKS]
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            status, out_dir = w.task(case, Path(tmp))
            h.update(str(status).encode())
            _digest_files(h, out_dir)
    return h.hexdigest()


def _digest_record(h, rec) -> None:
    for s in rec.steps:
        h.update(repr((s.k, s.J, s.grad_norm, s.gain_error, s.alpha_used,
                       type(s.alpha_used).__name__, s.backtracks)).encode())
    for gain in rec.gains + [rec.final_gain, rec.k_star]:
        h.update(gain.K.tobytes())
    h.update(repr((rec.converged, rec.flag)).encode())


def buildings_digest(np, workloads) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name in BUILDING_WORKLOADS:
            w = workloads.WORKLOADS[name]
            for case in w.make_cases(np.random.default_rng(SEED), w.pool):
                _digest_record(h, w.task(case, Path(tmp)))
    return h.hexdigest()


def riccati_digest(workloads, lqrnewton) -> tuple[str, float]:
    """Digest of optimal_gain's K* and P, and the largest relative gap of
    K* to scipy's DARE gain, over the pendulum and the buildings."""
    probs = [lqrnewton.make_pendulum()]
    probs += [lqrnewton.make_shear_building(floors=f, seed=s)
              for f in RICCATI_FLOORS for s in RICCATI_SEEDS]
    h, gap = hashlib.sha256(), 0.0
    for p in probs:
        k_star, value = lqrnewton.optimal_gain(p)
        h.update(k_star.K.tobytes() + value.P.tobytes())
        gap = max(gap, workloads.rel_err(k_star.K, workloads.dare_reference(p)[0]))
    return h.hexdigest(), gap


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


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent)
    package = root / "src" / "lqrnewton"
    if not package.is_dir():
        print(f"no {package}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "lqrbench"), str(root / "tests")]
    import numpy as np
    import workloads
    from conftest import CRITERION_10_DOC
    import lqrnewton
    from lqrnewton import derivatives, experiment, lqr

    print("code lines of src/lqrnewton (no docstrings, comments or blanks)")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"  {path.name:<16}{n:>6}")
    print(f"  {'total':<16}{total:>6}")
    print(f"sha256 criterion10 {criterion10_digest(experiment, CRITERION_10_DOC)}")
    print(f"sha256 pendulum64  {pendulum_digest(np, workloads)}")
    print(f"sha256 buildings   {buildings_digest(np, workloads)}")
    digest, gap = riccati_digest(workloads, lqrnewton)
    print(f"sha256 riccati     {digest}  (largest K* gap to scipy's DARE {gap:.2g})")
    print(f"{'work per task, seed 1':<22}{''.join(f'{k:>10}' for k in WORK)}")
    for name, tasks in COUNTED_WORKLOADS:
        counts = workload_counts(np, workloads, lqr, derivatives, name, tasks)
        print(f"  {name:<20}{''.join(f'{v:>10.3f}' for v in counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
