import importlib.util
from pathlib import Path

import pytest

from lqrnewton import (Gain, OptimizerConfig, derivatives, lqr, make_shear_building,
                       optimal_gain, run)


def _tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity, pairs = _tool("parity"), _tool("pairs")

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os


def f(x):
    """Function docstring."""

    # another comment
    return (x +
            1 +
            2)
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "source.py"
    path.write_text(SOURCE, encoding="utf-8")
    # import, def, and the three lines of the return expression
    assert parity.code_lines(path) == 5


def test_work_counts_of_a_fixed_step_newton_run():
    prob = make_shear_building(floors=3, seed=0)  # n = 6: the Kronecker branch
    k_star, _ = optimal_gain(prob)
    cfg = OptimizerConfig(method="newton", step_mode="fixed", max_iter=3,
                          grad_tol=1e-300, seed_gain=Gain.zero(prob))
    counted = (lqr.SteinOperator.__init__, lqr.SteinOperator.solve,
               lqr.SteinOperator._doubling, lqr._geev, derivatives.Evaluation.hvp)
    records = []
    counts = parity.work_counts(lqr, derivatives,
                                lambda: records.append(run(prob, cfg, k_star=k_star)))
    rec, = records
    assert list(counts) == list(parity.WORK)
    # one checked operator per iterate, each checked by one eigenvalue solve
    assert counts["operators"] == counts["eigvals"] == len(rec.gains) == 4
    assert counts["levels"] == 0 and counts["hvps"] > 0
    # P and Sigma at each iterate, and two solves per product
    assert counts["solves"] == 2 * len(rec.gains) + 2 * counts["hvps"]
    # the counted calls are put back
    assert all(a is b for a, b in zip(counted, (
        lqr.SteinOperator.__init__, lqr.SteinOperator.solve,
        lqr.SteinOperator._doubling, lqr._geev, derivatives.Evaluation.hvp)))


def _last_line(solve, setup, rss, failed=0):
    values = {"solve_s.min": solve, "setup_s": setup, "peak_rss_mb": rss}
    return {"attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_pairs_summary_on_fixed_numbers():
    parent = [7.40, 7.30, 7.50, 7.45, 7.35, 7.42, 7.38, 7.60, 7.41, 7.39]
    change = [7.00, 7.05, 7.10, 7.02, 7.50, 7.01, 7.03, 7.04, 6.99, 7.06]
    runs = [(_last_line(p, 0.5, 100.0), _last_line(c, 0.5 if i % 2 else 0.6, 100.0))
            for i, (p, c) in enumerate(zip(parent, change))]
    s = pairs.summarize(runs)
    solve = s["solve_s.min"]
    assert solve["parent_median"] == 7.405 and solve["change_median"] == 7.035
    # inclusive quartiles of the parent's ten runs: 7.3825 and 7.4425
    assert abs(solve["parent_iqr"] - 0.06) < 1e-12
    assert solve["gap"] == (7.035 - 7.405) / 7.405
    assert (solve["wins"], solve["ties"], solve["gain"]) == (9, 0, True)
    # equal runs tie and claim nothing; one more failed task voids a gain
    assert (s["peak_rss_mb"]["wins"], s["peak_rss_mb"]["ties"]) == (0, 10)
    assert (s["setup_s"]["wins"], s["setup_s"]["gain"]) == (0, False)
    # every gap here is inside its bound, and every spread inside it too
    assert {name: m["verdict"] for name, m in s.items()} == dict.fromkeys(pairs.GATED, "held")
    runs[0] = (runs[0][0], _last_line(7.0, 0.5, 100.0, failed=1))
    assert not pairs.summarize(runs)["solve_s.min"]["gain"]


def test_pairs_verdict_against_the_bounds_of_benchmark_json():
    assert pairs.BOUNDS == {"solve_s.min": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}
    # solve: parent median 1.0 with IQR 0.55, a spread past the 25% bound
    parent = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
    # rss: +10.5% is past its 10% bound; setup: every change run beats
    # every parent run, so a spread past the bound resolves
    runs = [(_last_line(p, 1.0 + i / 10, 100.0), _last_line(p + 0.1, 0.1, 110.5))
            for i, p in enumerate(parent)]
    s = pairs.summarize(runs)
    assert s["solve_s.min"]["parent_iqr"] == pytest.approx(0.55)
    assert s["solve_s.min"]["gap"] == pytest.approx(0.1)
    assert {name: m["verdict"] for name, m in s.items()} == {
        "solve_s.min": "unresolved", "setup_s": "held", "peak_rss_mb": "worse"}
    # a gap past the bound is worse however wide the spread
    runs = [(par, _last_line(2.0, 0.1, 100.0)) for par, _ in runs]
    assert pairs.summarize(runs)["solve_s.min"]["verdict"] == "worse"
