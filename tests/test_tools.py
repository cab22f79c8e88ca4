import importlib.util
from pathlib import Path

from lqrnewton import (Gain, OptimizerConfig, derivatives, lqr, make_shear_building,
                       optimal_gain, run)

_PARITY = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", _PARITY)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

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
