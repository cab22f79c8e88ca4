"""A bounded mutation sweep of the command line: every leaf of three small
configs is set to a wrong type, a number at or beyond float range, NaN, a
ragged array, or deleted, and solve, optimize, landscape and experiment run
on each result through cli.main. Every run must end with exit status 0 or 1;
a traceback is a failure.

``max_iter = 2**63`` is left out: a run that stalls would then take that
many iterations, which is the line search's defect, not the parser's.
"""

import contextlib
import copy
import io
import json

import pytest

from lqrnewton import cli

EYE = [[1.0, 0.0], [0.0, 1.0]]
BASES = {
    "pendulum": {
        "problem": {"generator": "pendulum", "ts": 0.1},
        "methods": [{"method": "first_order", "step_mode": "backtracking", "alpha": 1.0,
                     "max_backtracks": 30, "grad_tol": 1e-8, "max_iter": 3}],
        "seed": 0, "seed_gain": [[30.0, 10.0]],
        "landscape": {"theta1": [20.0, 40.0, 2], "theta2": [5.0, 15.0, 2]},
        "emit": {"trace_csv": True, "summary": True, "landscape_grid": True}},
    "inline": {
        "problem": {"A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [1.0]], "Q": EYE,
                    "R": [[0.1]], "gamma": 0.9, "Sigma_w": [[0.01, 0.0], [0.0, 0.01]],
                    "Sigma_0": EYE},
        "methods": [{"method": "newton", "max_iter": 3}], "gain": [[1.0, 1.0]],
        "landscape": {"theta1": [0.0, 2.0, 2], "theta2": [0.0, 2.0, 2]}},
    "building": {
        "problem": {"generator": "shear_building", "floors": 3, "seed": 1, "damping": 0.01},
        "methods": [{"method": "newton", "max_iter": 3}]},
}
DELETE = object()
VALUES = {"str": "x", "1e308": 1e308, "2**63": 2 ** 63,
          "10**400": 10 ** 400, "nan": float("nan"), "ragged": [[1.0], [1.0, 2.0]],
          "deleted": DELETE}
COMMANDS = (["solve"], ["optimize", "--method", "newton", "--max-iter", "3"], ["landscape"],
            ["experiment"])


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _cases():
    for name, base in BASES.items():
        for path in _leaves(base):
            for label, value in VALUES.items():
                if path[-1] == "max_iter" and label == "2**63":
                    continue
                where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
                yield pytest.param(name, path, value, id=f"{name}{where}={label}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep")


@pytest.mark.parametrize("base, path, value", list(_cases()))
def test_a_mutated_config_exits_0_or_1(workdir, base, path, value):
    doc = copy.deepcopy(BASES[base])
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    config = workdir / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    for command in COMMANDS:
        argv = [command[0], "--config", str(config), *command[1:]]
        if command[0] != "solve":
            argv += ["--out", str(workdir / "out")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 1), argv
