import json

import numpy as np
import pytest

from lqrnewton import config_from_dict, load_config, run_experiment
from lqrnewton.errors import ConfigError
from lqrnewton.experiment import TRACE_HEADER, trace_csv_text
from lqrnewton.optimize import OptimizerConfig, run
from lqrnewton import (Gain, cli, make_pendulum, make_shear_building, initial_gain,
                       performance, policy_gradient)


PENDULUM_DOC = {
    "problem": {"generator": "pendulum"},
    "methods": [
        {"method": "newton", "step_mode": "fixed", "alpha": 1.0,
         "grad_tol": 1e-8, "max_iter": 40},
        {"method": "gauss_newton", "step_mode": "fixed", "alpha": 0.5,
         "grad_tol": 1e-8, "max_iter": 200},
        {"method": "first_order", "step_mode": "backtracking", "alpha": 1.0,
         "grad_tol": 1e-8, "max_iter": 40},
    ],
    "seed": 0,
    "emit": {"trace_csv": True, "summary": True},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_inline_problem_round_trip(self):
        doc = {
            "problem": {"A": [[0.5, 0.0], [0.0, 0.5]], "B": [[1.0], [0.0]],
                        "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
                        "gamma": 0.9, "Sigma_w": [[0.0, 0.0], [0.0, 0.0]],
                        "Sigma_0": [[1.0, 0.0], [0.0, 1.0]]},
            "methods": [{"method": "newton"}],
        }
        cfg = config_from_dict(doc)
        assert cfg.problem.n == 2 and cfg.problem.m == 1
        # row-major nested lists land unchanged
        np.testing.assert_array_equal(cfg.problem.B, [[1.0], [0.0]])

    def test_missing_problem(self):
        with pytest.raises(ConfigError, match="problem"):
            config_from_dict({"methods": []})

    def test_missing_matrix_field_reports_path(self):
        doc = {"problem": {"A": [[1.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                           "gamma": 0.9, "Sigma_w": [[0.0]]}}
        with pytest.raises(ConfigError, match="Sigma_0"):
            config_from_dict(doc)

    def test_invalid_method_field_reports_index(self):
        doc = {"problem": {"generator": "pendulum"},
               "methods": [{"method": "newton"}, {"method": "sgd"}]}
        with pytest.raises(ConfigError, match=r"methods\[1\]"):
            config_from_dict(doc)

    def test_unknown_method_key_rejected(self):
        doc = {"problem": {"generator": "pendulum"},
               "methods": [{"method": "newton", "stepsize": 1.0}]}
        with pytest.raises(ConfigError, match="stepsize"):
            config_from_dict(doc)

    def test_generator_requires_seed_when_random(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"problem": {"generator": "shear_building", "floors": 2}})

    @pytest.mark.parametrize("theta1, message", [
        ([0.0, 1.0, -1], "steps"), ([0.0, 1.0, 0], "steps"),
        ([0.0, float("inf"), 3], "finite"), ([float("nan"), 1.0, 3], "finite"),
        ([0.0, 1.0, float("inf")], "expected"), ([0.0, 1.0], "expected"),
        ([0.0, 1.0, 2.7], "integer"), ([0.0, 1.0, True], "integer")],
        ids=["negative-steps", "zero-steps", "infinite-bound", "nan-bound",
             "infinite-steps", "missing-steps", "fractional-steps", "bool-steps"])
    def test_landscape_ranges_validated(self, theta1, message):
        doc = {"problem": {"generator": "pendulum"},
               "landscape": {"theta1": theta1, "theta2": [0.0, 1.0, 3]}}
        with pytest.raises(ConfigError, match=rf"landscape\.theta1: .*{message}"):
            config_from_dict(doc)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "problem": ,\n}', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_duplicate_method_labels(self):
        doc = {"problem": {"generator": "pendulum"},
               "methods": [{"method": "newton"}, {"method": "newton"}]}
        cfg = config_from_dict(doc)
        assert cfg.labels == ["newton", "newton_2"]


class TestTraceCsv:
    def test_schema(self, tmp_path):
        prob = make_pendulum()
        seed = initial_gain(prob)
        rec = run(prob, OptimizerConfig(method="newton", step_mode="fixed",
                                        alpha=1.0, grad_tol=1e-8, max_iter=40,
                                        seed_gain=seed))
        text = trace_csv_text(rec)
        lines = text.strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) - 1 == rec.iterations + 1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 6
            assert np.isfinite(float(fields[1]))
            # round-trip precision
            assert float(fields[1]) == rec.steps[int(fields[0])].J


class TestRunExperiment:
    def test_emits_expected_files(self, tmp_path):
        cfg = config_from_dict(PENDULUM_DOC, output_dir=tmp_path / "out")
        status = run_experiment(cfg)
        assert status == 0
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["summary.json", "trace_first_order.csv",
                         "trace_gauss_newton.csv", "trace_newton.csv"]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert set(summary["methods"]) == {"newton", "gauss_newton", "first_order"}
        assert summary["methods"]["newton"]["converged"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = config_from_dict(PENDULUM_DOC, output_dir=tmp_path / "a")
        cfg2 = config_from_dict(PENDULUM_DOC, output_dir=tmp_path / "b")
        assert run_experiment(cfg1) == 0
        assert run_experiment(cfg2) == 0
        for name in ["trace_newton.csv", "trace_gauss_newton.csv",
                     "trace_first_order.csv", "summary.json"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_method_failure_recorded_not_fatal(self, tmp_path):
        doc = dict(PENDULUM_DOC)
        doc["methods"] = [
            # tiny backtracking budget forces a line-search failure flag (not
            # an error); an unstable fixed first-order step flags as well, so
            # use a seed_gain too far out to stabilize for a hard error
            {"method": "newton", "step_mode": "fixed", "alpha": 1.0,
             "grad_tol": 1e-8, "max_iter": 40},
            {"method": "first_order", "step_mode": "fixed", "alpha": 1.0,
             "grad_tol": 1e-8, "max_iter": 5, "seed_gain": [[1e6, 1e6]]},
        ]
        cfg = config_from_dict(doc, output_dir=tmp_path / "out")
        status = run_experiment(cfg)
        assert status == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "error" in summary["methods"]["first_order"]
        assert summary["methods"]["newton"]["converged"]

    def test_building_newton_reaches_tight_error(self, tmp_path):
        seed_gain = initial_gain(make_shear_building(seed=0), r_inflation=2.0)
        doc = {
            "problem": {"generator": "shear_building"},
            "seed": 0,
            "seed_gain": seed_gain.K.tolist(),
            "methods": [{"method": "newton", "step_mode": "fixed", "alpha": 1.0,
                         "grad_tol": 1e-10, "max_iter": 30}],
            "emit": {"trace_csv": True, "summary": True},
        }
        cfg = config_from_dict(doc, output_dir=tmp_path / "out")
        assert run_experiment(cfg) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        newton = summary["methods"]["newton"]
        assert newton["final_gain_error"] <= 1e-8
        assert newton["iterations"] <= 30

    def test_landscape_emission(self, tmp_path):
        doc = {
            "problem": {"generator": "pendulum"},
            "methods": [],
            "emit": {"trace_csv": False, "landscape_grid": True, "summary": False},
            "landscape": {"theta1": [120.0, 130.0, 3], "theta2": [93.0, 103.0, 3]},
        }
        cfg = config_from_dict(doc, output_dir=tmp_path / "out")
        assert run_experiment(cfg) == 0
        text = (tmp_path / "out" / "landscape.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "theta1,theta2,J,stabilizing"
        assert len(lines) == 1 + 9


class TestCli:
    def test_solve_prints_quantities(self, tmp_path, capsys):
        doc = {"problem": {"generator": "pendulum"}, "gain": [[60.0, 44.0]]}
        path = write_config(tmp_path, doc)
        assert cli.main(["solve", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        for token in ("P =", "q =", "Sigma =", "J =", "grad ="):
            assert token in out
        prob, gain = make_pendulum(), Gain([[60.0, 44.0]])
        lines = out.splitlines()
        assert f"J = {performance(prob, gain)!r}" in lines
        grad = policy_gradient(prob, gain)
        assert f"grad = {np.array2string(grad, separator=', ')}" in lines

    def test_optimize_writes_trace(self, tmp_path, capsys):
        path = write_config(tmp_path, PENDULUM_DOC)
        code = cli.main(["optimize", "--config", str(path), "--method", "newton",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "trace_newton.csv").exists()
        assert "converged=True" in capsys.readouterr().out

    def test_optimize_tol_override(self, tmp_path, capsys):
        path = write_config(tmp_path, PENDULUM_DOC)
        code = cli.main(["optimize", "--config", str(path), "--method", "newton",
                         "--tol", "1e-2", "--max-iter", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged=True" in out

    def test_experiment_command(self, tmp_path, capsys):
        path = write_config(tmp_path, PENDULUM_DOC)
        code = cli.main(["experiment", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_landscape_command(self, tmp_path):
        doc = {"problem": {"generator": "pendulum"},
               "landscape": {"theta1": [120.0, 130.0, 3], "theta2": [93.0, 103.0, 3]}}
        path = write_config(tmp_path, doc)
        code = cli.main(["landscape", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "landscape.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": {"generator": "nonesuch"}})
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"problem": ', encoding="utf-8")
        as_list = write_config(tmp_path, [PENDULUM_DOC], name="list.json")
        missing = str(tmp_path / "missing.json")
        pendulum = write_config(tmp_path, PENDULUM_DOC, name="pendulum.json")
        bad_steps = write_config(tmp_path, {
            "problem": {"generator": "pendulum"},
            "landscape": {"theta1": [0.0, 1.0, -1], "theta2": [0.0, 1.0, 3]}},
            name="steps.json")
        cases = [["solve", "--config", str(path)],
                 ["optimize", "--config", str(pendulum), "--method", "newton",
                  "--tol", "-1"],
                 ["optimize", "--config", str(pendulum), "--method", "newton",
                  "--max-iter", "0"],
                 ["landscape", "--config", str(bad_steps)],
                 ["experiment", "--config", str(malformed), "--seed", "1"],
                 ["experiment", "--config", str(as_list), "--seed", "1"],
                 ["solve", "--config", missing],
                 ["optimize", "--config", missing, "--method", "newton"],
                 ["experiment", "--config", missing, "--seed", "1"],
                 ["landscape", "--config", missing]]
        bad_gains = ([[float("nan"), 1.0]], [[1.0, 2.0, 3.0]])
        for i, K in enumerate(bad_gains):
            for cmd, field in (("solve", "gain"), ("experiment", "seed_gain")):
                doc = {**PENDULUM_DOC, field: K}
                cases.append([cmd, "--config", str(write_config(
                    tmp_path, doc, name=f"{field}{i}.json"))])
        bad_fields = [{"max_backtracks": "x"}, {"max_iter": 2.5},
                      {"alpha": float("inf")}, {"max_backtracks": -1},
                      {"newton_damping": float("inf")}, {"newton_damping": float("nan")},
                      *({"seed_gain": K} for K in bad_gains)]
        for i, bad in enumerate(bad_fields):
            doc = {**PENDULUM_DOC, "methods": [{**PENDULUM_DOC["methods"][0], **bad}]}
            cases.append(["experiment", "--config", str(write_config(
                tmp_path, doc, name=f"method{i}.json")), "--seed", "1"])
        # a truthy non-boolean such as "no" would otherwise switch the file on
        bad_emits = [{"trace_csv": "no"}, {"summary": 0}, {"landscape_grid": None}]
        for i, bad in enumerate(bad_emits):
            doc = {**PENDULUM_DOC, "emit": {**PENDULUM_DOC["emit"], **bad}}
            cases.append(["experiment", "--config", str(write_config(
                tmp_path, doc, name=f"emit{i}.json")), "--seed", "1"])
        for argv in cases:
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert "config error" in err and "Traceback" not in err, argv
        for bad in bad_emits:
            with pytest.raises(ConfigError, match=rf"emit\.{next(iter(bad))}"):
                config_from_dict({**PENDULUM_DOC, "emit": bad})

    def test_validate_runs_clean(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 7
