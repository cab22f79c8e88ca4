import json
import warnings

import numpy as np
import pytest

from lqrnewton import config_from_dict, load_config, run_experiment
from lqrnewton.errors import ConfigError
from lqrnewton.experiment import TRACE_HEADER, trace_csv_text
from lqrnewton.optimize import OptimizerConfig, run
from lqrnewton import (Gain, benchmarks, cli, experiment, lqr, make_pendulum,
                       make_shear_building, initial_gain, optimal_gain, performance,
                       policy_gradient, validate)

from conftest import CRITERION_10_DOC


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
        # c_armijo and shrink are fixed constants of the line search, not fields
        for key in ("stepsize", "c_armijo", "shrink"):
            doc = {"problem": {"generator": "pendulum"},
                   "methods": [{"method": "newton", key: 0.5}]}
            with pytest.raises(ConfigError,
                               match=rf"^methods\[0\]: unknown field\(s\) {key}$"):
                config_from_dict(doc)

    def test_generator_requires_seed_when_random(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"problem": {"generator": "shear_building", "floors": 2}})

    @pytest.mark.parametrize("seed", [True, False, 1.0, "1"])
    def test_seed_must_be_an_integer(self, seed):
        # a JSON true is an int to isinstance, but not a seed
        doc = {"problem": {"generator": "shear_building", "floors": 2}, "seed": seed}
        with pytest.raises(ConfigError, match="seed: expected an integer"):
            config_from_dict(doc)

    @pytest.mark.parametrize("theta1, message", [
        ([0.0, 1.0, -1], "steps"), ([0.0, 1.0, 0], "steps"),
        ([0.0, float("inf"), 3], "finite"), ([float("nan"), 1.0, 3], "finite"),
        ([0.0, 1.0, float("inf")], "expected"), ([0.0, 1.0], "expected"),
        ([0.0, 1.0, 2.7], "integer"), ([0.0, 1.0, True], "integer"),
        (["0.0", 1.0, 3], "expected a number"), ([0.0, 1.0, 1e308], "steps"),
        ([0.0, 1.0, 2 ** 63], "steps")],
        ids=["negative-steps", "zero-steps", "infinite-bound", "nan-bound",
             "infinite-steps", "missing-steps", "fractional-steps", "bool-steps",
             "string-bound", "float-steps-beyond-the-bound", "int-steps-beyond-the-bound"])
    def test_landscape_ranges_validated(self, theta1, message):
        doc = {"problem": {"generator": "pendulum"},
               "landscape": {"theta1": theta1, "theta2": [0.0, 1.0, 3]}}
        with pytest.raises(ConfigError, match=rf"landscape\.theta1: .*{message}"):
            config_from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"problem": [1.0]}, r"problem: expected an object"),
        ({"methods": {"method": "newton"}}, r"methods: expected a list"),
        ({"methods": ["newton"]}, r"methods\[0\]: expected an object"),
        ({"emit": [True]}, r"emit: expected an object"),
        ({"emit": {"trace": True}}, r"emit: unknown field\(s\) trace"),
        ({"landscape": {"theta1": [0.0, 1.0, 3]}},
         r"landscape: expected an object with theta1 and theta2")],
        ids=["problem", "methods", "method", "emit", "emit-field", "landscape"])
    def test_a_node_of_the_wrong_kind_is_refused(self, doc, message):
        with pytest.raises(ConfigError, match=rf"^{message}$"):
            config_from_dict({"problem": {"generator": "pendulum"}, **doc})

    @pytest.mark.parametrize("problem, method, where", [
        ({"gamma": "0.9"}, {}, r"problem\.gamma"),
        ({"A": "0.5"}, {}, r"problem\.A"),
        ({}, {"alpha": "1.0"}, r"methods\[0\]\.alpha"),
        ({}, {"grad_tol": "1e-8"}, r"methods\[0\]\.grad_tol"),
        ({"generator": "shear_building", "floors": "3"}, {}, r"problem\.floors")],
        ids=["gamma", "A", "alpha", "grad_tol", "floors"])
    def test_a_string_is_not_a_number(self, problem, method, where):
        inline = {"A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                  "gamma": 0.9, "Sigma_w": [[1.0]], "Sigma_0": [[1.0]]}
        doc = {"problem": {**inline, **problem}, "seed": 0,
               "methods": [{"method": "newton", **method}]}
        if "generator" in problem:
            doc["problem"] = problem
        with pytest.raises(ConfigError, match=rf"^{where}: expected a number$"):
            config_from_dict(doc)

    @pytest.mark.parametrize("doc, where", [
        ({"gain": [[10 ** 400, 1]]}, "gain"),
        ({"seed_gain": [[1, -10 ** 400]]}, "seed_gain"),
        ({"methods": [{"method": "newton", "seed_gain": [[10 ** 400, 1]]}]},
         r"methods\[0\]\.seed_gain"),
        ({"methods": [{"method": "newton", "alpha": 10 ** 400}]}, r"methods\[0\]\.alpha")],
        ids=["gain", "seed_gain", "method-seed_gain", "alpha"])
    def test_an_integer_beyond_float_range_is_refused(self, tmp_path, capsys, doc, where):
        # JSON integers are exact; 10**400 passes 0 < alpha < inf
        doc = {"problem": {"generator": "pendulum"}, **doc}
        with pytest.raises(ConfigError, match=rf"^{where}: number beyond float range$"):
            config_from_dict(doc)
        path = write_config(tmp_path, doc)
        assert cli.main(["experiment", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    @pytest.mark.parametrize("field, where", [("gain", "gain"), ("A", r"problem\.A")],
                             ids=["gain", "A"])
    def test_a_nesting_deeper_than_a_matrix_is_refused(self, field, where):
        # 40 levels: numpy iterates over at most 32
        deep = [1.0]
        for _ in range(39):
            deep = [deep]
        inline = {"A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                  "gamma": 0.9, "Sigma_w": [[1.0]], "Sigma_0": [[1.0]]}
        doc = ({"problem": inline, "gain": deep} if field == "gain"
               else {"problem": {**inline, "A": deep}})
        with pytest.raises(ConfigError,
                           match=rf"^{where}: expected a 2-D row-major array, got ndim=40$"):
            config_from_dict(doc)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "problem": ,\n}', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_an_integer_too_long_to_parse_is_a_config_error(self, tmp_path):
        # json.loads raises a plain ValueError past 4300 digits
        path = tmp_path / "long.json"
        path.write_text('{"problem": {"generator": "pendulum"}, "gain": [[1'
                        + "0" * 5000 + ', 1]]}', encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
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

    def test_bytes_do_not_depend_on_the_lapack_wrapper(self, tmp_path, monkeypatch):
        # lqr calls geev and gesv directly; the experiment writes the same
        # bytes with numpy.linalg, which runs the same routines, in their place
        def geev(a, compute_vl, compute_vr):
            w = np.linalg.eigvals(a).astype(complex)
            return w.real.copy(), w.imag.copy(), None, None, 0

        def gesv(a, b):
            return None, None, np.linalg.solve(a, b), 0

        outs = []
        for sub in ("direct", "numpy"):
            if sub == "numpy":
                monkeypatch.setattr(lqr, "_geev", geev)
                monkeypatch.setattr(lqr, "_gesv", gesv)
            cfg = config_from_dict(CRITERION_10_DOC, output_dir=tmp_path / sub)
            assert run_experiment(cfg) == 0
            outs.append({p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())})
        assert len(outs[0]) == 4 and outs[0] == outs[1]

    def test_the_default_seed_is_made_only_for_a_method_without_one(self, tmp_path,
                                                                     monkeypatch):
        seed = initial_gain(make_pendulum()).K.tolist()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return optimal_gain(*args, **kwargs)

        # initial_gain is benchmarks' optimal_gain on the inflated plant
        for module in (experiment, benchmarks):
            monkeypatch.setattr(module, "optimal_gain", counted)
        methods = [dict(m, seed_gain=seed) for m in PENDULUM_DOC["methods"]]
        # no method without a seed: one call, for K*; one: and one for the seed
        for unseeded, want in ((0, 1), (1, 2)):
            calls.clear()
            doc = dict(PENDULUM_DOC, methods=PENDULUM_DOC["methods"][:unseeded]
                       + methods[unseeded:])
            cfg = config_from_dict(doc, output_dir=tmp_path / str(unseeded))
            assert run_experiment(cfg) == 0
            assert len(calls) == want

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

    def test_both_commands_default_to_one_window_centred_on_the_optimum(self, tmp_path):
        # no landscape key: 41 x 41 points within 1 of K*
        doc = {"problem": {"generator": "pendulum"}, "methods": [],
               "emit": {"trace_csv": False, "landscape_grid": True, "summary": False}}
        path = write_config(tmp_path, doc)
        for command, out in (("landscape", "a"), ("experiment", "b")):
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / out)]) == 0
        text = (tmp_path / "a" / "landscape.csv").read_bytes()
        assert (tmp_path / "b" / "landscape.csv").read_bytes() == text
        rows = [[float(x) for x in line.split(",")[:2]]
                for line in text.decode().splitlines()[1:]]
        assert len(rows) == 41 * 41
        k_star = optimal_gain(make_pendulum())[0].theta
        assert rows[0] == pytest.approx(k_star - 1.0, abs=1e-12)
        assert rows[len(rows) // 2] == pytest.approx(k_star, abs=1e-12)
        assert rows[-1] == pytest.approx(k_star + 1.0, abs=1e-12)

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
        # float() of these raises TypeError, not ValueError
        for i, gamma in enumerate(([0.9], None)):
            doc = {"problem": {"A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                               "gamma": gamma, "Sigma_w": [[1.0]], "Sigma_0": [[1.0]]}}
            cases.append(["solve", "--config", str(write_config(
                tmp_path, doc, name=f"gamma{i}.json"))])
        for argv in cases:
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert "config error" in err and "Traceback" not in err, argv
        for bad in bad_emits:
            with pytest.raises(ConfigError, match=rf"emit\.{next(iter(bad))}"):
                config_from_dict({**PENDULUM_DOC, "emit": bad})

    @pytest.mark.parametrize("field", ["Q", "Sigma_w"])
    def test_a_matrix_that_overflows_when_symmetrized_is_a_config_error(
            self, tmp_path, capsys, field):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        problem = {"A": eye, "B": [[0.0], [1.0]], "Q": eye, "R": [[1.0]], "gamma": 0.9,
                   "Sigma_w": eye, "Sigma_0": eye, field: [[1e308, 0.0], [0.0, 1.0]]}
        path = write_config(tmp_path, {"problem": problem})
        for command in (["optimize", "--method", "newton"], ["experiment"]):
            argv = [command[0], "--config", str(path), *command[1:],
                    "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err == f"config error: problem: {field} has non-finite entries\n"

    def test_an_asymmetric_matrix_whose_norm_overflows_is_a_config_error(
            self, tmp_path, capsys):
        # 1 + ||Q||_F and ||Q - Q'||_F are both inf
        eye = [[1.0, 0.0], [0.0, 1.0]]
        problem = {"A": eye, "B": [[0.0], [1.0]], "Q": [[1.0, 1e200], [-1e200, 1.0]],
                   "R": [[1.0]], "gamma": 0.9, "Sigma_w": eye, "Sigma_0": eye}
        path = write_config(tmp_path, {"problem": problem})
        assert cli.main(["solve", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "config error: problem: Q must be symmetric\n"

    def test_an_overflowing_trial_gain_ends_the_run_without_a_traceback(
            self, tmp_path, capsys):
        doc = {"problem": {"generator": "pendulum"},
               "methods": [{"method": "first_order", "step_mode": step_mode,
                            "alpha": 1e308, "max_iter": 3}
                           for step_mode in ("fixed", "backtracking")],
               "emit": {"trace_csv": False, "summary": True}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["experiment", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["methods"]["first_order"]["flag"] == "left_stabilizing_set"
        assert summary["methods"]["first_order_2"]["flag"] == "line_search_failure"
        assert cli.main(["optimize", "--config", str(path), "--method", "first_order"]) == 0
        captured = capsys.readouterr()
        assert "flag=left_stabilizing_set" in captured.out
        assert "Traceback" not in captured.err

    def test_a_gain_whose_closed_loop_overflows_is_refused_without_a_traceback(
            self, tmp_path, capsys):
        # the gains are finite, but B K overflows
        eye = [[1.0, 0.0], [0.0, 1.0]]
        doc = {"problem": {"A": [[1.2, 0.0], [0.0, 1.0]], "B": [[1e6], [0.0]], "Q": eye,
                           "R": [[1.0]], "gamma": 0.9, "Sigma_w": eye, "Sigma_0": eye},
               "gain": [[1e305, 1e305]], "seed_gain": [[1e305, 1e305]],
               "landscape": {"theta1": [1e305, 2e305, 2], "theta2": [0.0, 1.0, 2]}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        # the refusal is all that is reported: no numpy overflow warning first
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["solve", "--config", str(path)]) == 1
            solve_err = capsys.readouterr().err
            assert cli.main(["optimize", "--config", str(path), "--method", "newton"]) == 1
            optimize_err = capsys.readouterr().err
            assert cli.main(["landscape", "--config", str(path), "--out", str(out)]) == 0
            landscape_err = capsys.readouterr().err
        assert solve_err.startswith("error: NotStabilizing") and "Traceback" not in solve_err
        assert (optimize_err.startswith("error: SeedNotStabilizing")
                and "Traceback" not in optimize_err)
        assert "RuntimeWarning" not in solve_err + optimize_err + landscape_err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        rows = (out / "landscape.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 4 and all(row.endswith(",,false") for row in rows)

    def test_a_config_too_large_to_allocate_exits_without_a_traceback(
            self, tmp_path, capsys, monkeypatch):
        # numpy raises a private subclass of MemoryError; nothing is allocated
        class _ArrayMemoryError(MemoryError):
            pass

        def too_large(*args):
            raise _ArrayMemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "landscape", too_large)
        doc = {"problem": {"generator": "pendulum"},
               "landscape": {"theta1": [0.0, 1.0, 3], "theta2": [0.0, 1.0, 3]}}
        path = write_config(tmp_path, doc)
        assert cli.main(["landscape", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: MemoryError: Unable to allocate 7.28 TiB for an array\n"
        assert not (tmp_path / "out" / "landscape.csv").exists()

    def test_validate_runs_clean(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_validate_reports_failed_checks(self, monkeypatch, capsys):
        checks = (lambda: validate.CheckResult("a", True, "fine"),
                  lambda: validate.CheckResult("b", False, "off by 1"))
        monkeypatch.setattr(validate, "ALL_CHECKS", checks)
        assert cli.main(["validate"]) == 1
        assert capsys.readouterr().out == ("PASS: a -- fine\nFAIL: b -- off by 1\n"
                                           "1 check(s) failed\n")
