"""Experiment configuration and file emission.

A configuration is one JSON document (matrices as nested row-major arrays):

    {
      "problem": {"generator": "pendulum"}
               | {"generator": "shear_building", "floors": 24, ...}
               | {"A": [[...]], "B": [[...]], "Q": [[...]], "R": [[...]],
                  "gamma": 0.9, "Sigma_w": [[...]], "Sigma_0": [[...]]},
      "gain": [[...]],                 # optional, used by `solve`
      "seed_gain": [[...]],            # optional common optimizer seed
      "methods": [{"method": "newton", "step_mode": "fixed", "alpha": 1.0,
                   "grad_tol": 1e-8, "max_iter": 50, ...}, ...],
      "seed": 0,                       # required when a generator is random
      "output_dir": "out",
      "emit": {"trace_csv": true, "landscape_grid": false, "summary": true},
      "landscape": {"theta1": [lo, hi, steps], "theta2": [lo, hi, steps]}
    }

Per-method trace CSVs use the exact header
``k,J,grad_norm,gain_error,alpha,backtracks`` with '.' decimals and
round-trip float precision; identical configs and seeds produce
byte-identical files. All writes are write-then-rename.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, LqrError
from .lqr import Gain, LqrProblem, optimal_gain
from .optimize import OptimizerConfig, RunRecord, run
from .benchmarks import (default_landscape_window, initial_gain, landscape,
                         make_pendulum, make_shear_building)

TRACE_HEADER = "k,J,grad_norm,gain_error,alpha,backtracks"
# Most points a landscape axis may have; np.linspace fails on counts such
# as 2**63, and a grid is evaluated cell by cell
_MAX_GRID_STEPS = 10 ** 4


@dataclass
class EmitFlags:
    trace_csv: bool = True
    landscape_grid: bool = False
    summary: bool = True


@dataclass
class ExperimentConfig:
    """Validated experiment description ready to run."""

    problem: LqrProblem
    methods: list[OptimizerConfig]
    labels: list[str]
    output_dir: Path
    emit: EmitFlags = field(default_factory=EmitFlags)
    landscape_ranges: Optional[tuple] = None
    gain: Optional[Gain] = None
    seed_gain: Optional[Gain] = None


def _number(node, path: str):
    """A JSON number, unchanged; a string, a bool, an integer beyond float
    range or anything else is refused."""
    # a JSON true is an int to isinstance
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    # JSON integers are exact: 10**400 would pass 0 < alpha < inf, then fail
    # in the first float operation
    try:
        float(node)
    except OverflowError:
        raise ConfigError(f"{path}: number beyond float range") from None
    return node


def _matrix(node, path: str) -> np.ndarray:
    # dtype=float would also take "0.5" and true; a ragged nesting leaves
    # lists among the entries
    arr = np.array(node, dtype=object)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    # before arr.flat, which raises RuntimeError past 32 dimensions
    if arr.ndim != 2:
        raise ConfigError(f"{path}: expected a 2-D row-major array, got ndim={arr.ndim}")
    for x in arr.flat:
        _number(x, path)
    return arr.astype(float)


def _gain(node, path: str, prob: LqrProblem) -> Gain:
    K = _matrix(node, path)
    if K.shape != (prob.m, prob.n):
        raise ConfigError(f"{path}: expected shape ({prob.m}, {prob.n}), got {K.shape}")
    if not np.all(np.isfinite(K)):
        raise ConfigError(f"{path}: entries must be finite")
    return Gain(K)


def _problem_from(node, seed, path: str = "problem") -> LqrProblem:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object")
    if "generator" in node:
        gen = node["generator"]
        kwargs = {k: v for k, v in node.items() if k != "generator"}
        # every generator parameter is a number
        for k, v in kwargs.items():
            _number(v, f"{path}.{k}")
        try:
            if gen == "pendulum":
                return make_pendulum(**kwargs)
            if gen == "shear_building":
                if "seed" not in kwargs:
                    if seed is None:
                        raise ConfigError(
                            f"{path}: shear_building is randomized; provide a seed")
                    kwargs["seed"] = seed
                return make_shear_building(**kwargs)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        raise ConfigError(f"{path}.generator: unknown generator {gen!r}")
    required = ("A", "B", "Q", "R", "gamma", "Sigma_w", "Sigma_0")
    missing = [k for k in required if k not in node]
    if missing:
        raise ConfigError(f"{path}: missing field(s) {', '.join(missing)}")
    try:
        return LqrProblem(
            A=_matrix(node["A"], f"{path}.A"),
            B=_matrix(node["B"], f"{path}.B"),
            Q=_matrix(node["Q"], f"{path}.Q"),
            R=_matrix(node["R"], f"{path}.R"),
            gamma=_number(node["gamma"], f"{path}.gamma"),
            Sigma_w=_matrix(node["Sigma_w"], f"{path}.Sigma_w"),
            Sigma_0=_matrix(node["Sigma_0"], f"{path}.Sigma_0"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _method_from(node, idx: int, prob: LqrProblem) -> OptimizerConfig:
    path = f"methods[{idx}]"
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(node) - {f.name for f in fields(OptimizerConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {', '.join(sorted(unknown))}")
    kwargs = dict(node)
    for f in fields(OptimizerConfig):
        # the numeric settings are the ones with numeric defaults
        if f.name in kwargs and isinstance(f.default, (int, float)):
            _number(kwargs[f.name], f"{path}.{f.name}")
    if "seed_gain" in kwargs:
        kwargs["seed_gain"] = _gain(kwargs["seed_gain"], f"{path}.seed_gain", prob)
    try:
        return OptimizerConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _grid_range(node, path: str) -> tuple[float, float, int]:
    try:
        lo, hi = (float(_number(x, path)) for x in node[:2])
        raw = node[2]
        steps = int(raw)
    except (TypeError, ValueError, OverflowError, IndexError, KeyError):
        raise ConfigError(f"{path}: expected [lo, hi, steps]") from None
    # int() would truncate 2.7 to 2 and true to 1
    if isinstance(raw, bool) or steps != raw:
        raise ConfigError(f"{path}: steps must be an integer, got {raw!r}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"{path}: bounds must be finite")
    if not 1 <= steps <= _MAX_GRID_STEPS:
        raise ConfigError(f"{path}: steps must lie in [1, {_MAX_GRID_STEPS}], got {steps}")
    return lo, hi, steps


def config_from_dict(doc: dict, output_dir=None) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    if "problem" not in doc:
        raise ConfigError("top level: missing field 'problem'")
    seed = doc.get("seed")
    # a JSON true is an int to isinstance, and would pass as seed 1
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError("seed: expected an integer")
    problem = _problem_from(doc["problem"], seed)

    methods_node = doc.get("methods", [])
    if not isinstance(methods_node, list):
        raise ConfigError("methods: expected a list")
    methods = [_method_from(m, i, problem) for i, m in enumerate(methods_node)]

    labels: list[str] = []
    for cfg in methods:
        label = cfg.method
        if label in labels:
            label = f"{cfg.method}_{sum(l.startswith(cfg.method) for l in labels) + 1}"
        labels.append(label)

    emit_node = doc.get("emit", {})
    if not isinstance(emit_node, dict):
        raise ConfigError("emit: expected an object")
    unknown = set(emit_node) - {f.name for f in fields(EmitFlags)}
    if unknown:
        raise ConfigError(f"emit: unknown field(s) {', '.join(sorted(unknown))}")
    for name, flag in emit_node.items():
        if not isinstance(flag, bool):
            raise ConfigError(f"emit.{name}: expected true or false, got {flag!r}")
    emit = EmitFlags(**emit_node)

    ranges = None
    if "landscape" in doc:
        node = doc["landscape"]
        if not isinstance(node, dict) or not {"theta1", "theta2"} <= set(node):
            raise ConfigError("landscape: expected an object with theta1 and theta2")
        ranges = (_grid_range(node["theta1"], "landscape.theta1"),
                  _grid_range(node["theta2"], "landscape.theta2"))

    out = Path(output_dir if output_dir is not None else doc.get("output_dir", "out"))
    gain = _gain(doc["gain"], "gain", problem) if "gain" in doc else None
    seed_gain = _gain(doc["seed_gain"], "seed_gain", problem) if "seed_gain" in doc else None
    return ExperimentConfig(problem=problem, methods=methods, labels=labels,
                            output_dir=out, emit=emit,
                            landscape_ranges=ranges, gain=gain,
                            seed_gain=seed_gain)


def load_config(path, output_dir=None, seed=None) -> ExperimentConfig:
    """Read and validate a JSON config file; ``seed`` overrides the file's.

    Unreadable files, JSON syntax errors (with their line and column) and
    integers too long to parse raise ConfigError; field errors carry the
    field path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:
        # an integer of more digits than Python converts (4300 by default)
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if seed is not None and isinstance(doc, dict):
        doc["seed"] = seed
    return config_from_dict(doc, output_dir=output_dir)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_atomic(path: Path, text: str) -> None:
    """Write-then-rename so concurrent readers never see partial files."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def trace_csv_text(record: RunRecord) -> str:
    lines = [TRACE_HEADER]
    for s in record.steps:
        lines.append(",".join([str(s.k), _fmt(s.J), _fmt(s.grad_norm),
                               _fmt(s.gain_error), _fmt(s.alpha_used),
                               str(s.backtracks)]))
    return "\n".join(lines) + "\n"


def landscape_csv_text(grid) -> str:
    lines = ["theta1,theta2,J,stabilizing"]
    for i, a in enumerate(grid.theta1):
        for j, b in enumerate(grid.theta2):
            ok = grid.stabilizing[i, j]
            jval = _fmt(grid.J[i, j]) if ok else ""
            lines.append(f"{_fmt(a)},{_fmt(b)},{jval},{str(bool(ok)).lower()}")
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run every configured method, emit files, and return an exit status.

    0 when everything ran; 1 when any method failed (failures are recorded
    in the summary and do not abort the other methods). Methods share no
    state and could run concurrently; they run sequentially here so outputs
    are reproducible without coordination. Identical configs and seeds
    produce byte-identical files.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    k_star, _ = optimal_gain(cfg.problem)
    # initial_gain is a second optimal_gain; it runs only for a method
    # that brings no seed of its own
    default_seed = cfg.seed_gain

    summary: dict = {"methods": {}}
    status = 0
    for label, mcfg in zip(cfg.labels, cfg.methods):
        if mcfg.seed_gain is None:
            if default_seed is None:
                default_seed = initial_gain(cfg.problem)
            mcfg = replace(mcfg, seed_gain=default_seed)
        try:
            record = run(cfg.problem, mcfg, k_star=k_star)
        except LqrError as exc:
            summary["methods"][label] = {"error": f"{type(exc).__name__}: {exc}"}
            status = 1
            continue
        last = record.steps[-1]
        summary["methods"][label] = {
            "iterations": record.iterations,
            "converged": record.converged,
            "flag": record.flag,
            "final_J": last.J,
            "final_grad_norm": last.grad_norm,
            "final_gain_error": last.gain_error,
        }
        if cfg.emit.trace_csv:
            write_atomic(out / f"trace_{label}.csv", trace_csv_text(record))

    if cfg.emit.landscape_grid:
        ranges = cfg.landscape_ranges
        if ranges is None:
            ranges = default_landscape_window(cfg.problem, k_star=k_star)
        grid = landscape(cfg.problem, *ranges)
        write_atomic(out / "landscape.csv", landscape_csv_text(grid))

    if cfg.emit.summary:
        write_atomic(out / "summary.json",
                     json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return status
