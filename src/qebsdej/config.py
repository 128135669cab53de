"""Experiment configuration: JSON schema, parsing, and validation.

Every run is fully determined by its configuration; in particular a seed is
mandatory, so no experiment carries implicit randomness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .drivers import Driver, StructureParams, make_driver
from .levy import LevyModel, UnknownPresetError, make_model
from .scheme import Schedule
from .solver import DYNAMICS, JUMP_IMPACTS

EXPERIMENTS = ("solve", "scheme", "audit", "risk", "oracle")


class ConfigError(ValueError):
    """Configuration failed to parse or validate; carries the field path."""

    def __init__(self, fieldpath: str, message: str):
        self.fieldpath = fieldpath
        super().__init__(f"config field '{fieldpath}': {message}")


def _need(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return section[key]


def _as_float(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected a number, got {value!r}") from None


def _as_positive(value, path: str) -> float:
    v = _as_float(value, path)
    if v <= 0:
        raise ConfigError(path, "must be positive")
    return v


def _as_int(value, path: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected an integer, got {value!r}") from None


def _check_build(section: str, build) -> None:
    """Run a factory so that a bad preset name or parameter is reported as a
    configuration error instead of a crash at run time."""
    try:
        build()
    except UnknownPresetError as exc:
        raise ConfigError(f"{section}.name", str(exc)) from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(section, str(exc)) from None


@dataclass
class ExperimentConfig:
    experiment: str
    raw: dict
    model: dict = field(default_factory=dict)
    driver: dict = field(default_factory=dict)
    structure: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    ensemble: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)
    terminal: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    risk: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return int(self.ensemble["seed"])

    def build_model(self) -> LevyModel:
        params = {k: v for k, v in self.model.items() if k != "name"}
        return make_model(self.model.get("name", "gamma"), **params)

    def build_structure(self) -> StructureParams:
        return StructureParams.from_constants(
            float(self.structure.get("delta", 1.0)),
            float(self.structure.get("l", 0.0)),
            float(self.structure.get("c", 0.0)))

    def build_driver(self, structure: StructureParams) -> Driver:
        params = {k: v for k, v in self.driver.items() if k != "name"}
        return make_driver(self.driver.get("name", "canonical"), structure, **params)

    def build_schedule(self) -> Schedule:
        return Schedule(self.schedule.get("triples", ()), self.seed)

    def terminal_fn(self):
        name = self.terminal.get("name", "linear")
        scale = float(self.terminal.get("scale", 1.0))
        shift = float(self.terminal.get("shift", 0.0))
        if name == "linear":
            return lambda x: scale * np.asarray(x, dtype=float) + shift
        if name == "abs_linear":
            return lambda x: np.abs(scale * np.asarray(x, dtype=float)) + shift
        if name == "constant":
            value = float(self.terminal.get("value", 1.0))
            return lambda x: np.full(np.asarray(x).shape, value)
        raise UnknownPresetError(f"unknown terminal '{name}'")

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, float(self.grid["t_end"]),
                           int(self.grid["k_steps"]) + 1)


def validate_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("<root>", "top level must be a JSON object")
    experiment = _need(data, "experiment", "<root>")
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment",
                          f"unknown experiment '{experiment}'; choose from {EXPERIMENTS}")
    cfg = ExperimentConfig(
        experiment=experiment, raw=data,
        model=data.get("model", {"name": "gamma"}),
        driver=data.get("driver", {"name": "canonical"}),
        structure=data.get("structure", {}),
        grid=data.get("grid", {}),
        ensemble=data.get("ensemble", {}),
        quadrature=data.get("quadrature", {}),
        terminal=data.get("terminal", {}),
        solver=data.get("solver", {}),
        schedule=data.get("schedule", {}),
        risk=data.get("risk", {}),
        oracle=data.get("oracle", {}),
    )
    if experiment == "oracle":
        if "name" not in cfg.oracle:
            raise ConfigError("oracle.name", "missing required field")
        return cfg

    ens = cfg.ensemble
    if "seed" not in ens:
        raise ConfigError("ensemble.seed", "missing required field "
                          "(no implicit randomness)")
    _as_int(ens["seed"], "ensemble.seed")
    if _as_int(_need(ens, "n_paths", "ensemble"), "ensemble.n_paths") < 100:
        raise ConfigError("ensemble.n_paths", "need at least 100 paths")
    dynamics = ens.get("dynamics", "brownian_jumps")
    if dynamics not in DYNAMICS:
        raise ConfigError("ensemble.dynamics",
                          f"unknown dynamics '{dynamics}'; choose from {DYNAMICS}")
    if "jump_impact" in ens and ens["jump_impact"] not in JUMP_IMPACTS:
        raise ConfigError("ensemble.jump_impact", f"unknown jump_impact "
                          f"'{ens['jump_impact']}'; choose from {JUMP_IMPACTS}")
    # optional numeric settings are read at run time; check the ones present
    for path, parse, least in (("ensemble.x0", _as_float, -math.inf),
                               ("ensemble.d", _as_int, 1),
                               ("quadrature.q_nodes", _as_int, 2),
                               ("solver.basis_degree", _as_int, 0),
                               ("solver.picard_max", _as_int, 1),
                               ("solver.picard_tol", _as_float, 0.0),
                               ("solver.export_paths", _as_int, -math.inf)):
        section, key = path.split(".")
        values = getattr(cfg, section)
        if key in values and parse(values[key], path) < least:
            raise ConfigError(path, f"must be at least {least}")
    _as_positive(_need(cfg.grid, "t_end", "grid"), "grid.t_end")
    k_steps = _as_int(_need(cfg.grid, "k_steps", "grid"), "grid.k_steps")
    if k_steps < 2:
        raise ConfigError("grid.k_steps", "need at least 2 steps")
    _check_build("model", cfg.build_model)
    _check_build("structure", cfg.build_structure)
    _check_build("driver", lambda: cfg.build_driver(cfg.build_structure()))
    _check_build("terminal", cfg.terminal_fn)
    kappa = _as_positive(cfg.quadrature.get("kappa", 8.0), "quadrature.kappa")
    if kappa < 1.0:
        raise ConfigError("quadrature.kappa", "must be at least 1")
    if experiment == "scheme":
        _check_build("schedule.triples", cfg.build_schedule)
    if experiment == "risk":
        times = cfg.risk.get("times", [0])
        if (not isinstance(times, (list, tuple)) or 0 not in times
                or not all(type(k) is int and 0 <= k <= k_steps for k in times)):
            raise ConfigError("risk.times", "need a list of integer steps in "
                              f"[0, {k_steps}] that includes 0")
        gammas = cfg.risk.get("gammas", [])
        if not isinstance(gammas, list):
            raise ConfigError("risk.gammas", "need a list of positive numbers")
        for gamma in gammas:
            _as_positive(gamma, "risk.gammas")
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("<file>", f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    return validate_config(data)
