"""Experiment configuration: JSON schema, parsing, and validation.

Every run is fully determined by its configuration; in particular a seed is
mandatory, so no experiment carries implicit randomness.  :data:`SETTINGS` and
:data:`ORACLES` give each setting its parser, default and lower bound; model
and driver parameters are checked by their factories.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import oracles
from .drivers import Driver, StructureParams, make_driver
from .levy import (EXP_CAP, KAPPA_MAX, LevyModel, UnknownPresetError, make_model,
                   truncated_mass_reference)
from .risk import DIRECTIONS
from .scheme import Schedule
from .solver import DYNAMICS, JUMP_IMPACTS

EXPERIMENTS = ("solve", "scheme", "audit", "risk", "oracle")

TERMINALS = {
    "linear": lambda x, scale, shift, value: scale * np.asarray(x, dtype=float) + shift,
    "abs_linear": lambda x, scale, shift, value:
        np.abs(scale * np.asarray(x, dtype=float)) + shift,
    "constant": lambda x, scale, shift, value: np.full(np.asarray(x).shape, value),
}


class ConfigError(ValueError):
    """Configuration failed to parse or validate; carries the field path."""

    def __init__(self, fieldpath: str, message: str):
        self.fieldpath = fieldpath
        super().__init__(f"config field '{fieldpath}': {message}")


def _number(cast: Callable, noun: str, most: float = math.inf) -> Callable:
    def parse(value):
        try:
            number = cast(value)
            if math.isfinite(number) and number <= most:
                return number + 0  # -0.0 passes a ">= 0" bound; read it as 0.0
        except (TypeError, ValueError, OverflowError):
            pass
        raise ValueError(f"expected {noun}, got {value!r}")
    return parse


def _accept(test: Callable, noun: str) -> Callable:
    def parse(value):
        if not test(value):
            raise ValueError(f"expected {noun}, got {value!r}")
        return value
    return parse


def _choice(names) -> Callable:
    names = tuple(names)
    return _accept(lambda value: value in names, f"one of {names}")


def _list(item: Callable) -> Callable:
    def parse(value):
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {value!r}")
        return [item(v) for v in value]
    return parse


def _integral(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("fractional part")
    return int(value)


_int, _float = _number(_integral, "an integer"), _number(float, "a finite number")
_flag = _accept(lambda value: type(value) is bool, "true or false")
_step = _accept(lambda value: type(value) is int, "an integer step")


REQUIRED = object()

# Building the quadrature runs two adaptive integrals per cell, about 0.5 ms
# a cell, and the solve regresses one jump loading per live node at every step.
Q_NODES_MAX = 1000
# Regression.fit's coefficient error grows like cond(design)^2 * eps: against
# lstsq it reads 1.4e-13 at degree 8 and 5.2e-12 at 9 (400 normal states).
BASIS_DEGREE_MAX = 8
# An ensemble holds n_paths x k_steps Brownian increments and several more
# arrays of that size (state, solution, generator values and decomposition
# increments), and each step of the solve holds arrays of n_paths x the
# quadrature's nodes (loadings and their regression targets).  The shipped
# solve, 1e5 x (50 + 5) = 5.5e6 such cells, peaks at 280 MB (37 MB of it the
# imports), so this bound keeps a run near 0.9 GB.
PATH_CELLS_MAX = 2e7
# The jump table keeps four 8-byte columns per jump and the sampler joins its
# per-step parts, about 64 bytes a jump at the peak: 640 MB at this bound.
EXPECTED_JUMPS_MAX = 1e7


class Setting(NamedTuple):
    """One configuration key.  ``parse`` reads the raw value and raises
    ``ValueError`` or ``TypeError`` on a bad one; a parsed number, or each
    item of a parsed list, must be at least ``least`` (above it when
    ``strict``); ``default`` fills an absent key."""

    parse: Callable
    default: object = REQUIRED
    least: float | None = None
    strict: bool = False


SETTINGS = {
    "ensemble": {
        "seed": Setting(_int, least=0),
        "n_paths": Setting(_int, least=100),
        "dynamics": Setting(_choice(DYNAMICS), "brownian_jumps"),
        "jump_impact": Setting(_choice(JUMP_IMPACTS), "unit"),
        "x0": Setting(_float, 0.0),
    },
    "grid": {
        "t_end": Setting(_float, least=0.0, strict=True),
        "k_steps": Setting(_int, least=2),
    },
    "quadrature": {
        "kappa": Setting(_number(float, f"a number <= {KAPPA_MAX:g}", KAPPA_MAX), 8.0,
                         least=1.0),
        "q_nodes": Setting(_number(_integral, f"an integer <= {Q_NODES_MAX:g}", Q_NODES_MAX),
                           12, least=2),
    },
    "solver": {
        "basis_degree": Setting(_number(_integral, f"an integer <= {BASIS_DEGREE_MAX:g}",
                                        BASIS_DEGREE_MAX), 3, least=0),
        "picard_max": Setting(_int, 50, least=1),
        "picard_tol": Setting(_float, 1e-10, least=0.0, strict=True),
        "export_paths": Setting(_int, 50),
        "export_jumps": Setting(_flag, False),
    },
    # required by scheme runs only
    "schedule": {"triples": Setting(lambda v: Schedule(_list(_list(_int))(v)), None)},
    "risk": {
        "times": Setting(_list(_step), [0], least=0),
        "gammas": Setting(_list(_float), [1.0, 2.0], least=0.0, strict=True),
    },
    "structure": {
        "delta": Setting(_float, 1.0, least=0.0, strict=True),
        "l": Setting(_float, 0.0, least=0.0),
        "c": Setting(_float, 0.0, least=0.0),
    },
    "terminal": {
        "name": Setting(_choice(TERMINALS), "linear"),
        "scale": Setting(_float, 1.0),
        "shift": Setting(_float, 0.0),
        "value": Setting(_float, 1.0),
    },
}

# a smaller sample gives no usable standard error: two Poisson(10) counts
# agree about 9% of the time, and the Doleans estimate then reads v +- 0
_SAMPLING = {"n_samples": Setting(_int, 200000, least=20),
             "seed": Setting(_int, 0, least=0)}
_HORIZON = {"t_end": Setting(_float, 1.0, least=0.0)}

# oracle name -> (estimator in qebsdej.oracles, table of its parameters)
ORACLES = {
    "entropic_gaussian": (oracles.entropic_gaussian_mc, {
        "sigma": Setting(_float, 1.0, least=0.0),
        "direction": Setting(_choice(DIRECTIONS), "upper"), **_SAMPLING}),
    "huber_envelope": (oracles.huber_envelope_value,
                       {"n": Setting(_float, 2.0), "y": Setting(_float, 3.0)}),
    "girsanov_tilt": (oracles.girsanov_tilt_mc, {
        "b": Setting(_float, 0.0), "c_tilde": Setting(_float, 0.0, least=-1.0),
        "mass": Setting(_float, 1.0, least=0.0), "x0": Setting(_float, 0.0),
        "impact": Setting(_float, 1.0), **_HORIZON, **_SAMPLING}),
    "brownian_doleans": (oracles.brownian_doleans_mc, {**_HORIZON, **_SAMPLING}),
    "compound_poisson_doleans": (oracles.compound_poisson_doleans_mc, {
        "u": Setting(_number(float, f"a number <= {EXP_CAP:g}", EXP_CAP), 0.3),
        "mass": Setting(_float, 2.0, least=0.0),
        **_HORIZON, **_SAMPLING}),
    "null_measure": (oracles.null_measure_oracle, {}),
}

# numpy.random.Generator.poisson refuses larger means
POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)

# The oracles that average an exponential have relative sample variance
# expm1(s) for the spread s below.  Past s = ln(n_samples) the relative
# standard error of their mean exceeds about 1, and far past it every sample
# underflows (the estimate reads 0 +- 0) or one overflows.
LOG_SPREAD = {
    "entropic_gaussian": lambda p: p["sigma"] * p["sigma"],
    "brownian_doleans": lambda p: p["t_end"],
    "compound_poisson_doleans": lambda p: (p["mass"] * p["t_end"] * math.expm1(p["u"])
                                          * math.expm1(p["u"])),
}
# a jump oracle's sample expecting fewer jumps than this, but some, mostly
# sees none, so its jump part reads 0 and its standard error misses it (a
# Doleans sample's reads 0); one expecting none has its exact law
ORACLE_JUMPS_MIN = 20.0

TOP_LEVEL_KEYS = ("experiment", "model", "driver", "oracle", *SETTINGS)


def _read_section(name: str, table: dict, raw) -> dict:
    """Parse section ``name`` against its table, filling in defaults."""
    for key in raw:
        if key not in table:
            raise ConfigError(f"{name}.{key}", f"unknown key; choose from {sorted(table)}")
    out = {}
    for key, setting in table.items():
        path = f"{name}.{key}"
        if key not in raw:
            if setting.default is REQUIRED:
                raise ConfigError(path, "missing required field")
            out[key] = setting.default
            continue
        try:
            value = setting.parse(raw[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(path, str(exc)) from None
        if setting.least is not None:
            for item in value if isinstance(value, list) else [value]:
                if item < setting.least or (setting.strict and item == setting.least):
                    raise ConfigError(path, f"must be {'>' if setting.strict else '>='} "
                                      f"{setting.least:g}")
        out[key] = value
    return out


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
    """A validated configuration.  ``raw`` is the input exactly as written;
    the table sections are parsed copies with every default filled in."""

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

    def build_model(self) -> LevyModel:
        params = {k: v for k, v in self.model.items() if k != "name"}
        return make_model(self.model.get("name", "gamma"), **params)

    def build_structure(self) -> StructureParams:
        return StructureParams(**self.structure)

    def build_driver(self, structure: StructureParams) -> Driver:
        params = {k: v for k, v in self.driver.items() if k != "name"}
        return make_driver(self.driver.get("name", "canonical"), structure, **params)

    def terminal_fn(self):
        t = self.terminal
        return functools.partial(TERMINALS[t["name"]], scale=t["scale"],
                                 shift=t["shift"], value=t["value"])


def validate_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("<root>", "top level must be a JSON object")
    if "experiment" not in data:
        raise ConfigError("<root>.experiment", "missing required field")
    experiment = data["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment",
                          f"unknown experiment '{experiment}'; choose from {EXPERIMENTS}")
    for name in data:
        if name not in TOP_LEVEL_KEYS:
            raise ConfigError(name, f"unknown key; choose from {TOP_LEVEL_KEYS}")
        if name != "experiment" and not isinstance(data[name], dict):
            raise ConfigError(name, "expected an object")
    cfg = ExperimentConfig(experiment=experiment, raw=data,
                           model=data.get("model", {}),
                           driver=data.get("driver", {}),
                           oracle=data.get("oracle", {}))
    if experiment == "oracle":
        params = dict(cfg.oracle)
        name = params.pop("name", None)
        if not isinstance(name, str) or name not in ORACLES:
            raise ConfigError("oracle.name", f"expected one of {sorted(ORACLES)}, "
                              f"got {name!r}")
        p = cfg.oracle = dict(name=name, **_read_section("oracle", ORACLES[name][1], params))
        # the jump oracles draw Poisson counts of mean (1 + c_tilde) mass t_end
        jump_mean = ((1.0 + p.get("c_tilde", 0.0)) * p["mass"] * p["t_end"]
                     if "mass" in p else 0.0)
        if jump_mean > POISSON_MEAN_MAX:
            raise ConfigError("oracle.mass", f"Poisson mean above {POISSON_MEAN_MAX:g}")
        if name in LOG_SPREAD:
            spread, most = LOG_SPREAD[name](p), math.log(p["n_samples"])
            if spread > most:
                raise ConfigError("oracle", "the sample cannot resolve the mean: log(1 + "
                                  f"relative variance) = {spread:g} is above "
                                  f"ln(n_samples) = {most:g}")
        if 0.0 < jump_mean * p.get("n_samples", 0) < ORACLE_JUMPS_MIN:
            raise ConfigError("oracle", "the sample cannot resolve the mean: it expects "
                              f"{jump_mean * p['n_samples']:g} jumps, fewer than "
                              f"{ORACLE_JUMPS_MIN:g}")
        return cfg
    for name, table in SETTINGS.items():
        setattr(cfg, name, _read_section(name, table, data.get(name, {})))
    if experiment == "scheme" and cfg.schedule["triples"] is None:
        raise ConfigError("schedule.triples", "missing required field")
    k_steps = cfg.grid["k_steps"]
    if experiment == "risk" and (0 not in cfg.risk["times"]
                                 or max(cfg.risk["times"]) > k_steps):
        raise ConfigError("risk.times", "need a list of integer steps in "
                          f"[0, {k_steps}] that includes 0")
    _check_build("model", cfg.build_model)
    _check_build("driver", lambda: cfg.build_driver(cfg.build_structure()))
    if experiment in ("solve", "audit"):
        # the solve's implicit step contracts only below 1; a scheme's
        # triples carry their envelopes' bounds, and a failing one is data
        dt_lip = cfg.grid["t_end"] / k_steps * cfg.build_driver(cfg.build_structure()).lip_y
        if dt_lip >= 1.0:
            raise ConfigError("grid.k_steps", f"dt * Lipschitz(y) of the driver = "
                              f"{dt_lip:.3g} >= 1; refine the grid")
    _check_size(cfg)
    return cfg


def _check_size(cfg: ExperimentConfig) -> None:
    """Refuse an ensemble too large to allocate; see the bounds above.  The
    quadrature has ``q_nodes + 1`` nodes on each side of the mark space, the
    tail node among them, and a ladder's has one more for each scheduled cut
    ``1/kappa`` above its inner edge."""
    ens, grid = cfg.ensemble, cfg.grid
    model = cfg.build_model()
    kappas = ({t[2] for t in cfg.schedule["triples"].triples} if cfg.experiment == "scheme"
              else {cfg.quadrature["kappa"]})
    nodes = model.n_sides * (cfg.quadrature["q_nodes"] + len(kappas))
    cells = ens["n_paths"] * (grid["k_steps"] + nodes)
    if cells > PATH_CELLS_MAX:
        raise ConfigError("ensemble", f"n_paths * (k_steps + {nodes} quadrature nodes) "
                          f"= {cells:g} is above {PATH_CELLS_MAX:g}")
    jumps = ens["n_paths"] * grid["t_end"] * truncated_mass_reference(model, max(kappas))
    if not jumps <= EXPECTED_JUMPS_MAX:
        raise ConfigError("ensemble", f"n_paths * t_end * jump mass = {jumps:g} expected "
                          f"jumps is above {EXPECTED_JUMPS_MAX:g}")


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
