import contextlib
import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qebsdej
from qebsdej import levy
from qebsdej.cli import main
from qebsdej.config import (ORACLES, SETTINGS, TERMINALS, TOP_LEVEL_KEYS,
                            ConfigError, _int, load_config, validate_config)
from qebsdej.levy import (KAPPA_MAX, MASS_FLOOR, build_quadrature,
                          truncated_mass_reference)
from qebsdej.runner import (EXIT_CHECK_FAILURE, EXIT_CONFIG_ERROR, EXIT_OK)
from qebsdej.solver import DYNAMICS, JUMP_IMPACTS

from references import girsanov_tilt_exact

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


def write_config(tmp_path: Path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def _package_env():
    """The environment of a fresh interpreter that imports this package."""
    return dict(os.environ, PYTHONPATH=str(Path(qebsdej.__file__).parents[1]))


def solve_payload(**overrides):
    payload = {
        "experiment": "solve",
        "model": {"name": "gamma", "theta": 1.0, "beta": 1.0},
        "driver": {"name": "zero"},
        "structure": {"delta": 1.0},
        "grid": {"t_end": 1.0, "k_steps": 8},
        "quadrature": {"kappa": 4.0, "q_nodes": 6},
        "ensemble": {"n_paths": 2000, "seed": 11, "dynamics": "brownian"},
        "terminal": {"name": "linear", "scale": 1.0},
    }
    payload.update(overrides)
    return payload


def scheme_payload(seed=8):
    payload = solve_payload(experiment="scheme")
    payload["driver"] = {"name": "canonical"}
    payload["schedule"] = {"triples": [[2, 2, 2], [4, 4, 4]]}
    payload["ensemble"] = {"n_paths": 3000, "seed": seed,
                           "dynamics": "brownian_jumps"}
    payload["grid"] = {"t_end": 1.0, "k_steps": 12}
    payload["terminal"] = {"name": "abs_linear", "scale": 0.25}
    return payload


def risk_payload():
    payload = solve_payload(experiment="risk")
    payload["risk"] = {"times": [0, 4], "gammas": [1.0]}
    payload["terminal"] = {"name": "linear", "scale": 0.5}
    return payload


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_missing_file_reported():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.json")


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "solve",\n  "grid": }')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_missing_seed_rejected(tmp_path):
    payload = solve_payload()
    del payload["ensemble"]["seed"]
    with pytest.raises(ConfigError, match="ensemble.seed"):
        load_config(write_config(tmp_path, "x.json", payload))


def test_small_ensemble_rejected():
    payload = solve_payload()
    payload["ensemble"]["n_paths"] = 50
    with pytest.raises(ConfigError, match="n_paths"):
        validate_config(payload)


def test_unknown_names_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        validate_config(solve_payload(experiment="explore"))
    with pytest.raises(ConfigError, match="model.name"):
        validate_config(solve_payload(model={"name": "vol"}))
    with pytest.raises(ConfigError, match="driver.name"):
        validate_config(solve_payload(driver={"name": "mystery"}))
    with pytest.raises(ConfigError, match="dynamics"):
        validate_config(solve_payload(
            ensemble={"n_paths": 2000, "seed": 1, "dynamics": "garch"}))


def test_scheme_requires_triples():
    payload = solve_payload(experiment="scheme")
    with pytest.raises(ConfigError, match="schedule.triples"):
        validate_config(payload)


def test_grid_validation():
    payload = solve_payload(grid={"t_end": 1.0, "k_steps": 1})
    with pytest.raises(ConfigError, match="k_steps"):
        validate_config(payload)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


TABLE_KEYS = [(section, key) for section, table in SETTINGS.items()
              for key in table]
NOT_A_NUMBER = st.text().filter(
    lambda s: not _is_number(s) and s not in {*DYNAMICS, *JUMP_IMPACTS, *TERMINALS})


@pytest.mark.parametrize("section,key", TABLE_KEYS,
                         ids=[f"{s}.{k}" for s, k in TABLE_KEYS])
@settings(max_examples=25, deadline=None)
@given(text=NOT_A_NUMBER, offset=st.integers(min_value=1, max_value=10**6))
def test_bad_setting_is_refused(section, key, text, offset):
    # a non-numeric string, and a value below the key's bound, for every key
    setting = SETTINGS[section][key]
    bad = [text]
    if setting.least is not None:
        below = setting.least - offset + (1 if setting.strict else 0)
        bad.append([below] if isinstance(setting.default, list) else below)
    for value in bad:
        payload = solve_payload()
        payload.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            validate_config(payload)


@settings(max_examples=100, deadline=None)
@given(section=st.sampled_from([None, *SETTINGS]), key=st.text())
@example(section="ensemble", key="d")  # the Brownian motion is one-dimensional
def test_extra_key_is_refused(section, key):
    payload = solve_payload()
    target = payload if section is None else payload.setdefault(section, {})
    if key in (TOP_LEVEL_KEYS if section is None else SETTINGS[section]):
        return
    target[key] = 1.0
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config(payload)


INTEGER_KEYS = [(section, key) for section, key in TABLE_KEYS
                if SETTINGS[section][key].parse is _int]
DRIVER_PARAMETERS = {"a", "b", "c_tilde", "beta"}


@st.composite
def invalid_configs(draw):
    """A config with an unknown driver parameter, a non-integral value of an
    integer key, or an unknown or unparsable oracle parameter."""
    kind = draw(st.sampled_from(["driver", "integer", "oracle"]))
    payload = solve_payload()
    if kind == "driver":
        key = draw(st.text().filter(lambda k: k not in {"name", *DRIVER_PARAMETERS}))
        name = draw(st.sampled_from(["canonical", "linear", "morlais", "zero"]))
        payload["driver"] = {"name": name, key: 0.5}
    elif kind == "integer":
        section, key = draw(st.sampled_from(INTEGER_KEYS))
        whole = int(SETTINGS[section][key].least or 0) + draw(st.integers(0, 1000))
        payload.setdefault(section, {})[key] = whole + draw(st.floats(0.01, 0.99))
    else:
        name = draw(st.sampled_from(sorted(ORACLES)))
        table = ORACLES[name][1]
        if table and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(table)))
            value = draw(NOT_A_NUMBER.filter(lambda s: s not in ("upper", "lower")))
        else:
            key = draw(st.text().filter(lambda k: k not in {"name", *table}))
            value = 1.0
        payload = {"experiment": "oracle", "oracle": {"name": name, key: value}}
    return payload


@settings(max_examples=40, deadline=None)
@given(payload=invalid_configs())
def test_validate_verb_refuses_invalid_config(tmp_path_factory, payload):
    path = write_config(tmp_path_factory.mktemp("fuzz"), "cfg.json", payload)
    assert main(["validate", path]) == EXIT_CONFIG_ERROR


RUN_MODELS = {
    "gamma": {"theta": st.floats(0.0, 10.0), "beta": st.floats(0.1, 10.0)},
    "stable": {"theta": st.floats(0.0, 10.0), "alpha": st.floats(0.1, 1.99)},
    "normal": {"rate": st.floats(0.0, 10.0), "loc": st.floats(-5.0, 5.0),
               "scale": st.floats(0.01, 2.0)},
    "null": {},
}
RUN_DRIVERS = {
    "canonical": {}, "zero": {},
    "linear": {"a": st.floats(-2.0, 2.0), "b": st.floats(-2.0, 2.0),
               "c_tilde": st.floats(-0.99, 0.99)},
    "morlais": {"beta": st.floats(0.0, 2.0)},
}


@st.composite
def small_run_configs(draw):
    """A config of any experiment that runs on an ensemble, with each setting
    drawn across a wide range but the sizes kept small: 100-300 paths, 2-6
    steps and 2-6 mark nodes."""
    def section(name, table):
        return {"name": name, **{key: draw(value) for key, value in table.items()}}

    experiment = draw(st.sampled_from(["solve", "scheme", "audit", "risk"]))
    k_steps = draw(st.integers(2, 6))
    payload = {
        "experiment": experiment,
        "model": section(*draw(st.sampled_from(sorted(RUN_MODELS.items())))),
        "driver": section(*draw(st.sampled_from(sorted(RUN_DRIVERS.items())))),
        "structure": {"delta": draw(st.floats(0.1, 4.0)), "l": draw(st.floats(0.0, 2.0)),
                      "c": draw(st.floats(0.0, 2.0))},
        "grid": {"t_end": draw(st.floats(0.05, 2.0)), "k_steps": k_steps},
        "quadrature": {"kappa": draw(st.floats(1.0, 64.0)), "q_nodes": draw(st.integers(2, 6))},
        "ensemble": {"n_paths": draw(st.integers(100, 300)), "seed": draw(st.integers(0, 2**31)),
                     "dynamics": draw(st.sampled_from(DYNAMICS)),
                     "jump_impact": draw(st.sampled_from(JUMP_IMPACTS)),
                     "x0": draw(st.floats(-2.0, 2.0))},
        "terminal": {"name": draw(st.sampled_from(sorted(TERMINALS))),
                     "scale": draw(st.floats(-2.0, 2.0)), "shift": draw(st.floats(-1.0, 1.0)),
                     "value": draw(st.floats(-2.0, 2.0))},
        "solver": {"basis_degree": draw(st.integers(0, 8)),
                   "picard_max": draw(st.integers(1, 50)),
                   "picard_tol": 10.0 ** draw(st.floats(-12.0, -2.0)),
                   "export_paths": draw(st.integers(-1, 5)),
                   "export_jumps": draw(st.booleans())},
    }
    if experiment == "scheme":
        triple, triples = [0, 0, 0], []
        for _ in range(draw(st.integers(1, 3))):
            triple = [i + draw(st.integers(1 if not triples else 0, 4)) for i in triple]
            triples.append(triple)
        payload["schedule"] = {"triples": triples}
    if experiment == "risk":
        payload["risk"] = {"times": [0, *draw(st.lists(st.integers(0, k_steps), max_size=3))],
                           "gammas": draw(st.lists(st.floats(0.1, 4.0), min_size=1, max_size=3))}
    return payload


@settings(max_examples=30, deadline=None)
@given(payload=small_run_configs())
def test_run_verb_never_crashes_on_an_accepted_config(tmp_path_factory, payload):
    # an accepted config ends in a verdict, 0 or 1, never in a crash (70)
    try:
        validate_config(payload)
    except ConfigError:
        assume(False)
    root = tmp_path_factory.mktemp("run")
    path = write_config(root, "cfg.json", payload)
    assert main(["--log-level", "ERROR", "run", path, "--out", str(root / "out")]) in (
        EXIT_OK, EXIT_CHECK_FAILURE)


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_validates(path):
    assert main(["validate", str(path)]) == EXIT_OK


# ---------------------------------------------------------------------------
# CLI verbs and exit codes
# ---------------------------------------------------------------------------

def test_validate_verb(tmp_path):
    cfg = write_config(tmp_path, "ok.json", solve_payload())
    assert main(["validate", cfg]) == EXIT_OK


def test_validate_counts_every_node_of_a_symmetric_quadrature(tmp_path):
    # 1000 cells and the tail node on each side: 2002 nodes, so the fields
    # hold 19000 * (2 + 2002) = 3.8e7 cells, above the 2e7 bound
    payload = solve_payload(model={"name": "stable", "theta": 1.0, "alpha": 0.5},
                            quadrature={"kappa": 8.0, "q_nodes": 1000},
                            grid={"t_end": 1.0, "k_steps": 2})
    payload["ensemble"]["n_paths"] = 19000
    with pytest.raises(ConfigError, match="2002 quadrature nodes"):
        validate_config(payload)
    assert main(["validate", write_config(tmp_path, "wide.json", payload)]) == EXIT_CONFIG_ERROR


def test_run_solve_and_artifacts(tmp_path):
    cfg = write_config(tmp_path, "run.json", solve_payload())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert "OVERALL PASS" in summary
    assert "PASS terminal_match value=0 tol=0 vacuous: the solve sets y_T = xi" in summary
    assert re.search(r"^PASS reconstruction_identity value=\S+ tol=1e-10 "
                     r"vacuous: M is the residue y - y0 \+ V$", summary, re.M)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["package"] == "qebsdej"
    assert "config_sha256" in manifest
    # the artifacts' last bits depend on the BLAS
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["numpy"] == np.__version__
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert (out / "solution_summary.csv").exists()
    assert (out / "solution_paths.csv").exists()


def test_martingale_check_regresses_at_solver_degree(tmp_path, monkeypatch):
    from qebsdej import runner

    real_test = runner.martingale_regression_test
    degrees = []

    def spy(increments, ensemble, basis_degree):
        degrees.append(basis_degree)
        return real_test(increments, ensemble, basis_degree)

    monkeypatch.setattr(runner, "martingale_regression_test", spy)
    cfg = write_config(tmp_path, "deg1.json",
                       solve_payload(solver={"basis_degree": 1}))
    assert main(["run", cfg, "--out", str(tmp_path / "deg1")]) in (
        EXIT_OK, EXIT_CHECK_FAILURE)
    assert degrees == [1]


def test_run_is_bit_deterministic(tmp_path):
    cfg = write_config(tmp_path, "det.json", solve_payload())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["run", cfg, "--out", str(out2)]) == EXIT_OK
    for name in ("solution_summary.csv", "solution_paths.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("payload", [solve_payload(), scheme_payload(), risk_payload()],
                         ids=["solve", "scheme", "risk"])
def test_run_is_bit_deterministic_across_processes(tmp_path, payload):
    # the bits are a function of the config and the seed alone, so a fresh
    # interpreter (as the benchmark's gate runs them) writes the same bytes
    cfg = write_config(tmp_path, "det.json", payload)
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    assert main(["run", cfg, "--out", str(here)]) == EXIT_OK
    env = _package_env()
    proc = subprocess.run([sys.executable, "-m", "qebsdej.cli", "run", cfg,
                           "--out", str(fresh)], capture_output=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    names = sorted(p.name for p in here.glob("*.csv"))
    assert names and names == sorted(p.name for p in fresh.glob("*.csv"))
    for name in names + ["summary.txt"]:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize("name", ["solve_martingale", "risk_gaussian"])
def test_shipped_run_is_bit_identical_at_one_and_two_blas_threads(tmp_path, name):
    # every reduction over paths runs in an order of its own (blocks of
    # QR_ROWS rows, or a NumPy sum), not in one the BLAS picks per thread count
    config = next(str(path) for path in CONFIGS if path.stem == name)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(_package_env(), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "qebsdej.cli", "run", config,
                               "--out", str(out)], capture_output=True, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert "summary.txt" in names and names == sorted(p.name for p in outs[1].iterdir())
    for artifact in names:
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact


def _risk(times):
    return dict(experiment="risk", risk={"times": times, "gammas": [1.0]})


def _ensemble(**fields):
    return dict(ensemble={"n_paths": 2000, "seed": 1, "dynamics": "brownian",
                          **fields})


@pytest.mark.parametrize("overrides", [
    _ensemble(n_paths="many"),
    dict(model={"name": "gamma", "thetaa": 1.0}),
    dict(structure={"delta": 0.0}),
    _risk([4]),
    _risk([0, 9]),
    _risk([0, 2.5]),
    _ensemble(x0="abc"),
    _ensemble(d=1),
    _ensemble(jump_impact="size"),
    dict(quadrature={"kappa": 4.0, "q_nodes": "many"}),
    dict(quadrature={"kappa": 4.0, "q_nodes": 1}),
    dict(solver={"basis_degree": "three"}),
    dict(solver={"picard_max": "lots"}),
    dict(solver={"export_paths": "all"}),
    dict(experiment="risk", risk={"times": [0], "gammas": ["one"]}),
    dict(comment="a key nothing reads"),
    _ensemble(paths=2000),
    dict(solver={"picard_tolerance": 1e-8}),
    dict(grid={"t_end": 1.0, "k_steps": 2.7}),
    dict(driver={"name": "linear", "aa": 0.5}),
    dict(model={"name": "gamma", "zeta": 0.5}),
    dict(model={"name": "gamma", "c_nu": 1}),
    dict(model={"name": "gamma", "beta": 0}),
    dict(model={"name": "normal", "scale": 0}),
    dict(model={"name": "normal", "loc": 1e5, "scale": 1e-4}),
    dict(model={"name": "gamma", "theta": "abc"}),
    dict(model={"name": "gamma", "theta": -1}),
    dict(model={"name": "gamma", "theta": 1e6},
         ensemble={"n_paths": 100000, "seed": 1, "dynamics": "brownian"}),
    dict(quadrature={"kappa": 4.0, "q_nodes": 1e9}),
    dict(grid={"t_end": 1.0, "k_steps": 1e9}),
    dict(solver={"basis_degree": 9}),
], ids=["n_paths_not_a_number", "misspelled_model_parameter", "zero_delta",
        "risk_without_time_zero", "risk_time_beyond_grid",
        "risk_time_not_a_step", "x0_not_a_number", "ensemble_d_is_unknown",
        "unknown_jump_impact",
        "q_nodes_not_a_number", "one_quadrature_cell",
        "basis_degree_not_a_number", "picard_max_not_a_number",
        "export_paths_not_a_number", "gamma_not_a_number",
        "unknown_top_level_key", "unknown_ensemble_key", "unknown_solver_key",
        "k_steps_not_integral", "misspelled_driver_parameter", "zeta_from_json",
        "c_nu_is_unknown", "gamma_beta_zero", "normal_scale_zero",
        "normal_profile_finer_than_its_marks",
        "theta_not_a_number", "negative_theta", "expected_jumps_beyond_memory",
        "q_nodes_beyond_build_time", "k_steps_beyond_memory",
        "basis_degree_beyond_accuracy"])
def test_bad_config_exits_2(tmp_path, overrides):
    cfg = write_config(tmp_path, "bad.json", solve_payload(**overrides))
    out = tmp_path / "nothing"
    assert main(["run", cfg, "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()


MODEL_KEYS = {name: list(inspect.signature(factory).parameters)
              for name, factory in levy._MODEL_FACTORIES.items()}


@st.composite
def model_sections(draw):
    """A model section with any subset of its factory's parameters set, each
    to a number of any magnitude or sign, or to a value of another type."""
    name = draw(st.sampled_from(sorted(MODEL_KEYS)))
    # the null factory takes no parameters, and sampled_from([]) raises
    keys = draw(st.lists(st.sampled_from(MODEL_KEYS[name]), unique=True)
                if MODEL_KEYS[name] else st.just([]))
    value = st.one_of(st.floats(-10.0, 10.0), st.floats(), st.integers(-3, 3),
                      st.booleans(), st.none(), st.text(max_size=3))
    return {"name": name, **{key: draw(value) for key in keys}}


@settings(max_examples=100, deadline=None)
@given(model=model_sections(), kappa=st.floats(1.0, KAPPA_MAX),
       q_nodes=st.integers(2, 24))
def test_accepted_model_builds_its_quadrature(model, kappa, q_nodes):
    try:
        cfg = validate_config(solve_payload(
            model=model, quadrature={"kappa": kappa, "q_nodes": q_nodes}))
    except ConfigError:
        return
    quad = build_quadrature(cfg.build_model(), cfg.quadrature["kappa"],
                            cfg.quadrature["q_nodes"])
    assert np.all(np.isfinite(quad.weights)) and quad.weights.min() >= 0.0


@st.composite
def normal_sections(draw):
    """A normal model section and a truncation level anywhere in their
    accepted ranges; half the draws put the cut inside the profile."""
    kappa = 10.0 ** draw(st.floats(0.0, 6.0))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    loc = draw(st.one_of(st.floats(-1e6, 1e6),
                         st.floats(-45.0, 45.0).map(lambda z: 1.0 / kappa - z * scale)))
    return {"name": "normal", "rate": draw(st.floats(0.0, 1e6)), "loc": loc,
            "scale": scale}, kappa


@settings(max_examples=100, deadline=None)
@given(setting=normal_sections())
def test_accepted_normal_model_keeps_its_mass(setting):
    model, kappa = setting
    try:
        cfg = validate_config(solve_payload(
            model=model, quadrature={"kappa": kappa, "q_nodes": 12}))
    except ConfigError:
        return
    exact = model["rate"] * 0.5 * math.erfc((1.0 / kappa - model["loc"])
                                            / (model["scale"] * math.sqrt(2.0)))
    built = cfg.build_model()
    for mass in (build_quadrature(built, kappa, 12).total_mass,
                 truncated_mass_reference(built, kappa)):
        assert abs(mass - exact) <= 1e-8 * exact + MASS_FLOOR


def test_config_error_exit_code(tmp_path):
    payload = solve_payload()
    del payload["ensemble"]["seed"]
    cfg = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "nothing"
    assert main(["run", cfg, "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()  # no artifacts on config failure


def test_oracle_verb(tmp_path):
    cfg = write_config(tmp_path, "oracle.json", {
        "experiment": "oracle",
        "oracle": {"name": "huber_envelope", "n": 2.0, "y": 3.0},
    })
    out = tmp_path / "oracle_out"
    assert main(["oracle", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "oracle_values.csv").read_text().splitlines()
    assert rows[0] == "name,value,stderr"
    assert rows[1].startswith("huber_envelope,5")


def test_unknown_oracle_rejected(tmp_path):
    cfg = write_config(tmp_path, "noracle.json", {
        "experiment": "oracle", "oracle": {"name": "prophecy"},
    })
    assert main(["oracle", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("oracle", [
    {"name": "huber_envelope", "n": "abc"},
    {"name": "huber_envelope", "m": 2.0},
    {"name": "entropic_gaussian", "n_samples": 1000.5},
    {"name": "entropic_gaussian", "direction": "sideways"},
    {"name": "girsanov_tilt", "seed": -1},
    {"name": "compound_poisson_doleans", "u": 1000},
    {"name": "girsanov_tilt", "mass": 1e20},
    {"name": "compound_poisson_doleans", "mass": 1e20},
    {"name": "compound_poisson_doleans", "mass": 1e6, "n_samples": 2000},
    {"name": "compound_poisson_doleans", "mass": 1e3},
    {"name": "compound_poisson_doleans", "u": 40.0, "mass": 1.0},
    {"name": "compound_poisson_doleans", "mass": 1e-5},
    {"name": "brownian_doleans", "t_end": 2000.0},
    {"name": "entropic_gaussian", "sigma": 40.0},
    {"name": "compound_poisson_doleans", "mass": 10.0, "u": 0.2, "n_samples": 2},
    {"name": "girsanov_tilt", "mass": 0.0625, "impact": 9.223372036854774e18,
     "n_samples": 28},
], ids=["n_not_a_number", "unknown_parameter", "n_samples_not_integral",
        "unknown_direction", "negative_seed", "exponent_overflows",
        "tilt_poisson_mean_too_large", "doleans_poisson_mean_too_large",
        "doleans_sample_underflows", "doleans_relative_se_above_one",
        "doleans_large_jump_exponent", "doleans_too_few_jumps",
        "brownian_doleans_underflows", "entropic_gaussian_overflows",
        "sample_too_small_for_a_standard_error", "tilt_too_few_jumps"])
def test_bad_oracle_parameter_exits_2(tmp_path, oracle):
    cfg = write_config(tmp_path, "bad_oracle.json",
                       {"experiment": "oracle", "oracle": oracle})
    out = tmp_path / "nothing"
    assert main(["oracle", cfg, "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()


def _oracle_row(out: Path):
    _, row = (out / "oracle_values.csv").read_text().splitlines()
    _, value, stderr = row.split(",")
    return float(value), float(stderr)


@pytest.mark.parametrize("zero", ["mass", "t_end"])
def test_doleans_oracle_without_jumps_is_exact(tmp_path, zero):
    # a sample that expects no jump at all is degenerate, not too small
    cfg = write_config(tmp_path, "nojump.json", {
        "experiment": "oracle", "oracle": {"name": "compound_poisson_doleans", zero: 0.0}})
    out = tmp_path / "nout"
    assert main(["oracle", cfg, "--out", str(out)]) == EXIT_OK
    assert _oracle_row(out) == (1.0, 0.0)


def test_negative_zero_reads_as_zero(tmp_path):
    # -0.0 passes the t_end >= 0 bound; as a sampling scale it crashed numpy
    cfg = write_config(tmp_path, "negzero.json", {
        "experiment": "oracle", "oracle": {"name": "brownian_doleans", "t_end": -0.0}})
    out = tmp_path / "zout"
    assert main(["oracle", cfg, "--out", str(out)]) == EXIT_OK
    assert _oracle_row(out) == (1.0, 0.0)


def test_default_doleans_oracle_has_mean_one(tmp_path):
    cfg = write_config(tmp_path, "doleans.json", {
        "experiment": "oracle", "oracle": {"name": "compound_poisson_doleans"}})
    out = tmp_path / "dout"
    assert main(["oracle", cfg, "--out", str(out)]) == EXIT_OK
    value, stderr = _oracle_row(out)
    assert 0.0 < stderr < 0.01
    assert abs(value - 1.0) <= 3.0 * stderr


@pytest.mark.parametrize("oracle,warns", [
    ({"name": "girsanov_tilt", "x0": 1e308, "b": 1e308, "n_samples": 50}, True),
    # at 1e308 a single move overflows; at 1e307 only their sum would, and
    # the scaled mean is finite there
    ({"name": "girsanov_tilt", "impact": 1e308, "mass": 30.0, "n_samples": 50}, True),
    ({"name": "huber_envelope", "n": 1e300, "y": 1e300}, False),
], ids=["tilt_drift_overflows", "tilt_jumps_overflow", "huber_overflows"])
def test_overflowing_oracle_fails_its_check(tmp_path, oracle, warns):
    cfg = write_config(tmp_path, "big.json", {"experiment": "oracle", "oracle": oracle})
    out = tmp_path / "bout"
    # the tilt oracles overflow in numpy, which warns as it returns inf
    with pytest.warns(RuntimeWarning) if warns else contextlib.nullcontext():
        assert main(["oracle", cfg, "--out", str(out)]) == EXIT_CHECK_FAILURE
    assert (out / "summary.txt").read_text().startswith("FAIL estimate_finite")


def test_tilt_oracle_whose_moves_sum_past_the_range_is_finite(tmp_path):
    # every move is finite, but their plain sum overflows before it is divided
    cfg = write_config(tmp_path, "big.json", {"experiment": "oracle", "oracle": {
        "name": "girsanov_tilt", "impact": 5.992310449541053e+307, "n_samples": 20}})
    out = tmp_path / "bout"
    assert main(["oracle", cfg, "--out", str(out)]) == EXIT_OK
    value, stderr = _oracle_row(out)
    assert math.isfinite(value) and math.isfinite(stderr)


# the expectation each Monte Carlo oracle (one that takes n_samples) estimates
MC_EXACT = {
    "entropic_gaussian": lambda p: ((0.5 if p["direction"] == "upper" else -0.5)
                                    * p["sigma"] * p["sigma"]),
    "girsanov_tilt": lambda p: girsanov_tilt_exact(p["b"], p["c_tilde"], p["mass"],
                                                   p["t_end"], p["x0"], p["impact"]),
    "brownian_doleans": lambda p: 1.0,
    "compound_poisson_doleans": lambda p: 1.0,
}


@st.composite
def oracle_configs(draw):
    """An oracle config with any subset of its parameters set, each to a value
    of any magnitude or sign; sampling oracles always get a small sample."""
    name = draw(st.sampled_from(sorted(ORACLES)))
    params = {"name": name}
    for key in ORACLES[name][1]:
        if key == "n_samples":
            params[key] = draw(st.integers(2, 200))
        elif not draw(st.booleans()):
            continue
        elif key == "seed":
            params[key] = draw(st.integers(0, 2**32))
        elif key == "direction":
            params[key] = draw(st.sampled_from(["upper", "lower"]))
        else:
            params[key] = draw(st.one_of(
                st.floats(-10.0, 10.0),
                st.floats(allow_nan=False, allow_infinity=False)))
    return {"experiment": "oracle", "oracle": params}


@settings(max_examples=150, deadline=None)
@given(payload=oracle_configs())
@example(payload={"experiment": "oracle", "oracle": {
    "name": "girsanov_tilt", "x0": 1.276454349729761e210, "n_samples": 20}})
@example(payload={"experiment": "oracle", "oracle": {
    "name": "girsanov_tilt", "mass": 0.0625, "impact": 9.223372036854774e18,
    "n_samples": 28}})
@example(payload={"experiment": "oracle", "oracle": {
    "name": "girsanov_tilt", "impact": 2.9980769960612384e+153, "n_samples": 20}})
@example(payload={"experiment": "oracle", "oracle": {
    "name": "girsanov_tilt", "impact": 5.992310449541053e+307, "n_samples": 20}})
@example(payload={"experiment": "oracle", "oracle": {
    "name": "girsanov_tilt", "impact": 8.98846567431158e+307, "n_samples": 20}})
def test_oracle_verb_never_crashes(tmp_path_factory, payload):
    # a config the validator accepts runs to a verdict; a sampling oracle that
    # reports a finite estimate gives it a positive standard error, unless its
    # law is degenerate and the estimate is exact
    tmp = tmp_path_factory.mktemp("oracle")
    path, out = write_config(tmp, "cfg.json", payload), tmp / "out"
    try:
        params = validate_config(payload).oracle
    except ConfigError:
        assert main(["oracle", path, "--out", str(out)]) == EXIT_CONFIG_ERROR
        return
    code = main(["oracle", path, "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CHECK_FAILURE)
    if code == EXIT_OK and "n_samples" in params:
        value, stderr = _oracle_row(out)
        exact = MC_EXACT[params["name"]](params)
        assert stderr > 0.0 or abs(value - exact) <= 1e-9 * (1.0 + abs(exact))


def test_oracle_verb_requires_oracle_experiment(tmp_path):
    cfg = write_config(tmp_path, "mix.json", solve_payload())
    assert main(["oracle", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR


def test_run_gaussian_entropic_oracle(tmp_path):
    cfg = write_config(tmp_path, "goracle.json", {
        "experiment": "oracle",
        "oracle": {"name": "entropic_gaussian", "sigma": 1.0,
                   "n_samples": 100000, "seed": 5},
    })
    out = tmp_path / "gout"
    assert main(["oracle", cfg, "--out", str(out)]) == EXIT_OK
    value, stderr = _oracle_row(out)
    assert abs(value - 0.5) <= 3.0 * stderr


def test_null_measure_oracle(tmp_path):
    cfg = write_config(tmp_path, "null.json", {
        "experiment": "oracle", "oracle": {"name": "null_measure"},
    })
    out = tmp_path / "nout"
    assert main(["oracle", cfg, "--out", str(out)]) == EXIT_OK
    assert "null_measure,0,0" in (out / "oracle_values.csv").read_text()


def test_jump_table_export(tmp_path):
    payload = solve_payload()
    payload["ensemble"] = {"n_paths": 4000, "seed": 4,
                           "dynamics": "brownian_jumps"}
    payload["solver"] = {"export_jumps": True, "export_paths": 5}
    cfg = write_config(tmp_path, "jumps.json", payload)
    out = tmp_path / "jout"
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    header, *rows = (out / "jump_table.csv").read_text().splitlines()
    assert header == "path_id,interval_index,jump_time,mark_index"
    assert rows  # the gamma measure jumps with positive probability
    manifest = json.loads((out / "manifest.json").read_text())
    assert "jump_table.csv" in manifest["artifacts"]


def test_run_risk_experiment(tmp_path):
    cfg = write_config(tmp_path, "risk.json", risk_payload())
    out = tmp_path / "risk_out"
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    table = (out / "risk_table.csv").read_text().splitlines()
    assert table[0] == "t,direction,value,stderr,heavy_tail"
    assert len(table) == 5  # two times, both directions


def test_run_audit_experiment(tmp_path):
    payload = solve_payload(experiment="audit")
    payload["driver"] = {"name": "canonical"}
    payload["ensemble"] = {"n_paths": 4000, "seed": 3,
                           "dynamics": "brownian_jumps"}
    payload["terminal"] = {"name": "abs_linear", "scale": 0.25}
    cfg = write_config(tmp_path, "audit.json", payload)
    out = tmp_path / "audit_out"
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    assert "corridor" in (out / "summary.txt").read_text()


def test_audit_run_does_not_decompose(tmp_path, monkeypatch):
    # the audits read the solve; of the runs on a solve, only the solve
    # run's martingale check reads martingale increments
    from qebsdej import runner

    real_decompose = runner.decompose
    calls = []

    def spy(solution):
        calls.append(solution)
        return real_decompose(solution)

    monkeypatch.setattr(runner, "decompose", spy)
    for experiment, expected_calls in (("audit", 0), ("solve", 1)):
        cfg = write_config(tmp_path, f"{experiment}.json",
                           solve_payload(experiment=experiment))
        assert main(["run", cfg, "--out", str(tmp_path / experiment)]) == EXIT_OK
        assert len(calls) == expected_calls, experiment


def test_run_scheme_experiment(tmp_path):
    cfg = write_config(tmp_path, "scheme.json", scheme_payload())
    out = tmp_path / "scheme_out"
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    report = (out / "convergence_report.csv").read_text().splitlines()
    assert len(report) == 3  # header plus one row per triple
    assert report[0].startswith("n,m,kappa,y0")


def test_scheme_reports_where_the_envelope_acts(tmp_path):
    # at terminal scale 0.25 the envelope equals the driver in every cell,
    # and the summary marks each triple; at scale 1.0 with n = 1 it acts
    notes = {}
    for scale, triples in ((0.25, [[2, 2, 2], [4, 4, 4]]), (1.0, [[1, 1, 2], [2, 2, 4]])):
        payload = scheme_payload()
        payload["terminal"]["scale"] = scale
        payload["schedule"]["triples"] = triples
        out = tmp_path / f"scale_{scale:g}"
        main(["run", write_config(tmp_path, f"{scale:g}.json", payload),
              "--out", str(out)])
        with (out / "convergence_report.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        notes[scale] = ([float(r["envelope_active"]) for r in rows],
                        [line for line in (out / "summary.txt").read_text().splitlines()
                         if line.endswith("vacuous in n, m: the envelope equals the "
                                          "driver in every cell")])
    active, labelled = notes[0.25]
    assert active == [0.0, 0.0]
    assert [line.split()[1] for line in labelled] == ["corridor_2_2_2", "corridor_4_4_4"]
    active, labelled = notes[1.0]
    assert all(0.0 < a < 1.0 for a in active)
    assert labelled == []


def _summary_lines(tmp_path, tag, payload):
    """``(status, name, value, tol)`` of every check line a run prints,
    without its detail."""
    cfg = write_config(tmp_path, f"{tag}.json", payload)
    out = tmp_path / f"{tag}_out"
    main(["run", cfg, "--out", str(out)])
    lines = [line.split() for line in
             (out / "summary.txt").read_text().splitlines()[:-1]]
    return [(status, name, float(value[len("value="):]), float(tol[len("tol="):]))
            for status, name, value, tol, *_ in lines]


def test_summary_states_applied_tolerance(tmp_path):
    # at this seed the last triple's |Y_0| exceeds the a-priori rhs but not
    # rhs plus its three-standard-error slack
    payload = scheme_payload(seed=23)
    payload["schedule"]["triples"] = [[2, 2, 2], [8, 8, 8]]
    lines = _summary_lines(tmp_path, "tol", payload)
    # a constant terminal with neither driver nor jumps ties every y0 at zero
    # standard error, which is a drop of zero
    tie = scheme_payload()
    tie.update(model={"name": "null"}, driver={"name": "zero"},
               terminal={"name": "constant"}, grid={"t_end": 1.0, "k_steps": 4})
    tie["ensemble"]["n_paths"] = 500
    tie_lines = _summary_lines(tmp_path, "tie", tie)
    risk = solve_payload(experiment="risk")
    risk["risk"] = {"times": [0, 4], "gammas": [1.0, 2.0]}
    risk["terminal"] = {"name": "linear", "scale": 0.5}
    other = (tie_lines + _summary_lines(tmp_path, "risk", risk)
             + _summary_lines(tmp_path, "solve", solve_payload()))
    audited = [w for w in lines + other
               if w[1].startswith(("apriori_", "chebyshev_", "y0_monotone",
                                   "jensen_order", "terminal_match"))]
    assert len(audited) == 12
    assert ("PASS", "y0_monotone", 0.0, 3.0) in tie_lines
    for status, name, value, tol in audited:
        assert (status == "PASS") == (value <= tol), name
    # the ladder checks print their largest rise and the moment checks their
    # half-sample drift; both pass strictly below tol
    strict = [w for w in lines + other
              if w[1] in ("gaps_decreasing", "stability_decreasing")
              or w[1].startswith("moment_stable_")]
    assert len(strict) == 6
    for status, name, value, tol in strict:
        assert (status == "PASS") == (value < tol), name
    assert all(tol == 0.0 for _, name, _, tol in strict
               if name.endswith("decreasing"))
    # the Chebyshev region check cannot fail, and says so
    summary = (tmp_path / "tol_out" / "summary.txt").read_text().splitlines()
    chebyshev = [line for line in summary if line.startswith(("PASS chebyshev_",
                                                              "FAIL chebyshev_"))]
    assert len(chebyshev) == 2
    assert all(line.endswith(" vacuous: Markov's inequality on the sample")
               for line in chebyshev)


def test_failed_triple_is_recorded(tmp_path, monkeypatch):
    import qebsdej.scheme as scheme

    real_solve = scheme.solve_lipschitz
    calls = []

    def first_solve_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise FloatingPointError("injected")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(scheme, "solve_lipschitz", first_solve_fails)
    payload = scheme_payload()
    payload["schedule"]["triples"].append([8, 8, 8])
    cfg = write_config(tmp_path, "fail3.json", payload)
    out = tmp_path / "fail3_out"
    assert main(["run", cfg, "--out", str(out)]) == EXIT_CHECK_FAILURE
    assert len(calls) == 3
    summary = (out / "summary.txt").read_text()
    assert "FAIL triple_2_2_2 value=nan tol=0 FloatingPointError: injected" in summary
    assert "PASS corridor_8_8_8" in summary
    header, *rows = (out / "convergence_report.csv").read_text().splitlines()
    errors = [row.split(",")[-1] for row in rows]
    assert errors == ["FloatingPointError: injected", "", ""]
    # the link from 4_4_4 to 8_8_8 keeps its schedule index
    assert "comparison_link_1 " in summary
    assert "comparison_link_0" not in summary


def test_undirected_link_prints_no_comparison_line(tmp_path):
    # on a signed base the m index is not inert, so the first link, which
    # moves n and m together, has no direction; the second moves kappa only
    payload = scheme_payload()
    payload["driver"] = {"name": "linear", "a": 0.5, "b": 0.2}
    payload["schedule"] = {"triples": [[2, 2, 2], [4, 4, 2], [4, 4, 4]]}
    cfg = write_config(tmp_path, "signed.json", payload)
    out = tmp_path / "signed_out"
    assert main(["run", cfg, "--out", str(out)]) in (EXIT_OK, EXIT_CHECK_FAILURE)
    summary = (out / "summary.txt").read_text()
    assert "triple_" not in summary
    assert "comparison_link_0" not in summary
    assert re.search(r"^(PASS|FAIL) comparison_link_1 ", summary, re.M)


def test_audit_honours_picard_settings(tmp_path):
    payload = solve_payload(experiment="audit")
    payload["driver"] = {"name": "linear", "a": 0.5}
    reports = []
    for tol in (1e-10, 1.0):
        payload["solver"] = {"picard_tol": tol}
        cfg = write_config(tmp_path, f"picard{tol}.json", payload)
        out = tmp_path / f"picard{tol}"
        main(["run", cfg, "--out", str(out)])
        reports.append((out / "audit_report.csv").read_text())
    assert reports[0] != reports[1]


@pytest.mark.parametrize("experiment", ["solve", "audit"])
def test_non_contracting_grid_is_a_config_error(experiment):
    # dt * a = 0.5 * 2 reaches 1, where the implicit step cannot contract
    payload = solve_payload(experiment=experiment, driver={"name": "linear", "a": 2.0},
                            grid={"t_end": 1.0, "k_steps": 2})
    with pytest.raises(ConfigError, match="grid.k_steps"):
        validate_config(payload)
    payload["grid"]["k_steps"] = 3
    validate_config(payload)


@pytest.mark.parametrize("experiment", ["solve", "audit"])
def test_picard_non_convergence_fails_the_run(tmp_path, experiment):
    payload = solve_payload(experiment=experiment, driver={"name": "linear", "a": 0.5},
                            solver={"picard_max": 1})
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, "cfg.json", payload),
                 "--out", str(out)]) == EXIT_CHECK_FAILURE
    first, overall = (out / "summary.txt").read_text().splitlines()
    assert first.startswith(f"FAIL {experiment} value=nan tol=0 PicardError: Picard")
    assert overall == "OVERALL FAIL (0/1 checks)"


@pytest.mark.parametrize("experiment", ["audit", "scheme"])
def test_overflowing_audit_fails_the_run(tmp_path, experiment):
    # mark-sized impacts of stable jumps give loadings whose exponential
    # penalty j(delta u) overflows in the corridor audit
    payload = scheme_payload() if experiment == "scheme" else solve_payload(
        experiment="audit")
    payload.update(model={"name": "stable", "theta": 5.0, "alpha": 0.5},
                   driver={"name": "linear", "c_tilde": 0.5},
                   grid={"t_end": 1.0, "k_steps": 4},
                   ensemble={"n_paths": 300, "seed": 1, "dynamics": "jumps_only",
                             "jump_impact": "mark"})
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, "cfg.json", payload),
                 "--out", str(out)]) == EXIT_CHECK_FAILURE
    assert "ExponentOverflowError: exponent" in (out / "summary.txt").read_text()


def test_overflowing_entropic_value_fails_the_run(tmp_path):
    payload = risk_payload()
    payload["terminal"] = {"name": "linear", "scale": 1000.0}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, "cfg.json", payload),
                 "--out", str(out)]) == EXIT_CHECK_FAILURE
    assert (out / "summary.txt").read_text().startswith(
        "FAIL risk value=nan tol=0 OverflowError: exponential moment overflowed")


def _linear_scheme_report(tmp_path, tag, solver=()):
    payload = scheme_payload()
    payload["driver"] = {"name": "linear", "a": 0.5}
    payload["solver"] = dict(solver)
    cfg = write_config(tmp_path, f"{tag}.json", payload)
    out = tmp_path / tag
    main(["run", cfg, "--out", str(out)])
    return (out / "convergence_report.csv").read_text()


def test_scheme_honours_picard_settings(tmp_path):
    reports = [_linear_scheme_report(tmp_path, f"picard{tol}",
                                     solver={"picard_tol": tol})
               for tol in (1e-10, 1.0)]
    assert reports[0] != reports[1]


def test_cli_import_leaves_out_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qebsdej.cli; "
         "print('scipy.stats' in sys.modules, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, env=_package_env(), check=True)
    assert proc.stdout.strip() == "False []"


RUN_PATH_PROBE = """
import json, sys
from qebsdej.cli import build_parser, main
build_parser()  # argparse's gettext imports locale with the first parser
added = {}
for verb in ("validate", "run"):
    for name in ("risk", "solve"):
        before = set(sys.modules)
        out = ["--out", name + "_out"] if verb == "run" else []
        assert main([verb, name + ".json", *out]) == 0
        added[verb + " " + name] = sorted(set(sys.modules) - before)
print(json.dumps([added, [m for m in sys.modules if m.split(".")[0] == "scipy"]]))
"""


def test_run_path_loads_no_module(tmp_path):
    # every module a run needs is imported with the CLI, none of them SciPy,
    # so no run pays an import inside its timed stages
    write_config(tmp_path, "risk.json", risk_payload())
    write_config(tmp_path, "solve.json", solve_payload())
    proc = subprocess.run([sys.executable, "-c", RUN_PATH_PROBE], cwd=tmp_path,
                          capture_output=True, text=True, env=_package_env(), check=True)
    added, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert added == {f"{verb} {name}": [] for verb in ("validate", "run")
                     for name in ("risk", "solve")}
    assert scipy_modules == []


def test_check_failure_exit_code(tmp_path, monkeypatch):
    # force a failing check by auditing a generator outside its corridor
    import qebsdej.runner as runner

    def failing_checks(cfg):
        return [runner.CheckResult("designed_to_fail", False, 1.0, 0.0)], {}

    monkeypatch.setitem(runner._RUNNERS, "solve", failing_checks)
    cfg = write_config(tmp_path, "fail.json", solve_payload())
    assert main(["run", cfg, "--out", str(tmp_path / "f")]) == EXIT_CHECK_FAILURE
