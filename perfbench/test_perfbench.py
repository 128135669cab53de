"""Tests of the benchmark itself: the tracer, the correctness gate and the
agreement of BENCHMARK.json with the metrics the driver prints.

The traced runs use the shipped workloads with fewer paths; the call counts
depend on the step count and the schedule, not on the number of paths.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qebsdej
from qebsdej import cli, runner, scheme, solver

import run
import tracer
from tracer import TARGETS, TraceError, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SMALL_PATHS = 2000


def _bindings():
    """Every package function and method a tracer may patch, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "qebsdej" or name.startswith("qebsdej."):
            for key, value in vars(module).items():
                out[name, key] = value
                if isinstance(value, type) and value.__module__.startswith("qebsdej"):
                    out.update(((name, key, attr), member)
                               for attr, member in vars(value).items())
    return out


def _traced_run(tmp_path: Path, name: str, attempt: int) -> Tracer:
    cfg = copy.deepcopy(WORKLOADS[name].config)
    cfg["ensemble"]["n_paths"] = SMALL_PATHS
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    tr = Tracer()
    with tr.installed():
        cli.main(["--log-level", "ERROR", "run", str(path),
                  "--out", str(tmp_path / f"{name}-{attempt}")])
    return tr


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each workload traced twice, with the package bindings before and
    after."""
    tmp_path = tmp_path_factory.mktemp("traced")
    before = _bindings()
    runs = {name: [_traced_run(tmp_path, name, i) for i in range(2)]
            for name in WORKLOADS}
    return before, _bindings(), runs


# named before measuring; they depend on K and the schedule, not on n_paths
NAMED_COUNTS = {
    "solve_martingale": {"solver.FeatureMap.matrix.calls": 200,
                         "solver.u_values.calls": 100,
                         "drivers.evaluate.calls": 50},
    "scheme_canonical": {"solver.FeatureMap.matrix.calls": 520,
                         "solver.u_values.calls": 400,
                         "drivers.evaluate.calls": 120},
    "risk_gaussian": {"solver.FeatureMap.matrix.calls": 2,
                      "solver.u_values.calls": 0,
                      "drivers.evaluate.calls": 0},
}


def test_exact_counts_repeat_between_runs(traced):
    _, _, runs = traced
    for name, (first, second) in runs.items():
        a, b = first.layer_metrics(), second.layer_metrics()
        counts = [k for k in a if not k.endswith(".s")]
        assert {k: a[k] for k in counts} == {k: b[k] for k in counts}, name
        assert {k: a[k] for k in NAMED_COUNTS[name]} == NAMED_COUNTS[name], name


def test_every_target_is_called_by_some_workload(traced):
    _, _, runs = traced
    idle = [target for target in TARGETS
            if not any(r[0].stats[target].calls for r in runs.values())]
    assert idle == []


def test_self_times_account_for_the_run(traced):
    _, _, runs = traced
    for tr in (r for pair in runs.values() for r in pair):
        tr.check_self_times()
        assert tr.stats[tracer.ROOT].calls == 1


def test_originals_restored(traced):
    before, after, _ = traced
    assert after == before
    assert solver.decompose is scheme.decompose is runner.decompose is qebsdej.decompose
    assert not hasattr(solver.FeatureMap.matrix, "__wrapped__")


def test_name_bound_in_several_modules_is_traced_everywhere():
    tr = Tracer(["solver.decompose"])
    with tr.installed():
        assert runner.decompose is scheme.decompose is qebsdej.decompose
        assert runner.decompose.__wrapped__ is solver.decompose.__wrapped__
    assert runner.decompose is solver.decompose
    assert not hasattr(runner.decompose, "__wrapped__")


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(TARGETS, "solver.gone",
                        ("qebsdej.solver", ["no_such_function"], {}))
    monkeypatch.setitem(TARGETS, "solver.gone_method",
                        ("qebsdej.solver", ["FeatureMap.no_such_method"], {}))
    before = _bindings()
    for missing in ("solver.gone", "solver.gone_method"):
        with pytest.raises(TraceError, match="does not exist"):
            Tracer(["solver.decompose", missing]).install()
    assert _bindings() == before
    with pytest.raises(TraceError, match="unknown"):
        Tracer(["solver.not_a_target"])


def test_gate(tmp_path):
    (tmp_path / "summary.txt").write_text("PASS a value=0 tol=1\n"
                                          "OVERALL PASS (1/1 checks)\n")
    ok = dict(exit_code=0, sha256="ab" * 32, y0_shift_se=None)
    assert run.gate_errors(ok, tmp_path, None) == []
    assert run.gate_errors(ok, tmp_path, "ab" * 32) == []
    assert "differs" in run.gate_errors(ok, tmp_path, "cd" * 32)[0]
    assert run.gate_errors(dict(ok, y0_shift_se=-0.9), tmp_path, None) == []
    for shift in (1.5, -1.5, float("nan")):
        assert "standard errors" in run.gate_errors(
            dict(ok, y0_shift_se=shift), tmp_path, None)[0]
    assert run.gate_errors(dict(ok, exit_code=1), tmp_path, None) == ["exit code 1"]
    (tmp_path / "summary.txt").write_text("FAIL a value=2 tol=1\n"
                                          "OVERALL FAIL (0/1 checks)\n")
    assert run.gate_errors(ok, tmp_path, None) == [
        "FAIL a value=2 tol=1", "summary.txt has no OVERALL PASS"]


def test_y0_shift_is_measured_against_the_seed_commit():
    table = json.loads((HERE / "reference_y0.json").read_text())["values"]
    assert set(table) == set(WORKLOADS)
    value, se = table["solve_martingale"]["1"]
    assert run.y0_shift_se("solve_martingale", 1, value) == 0.0
    assert run.y0_shift_se("solve_martingale", 1, value + 2 * se) == pytest.approx(2.0)
    assert run.y0_shift_se("solve_martingale", 10**9, value) is None


def test_count_mismatches():
    counts = {"a.calls": 2, "a.bytes": 16}
    assert run.exact_counts(dict(counts, **{"a.s": 0.5})) == counts
    assert run.count_mismatches(counts, [dict(counts), dict(counts)]) == []
    assert run.count_mismatches(counts, [dict(counts, **{"a.calls": 3})]) == ["a.calls"]
    assert run.count_mismatches(counts, [{"a.calls": 2}]) == ["a.bytes"]


def test_benchmark_json_matches_the_driver():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    layer_names = set(Tracer().layer_metrics()) | {"trace.overhead_s"}
    assert set(run.PER_LAYER) <= layer_names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "risk_gaussian", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
