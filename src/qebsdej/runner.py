"""Experiment execution and artifact emission.

Each experiment returns its checks and its tables by file name.  The runner
writes them as CSV artifacts (17 significant digits, bit-identical across
identical runs), a JSON manifest echoing the configuration with its hash, the
package version and the NumPy and BLAS versions, and a plain-text pass/fail
summary of every check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ORACLES, ExperimentConfig
from .drivers import DriverView
from .levy import build_quadrature, truncated_mass_reference
from .risk import DIRECTIONS, entropic, exponential_moment_check
from .scheme import audit_solution, ladder_quadrature, run_triple_scheme
from .semimartingale import FRACTION_TOL, martingale_regression_test
from .solver import PicardError, decompose, simulate_forward, solve_lipschitz

FLOAT_FMT = "%.17g"


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    return str(value)


def write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


def _blas() -> dict:
    """Name and version of the BLAS NumPy was built with: the last bits of
    every factorization, hence of the numeric artifacts, depend on it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(name=blas.get("name"), version=blas.get("version"))


def write_manifest(out_dir: Path, cfg: ExperimentConfig, artifacts: list[str]) -> None:
    blob = json.dumps(cfg.raw, sort_keys=True).encode()
    manifest = dict(config=cfg.raw,
                    config_sha256=hashlib.sha256(blob).hexdigest(),
                    package="qebsdej",
                    version=__version__,
                    numpy=np.__version__,
                    blas=_blas(),
                    artifacts=sorted(artifacts))
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True) + "\n")


def write_summary(out_dir: Path, checks: list[CheckResult]) -> bool:
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status} {c.name} value={_fmt(c.value)} "
                     f"tol={_fmt(c.tolerance)} {c.detail}".rstrip())
    all_ok = all(c.passed for c in checks) if checks else True
    lines.append(f"OVERALL {'PASS' if all_ok else 'FAIL'} "
                 f"({sum(c.passed for c in checks)}/{len(checks)} checks)")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    return all_ok


def _build_setting(cfg: ExperimentConfig):
    """The structure and the seeded ensemble of every experiment.  A scheme
    run takes its quadrature from the schedule, the others from the
    ``quadrature`` settings."""
    model = cfg.build_model()
    structure = cfg.build_structure()
    q_nodes = cfg.quadrature["q_nodes"]
    quad = (ladder_quadrature(model, cfg.schedule["triples"], q_nodes)
            if cfg.experiment == "scheme"
            else build_quadrature(model, cfg.quadrature["kappa"], q_nodes))
    ens = cfg.ensemble
    ensemble = simulate_forward(quad, ens["dynamics"], cfg.grid["t_end"],
                                cfg.grid["k_steps"], ens["n_paths"], ens["seed"],
                                x0=ens["x0"], jump_impact=ens["jump_impact"])
    return structure, ensemble


def _solve(cfg: ExperimentConfig):
    """Simulate the configured ensemble and solve the BSDE on it with the
    ``solver`` settings."""
    structure, ensemble = _build_setting(cfg)
    view = DriverView(cfg.build_driver(structure), ensemble)
    return structure, solve_lipschitz(view, cfg.terminal_fn(), cfg.solver["basis_degree"],
                                      cfg.solver["picard_max"], cfg.solver["picard_tol"])


def _below(name: str, value: float, tol: float, detail: str = "") -> CheckResult:
    """The check that ``value`` stays strictly below ``tol``."""
    return CheckResult(name, value < tol, value, tol, detail)


def _at_most(name: str, value: float, tol: float, detail: str = "") -> CheckResult:
    """The check that ``value`` does not exceed ``tol``."""
    return CheckResult(name, value <= tol, value, tol, detail)


def _audit_checks(suffix: str, corridor: float, apriori, submart: float,
                  corridor_note: str = "") -> list[CheckResult]:
    return [_below(f"corridor{suffix}", corridor, FRACTION_TOL, corridor_note),
            CheckResult(f"apriori{suffix}", apriori.ok, apriori.lhs,
                        apriori.bound),
            _below(f"submartingale{suffix}", submart, FRACTION_TOL)]


def _solution_rows(solution, max_paths: int):
    ensemble, n_steps = solution.ensemble, solution.n_steps
    n_show = solution.n_paths if max_paths <= 0 else min(solution.n_paths, max_paths)
    rows = []
    for k in range(n_steps + 1):
        # the loading of a dead node, and every loading at the terminal
        # time, is exported as 0
        u_now = np.zeros((n_show, ensemble.quad.n_nodes))
        if k < n_steps:
            u_now[:, ensemble.live] = solution.u_values(k, slice(n_show))
        t, z_k = float(ensemble.time_grid[k]), solution.z[:n_show, min(k, n_steps - 1)]
        columns = zip(solution.y[:n_show, k].tolist(), z_k.tolist(), u_now.tolist())
        for p, (y, z, u) in enumerate(columns):
            rows.append(dict(path_id=p, t=t, y=y, z=z,
                             **{f"u_node_{i + 1}": v for i, v in enumerate(u)}))
    return rows


def _jump_rows(ensemble):
    jumps = ensemble.jumps
    columns = zip(jumps.path_index.tolist(), jumps.interval_index.tolist(),
                  jumps.time.tolist(), jumps.mark_index.tolist())
    return [dict(path_id=p, interval_index=k, jump_time=t, mark_index=m)
            for p, k, t, m in columns]


def _reconstruction_gap(solution) -> float:
    """Largest ``|Y - (Y_0 - V + M)|`` with ``M`` the cumulated residue
    ``diff(y) + driver_values * dt``: only the rounding of the cumulative sums
    shows.  One step at a time: per path it keeps the running sums ``M`` and
    ``V``, accumulated in step order as the whole-array cumulative sums are,
    so the gap keeps their bits."""
    y, dt = solution.y, solution.ensemble.dt
    n = solution.n_paths
    m, v, gap = np.zeros(n), np.zeros(n), 0.0
    for k in range(solution.n_steps):
        dv = solution.driver_values[:, k] * dt
        m += (y[:, k + 1] - y[:, k]) + dv
        v += dv
        rebuilt = y[:, 0] - v
        rebuilt += m
        np.subtract(y[:, k + 1], rebuilt, out=rebuilt)
        gap = np.maximum(gap, np.abs(rebuilt, out=rebuilt).max())
    return float(gap)


def run_solve(cfg: ExperimentConfig):
    _, solution = _solve(cfg)
    ensemble = solution.ensemble
    recon = _reconstruction_gap(solution)
    xi = cfg.terminal_fn()(ensemble.state[:, -1])
    mismatch = float(np.max(np.abs(solution.y[:, -1] - xi)))
    checks = [_at_most("terminal_match", mismatch, 0.0, "vacuous: the solve sets y_T = xi"),
              _at_most("reconstruction_identity", recon, 1e-10,
                       "vacuous: M is the residue y - y0 + V")]
    mart = martingale_regression_test(decompose(solution).dm, ensemble,
                                      cfg.solver["basis_degree"])
    checks.append(_at_most("martingale_coefficients", mart, 4.0))
    summary_rows = [dict(y0=solution.y0, y0_se=solution.y0_se,
                         s2_norm=solution.s2_norm(),
                         max_condition=float(solution.cond_numbers.max()),
                         max_picard=int(solution.picard_iterations.max()),
                         jump_mass=ensemble.quad.total_mass,
                         jump_mass_reference=truncated_mass_reference(
                             cfg.build_model(), ensemble.quad.kappa))]
    tables = {"solution_summary.csv": summary_rows,
              "solution_paths.csv": _solution_rows(solution, cfg.solver["export_paths"])}
    if cfg.solver["export_jumps"]:
        tables["jump_table.csv"] = _jump_rows(ensemble)
    return checks, tables


def run_scheme(cfg: ExperimentConfig):
    structure, ensemble = _build_setting(cfg)
    result = run_triple_scheme(
        cfg.build_driver(structure), cfg.terminal_fn(), ensemble,
        cfg.schedule["triples"], cfg.solver["basis_degree"],
        cfg.solver["picard_max"], cfg.solver["picard_tol"])
    rep = result.report
    checks = [_at_most("y0_monotone", rep.y0_max_drop, 3.0),
              _below("gaps_decreasing", rep.gaps_max_rise, 0.0),
              _below("stability_decreasing", rep.stability_max_rise, 0.0)]
    checks += [_below(f"comparison_link_{i}", frac, FRACTION_TOL)
               for i, frac in rep.comparison_violations.items()]
    for rec in rep.records:
        tag = f"{rec.n}_{rec.m}_{int(rec.kappa)}"
        if rec.error:
            checks.append(CheckResult(f"triple_{tag}", False, math.nan, 0.0,
                                      rec.error))
            continue
        inactive_note = ("vacuous in n, m: the envelope equals the driver in "
                         "every cell" if rec.envelope_active == 0.0 else "")
        checks += _audit_checks(f"_{tag}", rec.corridor, rec.apriori,
                                rec.submartingale, inactive_note)
        checks.append(_at_most(f"chebyshev_{tag}", rec.region_fraction,
                               rec.chebyshev_bound + 0.01,
                               "vacuous: Markov's inequality on the sample"))
    return checks, {"convergence_report.csv": rep.rows()}


def run_audit(cfg: ExperimentConfig):
    structure, solution = _solve(cfg)
    corridor, apriori, submart = audit_solution(solution, structure)
    rows = [dict(corridor_violation=corridor, submartingale_fraction=submart,
                 apriori_lhs=apriori.lhs, apriori_rhs=apriori.rhs,
                 y0=solution.y0, y0_se=solution.y0_se)]
    return _audit_checks("", corridor, apriori, submart), {"audit_report.csv": rows}


def run_risk(cfg: ExperimentConfig):
    structure, ensemble = _build_setting(cfg)
    xi = cfg.terminal_fn()(ensemble.state[:, -1])
    rows = []
    for k in cfg.risk["times"]:
        for direction in DIRECTIONS:
            est = entropic(ensemble, xi, k, direction, cfg.solver["basis_degree"])
            rows.append(dict(t=float(ensemble.time_grid[k]),
                             direction=direction, value=est.value,
                             stderr=est.stderr,
                             heavy_tail=int(est.heavy_tail_warning)))
    moment_rows = exponential_moment_check(xi, structure, ensemble.time_grid,
                                           cfg.risk["gammas"])
    checks = [CheckResult(f"moment_stable_gamma_{r.gamma:g}", r.stable,
                          r.drift, r.drift_tol) for r in moment_rows]
    upper, lower = (next(r for r in rows if r["direction"] == d and r["t"] == 0.0)
                    for d in DIRECTIONS)
    ceiling = upper["value"] + 3.0 * math.hypot(upper["stderr"], lower["stderr"])
    checks.append(_at_most("jensen_order", lower["value"], ceiling))
    return checks, {"risk_table.csv": rows,
                    "moment_table.csv": [{**asdict(r), "stable": int(r.stable)}
                                         for r in moment_rows]}


def run_oracle(cfg: ExperimentConfig):
    params = dict(cfg.oracle)
    estimator, _ = ORACLES[params.pop("name")]
    est = estimator(**params)
    finite = math.isfinite(est.value) and math.isfinite(est.stderr)
    checks = [CheckResult("estimate_finite", finite, est.value, math.inf,
                          f"stderr={_fmt(est.stderr)}")]
    return checks, {"oracle_values.csv": [asdict(est)]}


_RUNNERS = dict(solve=run_solve, scheme=run_scheme, audit=run_audit,
                risk=run_risk, oracle=run_oracle)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_CRASH = 70


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> int:
    """Run ``cfg`` and write its artifacts.  A solve that does not close or
    a value that overflows is a failed run, like a failed scheme triple: its
    one check fails with the error, and no table is written.  Where Python
    runs with warnings as errors, NumPy raises its overflow and invalid-value
    warnings instead of returning inf or NaN; they fail the run the same way."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        checks, tables = _RUNNERS[cfg.experiment](cfg)
    except (PicardError, OverflowError, RuntimeWarning) as exc:
        checks = [CheckResult(cfg.experiment, False, math.nan, 0.0,
                              f"{type(exc).__name__}: {exc}")]
        tables = {}
    for name, rows in tables.items():
        write_csv(out_dir / name, rows)
    all_ok = write_summary(out_dir, checks)
    write_manifest(out_dir, cfg, [*tables, "summary.txt"])
    return EXIT_OK if all_ok else EXIT_CHECK_FAILURE
