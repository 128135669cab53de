"""End-to-end acceptance gates, one test per criterion with its tolerance
pinned in place.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` and in
the captured output block on failure).  The shared fixtures at the top hold
the expensive Monte Carlo runs; the final test checks the wall-clock budget
of the convergence-ladder portion.
"""

import math
import time

import numpy as np
import pytest

import qebsdej as q
from qebsdej.drivers import Driver, regularize
from qebsdej.oracles import huber_envelope_exact
from qebsdej.risk import (apriori_bound_check, entropic, exponential_moment_check,
                          terminal_bound_payoff)
from qebsdej.scheme import Schedule, ladder_quadrature, run_triple_scheme
from qebsdej.semimartingale import exponential_transform, submartingale_test

from conftest import forward, solve
from references import (canonical_paths, doleans_check, garsia_neveu_probe,
                        inf_convolve, lipschitz_estimate, structure_bounds,
                        sup_convolve)

TIMER: dict = {}


def _record(name: str, seconds: float) -> None:
    TIMER[name] = seconds


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:>2}: {status} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def gamma_setting():
    model = q.make_model("gamma", theta=1.0, beta=1.0)
    quad = q.build_quadrature(model, 8.0, 12)
    return model, quad


@pytest.fixture(scope="module")
def canonical_signed(gamma_setting):
    """Canonical generator, signed Gaussian-tailed terminal, N=1e5, K=50."""
    model, quad = gamma_setting
    t0 = time.time()
    ens = forward(model, quad, "brownian_jumps", 1.0, 50, 100000, seed=42)
    params = q.StructureParams(1.0, 0.0, 0.0)
    drv = q.make_driver("canonical", params)
    sol = solve(q.DriverView(drv, ens), lambda x: 0.25 * x)
    _record("canonical_signed", time.time() - t0)
    return params, ens, sol


@pytest.fixture(scope="module")
def canonical_magnitude(gamma_setting):
    """Same setting with the magnitude terminal (bound-tight case)."""
    model, quad = gamma_setting
    t0 = time.time()
    ens = forward(model, quad, "brownian_jumps", 1.0, 50, 100000, seed=43)
    params = q.StructureParams(1.0, 0.0, 0.0)
    drv = q.make_driver("canonical", params)
    sol = solve(q.DriverView(drv, ens), lambda x: np.abs(0.25 * x))
    _record("canonical_magnitude", time.time() - t0)
    return params, ens, sol


@pytest.fixture(scope="module")
def canonical_ladder(gamma_setting):
    """The (n, m, kappa) schedule {(2,2,2), (4,4,4), (8,8,8)} on shared
    randomness."""
    model, _ = gamma_setting
    t0 = time.time()
    params = q.StructureParams(1.0, 0.0, 0.0)
    base = q.make_driver("canonical", params)
    schedule = Schedule(((2, 2, 2), (4, 4, 4), (8, 8, 8)))
    ens = forward(model, ladder_quadrature(model, schedule, 12),
                  "brownian_jumps", 1.0, 40, 30000,
                  seed=2024)
    result = run_triple_scheme(base, lambda x: np.abs(0.25 * x), ens, schedule,
                               basis_degree=3, picard_max=50, picard_tol=1e-10)
    _record("canonical_ladder", time.time() - t0)
    return ens, result


def test_criterion_01_martingale_representation():
    t0 = time.time()
    quad = q.build_quadrature(q.make_model("null"), 2.0, 4)
    ens = forward(q.make_model("null"), quad, "brownian", 1.0, 50, 100000,
                  seed=7)
    drv = q.make_driver("zero", q.StructureParams(1.0, 0.0, 0.0))
    sol = solve(q.DriverView(drv, ens), lambda x: x)
    elapsed = time.time() - t0
    err = float(np.abs(sol.y - ens.state).mean(axis=0).max())
    ok = err <= 0.02 and elapsed <= 60.0
    _report(1, ok, f"max_t mean|Y - W| = {err:.5f} (tol 0.02), "
                   f"runtime {elapsed:.1f}s (tol 60s)")


def test_criterion_02_linear_driver_closed_form(gamma_setting):
    model, quad = gamma_setting
    ens = forward(model, quad, "brownian_jumps", 1.0, 100, 2000, seed=8)
    params = q.StructureParams(1.0, 0.5, 1.0)
    drv = q.make_driver("linear", params, a=0.5)
    sol = solve(q.DriverView(drv, ens), lambda x: np.ones_like(x))
    err = abs(sol.y0 - math.exp(0.5))
    _report(2, err <= 0.01, f"|Y0 - e^0.5| = {err:.5f} (tol 0.01)")


def test_criterion_03_canonical_vs_entropic(canonical_signed):
    params, ens, sol = canonical_signed
    t0 = time.time()
    xi = sol.terminal
    moments = exponential_moment_check(xi, params, ens.time_grid, (1.0, 2.0))
    assert all(row.stable for row in moments), "terminal moment check failed"
    degree = sol.feature_maps[0].degree
    oracle = entropic(ens, xi, 0, "upper", degree)
    gap0 = abs(sol.y0 - oracle.value)
    tol0 = 3.0 * math.hypot(sol.y0_se, oracle.stderr)
    interior_ok, detail = True, []
    for k in (20, 35):
        est = entropic(ens, xi, k, "upper", degree)
        gap_k = abs(float(np.mean(sol.y[:, k])) - est.value)
        tol_k = 5.0 * math.hypot(sol.regression_se(k), est.stderr)
        interior_ok &= gap_k <= tol_k
        detail.append(f"t{k}: {gap_k:.5f}<={tol_k:.5f}")
    _record("criterion_03", time.time() - t0)
    ok = gap0 <= tol0 and interior_ok
    _report(3, ok, f"|Y0 - entropic| = {gap0:.5f} (tol {tol0:.5f}); "
                   + "; ".join(detail))


def test_criterion_04_doleans_means(gamma_setting):
    model, _ = gamma_setting
    quad = q.build_quadrature(model, 4.0, 10)
    ens = forward(model, quad, "brownian_jumps", 1.0, 20, 100000, seed=17)
    mc = ens.dw
    u_fields = np.full((ens.n_steps, quad.n_nodes), 0.3)
    details, ok = [], True
    for direction in ("upper", "lower"):
        r = canonical_paths(ens, mc, ens.dt, u_fields, direction)
        mean, se = doleans_check(r, direction)
        ok &= abs(mean - 1.0) <= 3.0 * se
        details.append(f"{direction}: {mean:.4f} +- {se:.4f}")
    _report(4, ok, "; ".join(details))


def test_criterion_05_structure_corridor(canonical_ladder):
    records = canonical_ladder[1].report.records
    fracs = [r.corridor.violation_fraction for r in records]
    ok = all(f < 0.01 for f in fracs)
    _report(5, ok, "corridor violation fractions "
                   + ", ".join(f"{f:.4f}" for f in fracs) + " (tol 0.01)")


def test_criterion_06_comparison_monotonicity(canonical_ladder):
    links = canonical_ladder[1].report.comparison_violations
    fracs = list(links.values())
    ok = list(links) == [0, 1] and all(f < 0.01 for f in fracs)
    _report(6, ok, "link violation fractions "
                   + ", ".join(f"{f:.4f}" for f in fracs) + " (tol 0.01)")


def test_criterion_07_apriori_bound(canonical_signed, canonical_magnitude,
                                    canonical_ladder):
    params, ens_s, sol_s = canonical_signed
    rep_signed = apriori_bound_check(sol_s, params)
    params_m, ens_m, sol_m = canonical_magnitude
    rep_tight = apriori_bound_check(sol_m, params_m)
    payoff = terminal_bound_payoff(sol_m.terminal, params_m, ens_m.time_grid)
    rhs = entropic(ens_m, payoff, 0, "upper", sol_m.feature_maps[0].degree)
    assert rhs.value == rep_tight.rhs
    gap = abs(rep_tight.rhs - rep_tight.lhs)
    tight_tol = 3.0 * math.hypot(rhs.stderr, sol_m.y0_se)
    ladder_ok = all(r.apriori.ok for r in canonical_ladder[1].report.records)
    ok = rep_signed.ok and rep_tight.ok and gap <= tight_tol and ladder_ok
    _report(7, ok, f"signed ok={rep_signed.ok}, ladder ok={ladder_ok}, "
                   f"tight gap {gap:.5f} (tol {tight_tol:.5f})")


def test_criterion_08_regularization_suite(gamma_setting):
    t0 = time.time()
    model, quad = gamma_setting
    failures = []

    # envelope ordering at grid probes
    grid = np.linspace(-5.0, 5.0, 10001)
    square = lambda r: float(np.asarray(r)) ** 2
    rng = np.random.default_rng(81)
    for pt in rng.choice(grid, 25, replace=False):
        lo = inf_convolve(square, 3.0, float(pt), grid)
        hi = sup_convolve(square, 3.0, float(pt), grid)
        if not lo <= square(pt) + 1e-12 <= hi + 2e-12:
            failures.append("envelope ordering")
            break

    # Huber closed form to 1e-6
    val = inf_convolve(square, 2.0, 3.0, grid)
    if abs(val - huber_envelope_exact(2.0, 3.0)) > 1e-6:
        failures.append(f"huber {val}")

    # Lipschitz cap on the regularized generator
    params = q.StructureParams(1.0, 0.0, 0.0)
    base = q.make_driver("canonical", params)
    view = q.DriverView(base, forward(model, quad, "brownian_jumps", 1.0, 2, 100,
                                      seed=80))
    reg5 = regularize(view, 5, 2)
    u0 = np.zeros((1, quad.n_nodes))
    est = lipschitz_estimate(
        lambda row: float(reg5.evaluate(0, np.array([row[0]]),
                                        np.array([row[1]]), u0)[0]),
        [(-8.0, 8.0), (-8.0, 8.0)], 1000, seed=82)
    if est > 5.0 * (1.0 + 1e-6):
        failures.append(f"lipschitz cap {est}")

    # monotone tables: nondecreasing in n and kappa, nonincreasing in m
    quad_cut = q.build_quadrature(model, 8.0, 10, cut_levels=[0.5, 0.25])
    ens_cut = forward(model, quad_cut, "brownian_jumps", 1.0, 2, 100, seed=80)
    ys = rng.uniform(-3, 3, 50)
    zs = rng.uniform(-3, 3, 50)
    us = rng.uniform(-1.2, 1.2, (50, quad_cut.n_nodes))
    prev = None
    for n_idx in (1, 2, 4):
        vals = regularize(q.DriverView(base, ens_cut), n_idx,
                          2).evaluate(0, ys, zs, us)
        if prev is not None and np.any(vals < prev - 1e-12):
            failures.append("n table")
        prev = vals
    prev = None
    for kappa in (2.0, 4.0, 8.0):
        reg = regularize(q.DriverView(base, ens_cut), 4, 2,
                         node_idx=quad_cut.restrict_indices(kappa))
        vals = reg.evaluate(0, ys, zs, us)
        if prev is not None and np.any(vals < prev - 1e-12):
            failures.append("kappa table")
        prev = vals
    shifted = Driver("shifted",
                     lambda y, z: base.f_hat(y, z) - 1.0, base.g,
                     q.StructureParams(1.0, 1.0, 0.0),
                     nonnegative=False, lip_y=0.0)
    prev = None
    for m_idx in (1, 2, 4, 8):
        vals = regularize(q.DriverView(shifted, ens_cut), 4,
                          m_idx).evaluate(0, ys, zs, us)
        if prev is not None and np.any(vals > prev + 1e-12):
            failures.append("m table")
        prev = vals

    # sandwich on one thousand probes
    n_probe = 1000
    ys = rng.uniform(-4, 4, n_probe)
    zs = rng.uniform(-4, 4, n_probe)
    us = rng.uniform(-1.5, 1.5, (n_probe, quad.n_nodes))
    reg = regularize(view, 4, 4)
    vals = reg.evaluate(0, ys, zs, us)
    violations = 0
    for i in range(n_probe):
        lo, hi = structure_bounds(ys[i], zs[i], us[i], params, quad.weights)
        tol = 1e-9 * (1.0 + abs(float(hi)))
        if not (float(lo) - tol <= vals[i] <= float(hi) + tol):
            violations += 1
    if violations:
        failures.append(f"sandwich {violations}/1000")

    _record("criterion_08", time.time() - t0)
    _report(8, not failures, "envelope ordering, huber 1e-6, cap "
            f"{est:.6f} <= 5(1+1e-6), tables, sandwich 0/1000"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_09_truncation_convergence(canonical_ladder):
    ens, result = canonical_ladder
    rep = result.report
    gaps = [r.a1 + r.a2 for r in rep.records if r.dec is not None]
    stab = [r.h1_gap_proxy for r in rep.records]
    cheb_ok = True
    n_cells = ens.n_paths * ens.n_steps
    for r in rep.records:
        se = math.sqrt(max(r.region_fraction * (1 - r.region_fraction), 0.0)
                       / n_cells)
        cheb_ok &= r.region_fraction <= r.chebyshev_bound + 3.0 * se
    ok = (gaps[0] > gaps[1] > gaps[2] == 0.0
          and stab[0] > stab[1] > stab[2] == 0.0 and cheb_ok
          and rep.gaps_decreasing and rep.stability_decreasing)
    _report(9, ok, "gap ladder " + ", ".join(f"{g:.5f}" for g in gaps)
                   + "; stability " + ", ".join(f"{s:.5f}" for s in stab)
                   + f"; chebyshev ok={cheb_ok}")


def test_criterion_10_submartingale_property(canonical_signed,
                                             canonical_magnitude,
                                             canonical_ladder):
    verdicts = []
    for params, ens, sol in (canonical_signed, canonical_magnitude):
        x_bar = exponential_transform(sol.y, params, ens.time_grid)
        rep = submartingale_test(x_bar, ens, ens.n_steps // 4,
                                 ens.n_steps // 2)
        verdicts.append(rep.verdict)
    verdicts += [r.submartingale.verdict
                 for r in canonical_ladder[1].report.records]
    # the test of the test: a strictly shrinking deterministic path must fail
    params, ens, _ = canonical_signed
    y_dec = np.tile(np.linspace(2.0, 1.0, ens.n_steps + 1), (ens.n_paths, 1))
    x_dec = exponential_transform(y_dec, params, ens.time_grid)
    counter = submartingale_test(x_dec, ens, 10, 20)
    ok = all(verdicts) and not counter.verdict
    _report(10, ok, f"verdicts {verdicts}, counterexample fails "
                    f"{not counter.verdict}")


def test_criterion_11_garsia_neveu(canonical_signed):
    _, ens, _ = canonical_signed
    tg = np.linspace(0.0, 1.0, 11)
    w = np.concatenate([np.zeros((ens.n_paths, 1)),
                        np.cumsum(ens.dw, axis=1)], axis=1)
    running_max = np.maximum.accumulate(np.abs(w), axis=1)
    fixtures = [
        ("linear clock", np.tile(tg, (5000, 1)), np.full(5000, 1.0)),
        ("quadratic clock", np.tile(tg ** 2, (5000, 1)), np.full(5000, 1.0)),
        ("running max", running_max, running_max[:, -1]),
    ]
    details, ok = [], True
    for name, a_paths, u_dom in fixtures:
        for p in (1.0, 2.0):
            rep = garsia_neveu_probe(a_paths, u_dom, p)
            ok &= rep.ok
            details.append(f"{name} p={p:g}: {rep.lhs:.3f}<={rep.rhs:.3f}")
    _report(11, ok, "; ".join(details))


def test_criterion_runtime_budget():
    # the convergence-ladder portion (criteria 3 through 9) must finish
    # within fifteen minutes single-threaded
    total = sum(TIMER.values())
    _report(0, total <= 900.0,
            f"criteria 3-9 core runs took {total:.1f}s (tol 900s): "
            + ", ".join(f"{k}={v:.1f}s" for k, v in sorted(TIMER.items())))
