import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qebsdej as q
from qebsdej.risk import (apriori_bound_check, exponential_moment_check,
                          terminal_bound_payoff)

from conftest import entropic, forward, solve
from references import entropic_gaussian_exact, folded_gaussian_moment_exact


@pytest.fixture(scope="module")
def wiener_ensemble():
    quad = q.build_quadrature(q.make_model("null"), 2.0, 4)
    return forward(q.make_model("null"), quad, "brownian", 1.0, 20,
                   200000, seed=71)


def test_constant_payoff_exact(wiener_ensemble):
    est = entropic(wiener_ensemble, np.full(wiener_ensemble.n_paths, 1.7), 0)
    assert est.value == pytest.approx(1.7, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_gaussian_payoff_both_directions(wiener_ensemble):
    w_term = wiener_ensemble.state[:, -1]
    up = entropic(wiener_ensemble, w_term, 0, "upper")
    lo = entropic(wiener_ensemble, w_term, 0, "lower")
    assert entropic_gaussian_exact(1.0) == 0.5
    assert abs(up.value - 0.5) <= 3.0 * up.stderr
    assert abs(lo.value + 0.5) <= 3.0 * lo.stderr


def test_interior_time_regression(wiener_ensemble):
    # ln E[exp(0.5 W_T) | W_t] = 0.5 W_t + 0.125 (T - t)
    w_term = wiener_ensemble.state[:, -1]
    est = entropic(wiener_ensemble, 0.5 * w_term, 10, "upper")
    truth = 0.5 * wiener_ensemble.state[:, 10] + 0.125 * 0.5
    assert abs(est.value - float(truth.mean())) <= 0.01
    # predictions are clipped into the positive target range: a finite log
    assert np.isfinite(est.value) and np.isfinite(est.stderr)


def test_monotone_in_payoff(wiener_ensemble):
    w_term = wiener_ensemble.state[:, -1]
    lower = entropic(wiener_ensemble, w_term, 0)
    higher = entropic(wiener_ensemble, w_term + 0.3, 0)
    assert higher.value >= lower.value


@settings(max_examples=30, deadline=None)
@given(st.floats(-2.0, 2.0))
def test_translation_invariance(shift):
    rng = np.random.default_rng(5)
    psi = rng.normal(0.0, 0.4, 50000)
    quad = q.build_quadrature(q.make_model("null"), 2.0, 4)
    ens = forward(q.make_model("null"), quad, "brownian",
                  1.0, 2, 50000, seed=6)
    base = entropic(ens, psi, 0)
    shifted = entropic(ens, psi + shift, 0)
    assert shifted.value == pytest.approx(base.value + shift, abs=1e-9)


def test_jensen_sandwich(wiener_ensemble):
    w_term = wiener_ensemble.state[:, -1]
    psi = 0.7 * w_term
    up = entropic(wiener_ensemble, psi, 0, "upper")
    lo = entropic(wiener_ensemble, psi, 0, "lower")
    mean = float(psi.mean())
    assert lo.value - 3 * lo.stderr <= mean <= up.value + 3 * up.stderr
    assert lo.value <= up.value


def test_direction_validation(wiener_ensemble):
    with pytest.raises(ValueError):
        entropic(wiener_ensemble, np.zeros(wiener_ensemble.n_paths), 0, "middle")


def test_overflow_guard(wiener_ensemble):
    huge = np.full(wiener_ensemble.n_paths, 1e4)
    with pytest.raises(OverflowError):
        entropic(wiener_ensemble, huge, 0)


# ---------------------------------------------------------------------------
# exponential moment table
# ---------------------------------------------------------------------------

def test_moment_zero_terminal():
    p = q.StructureParams(1.0, 0.0, 0.0)
    rows = exponential_moment_check(np.zeros(10000), p, np.linspace(0, 1, 5),
                                    gammas=(1.0, 2.0, 3.0))
    assert all(r.mean == pytest.approx(1.0) and r.stable for r in rows)


def test_moment_folded_gaussian(wiener_ensemble):
    p = q.StructureParams(1.0, 0.0, 0.0)
    xi = 0.5 * wiener_ensemble.state[:, -1]
    rows = exponential_moment_check(xi, p, wiener_ensemble.time_grid,
                                    gammas=(1.0,))
    exact = folded_gaussian_moment_exact(0.5, 1.0)
    assert exact == pytest.approx(1.5670592, abs=1e-6)
    assert rows[0].mean == pytest.approx(exact, rel=0.02)
    assert rows[0].stable


def test_moment_heavy_tail_detected():
    rng = np.random.default_rng(7)
    heavy = 2.0 * rng.standard_t(3, 200000)
    p = q.StructureParams(1.0, 0.0, 0.0)
    rows = exponential_moment_check(heavy, p, np.linspace(0, 1, 5),
                                    gammas=(1.0,))
    assert not rows[0].stable


def test_moment_positive_gamma_required():
    p = q.StructureParams(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        exponential_moment_check(np.zeros(100), p, np.linspace(0, 1, 5),
                                 gammas=(0.0,))


def test_terminal_bound_payoff_discounting():
    p = q.StructureParams(1.0, 0.5, 1.5)
    tg = np.linspace(0.0, 1.0, 5)
    val = terminal_bound_payoff(np.array([2.0]), p, tg)
    # exp(c T) * 2 + sum_j exp(c t_j) * l * dt
    expect = math.exp(1.5) * 2.0 + sum(math.exp(1.5 * t) * 0.5 * 0.25 for t in tg[:-1])
    assert val[0] == pytest.approx(expect, rel=1e-14)


# ---------------------------------------------------------------------------
# a-priori bound
# ---------------------------------------------------------------------------

def test_apriori_trivial_zero(small_ensemble, gamma_quad):
    p = q.StructureParams(1.0, 0.0, 0.0)
    drv = q.make_driver("zero", p)
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: np.zeros_like(x))
    rep = apriori_bound_check(sol, p)
    assert rep.ok
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs >= 0.0


def test_apriori_linear_driver_strict(small_ensemble, gamma_quad):
    # running cost l = 1 adds a horizon-length term to the bound
    p = q.StructureParams(1.0, 1.0, 0.0)
    drv = q.make_driver("linear", p, b=0.2)
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: 0.2 * x)
    rep = apriori_bound_check(sol, p)
    assert rep.ok
    assert rep.rhs > abs(rep.lhs) + 0.5  # strict slack from the cost integral


def test_apriori_canonical_tight(small_ensemble, gamma_quad):
    # canonical generator with l = c = 0 and magnitude terminal: the solve
    # reproduces the upper entropic value, so the bound is an equality up to
    # the scheme and sampling error
    p = q.StructureParams(1.0, 0.0, 0.0)
    drv = q.make_driver("canonical", p)
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: np.abs(0.25 * x))
    rep = apriori_bound_check(sol, p)
    assert rep.ok
    payoff = terminal_bound_payoff(sol.terminal, p, small_ensemble.time_grid)
    est = q.entropic(small_ensemble, payoff, 0, "upper", sol.feature_maps[0].degree)
    assert est.value == rep.rhs
    gap = abs(rep.rhs - rep.lhs)
    assert gap <= 3.0 * math.hypot(est.stderr, sol.y0_se)
