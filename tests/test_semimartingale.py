import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import qebsdej as q
from qebsdej import semimartingale
from qebsdej.semimartingale import (FRACTION_TOL, check_q_structure,
                                    exponential_transform, martingale_regression_test,
                                    pairwise_gap, stability_diagnostics,
                                    submartingale_test)
from qebsdej.levy import EXP_CAP, ExponentOverflowError
from qebsdej.solver import EnsembleMismatchError, decompose

from conftest import forward, solve
from references import (canonical_paths, check_q_structure_two_sided, doleans_check,
                        exponential_transform_whole_array, garsia_neveu_probe,
                        structure_bounds)


@pytest.fixture(scope="module")
def canonical_solution(small_ensemble, gamma_quad):
    params = q.StructureParams(1.0, 0.0, 0.0)
    drv = q.make_driver("canonical", params)
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: np.abs(0.25 * x))
    return params, sol


# ---------------------------------------------------------------------------
# structure corridor
# ---------------------------------------------------------------------------

def test_corridor_trivial_zero_solution(small_ensemble, gamma_quad):
    params = q.StructureParams(1.0, 0.0, 0.0)
    drv = q.make_driver("zero", params)
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: np.zeros_like(x))
    fraction = check_q_structure(sol, params)
    assert fraction == 0.0


def test_corridor_canonical_sits_on_upper_boundary(canonical_solution):
    params, sol = canonical_solution
    fraction = check_q_structure(sol, params, tol=1e-9)
    assert fraction == 0.0
    # with l = c = 0 and unit delta the finite-variation increment equals the
    # upper corridor term exactly
    slack, _ = check_q_structure_two_sided(sol, params, tol=1e-9)
    assert np.max(np.abs(slack)) <= 1e-9


def test_corridor_adversarial_violation(canonical_solution):
    params, sol = canonical_solution
    # dV = driver_values * dt moves up by 0.1 in every cell
    bumped = dataclasses.replace(sol, driver_values=sol.driver_values + 0.1 / sol.ensemble.dt)
    fraction = check_q_structure(bumped, params)
    assert fraction == 1.0


def test_corridor_is_delta_divided(small_ensemble, gamma_quad):
    # the canonical generator (delta/2)|z|^2 + (1/delta) j(delta u) sits on
    # the upper corridor at every delta, not only at delta = 1
    params = q.StructureParams(0.5, 0.0, 0.0)
    drv = q.make_driver("canonical", params)
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: np.abs(0.25 * x))
    fraction = check_q_structure(sol, params, tol=1e-9)
    assert fraction == 0.0
    slack, _ = check_q_structure_two_sided(sol, params, tol=1e-9)
    assert np.max(np.abs(slack)) <= 1e-9


def test_corridor_check_holds_one_cell_array(gamma_quad):
    # no (n, K) array is kept: the per-step bounds and violation flags are
    # (n,) or (n, Q), and only a count of violations outlives a step
    params = q.StructureParams(1.0, 0.0, 0.0)
    ens = forward(gamma_quad, "brownian_jumps", 1.0, 50, 2000, seed=5)
    sol = solve(q.DriverView(q.make_driver("canonical", params), ens),
                lambda x: np.abs(0.25 * x))
    tol = np.array([3.0 * sol.regression_se(k) for k in range(sol.n_steps)])[None, :]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fraction = check_q_structure(sol, params, tol=tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < sol.driver_values.nbytes
    # the fraction keeps the bits of the whole-array form, on a solve whose
    # increments are moved up and down across both edges
    noise = np.random.default_rng(6).normal(0.0, 0.5, sol.driver_values.shape)
    sol = dataclasses.replace(sol, driver_values=np.asfortranarray(sol.driver_values
                                                                   + noise / ens.dt))
    fraction = check_q_structure(sol, params, tol=tol)
    _, ref_fraction = check_q_structure_two_sided(sol, params, tol=tol)
    assert 0.0 < fraction < 1.0
    assert fraction == ref_fraction


def _lower_edge_rows(monkeypatch):
    """Count the rows on which ``check_q_structure`` takes the lower edge."""
    rows = []
    edge = semimartingale.corridor_edge

    def counting(y, z, u, params, wz, upper):
        if not upper:
            rows.append(np.size(y))
        return edge(y, z, u, params, wz, upper)

    monkeypatch.setattr(semimartingale, "corridor_edge", counting)
    return rows


@pytest.mark.parametrize("name,settings", [("canonical", {}), ("linear", {"a": -0.8}),
                                           ("morlais", {"beta": 0.5})])
def test_one_sided_corridor_matches_the_two_sided_reference(gamma_quad,
                                                             monkeypatch, name, settings):
    # the lower edge is taken only where dV < -tol; the fraction keeps the
    # bits of the reference that takes both edges everywhere
    params = q.StructureParams(1.0, 0.0, 0.0)
    ens = forward(gamma_quad, "brownian_jumps", 1.0, 20, 2000, seed=7)
    sol = solve(q.DriverView(q.make_driver(name, params, **settings), ens),
                lambda x: np.abs(0.25 * x) + 0.5)
    dv = sol.driver_values * ens.dt
    se_tol = np.array([3.0 * sol.regression_se(k) for k in range(sol.n_steps)])[None, :]
    for tol in (0.0, se_tol):
        rows = _lower_edge_rows(monkeypatch)
        fraction = check_q_structure(sol, params, tol=tol)
        _, ref_fraction = check_q_structure_two_sided(sol, params, tol=tol)
        assert fraction == ref_fraction
        assert sum(rows) == int(np.count_nonzero(dv < -np.broadcast_to(tol, dv.shape)))
    if name == "canonical":
        assert np.all(dv >= 0.0) and rows == []
    else:
        # the lower edge runs, and cells below it are counted
        assert sum(rows) > 0 and fraction > 0.0


def test_lower_edge_counts_exactly_the_rows_shifted_below_it(canonical_solution):
    # a generator on the lower edge passes; shifted eps below it on a known
    # set of cells, exactly those cells are counted
    params, sol = canonical_solution
    ens = sol.ensemble
    on_edge = np.empty_like(sol.driver_values)
    for k in range(sol.n_steps):
        on_edge[:, k] = structure_bounds(sol.y[:, k], sol.z[:, k], sol.u_values(k),
                                         params, ens.live_intensity)[0]
    shifted = np.random.default_rng(8).random(on_edge.shape) < 0.01
    for eps, expected in ((0.0, 0), (1e-9, int(shifted.sum()))):
        values = np.asfortranarray(on_edge - eps * shifted)
        fraction = check_q_structure(dataclasses.replace(sol, driver_values=values),
                                   params)
        assert fraction == expected / values.size


# ---------------------------------------------------------------------------
# exponential transform and submartingale test
# ---------------------------------------------------------------------------

P1 = q.StructureParams(1.0, 0.0, 0.0)


def test_transform_identity_cases():
    tg = np.linspace(0.0, 1.0, 21)
    y = np.vstack([np.sin(tg), np.cos(tg)])
    p_l = q.StructureParams(1.0, 1.0, 0.0)
    p_c = q.StructureParams(1.0, 0.0, 1.0)
    for k in (0, 7, 20):
        assert np.array_equal(exponential_transform(y[:, k], P1, tg, k), np.abs(y[:, k]))
        assert np.allclose(exponential_transform(np.zeros(2), p_l, tg, k), tg[k])
        assert np.allclose(exponential_transform(np.ones(2), p_c, tg, k), np.exp(tg[k]))
    assert exponential_transform(y[:, 0], p_l, tg, 0)[0] == abs(y[0, 0])


@pytest.mark.parametrize("k_steps", [2, 7, 80])
def test_transform_keeps_the_bits_of_the_whole_array_form(k_steps):
    # at c, l > 0 the running cost rounds as it is summed; each step's
    # transform keeps the bits of its column of the whole-array cumulative sum
    tg = np.linspace(0.0, 1.3, k_steps + 1)
    y = np.random.default_rng(k_steps).normal(size=(50, k_steps + 1))
    params = q.StructureParams(2.0, 0.7, 1.3)
    whole = exponential_transform_whole_array(y, params, tg)
    for k in range(k_steps + 1):
        assert (exponential_transform(y[:, k], params, tg, k).tobytes()
                == whole[:, k].tobytes()), k


def test_submartingale_deterministic_passes(small_ensemble):
    y = np.tile(np.linspace(1.0, 2.0, small_ensemble.n_steps + 1),
                (small_ensemble.n_paths, 1))
    assert submartingale_test(y, P1, small_ensemble, 5, 10) < FRACTION_TOL


def test_submartingale_canonical_solution_passes(canonical_solution,
                                                 small_ensemble):
    params, sol = canonical_solution
    assert submartingale_test(sol.y, params, small_ensemble, 5, 10) < FRACTION_TOL


def test_submartingale_counterexample_fails(small_ensemble):
    y = np.tile(np.linspace(2.0, 1.0, small_ensemble.n_steps + 1),
                (small_ensemble.n_paths, 1))
    assert submartingale_test(y, P1, small_ensemble, 5, 10) == 1.0


def _falling_values(n, shift_se, seed):
    """``y`` on two steps whose increment ``exp(|y_1|) - exp(|y_0|)`` has
    sample mean ``shift_se`` of its standard errors."""
    d = np.random.default_rng(seed).uniform(-0.5, 0.5, n)
    d -= d.mean()
    d += shift_se * d.std(ddof=1) / math.sqrt(n)
    return np.column_stack([np.full(n, math.log(2.0)), np.log(2.0 + d)])


@pytest.mark.parametrize("x0", [0.0, 100000.1])
def test_submartingale_constant_state_is_one_bin_at_any_level(gamma_quad, x0):
    # the state at time 0 is x0 on every path, whose sample spread is 1.5e-11
    # at 100000.1: every quantile edge is x0, so the paths fill bin 0 alone,
    # whose 3-SE test flags a mean 3.5 SEs below 0
    ens = forward(gamma_quad, "brownian", 1.0, 1, 30000, seed=71, x0=x0)
    assert submartingale_test(_falling_values(30000, -3.5, seed=72), P1, ens, 0, 1) == 1.0


def _on_two_values(gamma_quad, y):
    """The submartingale fraction of ``y`` on a state with two values, the
    first half of the paths at the lower one."""
    n = y.shape[0]
    ens = forward(gamma_quad, "brownian", 1.0, 1, n, seed=73)
    tied = np.asfortranarray(np.column_stack([np.repeat([0.0, 1.0], n // 2),
                                              ens.state[:, 1]]))
    return submartingale_test(y, P1, dataclasses.replace(ens, state=tied), 0, 1)


def _two_valued(gamma_quad, shift_se):
    """The submartingale fraction on a state with two values, 15,000 paths
    each, whose first half of increments has mean ``shift_se`` of its SEs."""
    y = np.concatenate([_falling_values(15000, shift_se, seed=74),
                        _falling_values(15000, 0.0, seed=75)])
    return _on_two_values(gamma_quad, y)


def test_submartingale_skips_the_empty_bins_of_tied_edges(gamma_quad):
    # a state with two values puts all 19 quantile edges on ties: two bins
    # hold the paths, and the 18 empty ones are skipped
    assert _two_valued(gamma_quad, -50.0) == 0.5


def test_submartingale_shares_the_family_error_over_the_occupied_bins(gamma_quad):
    # the two occupied bins share the 3-SE family error (z = 3.21), so a bin
    # 3.5 SEs below 0 is flagged; a share over all 20 bins (z = 3.82) is not
    assert _two_valued(gamma_quad, -3.5) == 0.5


def test_submartingale_refuses_an_overflowing_exponent(gamma_quad):
    # X falling from 800 to 700 on every path overflows exp to inf, whose
    # increments no bin flags; it is refused, at delta = 2 from half of it
    ens = forward(gamma_quad, "brownian", 1.0, 1, 3000, seed=76)
    y = np.column_stack([np.full(3000, 800.0), np.full(3000, 700.0)])
    for params, values in ((P1, y), (q.StructureParams(2.0, 0.0, 0.0), y / 2)):
        with pytest.raises(ExponentOverflowError, match="exceeds cap"):
            submartingale_test(values, params, ens, 0, 1)
    # the same fall from 10 to 9 is flagged on every path, and so is one
    # just below the cap, whose bins' sums and squares of increments exceed
    # the float range unscaled
    spread = np.random.default_rng(77).uniform(0.0, 1.0, (3000, 1))
    for start in (10.0, EXP_CAP - 1.0):
        y = np.column_stack([np.full(3000, start), np.full(3000, start - 1.0)]) + spread
        assert submartingale_test(y, P1, ens, 0, 1) == 1.0, start


def test_submartingale_scales_each_bin_apart(gamma_quad):
    # increments near exp(400) in the upper bin leave the lower bin's, a
    # martingale 0.5 SEs below 0, at their own scale: scaled by the upper
    # bin's power of two, their squared deviations fell under the smallest
    # float, the SE read 0 and the lower bin was flagged
    rising = np.column_stack([np.full(1500, 400.0), np.full(1500, 400.5)])
    y = np.concatenate([_falling_values(1500, -0.5, seed=78), rising])
    assert _on_two_values(gamma_quad, y) == 0.0


def test_submartingale_index_validation(small_ensemble):
    with pytest.raises(ValueError):
        submartingale_test(np.zeros((10, 21)), P1, small_ensemble, 10, 5)


# ---------------------------------------------------------------------------
# martingale regression test
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[11, 12, 13])
def martingale_increments(request):
    """Estimated martingale increments ``dm`` of a 5000-path canonical
    solve, with their ensemble."""
    model = q.make_model("gamma", theta=1.0, beta=1.0)
    quad = q.build_quadrature(model, 8.0, 12)
    ens = forward(quad, "brownian_jumps", 0.7, 30, 5000, seed=request.param)
    drv = q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0))
    return ens, decompose(solve(q.DriverView(drv, ens), lambda x: np.abs(0.25 * x))).dm


def test_martingale_coefficients_pass_on_martingale_increments(martingale_increments):
    # z and u are time-t_k regressions, so these are martingale increments by
    # construction, but their variance moves with the state: a pooled
    # residual variance reads 5.2 to 8.2 here
    ens, increments = martingale_increments
    assert martingale_regression_test(increments, ens, 3) <= 4.0


def test_martingale_coefficients_catch_a_drift(martingale_increments):
    ens, increments = martingale_increments
    drifted = increments + np.tanh(ens.state[:, :-1]) * ens.dt
    assert martingale_regression_test(drifted, ens, 3) > 4.0


# ---------------------------------------------------------------------------
# canonical exponential semimartingales
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_ensemble(gamma_quad):
    return forward(gamma_quad, "brownian_jumps", 1.0, 5, 100, seed=61)


def test_canonical_flat_martingale(tiny_ensemble):
    # a null field on a real jump stream: every compensated jump sum and
    # every compensator vanishes, so the path stays at r0
    assert tiny_ensemble.jumps.n_jumps > 0
    r = canonical_paths(tiny_ensemble, np.zeros((100, 5)), 0.0,
                        np.zeros((5, tiny_ensemble.quad.n_nodes)), "upper", r0=1.5)
    assert np.all(r == 1.5)
    mean, se = doleans_check(r)
    assert mean == 1.0 and se == 0.0


def test_canonical_brownian_direction(small_ensemble, gamma_quad):
    mc = small_ensemble.dw
    u0 = np.zeros((small_ensemble.n_steps, gamma_quad.n_nodes))
    r = canonical_paths(small_ensemble, mc, small_ensemble.dt, u0, "upper")
    # r_T = W_T - T/2 for a unit Brownian loading
    assert np.allclose(r[:, -1], small_ensemble.dw.sum(axis=1) - 0.5,
                       atol=1e-12)
    mean, se = doleans_check(r, "upper")
    assert abs(mean - 1.0) <= 3.0 * se


def test_canonical_jump_directions(small_ensemble, gamma_quad):
    mc = small_ensemble.dw
    u_const = np.full((small_ensemble.n_steps, gamma_quad.n_nodes), 0.3)
    for direction in ("upper", "lower"):
        r = canonical_paths(small_ensemble, mc, small_ensemble.dt, u_const,
                            direction)
        mean, se = doleans_check(r, direction)
        assert abs(mean - 1.0) <= 3.0 * se, (direction, mean, se)
        # the stochastic exponential itself is positive pathwise
        inc = r[:, -1] - r[:, 0]
        assert np.all(np.isfinite(np.exp(inc if direction == "upper" else -inc)))


def test_canonical_direction_validation(tiny_ensemble):
    with pytest.raises(ValueError):
        canonical_paths(tiny_ensemble, np.zeros((100, 5)), 0.0,
                        np.zeros((5, tiny_ensemble.quad.n_nodes)), "sideways")


@pytest.mark.parametrize("direction, sign", [("upper", 1.0), ("lower", -1.0)])
def test_canonical_compensator_refuses_overflow(tiny_ensemble, direction, sign):
    # exp(u) - u - 1 above the exponent cap raises instead of returning inf
    u = np.full((5, tiny_ensemble.quad.n_nodes), sign * (EXP_CAP + 1.0))
    with pytest.raises(ExponentOverflowError):
        canonical_paths(tiny_ensemble, np.zeros((100, 5)), 0.0, u, direction)


# ---------------------------------------------------------------------------
# stability diagnostics
# ---------------------------------------------------------------------------

def test_stability_identical_decompositions(canonical_solution):
    _, sol = canonical_solution
    pairs = stability_diagnostics([sol, sol, sol])
    assert all(math.isnan(gap) for gap in pairs[0])
    assert pairs[1:] == [(0.0, 0.0), (0.0, 0.0)]
    h1, vstar = pairwise_gap(sol, sol)
    assert h1 == 0.0 and vstar == 0.0


def test_pairwise_gap_holds_no_cell_array(gamma_quad):
    # per-path accumulators only: no (n, K) array of increments or sums
    params = q.StructureParams(1.0, 0.0, 0.0)
    ens = forward(gamma_quad, "brownian_jumps", 1.0, 50, 2000, seed=5)
    sol = solve(q.DriverView(q.make_driver("canonical", params), ens),
                lambda x: np.abs(0.25 * x))
    rng = np.random.default_rng(6)
    other = dataclasses.replace(
        sol, y=np.asfortranarray(sol.y + rng.normal(0.0, 0.1, sol.y.shape)),
        driver_values=np.asfortranarray(sol.driver_values
                                         + rng.normal(0.0, 0.5, sol.driver_values.shape)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h1, vstar = pairwise_gap(other, sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= sol.driver_values.nbytes
    # both floats keep the bits of the whole-array form
    dt = ens.dt
    dv_a, dv_b = other.driver_values * dt, sol.driver_values * dt
    dm = (np.diff(other.y, axis=1) + dv_a) - (np.diff(sol.y, axis=1) + dv_b)
    v_gap = np.cumsum(dv_a, axis=1) - np.cumsum(dv_b, axis=1)
    assert h1 > 0.0 and vstar > 0.0
    assert h1 == float(np.sqrt((dm ** 2).sum(axis=1)).mean())
    assert vstar == float(np.abs(v_gap).max(axis=1).mean())


def test_stability_refinement_gap_shrinks(gamma_quad):
    # deterministic linear generator: the variation part converges first
    # order in the grid, so coarse-vs-fine gaps shrink as the grid refines
    p = q.StructureParams(1.0, 0.5, 1.0)
    drv = q.make_driver("linear", p, a=0.5)
    v_terminal = {}
    for k_steps in (25, 50, 100):
        ens = forward(gamma_quad, "brownian_jumps",
                      1.0, k_steps, 500, seed=31)
        sol = solve(q.DriverView(drv, ens), lambda x: np.ones_like(x))
        v_terminal[k_steps] = float((sol.driver_values[0] * ens.dt).sum())
    gap_coarse = abs(v_terminal[25] - v_terminal[50])
    gap_fine = abs(v_terminal[50] - v_terminal[100])
    assert gap_coarse > gap_fine


def test_stability_requires_shared_ensemble(canonical_solution, small_ensemble,
                                            gamma_quad):
    _, sol = canonical_solution
    other_ens = forward(gamma_quad, "brownian_jumps",
                        1.0, small_ensemble.n_steps, 20000, seed=999)
    drv = q.make_driver("zero", q.StructureParams(1.0, 0.0, 0.0))
    other_sol = solve(q.DriverView(drv, other_ens), lambda x: np.zeros_like(x))
    with pytest.raises(EnsembleMismatchError):
        stability_diagnostics([sol, other_sol])


# ---------------------------------------------------------------------------
# increasing-process moment probe
# ---------------------------------------------------------------------------

def test_garsia_neveu_deterministic_fixtures():
    tg = np.linspace(0.0, 1.0, 11)
    a_paths = np.tile(tg, (500, 1))
    u_dom = np.full(500, 1.0)
    for p, rhs in ((1.0, 1.0), (2.0, 4.0)):
        rep = garsia_neveu_probe(a_paths, u_dom, p)
        assert rep.ok
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(rhs)


def test_garsia_neveu_quadratic_clock():
    tg = np.linspace(0.0, 1.0, 11)
    a_paths = np.tile(tg ** 2, (500, 1))
    u_dom = np.full(500, 1.0)  # E[A_T - A_s | F_s] = 1 - s^2 <= 1
    for p in (1.0, 2.0):
        assert garsia_neveu_probe(a_paths, u_dom, p).ok


def test_garsia_neveu_running_max_fixture(small_ensemble):
    w = np.concatenate([np.zeros((small_ensemble.n_paths, 1)),
                        np.cumsum(small_ensemble.dw, axis=1)], axis=1)
    a_paths = np.maximum.accumulate(np.abs(w), axis=1)
    for p in (1.0, 2.0):
        rep = garsia_neveu_probe(a_paths, a_paths[:, -1], p)
        assert rep.ok


def test_garsia_neveu_validation():
    with pytest.raises(ValueError):
        garsia_neveu_probe(np.ones((5, 3)), np.ones(5), 0.5)
    with pytest.raises(ValueError, match="nondecreasing"):
        garsia_neveu_probe(np.array([[0.0, 1.0, 0.5]]), np.ones(1), 1.0)


def test_transform_exponential_moments_stable(canonical_solution,
                                              small_ensemble):
    # E[exp(p * X_T)] finite for p in {1, 2} on the Gaussian-tail fixture:
    # the sample mean moves by less than 10% between half and full sample
    params, sol = canonical_solution
    terminal = exponential_transform(sol.y[:, -1], params, small_ensemble.time_grid,
                                     sol.n_steps)
    for p in (1.0, 2.0):
        vals = np.exp(p * terminal)
        full = float(vals.mean())
        half = float(vals[: vals.size // 2].mean())
        assert math.isfinite(full)
        assert abs(full - half) < 0.10 * half
