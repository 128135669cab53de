import dataclasses
import sys

import numpy as np
import pytest

import qebsdej as q
from qebsdej import levy, solver
from qebsdej.scheme import (Schedule, default_c_split, driver_l1_gap,
                            ladder_quadrature, monotonicity_check, run_triple_scheme)
from qebsdej.semimartingale import check_q_structure
from qebsdej.solver import BsdejSolution, EnsembleMismatchError, PathEnsemble

from conftest import forward, solve, traced_peak
from references import c_split_concatenated, girsanov_tilt_exact, padded_u_values


def run_ladder(base, terminal_fn, model, schedule, seed, k_steps, n_paths,
               q_nodes, jump_impact="unit"):
    """The ladder on a fresh ensemble over [0, 1]: the ensemble and the
    scheme result."""
    quad = ladder_quadrature(model, schedule, q_nodes)
    ens = forward(model, quad, "brownian_jumps",
                  1.0, k_steps, n_paths, seed,
                  jump_impact=jump_impact)
    return ens, run_triple_scheme(base, terminal_fn, ens, schedule,
                                  basis_degree=3, picard_max=50,
                                  picard_tol=1e-10)


def solutions(result):
    """Each triple's solve, None where the triple failed."""
    return [r.solution for r in result.report.records]


@pytest.fixture(scope="module")
def mini_scheme(gamma_model):
    params = q.StructureParams(1.0, 0.0, 0.0)
    base = q.make_driver("canonical", params)
    schedule = Schedule(((2, 2, 2), (4, 4, 4), (8, 8, 8)))
    return run_ladder(base, lambda x: np.abs(0.25 * x), gamma_model, schedule,
                      seed=314, k_steps=25, n_paths=8000, q_nodes=10)


# ---------------------------------------------------------------------------
# schedule bookkeeping
# ---------------------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ValueError, match="at least one"):
        Schedule(())
    with pytest.raises(ValueError, match="nondecreasing"):
        Schedule(((2, 2, 2), (1, 2, 2)))
    with pytest.raises(ValueError, match="three indices"):
        Schedule(((2, 2), (2, 2)))
    sched = Schedule(((1, 1, 2), (2, 1, 2), (2, 2, 4)))
    assert [(l["lo"], l["hi"]) for l in sched.links(True)] == [(0, 1), (1, 2)]
    assert [l["direction"] for l in sched.links(True)] == [+1, +1]
    # on a signed base the m index is not inert: moving it with kappa leaves
    # the second link without a direction
    assert [l["direction"] for l in sched.links(False)] == [+1, None]
    assert sched.kappa_max == 4.0


def test_degenerate_single_triple_equals_plain_solve(gamma_model):
    # an already-Lipschitz generator on a finite-activity style quadrature:
    # the one-triple ladder reproduces a direct solve on the same ensemble
    params = q.StructureParams(1.0, 1.0, 1.0)
    base = q.make_driver("linear", params, a=0.4, b=0.2)
    schedule = Schedule(((4, 4, 4),))
    ens, result = run_ladder(base, lambda x: x, gamma_model, schedule,
                             seed=55, k_steps=10, n_paths=2000, q_nodes=8)
    direct = solve(q.DriverView(base, ens), lambda x: x)
    assert solutions(result)[0].y0 == pytest.approx(direct.y0, abs=1e-12)
    assert np.allclose(solutions(result)[0].y, direct.y, atol=1e-12)


# ---------------------------------------------------------------------------
# ladder report
# ---------------------------------------------------------------------------

def test_lipschitz_driver_ladder_matches_closed_form(gamma_model):
    # once the indices clear the Lipschitz constant the regularization is
    # exact, so every triple reproduces the same tilted-drift value
    params = q.StructureParams(1.0, 1.0, 0.0)
    base = q.make_driver("linear", params, a=0.0, b=0.3)
    schedule = Schedule(((1, 1, 2), (2, 2, 4), (4, 4, 8)))
    ens, res = run_ladder(base, lambda x: x, gamma_model, schedule, seed=66,
                          k_steps=20, n_paths=20000, q_nodes=8)
    y0s = [s.y0 for s in solutions(res)]
    assert y0s[0] == pytest.approx(y0s[1], abs=1e-12)
    assert y0s[1] == pytest.approx(y0s[2], abs=1e-12)
    exact = girsanov_tilt_exact(0.3, 0.0, ens.quad.total_mass, 1.0)
    assert abs(y0s[0] - exact) <= 3.0 * solutions(res)[0].y0_se


def test_ladder_monotone_and_clean(mini_scheme):
    rep = mini_scheme[1].report
    y0s = [r.y0 for r in rep.records]
    assert y0s[0] < y0s[1] < y0s[2]
    assert rep.monotone_y0
    assert list(rep.comparison_violations) == [0, 1]
    assert all(frac < 0.01 for frac in rep.comparison_violations.values())
    assert all(r.corridor.violation_fraction < 0.01 for r in rep.records)
    assert all(r.apriori.ok for r in rep.records)
    assert all(r.submartingale.verdict for r in rep.records)


def test_ladder_gaps_decrease(mini_scheme):
    rep = mini_scheme[1].report
    gaps = [r.a1 + r.a2 for r in rep.records if r.dec is not None]
    assert gaps[0] > gaps[1] > gaps[2] == 0.0
    assert rep.gaps_decreasing
    assert rep.stability_decreasing
    proxies = [r.h1_gap_proxy for r in rep.records]
    assert proxies[0] > proxies[1] > proxies[2] == 0.0
    # the summary prints the largest rise between the compared values
    assert rep.gaps_max_rise == gaps[1] - gaps[0]
    assert rep.stability_max_rise == proxies[1] - proxies[0]


def test_ladder_chebyshev_region_mass(mini_scheme):
    for rec in mini_scheme[1].report.records:
        assert rec.region_fraction <= rec.chebyshev_bound + 0.01


def test_ladder_factorizes_each_step_design_once(gamma_model, monkeypatch):
    # the triples regress on one ensemble at one degree, so every step's
    # design is factorized by the first triple alone; every factor takes one
    # SVD, however many row blocks its QR reduces
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver.np.linalg, "svd", counted)
    schedule = Schedule(((2, 2, 2), (4, 4, 4), (8, 8, 8)))
    _, result = run_ladder(q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0)),
                           lambda x: np.abs(0.25 * x), gamma_model, schedule,
                           seed=7, k_steps=10, n_paths=2000, q_nodes=10)
    assert not any(rec.error for rec in result.report.records)
    assert len(calls) == 10


def test_report_rows_roundtrip(mini_scheme):
    rows = mini_scheme[1].report.rows()
    assert len(rows) == 3
    assert rows[0]["kappa"] == 2.0
    assert all(not row["error"] for row in rows)


# a ladder like the shipped one (scale 0.25, indices 2, 4, 8) and one at
# terminal scale 1.0 with small n and m, where the envelope acts
LADDERS = {"shipped_like": (0.25, ((2, 2, 2), (4, 4, 4), (8, 8, 8))),
           "scale_one": (1.0, ((1, 1, 2), (2, 2, 4), (4, 4, 8)))}


@pytest.fixture(scope="module", params=sorted(LADDERS))
def certified_and_full(request, gamma_model):
    """The ladder with the canonical driver, and with the same driver
    stripped of its declared mark slopes, so that every row runs the mark
    envelope."""
    scale, triples = LADDERS[request.param]
    base = q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0))
    full = dataclasses.replace(base, g_and_slope=None)
    return request.param, [
        run_ladder(drv, lambda x: np.abs(scale * x), gamma_model, Schedule(triples),
                   seed=2024, k_steps=10, n_paths=3000, q_nodes=12)[1].report
        for drv in (base, full)]


def test_certified_ladder_matches_the_envelope_on_every_row(certified_and_full):
    name, (certified, full) = certified_and_full
    for rec, ref in zip(certified.records, full.records):
        assert not rec.error and not ref.error
        for attr in ("driver_values", "y", "z"):
            np.testing.assert_array_equal(getattr(rec.solution, attr),
                                          getattr(ref.solution, attr))
        assert rec.envelope_active == ref.envelope_active
    active = [rec.envelope_active for rec in certified.records]
    if name == "shipped_like":
        assert active == [0.0, 0.0, 0.0]
        return
    assert all(a > 0.0 for a in active)
    # both rows certified for the mark part and open rows occur on every
    # triple of this ladder
    for rec in certified.records:
        sol = rec.solution
        ens = sol.ensemble
        # the triple's nodes among the live ones: a dead node's loading is
        # zero and adds nothing to the slope sum
        kept = np.isin(np.flatnonzero(ens.live), ens.quad.restrict_indices(rec.kappa))
        certified_rows = 0
        for k in range(sol.n_steps):
            u = sol.u_values(k)[:, kept]
            slope = np.expm1(u) ** 2 * ens.live_intensity[kept]
            certified_rows += int((slope.sum(axis=-1) <= rec.n ** 2).sum())
        assert 0 < certified_rows < sol.driver_values.size


def test_every_field_summed_over_the_nodes_is_column_major(gamma_model, monkeypatch):
    # nu_dot reads one node's column at a time, which is one contiguous block
    # only in a column-major field.  The scale-one ladder opens envelope
    # rows, so the bisection's row subset is summed too, and a linear driver
    # that changes sign makes the corridor audit take its lower edge on a
    # row subset
    real, seen = levy.nu_dot, []

    def recording(field, wz):
        field = np.asarray(field)
        if field.ndim == 2:
            seen.append((sys._getframe(1).f_code.co_name, field.shape[0],
                         field.flags.f_contiguous))
        return real(field, wz)

    for module in [m for name, m in sys.modules.items() if name.startswith("qebsdej")]:
        if getattr(module, "nu_dot", None) is real:
            monkeypatch.setattr(module, "nu_dot", recording)
    params = q.StructureParams(1.0, 0.0, 0.0)
    scale, triples = LADDERS["scale_one"]
    ens, result = run_ladder(q.make_driver("canonical", params),
                             lambda x: np.abs(scale * x), gamma_model, Schedule(triples),
                             seed=5, k_steps=6, n_paths=2000, q_nodes=12)
    assert all(rec.envelope_active > 0.0 for rec in result.report.records)
    linear = solve(q.DriverView(q.make_driver("linear", params, a=-0.8), ens),
                   lambda x: 0.25 * x)
    check_q_structure(linear, params)
    assert {"_jump_envelope", "j_functional", "nu_norm"} <= {name for name, _, _ in seen}
    assert any(name == "j_functional" and rows < ens.n_paths for name, rows, _ in seen)
    assert [name for name, _, column_major in seen if not column_major] == []


# ---------------------------------------------------------------------------
# the loading on the live nodes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_paths", [2000, 150])
def test_live_width_fields_keep_the_bits_of_zero_padded_ones(gamma_model, gamma_quad,
                                                            n_paths, monkeypatch):
    # a solution stores its loading on the live nodes only; each reader of
    # it gives the bits that the zero-padded field on every node gives, at
    # 2000 paths (live and dead nodes) and at 150 (no live node at all)
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 10, n_paths, seed=17)
    live = ens.live
    assert live.any() == (n_paths == 2000) and not live.all()
    params = q.StructureParams(1.0, 0.0, 0.0)
    view = q.DriverView(q.make_driver("canonical", params), ens)
    sol, proxy = (solve(q.regularize(view, n, n), lambda x: np.abs(x)) for n in (1, 4))
    tol = np.array([3.0 * sol.regression_se(k) for k in range(sol.n_steps)])

    def readers():
        gap = driver_l1_gap(sol, proxy, 0.5)
        return (check_q_structure(sol, params, tol).violation_fraction,
                gap.a1, gap.a2, gap.chebyshev_bound, gap.region_fraction,
                default_c_split(sol))

    dm, live_width = q.decompose(sol).dm, readers()
    padded_dm = sol.z * ens.dw
    for s in (sol, proxy):
        for k in range(ens.n_steps):
            padded = padded_u_values(s, k)
            assert not padded[:, ~live].any() and not np.signbit(padded[:, ~live]).any()
            assert s.u_values(k).tobytes() == np.asfortranarray(padded[:, live]).tobytes()
    for k in range(ens.n_steps):
        padded_dm[:, k] += ens.jumps.compensated_sum(k, padded_u_values(sol, k),
                                                     ens.quad.weights, ens.dt)
    assert dm.tobytes() == padded_dm.tobytes()
    monkeypatch.setattr(BsdejSolution, "u_values", padded_u_values)
    monkeypatch.setattr(PathEnsemble, "live_intensity", property(lambda e: e.quad.weights))
    assert np.array(readers()).tobytes() == np.array(live_width).tobytes()


# ---------------------------------------------------------------------------
# comparison links
# ---------------------------------------------------------------------------

def test_unlinked_comparison_refused(gamma_model, gamma_quad):
    drv = q.make_driver("zero", q.StructureParams(1.0, 0.0, 0.0))
    sols = []
    for seed in (1, 2):
        ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 10,
                      1000, seed=seed)
        sols.append(solve(q.DriverView(drv, ens), lambda x: x))
    with pytest.raises(EnsembleMismatchError):
        monotonicity_check(sols, [dict(lo=0, hi=1, direction=+1)])


def test_identical_solves_zero_violations(small_ensemble, gamma_quad):
    drv = q.make_driver("zero", q.StructureParams(1.0, 0.0, 0.0))
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: x)
    fracs = monotonicity_check([sol, sol], [dict(lo=0, hi=1, direction=+1)])
    assert fracs == {0: 0.0}


# ---------------------------------------------------------------------------
# generator gap split
# ---------------------------------------------------------------------------

def test_identical_solutions_zero_gap(mini_scheme):
    _, result = mini_scheme
    proxy = solutions(result)[-1]
    rep = driver_l1_gap(proxy, proxy, c_split=5.0)
    assert rep.a1 == 0.0 and rep.a2 == 0.0


@pytest.mark.parametrize("scale", [0.0, 1e-200])
def test_default_split_without_martingale_part(gamma_model, gamma_quad, scale):
    # sizes of zero, or so small that the split's square underflows, leave
    # no Chebyshev bound at five times their percentile; the split is then 1
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 4, 500, seed=3)
    sol = solve(q.DriverView(q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0)),
                             ens), lambda x: scale * x)
    assert default_c_split(sol) == 1.0
    rep = driver_l1_gap(sol, sol, default_c_split(sol))
    assert rep.a1 == rep.a2 == rep.region_fraction == 0.0


def test_default_split_fills_one_buffer(perturbed_solution):
    # one n K buffer, partitioned in place, and the bits of the percentile of
    # the concatenated sizes
    sol = perturbed_solution
    np.percentile(np.zeros(2), 90.0)  # the first call imports numpy.ma, about 1.2 MB
    split, peak = traced_peak(default_c_split, sol)
    assert peak < 2 * sol.z.nbytes
    assert split == c_split_concatenated(sol)


def test_gap_split_validation(mini_scheme):
    _, result = mini_scheme
    with pytest.raises(ValueError, match="positive"):
        driver_l1_gap(solutions(result)[0], solutions(result)[-1], c_split=0.0)


def test_uniform_gap_shrinks_along_ladder(gamma_model):
    # with mark-sized jump impacts the solution's jump loading vanishes at
    # small marks, so consecutive ladder gaps shrink uniformly in time
    params = q.StructureParams(1.0, 0.0, 0.0)
    base = q.make_driver("canonical", params)
    schedule = Schedule(((2, 2, 2), (4, 4, 4), (8, 8, 8)))
    _, res = run_ladder(base, lambda x: np.abs(0.4 * x), gamma_model, schedule,
                        seed=99, k_steps=20, n_paths=6000, q_nodes=10,
                        jump_impact="mark")
    sols = solutions(res)
    gaps = []
    for a, b in zip(sols, sols[1:]):
        gaps.append(float(np.abs(b.y - a.y).mean(axis=0).max()))
    assert gaps[0] > gaps[1]


def test_truncation_remainder_vanishes(gamma_model):
    # the below-cut part of the exponential penalty on a fixed reference
    # quadrature shrinks as the truncation level grows; the field vanishes
    # linearly at small marks, as square-integrable solution fields do
    quad = q.build_quadrature(gamma_model, 32.0, 14,
                              cut_levels=[0.5, 0.25, 0.125, 1 / 16])
    u = 0.8 * np.minimum(np.abs(quad.nodes), 1.0)
    remainders = []
    for kappa in (2.0, 4.0, 8.0, 16.0, 32.0):
        keep = quad.restrict_indices(kappa)
        below = np.setdiff1d(np.arange(quad.n_nodes), keep)
        rem = float(((np.expm1(u[below]) - u[below])
                     * quad.weights[below]).sum())
        remainders.append(rem)
    assert all(a > b for a, b in zip(remainders, remainders[1:]))
    assert remainders[-1] == 0.0
    assert remainders[-2] < 0.1 * remainders[0]
