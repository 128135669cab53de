import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import qebsdej as q
from qebsdej import solver
from qebsdej.oracles import girsanov_tilt_mc
from qebsdej.runner import _reconstruction_gap
from qebsdej.scheme import driver_l1_gap, monotonicity_check
from qebsdej.semimartingale import martingale_regression_test, pairwise_gap
from qebsdej.solver import (CLIP_SIGMAS, QR_ROWS, EnsembleMismatchError, FeatureMap,
                            NonContractionError, Regression, same_ensemble)

from conftest import forward, solve, traced_peak
from references import (canonical_paths, dense_jump_targets, girsanov_tilt_exact,
                        reconstruction_gap_whole_array, s2_norm_whole_array,
                        structure_bounds)


@pytest.fixture(scope="module")
def null_quad():
    return q.build_quadrature(q.make_model("null"), 2.0, 4)


@pytest.fixture(scope="module")
def brownian_ensemble(null_quad):
    return forward(q.make_model("null"), null_quad, "brownian", 1.0, 25,
                   50000, seed=77)


# ---------------------------------------------------------------------------
# forward simulation
# ---------------------------------------------------------------------------

def test_brownian_increment_statistics(gamma_model, gamma_quad):
    n = 100000
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 10, n,
                  seed=55)
    dt = ens.dt
    for k in (0, 5, 9):
        inc = ens.dw[:, k]
        assert abs(inc.mean()) <= 4.0 * math.sqrt(dt / n)
        assert abs(inc.var() / dt - 1.0) <= 0.05


def test_seed_reproducibility(gamma_model, gamma_quad):
    a = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 5, 500,
                seed=9)
    b = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 5, 500,
                seed=9)
    assert np.array_equal(a.state, b.state)
    assert np.array_equal(a.dw, b.dw)
    assert np.array_equal(a.jumps.time, b.jumps.time)


def test_deterministic_dynamics(gamma_model, gamma_quad):
    tg = np.linspace(0.0, 1.0, 9)
    ens = forward(gamma_model, gamma_quad, "deterministic", 1.0, 8, 10,
                  seed=1)
    assert np.allclose(ens.state, tg[None, :], atol=1e-15)


def test_brownian_terminal_variance(null_quad):
    ens = forward(q.make_model("null"), null_quad, "brownian", 1.0, 10,
                  100000, seed=2)
    assert abs(ens.state[:, -1].var() / 1.0 - 1.0) <= 0.05


def test_compensated_jump_state_mean(gamma_model):
    quad = q.build_quadrature(gamma_model, 4.0, 10)
    n = 100000
    ens = forward(gamma_model, quad, "jumps_only", 1.0, 10, n, seed=3)
    term = ens.state[:, -1]
    assert abs(term.mean()) <= 4.0 * term.std() / math.sqrt(n)


def test_mark_impact_dynamics(gamma_model, gamma_quad):
    ens = forward(gamma_model, gamma_quad, "jumps_only", 1.0, 4, 2000,
                  seed=4, jump_impact="mark")
    assert np.isfinite(ens.state).all()
    with pytest.raises(ValueError, match="jump_impact"):
        forward(gamma_model, gamma_quad, "jumps_only", 1.0, 4, 10,
                seed=4, jump_impact="levels")


def test_unknown_dynamics_rejected(gamma_model, gamma_quad):
    with pytest.raises(ValueError, match="dynamics"):
        forward(gamma_model, gamma_quad, "heston",
                1.0, 4, 10, seed=1)


def test_feature_map_deterministic_state_reduces_to_intercept():
    fmap = FeatureMap.fit(np.full(100, 3.0), 3)
    assert fmap.n_basis == 1
    design = fmap.matrix(np.full(100, 3.0))
    assert design.shape == (100, 1) and design.dtype == np.float64
    assert np.all(design == 1.0)


def _power_design(fmap, x):
    t = np.clip((x - fmap.center) / fmap.scale, -CLIP_SIGMAS, CLIP_SIGMAS)
    return np.column_stack([np.power(t, p) for p in range(fmap.degree + 1)])


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("tail", ["normal", "clipped"])
def test_feature_map_matches_power_reference(degree, tail):
    # repeated multiplication stays within a few ulps of libm's pow, on
    # states inside the clip and on states that hit both clip edges
    rng = np.random.default_rng(11 + degree)
    x = 0.7 + 2.0 * rng.standard_normal(5000)
    if tail == "clipped":
        x[:100] = rng.choice([-1.0, 1.0], 100) * rng.uniform(20.0, 60.0, 100)
    fmap = FeatureMap.fit(x, degree)
    design, ref = fmap.matrix(x), _power_design(fmap, x)
    assert design.shape == (5000, degree + 1) and design.dtype == np.float64
    assert design.flags.f_contiguous
    assert np.all(np.abs(design - ref) <= 4 * np.spacing(np.abs(ref)))
    if degree and tail == "clipped":
        assert np.all(np.isin([-CLIP_SIGMAS, CLIP_SIGMAS], design[:, 1]))


def _assert_rel(actual, expected, rtol=1e-12):
    np.testing.assert_allclose(actual, expected, rtol=rtol,
                               atol=rtol * np.max(np.abs(expected)))


@pytest.mark.parametrize("degree", range(9))
def test_regression_matches_reference_linear_algebra(degree):
    # the second size spans four row blocks, the last of them with fewer
    # rows than columns
    rng = np.random.default_rng(5)
    for n in (400, 3 * QR_ROWS + 2):
        reg = Regression(rng.standard_normal(n), degree)
        x = reg.design
        targets = rng.standard_normal((n, 3))
        coeffs, fitted = reg.fit(targets)
        ref, *_ = np.linalg.lstsq(x, targets, rcond=None)
        _assert_rel(coeffs, ref)
        _assert_rel(fitted, x @ ref)
        # the references come from the SVD of the design itself: through the
        # Gram matrix they would square its condition number (4e3 at degree 8)
        _assert_rel(reg.gram_condition, np.linalg.cond(x) ** 2)
        resid = targets[:, 0] - fitted[:, 0]
        bread = np.linalg.pinv(x)
        # the diagonal of bread @ diag(resid^2) @ bread.T
        _assert_rel(reg.robust_variances(resid), (bread ** 2) @ (resid ** 2))


def test_regression_rank_deficient_design_gets_minimum_norm_fit():
    # two distinct states: the cubic design has rank 2; at the second size
    # its rows span four row blocks, the first of rank 1 and the last of
    # two rows
    for half in (50, 3 * QR_ROWS // 2 + 1):
        reg = Regression(np.repeat([0.0, 1.0], half), 3)
        assert reg.n_basis == 4
        assert np.linalg.matrix_rank(reg.design) == 2
        targets = np.random.default_rng(6).standard_normal(2 * half)
        coeffs, fitted = reg.fit(targets)
        ref, *_ = np.linalg.lstsq(reg.design, targets, rcond=None)
        _assert_rel(coeffs, ref)
        _assert_rel(fitted, reg.design @ ref)
        assert np.allclose(fitted[:half], targets[:half].mean(), rtol=0, atol=1e-12)


def test_regression_holds_one_transient_copy_of_the_design():
    # the factor and the robust variances each hold one copy of a row block
    # of the design (or its product with the p×p factor) at a time; a QR of
    # the whole design copies all n×p of it, and the variances
    # on the whole design form (p × n) temporaries
    n = 8 * QR_ROWS
    rng = np.random.default_rng(3)
    x, resid = rng.standard_normal(n), rng.standard_normal(n)
    for degree in (3, 8):
        reg, held = traced_peak(Regression, x, degree)
        assert reg.design.shape == (n, degree + 1)
        # one block of p columns, plus a block's squared residuals and the
        # small arrays
        limit = (reg.n_basis + 2) * QR_ROWS * reg.design.itemsize
        assert held - reg.design.nbytes < limit
        _, held = traced_peak(reg.robust_variances, resid)
        assert held < limit


def test_each_step_design_is_factorized_once_per_ensemble(gamma_model, gamma_quad,
                                                         monkeypatch):
    # every factor takes one SVD, however many row blocks its QR reduces
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(solver.np.linalg, "svd", counted)
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 8, 3000, seed=12)
    view = q.DriverView(q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0)),
                        ens)
    terminal = lambda x: np.abs(0.25 * x)
    cold = solve(view, terminal)
    dec = q.decompose(cold)
    martingale_regression_test(dec.dm, ens, cold.feature_maps[0].degree)
    assert len(calls) == ens.n_steps
    warm = solve(view, terminal)
    assert len(calls) == ens.n_steps
    # another degree has other factors
    martingale_regression_test(dec.dm, ens, 1)
    assert len(calls) == 2 * ens.n_steps
    # a copy is another ensemble: its memo starts empty
    copy = solve(q.DriverView(view.driver, dataclasses.replace(ens)), terminal)
    assert len(calls) == 3 * ens.n_steps
    for other in (warm, copy):
        pairs = [(getattr(other, name), getattr(cold, name))
                 for name in ("y", "z", "driver_values", "resid_var", "cond_numbers",
                              "picard_iterations", "u_clip")]
        for a, b in pairs + list(zip(other.u_coeffs, cold.u_coeffs)):
            assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# backward solves
# ---------------------------------------------------------------------------

def test_zero_driver_martingale(brownian_ensemble, null_quad):
    drv = q.make_driver("zero", q.StructureParams(1.0, 0.0, 0.0))
    sol = solve(q.DriverView(drv, brownian_ensemble), lambda x: x)
    err = np.abs(sol.y - brownian_ensemble.state).mean(axis=0).max()
    assert err <= 0.02
    z_mid = sol.z[:, 12]
    assert abs(z_mid.mean() - 1.0) <= 0.02
    assert np.array_equal(sol.y[:, -1], brownian_ensemble.state[:, -1])


def test_zero_mass_measure_gives_null_jump_loading(brownian_ensemble, null_quad):
    drv = q.make_driver("zero", q.StructureParams(1.0, 0.0, 0.0))
    sol = solve(q.DriverView(drv, brownian_ensemble), lambda x: x)
    assert np.all(sol.u_values(10) == 0.0)


def test_linear_ode_closed_form(gamma_model, gamma_quad):
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 100,
                  2000, seed=21)
    p = q.StructureParams(1.0, 0.5, 1.0)
    drv = q.make_driver("linear", p, a=0.5)
    sol = solve(q.DriverView(drv, ens), lambda x: np.ones_like(x))
    assert abs(sol.y0 - math.exp(0.5)) <= 0.01


def test_grid_refinement_first_order(gamma_model, gamma_quad):
    p = q.StructureParams(1.0, 0.5, 1.0)
    drv = q.make_driver("linear", p, a=0.5)
    y0 = {}
    for k_steps in (25, 50, 100):
        ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, k_steps,
                      500, seed=22)
        y0[k_steps] = solve(q.DriverView(drv, ens), lambda x: np.ones_like(x)).y0
    gap_coarse = abs(y0[25] - y0[50])
    gap_fine = abs(y0[50] - y0[100])
    assert gap_coarse >= 1.5 * gap_fine


def test_girsanov_tilt_oracle(gamma_model):
    quad = q.build_quadrature(gamma_model, 4.0, 10)
    ens = forward(gamma_model, quad, "brownian_jumps", 1.0, 40, 40000,
                  seed=23)
    p = q.StructureParams(1.0, 1.0, 0.0)
    drv = q.make_driver("linear", p, b=0.3, c_tilde=0.4)
    sol = solve(q.DriverView(drv, ens), lambda x: x)
    oracle = girsanov_tilt_mc(0.3, 0.4, quad.total_mass, 1.0, x0=0.0, impact=1.0,
                              n_samples=400000, seed=24)
    cse = math.hypot(sol.y0_se, oracle.stderr)
    assert abs(sol.y0 - oracle.value) <= 3.0 * cse
    assert oracle.value == pytest.approx(
        girsanov_tilt_exact(0.3, 0.4, quad.total_mass, 1.0), abs=3 * oracle.stderr)


def test_girsanov_tilt_spread_does_not_see_x0():
    # x0 shifts the tilted terminal and not its spread: at |x0| ~ 1e210 the
    # squared deviations of a sample that held x0 would overflow
    x0 = 1.276454349729761e210
    far = girsanov_tilt_mc(0.0, 0.0, 1.0, 1.0, x0=x0, impact=1.0, n_samples=20, seed=3)
    near = girsanov_tilt_mc(0.0, 0.0, 1.0, 1.0, x0=0.0, impact=1.0, n_samples=20, seed=3)
    assert 0.0 < far.stderr < math.inf
    assert far.stderr == near.stderr
    assert far.value == x0 + near.value


def _tilt_draws(b, c_tilde, mass, t_end, n_samples, seed):
    """The Brownian and Poisson terminals ``girsanov_tilt_mc`` draws."""
    rng = np.random.default_rng(seed)
    return (rng.normal(b * t_end, math.sqrt(t_end), n_samples),
            rng.poisson((1.0 + c_tilde) * mass * t_end, n_samples))


def test_girsanov_tilt_se_keeps_its_bits_at_any_scale():
    # the power-of-two scaling is exact: wherever the unscaled squares do not
    # overflow, the SE has the bits of the plain sample SD
    rng = np.random.default_rng(11)
    for _ in range(300):
        impact, seed = 10.0 ** rng.uniform(-100.0, 100.0), int(rng.integers(2**31))
        n = int(rng.integers(20, 60))
        w, cnt = _tilt_draws(0.0, 0.0, 1.0, 1.0, n, seed)
        dev = (w - w.mean()) + impact * (cnt - cnt.mean())
        plain = float(dev.std(ddof=1) / math.sqrt(n))
        got = girsanov_tilt_mc(0.0, 0.0, 1.0, 1.0, x0=0.0, impact=impact,
                               n_samples=n, seed=seed).stderr
        assert got == plain, (impact, seed, n)


def test_girsanov_tilt_mean_keeps_its_bits_at_any_scale():
    # the mean is taken at a power-of-two scale too, which is exact: wherever
    # the plain sum does not overflow, the estimate has the bits of its mean
    rng = np.random.default_rng(12)
    for _ in range(300):
        impact, seed = 10.0 ** rng.uniform(-100.0, 100.0), int(rng.integers(2**31))
        n = int(rng.integers(20, 60))
        w, cnt = _tilt_draws(0.0, 0.0, 1.0, 1.0, n, seed)
        plain = float((w + impact * (cnt - 1.0)).mean())
        got = girsanov_tilt_mc(0.0, 0.0, 1.0, 1.0, x0=0.0, impact=impact,
                               n_samples=n, seed=seed).value
        assert got == plain, (impact, seed, n)


def test_girsanov_tilt_se_of_a_large_spread_is_finite():
    # at |impact| ~ 3e153 the squared deviations overflow; the SE of the
    # counts times the impact is representable and is what the oracle reports
    impact = 2.9980769960612384e+153
    est = girsanov_tilt_mc(0.0, 0.0, 1.0, 1.0, x0=0.0, impact=impact, n_samples=20, seed=0)
    _, cnt = _tilt_draws(0.0, 0.0, 1.0, 1.0, 20, 0)
    assert math.isfinite(est.value)
    assert est.stderr == pytest.approx(impact * cnt.std(ddof=1) / math.sqrt(20), rel=1e-12)
    assert 6e152 < est.stderr < 8e152


def test_girsanov_tilt_se_keeps_the_brownian_part_without_jumps():
    # at 1.75 expected jumps this seed draws none; the jump part of every
    # deviation is then zero and the SE is the Brownian part's, which a sum
    # with the jump part before the deviations would round away
    mass, impact = 0.0625, 9.223372036854774e18
    w, cnt = _tilt_draws(0.0, 0.0, mass, 1.0, 28, 0)
    assert not cnt.any()
    est = girsanov_tilt_mc(0.0, 0.0, mass, 1.0, x0=0.0, impact=impact, n_samples=28, seed=0)
    assert est.stderr == float(w.std(ddof=1) / math.sqrt(28))
    assert 0.1 < est.stderr < 0.3


def test_non_contraction_guard(brownian_ensemble, null_quad):
    p = q.StructureParams(1.0, 0.0, 30.0)
    drv = q.make_driver("linear", p, a=30.0)  # dt = 0.04, dt * 30 > 1
    with pytest.raises(NonContractionError):
        solve(q.DriverView(drv, brownian_ensemble), lambda x: x)


def test_picard_non_convergence_raises(brownian_ensemble, null_quad):
    p = q.StructureParams(1.0, 0.0, 0.5)
    drv = q.make_driver("linear", p, a=0.5)
    with pytest.raises(RuntimeError, match="Picard"):
        solve(q.DriverView(drv, brownian_ensemble), lambda x: x, picard_max=1)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_holds_no_cumulative_copies(gamma_model, gamma_quad):
    # the one (n, K) increment array and one step's loading temporaries fit
    # in two such arrays; a second stored part or one cumulative copy does not
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 50, 2000, seed=8)
    drv = q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0))
    sol = solve(q.DriverView(drv, ens), lambda x: np.abs(0.25 * x))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dec = q.decompose(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [f.name for f in dataclasses.fields(dec)] == ["dm", "solution"]
    assert dec.dm.shape == (2000, 50)
    assert peak - before < 2 * dec.dm.nbytes


def test_reconstruction_gap_streams_by_step(perturbed_solution):
    # per-path running sums: no (n, K) array, and the bits of the whole-array
    # cumulative sums
    sol = perturbed_solution
    gap, peak = traced_peak(_reconstruction_gap, sol)
    assert peak < sol.driver_values.nbytes
    assert gap > 0.0
    assert gap == reconstruction_gap_whole_array(sol)


def test_s2_norm_streams_by_step(perturbed_solution):
    sol = perturbed_solution
    s2, peak = traced_peak(sol.s2_norm)
    assert peak < 4 * sol.y[:, 0].nbytes
    assert s2 == s2_norm_whole_array(sol)


def test_solve_on_sparse_jump_targets_keeps_the_bits_of_dense_ones(gamma_model, gamma_quad,
                                                                   monkeypatch):
    # at 2000 paths the first four nodes are live and the rest dead, and in
    # every interval some path sees two jumps at one live node
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 10, 2000, seed=31)
    live = ens.live
    assert live.any() and not live.all()
    for k in range(ens.n_steps):
        _, nodes, counts = ens.jumps.cells_for_interval(k)
        assert (live[nodes] & (counts >= 2)).any()
    drv = q.DriverView(q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0)), ens)
    sparse = solve(drv, lambda x: np.abs(0.25 * x))
    monkeypatch.setattr(solver, "_jump_targets", dense_jump_targets)
    dense = solve(drv, lambda x: np.abs(0.25 * x))
    for name in ("y", "z", "driver_values"):
        assert getattr(sparse, name).tobytes() == getattr(dense, name).tobytes(), name
    for k in range(ens.n_steps):
        assert sparse.u_coeffs[k].tobytes() == dense.u_coeffs[k].tobytes()
        assert sparse.u_coeffs[k].shape[1] == live.sum()
        assert sparse.u_coeffs[k].any(axis=0).all()


def test_reconstruction_identity(small_ensemble, gamma_quad):
    p = q.StructureParams(1.0, 0.0, 0.0)
    drv = q.make_driver("canonical", p)
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: 0.25 * x)
    assert _reconstruction_gap(sol) <= 1e-10


# ---------------------------------------------------------------------------
# storage layout
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def step_major_solve(gamma_model, gamma_quad):
    # live jump nodes, and a y-dependent driver so that the Picard counts vary
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 6, 3000,
                  seed=21)
    view = q.DriverView(q.make_driver("morlais", q.StructureParams(1.0, 0.0, 0.0),
                                      beta=0.5), ens)
    return view, solve(view, lambda x: np.abs(0.25 * x))


def test_step_slices_are_contiguous_and_the_stream_is_drawn_path_major(
        step_major_solve):
    view, sol = step_major_solve
    ens, dec = view.ensemble, q.decompose(sol)
    k_steps = ens.n_steps
    r = canonical_paths(ens, sol.z * ens.dw, 0.0,
                        np.zeros((k_steps, ens.quad.n_nodes)), "upper")
    slices = [a[:, k] for a in (ens.state, sol.y, r) for k in range(k_steps + 1)]
    for k in range(k_steps):
        slices += [a[:, k] for a in (ens.dw, sol.z, sol.driver_values, dec.dm)]
    assert all(s.flags.c_contiguous for s in slices)
    # the Brownian stream is the one a path-major draw gives
    child_w, _ = np.random.SeedSequence(21).spawn(2)
    draws = np.random.Generator(np.random.Philox(child_w)).standard_normal(
        (ens.n_paths, k_steps))
    assert np.array_equal(ens.dw, draws * math.sqrt(ens.dt))


def test_path_major_ensemble_solves_to_the_same_fields(step_major_solve):
    view, sol = step_major_solve
    ens = view.ensemble
    path_major = dataclasses.replace(ens, state=np.ascontiguousarray(ens.state),
                                     dw=np.ascontiguousarray(ens.dw))
    assert path_major.state.flags.c_contiguous and path_major.dw.flags.c_contiguous
    other = solve(q.DriverView(view.driver, path_major), lambda x: np.abs(0.25 * x))
    assert np.array_equal(other.picard_iterations, sol.picard_iterations)
    assert sol.picard_iterations.max() > 1
    pairs = [(other.y, sol.y), (other.z, sol.z)] + list(zip(other.u_coeffs, sol.u_coeffs))
    for a, b in pairs:
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_solve_weighs_every_step_by_the_quadrature_weights(gamma_model, gamma_quad):
    # with l = c = 0 the canonical generator is the upper corridor edge, so
    # each stored generator value lies on that edge at the quadrature
    # weights of the live nodes
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 20, 4000, seed=3)
    p = q.StructureParams(1.0, 0.0, 0.0)
    drv = q.make_driver("canonical", p)
    sol = solve(q.DriverView(drv, ens), lambda x: np.abs(0.25 * x))
    for k in range(ens.n_steps):
        _, upper = structure_bounds(sol.y[:, k], sol.z[:, k],
                                    sol.u_values(k), p, gamma_quad.weights[ens.live])
        np.testing.assert_allclose(sol.driver_values[:, k], upper, rtol=1e-12)


# ---------------------------------------------------------------------------
# the jump clock: one step and one node intensity per ensemble
# ---------------------------------------------------------------------------

def _jump_sum(jumps, k, values, nodes=None):
    """Per-path sum of ``values[path, column]`` over the jumps of interval
    ``k``, where a jump's column is the place of its mark among the nodes
    that the mask ``nodes`` selects (every node when None); a jump at any
    other node adds nothing."""
    nodes = np.ones(jumps.n_nodes, dtype=bool) if nodes is None else nodes
    rows = (jumps.interval_index == k) & nodes[jumps.mark_index]
    paths, cols = jumps.path_index[rows], (np.cumsum(nodes) - 1)[jumps.mark_index[rows]]
    return np.bincount(paths, weights=values[paths, cols], minlength=jumps.n_paths)


def test_quadrature_weights_drive_the_sampler(gamma_model, gamma_quad):
    n = 20000
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 10, n, seed=41)
    assert ens.jumps.n_intervals == ens.n_steps == 10
    counts = np.bincount(ens.jumps.interval_index, minlength=ens.n_steps)
    expect = float(gamma_quad.weights.sum()) * ens.dt
    for k in range(ens.n_steps):
        assert abs(counts[k] / n - expect) <= 3.0 * math.sqrt(expect / n)


def test_forward_state_is_the_compensated_mark_sum(gamma_model, gamma_quad):
    ens = forward(gamma_model, gamma_quad, "jumps_only", 1.0, 10, 5000, seed=42,
                  jump_impact="mark")
    marks = np.broadcast_to(gamma_quad.nodes, (ens.n_paths, gamma_quad.n_nodes))
    compensator = float((gamma_quad.weights * gamma_quad.nodes).sum()) * ens.dt
    for k in range(ens.n_steps):
        expect = _jump_sum(ens.jumps, k, marks) - compensator
        np.testing.assert_allclose(np.diff(ens.state, axis=1)[:, k], expect,
                                   rtol=0.0, atol=1e-12)


def test_jump_martingale_is_the_compensated_loading_sum(gamma_model, gamma_quad):
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 10, 4000, seed=43)
    drv = q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0))
    sol = solve(q.DriverView(drv, ens), lambda x: np.abs(0.25 * x))
    dm = q.decompose(sol).dm
    dm_c = sol.z * ens.dw
    # the loading lives on the live nodes; a jump at a dead node adds nothing
    live = ens.live
    assert live.any() and not live.all()
    for k in range(ens.n_steps):
        u = sol.u_values(k)
        expect = (dm_c[:, k] + _jump_sum(ens.jumps, k, u, live)
                  - (u * gamma_quad.weights[live]).sum(axis=1) * ens.dt)
        np.testing.assert_allclose(dm[:, k], expect, rtol=0.0, atol=1e-12)


def test_martingale_increment_is_the_loading_sum_plus_the_jump_sum(step_major_solve):
    # live jump nodes: one array holds the bits of the Brownian loading
    # products plus each step's compensated jump sum
    view, sol = step_major_solve
    ens = view.ensemble
    assert any(np.any(c != 0.0) for c in sol.u_coeffs)
    expect = sol.z * ens.dw
    for k in range(ens.n_steps):
        expect[:, k] = expect[:, k] + ens.jumps.compensated_sum(
            k, sol.u_values(k), ens.live_intensity, ens.dt, nodes=ens.live)
    assert np.array_equal(q.decompose(sol).dm, expect)


def test_u_values_on_selected_rows_is_the_slice_of_the_full_field(small_ensemble):
    drv = q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0))
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: np.abs(0.25 * x))
    mask = np.zeros(sol.n_paths, dtype=bool)
    mask[::97] = True
    for k in (0, 7, sol.n_steps - 1):
        full = sol.u_values(k)
        assert np.any(full != 0.0)
        for rows in (slice(50), slice(1, None, 3), np.arange(5, 900, 31), mask):
            part = sol.u_values(k, rows)
            assert part.shape == full[rows].shape
            assert np.array_equal(part, full[rows])


def test_u_values_holds_one_field_array(small_ensemble):
    # the clip is taken in place on the product of the design and the
    # coefficients, so the call holds the design and one (n, L) field
    drv = q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0))
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: np.abs(0.25 * x))
    k = 7
    design_bytes = sol.feature_maps[k].matrix(small_ensemble.state[:, k]).nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        u = sol.u_values(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.any(np.abs(u) == sol.u_clip[k])
    assert peak - before < design_bytes + 1.5 * u.nbytes


def test_zero_driver_zero_variation(brownian_ensemble, null_quad):
    drv = q.make_driver("zero", q.StructureParams(1.0, 0.0, 0.0))
    sol = solve(q.DriverView(drv, brownian_ensemble), lambda x: x)
    assert np.all(sol.driver_values == 0.0)


def test_deterministic_solution_has_flat_martingales(gamma_model, gamma_quad):
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 40,
                  5000, seed=26)
    p = q.StructureParams(1.0, 0.5, 1.0)
    drv = q.make_driver("linear", p, a=0.5)
    sol = solve(q.DriverView(drv, ens), lambda x: np.ones_like(x))
    # the summed increment sizes bound every running martingale value
    dm_c = sol.z * ens.dw
    dm_d = np.stack([ens.jumps.compensated_sum(k, sol.u_values(k), ens.live_intensity,
                                               ens.dt, nodes=ens.live)
                     for k in range(ens.n_steps)], axis=1)
    assert ens.live.any()
    assert np.abs(dm_c).sum(axis=1).max() <= 1e-8
    assert np.abs(dm_d).sum(axis=1).max() <= 1e-8


def test_martingale_component_regression(small_ensemble, gamma_quad):
    p = q.StructureParams(1.0, 0.0, 0.0)
    drv = q.make_driver("canonical", p)
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: 0.25 * x)
    dm = q.decompose(sol).dm
    stat = martingale_regression_test(dm[:, ::4], small_ensemble,
                                      sol.feature_maps[0].degree)
    assert stat <= 4.0


def test_mismatched_ensemble_rejected(small_ensemble, gamma_model, gamma_quad):
    p = q.StructureParams(1.0, 0.0, 0.0)
    drv = q.make_driver("canonical", p)
    sol = solve(q.DriverView(drv, small_ensemble), lambda x: 0.25 * x)
    other = forward(gamma_model, gamma_quad, "brownian_jumps",
                    1.0, small_ensemble.n_steps, 20000, seed=999)
    other_sol = solve(q.DriverView(drv, other), lambda x: 0.25 * x)
    assert same_ensemble(sol, q.decompose(sol).solution) is small_ensemble
    with pytest.raises(EnsembleMismatchError):
        same_ensemble(sol, other_sol)


@pytest.mark.parametrize("change", [dict(x0=5.0), dict(jump_impact="mark")])
def test_same_seed_other_inputs_rejected(gamma_model, gamma_quad, change):
    # same seed, paths, steps, dynamics and node count: only the ensemble
    # objects tell the two apart, at every place where two results meet
    ens = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 10,
                  1000, seed=5)
    other = forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 10,
                    1000, seed=5, **change)
    drv = q.make_driver("zero", q.StructureParams(1.0, 0.0, 0.0))
    sol = solve(q.DriverView(drv, ens), lambda x: x)
    other_sol = solve(q.DriverView(drv, other), lambda x: x)
    with pytest.raises(EnsembleMismatchError):
        monotonicity_check([sol, other_sol], [dict(lo=0, hi=1, direction=+1)])
    with pytest.raises(EnsembleMismatchError):
        pairwise_gap(sol, other_sol)
    with pytest.raises(EnsembleMismatchError):
        driver_l1_gap(sol, other_sol, c_split=1.0)
