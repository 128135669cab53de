import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special  # the independent reference; the package never imports SciPy

import qebsdej as q
from qebsdej.levy import DivergentMassError, ExponentOverflowError, LevyModel

from references import (exp1_reference, interval_counts, left_to_right_sum,
                        small_jump_residual, stable_small_jump_second_moment,
                        stable_tail_mass_exact, table_jump_paths)


# ---------------------------------------------------------------------------
# model presets
# ---------------------------------------------------------------------------

def test_square_integrability_near_origin(gamma_model, stable_model):
    # int (1 ^ e^2) ell(e) de must be finite: check e^2-weighted mass near 0
    for model in (gamma_model, stable_model):
        val = small_jump_residual(model, 1.0)
        assert math.isfinite(val) and val >= 0.0


def test_infinite_activity_divergence(gamma_model, stable_model):
    # mass over [eps, 1] grows without bound as eps shrinks
    for model in (gamma_model, stable_model):
        masses = [model.moment(0, eps, 1.0) for eps in (1e-2, 1e-4, 1e-6)]
        assert masses[0] < masses[1] < masses[2]
        assert masses[2] > 2.0 * masses[0]


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown jump-measure preset"):
        q.make_model("cauchy")


# ---------------------------------------------------------------------------
# truncation quadrature
# ---------------------------------------------------------------------------

def test_gamma_mass_matches_exponential_integral(gamma_model):
    quad = q.build_quadrature(gamma_model, 1.0, 12)
    ref = exp1_reference(1.0)  # 0.21938393439552026
    assert quad.total_mass == pytest.approx(ref, rel=1e-6)
    assert ref == pytest.approx(0.219384, abs=5e-7)


def test_stable_mass_closed_form(stable_model):
    quad = q.build_quadrature(stable_model, 2.0, 12)
    exact = stable_tail_mass_exact(1.0, 0.5, 0.5)
    assert exact == pytest.approx(4.0 * math.sqrt(2.0))
    assert quad.total_mass == pytest.approx(exact, rel=1e-6)


def test_quadrature_reference_tolerance(gamma_model, stable_model):
    for model, kappa in ((gamma_model, 4.0), (stable_model, 8.0)):
        quad = q.build_quadrature(model, kappa, 16)
        ref = q.levy.truncated_mass_reference(model, kappa)
        assert quad.total_mass == pytest.approx(ref, rel=1e-6)


def test_nodes_outside_truncation(gamma_model, stable_model):
    for model in (gamma_model, stable_model):
        quad = q.build_quadrature(model, 4.0, 10)
        assert np.all(np.abs(quad.nodes) >= 0.25 - 1e-12)


def test_null_density_zero_weights():
    quad = q.build_quadrature(q.make_model("null"), 2.0, 8)
    assert quad.total_mass == 0.0
    assert q.j_functional(np.ones(quad.n_nodes), 1.0, quad.weights) == 0.0


def test_divergent_tail_raises():
    def density(e):
        e = np.asarray(e, dtype=float)
        out = np.zeros_like(e)
        out[e > 0] = 1.0 / e[e > 0]
        return out

    bad = LevyModel(density, "positive")
    with pytest.raises(DivergentMassError):
        q.build_quadrature(bad, 2.0, 8)


def test_quadrature_preconditions(gamma_model):
    with pytest.raises(ValueError, match="kappa"):
        q.build_quadrature(gamma_model, 0.5, 8)
    with pytest.raises(ValueError, match="cells"):
        q.build_quadrature(gamma_model, 2.0, 1)


def test_restriction_is_exact_on_aligned_cells(gamma_model):
    quad = q.build_quadrature(gamma_model, 8.0, 12, cut_levels=[0.5, 0.25])
    for kappa in (2.0, 4.0, 8.0):
        mass = float(quad.weights[quad.restrict_indices(kappa)].sum())
        ref = q.levy.truncated_mass_reference(gamma_model, kappa)
        assert mass == pytest.approx(ref, rel=1e-6)
    with pytest.raises(ValueError, match="finer"):
        quad.restrict_indices(16.0)


def test_null_measure_is_exact_positive_zero():
    null = q.make_model("null")
    for p in (0, 1, 2):
        for a, b in ((0.5, 2.0), (0.0, 1.0), (0.5, math.inf), (3.0, math.inf)):
            val = null.moment(p, a, b)
            assert val == 0.0 and not np.signbit(val), (p, a, b)
    quad = q.build_quadrature(null, 2.0, 4)
    inner = quad.cell_inner
    assert np.all(quad.weights == 0.0) and not np.signbit(quad.weights).any()
    assert np.array_equal(quad.nodes[:-1], 0.5 * (inner[:-1] + inner[1:]))
    ref = q.levy.truncated_mass_reference(null, 2.0)
    assert ref == 0.0 and not np.signbit(ref)


def quad_moment(model, p, a, b):
    """QUADPACK's ``int_a^b e^p ell(e) de``, split at the model's points."""
    edges = [a, *(x for x in model.points if a < x < b), b]
    return sum(integrate.quad(lambda e: e ** p * float(model.density(np.array(e))),
                              lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for lo, hi in zip(edges, edges[1:]))


# preset, parameters, kappa, and the closed form of the one-sided tail mass
REFERENCE_CASES = {
    f"gamma_kappa_{kappa:g}": ("gamma", {"theta": 1.5, "beta": 2.0}, kappa,
                               lambda c: 1.5 * special.exp1(2.0 * c))
    for kappa in (1.0, 8.0, 1e6)
} | {
    f"stable_alpha_{alpha:g}": ("stable", {"theta": 1.0, "alpha": alpha}, 8.0,
                                lambda c, alpha=alpha: 0.5 * stable_tail_mass_exact(1.0, alpha, c))
    for alpha in (0.1, 0.5, 1.9)
} | {
    # the cut at 0.25 lies inside the profile around loc 0.3
    "normal_cut_inside": ("normal", {"rate": 2.0, "loc": 0.3, "scale": 0.05}, 4.0,
                          lambda c: math.erfc((c - 0.3) / (0.05 * math.sqrt(2.0)))),
    "null": ("null", {}, 2.0, lambda c: 0.0),
}


@pytest.mark.parametrize("case", REFERENCE_CASES.values(), ids=REFERENCE_CASES)
def test_cell_moments_match_quadpack(case):
    name, params, kappa, tail_exact = case
    model = q.make_model(name, **params)
    quad = q.build_quadrature(model, kappa, 12)
    edges = quad.cell_inner[quad.nodes > 0]
    for a, b in zip(edges, edges[1:]):
        for p in (0, 1):
            ref = quad_moment(model, p, a, b)
            assert abs(model.moment(p, a, b) - ref) <= 1e-10 * abs(ref), (p, a, b)
    for c in (1.0 / kappa, edges[-1]):
        ref = tail_exact(c)
        assert abs(model.tail_mass(c) - ref) <= 1e-10 * ref, c
    ref = model.n_sides * tail_exact(1.0 / kappa)
    assert abs(quad.total_mass - ref) <= 1e-10 * ref


# ---------------------------------------------------------------------------
# exponential jump penalty
# ---------------------------------------------------------------------------

def test_j_zero_field(two_node_quad):
    assert q.j_functional(np.zeros(2), 1.0, two_node_quad.weights) == 0.0


def test_j_constant_field_closed_form(two_node_quad):
    # mass 2: j(1) = 2 (e - 2)
    val = q.j_functional(np.ones(2), 1.0, two_node_quad.weights)
    assert val == pytest.approx(2.0 * (math.e - 2.0), rel=1e-12)


def test_j_small_field_taylor(two_node_quad):
    val = q.j_functional(np.full(2, 1e-3), 1.0, two_node_quad.weights)
    assert val == pytest.approx(1e-6, rel=1e-3)


def test_j_overflow_guard(two_node_quad):
    with pytest.raises(ExponentOverflowError):
        q.j_functional(np.full(2, 800.0), 1.0, two_node_quad.weights)
    with pytest.raises(ValueError):
        q.j_functional(np.ones(2), -1.0, two_node_quad.weights)


# ---------------------------------------------------------------------------
# the nu-weighted row sum
# ---------------------------------------------------------------------------

def _row_by_row(field, wz):
    """Row sums by an explicit loop over the rows and, left to right, over
    the nodes, in Python floats."""
    out = []
    for row in field:
        acc = float(row[0]) * float(wz[0])
        for value, weight in zip(row[1:], wz[1:]):
            acc += float(value) * float(weight)
        out.append(acc)
    return np.array(out, dtype=float)


def _layouts(field):
    """The field in C order, in F order, as a strided row subset of a larger
    F-order field, and as a row subset copied out of it."""
    rows, nodes = field.shape
    big = np.asfortranarray(np.random.default_rng(0).normal(size=(2 * rows + 1, nodes)))
    big[1::2] = field
    picked = np.zeros(2 * rows + 1, dtype=bool)
    picked[1::2] = True
    return {"C": np.ascontiguousarray(field), "F": np.asfortranarray(field),
            "strided_rows": big[1::2], "picked_rows": big[picked]}


@st.composite
def weighted_fields(draw):
    rows = draw(st.integers(min_value=0, max_value=50))
    nodes = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    field = (rng.uniform(-3.0, 3.0, (rows, nodes))
             * rng.choice([0.0, 1e-8, 1.0], (rows, nodes), p=[0.1, 0.1, 0.8]))
    wz = rng.uniform(0.0, 5.0, nodes) * (rng.random(nodes) < 0.8)
    return field, wz


@settings(max_examples=60, deadline=None)
@given(drawn=weighted_fields())
def test_nu_dot_sums_left_to_right_in_every_layout(drawn, small_ensemble):
    field, wz = drawn
    expect = _row_by_row(field, wz)
    for name, layout in _layouts(field).items():
        assert q.nu_dot(layout, wz).tobytes() == expect.tobytes(), name
    for r, row in enumerate(field):
        assert q.nu_dot(row, wz).tobytes() == expect[r].tobytes()

    # every caller keeps its bits across the layouts and on single rows
    canonical = q.make_driver("canonical", q.StructureParams(1.0, 0.0, 0.0))
    regs = [q.regularize(q.DriverView(canonical, small_ensemble), n, 1) for n in (1, 8)]
    table = q.sample_jump_paths(wz, 1, 0.5, field.shape[0], seed=3)
    callers = {
        "nu_norm": lambda u: q.nu_norm(u, wz),
        "j_functional": lambda u: np.asarray(q.j_functional(u, 0.7, wz)),
        "jump_part": lambda u: canonical.jump_part(u, wz),
        # (envelope, query) of each row; a 1-d row is taken as one row
        **{f"jump_envelope_n{reg.n:g}": (lambda u, reg=reg: np.stack(
            reg._jump_envelope(np.atleast_2d(u), wz))) for reg in regs},
    }
    for name, caller in callers.items():
        whole = caller(field)
        for label, layout in _layouts(field).items():
            assert caller(layout).tobytes() == whole.tobytes(), f"{name} {label}"
        for r, row in enumerate(field):
            assert caller(row).tobytes() == whole[..., r].tobytes(), f"{name} row {r}"
    whole = table.compensated_sum(0, field, wz, 0.5)
    for label, layout in _layouts(field).items():
        assert table.compensated_sum(0, layout, wz, 0.5).tobytes() == whole.tobytes(), label


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       st.floats(0.1, 3.0))
def test_j_nonnegative(values, delta):
    quad = q.MarkQuadrature(np.array([1.0, 2.0]), np.array([1.5, 0.5]), 1.0,
                            np.array([1.0, 2.0]))
    assert q.j_functional(np.asarray(values), delta, quad.weights) >= 0.0


def test_j_convexity_probes(gamma_quad):
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = rng.uniform(-2, 2, gamma_quad.n_nodes)
        v = rng.uniform(-2, 2, gamma_quad.n_nodes)
        lam = rng.random()
        lhs = q.j_functional(lam * u + (1 - lam) * v, 1.0, gamma_quad.weights)
        rhs = (lam * q.j_functional(u, 1.0, gamma_quad.weights)
               + (1 - lam) * q.j_functional(v, 1.0, gamma_quad.weights))
        assert lhs <= rhs + 1e-12


def test_j_lower_bound_per_node(gamma_quad):
    # exp(x) - x - 1 >= (x^2 / 2) exp(-|x|), summed with weights
    rng = np.random.default_rng(8)
    delta = 1.3
    for _ in range(100):
        u = rng.uniform(-2, 2, gamma_quad.n_nodes)
        lower = 0.5 * delta ** 2 * (gamma_quad.weights * u * u
                                    * np.exp(-delta * np.abs(u))).sum()
        assert q.j_functional(u, delta, gamma_quad.weights) >= lower - 1e-12


def test_j_monotone_in_truncation(gamma_model):
    quad = q.build_quadrature(gamma_model, 8.0, 12, cut_levels=[0.5, 0.25])
    rng = np.random.default_rng(9)
    u_master = rng.uniform(-1.5, 1.5, quad.n_nodes)
    vals = []
    for kappa in (2.0, 4.0, 8.0):
        idx = quad.restrict_indices(kappa)
        vals.append(q.j_functional(u_master[idx], 1.0, quad.weights[idx]))
    assert vals[0] <= vals[1] <= vals[2]


# ---------------------------------------------------------------------------
# small-jump residual
# ---------------------------------------------------------------------------

def test_residual_stable_closed_form(stable_model):
    for kappa in (1.0, 2.0, 4.0):
        exact = stable_small_jump_second_moment(1.0, 0.5, 1.0 / kappa)
        assert small_jump_residual(stable_model, kappa) == pytest.approx(
            exact, rel=1e-9)
    assert stable_small_jump_second_moment(1.0, 0.5, 0.5) == pytest.approx(
        (4.0 / 3.0) * 2.0 ** -1.5)


def test_residual_monotone_gamma(gamma_model):
    vals = [small_jump_residual(gamma_model, kappa) for kappa in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_residual_null_zero():
    assert small_jump_residual(q.make_model("null"), 4.0) == 0.0


# ---------------------------------------------------------------------------
# jump sampling
# ---------------------------------------------------------------------------

def test_jump_counts_poisson_mean(two_node_quad):
    n_paths = 100000
    table = q.sample_jump_paths(two_node_quad.weights, 1, 0.5, n_paths, seed=4)
    mean_count = table.n_jumps / n_paths
    expect = two_node_quad.total_mass * 0.5
    band = 3.0 * math.sqrt(expect / n_paths)
    assert abs(mean_count - expect) <= band


def test_jump_mark_fractions_multinomial(two_node_quad):
    table = q.sample_jump_paths(two_node_quad.weights, 1, 0.5, 100000, seed=5)
    frac1 = float((table.mark_index == 0).mean())
    n_jumps = table.n_jumps
    band = 3.0 * math.sqrt(0.75 * 0.25 / n_jumps)
    assert abs(frac1 - 0.75) <= band


def test_jump_cells_match_the_dense_counts():
    # node 1 carries no intensity, node 0 enough that many paths see two or
    # more of its jumps in one interval; the last stream has no intensity
    wz = np.array([3.0, 0.0, 0.5, 0.02])
    tables = [q.sample_jump_paths(scale * wz, 2, 0.5, 3000, seed=seed)
              for scale, seed in ((1.0, 17), (2.0, 18), (0.0, 19))]
    for table in tables:
        for k in range(2):
            paths, nodes, counts = table.cells_for_interval(k)
            dense = interval_counts(table, k)
            got = np.zeros_like(dense)
            got[paths, nodes] = counts
            assert got.tobytes() == dense.tobytes()
            # one entry per distinct cell, each with at least one jump
            assert np.unique(paths * wz.size + nodes).size == paths.size
            assert np.all(counts >= 1)
            if table is not tables[-1]:
                assert counts.max() >= 2 and not dense[:, 1].any()
            else:
                assert paths.size == 0


def test_zero_mass_no_jumps():
    null = q.make_model("null")
    quad = q.build_quadrature(null, 2.0, 6)
    table = q.sample_jump_paths(quad.weights, 4, 0.25, 1000, seed=6)
    assert table.n_jumps == 0


def test_compensated_sum_of_an_empty_interval_is_exact_zero(gamma_quad):
    wz = gamma_quad.weights
    one_node = np.where(np.arange(wz.size) == 0, wz, 0.0)
    n, dt = 2000, 0.25
    streams = [(row, q.sample_jump_paths(row, 2, dt, n, seed=seed)) for row, seed
               in ((wz, 13), (np.zeros_like(wz), 14), (one_node, 15))]
    fields = [np.random.default_rng(14).uniform(-1.0, 1.0, (n, wz.size)),
              np.linspace(-1.0, 1.0, wz.size)]
    for (row, table), k in itertools.product(streams, range(2)):
        paths, marks = table.rows_for_interval(k)
        for field in fields:
            got = table.compensated_sum(k, field, row, dt)
            if row.any():
                # intervals with intensity keep the bits of the full formula
                assert paths.size > 0
                expect = np.zeros(n)
                np.add.at(expect, paths,
                          np.broadcast_to(field, (n, wz.size))[paths, marks])
                expect = expect - left_to_right_sum(field, row) * dt
                assert got.tobytes() == expect.tobytes()
            else:
                # +0.0 on every path, and the field is not read: NaN gives zeros
                assert paths.size == 0
                nan_field = np.full_like(field, np.nan)
                for out in (got, table.compensated_sum(k, nan_field, row, dt)):
                    assert out.tobytes() == np.zeros(n).tobytes()


def test_compensated_sum_on_a_node_subset_is_the_zero_padded_sum(gamma_quad):
    # a field on the nodes that a mask selects gives the bits of the field
    # padded with +0.0 on the other nodes: jumps there add nothing
    wz, n, dt = gamma_quad.weights, 1500, 0.25
    table = q.sample_jump_paths(wz, 3, dt, n, seed=15)
    rng = np.random.default_rng(16)
    masks = [np.arange(wz.size) % 3 != 1, np.zeros(wz.size, dtype=bool),
             np.ones(wz.size, dtype=bool)]
    for nodes in masks:
        field = np.asfortranarray(rng.uniform(-1.0, 1.0, (n, int(nodes.sum()))))
        padded = np.zeros((n, wz.size), order="F")
        padded[:, nodes] = field
        for k in range(3):
            _, marks = table.rows_for_interval(k)
            assert nodes[marks].any() or not nodes.any()
            got = table.compensated_sum(k, field, wz[nodes], dt, nodes=nodes)
            assert got.tobytes() == table.compensated_sum(k, padded, wz, dt).tobytes()


def test_nu_dot_over_no_node_is_positive_zero_of_the_row_shape():
    for shape in ((0,), (7, 0), (3, 4, 0)):
        out = q.nu_dot(np.empty(shape), np.empty(0))
        assert np.shape(out) == shape[:-1]
        assert not np.any(out) and not np.signbit(out).any()
    with pytest.raises(ValueError, match="4 nodes against 5"):
        q.nu_dot(np.ones((3, 4)), np.ones(5))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k_steps=st.integers(1, 6))
def test_one_intensity_draws_the_table_of_its_repeated_rows(gamma_quad, seed, k_steps):
    # the (Q,) intensity draws, at every seed, the variates that the same row
    # repeated on every interval of a (K, Q) table draws, in the same order
    got = q.sample_jump_paths(gamma_quad.weights, k_steps, 0.25, 300, seed)
    expect = table_jump_paths(np.tile(gamma_quad.weights, (k_steps, 1)), 0.25, 300, seed)
    assert got.n_jumps > 0 and got.n_intervals == expect.n_intervals == k_steps
    for name in ("path_index", "interval_index", "time", "mark_index"):
        assert getattr(got, name).tobytes() == getattr(expect, name).tobytes(), name


def test_jump_table_reproducible(gamma_quad):
    a = q.sample_jump_paths(gamma_quad.weights, 8, 0.125, 2000, seed=12)
    b = q.sample_jump_paths(gamma_quad.weights, 8, 0.125, 2000, seed=12)
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.mark_index, b.mark_index)
    assert np.array_equal(a.path_index, b.path_index)
