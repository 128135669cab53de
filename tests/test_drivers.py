import dataclasses
import math

import numpy as np
import pytest

import qebsdej as q
from qebsdej.drivers import (V_GRID, Driver, NotRegularizableError, StructureParams,
                             regularize)
from qebsdej.levy import gamma_model
from qebsdej.oracles import huber_envelope_exact

from conftest import forward, traced_peak
from references import (check_a_gamma, huber_envelope_grid, inf_convolve,
                        left_to_right_sum, lipschitz_estimate, structure_bounds,
                        sup_convolve)

DENSE = np.linspace(-5.0, 5.0, 10001)


def bind(driver, model, quad, k_steps=2):
    """``driver`` bound to a small ensemble over ``[0, 1]`` on ``quad``, for
    probes on a quadrature other than the shared one."""
    return q.DriverView(driver, forward(model, quad, "brownian_jumps", 1.0,
                                        k_steps, 100, seed=1))


def square(r):
    return float(np.asarray(r)) ** 2


def neg_square(r):
    return -float(np.asarray(r)) ** 2


@pytest.fixture(scope="module")
def canonical():
    return q.make_driver("canonical", StructureParams(1.0, 0.0, 0.0))


@pytest.fixture(scope="module")
def probes(gamma_quad):
    rng = np.random.default_rng(31)
    n = 60
    return (rng.uniform(-3, 3, n), rng.uniform(-3, 3, n),
            rng.uniform(-1.2, 1.2, (n, gamma_quad.n_nodes)))


# ---------------------------------------------------------------------------
# structure parameters and corridor bounds
# ---------------------------------------------------------------------------

def test_structure_params_validation():
    for bad in [(0.0, 0.0, 0.0), (math.nan, 0.0, 0.0), (1.0, -0.1, 0.0), (1.0, 0.0, -0.1)]:
        with pytest.raises(ValueError):
            StructureParams(*bad)
    p = StructureParams(2.0, 0.5, 1.5)
    assert (p.delta, p.l, p.c) == (2.0, 0.5, 1.5)


def test_bounds_vanish_at_origin(two_node_quad):
    p = StructureParams(1.0, 0.0, 0.0)
    lo, hi = structure_bounds(0.0, np.array([0.0]), np.zeros(2), p,
                              two_node_quad.weights)
    assert lo == 0.0 and hi == 0.0


def test_bounds_direct_evaluation(two_node_quad):
    p = StructureParams(1.0, 0.5, 1.0)
    lo, hi = structure_bounds(1.0, np.array([2.0]), np.zeros(2), p,
                              two_node_quad.weights)
    assert hi == pytest.approx(3.5)
    assert lo == pytest.approx(-3.5)


def test_bounds_constant_field_closed_forms(two_node_quad):
    p = StructureParams(1.0, 0.0, 0.0)
    lo, hi = structure_bounds(0.0, np.array([0.0]), np.ones(2), p,
                              two_node_quad.weights)
    assert hi == pytest.approx(2.0 * (math.e - 2.0), rel=1e-12)
    assert lo == pytest.approx(-2.0 / math.e, rel=1e-12)


def corridor_excess(view, k, y, z, u):
    """How far each probe row's value lies outside the corridor at step ``k``,
    beyond ``1e-9 * (1 + |q_upper|)``; positive outside."""
    q_lo, q_hi = structure_bounds(y, z, u, view.driver.params, view.ensemble.intensity[k])
    val = view.evaluate(k, y, z, u)
    return np.maximum(q_lo - val, val - q_hi) - 1e-9 * (1.0 + np.abs(q_hi))


def test_check_structure_canonical_zero_violations(canonical, probes, small_ensemble):
    view = q.DriverView(canonical, small_ensemble)
    assert np.all(corridor_excess(view, 0, *probes) <= 0.0)


def test_check_structure_constructed_violation(probes, small_ensemble):
    p = StructureParams(1.0, 0.0, 0.0)
    base = q.make_driver("canonical", p)

    def f_hat(y, z):
        return base.f_hat(y, z) + 1.0

    shifted = Driver("above", f_hat, base.g, p, nonnegative=True, lip_y=0.0)
    view = q.DriverView(shifted, small_ensemble)
    assert np.all(corridor_excess(view, 0, *probes) > 0.0)


def test_check_structure_counts_generator_probes(canonical, probes, small_ensemble):
    # one probe row at a time gives the excess of the vectorized evaluation
    ys, zs, us = probes
    view = q.DriverView(canonical, small_ensemble)
    rows = [float(corridor_excess(view, 0, ys[i], zs[i], us[i])) for i in range(ys.size)]
    excess = corridor_excess(view, 0, ys, zs, us)
    assert excess.shape == (ys.size,)
    np.testing.assert_allclose(rows, excess, rtol=0.0, atol=1e-12)


def test_check_structure_morlais(probes, small_ensemble):
    p = StructureParams(1.0, 0.0, 0.6)
    drv = q.make_driver("morlais", p, beta=0.5)  # beta <= c keeps the corridor
    view = q.DriverView(drv, small_ensemble)
    assert np.all(corridor_excess(view, 0, *probes) <= 0.0)


def test_driver_continuity(canonical, gamma_quad):
    rng = np.random.default_rng(5)
    wz = gamma_quad.weights
    for _ in range(100):
        y = rng.uniform(-2, 2)
        z = rng.uniform(-2, 2)
        u = rng.uniform(-1, 1, gamma_quad.n_nodes)
        base = canonical.evaluate(y, z, u, wz)
        for h in (1e-4, 1e-6):
            bumped = canonical.evaluate(y + h, z + h, u + h, wz)
            assert abs(float(bumped - base)) < 50 * h + 1e-12


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def test_inf_convolve_huber():
    val = inf_convolve(square, 2.0, 3.0, DENSE)
    assert val == pytest.approx(huber_envelope_exact(2.0, 3.0), abs=1e-6)
    assert huber_envelope_exact(2.0, 3.0) == 5.0
    assert huber_envelope_grid(2.0, 3.0) == pytest.approx(5.0, abs=1e-6)


def test_sup_convolve_flipped_huber():
    val = sup_convolve(neg_square, 2.0, 3.0, DENSE)
    assert val == pytest.approx(-5.0, abs=1e-6)


def test_envelope_reproduces_lipschitz_function():
    phi = lambda r: 1.5 * abs(float(np.asarray(r)))
    for pt in (-2.0, 0.0, 0.5, 3.25, 4.999):
        assert inf_convolve(phi, 2.0, pt, DENSE) == pytest.approx(phi(pt), abs=1e-12)
        assert sup_convolve(phi, 2.0, pt, DENSE) == pytest.approx(phi(pt), abs=1e-12)


def test_envelope_large_index_surrogate():
    assert inf_convolve(square, 1e6, 3.0, DENSE) == pytest.approx(9.0, abs=1e-6)
    assert sup_convolve(square, 1e6, 3.0, DENSE) == pytest.approx(9.0, abs=1e-6)


def test_envelope_ordering_at_grid_points():
    grid = np.linspace(-4, 4, 801)
    rng = np.random.default_rng(17)
    pts = rng.choice(grid, 50, replace=False)
    for pt in pts:
        lo = inf_convolve(square, 3.0, float(pt), grid)
        hi = sup_convolve(square, 3.0, float(pt), grid)
        assert lo <= square(pt) + 1e-12 <= hi + 2e-12


def test_empty_candidate_grid_rejected():
    with pytest.raises(ValueError, match="empty"):
        inf_convolve(square, 1.0, 0.0, np.array([]))
    with pytest.raises(ValueError, match="empty"):
        sup_convolve(square, 1.0, 0.0, np.array([]))


def test_envelope_uniform_convergence():
    # max |phi - envelope_n| over probe points is nonincreasing in n and
    # drops below 1e-3 once n dominates the slope of phi on the region
    grid = np.linspace(-5, 5, 2001)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-5, 5, 40)
    gaps = []
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        gap = max(square(p) - inf_convolve(square, n, float(p), grid)
                  for p in pts)
        gaps.append(gap)
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_mixed_norm_distance_candidates():
    # two plain coordinates and one nu-weighted block coordinate
    cands = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    phi = lambda c: float(np.sum(np.asarray(c) ** 2))
    val = inf_convolve(phi, 1.0, np.array([2.0, 0.0, 0.0]), cands,
                       nu_weights=np.array([0.0, 0.0, 4.0]))
    # candidate (0,0,0): 0 + 1*(2 + 0 + 0) = 2; candidate (1,1,1):
    # 3 + (1 + 1 + sqrt(4)) = 7; query phi = 4
    assert val == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# regularized drivers
# ---------------------------------------------------------------------------

def test_nonnegative_base_has_null_negative_part(canonical, probes, small_ensemble):
    ys, zs, us = probes
    view = q.DriverView(canonical, small_ensemble)
    vals_m1 = regularize(view, 3, 1).evaluate(0, ys, zs, us)
    vals_m8 = regularize(view, 3, 8).evaluate(0, ys, zs, us)
    assert np.array_equal(vals_m1, vals_m8)  # m is inert when f >= 0


def test_linear_driver_reproduced_exactly(gamma_quad, small_ensemble):
    p = StructureParams(1.0, 0.5, 1.0)
    lin = q.make_driver("linear", p, a=1.0)
    rng = np.random.default_rng(3)
    ys = rng.uniform(-3, 3, 30)
    reg = regularize(q.DriverView(lin, small_ensemble), 1, 1)
    assert reg.strategy == "lipschitz_exact"
    vals = reg.evaluate(0, ys, np.zeros(30), np.zeros((30, gamma_quad.n_nodes)))
    assert np.allclose(vals, ys, atol=1e-14)


def test_generic_strategy_exact_for_lipschitz_base(gamma_quad, small_ensemble):
    # with the query point in the candidate set, the envelope of an
    # L-Lipschitz function at indices >= L is the function itself, on any grid
    p = StructureParams(1.0, 0.5, 1.0)
    lin = q.make_driver("linear", p, a=0.8, b=0.5)
    rng = np.random.default_rng(4)
    ys = rng.uniform(-2, 2, 20)
    zs = rng.uniform(-2, 2, 20)
    us = np.zeros((20, gamma_quad.n_nodes))
    # without a declared (y, z) Lipschitz constant the envelope is generic
    undeclared = dataclasses.replace(lin, lip_yz=math.inf)
    reg = regularize(q.DriverView(undeclared, small_ensemble), 4, 4)
    assert reg.strategy == "generic"
    direct = lin.f_hat(ys, zs)
    assert np.allclose(reg.evaluate(0, ys, zs, us), direct, atol=1e-12)


def test_monotone_in_n_and_kappa(canonical, gamma_model):
    quad = q.build_quadrature(gamma_model, 8.0, 10, cut_levels=[0.5, 0.25])
    view = bind(canonical, gamma_model, quad)
    rng = np.random.default_rng(6)
    ys = rng.uniform(-3, 3, 50)
    zs = rng.uniform(-3, 3, 50)
    us = rng.uniform(-1.2, 1.2, (50, quad.n_nodes))
    prev = None
    for n in (1, 2, 4):
        vals = regularize(view, n, 2).evaluate(0, ys, zs, us)
        if prev is not None:
            assert np.all(vals >= prev - 1e-12)
        prev = vals
    prev = None
    for kappa in (2.0, 4.0, 8.0):
        reg = regularize(view, 4, 2, node_idx=quad.restrict_indices(kappa))
        vals = reg.evaluate(0, ys, zs, us)
        if prev is not None:
            assert np.all(vals >= prev - 1e-12)
        prev = vals


def test_antitone_in_m(gamma_quad, small_ensemble):
    # a shifted canonical driver has a genuine negative part
    p = StructureParams(1.0, 1.0, 0.0)
    base = q.make_driver("canonical", StructureParams(1.0, 0.0, 0.0))

    def f_hat(y, z):
        return base.f_hat(y, z) - 1.0

    shifted = Driver("shifted", f_hat, base.g, p, nonnegative=False, lip_y=0.0)
    rng = np.random.default_rng(7)
    ys = rng.uniform(-2, 2, 50)
    zs = rng.uniform(-2, 2, 50)
    us = rng.uniform(-1, 1, (50, gamma_quad.n_nodes))
    prev = None
    for m in (1, 2, 4, 8):
        reg = regularize(q.DriverView(shifted, small_ensemble), 4, m)
        assert reg.strategy == "generic"
        vals = reg.evaluate(0, ys, zs, us)
        if prev is not None:
            assert np.all(vals <= prev + 1e-12)
        prev = vals


def test_y_dependent_nonnegative_driver_is_regularized_jointly(small_ensemble):
    # the separable envelope drops y, so a nonnegative generator that reads y
    # goes to the joint (y, z, v) envelope
    p = StructureParams(1.0, 0.0, 0.0)
    base = q.make_driver("canonical", p)

    def f_hat(y, z):
        return base.f_hat(y, z) + np.abs(np.asarray(y, dtype=float))

    drv = Driver("abs_y", f_hat, base.g, p, nonnegative=True, lip_y=1.0)
    view = q.DriverView(drv, small_ensemble)
    assert regularize(view, 4, 4).strategy == "generic"


def test_sandwich_thousand_probes(canonical, gamma_quad, small_ensemble):
    rng = np.random.default_rng(8)
    n = 1000
    ys = rng.uniform(-4, 4, n)
    zs = rng.uniform(-4, 4, n)
    us = rng.uniform(-1.5, 1.5, (n, gamma_quad.n_nodes))
    reg = regularize(q.DriverView(canonical, small_ensemble), 4, 4)
    vals = reg.evaluate(0, ys, zs, us)
    violations = 0
    for i in range(n):
        lo, hi = structure_bounds(ys[i], zs[i], us[i], canonical.params,
                                  gamma_quad.weights)
        tol = 1e-9 * (1.0 + abs(float(hi)))
        if not (float(lo) - tol <= vals[i] <= float(hi) + tol):
            violations += 1
    assert violations == 0


def test_regularized_never_exceeds_positive_part(canonical, gamma_quad, probes,
                                                 small_ensemble):
    ys, zs, us = probes
    reg = regularize(q.DriverView(canonical, small_ensemble), 3, 3)
    vals = reg.evaluate(0, ys, zs, us)
    direct = canonical.evaluate(ys, zs, us, gamma_quad.weights)
    assert np.all(vals <= direct + 1e-12)


def test_empirical_lipschitz_cap(canonical, gamma_quad, small_ensemble):
    reg = regularize(q.DriverView(canonical, small_ensemble), 5, 2)
    u0 = np.zeros((1, gamma_quad.n_nodes))

    def fyz(row):
        return float(reg.evaluate(0, np.array([row[0]]),
                                  np.array([row[1]]), u0)[0])

    est = lipschitz_estimate(fyz, [(-8.0, 8.0), (-8.0, 8.0)], 1000, seed=9)
    assert est <= 5.0 * (1.0 + 1e-6)


def test_mark_part_local_lipschitz_bound(canonical, gamma_quad, small_ensemble):
    # |G_n(u) - G_n(u')| <= n (|u| + |u'|) |u - u'| in the nu-norm, for
    # fields within the unit band and n past the local slope of the integrand
    rng = np.random.default_rng(10)
    n_idx = 4
    reg = regularize(q.DriverView(canonical, small_ensemble), n_idx, 2)
    for _ in range(100):
        u = rng.uniform(-1, 1, (1, gamma_quad.n_nodes))
        ub = rng.uniform(-1, 1, (1, gamma_quad.n_nodes))
        gu = float(reg._jump_envelope(u, gamma_quad.weights)[0][0])
        gub = float(reg._jump_envelope(ub, gamma_quad.weights)[0][0])
        nu = float(q.nu_norm(u, gamma_quad.weights)[0])
        nub = float(q.nu_norm(ub, gamma_quad.weights)[0])
        ndiff = float(q.nu_norm(u - ub, gamma_quad.weights)[0])
        assert abs(gu - gub) <= n_idx * (nu + nub) * ndiff + 1e-9


def test_truncation_convergence(canonical, gamma_model):
    # |f^{n,m,kappa} - f^{n,m,kappa'}| shrinks as both truncations grow
    quad = q.build_quadrature(gamma_model, 32.0, 14,
                              cut_levels=[0.5, 0.25, 0.125, 1 / 16])
    rng = np.random.default_rng(11)
    ys = rng.uniform(-2, 2, 50)
    zs = rng.uniform(-2, 2, 50)
    us = rng.uniform(-1, 1, (50, quad.n_nodes))
    view = bind(canonical, gamma_model, quad)
    vals = {}
    for kappa in (2.0, 8.0, 32.0):
        reg = regularize(view, 4, 4, node_idx=quad.restrict_indices(kappa))
        vals[kappa] = reg.evaluate(0, ys, zs, us)
    gap_coarse = np.abs(vals[8.0] - vals[2.0]).max()
    gap_fine = np.abs(vals[32.0] - vals[8.0]).max()
    assert gap_fine < gap_coarse


def test_regularize_index_validation(canonical, small_ensemble):
    with pytest.raises(ValueError):
        regularize(q.DriverView(canonical, small_ensemble), 0.5, 1)


def _dense_scan(reg, u_sub, wz):
    """The mark envelope by a scan of all of ``V_GRID``, in blocks of 32:
    the reference that the bisection must reproduce bit for bit."""
    query = left_to_right_sum(reg.view.driver.g(u_sub), wz)
    mass = float(left_to_right_sum(np.ones_like(wz), wz))
    if mass <= 0:
        return query
    s1 = left_to_right_sum(u_sub, wz)
    s2 = left_to_right_sum(u_sub * u_sub, wz)
    out = np.full(query.shape, np.inf)
    for start in range(0, V_GRID.size, 32):
        v = V_GRID[start:start + 32][:, None]
        gval = reg.view.driver.g(v[:, 0])[:, None] * mass
        dist = np.sqrt(np.clip(mass * v * v - 2.0 * v * s1[None, :]
                               + s2[None, :], 0.0, None))
        np.minimum(out, (gval + reg.n * dist).min(axis=0), out=out)
    return np.minimum(out, query)


def _envelope_fields(rng, n_nodes):
    rows = 300
    constant = np.concatenate([rng.uniform(-6.0, 6.0, rows),
                               rng.choice(V_GRID, rows), [-4.0, 4.0, 0.0]])
    return {
        "small_normal": rng.normal(0.0, 0.05, (rows, n_nodes)),
        "large_normal": rng.normal(0.0, 2.5, (rows, n_nodes)),
        "row_constant": np.repeat(constant[:, None], n_nodes, axis=1),
        "all_zero": np.zeros((rows, n_nodes)),
        "mixed_scale": (rng.normal(0.0, 1.0, (rows, n_nodes))
                        * rng.choice([0.0, 1e-3, 1.0, 3.0], (rows, 1))
                        * rng.choice([1e-2, 1.0], (rows, n_nodes))),
    }


# at delta 10 the far-left grid values of g are affine, and their second
# differences round to slightly below zero
@pytest.mark.parametrize("name,delta", [("canonical", 0.5), ("canonical", 1.0),
                                        ("canonical", 2.0), ("canonical", 10.0),
                                        ("zero", 1.0)])
def test_jump_envelope_matches_dense_scan(gamma_quad, small_ensemble, name, delta):
    # without a declared slope no row is certified, so the bisection runs on
    # every row; certified rows are checked in test_jump_certificate_is_sound
    drv = dataclasses.replace(q.make_driver(name, StructureParams(delta, 0.0, 0.0)),
                              g_and_slope=None)
    fields = _envelope_fields(np.random.default_rng(14), gamma_quad.n_nodes)
    wz = small_ensemble.intensity[0]
    for n in (1, 2, 8, 64):
        reg = regularize(q.DriverView(drv, small_ensemble), n, 1)
        assert reg.strategy == "nonnegative"
        for label, u in fields.items():
            for scale in (1e-3, 1.0, 50.0):
                fast, _ = reg._jump_envelope(u, scale * wz)
                np.testing.assert_array_equal(
                    fast, _dense_scan(reg, u, scale * wz),
                    err_msg=f"{name} delta={delta} n={n} {label} mass x{scale}")
        # no jump mass: the envelope is the query value itself
        u = fields["large_normal"]
        np.testing.assert_array_equal(reg._jump_envelope(u, 0.0 * wz)[0],
                                      drv.jump_part(u, 0.0 * wz))


def test_jump_part_without_intensity_skips_the_integrand(gamma_quad):
    def refuses(v):
        raise AssertionError("g evaluated without jump intensity")

    drv = Driver("refusing", lambda y, z: np.zeros(np.shape(y)), refuses,
                 StructureParams(1.0, 0.0, 0.0))
    u = np.random.default_rng(3).normal(size=(40, gamma_quad.n_nodes))
    for field in (u, u[0]):
        out = drv.jump_part(field, np.zeros(gamma_quad.n_nodes))
        assert out.shape == field.shape[:-1]
        assert not out.any()


def test_jump_part_with_intensity_keeps_its_bits(canonical, gamma_quad):
    u = np.random.default_rng(4).normal(size=(40, gamma_quad.n_nodes))
    wz = gamma_quad.weights.copy()
    wz[1:] = 0.0                 # a single node with intensity still sums
    for w in (gamma_quad.weights, wz):
        np.testing.assert_array_equal(canonical.jump_part(u, w),
                                      left_to_right_sum(canonical.g(u), w))


@pytest.mark.parametrize("delta", [0.5, 2.0])
def test_canonical_g_and_slope_writes_g_into_the_exponent_buffer(gamma_quad, delta):
    # two (n, Q) arrays, no third for g, and the bits of g and expm1; a 0-d
    # value works too
    drv = q.make_driver("canonical", StructureParams(delta, 0.0, 0.0))
    u = np.asfortranarray(np.random.default_rng(5).normal(size=(4000, gamma_quad.n_nodes)))
    (g_vals, slope), peak = traced_peak(drv.g_and_slope, u)
    assert peak < 2.5 * u.nbytes
    assert g_vals.tobytes() == drv.g(u).tobytes()
    assert slope.tobytes() == np.expm1(delta * u).tobytes()
    g0, slope0 = drv.g_and_slope(0.3)
    assert (float(g0), float(slope0)) == (float(drv.g(0.3)), math.expm1(delta * 0.3))


def test_nonconvex_jump_integrand_is_refused(gamma_quad, small_ensemble):
    # 1 - cos(v) is nonnegative but not convex, so the bisection could stop at
    # a local minimum of the mark objective
    drv = Driver("bumpy", lambda y, z: np.zeros(np.shape(y)),
                 lambda v: 1.0 - np.cos(np.asarray(v, dtype=float)),
                 StructureParams(1.0, 0.0, 0.0), nonnegative=True, lip_y=0.0)
    reg = regularize(q.DriverView(drv, small_ensemble), 2, 1)
    assert reg.strategy == "nonnegative"
    u = np.zeros((3, gamma_quad.n_nodes))
    with pytest.raises(NotRegularizableError, match="not convex"):
        reg.evaluate(0, np.zeros(3), np.zeros(3), u)


def test_nonconvex_jump_integrand_is_refused_on_certified_rows(gamma_quad,
                                                              small_ensemble):
    # a declared slope certifies every row at u = 0, since g'(0) = 0; the
    # certificate rests on convexity, so the refusal still comes first, and
    # again on a second evaluation
    drv = Driver("bumpy", lambda y, z: np.zeros(np.shape(y)),
                 lambda v: 1.0 - np.cos(np.asarray(v, dtype=float)),
                 StructureParams(1.0, 0.0, 0.0), nonnegative=True, lip_y=0.0,
                 g_and_slope=lambda v: (1.0 - np.cos(np.asarray(v, dtype=float)),
                                        np.sin(np.asarray(v, dtype=float))),
                 z_slope=lambda z: np.zeros(np.shape(z)))
    reg = regularize(q.DriverView(drv, small_ensemble), 2, 1)
    assert reg.strategy == "nonnegative"
    u = np.zeros((3, gamma_quad.n_nodes))
    for _ in range(2):
        with pytest.raises(NotRegularizableError, match="not convex"):
            reg.evaluate(0, np.zeros(3), np.zeros(3), u)


@pytest.mark.parametrize("name,delta", [("canonical", 0.5), ("canonical", 1.0),
                                        ("canonical", 2.0), ("canonical", 10.0),
                                        ("zero", 1.0)])
def test_jump_certificate_is_sound(gamma_quad, small_ensemble, name, delta):
    # wherever sum_i wz_i g'(u_i)^2 <= n^2, the dense scan of the mark
    # objective finds nothing below the query; the other rows are bisected
    # and keep the dense scan's bits
    drv = q.make_driver(name, StructureParams(delta, 0.0, 0.0))
    fields = _envelope_fields(np.random.default_rng(15), gamma_quad.n_nodes)
    wz = small_ensemble.intensity[0]
    certified = bisected = 0
    for n in (1, 2, 8, 64):
        reg = regularize(q.DriverView(drv, small_ensemble), n, 1)
        for label, u in fields.items():
            for scale in (1e-3, 1.0, 50.0):
                w = scale * wz
                msg = f"{name} delta={delta} n={n} {label} mass x{scale}"
                rows = left_to_right_sum(drv.g_and_slope(u)[1] ** 2, w) <= n ** 2
                env, query = reg._jump_envelope(u, w)
                dense = _dense_scan(reg, u, w)
                np.testing.assert_array_equal(env[rows], query[rows], err_msg=msg)
                np.testing.assert_array_equal(env[~rows], dense[~rows], err_msg=msg)
                # a row constant at a grid value ties the objective with the
                # query at zero distance, and the scan rounds mass * g(v) and
                # sum_i wz_i g(v) apart: it may land an ulp or two below
                tie = rows & (np.ptp(u, axis=-1) == 0) & np.isin(u[:, 0], V_GRID)
                np.testing.assert_array_equal(dense[rows & ~tie], query[rows & ~tie],
                                              err_msg=msg)
                np.testing.assert_allclose(dense[tie], query[tie], rtol=5e-16, atol=0,
                                           err_msg=msg)
                assert np.all(dense[tie] <= query[tie]), msg
                certified += int(rows.sum())
                bisected += int((~rows).sum())
    assert certified > 0
    assert bisected > 0 or name == "zero"


def test_open_rows_keep_the_bits_of_an_evaluation_on_every_row(canonical, gamma_quad,
                                                               small_ensemble):
    # evaluate truncates the field to a column-major copy; on these fields
    # `.sum(axis=-1)` over a row subset of that copy gives other bits than
    # over the whole copy, so the comparison with the dense scan, whose row
    # sums are taken on the whole copy, catches a layout-dependent row sum
    full = dataclasses.replace(canonical, g_and_slope=None, z_slope=None)
    rng = np.random.default_rng(16)
    rows = 4000
    y = np.zeros(rows)
    u = (rng.normal(0.0, 1.0, (rows, gamma_quad.n_nodes))
         * rng.choice([0.5, 1.5, 3.0], (rows, 1)))
    for n in (1, 2, 4, 8):
        reg = regularize(q.DriverView(canonical, small_ensemble), n, 1)
        ref = regularize(q.DriverView(full, small_ensemble), n, 1)
        for k in (0, 10):
            wz = small_ensemble.intensity[k]
            u_sub = u[..., reg.node_idx]
            assert u_sub.flags.f_contiguous and not u_sub.flags.c_contiguous
            open_rows = ~(left_to_right_sum(canonical.g_and_slope(u_sub)[1] ** 2, wz)
                          <= n ** 2)
            assert 0 < open_rows.sum() < rows
            assert np.any((u_sub[open_rows] * wz).sum(axis=-1)
                          != (u_sub * wz).sum(axis=-1)[open_rows])
            # with z = 0 the z part is an exact zero, so the value is the
            # mark envelope itself
            out = reg.evaluate(k, y, y, u)
            np.testing.assert_array_equal(out, _dense_scan(reg, u_sub, wz))
            np.testing.assert_array_equal(out, ref.evaluate(k, y, y, u))
            raw = canonical.evaluate(y, y, u_sub, wz)
            assert 0 < reg.active[k][0] < rows
            assert reg.active[k] == ref.active[k] == (int((out < raw).sum()), rows)
    # the z part: rows with delta |z| > n run the transform, the others not
    z = rng.normal(0.0, 3.0, rows)
    for n in (1, 2, 4):
        reg = regularize(q.DriverView(canonical, small_ensemble), n, 1)
        ref = regularize(q.DriverView(full, small_ensemble), n, 1)
        np.testing.assert_array_equal(reg.evaluate(0, y, z, u), ref.evaluate(0, y, z, u))
        assert reg.active[0] == ref.active[0]


def test_envelope_active_counts_the_last_evaluation_of_each_step(canonical,
                                                                  gamma_quad,
                                                                  small_ensemble):
    reg = regularize(q.DriverView(canonical, small_ensemble), 1, 1)
    assert math.isnan(reg.envelope_active)
    rng = np.random.default_rng(17)
    u = rng.normal(0.0, 1.5, (50, gamma_quad.n_nodes))
    z = rng.normal(0.0, 3.0, 50)
    reg.evaluate(0, np.zeros(50), np.zeros(50), np.zeros_like(u))
    assert reg.active[0] == (0, 50)
    assert reg.envelope_active == 0.0
    out = reg.evaluate(0, np.zeros(50), z, u)
    # the driver's value on the truncated (column-major) field, as evaluate sees it
    raw = canonical.evaluate(np.zeros(50), z, u[..., reg.node_idx],
                             small_ensemble.intensity[0])
    cells = int((out < raw).sum())
    assert 0 < cells < 50
    assert reg.active[0] == (cells, 50)
    reg.evaluate(1, np.zeros(30), np.zeros(30), np.zeros((30, gamma_quad.n_nodes)))
    assert reg.envelope_active == cells / 80
    # the other strategies count the cells whose value differs from the driver's
    y = rng.normal(0.0, 1.0, 20)
    for drv, strategy in ((q.make_driver("linear", StructureParams(1.0, 0.0, 0.0), a=0.4),
                           "lipschitz_exact"),
                          (q.make_driver("morlais", StructureParams(1.0, 0.0, 0.0), beta=0.5),
                           "generic")):
        reg = regularize(q.DriverView(drv, small_ensemble), 2, 2)
        assert reg.strategy == strategy
        out = reg.evaluate(0, y, z[:20], u[:20])
        raw = drv.evaluate(y, z[:20], u[:20, reg.node_idx], small_ensemble.intensity[0])
        assert reg.active[0] == (int((out != raw).sum()), 20)
        assert (reg.active[0][0] > 0) == (strategy == "generic")


# ---------------------------------------------------------------------------
# one-sided jump-slope condition
# ---------------------------------------------------------------------------

def test_a_gamma_equal_fields(canonical, gamma_quad):
    u = np.full(gamma_quad.n_nodes, 0.3)
    rep = check_a_gamma(canonical, u, u, gamma_quad.weights)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ok


def test_a_gamma_single_node_slope(canonical):
    quad = q.MarkQuadrature(np.array([1.0]), np.array([1.0]), 1.0,
                            np.array([1.0]))
    u = np.array([1.0])
    ub = np.array([0.0])
    rep = check_a_gamma(canonical, u, ub, quad.weights)
    assert rep.lhs == pytest.approx(math.e - 2.0, rel=1e-12)
    assert rep.rhs == pytest.approx(rep.lhs, rel=1e-12)
    assert -1.0 < rep.slopes[0] and rep.ok


def test_a_gamma_random_pairs(canonical, gamma_quad):
    rng = np.random.default_rng(12)
    for _ in range(100):
        u = rng.uniform(-1.5, 1.5, gamma_quad.n_nodes)
        ub = rng.uniform(-1.5, 1.5, gamma_quad.n_nodes)
        rep = check_a_gamma(canonical, u, ub, gamma_quad.weights)
        assert rep.ok


# ---------------------------------------------------------------------------
# empirical Lipschitz probe
# ---------------------------------------------------------------------------

def test_lipschitz_constant_function():
    assert lipschitz_estimate(lambda r: 1.0, [(-1, 1)], 100, seed=1) == 0.0


def test_lipschitz_linear_slope():
    est = lipschitz_estimate(lambda r: 3.0 * r[0], [(-1.0, 1.0)], 1000, seed=2)
    assert est == pytest.approx(3.0, abs=1e-9)


def test_lipschitz_needs_two_probes():
    with pytest.raises(ValueError):
        lipschitz_estimate(lambda r: 0.0, [(-1, 1)], 1, seed=1)
