"""Reference implementations of the proof's objects, for the tests only.

Nothing on a ``run``, ``validate`` or ``oracle`` path calls these: they are
the closed forms, brute-force envelopes and certificates that the tests
check the package against.  Tests import this module as ``references``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from qebsdej.drivers import Driver, StructureParams, corridor_edge
from qebsdej.levy import JumpTable, LevyModel, exp_excess, nu_norm
from qebsdej.risk import DIRECTIONS
from qebsdej.solver import BsdejSolution, PathEnsemble


# ---------------------------------------------------------------------------
# nu-weighted row sums and the two-sided corridor
# ---------------------------------------------------------------------------

def left_to_right_sum(field, wz: np.ndarray) -> np.ndarray:
    """``sum_i wz_i field_i`` over the last axis, the products added one
    node at a time from the first node to the last: the order that
    ``levy.nu_dot`` fixes."""
    field = np.asarray(field, dtype=float)
    acc = field[..., 0] * wz[0]
    for i in range(1, field.shape[-1]):
        acc = acc + field[..., i] * wz[i]
    return acc


def structure_bounds(y, z, u, params: StructureParams, wz: np.ndarray):
    """Two-sided corridor ``(q_lower, q_upper)`` at a point and intensity
    ``wz``: both edges of ``drivers.corridor_edge`` on every row."""
    return (corridor_edge(y, z, u, params, wz, upper=False),
            corridor_edge(y, z, u, params, wz, upper=True))


def check_q_structure_two_sided(solution: BsdejSolution, params: StructureParams,
                                tol=0.0) -> tuple[np.ndarray, float]:
    """``semimartingale.check_q_structure`` with both corridor edges taken
    on every cell, as whole (n_paths, K) arrays, and the jump penalty summed
    over every master node (see :func:`padded_u_values`): the per-cell slack
    below the upper edge (positive means strictly inside) and the fraction
    of cells outside either edge."""
    ensemble = solution.ensemble
    dt = ensemble.dt
    dv = solution.driver_values * dt
    lower, upper = np.empty_like(dv), np.empty_like(dv)
    for k in range(solution.n_steps):
        q_lo, q_hi = structure_bounds(solution.y[:, k], solution.z[:, k],
                                      padded_u_values(solution, k), params,
                                      ensemble.quad.weights)
        lower[:, k], upper[:, k] = q_lo * dt, q_hi * dt
    tol = np.broadcast_to(np.asarray(tol, dtype=float), dv.shape)
    outside = (upper - dv < -tol) | (dv - lower < -tol)
    return upper - dv, float(np.count_nonzero(outside)) / dv.size


# ---------------------------------------------------------------------------
# whole-array, full-width forms of the run path's streamed and sparse
# computations
# ---------------------------------------------------------------------------

def padded_u_values(solution: BsdejSolution, k: int, rows=None) -> np.ndarray:
    """``BsdejSolution.u_values`` on every master node, shape (n_paths, Q):
    the live nodes' loading coefficients padded with a zero column per dead
    node, then one column-major product with the design and one clip, as a
    solution that stored the loading on every node evaluated it.  A dead
    column is exactly +0.0, since the design's intercept column is 1."""
    live = solution.ensemble.live
    coeffs = np.zeros((solution.u_coeffs[k].shape[0], live.size))
    coeffs[:, live] = solution.u_coeffs[k]
    x = solution.ensemble.state[:, k]
    design = solution.feature_maps[k].matrix(x if rows is None else x[rows])
    u = np.matmul(design, coeffs, out=np.empty((design.shape[0], live.size), order="F"))
    return np.clip(u, -solution.u_clip[k], solution.u_clip[k], out=u)


def interval_counts(jumps: JumpTable, k: int) -> np.ndarray:
    """Dense per-node jump counts over interval ``k``, shape (n_paths, Q)."""
    out = np.zeros((jumps.n_paths, jumps.n_nodes))
    paths, marks = jumps.rows_for_interval(k)
    np.add.at(out, (paths, marks), 1.0)
    return out


def table_jump_paths(intensity: np.ndarray, dt: float, n_paths: int,
                     seed: int) -> JumpTable:
    """``levy.sample_jump_paths`` of a per-interval intensity table, shape
    (K, Q): interval ``k`` draws its Poisson counts, jump times and marks
    from row ``k``, and an interval whose row has no mass draws nothing."""
    rng = np.random.Generator(np.random.Philox(seed))
    paths, intervals = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    times, marks = [np.empty(0)], [np.empty(0, dtype=int)]
    for k, wz in enumerate(intensity):
        lam = float(wz.sum())
        if lam <= 0.0:
            continue
        counts = rng.poisson(lam * dt, size=n_paths)
        total = int(counts.sum())
        if total == 0:
            continue
        paths.append(np.repeat(np.arange(n_paths), counts))
        intervals.append(np.full(total, k))
        times.append((k + rng.random(total)) * dt)
        marks.append(rng.choice(wz.size, size=total, p=wz / lam))
    return JumpTable(*map(np.concatenate, (paths, intervals, times, marks)),
                     n_paths, *intensity.shape)


def dense_jump_targets(jumps: JumpTable, k: int, lam_dt: np.ndarray, live: np.ndarray,
                       centered: np.ndarray, out: np.ndarray) -> None:
    """``solver._jump_targets`` from the dense counts: every live column is
    ``(counts / (lam_i dt) - 1) * centered``, in whole-array passes."""
    np.divide(interval_counts(jumps, k)[:, live], lam_dt[live], out=out)
    out -= 1.0
    out *= centered[:, None]


def reconstruction_gap_whole_array(solution: BsdejSolution) -> float:
    """``runner._reconstruction_gap`` from (n_paths, K) cumulative sums."""
    y, dv = solution.y, solution.driver_values * solution.ensemble.dt
    rebuilt = y[:, :1] - np.cumsum(dv, axis=1) + np.cumsum(np.diff(y, axis=1) + dv, axis=1)
    return float(np.max(np.abs(y[:, 1:] - rebuilt)))


def s2_norm_whole_array(solution: BsdejSolution) -> float:
    """``BsdejSolution.s2_norm`` from the whole ``|y|`` array."""
    return float((np.abs(solution.y).max(axis=1) ** 2).mean())


def exponential_transform_whole_array(y: np.ndarray, params: StructureParams,
                                      time_grid: np.ndarray) -> np.ndarray:
    """``semimartingale.exponential_transform`` at every step at once:
    column ``k`` is ``exp(c t_k) |Y_k|`` plus the cumulative sum of the
    left-endpoint running costs."""
    time_grid = np.asarray(time_grid, dtype=float)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    expc = np.exp(params.c * time_grid)
    running = np.concatenate([[0.0], np.cumsum(expc[:-1] * params.l * np.diff(time_grid))])
    return expc[None, :] * np.abs(y) + running[None, :]


def c_split_concatenated(solution: BsdejSolution) -> float:
    """``scheme.default_c_split`` from the concatenated per-step sizes, with
    the loading's norm taken over every master node."""
    sizes = [np.abs(solution.z[:, k])
             + nu_norm(padded_u_values(solution, k), solution.ensemble.quad.weights)
             for k in range(solution.n_steps)]
    split = 5.0 * float(np.percentile(np.concatenate(sizes), 90.0))
    return split if split ** 2 > 0.0 else 1.0


# ---------------------------------------------------------------------------
# Lipschitz envelopes by brute force, the jump-slope certificate and
# Lipschitz probing
# ---------------------------------------------------------------------------

def _coordinate_distance(candidates: np.ndarray, point: np.ndarray,
                         nu_weights: np.ndarray | None) -> np.ndarray:
    """Mixed distance: L1 over plain coordinates, weighted-L2 block over the
    coordinates carrying a positive ``nu_weights`` entry."""
    diff = candidates - point[None, :]
    if nu_weights is None:
        return np.abs(diff).sum(axis=1)
    nu_weights = np.asarray(nu_weights, dtype=float)
    l1 = np.abs(diff[:, nu_weights <= 0]).sum(axis=1)
    wblock = nu_weights[nu_weights > 0]
    l2 = np.sqrt((diff[:, nu_weights > 0] ** 2 * wblock).sum(axis=1))
    return l1 + l2


def _as_candidate_matrix(candidate_grid) -> np.ndarray:
    c = np.asarray(candidate_grid, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    return c


def inf_convolve(phi: Callable, n: float, point, candidate_grid,
                 nu_weights: np.ndarray | None = None) -> float:
    """Lipschitz lower envelope ``min_c [phi(c) + n * dist(c, point)]``.

    The query point joins the candidate set, so the value never exceeds
    ``phi(point)``.  Coordinates with a positive ``nu_weights`` entry are
    measured in the weighted-L2 mark norm, the rest in L1.
    """
    cands = _as_candidate_matrix(candidate_grid)
    if cands.size == 0:
        raise ValueError("candidate grid is empty")
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    vals = np.asarray([float(phi(c if c.size > 1 else float(c[0]))) for c in cands])
    dist = _coordinate_distance(cands, pt, nu_weights)
    grid_min = float(np.min(vals + n * dist))
    return min(grid_min, float(phi(pt if pt.size > 1 else float(pt[0]))))


def sup_convolve(phi: Callable, m: float, point, candidate_grid,
                 nu_weights: np.ndarray | None = None) -> float:
    """Upper envelope ``max_c [phi(c) - m * dist(c, point)]``, at least
    ``phi(point)``.  Mirror of :func:`inf_convolve` with a subtracted
    penalty (an added penalty inside a supremum would be unbounded)."""
    return -inf_convolve(lambda c: -phi(c), m, point, candidate_grid, nu_weights)


@dataclass
class GammaSlopeReport:
    lhs: float
    rhs: float
    ok: bool
    slopes: np.ndarray


def check_a_gamma(driver: Driver, u, u_bar, wz: np.ndarray,
                  gamma_cap: float = math.inf) -> GammaSlopeReport:
    """One-sided slope certificate for the jump dependence.

    The per-node slope ``(g(u_i) - g(u_bar_i)) / (u_i - u_bar_i)`` is clamped
    to ``(-1 + 1e-9, gamma_cap)`` and must dominate the actual increment:
    ``f(u) - f(u_bar) <= sum_i wz_i slope_i (u_i - u_bar_i) + 1e-9`` for the
    node intensity ``wz``.
    """
    u = np.asarray(u, dtype=float)
    ub = np.asarray(u_bar, dtype=float)
    gu, gub = driver.g(u), driver.g(ub)
    lhs = float(((gu - gub) * wz).sum())
    diff = u - ub
    slopes = np.zeros_like(diff)
    nz = np.abs(diff) > 0
    slopes[nz] = (gu[nz] - gub[nz]) / diff[nz]
    slopes = np.clip(slopes, -1.0 + 1e-9, gamma_cap)
    rhs = float((slopes * diff * wz).sum())
    return GammaSlopeReport(lhs, rhs, lhs <= rhs + 1e-9, slopes)


def lipschitz_estimate(func: Callable, region: Sequence[tuple], n_probes: int,
                       seed: int) -> float:
    """Empirical Lipschitz constant over random probe pairs in a box.

    ``func`` maps a coordinate vector to a scalar; the constant is the max of
    ``|f(a) - f(b)| / sum_j |a_j - b_j|`` over ``n_probes`` independent pairs.
    """
    if n_probes < 2:
        raise ValueError("need at least two probes")
    rng = np.random.default_rng(seed)
    lo = np.asarray([r[0] for r in region], dtype=float)
    hi = np.asarray([r[1] for r in region], dtype=float)
    a = lo + (hi - lo) * rng.random((n_probes, lo.size))
    b = lo + (hi - lo) * rng.random((n_probes, lo.size))
    dist = np.abs(a - b).sum(axis=1)
    keep = dist > 1e-12
    fa = np.asarray([float(func(row)) for row in a[keep]])
    fb = np.asarray([float(func(row)) for row in b[keep]])
    return float(np.max(np.abs(fa - fb) / dist[keep]))


# ---------------------------------------------------------------------------
# canonical exponential semimartingales and the Garsia-Neveu moment bound
# ---------------------------------------------------------------------------

def canonical_paths(ensemble: PathEnsemble, m_c_increments: np.ndarray,
                    bracket_increments: np.ndarray, u_fields: np.ndarray,
                    direction: str, r0: float = 0.0) -> np.ndarray:
    """Canonical exponential-quadratic paths driven by given martingale parts.

    ``m_c_increments`` has shape (n_paths, K) and ``bracket_increments`` holds
    the matching predictable brackets (``|Z|^2 dt`` per path and step, scalar
    rows broadcast).  ``u_fields`` holds one field per step, shape (K, Q),
    broadcast over paths; its jump sums run over the jumps of ``ensemble``
    and both compensators weigh the nodes by ``ensemble.quad.weights``.  The
    upper direction subtracts half the bracket and the ``exp(u) - u - 1``
    compensator, the lower one adds half the bracket and the
    ``exp(-u) + u - 1`` compensator.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    sign = 1.0 if direction == "upper" else -1.0
    n, k_steps = m_c_increments.shape
    bracket = np.broadcast_to(np.asarray(bracket_increments, dtype=float),
                              m_c_increments.shape)
    r = np.empty((n, k_steps + 1), order="F")
    r[:, 0] = r0
    dt, wz = ensemble.dt, ensemble.quad.weights
    for k in range(k_steps):
        u_k = u_fields[k]
        dm = m_c_increments[:, k] + ensemble.jumps.compensated_sum(k, u_k, wz, dt)
        comp = (wz * exp_excess(sign * u_k)).sum()
        r[:, k + 1] = r[:, k] + dm - sign * (0.5 * bracket[:, k] + comp * dt)
    return r


def doleans_check(r_paths: np.ndarray, direction: str = "upper"):
    """Sample mean and standard error of the terminal stochastic exponential.

    For the upper direction the statistic is ``exp(r_T - r_0)``; the lower
    direction exponentiates the negated increment.  Positive local martingales
    have mean one; the verdict allows three standard errors.
    """
    increment = r_paths[:, -1] - r_paths[:, 0]
    vals = np.exp(increment if direction == "upper" else -increment)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return mean, stderr


@dataclass
class GarsiaNeveuReport:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    ok: bool


def garsia_neveu_probe(a_paths: np.ndarray, u_dom: np.ndarray,
                       p: float) -> GarsiaNeveuReport:
    """Moment comparison ``E[A_T^p] <= p^p E[U^p]`` for an increasing process
    dominated by ``U`` in conditional expectation (fixture guarantees the
    domination).  Allows three combined standard errors of slack."""
    if p < 1:
        raise ValueError("exponent must satisfy p >= 1")
    a_term = np.asarray(a_paths, dtype=float)
    if a_term.ndim == 2:
        if np.any(np.diff(a_term, axis=1) < -1e-12):
            raise ValueError("process paths must be nondecreasing")
        a_term = a_term[:, -1]
    lhs_samples = a_term ** p
    rhs_samples = (p ** p) * np.asarray(u_dom, dtype=float) ** p
    lhs, rhs = float(lhs_samples.mean()), float(rhs_samples.mean())
    lhs_se = float(lhs_samples.std(ddof=1) / math.sqrt(lhs_samples.size))
    rhs_se = float(rhs_samples.std(ddof=1) / math.sqrt(rhs_samples.size))
    ok = lhs <= rhs + 3.0 * math.hypot(lhs_se, rhs_se)
    return GarsiaNeveuReport(lhs, lhs_se, rhs, rhs_se, ok)


# ---------------------------------------------------------------------------
# small-jump truncation
# ---------------------------------------------------------------------------

def small_jump_residual(model: LevyModel, kappa: float) -> float:
    """Second-moment mass of the dropped small jumps, ``int_{|e|<1/kappa} e^2 ell``."""
    if kappa < 1.0:
        raise ValueError("truncation level must satisfy kappa >= 1")
    return model.n_sides * max(model.moment(2, 0.0, 1.0 / kappa), 0.0)


# ---------------------------------------------------------------------------
# closed forms and grid cross-checks
# ---------------------------------------------------------------------------

def entropic_gaussian_exact(sigma: float) -> float:
    """``ln E[exp(X)]`` for ``X ~ N(0, sigma^2)``."""
    return 0.5 * sigma * sigma


def folded_gaussian_moment_exact(sigma: float, gamma: float = 1.0) -> float:
    """``E[exp(gamma |X|)]`` for ``X ~ N(0, sigma^2)``."""
    s = gamma * sigma
    return 2.0 * math.exp(0.5 * s * s) * NormalDist().cdf(s)


def huber_envelope_grid(n: float, y: float, lo: float = -5.0, hi: float = 5.0,
                        n_points: int = 10001) -> float:
    """Brute-force grid minimization cross-check of the square's envelope."""
    grid = np.linspace(lo, hi, n_points)
    return float(np.min(grid * grid + n * np.abs(grid - y)))


def exp1_reference(x: float) -> float:
    """Exponential integral ``int_x^inf exp(-e)/e de`` with adaptive
    integration cross-check."""
    from scipy import integrate, special  # only this reference needs SciPy

    series = float(special.exp1(x))
    quad_val, _ = integrate.quad(lambda e: math.exp(-e) / e, x, np.inf, limit=200)
    if abs(series - quad_val) > 1e-8 * (1.0 + abs(series)):
        raise RuntimeError("exponential-integral references disagree")
    return series


def stable_tail_mass_exact(theta: float, alpha: float, cut: float) -> float:
    """Two-sided mass of ``theta |e|^(-1-alpha)`` beyond ``|e| >= cut``."""
    return 2.0 * theta * cut ** (-alpha) / alpha


def stable_small_jump_second_moment(theta: float, alpha: float, cut: float) -> float:
    """``int_{|e| < cut} e^2 theta |e|^(-1-alpha) de`` (both sides)."""
    return 2.0 * theta * cut ** (2.0 - alpha) / (2.0 - alpha)


def girsanov_tilt_exact(b: float, c_tilde: float, mass: float, t_end: float,
                        x0: float = 0.0, impact: float = 1.0) -> float:
    """Tilted-measure expectation of the compensated forward state for the
    linear generator ``b z + c_tilde * int u dnu``: drift ``b`` plus the
    intensity tilt acting on the compensated jump sum."""
    return x0 + b * t_end + c_tilde * mass * impact * t_end
