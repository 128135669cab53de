"""Structure-corridor, exponential-transform, and stability diagnostics.

A discrete decomposition ``Y = Y_0 - V + M`` is exponential-quadratic when
every increment of ``V`` stays inside the corridor built from the quadratic
variation of the continuous part, the running costs, and the exponential jump
penalty.  The checks here operate on grid-level surrogates: ``<M^c>`` is
approximated by ``|Z|^2 dt`` and jump brackets by compensator sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .drivers import StructureParams, corridor_edge
from .solver import BsdejSolution, PathEnsemble, same_ensemble


@dataclass
class QStructureReport:
    """The fraction of cells outside either corridor edge."""

    violation_fraction: float

    @property
    def ok(self) -> bool:
        return self.violation_fraction < 0.01


def check_q_structure(solution: BsdejSolution, params: StructureParams,
                      tol=0.0) -> QStructureReport:
    """Test every increment ``dV = driver_values * dt`` of a solve against the
    corridor of :func:`qebsdej.drivers.corridor_edge` times ``dt``.

    ``tol`` is an absolute slack (scalar or per-step array), typically a
    multiple of the regression standard error.  The lower edge is taken only
    on the rows with ``dV < -tol``: ``q_lower <= 0``, so no other row can
    fall below it.  The jump penalty sums over the live nodes, since the
    loading is zero on the others.
    """
    ensemble = solution.ensemble
    dt, wz = ensemble.dt, ensemble.live_intensity
    tol = np.broadcast_to(np.asarray(tol, dtype=float), solution.driver_values.shape)
    # one step at a time, keeping only an exact count of violations
    n_violations = 0
    for k in range(solution.n_steps):
        y, z, u = solution.y[:, k], solution.z[:, k], solution.u_values(k)
        tol_k = tol[:, k]
        dv = solution.driver_values[:, k] * dt
        q_hi = corridor_edge(y, z, u, params, wz, upper=True)
        outside = q_hi * dt - dv < -tol_k
        low = np.flatnonzero(dv < -tol_k)
        if low.size:
            q_lo = corridor_edge(y[low], z[low], np.asfortranarray(u[low]), params, wz,
                                 upper=False)
            outside[low] |= dv[low] - q_lo * dt < -tol_k[low]
        n_violations += int(np.count_nonzero(outside))
    return QStructureReport(n_violations / solution.driver_values.size)


def exponential_transform(y: np.ndarray, params: StructureParams,
                          time_grid: np.ndarray) -> np.ndarray:
    """Discounted-absolute-value transform with left-endpoint running cost.

    ``X_k = exp(c t_k) |Y_k| + sum_{j<k} exp(c t_j) l dt_j``.
    """
    time_grid = np.asarray(time_grid, dtype=float)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    expc = np.exp(params.c * time_grid)
    running = np.concatenate([[0.0], np.cumsum(expc[:-1] * params.l * np.diff(time_grid))])
    return expc[None, :] * np.abs(y) + running[None, :]


@dataclass
class SubmartingaleReport:
    fraction_below: float
    verdict: bool


def submartingale_test(x_bar: np.ndarray, ensemble: PathEnsemble, k_sigma: int,
                       k_tau: int) -> SubmartingaleReport:
    """Conditional-mean test that ``exp(X)`` does not decrease in expectation.

    The conditional expectation of the increment ``exp(X_tau) - exp(X_sigma)``
    given the time-``sigma`` state is estimated by a piecewise-constant
    regression on equal-count state bins; a bin whose mean
    increment is significantly negative flags all its paths.  Smooth-basis
    fits are avoided on purpose: a polynomial fitted through the kinked
    increment profile of a magnitude transform oscillates below zero where
    the true conditional mean is merely small, producing spurious violations
    that the sign-robust binned estimator does not.  Significance is a
    three-standard-error criterion made simultaneous across bins (the
    per-bin threshold carries the Bonferroni share of the family error, so a
    boundary-exact martingale does not flicker through multiple
    comparisons).  The verdict passes when fewer than 1% of paths are
    flagged.
    """
    if not 0 <= k_sigma < k_tau <= ensemble.n_steps:
        raise ValueError("need grid indices with sigma < tau")
    increment = np.exp(x_bar[:, k_tau]) - np.exp(x_bar[:, k_sigma])
    n = increment.size
    state = ensemble.state[:, k_sigma]
    # keep bins large enough for their means to be near-Gaussian
    n_bins = max(2, min(20, n // 1500))
    if float(state.std()) <= 1e-12:
        bin_ids = np.zeros(n, dtype=int)
        n_bins = 1
    else:
        edges = np.quantile(state, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
        bin_ids = np.searchsorted(edges, state)
    family_alpha = NormalDist().cdf(-3.0)
    z_bin = -NormalDist().inv_cdf(family_alpha / n_bins)
    flagged = 0
    for b in range(n_bins):
        members = bin_ids == b
        count = int(members.sum())
        if count == 0:
            continue
        vals = increment[members]
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
        if mean < -z_bin * se:
            flagged += count
    frac = flagged / n
    return SubmartingaleReport(frac, frac < 0.01)


def martingale_regression_test(increments: np.ndarray, ensemble: PathEnsemble,
                               basis_degree: int) -> float:
    """Max studentized feature coefficient when regressing increments on
    time-``t_k`` features; near zero for true martingale increments.  The
    standard errors are heteroscedasticity-robust (HC0): the variance of a
    martingale increment moves with the state."""
    worst = 0.0
    for k in range(increments.shape[1]):
        reg = ensemble.regression(k, basis_degree)
        coeffs, fitted = reg.fit(increments[:, k])
        variances = reg.robust_variances(increments[:, k] - fitted)
        se = np.sqrt(np.clip(variances, 1e-300, None))
        worst = max(worst, float(np.max(np.abs(coeffs) / se)))
    return worst


# ---------------------------------------------------------------------------
# stability along an approximation ladder
# ---------------------------------------------------------------------------

@dataclass
class StabilityRecord:
    h1_gap_prev: float      # vs previous decomposition, nan for the first
    vstar_gap_prev: float


def stability_diagnostics(solutions: Sequence[BsdejSolution]) -> list[StabilityRecord]:
    """Pairwise gaps between the decompositions of consecutive solves (all on
    a shared ensemble)."""
    records = [StabilityRecord(math.nan, math.nan)] if solutions else []
    for prev, sol in zip(solutions, solutions[1:]):
        records.append(StabilityRecord(*pairwise_gap(sol, prev)))
    return records


def pairwise_gap(sol_a: BsdejSolution, sol_b: BsdejSolution) -> tuple[float, float]:
    """(H1-style martingale gap, running-max variation gap) between the
    decompositions of two solves on a shared ensemble; ``dV`` is
    ``driver_values * dt`` and ``dM`` the residue ``diff(y) + dV``.

    One step at a time: per path it keeps the sum of ``dM^2``, the two
    running sums of ``dV`` and the largest gap between them.  Each is
    accumulated in step order, as the row sums and cumulative sums of the
    column-major whole-array form are, so the floats keep its bits.
    """
    dt = same_ensemble(sol_a, sol_b).dt
    n = sol_a.n_paths
    dm2, v_a, v_b, vstar = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    for k in range(sol_a.n_steps):
        dv_a = sol_a.driver_values[:, k] * dt
        dv_b = sol_b.driver_values[:, k] * dt
        dm = ((sol_a.y[:, k + 1] - sol_a.y[:, k]) + dv_a
              - ((sol_b.y[:, k + 1] - sol_b.y[:, k]) + dv_b))
        dm2 += dm * dm
        v_a += dv_a
        v_b += dv_b
        np.maximum(vstar, np.abs(v_a - v_b), out=vstar)
    return float(np.sqrt(dm2).mean()), float(vstar.mean())
