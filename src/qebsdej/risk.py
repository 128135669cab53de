"""Entropic risk estimation and the associated a-priori solution bound.

The upper entropic value of a payoff is the log of its conditional
exponential moment; the lower value is the sign-flipped mirror.  At time
zero the conditional expectation is a sample mean with a delta-method
standard error; at interior times it is a least-squares regression on
state features, with the log taken after the regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import StructureParams
from .solver import BsdejSolution, PathEnsemble

# the two entropic values: ln E[exp(psi)] and -ln E[exp(-psi)]
DIRECTIONS = ("upper", "lower")


@dataclass
class RiskEstimate:
    value: float
    stderr: float
    heavy_tail_warning: bool


def heavy_tail(weights: np.ndarray) -> bool:
    """Whether the top 0.1% of the positive ``weights`` carry most of the sum."""
    n = weights.size
    top = np.sort(weights)[-max(1, n // 1000):]
    return float(top.sum()) > 0.5 * float(weights.sum())


def entropic(ensemble: PathEnsemble, payoff: np.ndarray, k_time: int,
             direction: str, basis_degree: int) -> RiskEstimate:
    """Entropic value of ``payoff`` conditioned on the time-``t_k`` state.

    ``direction='upper'`` returns ``ln E[exp(psi) | F_t]``; ``'lower'``
    returns ``-ln E[exp(-psi) | F_t]``.  At ``k_time == 0`` the value is the
    scalar log sample mean; at later times it is the cross-sectional mean of
    the per-path regression values.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    psi = np.asarray(payoff, dtype=float)
    sign = 1.0 if direction == "upper" else -1.0
    with np.errstate(over="ignore"):
        expo = np.exp(sign * psi)
    if not np.all(np.isfinite(expo)):
        raise OverflowError("exponential moment overflowed; payoff too heavy")
    heavy = heavy_tail(expo)
    n = expo.size
    if k_time == 0:
        mean = float(expo.mean())
        se_mean = float(expo.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return RiskEstimate(sign * math.log(mean), se_mean / mean, heavy)
    reg = ensemble.regression(k_time, basis_degree)
    _, fitted = reg.fit(expo)
    # a conditional mean stays inside the target's range; clipping keeps the
    # log finite where the polynomial fit undershoots a positive target
    pred = np.clip(fitted, float(expo.min()), float(expo.max()))
    path_values = sign * np.log(pred)
    resid = expo - fitted
    # a NumPy sum of squares, not a BLAS dot, whose order depends on the thread count
    sigma2 = float(np.square(resid, out=resid).sum()) / max(n - reg.n_basis, 1)
    se = math.sqrt(sigma2 * reg.n_basis / n) / float(pred.mean())
    return RiskEstimate(float(path_values.mean()), se, heavy)


def terminal_bound_payoff(xi: np.ndarray, params: StructureParams,
                          time_grid: np.ndarray) -> np.ndarray:
    """Discounted terminal magnitude plus running cost integral over a grid
    that starts at zero: ``exp(c T) |xi| + sum_j exp(c t_j) l dt_j``."""
    times = np.asarray(time_grid, dtype=float)
    c_t = params.c * times
    run = float((np.exp(c_t[:-1]) * params.l * np.diff(times)).sum())
    return math.exp(c_t[-1]) * np.abs(np.asarray(xi, dtype=float)) + run


@dataclass
class AprioriReport:
    """``bound`` is the applied upper bound on ``lhs``: ``rhs`` plus the
    slack."""

    lhs: float
    rhs: float
    ok: bool
    bound: float


def apriori_bound_check(solution: BsdejSolution, params: StructureParams
                        ) -> AprioriReport:
    """Check ``|Y_0| <= entropic upper value of the discounted terminal
    magnitude plus running costs``, with a slack of three combined standard
    errors of both sides.
    """
    payoff = terminal_bound_payoff(solution.y[:, -1], params,
                                   solution.ensemble.time_grid)
    est = entropic(solution.ensemble, payoff, 0, "upper",
                   solution.feature_maps[0].degree)
    bound = est.value + 3.0 * math.hypot(est.stderr, solution.y0_se)
    lhs = abs(solution.y0)
    return AprioriReport(lhs, est.value, lhs <= bound, bound)


@dataclass
class MomentRow:
    """Full-sample and half-sample exponential moments of one order; the
    moment is stable when doubling the sample moves it by less than 10%."""

    gamma: float
    mean: float
    half_mean: float

    @property
    def drift(self) -> float:
        return abs(self.mean - self.half_mean)

    @property
    def drift_tol(self) -> float:
        return 0.10 * abs(self.half_mean)

    @property
    def stable(self) -> bool:  # false when either mean is infinite
        return self.drift < self.drift_tol


def exponential_moment_check(xi: np.ndarray, params: StructureParams,
                             time_grid: np.ndarray, gammas) -> list[MomentRow]:
    """Sample exponential moments of the discounted terminal bound payoff.

    For each ``gamma`` the row reports the full-sample mean and the
    half-sample mean; heavy-tailed terminals fail the row's stability flag.
    """
    payoff = terminal_bound_payoff(xi, params, time_grid)
    rows = []
    for gamma in gammas:
        if gamma <= 0:
            raise ValueError("moment orders must be positive")
        with np.errstate(over="ignore"):
            vals = np.exp(gamma * payoff)
        half = vals[: vals.size // 2]
        mean = float(vals.mean()) if np.all(np.isfinite(vals)) else math.inf
        half_mean = float(half.mean()) if np.all(np.isfinite(half)) else math.inf
        rows.append(MomentRow(gamma, mean, half_mean))
    return rows
