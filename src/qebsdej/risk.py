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
from .semimartingale import exponential_transform
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
    # sums of finite exponentials overflow too (squares above exponent 355): refused last
    with np.errstate(over="ignore"):
        expo = np.exp(sign * psi)
        if not np.all(np.isfinite(expo)):
            raise OverflowError("exponential moment overflowed; payoff too heavy")
        heavy = heavy_tail(expo)
        n = expo.size
        if k_time == 0:
            mean = float(expo.mean())
            se = float(expo.std(ddof=1) / math.sqrt(n)) / mean if n > 1 else 0.0
            value = sign * math.log(mean)
        else:
            reg = ensemble.regression(k_time, basis_degree)
            _, fitted = reg.fit(expo)
            # a conditional mean stays inside the target's range; clipping keeps
            # the log finite where the polynomial fit undershoots a positive target
            pred = np.clip(fitted, float(expo.min()), float(expo.max()))
            value = float((sign * np.log(pred)).mean())
            resid = expo - fitted
            # a NumPy sum of squares, not a BLAS dot, whose order moves with threads
            sigma2 = float(np.square(resid, out=resid).sum()) / max(n - reg.n_basis, 1)
            se = math.sqrt(sigma2 * reg.n_basis / n) / float(pred.mean())
    if not (math.isfinite(value) and math.isfinite(se)):
        raise OverflowError("exponential moment overflowed; payoff too heavy")
    return RiskEstimate(value, se, heavy)


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
    """Check the a-priori bound ``|Y_0| <= (1/delta) ln E exp(delta X_T)``, with
    ``X`` the :func:`qebsdej.semimartingale.exponential_transform`, allowing
    three combined standard errors of both sides (that of the entropic value
    divided by ``delta``).
    """
    delta = params.delta
    payoff = delta * exponential_transform(solution.y[:, -1], params,
                                           solution.ensemble.time_grid, solution.n_steps)
    est = entropic(solution.ensemble, payoff, 0, "upper", solution.feature_maps[0].degree)
    rhs = est.value / delta
    bound = rhs + 3.0 * math.hypot(est.stderr / delta, solution.y0_se)
    lhs = abs(solution.y0)
    return AprioriReport(lhs, rhs, lhs <= bound, bound)


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
    """Sample exponential moments of the terminal
    :func:`qebsdej.semimartingale.exponential_transform` of ``xi``.

    For each ``gamma`` the row reports the full-sample mean and the
    half-sample mean; heavy-tailed terminals fail the row's stability flag.
    """
    payoff = exponential_transform(xi, params, time_grid, len(time_grid) - 1)
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
