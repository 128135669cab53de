"""The estimators of the ``oracle`` verb, by name in ``config.ORACLES``.

Each returns an :class:`OracleValue`: a fresh Monte Carlo mean with its
standard error, or a closed form with standard error zero.  None of them
touches the solver machinery, so each can serve as one side of a
dual-route check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (NumPy loads it lazily otherwise, on the first draw)


@dataclass
class OracleValue:
    name: str
    value: float
    stderr: float


def huber_envelope_exact(n: float, y: float) -> float:
    """``min_r [r^2 + n |r - y|]``: the square below ``|y| <= n/2``, linear
    continuation ``n|y| - n^2/4`` beyond."""
    if abs(y) <= 0.5 * n:
        return y * y
    return n * abs(y) - 0.25 * n * n


def huber_envelope_value(n: float, y: float) -> OracleValue:
    """:func:`huber_envelope_exact` as an oracle value, without sampling error."""
    return OracleValue("huber_envelope", huber_envelope_exact(n, y), 0.0)


def girsanov_tilt_mc(b: float, c_tilde: float, mass: float, t_end: float,
                     x0: float, impact: float, n_samples: int, seed: int) -> OracleValue:
    """Fresh simulation under the tilted dynamics: Brownian drift ``b`` and
    jump intensity scaled by ``1 + c_tilde``; the payoff is the terminal
    state compensated at the original intensity.

    The sample is taken without ``x0``, which shifts the mean and not the
    spread: the rounding of a large ``x0`` would swamp the deviations from
    the mean, and their squares could overflow.  The deviations of the
    Brownian and the jump part are taken apart for the same reason: in their
    sum, a jump part far above the Brownian one rounds the latter away.  The
    moves and the deviations are each divided by a power of two at or above
    their largest magnitude before they are summed or squared, and the mean
    and the SE are multiplied back: scaling by a power of two is exact, so
    both have the bits of the unscaled ones wherever those do not overflow."""
    rng = np.random.default_rng(seed)
    w_term = rng.normal(b * t_end, math.sqrt(t_end), n_samples)
    n_term = rng.poisson((1.0 + c_tilde) * mass * t_end, n_samples)
    moves = w_term + impact * (n_term - mass * t_end)
    deviations = (w_term - w_term.mean()) + impact * (n_term - n_term.mean())
    _, m_exp = math.frexp(float(np.abs(moves).max()))
    _, d_exp = math.frexp(float(np.abs(deviations).max()))
    mean = np.ldexp(np.ldexp(moves, -m_exp).mean(), m_exp)
    se = np.ldexp(np.ldexp(deviations, -d_exp).std(ddof=1) / math.sqrt(n_samples), d_exp)
    return OracleValue("girsanov_tilt", x0 + float(mean), float(se))


def brownian_doleans_mc(t_end: float, n_samples: int, seed: int) -> OracleValue:
    """Sample mean of ``exp(W_T - T/2)``; the lognormal mean is one."""
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.normal(0.0, math.sqrt(t_end), n_samples) - 0.5 * t_end)
    return OracleValue("brownian_doleans", float(vals.mean()),
                       float(vals.std(ddof=1) / math.sqrt(n_samples)))


def compound_poisson_doleans_mc(u: float, mass: float, t_end: float,
                                n_samples: int, seed: int) -> OracleValue:
    """Sample mean of ``exp(u N_T - mass T (e^u - 1))`` for a Poisson count
    ``N_T`` with mean ``mass T``; exactly one in expectation."""
    rng = np.random.default_rng(seed)
    n_term = rng.poisson(mass * t_end, n_samples)
    vals = np.exp(u * n_term - mass * t_end * math.expm1(u))
    return OracleValue("compound_poisson_doleans", float(vals.mean()),
                       float(vals.std(ddof=1) / math.sqrt(n_samples)))


def entropic_gaussian_mc(sigma: float, direction: str, n_samples: int,
                         seed: int) -> OracleValue:
    """Monte Carlo entropic value of a centered Gaussian payoff."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, sigma, n_samples)
    sign = 1.0 if direction == "upper" else -1.0
    vals = np.exp(sign * x)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples)) / mean
    return OracleValue(f"entropic_gaussian_{direction}",
                       sign * math.log(mean), se)


def null_measure_oracle() -> OracleValue:
    """Every jump functional of the zero density vanishes."""
    return OracleValue("null_measure", 0.0, 0.0)
