"""Triple-indexed approximation ladder with shared randomness.

One master ensemble is simulated on the quadrature of
:func:`ladder_quadrature`, at the finest truncation level in the schedule;
every triple ``(n, m, kappa)`` is then solved on that ensemble with
the generator regularized at ``(n, m)`` and its jump integral restricted to
marks ``|e| >= 1/kappa``.  Keeping the noise, the filtration, and the terminal
payoff fixed across triples makes the comparison-theorem ordering a pathwise
statement and lets stability gaps be measured pathwise as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .drivers import Driver, DriverView, StructureParams, regularize
from .levy import KAPPA_MAX, LevyModel, MarkQuadrature, build_quadrature, nu_norm
from .risk import AprioriReport, apriori_bound_check
from .semimartingale import (FRACTION_TOL, check_q_structure, pairwise_gap,
                             stability_diagnostics, submartingale_test)
from .solver import (BsdejSolution, Decomposition, PathEnsemble, decompose,
                     same_ensemble, solve_lipschitz)


def link_direction(changed, nonnegative_base: bool) -> int | None:
    """Predicted ordering sign of a schedule link, or None when mixed index
    moves leave the comparison undirected (possible only for generators with
    a genuine negative part, whose ``m`` index is not inert)."""
    changed = set(changed)
    if not changed or changed == {"m"}:
        return -1 if changed else +1
    if "m" not in changed or nonnegative_base:
        return +1
    return None


@dataclass(frozen=True)
class Schedule:
    """Ordered regularization triples with component-wise monotone indices."""

    triples: tuple

    def __post_init__(self):
        triples = tuple(tuple(int(v) for v in t) for t in self.triples)
        object.__setattr__(self, "triples", triples)
        if not triples:
            raise ValueError("schedule must contain at least one triple")
        for t in triples:
            if len(t) != 3 or min(t) < 1 or t[2] > KAPPA_MAX:
                raise ValueError("each triple must be three indices >= 1, "
                                 f"with kappa <= {KAPPA_MAX:g}")
        arr = np.asarray(triples)
        if np.any(np.diff(arr, axis=0) < 0):
            raise ValueError("schedule indices must be nondecreasing")

    @property
    def kappa_max(self) -> float:
        return float(max(t[2] for t in self.triples))

    def links(self, nonnegative_base: bool) -> list[dict]:
        """Adjacent comparability links: link ``lo`` joins triples ``lo`` and
        ``hi = lo + 1`` and carries the ``direction`` that
        :func:`link_direction` gives the indices changed between them."""
        out = []
        for i in range(len(self.triples) - 1):
            a, b = self.triples[i], self.triples[i + 1]
            changed = tuple(name for name, x, y in
                            zip(("n", "m", "kappa"), a, b) if x != y)
            out.append(dict(lo=i, hi=i + 1,
                            direction=link_direction(changed, nonnegative_base)))
        return out


@dataclass
class TripleRecord:
    """Per-triple ladder diagnostics; one row of the convergence report.
    ``dec`` is the triple's decomposition (its solve and martingale
    increments ``dm``), None when the triple failed.  ``corridor`` and
    ``submartingale`` are the fractions that :func:`audit_solution` flags.
    ``envelope_active`` is the fraction of the solve's generator values that
    the ``(n, m)`` envelope moved off the driver's (see
    :attr:`qebsdej.drivers.RegularizedDriver.envelope_active`)."""

    n: int
    m: int
    kappa: float
    y0: float
    y0_se: float
    jump_mass: float
    dec: Decomposition | None = None
    corridor: float = math.nan
    apriori: AprioriReport | None = None
    submartingale: float = math.nan
    a1: float = math.nan
    a2: float = math.nan
    chebyshev_bound: float = math.nan
    region_fraction: float = math.nan
    h1_gap_prev: float = math.nan
    vstar_gap_prev: float = math.nan
    h1_gap_proxy: float = math.nan
    vstar_gap_proxy: float = math.nan
    s2_norm: float = math.nan
    error: str = ""
    envelope_active: float = math.nan

    @property
    def solution(self) -> BsdejSolution | None:
        return None if self.dec is None else self.dec.solution

    def row(self) -> dict:
        return dict(
            n=self.n, m=self.m, kappa=self.kappa, y0=self.y0, y0_se=self.y0_se,
            jump_mass=self.jump_mass,
            corridor_violation=self.corridor,
            apriori_lhs=self.apriori.lhs if self.apriori else math.nan,
            apriori_rhs=self.apriori.rhs if self.apriori else math.nan,
            apriori_ok=int(self.apriori.ok) if self.apriori else 0,
            submartingale_ok=int(self.submartingale < FRACTION_TOL),
            a1=self.a1, a2=self.a2, chebyshev_bound=self.chebyshev_bound,
            region_fraction=self.region_fraction,
            h1_gap_prev=self.h1_gap_prev, vstar_gap_prev=self.vstar_gap_prev,
            h1_gap_proxy=self.h1_gap_proxy, vstar_gap_proxy=self.vstar_gap_proxy,
            s2_norm=self.s2_norm,
            envelope_active=self.envelope_active, error=self.error)


@dataclass
class ConvergenceReport:
    records: list[TripleRecord]
    y0_max_drop: float      # largest y0 drop between solved neighbours, in SEs
    comparison_violations: dict[int, float]     # by schedule link index
    gaps_max_rise: float        # largest rise between compared proxy gaps
    stability_max_rise: float   # largest rise of the H1 distance to the proxy

    def rows(self) -> list[dict]:
        return [r.row() for r in self.records]


@dataclass
class SchemeResult:
    report: ConvergenceReport


def _max_rise(values) -> float:
    """Largest increase between consecutive values; -inf without a pair."""
    rises = np.diff(np.asarray(values, dtype=float))
    return float(rises.max()) if rises.size else -math.inf


def ladder_quadrature(model: LevyModel, schedule: Schedule,
                      q_nodes: int) -> MarkQuadrature:
    """Master quadrature of a ladder: truncated at the schedule's largest
    ``kappa``, with every scheduled cut ``1/kappa`` forced into the cell
    edges so that each triple's truncation restricts exactly."""
    kappas = sorted({float(t[2]) for t in schedule.triples})
    return build_quadrature(model, schedule.kappa_max, q_nodes,
                            cut_levels=[1.0 / k for k in kappas])


def monotonicity_check(solutions: Sequence[BsdejSolution],
                       links: Sequence[dict]) -> dict[int, float]:
    """Fraction of (path, time) cells violating the comparison ordering on
    each link, beyond three combined regression standard errors, keyed by the
    link's schedule index ``lo``.  Each link carries its ``direction`` (see
    :meth:`Schedule.links`); links whose solves do not share an ensemble are
    refused.
    """
    out = {}
    for link in links:
        lo, hi = solutions[link["lo"]], solutions[link["hi"]]
        same_ensemble(lo, hi)
        k_steps = lo.n_steps
        viol = 0
        total = 0
        for k in range(k_steps + 1):
            se = 3.0 * math.hypot(lo.regression_se(min(k, k_steps - 1)),
                                  hi.regression_se(min(k, k_steps - 1)))
            gap = (hi.y[:, k] - lo.y[:, k]) * link["direction"]
            viol += int((gap < -se).sum())
            total += gap.size
        out[link["lo"]] = viol / total
    return out


@dataclass
class DriverGapReport:
    a1: float
    a2: float
    chebyshev_bound: float
    region_fraction: float


def driver_l1_gap(sol: BsdejSolution, sol_proxy: BsdejSolution,
                  c_split: float) -> DriverGapReport:
    """Bounded/unbounded split of the time-integrated generator gap.

    ``a1`` integrates ``|f_triple - f_proxy|`` where ``|Z| + |U|_nu`` stays
    below ``c_split``, ``a2`` on the complement; both use the generator
    values stored by the solves.  The report also carries the Chebyshev
    bound ``(2 / c^2) E[|Z|^2 + |U|^2]`` for the unbounded region's mass.
    """
    ensemble = same_ensemble(sol, sol_proxy)
    if c_split <= 0:
        raise ValueError("region split must be positive")
    n, k_steps = sol.n_paths, sol.n_steps
    dt, live_wz = ensemble.dt, ensemble.live_intensity
    a1 = a2 = 0.0
    norm2_sum = np.zeros(n)
    region_hits = 0.0
    for k in range(k_steps):
        u_norm = nu_norm(sol.u_values(k), live_wz)
        size = np.abs(sol.z[:, k]) + u_norm
        gap = np.abs(sol.driver_values[:, k] - sol_proxy.driver_values[:, k])
        inside = size <= c_split
        a1 += float((gap * inside).sum()) * dt
        a2 += float((gap * (~inside)).sum()) * dt
        region_hits += float((~inside).sum())
        norm2_sum += (sol.z[:, k] ** 2 + u_norm ** 2) * dt
    a1 /= n
    a2 /= n
    horizon = float(ensemble.time_grid[-1])
    cheb = 2.0 / c_split ** 2 * float(norm2_sum.mean()) / horizon
    region_fraction = region_hits / max(n * k_steps, 1)
    return DriverGapReport(a1, a2, cheb, region_fraction)


def default_c_split(sol: BsdejSolution) -> float:
    """Five times the sample 90th percentile of ``|Z| + |U|_nu``, or 1 where
    the square of that underflows to zero (for a solve without martingale
    part, say), since the Chebyshev bound divides by it.  The sizes of all
    steps fill one buffer, which the percentile then partitions in place."""
    n, live_wz = sol.n_paths, sol.ensemble.live_intensity
    sizes = np.empty(n * sol.n_steps)
    for k in range(sol.n_steps):
        size = sizes[k * n:(k + 1) * n]
        np.abs(sol.z[:, k], out=size)
        size += nu_norm(sol.u_values(k), live_wz)
    split = 5.0 * float(np.percentile(sizes, 90.0, overwrite_input=True))
    return split if split ** 2 > 0.0 else 1.0


def audit_solution(sol: BsdejSolution, params: StructureParams
                   ) -> tuple[float, AprioriReport, float]:
    """Corridor, a-priori bound and submartingale audits of one solve: the
    corridor's flagged fraction, the bound's report and the submartingale
    test's flagged fraction.

    The corridor allows three regression standard errors per step, the bound
    is checked at time zero, and the submartingale test compares a quarter
    and a half of the horizon.
    """
    k_steps = sol.n_steps
    tol = np.array([3.0 * sol.regression_se(k) for k in range(k_steps)])
    return (check_q_structure(sol, params, tol=tol[None, :]),
            apriori_bound_check(sol, params),
            submartingale_test(sol.y, params, sol.ensemble, k_steps // 4, k_steps // 2))


def run_triple_scheme(base: Driver, terminal_fn: Callable,
                      ensemble: PathEnsemble, schedule: Schedule,
                      basis_degree: int, picard_max: int,
                      picard_tol: float) -> SchemeResult:
    """Run the full approximation ladder on one shared ensemble.

    The ensemble's quadrature must come from :func:`ladder_quadrature` for
    ``schedule``.  Each triple is regularized, solved with the given solver
    settings, decomposed, and audited.  A triple whose solve or audit fails
    is recorded with its error message rather than aborting the ladder.
    """
    quad = ensemble.quad
    view = DriverView(base, ensemble)

    records: list[TripleRecord] = []
    for (n_idx, m_idx, kappa) in schedule.triples:
        node_idx = quad.restrict_indices(float(kappa))
        record = TripleRecord(n_idx, m_idx, float(kappa), math.nan, math.nan,
                              float(quad.weights[node_idx].sum()))
        records.append(record)
        try:
            reg = regularize(view, n_idx, m_idx, node_idx)
            dec = decompose(solve_lipschitz(reg, terminal_fn, basis_degree,
                                            picard_max, picard_tol))
            audits = audit_solution(dec.solution, base.params)
        except Exception as exc:  # a failed triple is data, not a crash
            record.error = f"{type(exc).__name__}: {exc}"
            continue
        record.dec, record.envelope_active = dec, reg.envelope_active
        sol = dec.solution
        record.y0, record.y0_se, record.s2_norm = sol.y0, sol.y0_se, sol.s2_norm()
        record.corridor, record.apriori, record.submartingale = audits

    solved = [r for r in records if r.dec is not None]
    if solved:
        proxy = solved[-1].solution
        c_split = default_c_split(proxy)
        for rec in solved:
            gap = driver_l1_gap(rec.solution, proxy, c_split)
            rec.a1, rec.a2 = gap.a1, gap.a2
            rec.chebyshev_bound = gap.chebyshev_bound
            rec.region_fraction = gap.region_fraction
        gaps = [r.a1 + r.a2 for r in solved]
        for rec, prev in zip(solved, stability_diagnostics([r.solution for r in solved])):
            rec.h1_gap_prev, rec.vstar_gap_prev = prev
            # the proxy's distance to itself is exactly zero
            rec.h1_gap_proxy, rec.vstar_gap_proxy = (
                pairwise_gap(rec.solution, proxy) if rec.solution is not proxy
                else (0.0, 0.0))
        # a link whose mixed index moves leave the ordering undirected (see
        # link_direction), or with a failed end, is not compared
        links = [l for l in schedule.links(base.nonnegative)
                 if l["direction"] is not None
                 and records[l["lo"]].dec is not None and records[l["hi"]].dec is not None]
        comparison = monotonicity_check([r.solution for r in records], links)
        y0s = np.array([r.y0 for r in solved])
        ses = np.array([r.y0_se for r in solved])
        # an exact tie is a drop of zero standard errors, even at zero SE
        with np.errstate(divide="ignore"):
            drops = np.divide(y0s[:-1] - y0s[1:], np.hypot(ses[:-1], ses[1:]),
                              out=np.zeros(y0s.size - 1), where=y0s[:-1] != y0s[1:])
        y0_max_drop = float(drops.max()) if drops.size else -math.inf
        # the proxy's own gap is zero by construction and stays out
        gaps_max_rise = _max_rise(gaps[:-1])
        # stability measured against the limit proxy (the H1 distance to the
        # last triple shrinks along the ladder; consecutive increments need
        # not, since truncation mass increments can grow with kappa)
        stability_max_rise = _max_rise([r.h1_gap_proxy for r in solved[:-1]
                                        if not math.isnan(r.h1_gap_proxy)])
    else:
        comparison = {}
        y0_max_drop = gaps_max_rise = stability_max_rise = math.nan
    report = ConvergenceReport(records, y0_max_drop, comparison,
                               gaps_max_rise, stability_max_rise)
    return SchemeResult(report)
