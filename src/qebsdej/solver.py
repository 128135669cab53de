"""Forward simulation and regression Monte Carlo solves of jump BSDEs.

The backward equation is discretized on a uniform grid with conditional
expectations estimated by least squares on polynomial features of the forward
state.  Each step regresses, against the time-``t_k`` features,

* the next value itself (drift target),
* the next value times the scaled Brownian increment (diffusion loading), and
* the next value times each live node's centered jump count, normalized by
  the node intensity (jump loading, one regression target per live node),

then closes the step implicitly in ``y`` by Picard iteration.  The step is a
contraction whenever ``dt`` times the ``y``-Lipschitz bound of the generator
is below one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.random  # noqa: F401  (NumPy loads it lazily otherwise, on the first draw)

from .levy import JumpTable, LevyModel, MarkQuadrature, sample_jump_paths


class NonContractionError(RuntimeError):
    """dt times the y-Lipschitz bound reached 1; the implicit step diverges."""


class PicardError(RuntimeError):
    """The implicit step did not reach its tolerance in the allowed iterations."""


class EnsembleMismatchError(ValueError):
    """Arrays from different ensembles were combined."""


DYNAMICS = ("brownian", "brownian_jumps", "jumps_only", "deterministic")
JUMP_IMPACTS = ("unit", "mark")
CLIP_SIGMAS = 4.0            # see FeatureMap
QR_ROWS = 8192               # see Regression
MIN_EXPECTED_JUMPS = 20.0    # see PathEnsemble.live


@dataclass
class PathEnsemble:
    """Seeded Monte Carlo paths of the driving noise and forward state.

    The grid is uniform: ``time_grid[k] = k dt`` up to ``t_end``.  The jump
    measure is time-homogeneous: every step weighs the nodes by the node
    intensity ``quad.weights``, so the :attr:`live` nodes, the only ones on
    which a solve regresses a jump loading, are the same on every step.
    ``dw`` and ``state`` are stored step-major (column-major), as are the
    solution and decomposition fields, so one step's column is one block.

    The object is its own identity: solutions hold the ensemble they were
    regressed on, and :func:`same_ensemble` refuses to combine results from
    different ensembles, whatever inputs the ensembles share.  It also owns
    the factor of each step's design, so that every regression on one step's
    state (see :meth:`regression`) factorizes that design once.
    """

    time_grid: np.ndarray            # (K+1,)
    dt: float
    dw: np.ndarray                   # (n_paths, K)
    jumps: JumpTable
    state: np.ndarray                # (n_paths, K+1)
    model: LevyModel
    quad: MarkQuadrature
    # (k, degree) -> Regression.factor, filled on first use; valid because
    # nothing writes `state` after simulate_forward, and a copy made with
    # dataclasses.replace starts empty
    _factors: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def n_paths(self) -> int:
        return self.state.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dw.shape[1]

    @property
    def live(self) -> np.ndarray:
        """Mask of the live nodes, shape (Q,): those expected to see at least
        ``MIN_EXPECTED_JUMPS`` jumps across the ensemble in one step.  A dead
        node's loading is pinned at zero (its intensity-weighted contribution
        is below the Monte Carlo resolution), so solutions store the loading
        on the live nodes only."""
        return self.quad.weights * self.dt * self.n_paths >= MIN_EXPECTED_JUMPS

    @property
    def live_intensity(self) -> np.ndarray:
        """The node intensity on the live nodes, shape (L,)."""
        return self.quad.weights[self.live]

    def check_step(self, k: int) -> None:
        """Refuse a step outside ``range(n_steps)``, a negative one included."""
        if not 0 <= k < self.n_steps:
            raise IndexError(f"step {k} is outside range({self.n_steps})")

    def regression(self, k: int, degree: int) -> "Regression":
        """Least squares on the degree-``degree`` features of step ``k``'s
        state.  The feature map and the factor are computed on the first call
        for ``(k, degree)`` and reused by every later one, which only rebuilds
        the design."""
        reg = Regression(self.state[:, k], degree, self._factors.get((k, degree)))
        self._factors[k, degree] = reg.factor
        return reg


def simulate_forward(model: LevyModel, quad: MarkQuadrature, dynamics: str,
                     t_end: float, k_steps: int, n_paths: int, seed: int,
                     x0: float, jump_impact: str) -> PathEnsemble:
    """Simulate Brownian increments, the jump stream, and the forward state
    on ``k_steps`` equal steps of ``[0, t_end]``.

    The default state is the Brownian path plus compensated jump impacts.
    Brownian and jump streams use independent child seeds of ``seed`` so the
    Brownian noise is unchanged when the quadrature (hence the jump stream)
    changes.
    """
    if dynamics not in DYNAMICS:
        raise ValueError(f"unknown dynamics '{dynamics}'; choose from {DYNAMICS}")
    if jump_impact not in JUMP_IMPACTS:
        raise ValueError(f"unknown jump_impact '{jump_impact}'; choose from {JUMP_IMPACTS}")
    if not t_end > 0 or k_steps < 1:
        raise ValueError("need t_end > 0 and at least one step")
    if n_paths < 1:
        raise ValueError("need at least one path")
    time_grid = np.linspace(0.0, t_end, k_steps + 1)
    dt = t_end / k_steps
    ss = np.random.SeedSequence(seed)
    child_w, child_j = ss.spawn(2)
    rng_w = np.random.Generator(np.random.Philox(child_w))
    # drawn path-major, which fixes which normal each seed gives each path
    # and step, and stored step-major
    dw = np.empty((n_paths, k_steps), order="F")
    np.multiply(rng_w.standard_normal((n_paths, k_steps)), math.sqrt(dt), out=dw)
    jumps = sample_jump_paths(quad.weights, k_steps, dt, n_paths,
                              int(child_j.generate_state(1)[0]))

    state = np.empty((n_paths, k_steps + 1), order="F")
    state[:, 0] = x0
    impact = quad.nodes if jump_impact == "mark" else np.ones(quad.n_nodes)
    use_w = dynamics in ("brownian", "brownian_jumps")
    use_j = dynamics in ("brownian_jumps", "jumps_only")
    for k in range(k_steps):
        inc = np.full(n_paths, dt if dynamics == "deterministic" else 0.0)
        if use_w:
            inc += dw[:, k]
        if use_j:
            inc += jumps.compensated_sum(k, impact, quad.weights, dt)
        state[:, k + 1] = state[:, k] + inc
    return PathEnsemble(time_grid, dt, dw, jumps, state, model, quad)


# ---------------------------------------------------------------------------
# regression machinery
# ---------------------------------------------------------------------------

@dataclass
class FeatureMap:
    """Scaled polynomial features of the forward state at one time step.

    The state is standardized and winsorized at ``CLIP_SIGMAS`` standard
    deviations before powers are taken, so the fitted conditional
    expectations extrapolate flat instead of polynomially in the far tails
    (cubic tails otherwise feed the exponential nonlinearities and blow the
    backward recursion up).  Columns with no cross-path variation
    (deterministic state) are dropped; the intercept always stays.
    """

    degree: int
    center: float
    scale: float
    keep: np.ndarray

    @staticmethod
    def fit(x: np.ndarray, degree: int) -> "FeatureMap":
        center = float(x.mean())
        spread = float(x.std())
        scale = spread if spread > 1e-12 else 1.0
        keep = np.ones(degree + 1, dtype=bool)
        if spread <= 1e-12:
            keep[1:] = False
        return FeatureMap(degree, center, scale, keep)

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """The (len(x), n_basis) design, built in one preallocated
        column-major block: column ``p`` is column ``p - 1`` times the clipped
        standardized state."""
        design = np.empty((x.shape[0], self.degree + 1), order="F")
        design[:, 0] = 1.0
        if self.degree:
            t = design[:, 1]
            np.subtract(x, self.center, out=t)
            t /= self.scale
            np.clip(t, -CLIP_SIGMAS, CLIP_SIGMAS, out=t)
            for p in range(2, self.degree + 1):
                np.multiply(design[:, p - 1], t, out=design[:, p])
        return design if self.keep.all() else design[:, self.keep]

    @property
    def n_basis(self) -> int:
        return int(self.keep.sum())


def _column_major_product(design: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``design @ coeffs`` written column-major: each target's (or node's)
    column is one contiguous block."""
    return np.matmul(design, coeffs,
                     out=np.empty(design.shape[:1] + coeffs.shape[1:], order="F"))


class Regression:
    """Least squares on the features of one time step's state.

    The n×p design ``X`` is reduced by a QR factorization to its p×p triangle
    ``R``, whose SVD ``R = W S V'`` gives the singular values and right
    singular vectors of ``X``.  Singular values at or below ``lstsq``'s
    default cut (``eps * max(n, p) * s_max``) are dropped, so a rank-deficient
    design gets the minimum-norm fit.  Only ``V S^-1`` (p × rank) is kept:
    the pseudo-inverse is ``X^+ = V S^-2 V' X'``, so every target regressed
    on the state is fitted from the design and that factor, and no n×p
    orthogonal factor is formed.

    The QR reduction and :meth:`robust_variances` run over row blocks of
    ``QR_ROWS`` rows, so neither of them copies the whole design:
    at 100k paths the two n×p copies a whole-design QR makes were handed
    back to the OS and faulted in again on every step.  The reduction is a
    TSQR: each block's triangle, stacked, is reduced by one more QR, which is
    backward stable like a QR of the whole design.  In a sweep of 50
    factorizations at 100k paths and p = 4, blocks of 4096 to 32768 rows ran
    within 15% of 8192, and blocks of 65536 rows, whose copies are again
    handed back to the OS, as slowly as the whole design.

    ``factor`` is the ``(feature_map, V S^-1, gram_condition)`` triple, the
    ``factor`` attribute of an earlier regression on the same ``x`` and
    ``degree``; it is reused instead of being computed again.
    """

    def __init__(self, x: np.ndarray, degree: int, factor: tuple | None = None):
        if factor is None:
            feature_map = FeatureMap.fit(x, degree)
            self.design = feature_map.matrix(x)
            triangles = [np.linalg.qr(block, mode="r") for _, block in self._blocks()]
            _, s, vt = np.linalg.svd(np.linalg.qr(np.concatenate(triangles), mode="r"))
            keep = s > np.finfo(float).eps * max(self.design.shape) * s[0]
            # V S^-1 and the condition number of the Gram matrix design.T @ design
            factor = (feature_map, vt[keep].T / s[keep], float(s[0] / s[-1]) ** 2)
        else:
            self.design = factor[0].matrix(x)
        self.factor = factor
        self.feature_map, self._v_scaled, self.gram_condition = factor

    @property
    def n_basis(self) -> int:
        return self.design.shape[1]

    def _blocks(self):
        """``(rows, design[rows])`` for consecutive slices of ``QR_ROWS``
        rows; the last block holds the remainder, possibly fewer than p."""
        for start in range(0, self.design.shape[0], QR_ROWS):
            rows = slice(start, start + QR_ROWS)
            yield rows, self.design[rows]

    def fit(self, targets: np.ndarray):
        """Coefficients and fitted values for a target vector or matrix; a
        matrix of fitted values is column-major.  ``design.T @ targets`` is
        summed over the row blocks in block order, so its bits do not depend
        on the BLAS thread count."""
        v = self._v_scaled
        moments = sum(block.T @ targets[rows] for rows, block in self._blocks())
        coeffs = v @ (v.T @ moments)
        return coeffs, _column_major_product(self.design, coeffs)

    def robust_variances(self, resid: np.ndarray) -> np.ndarray:
        """Heteroscedasticity-robust (HC0) coefficient variances of a fit with
        residuals ``resid``: the diagonal of ``B diag(resid^2) B'`` with
        ``B = X^+ = A X'`` and ``A = V S^-2 V'``, that is ``(resid^2) @ (X A)^2``,
        accumulated over row blocks so that no (p × n) array is formed.  Every
        block's ``X A`` is written into one buffer, so no two are held at once."""
        a = self._v_scaled @ self._v_scaled.T
        buf = np.empty((min(self.design.shape[0], QR_ROWS), self.n_basis))
        variances = np.zeros(self.n_basis)
        for rows, block in self._blocks():
            xa = np.matmul(block, a, out=buf[:block.shape[0]])
            xa *= xa
            variances += np.square(resid[rows]) @ xa
        return variances


# ---------------------------------------------------------------------------
# solution containers
# ---------------------------------------------------------------------------

@dataclass
class BsdejSolution:
    """Discrete solution fields plus regression diagnostics.

    ``y`` has shape (n_paths, K+1) with the terminal column equal to the
    terminal payoff exactly.  ``z`` has shape (n_paths, K).  The jump
    loadings are stored as regression coefficients per step on the ensemble's
    L live nodes, ``u_coeffs[k]`` of shape (n_basis, L), and re-evaluated on
    demand through :meth:`u_values`; the loading of a dead node is zero.
    ``driver_values`` are the generator values actually used by the backward
    step, so downstream decompositions reproduce the recursion identically on
    ``ensemble``.
    """

    y: np.ndarray
    z: np.ndarray
    u_coeffs: list
    feature_maps: list
    terminal: np.ndarray
    driver_values: np.ndarray
    resid_var: np.ndarray
    cond_numbers: np.ndarray
    ensemble: PathEnsemble
    picard_iterations: np.ndarray
    u_clip: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.y.shape[0]

    @property
    def n_steps(self) -> int:
        return self.y.shape[1] - 1

    @property
    def y0(self) -> float:
        return float(self.y[:, 0].mean())

    def u_values(self, k: int, rows=None) -> np.ndarray:
        """Jump loading field at step ``k`` on the live nodes, shape
        (n_paths, L), or only on the paths that the index ``rows`` selects;
        column-major, the layout that :func:`qebsdej.levy.nu_dot` reads
        fastest."""
        x = self.ensemble.state[:, k]
        design = self.feature_maps[k].matrix(x if rows is None else x[rows])
        u = _column_major_product(design, self.u_coeffs[k])
        return np.clip(u, -self.u_clip[k], self.u_clip[k], out=u)

    @functools.cached_property
    def _max_basis(self) -> int:
        return max(fm.n_basis for fm in self.feature_maps)

    def regression_se(self, k: int) -> float:
        """Propagated regression standard error of the time-``t_k`` values:
        per-step projection noise ``resid_var * n_basis / n_paths`` summed
        over the remaining steps, with the largest basis of any step."""
        var = float(self.resid_var[k:].sum()) * self._max_basis / self.n_paths
        return math.sqrt(max(var, 0.0))

    @property
    def y0_se(self) -> float:
        return self.regression_se(0)

    def s2_norm(self) -> float:
        """Monte Carlo estimate of ``E[sup_t |Y_t|^2]``, from a running
        per-path maximum of ``|y|`` taken one step at a time."""
        top = np.abs(self.y[:, 0])
        for k in range(1, self.n_steps + 1):
            np.maximum(top, np.abs(self.y[:, k]), out=top)
        return float((top ** 2).mean())


def same_ensemble(*solutions: BsdejSolution) -> PathEnsemble:
    """The ensemble every solution was computed on; a mix is refused."""
    ensemble = solutions[0].ensemble
    if any(s.ensemble is not ensemble for s in solutions):
        raise EnsembleMismatchError("solutions were computed on different ensembles")
    return ensemble


def _jump_targets(jumps: JumpTable, k: int, lam_dt: np.ndarray, live: np.ndarray,
                  centered: np.ndarray, out: np.ndarray) -> None:
    """Write the jump-loading targets of interval ``k`` into ``out``, one
    column per live node: ``(c / (lam_i dt) - 1) * centered`` on a path with
    ``c`` jumps at node ``i``.  A cell without a jump holds exactly
    ``-centered``, so every cell gets that first and only the cells with a
    jump (see :meth:`JumpTable.cells_for_interval`) are written again."""
    np.negative(centered[:, None], out=out)
    paths, nodes, counts = jumps.cells_for_interval(k)
    hit = live[nodes]
    paths, nodes = paths[hit], nodes[hit]
    column = np.cumsum(live) - 1
    out[paths, column[nodes]] = (counts[hit] / lam_dt[nodes] - 1.0) * centered[paths]


def solve_lipschitz(driver, terminal_fn: Callable, basis_degree: int,
                    picard_max: int, picard_tol: float) -> BsdejSolution:
    """Backward regression solve for a generator with a Lipschitz ``y`` bound.

    ``driver`` is a bound or regularized driver, solved on its ``ensemble``:
    its ``evaluate(k, y, z, u_values)`` runs over paths and its ``lip_y``
    sets the contraction guard.
    Jump loadings are only regressed on the ensemble's live nodes (see
    :attr:`PathEnsemble.live`); the generator reads them on every node, with
    the loading of a dead node pinned at zero.
    """
    ensemble = driver.ensemble
    dt = ensemble.dt
    lip_y = driver.lip_y
    if dt * lip_y >= 1.0:
        raise NonContractionError(
            f"dt * Lipschitz(y) = {dt * lip_y:.3g} >= 1; refine the grid")
    n, k_steps = ensemble.n_paths, ensemble.n_steps
    q_nodes = ensemble.quad.n_nodes

    xi = np.asarray(terminal_fn(ensemble.state[:, -1]), dtype=float)
    y = np.empty((n, k_steps + 1), order="F")
    z = np.zeros((n, k_steps), order="F")
    y[:, -1] = xi
    u_coeffs, fmaps = [None] * k_steps, [None] * k_steps
    fvals = np.zeros((n, k_steps), order="F")
    resid_var = np.zeros(k_steps)
    conds = np.zeros(k_steps)
    picard_counts = np.zeros(k_steps, dtype=int)
    u_clip = np.zeros(k_steps)
    live = ensemble.live
    live_nodes = np.flatnonzero(live)
    lam_dt = ensemble.quad.weights * dt

    for k in range(k_steps - 1, -1, -1):
        reg = ensemble.regression(k, basis_degree)
        conds[k] = reg.gram_condition
        y_next = y[:, k + 1]

        _, ey_raw = reg.fit(y_next)
        # center the covariation targets with the fitted conditional mean: a
        # time-t_k measurable control variate that leaves the estimands
        # unchanged but shrinks the target variance from the scale of Y^2 to
        # the one-step conditional variance
        centered = y_next - ey_raw
        targets = np.empty((n, 1 + live_nodes.size), order="F")
        np.multiply(centered, ensemble.dw[:, k], out=targets[:, 0])
        targets[:, 0] /= dt
        _jump_targets(ensemble.jumps, k, lam_dt, live, centered, out=targets[:, 1:])
        coeffs, fitted = reg.fit(targets)

        # a conditional expectation stays inside its target's range, and a
        # jump loading cannot exceed the oscillation of the next-step value;
        # clamping accordingly keeps regression tail noise out of the
        # exponential nonlinearity
        y_lo, y_hi = float(y_next.min()), float(y_next.max())
        osc = y_hi - y_lo
        ey = np.clip(ey_raw, y_lo, y_hi)
        z[:, k] = fitted[:, 0]
        u_now = np.zeros((n, q_nodes), order="F")
        for col, node in enumerate(live_nodes, start=1):
            np.clip(fitted[:, col], -osc, osc, out=u_now[:, node])
        u_coeffs[k], fmaps[k] = coeffs[:, 1:].copy(), reg.feature_map
        u_clip[k] = osc
        resid_var[k] = float(np.mean((y_next - ey) ** 2))

        y_cur = ey.copy()
        for it in range(picard_max):
            f_now = np.asarray(driver.evaluate(k, y_cur, z[:, k], u_now), dtype=float)
            y_prev, y_cur = y_cur, ey + f_now * dt
            picard_counts[k] = it + 1
            # a generator that ignores y closes the implicit step in one pass
            if lip_y == 0.0 or float(np.max(np.abs(y_cur - y_prev))) < picard_tol:
                break
        else:
            raise PicardError(f"Picard iteration did not reach {picard_tol:g} in "
                               f"{picard_max} steps at t = {ensemble.time_grid[k]:.4g}")
        fvals[:, k] = f_now
        y[:, k] = y_cur

    return BsdejSolution(y, z, u_coeffs, fmaps, xi, fvals, resid_var, conds,
                         ensemble, picard_counts, u_clip)


# ---------------------------------------------------------------------------
# semimartingale decomposition of the discrete solution
# ---------------------------------------------------------------------------

@dataclass
class Decomposition:
    """Martingale part of the split ``Y_k = Y_0 - V_k + M_k`` of ``solution``,
    as per-step increments ``dm`` of shape (n_paths, K): the Brownian loading
    products ``z dw`` plus the compensated jump sums of the loadings.  ``dV`` is
    ``solution.driver_values * dt``; the residue ``diff(y) + dV`` makes the
    identity exact and differs from ``dm`` by the regression residual
    martingale."""

    dm: np.ndarray
    solution: BsdejSolution


def decompose(solution: BsdejSolution) -> Decomposition:
    """Assemble the estimated martingale increments of a solve."""
    ensemble = solution.ensemble
    live, wz = ensemble.live, ensemble.live_intensity
    dm = solution.z * ensemble.dw
    for k in range(solution.n_steps):
        dm[:, k] += ensemble.jumps.compensated_sum(k, solution.u_values(k), wz,
                                                   ensemble.dt, nodes=live)
    return Decomposition(dm, solution)
