"""Quadratic-exponential generators, structure bounds, and Lipschitz envelopes.

A generator splits as ``f = f_hat(y, z) + int g(u(e)) nu(de)``, the node
intensity ``w_i`` weighing the jump part, and is pinned between the corridor
bounds built from the jump penalty :func:`qebsdej.levy.j_functional`.  Regularization replaces each
signed part of ``f`` with its Lipschitz lower envelope over a finite candidate
grid, yielding generators that are globally Lipschitz in ``(y, z)``, monotone
in the regularization indices, and still inside the corridor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.random  # noqa: F401  (NumPy loads it lazily otherwise, on the first draw)

from .levy import (ExponentOverflowError, UnknownPresetError, capped_expm1, exp_excess,
                   j_functional, nu_dot)
from .solver import PathEnsemble


@dataclass(frozen=True)
class StructureParams:
    """Corridor coefficients: quadratic scale ``delta > 0``, running costs ``l, c >= 0``."""

    delta: float
    l: float
    c: float

    def __post_init__(self):
        if not (self.delta > 0 and self.l >= 0 and self.c >= 0):
            raise ValueError("need delta > 0 and running costs l, c >= 0")


@dataclass(frozen=True)
class Driver:
    """Generator with Becherer-type split and structure metadata.

    ``f_hat(y, z)`` takes ``y`` and ``z`` of one shape and applies elementwise;
    ``g(v)`` applies pointwise to mark values.  ``nonnegative`` marks
    generators known to satisfy ``f >= 0`` everywhere (their negative part is
    identically zero), which unlocks a fast separable envelope; that envelope
    also needs ``g`` convex, as it is for every preset that sets the
    flag (``canonical`` and ``zero``), and refuses a ``g`` that is not.  ``lip_y`` is a declared Lipschitz
    constant of ``f`` in ``y``, zero when ``f`` ignores ``y``; ``lip_yz`` is
    one of ``f_hat`` in ``(y, z)`` when finite.

    The declared slopes let that envelope skip the rows where it provably
    equals the driver: ``g_and_slope(v)`` returns the pair ``(g(v), g'(v))``
    pointwise, as two new arrays, its first with the bits of ``g(v)``; and
    ``z_slope(z)`` is ``|d f_hat / dz|`` pointwise.  ``None`` declares no
    slope, and then the envelope is evaluated on every row.
    """

    name: str
    f_hat: Callable
    g: Callable
    params: StructureParams
    nonnegative: bool = False
    lip_y: float = math.inf
    lip_yz: float = math.inf
    g_lip_factor: float = math.inf  # sup |g'| over the working mark-value range
    g_and_slope: Callable | None = None
    z_slope: Callable | None = None

    @property
    def depends_on_y(self) -> bool:
        return self.lip_y > 0

    def jump_part(self, u, wz: np.ndarray) -> np.ndarray:
        """``sum_i wz_i g(u_i)`` for the node intensity ``wz``; zero, without
        evaluating ``g``, when no node carries intensity."""
        u = np.asarray(u, dtype=float)
        if not np.any(wz > 0):
            return np.zeros(u.shape[:-1])
        gv = self.g(u)
        if not np.all(np.isfinite(gv)):
            raise ExponentOverflowError("jump integrand overflowed; reduce the field")
        return nu_dot(gv, wz)

    def evaluate(self, y, z, u, wz: np.ndarray) -> np.ndarray:
        f = self.f_hat(np.asarray(y, dtype=float), np.asarray(z, dtype=float))
        return f + self.jump_part(u, wz)


@dataclass
class DriverView:
    """A driver bound to an ensemble; step ``k`` weighs the nodes by the row
    ``ensemble.intensity[k]`` that drives the jumps and their compensator."""

    driver: Driver
    ensemble: PathEnsemble

    @property
    def lip_y(self) -> float:
        return self.driver.lip_y

    def evaluate(self, k: int, y, z, u) -> np.ndarray:
        return self.driver.evaluate(y, z, u, self.ensemble.intensity[k])


def _canonical(structure: StructureParams) -> Driver:
    """``(delta/2)|z|^2 + (1/delta) * j(delta u)``; nonnegative, no y term."""
    delta = structure.delta

    def f_hat(y, z):
        return 0.5 * delta * np.asarray(z) ** 2

    def g(v):
        return exp_excess(delta * np.asarray(v, dtype=float)) / delta

    def g_and_slope(v):
        # one exponential per cell gives both values, and g overwrites the
        # exponent's buffer (an array even for a 0-d v)
        v = np.asarray(v, dtype=float)
        x = np.multiply(delta, v, out=np.empty(v.shape))
        slope = capped_expm1(x)
        np.subtract(slope, x, out=x)
        x /= delta
        return x, slope

    def z_slope(z):
        return delta * np.abs(z)

    return Driver("canonical", f_hat, g, structure, nonnegative=True, lip_y=0.0,
                  g_and_slope=g_and_slope, z_slope=z_slope)


def _linear(structure: StructureParams, a: float = 0.0, b: float = 0.0,
            c_tilde: float = 0.0) -> Driver:
    """``a*y + b*z + c_tilde * int u dnu``; globally Lipschitz."""
    a, b, c_tilde = float(a), float(b), float(c_tilde)
    if abs(c_tilde) >= 1.0:
        raise ValueError("linear jump loading must satisfy |c_tilde| < 1")

    def f_hat(y, z):
        return a * np.asarray(y, dtype=float) + b * np.asarray(z)

    def g(v):
        return c_tilde * np.asarray(v, dtype=float)

    return Driver("linear", f_hat, g, structure, nonnegative=False, lip_y=abs(a),
                  lip_yz=max(abs(a), abs(b)), g_lip_factor=abs(c_tilde))


def _morlais(structure: StructureParams, beta: float = 0.0) -> Driver:
    """The canonical generator minus ``beta * |y|``."""
    beta = float(beta)
    base = _canonical(structure)

    def f_hat(y, z):
        return base.f_hat(y, z) - beta * np.abs(np.asarray(y, dtype=float))

    return Driver("morlais", f_hat, base.g, structure, nonnegative=False, lip_y=beta)


def _zero(structure: StructureParams) -> Driver:
    """The null generator."""
    def f_hat(y, z):
        return np.zeros(np.broadcast(np.asarray(y), np.asarray(z)).shape)

    def g(v):
        return np.zeros_like(np.asarray(v, dtype=float))

    def g_and_slope(v):
        return g(v), g(v)

    return Driver("zero", f_hat, g, structure, nonnegative=True, lip_y=0.0,
                  lip_yz=0.0, g_lip_factor=0.0, g_and_slope=g_and_slope, z_slope=g)


_DRIVER_FACTORIES = dict(canonical=_canonical, linear=_linear, morlais=_morlais, zero=_zero)


def make_driver(name: str, structure: StructureParams, **params) -> Driver:
    """Driver preset ``name`` with its keyword parameters; an unknown
    parameter raises ``TypeError``."""
    if name not in _DRIVER_FACTORIES:
        raise UnknownPresetError(f"unknown driver preset '{name}'; "
                                 f"choose from {sorted(_DRIVER_FACTORIES)}")
    return _DRIVER_FACTORIES[name](structure, **params)


# ---------------------------------------------------------------------------
# corridor bounds
# ---------------------------------------------------------------------------

def corridor_edge(y, z, u, params: StructureParams, wz: np.ndarray, upper: bool):
    """One edge of the corridor at a point and intensity ``wz``.

    The upper edge is ``q_upper = (1/delta) j(delta u) + (delta/2)|z|^2 + l +
    c |y|``, and the lower edge ``q_lower`` is its mirror with
    ``j(-delta u)``.  Every term of ``q_upper`` is nonnegative in floating
    point (``exp_excess >= 0``, ``l, c >= 0``), so ``q_lower <= 0 <=
    q_upper`` everywhere.
    """
    d = params.delta
    u = np.asarray(u, dtype=float)
    zz = 0.5 * d * np.asarray(z, dtype=float) ** 2
    base = params.l + params.c * np.abs(y)
    edge = j_functional(u if upper else -u, d, wz) / d + zz + base
    return edge if upper else -edge


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def _running_min_envelope(cand_vals: np.ndarray, cand_coord: np.ndarray,
                          points: np.ndarray, n: float) -> np.ndarray:
    """Exact 1-d envelope ``min_g [val_g + n |coord_g - x|]`` on a sorted
    candidate grid, via the two-sided running-minimum distance transform."""
    left_key = np.minimum.accumulate(cand_vals - n * cand_coord)
    right_key = np.minimum.accumulate((cand_vals + n * cand_coord)[::-1])[::-1]
    idx = np.searchsorted(cand_coord, points, side="right")
    out = np.full(points.shape, np.inf)
    has_left = idx > 0
    out[has_left] = left_key[idx[has_left] - 1] + n * points[has_left]
    has_right = idx < cand_coord.size
    np.minimum(out, np.where(has_right,
                             right_key[np.minimum(idx, cand_coord.size - 1)]
                             - n * points, np.inf), out=out)
    return out


# candidate grids of the regularized evaluation: y and z values, and the
# constant mark values v
YZ_GRID = np.linspace(-10.0, 10.0, 2001)
V_GRID = np.linspace(-4.0, 4.0, 161)


class NotRegularizableError(ValueError):
    """The selected regularization strategy cannot handle the driver shape."""


def _convex_on_grid(values: np.ndarray) -> bool:
    """Whether the second differences of ``values`` are nonnegative up to
    the rounding of the three values each one is taken from."""
    slack = 4.0 * np.finfo(float).eps * np.convolve(np.abs(values), [1.0, 2.0, 1.0], "valid")
    return bool(np.all(np.diff(values, 2) >= -slack))


@dataclass
class RegularizedDriver:
    """Lipschitz approximation ``f_+ envelope(n) - f_- envelope(m)`` on a
    truncated quadrature.

    Both signed parts are regularized with Lipschitz lower envelopes, which
    keeps the composite nondecreasing in ``n`` and the truncation level,
    nonincreasing in ``m``, and exactly inside the structure corridor at every
    probe.  Three evaluation strategies are selected at build time:

    ``nonnegative``
        the negative part is identically zero, ``f_hat`` ignores ``y``, and the
        envelope separates into a ``z`` part and a constant-field mark part
        (fast, used in solves); ``g`` must be convex, because the mark part
        finds its minimum over ``V_GRID`` by bisection, and an evaluation with
        jump mass refuses a ``g`` whose grid values are not.  Each part is
        evaluated only on the rows that its tangent certificate leaves open
        (see :meth:`_fhat_envelope` and :meth:`_jump_envelope`); a certified
        row returns the driver's own value, which is what the envelope
        returns there;
    ``lipschitz_exact``
        the driver is globally Lipschitz with constant at most ``min(n, m)``,
        so both envelopes reproduce the parts exactly;
    ``generic``
        joint minimization over a ``(y, z, v)`` product grid (probe scale).

    ``active[k]`` holds ``(cells, rows)`` of the last evaluation at step
    ``k``: how many of its rows the envelope moved off the driver's value.
    """

    view: DriverView              # base driver on the master ensemble
    n: float
    m: float
    node_idx: np.ndarray          # truncation subset into the master nodes
    strategy: str = field(init=False)
    active: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("regularization indices must be >= 1")
        self.node_idx = np.asarray(self.node_idx, dtype=int)
        if self.view.driver.nonnegative and not self.view.driver.depends_on_y:
            self.strategy = "nonnegative"
        elif (math.isfinite(self.view.driver.lip_yz)
              and min(self.n, self.m) >= self._lip_needed()):
            self.strategy = "lipschitz_exact"
        else:
            self.strategy = "generic"

    def _lip_needed(self) -> float:
        # mark part measured in the weighted-L2 norm via Cauchy-Schwarz, with
        # the intensity mass on the kept nodes, the same at every t
        mass = float(self.ensemble.quad.weights[self.node_idx].sum())
        g_lip = self.view.driver.g_lip_factor
        u_lip = g_lip * math.sqrt(mass) if math.isfinite(g_lip) else math.inf
        return max(self.view.driver.lip_yz, u_lip)

    @property
    def ensemble(self) -> PathEnsemble:
        return self.view.ensemble

    @property
    def lip_y(self) -> float:
        if not self.view.driver.depends_on_y:
            return 0.0
        if self.strategy == "lipschitz_exact":
            return self.view.driver.lip_y
        return self.n + self.m

    @property
    def envelope_active(self) -> float:
        """Fraction of the cells of the last evaluation at each step where
        the envelope moved the value off the driver's; NaN before any."""
        cells = sum(c for c, _ in self.active.values())
        rows = sum(r for _, r in self.active.values())
        return cells / rows if rows else math.nan

    # -- separable pieces (nonnegative strategy) ---------------------------

    def _fhat_envelope(self, y: np.ndarray, z: np.ndarray):
        """``(envelope, query)`` of ``f_hat`` in ``z``.

        A row with ``|d f_hat / dz| <= n`` is certified: the tangent of the
        convex ``f_hat`` there already lies above ``query - n |c - z|``, so the
        envelope is the query.  The running-minimum transform is taken on the
        other rows only; it is elementwise in the row, so their values keep
        the bits of a transform over every row.
        """
        driver = self.view.driver
        query = driver.f_hat(y, z)
        open_rows = (np.ones(query.shape, dtype=bool) if driver.z_slope is None
                     else ~(driver.z_slope(z) <= self.n))
        out = query.copy()
        if open_rows.any():
            cv = driver.f_hat(np.zeros_like(YZ_GRID), YZ_GRID)
            out[open_rows] = np.minimum(_running_min_envelope(
                cv, YZ_GRID, z[open_rows], self.n), query[open_rows])
        return out, query

    @functools.cached_property
    def _g_grid(self) -> np.ndarray:
        """``g`` on ``V_GRID``; refuses a ``g`` that is not convex there."""
        g_grid = self.view.driver.g(V_GRID)
        if not _convex_on_grid(g_grid):
            raise NotRegularizableError(f"driver {self.view.driver.name!r} has a jump "
                                        "integrand g that is not convex on V_GRID; the "
                                        "nonnegative strategy's bisection needs it convex")
        return g_grid

    def _jump_envelope(self, u_sub: np.ndarray, wz: np.ndarray):
        """``(envelope, query)`` of the mark integral: per row,
        ``min_v [mass g(v) + n |u - v|_nu]`` over ``V_GRID``, at most the
        value ``query`` at ``u`` itself.

        A row with ``sum_i wz_i g'(u_i)^2 <= n^2`` is certified: by convexity
        ``mass g(v) >= query + sum_i wz_i g'(u_i) (v - u_i)``, and by
        Cauchy-Schwarz in the nu-norm the last sum is at least
        ``-n |u - v|_nu``, so the envelope is the query.  The other rows are
        bisected.  With ``g`` convex the objective is convex in ``v``, so on
        the grid its forward difference is nondecreasing.  A bisection for
        the first grid index where it turns nonnegative takes
        ``ceil(log2 161) = 8`` rounds; the minimum is then read off that index
        and its two neighbours, 19 grid probes per row in all.
        """
        driver = self.view.driver
        if driver.g_and_slope is None:
            query = nu_dot(driver.g(u_sub), wz)
            open_rows = np.ones(query.shape, dtype=bool)
        else:
            g_vals, slope = driver.g_and_slope(u_sub)
            query = nu_dot(g_vals, wz)
            # a slope whose square overflows leaves its row open
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(slope, slope, out=slope)
                open_rows = ~(nu_dot(slope, wz) <= self.n ** 2)
            del g_vals, slope  # freed before the row sums below
        # the nu-sum of the field 1, in the order of the row sums
        mass = float(nu_dot(np.ones_like(wz), wz))
        out = query.copy()
        if mass <= 0:
            return out, query
        g_mass = self._g_grid * mass
        if not open_rows.any():
            return out, query
        u_open = u_sub[open_rows]
        s1 = nu_dot(u_open, wz)
        s2 = nu_dot(u_open * u_open, wz)

        def objective(k: np.ndarray) -> np.ndarray:
            v = V_GRID[k]
            return g_mass[k] + self.n * np.sqrt(np.clip(mass * v * v - 2.0 * v * s1
                                                        + s2, 0.0, None))

        last = V_GRID.size - 1
        lo = np.zeros(s1.shape, dtype=np.intp)
        hi = np.full(s1.shape, last)
        for _ in range(last.bit_length()):
            # a finished row (lo == hi) keeps its index whatever it probes
            mid = (lo + hi) // 2
            rising = objective(np.minimum(mid + 1, last)) >= objective(mid)
            hi = np.where(rising, mid, hi)
            lo = np.where(rising, lo, np.minimum(mid + 1, hi))
        best = objective(lo)
        np.minimum(best, objective(np.maximum(lo - 1, 0)), out=best)
        np.minimum(best, objective(np.minimum(lo + 1, last)), out=best)
        out[open_rows] = np.minimum(best, query[open_rows])
        return out, query

    # -- generic joint envelope (probe scale) ------------------------------

    def _generic_eval(self, y: np.ndarray, z: np.ndarray,
                      u_sub: np.ndarray, wz: np.ndarray):
        """``(envelope, query)`` on the joint grid."""
        mass = float(nu_dot(np.ones_like(wz), wz))
        yzg, vg = YZ_GRID[:: YZ_GRID.size // 25], V_GRID[:: V_GRID.size // 11]
        yy, zz, vv = (c.ravel() for c in np.meshgrid(yzg, yzg, vg, indexing="ij"))
        fv = self.view.driver.f_hat(yy, zz) + self.view.driver.g(vv) * mass
        fp_c, fm_c = np.maximum(fv, 0.0), np.maximum(-fv, 0.0)
        s1 = nu_dot(u_sub, wz)
        s2 = nu_dot(u_sub * u_sub, wz)
        fq = self.view.driver.evaluate(y, z, u_sub, wz)
        env_p = np.maximum(fq, 0.0)
        env_m = np.maximum(-fq, 0.0)
        for start in range(0, fv.size, 512):
            sl = slice(start, start + 512)
            d_yz = (np.abs(yy[sl][None, :] - y[:, None])
                    + np.abs(zz[sl][None, :] - z[:, None]))
            d_u = np.sqrt(np.clip(mass * vv[sl][None, :] ** 2
                                  - 2.0 * vv[sl][None, :] * s1[:, None]
                                  + s2[:, None], 0.0, None))
            dist = d_yz + d_u
            np.minimum(env_p, (fp_c[sl][None, :] + self.n * dist).min(axis=1), out=env_p)
            np.minimum(env_m, (fm_c[sl][None, :] + self.m * dist).min(axis=1), out=env_m)
        return env_p - env_m, fq

    # -----------------------------------------------------------------------

    def evaluate(self, k: int, y, z, u) -> np.ndarray:
        """Regularized generator at step ``k``; vectorized over rows.

        ``u`` carries values on the master node set and is truncated here.
        Records ``active[k]``.
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        z = np.atleast_1d(np.asarray(z, dtype=float))
        u_sub = np.atleast_2d(np.asarray(u, dtype=float)[..., self.node_idx])
        wz = self.ensemble.intensity[k][self.node_idx]
        if self.strategy == "lipschitz_exact":
            value = self.view.driver.evaluate(y, z, u_sub, wz)
            self.active[k] = (0, value.size)
        elif self.strategy == "nonnegative":
            f_env, f_query = self._fhat_envelope(y, z)
            j_env, j_query = self._jump_envelope(u_sub, wz)
            value = f_env + j_env
            # a row where neither part moved, certified rows among them,
            # returns the query exactly
            rows = (f_env < f_query) | (j_env < j_query)
            self.active[k] = (int(np.count_nonzero(value[rows] < f_query[rows]
                                                   + j_query[rows])), value.size)
        else:
            value, query = self._generic_eval(y, z, u_sub, wz)
            self.active[k] = (int(np.count_nonzero(value != query)), value.size)
        return value


def regularize(view: DriverView, n: float, m: float,
               node_idx: np.ndarray | None = None) -> RegularizedDriver:
    """Build the Lipschitz approximation of the bound driver ``view`` at
    indices ``(n, m)`` on its ensemble's quadrature, truncated to ``node_idx``."""
    if node_idx is None:
        node_idx = np.arange(view.ensemble.quad.n_nodes)
    return RegularizedDriver(view, float(n), float(m), node_idx)
