"""Jump-measure models, truncation quadratures, and compound-Poisson sampling.

A jump measure is specified by an intensity density ``ell(e)`` on the mark
space E = R \\ {0}, constant in time: the expected number of jumps with marks
in ``de`` during ``dt`` is ``ell(e) de dt``.  Infinite-activity densities blow
up near the origin; truncating to ``|e| >= 1/kappa`` leaves a finite measure
that can be simulated as a marked Poisson stream and integrated on a fixed
node grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import numpy.random  # noqa: F401  (NumPy loads it lazily otherwise, on the first draw)

# Overflow guard for exp-based jump functionals, in natural-log units.
EXP_CAP = 700.0

# Gauss-Kronrod G7/K15 rule on [-1, 1] (Piessens et al., QUADPACK, 1983): the
# 15 Kronrod nodes in increasing order, whose odd positions are the 7 Gauss nodes.
_GK_HALF = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                     0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                     0.207784955007898467600689403773245])
_GK_NODES = np.concatenate([-_GK_HALF, [0.0], _GK_HALF[::-1]])
_K15_HALF = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                      0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                      0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                      0.204432940075298892414161999234649])
_K15_WEIGHTS = np.concatenate([_K15_HALF, [0.209482141084727828012999174891714], _K15_HALF[::-1]])
_G7_HALF = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                     0.381830050505118944950369775488975])
_G7_WEIGHTS = np.concatenate([_G7_HALF, [0.417959183673469387755102040816327], _G7_HALF[::-1]])
# An integral stops at this many subintervals, met or not; its error target is
# max(epsabs, _EPSREL * |integral|), with epsabs _EPSABS or MASS_FLOOR.
_GK_LIMIT = 200
_EPSABS, _EPSREL = 1e-13, 1e-11
# Smallest mass that an integral split at a model's points resolves; below it
# the density's values are subnormal, and a Poisson mean this small draws no
# jump in any ensemble.
MASS_FLOOR = 1e-300


def _gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], edges: Sequence[float],
                   epsabs: float) -> float:
    """Globally adaptive G7/K15 integral of ``f`` from ``edges[0]`` to
    ``edges[-1]``, starting from the cells between consecutive edges.

    Each round evaluates ``f`` once, on the 15 nodes of every new cell, and
    takes ``|K15 - G7|`` as a cell's error.  While the errors sum to more
    than ``max(epsabs, 1e-11 |integral|)``, the cells of largest error are
    bisected until the rest hold at most half of that target.  The K15 sum
    over all cells is returned once the target is met or the cells number
    ``_GK_LIMIT``."""
    lo = hi = val = err = np.empty(0)
    new_lo = np.asarray(edges[:-1], dtype=float)
    new_hi = np.asarray(edges[1:], dtype=float)
    while True:
        half = 0.5 * (new_hi - new_lo)
        fx = f((new_lo + half)[:, None] + half[:, None] * _GK_NODES)
        k15 = half * (fx * _K15_WEIGHTS).sum(axis=1)
        g7 = half * (fx[:, 1::2] * _G7_WEIGHTS).sum(axis=1)
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        val, err = np.concatenate([val, k15]), np.concatenate([err, np.abs(k15 - g7)])
        total, total_err = float(val.sum()), float(err.sum())
        target = max(epsabs, _EPSREL * abs(total))
        if not math.isfinite(total) or total_err <= target or lo.size >= _GK_LIMIT:
            return total
        order = np.argsort(-err, kind="stable")
        n_split = min(int(np.searchsorted(np.cumsum(err[order]), total_err - 0.5 * target)) + 1,
                      _GK_LIMIT - lo.size)
        split, keep = order[:n_split], order[n_split:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        lo, hi, val, err = lo[keep], hi[keep], val[keep], err[keep]


class DivergentMassError(ValueError):
    """Truncated measure has non-finite total mass (misconfigured density)."""


class UnknownPresetError(ValueError):
    """A preset name is not one of its factory's names."""


class ExponentOverflowError(OverflowError):
    """An exponential jump functional would overflow the float range."""


@dataclass(frozen=True)
class LevyModel:
    """Intensity density on one or both sides of the mark space.

    Parameters
    ----------
    density : callable
        ``ell(|e|) >= 0`` evaluated on positive marks; symmetric models reuse
        it on the mirrored negative side.
    support : str
        "positive" or "symmetric".
    points : tuple
        Increasing marks between which the density concentrates its mass;
        empty when it has no narrow feature.
    """

    density: Callable[[np.ndarray], np.ndarray]
    support: str
    points: tuple = ()

    def moment(self, p: int, a: float, b: float = math.inf) -> float:
        """Integral of ``e^p ell(e)`` over ``[a, b]`` on one side of the mark
        space, by the adaptive G7/K15 rule of :func:`_gauss_kronrod`.

        The model's ``points`` inside ``(a, b)`` split the range: a narrow
        bump in a wide range is otherwise never sampled.  The integral is
        then resolved to relative accuracy 1e-11 down to ``MASS_FLOOR`` (the
        bump's mass can lie far below any fixed absolute tolerance), or to
        1e-11 relative or 1e-13 absolute for a model without points.  An
        infinite ``b`` is reached from the last inner edge ``c`` by the map
        ``e = c s^(-k)``, ``s`` in ``(0, 1]``, with ``k = 1/STABLE_ALPHA_MIN``:
        a stable density ``|e|^(-1-alpha)`` becomes ``s^(k alpha - 1)``, which
        is regular at ``s = 0`` for every accepted ``alpha``.  A zero density
        integrates to exact ``+0.0``."""
        if math.isfinite(b) and a >= b:
            return 0.0
        if not math.isfinite(b) and a <= 0:
            raise ValueError("tail integrals need a positive inner edge")

        def f(e):
            return e ** p * self.density(e)

        epsabs = MASS_FLOOR if self.points else _EPSABS
        edges = [a, *(x for x in self.points if a < x < b)]
        if math.isfinite(b):
            return _gauss_kronrod(f, [*edges, b], epsabs)
        c, k = edges[-1], 1.0 / STABLE_ALPHA_MIN

        def tail(s):  # de = -k e ds / s; marks that overflow to inf weigh 0
            with np.errstate(over="ignore", invalid="ignore"):
                e = c * s ** -k
                fe = f(e)
                return np.where(fe > 0, fe * e * (k / s), 0.0)
        inner = _gauss_kronrod(f, edges, epsabs) if len(edges) > 1 else 0.0
        return inner + _gauss_kronrod(tail, [0.0, 1.0], epsabs)

    def tail_mass(self, a: float) -> float:
        """One-sided mass of ``{e >= a}``; infinite tails raise."""
        val = self.moment(0, a)
        if not math.isfinite(val):
            raise DivergentMassError(f"tail mass beyond {a} is not finite")
        return val

    @property
    def n_sides(self) -> int:
        return 2 if self.support == "symmetric" else 1


# Outside these ranges the quadrature's outer-edge search stops short of the
# tail, or the truncated mass overflows, at some kappa up to KAPPA_MAX.
PARAM_MIN, PARAM_MAX = 1e-6, 1e6
STABLE_ALPHA_MIN = 0.1
KAPPA_MAX = 1e6
# exp(-z^2 / 2) underflows to zero beyond |z| = 38.6, so every nonzero value
# of the normal density lies within NORMAL_REACH scales of loc.
NORMAL_REACH = 40.0
# Marks near loc are floats spaced |loc| * 2.2e-16 apart.  Within this many
# scales of 0 they resolve the normal profile to 2.2e-10 of a scale, and its
# integrals keep a relative accuracy of about 1e-9; at 3e10 scales the error
# is 2e-7.
NORMAL_LOC_SCALES = 1e6


def _param(name: str, value, least=-PARAM_MAX, most=PARAM_MAX) -> float:
    """``value`` as a float; anything but a real number in ``[least, most]`` is refused."""
    if not isinstance(value, numbers.Real) or not least <= value <= most:
        raise ValueError(f"{name} must be a number in [{least:g}, {most:g}], got {value!r}")
    return float(value)


def gamma_model(theta: float = 1.0, beta: float = 1.0) -> LevyModel:
    """One-sided gamma-type density ``theta * exp(-beta e) / e`` on ``e > 0``."""
    theta, beta = _param("theta", theta, 0.0), _param("beta", beta, PARAM_MIN)

    def density(e):
        e = np.asarray(e, dtype=float)
        out = np.zeros_like(e)
        pos = e > 0
        out[pos] = theta * np.exp(-beta * e[pos]) / e[pos]
        return out

    return LevyModel(density, "positive")


def stable_model(theta: float = 1.0, alpha: float = 0.5) -> LevyModel:
    """Symmetric stable-type density ``theta |e|^(-1-alpha)``."""
    theta = _param("theta", theta, 0.0)
    if not STABLE_ALPHA_MIN <= _param("alpha", alpha) < 2.0:
        raise ValueError(f"stable exponent must lie in [{STABLE_ALPHA_MIN:g}, 2)")

    def density(e):
        e = np.asarray(e, dtype=float)
        out = np.zeros_like(e)
        pos = e > 0
        out[pos] = theta * e[pos] ** (-1.0 - alpha)
        return out

    return LevyModel(density, "symmetric")


def normal_model(rate: float = 2.0, loc: float = 1.0, scale: float = 0.25) -> LevyModel:
    """Finite-activity density: ``rate`` times a normal mark profile, on
    positive marks."""
    rate, loc = _param("rate", rate, 0.0), _param("loc", loc)
    scale = _param("scale", scale, PARAM_MIN)
    if abs(loc) > NORMAL_LOC_SCALES * scale:
        raise ValueError(f"normal loc must lie within {NORMAL_LOC_SCALES:g} scales of 0, "
                         f"got loc={loc:g}, scale={scale:g}")

    def density(e):
        e = np.asarray(e, dtype=float)
        z = (e - loc) / scale
        return rate * np.exp(-0.5 * z * z) / (scale * math.sqrt(2.0 * math.pi))

    points = (loc - NORMAL_REACH * scale, loc, loc + NORMAL_REACH * scale)
    return LevyModel(density, "positive", points)


def null_model() -> LevyModel:
    """Zero density; every jump functional vanishes."""

    def density(e):
        return np.zeros_like(np.asarray(e, dtype=float))

    return LevyModel(density, "positive")


_MODEL_FACTORIES = {
    "gamma": gamma_model,
    "stable": stable_model,
    "normal": normal_model,
    "null": null_model,
}


def make_model(name: str, **params) -> LevyModel:
    if name not in _MODEL_FACTORIES:
        raise UnknownPresetError(f"unknown jump-measure preset '{name}'; "
                         f"choose from {sorted(_MODEL_FACTORIES)}")
    return _MODEL_FACTORIES[name](**params)


@dataclass(frozen=True)
class MarkQuadrature:
    """Node/weight discretization of the truncated measure on ``|e| >= 1/kappa``.

    ``cell_inner`` records each node's cell boundary closest to the origin,
    which makes exact sub-truncation possible when the finer cut levels were
    forced into the cell edges at build time.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kappa: float
    cell_inner: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "cell_inner", np.asarray(self.cell_inner, dtype=float))
        if self.weights.min(initial=0.0) < 0:
            raise ValueError("quadrature weights must be nonnegative")

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def restrict_indices(self, kappa_sub: float) -> np.ndarray:
        """Indices of nodes whose whole cell lies in ``|e| >= 1/kappa_sub``."""
        if kappa_sub > self.kappa + 1e-12:
            raise ValueError("cannot restrict to a finer truncation than built")
        return np.nonzero(self.cell_inner >= 1.0 / kappa_sub - 1e-12)[0]


def nu_dot(field, wz: np.ndarray) -> np.ndarray:
    """The nu-weighted row sum ``sum_i wz_i field_i`` over the last axis.

    The products are accumulated left to right over the nodes, one column
    at a time, without BLAS: a row gets the same bits in any memory layout,
    in any row subset and at any thread count.  The kernel reads whole
    columns, so it is fastest on column-major fields.
    """
    field = np.asarray(field, dtype=float)
    out = field[..., 0] * wz[0]
    for i in range(1, field.shape[-1]):
        out += field[..., i] * wz[i]
    return out


def nu_norm(u, wz: np.ndarray) -> np.ndarray:
    """Weighted L2 norm ``sqrt(sum_i wz_i u_i^2)``; vectorized over rows."""
    vals = np.asarray(u, dtype=float)
    return np.sqrt(np.clip(nu_dot(vals * vals, wz), 0.0, None))


def capped_expm1(x) -> np.ndarray:
    """``exp(x) - 1`` elementwise; raises :class:`ExponentOverflowError`
    above ``EXP_CAP`` instead of returning inf."""
    x = np.asarray(x, dtype=float)
    if x.size and x.max() > EXP_CAP:
        raise ExponentOverflowError(f"exponent {x.max():.3g} exceeds cap {EXP_CAP:g}")
    return np.expm1(x)


def exp_excess(x) -> np.ndarray:
    """The jump integrand ``exp(x) - x - 1``, elementwise, capped as in
    :func:`capped_expm1`."""
    out = capped_expm1(x)
    out -= x
    return out


def j_functional(u, delta: float, wz: np.ndarray) -> np.ndarray | float:
    """Exponential jump penalty ``sum_i wz_i (exp(delta u_i) - delta u_i - 1)``,
    capped as in :func:`exp_excess`."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    out = nu_dot(exp_excess(delta * np.asarray(u, dtype=float)), wz)
    return float(out) if np.ndim(out) == 0 else out


def _side_edges(model: LevyModel, lo: float, q_nodes: int,
                cut_levels: Sequence[float]) -> np.ndarray:
    """Geometric cell edges on ``[lo, hi]`` with forced cut levels inserted."""
    total = model.tail_mass(lo)
    if total <= 0.0:
        hi = lo * 16.0
    else:
        hi = max(2.0 * lo, 1.0)
        for _ in range(300):
            if model.tail_mass(hi) <= 1e-6 * total:
                break
            hi *= 2.0
        else:
            raise DivergentMassError("tail mass does not decay; cannot truncate")
    edges = np.geomspace(lo, hi, q_nodes + 1)
    cuts = [c for c in cut_levels if lo + 1e-12 < c < hi - 1e-12]
    if cuts:
        edges = np.unique(np.concatenate([edges, np.asarray(cuts, dtype=float)]))
        # snap near-duplicates of the forced cuts onto the exact cut value
        for c in cuts:
            edges = edges[np.abs(edges - c) > 1e-9 * max(c, 1.0)]
        edges = np.sort(np.concatenate([edges, np.asarray(cuts, dtype=float)]))
    return edges


def _side_cells(model: LevyModel, edges: np.ndarray):
    """Per-cell mass and centroid node; final cell integrates to infinity."""
    nodes, weights, inner = [], [], []
    for a, b in zip(edges[:-1], edges[1:]):
        w = model.moment(0, a, b)
        if w > 0:
            node = min(max(model.moment(1, a, b) / w, a), b)
        else:
            node = 0.5 * (a + b)
        nodes.append(node)
        weights.append(max(w, 0.0))
        inner.append(a)
    # residual beyond the last edge, anchored at the edge itself
    w_tail = model.tail_mass(edges[-1])
    nodes.append(edges[-1])
    weights.append(max(w_tail, 0.0))
    inner.append(edges[-1])
    return np.asarray(nodes), np.asarray(weights), np.asarray(inner)


def build_quadrature(model: LevyModel, kappa: float, q_nodes: int,
                     cut_levels: Sequence[float] = ()) -> MarkQuadrature:
    """Discretize the truncated measure on ``|e| >= 1/kappa``.

    Cells are geometric between ``1/kappa`` and an adaptively chosen outer
    edge holding all but a 1e-6 fraction of the truncated mass; the residual
    outer tail keeps its exact mass on a node at the edge.  ``cut_levels``
    forces additional cell boundaries (used to align cells with coarser
    truncation levels so restriction is exact).
    """
    if not 1.0 <= kappa <= KAPPA_MAX:
        raise ValueError(f"truncation level must satisfy 1 <= kappa <= {KAPPA_MAX:g}")
    if q_nodes < 2:
        raise ValueError("need at least two quadrature cells")
    lo = 1.0 / kappa
    edges = _side_edges(model, lo, q_nodes, cut_levels)
    nodes, weights, inner = _side_cells(model, edges)
    if model.support == "symmetric":
        nodes = np.concatenate([-nodes[::-1], nodes])
        weights = np.concatenate([weights[::-1], weights])
        inner = np.concatenate([inner[::-1], inner])
    total = float(weights.sum())
    if not math.isfinite(total):
        raise DivergentMassError("truncated measure has non-finite mass")
    return MarkQuadrature(nodes, weights, kappa, inner)


def truncated_mass_reference(model: LevyModel, kappa: float) -> float:
    """Adaptive-integration reference for the truncated total mass."""
    return model.n_sides * model.tail_mass(1.0 / kappa)


@dataclass
class JumpTable:
    """Flat record of simulated jumps in interval order, as
    :func:`sample_jump_paths` emits them.

    Columns: owning path, interval ``(t_k, t_{k+1}]``, jump time, mark index
    into the quadrature nodes.
    """

    path_index: np.ndarray
    interval_index: np.ndarray
    time: np.ndarray
    mark_index: np.ndarray
    n_paths: int
    n_intervals: int
    n_nodes: int

    def __post_init__(self):
        self._offsets = np.searchsorted(self.interval_index,
                                        np.arange(self.n_intervals + 1))

    @property
    def n_jumps(self) -> int:
        return self.path_index.size

    def rows_for_interval(self, k: int):
        sl = slice(self._offsets[k], self._offsets[k + 1])
        return self.path_index[sl], self.mark_index[sl]

    def cells_for_interval(self, k: int):
        """The distinct (path, node) cells that see a jump over interval
        ``k``, with their jump counts: three arrays ``(paths, nodes,
        counts)``, ordered by path and then node.  Every other cell of the
        interval has count 0."""
        paths, marks = self.rows_for_interval(k)
        cells, counts = np.unique(paths * self.n_nodes + marks, return_counts=True)
        return cells // self.n_nodes, cells % self.n_nodes, counts

    def compensated_sum(self, k: int, field, wz: np.ndarray, dt: float) -> np.ndarray:
        """Compensated jump sum of ``field`` over interval ``k``, per path:
        ``sum over the path's jumps of field[path, mark] - sum_i wz_i field_i dt``.
        ``field`` holds one value per node, shape (Q,), or per path and node,
        shape (n_paths, Q); ``wz`` is the node intensity of the interval."""
        paths, marks = self.rows_for_interval(k)
        out = np.zeros(self.n_paths)
        if paths.size == 0 and not (wz > 0).any():
            # no jump and no compensator: the sum is zero whatever the field
            return out
        field = np.asarray(field, dtype=float)
        np.add.at(out, paths,
                  np.broadcast_to(field, (self.n_paths, self.n_nodes))[paths, marks])
        return out - nu_dot(field, wz) * dt


def sample_jump_paths(intensity: np.ndarray, dt: float, n_paths: int,
                      seed: int) -> JumpTable:
    """Marked-Poisson jump stream of a per-step node intensity table.

    ``intensity`` has shape (K, Q): row ``k`` holds the node intensities on
    interval ``k``, of length ``dt``.  Per interval the jump count is Poisson
    with mean ``intensity[k].sum() * dt`` and marks are drawn proportionally
    to ``intensity[k]``.  A single counter-based generator keyed by ``seed``
    makes the table reproducible.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    n_int, n_nodes = intensity.shape
    paths, intervals, times, marks = [], [], [], []
    for k, wz in enumerate(intensity):
        lam = float(wz.sum())
        if lam <= 0.0:
            continue
        counts = rng.poisson(lam * dt, size=n_paths)
        total = int(counts.sum())
        if total == 0:
            continue
        paths.append(np.repeat(np.arange(n_paths), counts))
        intervals.append(np.full(total, k, dtype=int))
        times.append((k + rng.random(total)) * dt)
        marks.append(rng.choice(n_nodes, size=total, p=wz / lam))
    cat = (lambda parts, kind: np.concatenate(parts) if parts
           else np.empty(0, dtype=kind))
    return JumpTable(cat(paths, int), cat(intervals, int), cat(times, float),
                     cat(marks, int), n_paths, n_int, n_nodes)
