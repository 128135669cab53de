"""Per-layer tracing by wrapping the package's public functions.

A :class:`Tracer` replaces each target function with a wrapper that records
calls, inclusive time and self time (inclusive time minus the time of the
wrapped calls it made), plus a few exact counts taken from arguments and
results.  A public name is patched at every ``qebsdej`` module that binds it,
so ``decompose`` is traced whether ``runner`` or ``scheme`` calls it.
Installing fails if a target does not exist; removing checks that every
original is back in place.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


def _jump_count(args, result):
    return result.n_jumps


def _matrix_bytes(args, result):
    return result.nbytes


def _picard_iterations(args, result):
    return int(result.picard_iterations.sum())


def _driver_rows(args, result):
    return int(result.shape[0])


def _triples_failed(args, result):
    return sum(1 for rec in result.report.records if rec.error)


def _csv_bytes(args, result):
    return Path(args[0]).stat().st_size


# layer metric prefix -> (module, attribute paths, {count name: counter}).
# Counters receive (args, result) of one call and return an integer.
TARGETS = {
    "config.load_config": ("qebsdej.config", ["load_config"], {}),
    "levy.build_quadrature": ("qebsdej.levy", ["build_quadrature"], {}),
    "levy.sample_jump_paths": ("qebsdej.levy", ["sample_jump_paths"],
                               {"levy.jumps.count": _jump_count}),
    "solver.simulate_forward": ("qebsdej.solver", ["simulate_forward"], {}),
    "solver.solve_lipschitz": ("qebsdej.solver", ["solve_lipschitz"],
                               {"solver.picard.iterations": _picard_iterations}),
    "solver.decompose": ("qebsdej.solver", ["decompose"], {}),
    "solver.FeatureMap.matrix": ("qebsdej.solver", ["FeatureMap.matrix"],
                                 {"solver.FeatureMap.matrix.bytes": _matrix_bytes}),
    "solver.u_values": ("qebsdej.solver", ["BsdejSolution.u_values"], {}),
    "drivers.regularize": ("qebsdej.drivers", ["regularize"], {}),
    # the two generator entry points the backward solve calls
    "drivers.evaluate": ("qebsdej.drivers",
                         ["DriverView.evaluate", "RegularizedDriver.evaluate"],
                         {"drivers.evaluate.rows": _driver_rows}),
    "semimartingale.check_q_structure": ("qebsdej.semimartingale",
                                         ["check_q_structure"], {}),
    "semimartingale.martingale_regression_test": (
        "qebsdej.semimartingale", ["martingale_regression_test"], {}),
    "semimartingale.submartingale_test": ("qebsdej.semimartingale",
                                          ["submartingale_test"], {}),
    "semimartingale.stability": ("qebsdej.semimartingale",
                                 ["stability_diagnostics", "pairwise_gap"], {}),
    "risk.entropic": ("qebsdej.risk", ["entropic"], {}),
    "risk.apriori_bound_check": ("qebsdej.risk", ["apriori_bound_check"], {}),
    "risk.exponential_moment_check": ("qebsdej.risk",
                                      ["exponential_moment_check"], {}),
    "scheme.run_triple_scheme": ("qebsdej.scheme", ["run_triple_scheme"],
                                 {"scheme.triples_failed.count": _triples_failed}),
    "scheme.driver_l1_gap": ("qebsdej.scheme", ["driver_l1_gap"], {}),
    "scheme.default_c_split": ("qebsdej.scheme", ["default_c_split"], {}),
    "scheme.monotonicity_check": ("qebsdej.scheme", ["monotonicity_check"], {}),
    "runner.run_experiment": ("qebsdej.runner", ["run_experiment"], {}),
    "runner.write_csv": ("qebsdej.runner", ["write_csv"],
                         {"runner.write_csv.bytes": _csv_bytes}),
}

# enough to time set-up and the run without tracing the layers below
TIMESTAMPS = ("config.load_config", "runner.run_experiment")

ROOT = "runner.run_experiment"
SETUP = "config.load_config"


class TraceError(RuntimeError):
    """A target is missing, an original was not restored, or the self times
    do not account for the traced run."""


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    last_end: float = float("nan")
    counts: dict = field(default_factory=dict)


class Tracer:
    """Wraps the ``names`` of :data:`TARGETS` while installed."""

    def __init__(self, names=tuple(TARGETS)):
        unknown = sorted(set(names) - set(TARGETS))
        if unknown:
            raise TraceError(f"unknown trace targets: {unknown}")
        self.names = tuple(names)
        self.stats = {name: LayerStats() for name in self.names}
        self._stack: list[list[float]] = []   # [start, time in wrapped children]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func, counters: dict):
        stats = self.stats[name]
        stack = self._stack
        clock = time.monotonic   # system-wide on Linux: comparable across processes

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                stats.last_end = end
                if stack:
                    stack[-1][1] += elapsed
            for count, counter in counters.items():
                stats.counts[count] = stats.counts.get(count, 0) + counter(args, result)
            return result

        return functools.wraps(func)(traced)

    def install(self) -> None:
        if self._patches:
            raise TraceError("tracer already installed")
        try:
            for name in self.names:
                module_name, attrs, counters = TARGETS[name]
                module = sys.modules.get(module_name)
                if module is None:
                    raise TraceError(f"{name}: module {module_name} is not imported")
                for attr in attrs:
                    self._patch(name, module, attr, counters)
        except BaseException:
            self.remove()
            raise

    def _patch(self, name: str, module, attr: str, counters: dict) -> None:
        owner_name, _, leaf = attr.rpartition(".")
        owner = vars(module).get(owner_name) if owner_name else module
        if owner is None or leaf not in vars(owner):
            raise TraceError(f"{name}: {module.__name__}.{attr} does not exist")
        original = vars(owner)[leaf]
        wrapper = self._wrap(name, original, counters)
        if owner_name:
            holders = [owner]
        else:
            # every package module that bound the function by name
            holders = [m for key, m in list(sys.modules.items())
                       if (key == "qebsdej" or key.startswith("qebsdej."))
                       and m is not None and vars(m).get(leaf) is original]
        for holder in holders:
            setattr(holder, leaf, wrapper)
            self._patches.append((holder, leaf, original))

    def remove(self) -> None:
        patches, self._patches = self._patches, []
        for holder, leaf, original in reversed(patches):
            setattr(holder, leaf, original)
        left = [f"{getattr(h, '__name__', h)}.{leaf}" for h, leaf, original
                in patches if vars(h).get(leaf) is not original]
        if left:
            raise TraceError(f"originals not restored: {left}")

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def check_self_times(self) -> None:
        """Every self time is >= 0 and the self times inside the root
        (everything but set-up) add up to the root's inclusive time."""
        negative = [n for n, s in self.stats.items() if s.self_s < 0.0]
        if negative:
            raise TraceError(f"negative self time: {negative}")
        root = self.stats[ROOT].total_s
        inside = sum(s.self_s for n, s in self.stats.items() if n != SETUP)
        if abs(inside - root) > 1e-9 * root + 1e-12:
            raise TraceError(f"self times add up to {inside!r} s, "
                             f"traced run took {root!r} s")

    def layer_metrics(self) -> dict:
        """Self time of every target and every exact count, by metric name."""
        out = {}
        for name, stats in self.stats.items():
            out[f"{name}.s"] = stats.self_s
            out[f"{name}.calls"] = stats.calls
            for count, counter in TARGETS[name][2].items():
                out[count] = stats.counts.get(count, 0)
        return out
