"""The benchmark's workloads: the three shipped configurations at their
shipped sizes.

The reason for each workload is the comment above its definition.  The
configurations are copies of ``configs/*.json`` as shipped, so a change to
an example config does not silently change what the benchmark measures.  The
benchmark seed replaces ``ensemble.seed`` and nothing else.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    passes: int            # ensemble passes: solves in the run

    def config_for(self, seed: int) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["ensemble"]["seed"] = int(seed)
        return cfg

    @property
    def path_steps(self) -> int:
        return (self.config["ensemble"]["n_paths"]
                * self.config["grid"]["k_steps"] * self.passes)


# Null jump measure, zero driver, 100k paths, K=50.  Dominated by the solver
# regression layer: design building and u_values alone take about 3.8 s of
# about 7 s; semimartingale.martingale_regression_test and runner path export
# also weigh.  drivers does almost no work (the zero driver gets one Picard
# pass), and neither do levy or scheme.  So this is the control for envelope
# or ladder changes, and the mechanism workload for design caching or
# factorisation.  Its 664 MB peak is where memory bought by caching shows.
SOLVE = Workload(
    name="solve_martingale",
    config={
        "experiment": "solve",
        "model": {"name": "null"},
        "driver": {"name": "zero"},
        "structure": {"delta": 1.0, "l": 0.0, "c": 0.0},
        "grid": {"t_end": 1.0, "k_steps": 50},
        "quadrature": {"kappa": 2.0, "q_nodes": 4},
        "ensemble": {"n_paths": 100000, "seed": 7, "dynamics": "brownian"},
        "terminal": {"name": "linear", "scale": 1.0},
        "solver": {"basis_degree": 3},
    },
    passes=1,
)

# Gamma measure, regularized canonical driver, 30k paths, K=40, ladder
# (2,2,2)/(4,4,4)/(8,8,8).  Dominated by drivers (RegularizedDriver.evaluate
# takes 8.5 s of 18 s) and by scheme and semimartingale.check_q_structure;
# also exercises levy jump sampling and a 13-column regression target.  It
# reproduces the acceptance canonical_ladder fixture (same model, driver,
# terminal, schedule, seed, size and K), so the ladder fixture needs no fourth
# workload.
SCHEME = Workload(
    name="scheme_canonical",
    config={
        "experiment": "scheme",
        "model": {"name": "gamma", "theta": 1.0, "beta": 1.0},
        "driver": {"name": "canonical"},
        "structure": {"delta": 1.0, "l": 0.0, "c": 0.0},
        "grid": {"t_end": 1.0, "k_steps": 40},
        "quadrature": {"q_nodes": 12, "kappa": 8.0},
        "ensemble": {"n_paths": 30000, "seed": 2024, "dynamics": "brownian_jumps"},
        "terminal": {"name": "abs_linear", "scale": 0.25},
        "schedule": {"triples": [[2, 2, 2], [4, 4, 4], [8, 8, 8]]},
        "solver": {"basis_degree": 3},
    },
    passes=3,
)

# 100k paths, K=20, entropic values at t=0 and t=10, no backward solve.  About
# 0.2 s of work goes to risk after about 1.3 s of import.  The control on which
# solver, drivers and scheme changes must not move, and the workload where
# setup_s (import of scipy.stats and the package) is most of the total.
RISK = Workload(
    name="risk_gaussian",
    config={
        "experiment": "risk",
        "model": {"name": "null"},
        "driver": {"name": "zero"},
        "structure": {"delta": 1.0, "l": 0.0, "c": 0.0},
        "grid": {"t_end": 1.0, "k_steps": 20},
        "quadrature": {"kappa": 2.0, "q_nodes": 4},
        "ensemble": {"n_paths": 100000, "seed": 3, "dynamics": "brownian"},
        "terminal": {"name": "linear", "scale": 0.5},
        "risk": {"times": [0, 10], "gammas": [1.0, 2.0]},
    },
    passes=1,
)

WORKLOADS = {w.name: w for w in (SOLVE, SCHEME, RISK)}


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def headline(workload: str, out_dir: Path) -> tuple[float, float]:
    """The value a user reads first, with its reported standard error:
    ``y0`` for solve, ``y0`` of the finest triple for scheme, and the upper
    entropic value at t=0 for risk."""
    out_dir = Path(out_dir)
    if workload == SOLVE.name:
        row = _rows(out_dir / "solution_summary.csv")[0]
        return float(row["y0"]), float(row["y0_se"])
    if workload == SCHEME.name:
        row = _rows(out_dir / "convergence_report.csv")[-1]
        return float(row["y0"]), float(row["y0_se"])
    row = next(r for r in _rows(out_dir / "risk_table.csv")
               if r["direction"] == "upper" and float(r["t"]) == 0.0)
    return float(row["value"]), float(row["stderr"])
