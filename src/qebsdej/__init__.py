"""Numerical laboratory for quadratic-exponential backward SDEs with jumps."""

__version__ = "0.1.0"

from .levy import (DivergentMassError, ExponentOverflowError, LevyModel,
                   MarkQuadrature, build_quadrature, j_functional, make_model,
                   nu_dot, nu_norm, sample_jump_paths)
from .drivers import (Driver, DriverView, RegularizedDriver, StructureParams,
                      corridor_edge, make_driver, regularize)
from .solver import (BsdejSolution, Decomposition, NonContractionError,
                     PathEnsemble, decompose, simulate_forward, solve_lipschitz)
from .semimartingale import (check_q_structure, exponential_transform,
                             stability_diagnostics, submartingale_test)
from .risk import apriori_bound_check, entropic, exponential_moment_check
from .scheme import (Schedule, driver_l1_gap, ladder_quadrature,
                     monotonicity_check, run_triple_scheme)

__all__ = [name for name in dir() if not name.startswith("_")]
