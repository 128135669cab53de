import numpy as np
import pytest

import qebsdej as q
from qebsdej.config import SETTINGS


def _defaults(section, *keys):
    return {key: SETTINGS[section][key].default for key in keys}


def forward(model, quad, dynamics, t_end, k_steps, n_paths, seed, **settings):
    """``simulate_forward`` with ``x0`` and ``jump_impact`` at their
    configuration defaults unless ``settings`` sets them."""
    return q.simulate_forward(model, quad, dynamics, t_end, k_steps, n_paths, seed,
                              **{**_defaults("ensemble", "x0", "jump_impact"),
                                 **settings})


def solve(driver, terminal_fn, **settings):
    """``solve_lipschitz`` of a bound driver on its ensemble, with the solver
    settings at their configuration defaults unless ``settings`` sets them."""
    return q.solve_lipschitz(driver, terminal_fn,
                             **{**_defaults("solver", "basis_degree", "picard_max",
                                            "picard_tol"), **settings})


def entropic(ensemble, payoff, k_time, direction="upper"):
    """``entropic`` at the configuration's default basis degree."""
    return q.entropic(ensemble, payoff, k_time, direction,
                      **_defaults("solver", "basis_degree"))


@pytest.fixture(scope="session")
def gamma_model():
    return q.make_model("gamma", theta=1.0, beta=1.0)


@pytest.fixture(scope="session")
def stable_model():
    return q.make_model("stable", theta=1.0, alpha=0.5)


@pytest.fixture(scope="session")
def gamma_quad(gamma_model):
    return q.build_quadrature(gamma_model, 4.0, 10)


@pytest.fixture(scope="session")
def two_node_quad():
    # hand-built two-node measure with total mass 2 (weights 1.5, 0.5)
    return q.MarkQuadrature(np.array([1.0, 2.0]), np.array([1.5, 0.5]), 1.0,
                            np.array([1.0, 2.0]))


@pytest.fixture(scope="session")
def small_ensemble(gamma_model, gamma_quad):
    return forward(gamma_model, gamma_quad, "brownian_jumps", 1.0, 20, 20000, seed=101)


def probe_fields(rng, quad, n, spread=1.0):
    return rng.uniform(-spread, spread, (n, quad.n_nodes))
