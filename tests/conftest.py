from __future__ import annotations

import dataclasses

import pytest

from hfda import kernel
from hfda.dynamics import fitzhugh_nagumo
from hfda.observe import identity_observation, simulate_observations
from hfda.optimize import Problem


@pytest.fixture(scope="session")
def fn_small():
    """A desk-scale FitzHugh-Nagumo instance: [0, 5], 100 observations."""
    model = dataclasses.replace(fitzhugh_nagumo(), t_span=(0.0, 5.0))
    obs_model = identity_observation(model.d, 0.1)
    data = simulate_observations(model, model.params_ref, obs_model, 0.05, seed=42)
    problem = Problem(model, data, h=0.25)
    return model, data, problem


@pytest.fixture(scope="session")
def fn_small_noiseless(fn_small):
    model, _, _ = fn_small
    obs_model = identity_observation(model.d, 0.1)
    data = simulate_observations(model, model.params_ref, obs_model, 0.05, seed=42, noise=False)
    problem = Problem(model, data, h=0.25)
    return model, data, problem


@pytest.fixture(scope="session")
def fn_corrupted_jac_x():
    """FitzHugh-Nagumo with a wrong entry in its hand-written state Jacobian."""
    model = fitzhugh_nagumo()

    def bad_jac_x(t, x, params):
        (f00, f01), row1 = model.jac_x(t, x, params)
        return (f00 + 0.25, f01), row1

    return dataclasses.replace(model, jac_x=bad_jac_x)


@pytest.fixture
def sweep_paths(monkeypatch):
    """The sweep paths, each in force while a test's loop body runs for it:
    ``"compiled"`` (the generated kernel, where a C compiler is found) and
    then ``"python"`` (the Python loops, by turning the kernel lookup off).
    A test loops over all of them."""

    def paths():
        yield "compiled"
        monkeypatch.setattr(kernel, "sweeps", lambda model: None)
        yield "python"

    return paths()
