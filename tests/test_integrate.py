from __future__ import annotations

import dataclasses
import importlib
import shutil
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm

from hfda import kernel
from hfda.dynamics import MODEL_NAMES, augment, fitzhugh_nagumo, get_model, linear_system
from hfda.integrate import (
    DivergenceError,
    build_grid,
    grid_from_times,
    integrate,
    integrate_adjoint,
    integrate_augmented,
    integrate_augmented_sensitivity,
    integrate_loss_terms,
    integrate_with_sensitivity,
    reset_step_count,
    step_count,
)
from hfda.observe import ObservationSet, identity_observation


class LinearSystem:
    """dz/dt = A z with exact Jacobian, for integrator oracles."""

    def __init__(self, a):
        self.a = np.atleast_2d(np.asarray(a, dtype=float))

    def rhs(self, t, z):
        return z @ self.a.T

    def jac(self, t, z):
        return np.broadcast_to(self.a, z.shape[:-1] + self.a.shape).copy()


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_build_grid_obs_on_regular_nodes():
    grid = build_grid((0.0, 1.0), 0.5, np.array([0.5, 1.0]))
    assert np.allclose(grid.nodes, [0.0, 0.5, 1.0])
    assert np.array_equal(grid.node_index(np.array([0.5, 1.0])), [1, 2])


def test_build_grid_high_frequency_spacing_dominates():
    times = 0.01 * np.arange(1, 5001)
    grid = build_grid((0.0, 50.0), 1.0, times)
    assert len(grid.nodes) == 5001
    diffs = np.diff(grid.nodes)
    assert np.allclose(diffs, 0.01, atol=1e-12)
    # every observation time is exactly a node
    assert np.array_equal(grid.nodes[grid.node_index(times)], times)


def test_build_grid_empty_obs_uniform():
    grid = build_grid((0.0, 2.0), 0.5, np.empty(0))
    assert np.allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_build_grid_inserts_offgrid_observation():
    grid = build_grid((0.0, 1.0), 0.5, np.array([0.3]))
    assert np.allclose(grid.nodes, [0.0, 0.3, 0.5, 1.0])
    assert grid.nodes[grid.node_index(0.3)[0]] == 0.3


def test_build_grid_snaps_float_dust():
    t_obs = 0.1 + 0.2  # 0.30000000000000004
    grid = build_grid((0.0, 1.0), 0.3, np.array([t_obs]))
    assert grid.nodes[grid.node_index(t_obs)[0]] == t_obs
    assert len(grid.nodes) == 5  # snapped, not inserted


def test_build_grid_shorter_final_step():
    grid = build_grid((0.0, 1.0), 0.4, np.empty(0))
    assert np.allclose(grid.nodes, [0.0, 0.4, 0.8, 1.0])


def test_build_grid_usage_errors():
    with pytest.raises(ValueError):
        build_grid((0.0, 1.0), -0.1, np.empty(0))
    with pytest.raises(ValueError):
        build_grid((0.0, 1.0), 0.5, np.array([1.5]))
    with pytest.raises(ValueError):
        build_grid((0.0, 1.0), 0.5, np.array([0.5, 0.2]))


def test_grid_never_steps_over_observations():
    rng = np.random.default_rng(11)
    times = np.sort(rng.uniform(0.05, 9.95, 37))
    grid = build_grid((0.0, 10.0), 0.7, times)
    assert np.array_equal(grid.nodes[grid.node_index(times)], times)
    assert np.all(np.diff(grid.nodes) <= 0.7 + 1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_grid_builders_put_every_time_on_a_node(seed):
    rng = np.random.default_rng(seed)
    t0 = float(rng.uniform(-10.0, 10.0))
    t_end = t0 + float(rng.uniform(0.5, 60.0))
    h = (t_end - t0) / float(rng.uniform(1.0, 80.0))
    tol = 1e-9 * max(abs(t_end), t_end - t0)
    regular = t0 + h * np.arange(int((t_end - t0) / h) + 1)
    near = regular + tol * rng.uniform(-1.0, 1.0, regular.size)  # snapped to a regular node
    dust = t0 + np.cumsum(np.full(regular.size, h))  # regular nodes up to float dust
    pool = np.concatenate([near, dust, rng.uniform(t0, t_end, 40)])
    pool = pool[(pool >= t0) & (pool <= t_end)]
    times = np.unique(rng.choice(pool, size=rng.integers(1, pool.size + 1), replace=False))
    times = np.union1d(times, [t0 + tol * rng.uniform(0.1, 1.0)])  # within tol after t0

    grid = build_grid((t0, t_end), h, times)
    assert grid.nodes[0] == t0
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(np.diff(grid.nodes) <= h + 2 * tol)
    assert np.array_equal(grid.nodes[grid.node_index(times)], times)

    repeated = np.repeat(times, rng.integers(1, 4, times.size))  # shared times
    coarse = grid_from_times(t0, repeated)
    assert np.all(np.diff(coarse.nodes) > 0)
    assert np.array_equal(coarse.nodes, np.union1d([t0], times))
    assert np.array_equal(coarse.nodes[coarse.node_index(repeated)], repeated)


def test_node_index_rejects_off_grid_times():
    grid = build_grid((0.0, 1.0), 0.5, np.empty(0))
    with pytest.raises(ValueError):
        grid.node_index(np.array([0.25]))


# ---------------------------------------------------------------------------
# forward integration
# ---------------------------------------------------------------------------


def test_constant_solution():
    grid = build_grid((0.0, 3.0), 0.25, np.empty(0))
    traj = integrate(lambda t, z: np.zeros_like(z), np.array([4.0, -1.0]), grid)
    assert np.array_equal(traj.states, np.tile([4.0, -1.0], (len(grid.nodes), 1)))


def test_single_step_matches_quartic_taylor():
    # for dz/dt = z any fourth-order tableau reproduces the degree-4 Taylor
    # polynomial of the step map
    h = 0.37
    grid = grid_from_times(0.0, np.array([h]))
    traj = integrate(LinearSystem([[1.0]]), np.array([1.0]), grid)
    expected = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert abs(traj.states[-1, 0] - expected) <= 1e-14 * expected


def test_order_four_convergence_on_fn():
    model = fitzhugh_nagumo()
    system = augment(model)
    theta = model.theta_ref()

    def terminal(h):
        grid = build_grid(model.t_span, h, np.empty(0))
        return integrate(system, theta, grid).states[-1]

    z1, z2, z3 = terminal(0.02), terminal(0.01), terminal(0.005)
    rate = np.log2(np.linalg.norm(z1 - z2) / np.linalg.norm(z2 - z3))
    assert 3.5 <= rate <= 4.5


def test_integration_is_deterministic():
    model = get_model("lotka_volterra")
    system = augment(model)
    grid = build_grid(model.t_span, 0.1, np.empty(0))
    a = integrate(system, model.theta_ref(), grid).states
    b = integrate(system, model.theta_ref(), grid).states
    assert np.array_equal(a, b)


def test_divergence_error_carries_node():
    model = fitzhugh_nagumo()
    system = augment(model)
    theta = model.theta_ref()
    theta[0] = 1e150  # cubic term overflows immediately
    grid = build_grid(model.t_span, 1.0, np.empty(0))
    with pytest.raises(DivergenceError) as err:
        integrate(system, theta, grid)
    assert err.value.node_index >= 1
    assert 0.0 < err.value.time <= 50.0


def test_fast_augmented_path_matches_generic():
    model = get_model("van_der_pol")
    system = augment(model)
    grid = build_grid(model.t_span, 0.1, np.empty(0))
    theta = model.theta_ref() * 1.1
    generic = integrate(system, theta, grid).states
    fast = integrate_augmented(model, theta, grid)
    assert np.array_equal(generic[:, : model.d], fast)


def test_batched_state_pass_matches_single_runs_bitwise():
    # component arrays and Python floats run the same + - * / sequence
    model = fitzhugh_nagumo()
    grid = build_grid((0.0, 10.0), 0.1, np.empty(0))
    rng = np.random.default_rng(19)
    thetas = model.theta_ref() * (1.0 + 0.05 * rng.standard_normal((5, model.q)))
    batch = integrate_augmented(model, thetas, grid)
    assert batch.shape == (len(grid.nodes), 5, model.d)
    for k, theta in enumerate(thetas):
        assert np.array_equal(batch[:, k], integrate_augmented(model, theta, grid))
    one = integrate_augmented(model, thetas[:1], grid)
    assert np.array_equal(one, batch[:, :1])


def test_fast_paths_diverge_where_the_generic_oracle_does(sweep_paths):
    # at step 1.5 the reference FitzHugh-Nagumo trajectory blows up mid-span
    model = fitzhugh_nagumo()
    system = augment(model)
    grid = build_grid(model.t_span, 1.5, np.empty(0))
    theta = model.theta_ref()
    data = ObservationSet(
        times=grid.nodes[1:], values=np.zeros((grid.n_steps, 2)), model=identity_observation(2, 0.1)
    )
    runs = [
        lambda: integrate(system, theta, grid),
        lambda: integrate_augmented(model, theta, grid),
        lambda: integrate_loss_terms(model, theta, grid, data),
        lambda: integrate_with_sensitivity(system, theta, grid),
        lambda: integrate_augmented_sensitivity(model, theta, grid),
    ]
    for path in sweep_paths:
        outcomes = []
        for run in runs:
            reset_step_count()
            with pytest.raises(DivergenceError) as err:
                run()
            outcomes.append((err.value.node_index, err.value.time, step_count()))
        node, _, steps = outcomes[0]
        assert 1 < node < grid.n_steps
        assert steps == node
        assert all(outcome == outcomes[0] for outcome in outcomes), path


def test_nonfinite_theta_diverges_at_node_zero(sweep_paths):
    model = fitzhugh_nagumo()
    grid = build_grid((0.0, 5.0), 0.25, np.empty(0))
    theta = model.theta_ref()
    theta[3] = np.nan
    data = ObservationSet(
        times=grid.nodes, values=np.zeros((len(grid.nodes), 2)), model=identity_observation(2, 0.1)
    )
    for path in sweep_paths:
        for run in (integrate_augmented, lambda *args: integrate_loss_terms(*args, data)):
            reset_step_count()
            with pytest.raises(DivergenceError) as err:
                run(model, theta, grid)
            assert (err.value.node_index, err.value.time, step_count()) == (0, 0.0, 0), path


def _final_impulse(grid, d, value):
    """Impulses with ``value`` in every component at the last node only."""
    impulses = np.zeros((len(grid.nodes), d))
    impulses[-1] = value
    return impulses


def _parity_model(name):
    if name == "linear":
        a, b = [[-0.3, 1.0], [-1.0, -0.2]], [[1.0, 0.0], [0.5, -1.0]]
        return linear_system(a, b, x0=[1.0, -0.5], t_span=(0.0, 5.0))
    return get_model(name)


@pytest.mark.parametrize("scale", [1.0, 1.1])
@pytest.mark.parametrize("name", [*MODEL_NAMES, "linear"])
def test_compiled_sweeps_match_the_python_loops_bitwise(name, scale, sweep_paths):
    model = _parity_model(name)
    rng = np.random.default_rng(29)
    t0, t_end = model.t_span
    # inserted observation times make the steps uneven
    grid = build_grid(model.t_span, 0.1, np.sort(rng.uniform(t0 + 0.01, t_end, 37)))
    theta = scale * model.theta_ref()
    rows = theta + 0.01 * (1.0 + np.abs(theta)) * rng.standard_normal((52, model.q))
    impulses = rng.standard_normal((len(grid.nodes), model.d))  # nonzero at every node
    results = {}
    for path in sweep_paths:
        states = integrate_augmented(model, theta, grid)
        batches = [integrate_augmented(model, rows[:k], grid) for k in (1, 2, 52)]
        results[path] = [states, *batches, integrate_adjoint(model, theta, grid, states, impulses)]
    for compiled, python in zip(results["compiled"], results["python"]):
        assert compiled.shape == python.shape
        assert np.array_equal(compiled, python)


def test_a_model_that_branches_on_a_value_keeps_the_python_loops():
    base = fitzhugh_nagumo()

    def clipped_rhs(t, x, params):
        v, w = x
        return base.rhs(t, (v if v > -10.0 else -10.0, w), params)  # never clips here

    model = dataclasses.replace(base, rhs=clipped_rhs)
    assert kernel.sweeps(model) is None
    grid = build_grid((0.0, 5.0), 0.25, np.empty(0))
    theta = model.theta_ref()
    assert np.array_equal(integrate_augmented(model, theta, grid), integrate_augmented(base, theta, grid))


def test_a_missing_compiler_warns_once_that_the_python_loops_run(monkeypatch):
    monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    monkeypatch.setattr(kernel, "_BY_FUNCTIONS", {})
    monkeypatch.setattr(kernel, "_warned_no_compiler", False)
    with pytest.warns(UserWarning, match="no compiled sweeps, running the Python loops"):
        assert kernel.sweeps(fitzhugh_nagumo()) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel.sweeps(get_model("van_der_pol")) is None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
@pytest.mark.parametrize("name", [*MODEL_NAMES, "linear"])
def test_models_run_compiled_where_a_compiler_is_found(name, monkeypatch):
    # a silent fallback to the Python loops would pass every parity test
    integrate_module = importlib.import_module("hfda.integrate")

    def python_loop(*args, **kwargs):
        raise AssertionError("the Python loop ran")

    monkeypatch.setattr(integrate_module, "_sweep", python_loop)
    monkeypatch.setattr(integrate_module, "_adjoint_sweep", python_loop)
    model = _parity_model(name)
    grid = build_grid(model.t_span, 0.5, np.empty(0))
    theta = model.theta_ref()
    states = integrate_augmented(model, theta, grid)
    integrate_augmented(model, np.stack([theta, theta]), grid)
    integrate_adjoint(model, theta, grid, states, _final_impulse(grid, model.d, 1.0))
    observed = identity_observation(model.d, 0.1)
    data = ObservationSet(times=grid.nodes[1:], values=states[1:], model=observed)
    assert not np.any(integrate_loss_terms(model, theta, grid, data))


# ---------------------------------------------------------------------------
# forward sensitivity
# ---------------------------------------------------------------------------


def test_sensitivity_identity_at_t0():
    system = LinearSystem(np.diag([1.0, -2.0]))
    grid = build_grid((0.0, 1.0), 0.1, np.empty(0))
    _, sens = integrate_with_sensitivity(system, np.ones(2), grid)
    assert np.array_equal(sens[0], np.eye(2))


def test_sensitivity_matches_matrix_exponential():
    rng = np.random.default_rng(17)
    a = 0.5 * rng.standard_normal((4, 4))
    system = LinearSystem(a)
    t_end = 2.0
    grid = build_grid((0.0, t_end), t_end / 512, np.empty(0))
    _, sens = integrate_with_sensitivity(system, rng.standard_normal(4), grid)
    oracle = expm(t_end * a)
    rel = np.linalg.norm(sens[grid.n_steps] - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-8


def test_sensitivity_matches_finite_difference_of_integrate():
    model = fitzhugh_nagumo()
    system = augment(model)
    grid = build_grid((0.0, 10.0), 0.25, np.empty(0))
    theta = model.theta_ref()
    _, sens = integrate_with_sensitivity(system, theta, grid)
    x_theta = sens[grid.n_steps]
    for j in range(model.q):
        e = np.zeros(model.q)
        e[j] = 1e-6 * (1.0 + abs(theta[j]))
        plus = integrate(system, theta + e, grid).states[-1]
        minus = integrate(system, theta - e, grid).states[-1]
        fd = (plus - minus) / (2 * e[j])
        rel = np.linalg.norm(x_theta[:, j] - fd) / (1.0 + np.linalg.norm(fd))
        assert rel <= 1e-5


def test_augmented_sensitivity_is_top_block():
    # at every node, on a regular grid and on one with inserted times
    grids = [
        build_grid((0.0, 4.0), 0.2, np.empty(0)),
        build_grid((0.0, 3.0), 0.25, np.array([0.1, 0.6, 1.3, 2.95])),
    ]
    for name in ("lotka_volterra", "van_der_pol"):
        model = get_model(name)
        system = augment(model)
        theta = model.theta_ref() * 0.9
        for grid in grids:
            full_states, full = integrate_with_sensitivity(system, theta, grid)
            states, top = integrate_augmented_sensitivity(model, theta, grid)
            assert full.shape == (len(grid.nodes), model.q, model.q)
            assert top.shape == (len(grid.nodes), model.d, model.q)
            assert np.array_equal(top[0], np.eye(model.d, model.q))  # [I | 0]
            assert np.array_equal(full[:, : model.d], top)
            assert np.array_equal(full_states[:, : model.d], states)


# ---------------------------------------------------------------------------
# model calls per step
# ---------------------------------------------------------------------------


def _counted_fn(counts):
    """FitzHugh-Nagumo with its rhs and Jacobians counted, as the benchmark's
    tracer counts them (``dynamics.*_calls``)."""

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    base = fitzhugh_nagumo()
    return dataclasses.replace(
        base,
        rhs=counted("rhs", base.rhs),
        jac_x=counted("jac", base.jac_x),
        jac_p=counted("jac", base.jac_p),
    )


def test_model_calls_per_step(monkeypatch):
    # the Python loops' work per step; the compiled sweeps are covered below
    monkeypatch.setattr(kernel, "sweeps", lambda model: None)
    counts = Counter()
    model = _counted_fn(counts)
    grid = build_grid((0.0, 5.0), 0.25, np.empty(0))
    n = grid.n_steps
    theta = model.theta_ref()
    states = integrate_augmented(model, theta, grid)
    sweeps = {
        "state": (lambda: integrate_augmented(model, theta, grid), 4, 0),
        "batch": (lambda: integrate_augmented(model, np.stack([theta, 1.01 * theta]), grid), 4, 0),
        "sensitivity": (lambda: integrate_augmented_sensitivity(model, theta, grid), 4, 8),
        "adjoint": (
            lambda: integrate_adjoint(model, theta, grid, states, _final_impulse(grid, model.d, 1.0)),
            3,
            8,
        ),
    }
    for name, (sweep, rhs_per_step, jac_per_step) in sweeps.items():
        counts.clear()
        sweep()
        assert (counts["rhs"], counts["jac"]) == (rhs_per_step * n, jac_per_step * n), name


def test_every_python_forward_step_is_one_stages_call(monkeypatch):
    # one copy of the tableau: the generic loop and _sweep both step through _stages
    integrate_module = importlib.import_module("hfda.integrate")
    monkeypatch.setattr(kernel, "sweeps", lambda model: None)
    calls = Counter()
    stages = integrate_module._stages

    def counted(*args, **kwargs):
        calls["stages"] += 1
        return stages(*args, **kwargs)

    monkeypatch.setattr(integrate_module, "_stages", counted)
    model = fitzhugh_nagumo()
    system = augment(model)
    grid = build_grid((0.0, 5.0), 0.25, np.empty(0))
    n = grid.n_steps
    theta = model.theta_ref()
    runs = {
        "integrate": lambda: integrate(system, theta, grid),
        "integrate_with_sensitivity": lambda: integrate_with_sensitivity(system, theta, grid),
        "state": lambda: integrate_augmented(model, theta, grid),
        "sensitivity": lambda: integrate_augmented_sensitivity(model, theta, grid),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls["stages"] == n, name


def test_compiled_sweeps_call_the_model_only_while_tracing():
    if kernel.sweeps(fitzhugh_nagumo()) is None:
        pytest.skip("no compiled kernel on this platform")
    totals = []
    for t_end in (5.0, 10.0):
        counts = Counter()
        model = _counted_fn(counts)  # new functions: traced afresh
        grid = build_grid((0.0, t_end), 0.25, np.empty(0))
        theta = model.theta_ref()
        for _ in range(2):
            states = integrate_augmented(model, theta, grid)
            integrate_augmented(model, np.stack([theta, 1.01 * theta]), grid)
            integrate_adjoint(model, theta, grid, states, _final_impulse(grid, model.d, 1.0))
        totals.append(dict(counts))
    # one state step (4 rhs) and one adjoint step (3 rhs, 4 jac_x, 4 jac_p)
    assert totals == [{"rhs": 7, "jac": 8}] * 2


# ---------------------------------------------------------------------------
# adjoint sweep
# ---------------------------------------------------------------------------


def test_adjoint_no_impulses_is_zero():
    model = fitzhugh_nagumo()
    grid = build_grid((0.0, 5.0), 0.25, np.empty(0))
    theta = model.theta_ref()
    states = integrate_augmented(model, theta, grid)
    chi0 = integrate_adjoint(model, theta, grid, states, np.zeros((len(grid.nodes), model.d)))
    assert np.array_equal(chi0, np.zeros(model.q))


def test_adjoint_scalar_closed_form():
    a, t_end, g = 0.7, 1.0, 2.0
    model = linear_system([[a]], [[0.0]], x0=[1.0], t_span=(0.0, t_end))
    grid = build_grid((0.0, t_end), t_end / 256, np.empty(0))
    theta = np.array([1.0, 0.0])
    states = integrate_augmented(model, theta, grid)
    chi0 = integrate_adjoint(model, theta, grid, states, _final_impulse(grid, model.d, g))
    expected = np.exp(a * t_end) * g
    assert abs(chi0[0] - expected) / expected <= 1e-8


def test_adjoint_transposes_forward_sensitivity():
    # sum of X(t_i)' g_i computed forward on the augmented system must equal
    # the physical-block backward sweep with the g_i injected as impulses
    model = get_model("van_der_pol")
    system = augment(model)
    grid = build_grid((0.0, 6.0), 0.1, np.empty(0))
    theta = model.theta_ref() * 1.05
    rng = np.random.default_rng(23)
    nodes = sorted(rng.choice(np.arange(1, grid.n_steps + 1), size=9, replace=False))
    impulses = np.zeros((len(grid.nodes), model.d))
    impulses[nodes] = rng.standard_normal((len(nodes), model.d))

    states, sens = integrate_with_sensitivity(system, theta, grid)
    forward = np.zeros(model.q)
    for j in nodes:
        forward += sens[j, : model.d].T @ impulses[j]
    states = states[:, : model.d]
    backward = integrate_adjoint(model, theta, grid, states, impulses)
    assert np.linalg.norm(forward - backward) <= 1e-8 * (1.0 + np.linalg.norm(forward))


def test_adjoint_rejects_wrong_shapes_on_both_paths(sweep_paths):
    model = fitzhugh_nagumo()
    grid = build_grid((0.0, 5.0), 0.25, np.empty(0))
    theta = model.theta_ref()
    states = integrate_augmented(model, theta, grid)
    impulses = np.ones((len(grid.nodes), model.d))
    wrong = [
        (theta[:-1], states, impulses),
        (theta, states[:-1], impulses),
        (theta, states[:, :1], impulses),
        (theta, states, impulses[:-1]),
        (theta, states, impulses.ravel()),  # as many doubles, flat
    ]
    for path in sweep_paths:
        for theta_in, states_in, impulses_in in wrong:
            with pytest.raises(ValueError, match="must have shape"):
                integrate_adjoint(model, theta_in, grid, states_in, impulses_in)
        with pytest.raises(TypeError):  # the node -> vector dict is gone
            integrate_adjoint(model, theta, grid, states, {grid.n_steps: np.ones(model.d)})
