from __future__ import annotations

import dataclasses
import hashlib
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hfda.dynamics import MODEL_NAMES, fitzhugh_nagumo, get_model
from hfda.harness import ExperimentConfig, build_data, build_problem
from hfda import kernel
from hfda.integrate import (
    DivergenceError,
    build_grid,
    grid_from_times,
    integrate_augmented,
    integrate_loss_terms,
    reset_step_count,
    step_count,
)
from hfda.modify import accumulate_upper
from hfda.observe import (
    _EXP_M2,
    ObservationModel,
    ObservationSet,
    _loss_values,
    _weighted_loss_grads,
    gradient,
    identity_observation,
    ndtri,
    objective,
    objective_many,
    read_observations_csv,
    simulate_observations,
    write_observations_csv,
)
from hfda.optimize import Problem

GOLDEN = Path(__file__).parent / "data" / "golden_fn_observations.csv"


# ---------------------------------------------------------------------------
# observation model and loss
# ---------------------------------------------------------------------------


def loss(obs_model: ObservationModel, y, x_state) -> float:
    """0.5 * (y - Hx)' V^-1 (y - Hx) for a single observation, in matrix
    form: an oracle written independently of ``observe._loss_values``."""
    r = np.asarray(y, dtype=float) - obs_model.h_matrix @ np.asarray(x_state, dtype=float)
    return float(np.sum((r @ obs_model.v_inv) * r, axis=-1) * 0.5)


def loss_grad(obs_model: ObservationModel, y, x_state):
    """Derivative of ``loss`` with respect to the state: -H' V^-1 (y - Hx)."""
    r = np.asarray(y, dtype=float) - obs_model.h_matrix @ np.asarray(x_state, dtype=float)
    return -obs_model.h_matrix.T @ (obs_model.v_inv @ r)


def test_observation_model_rejects_bad_v():
    with pytest.raises(ValueError):
        ObservationModel(h_matrix=np.eye(2), v_matrix=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ObservationModel(h_matrix=np.eye(2), v_matrix=np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(ValueError):
        ObservationModel(h_matrix=np.array([[1.0, 0.0], [0.0, 0.0]]), v_matrix=np.eye(2))


def test_loss_zero_at_fit():
    obs = identity_observation(2, 0.5)
    x = np.array([0.4, -1.2])
    assert loss(obs, obs.h_matrix @ x, x) == 0.0


def test_loss_scalar_hand_value():
    obs = ObservationModel(h_matrix=np.array([[1.0]]), v_matrix=np.array([[1.0]]))
    assert loss(obs, np.array([2.0]), np.array([0.0])) == 2.0


def test_loss_quadratic_in_v_scale():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((2, 3))
    v = np.array([[2.0, 0.3], [0.3, 1.0]])
    y, x = rng.standard_normal(2), rng.standard_normal(3)
    base = loss(ObservationModel(h, v), y, x)
    scaled = loss(ObservationModel(h, 5.0 * v), y, x)
    assert np.isclose(scaled, base / 5.0, rtol=1e-14)


def test_loss_grad_zero_at_fit():
    obs = identity_observation(2, 0.3)
    x = np.array([1.0, 2.0])
    assert np.array_equal(loss_grad(obs, obs.h_matrix @ x, x), np.zeros(2))


def test_loss_grad_scalar_hand_value():
    obs = ObservationModel(h_matrix=np.array([[1.0]]), v_matrix=np.array([[1.0]]))
    assert loss_grad(obs, np.array([2.0]), np.array([0.0]))[0] == -2.0


def test_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 3))
    lw = rng.standard_normal((2, 2))
    obs = ObservationModel(h, lw @ lw.T + 2.0 * np.eye(2))
    y, x = rng.standard_normal(2), rng.standard_normal(3)
    g = loss_grad(obs, y, x)
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1e-7
        fd = (loss(obs, y, x + e) - loss(obs, y, x - e)) / 2e-7
        assert abs(g[j] - fd) <= 1e-7 * (1.0 + abs(g[j]))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_noiseless_limit_is_exact_transform(fn_small_noiseless):
    model, data, _ = fn_small_noiseless
    grid = grid_from_times(model.t_span[0], data.times)
    x = integrate_augmented(model, model.theta_ref(), grid)[grid.node_index(data.times)]
    assert np.array_equal(data.values, x @ data.model.h_matrix.T)


def test_simulate_truth_is_never_integrated_more_coarsely_than_h():
    model = fitzhugh_nagumo()
    obs_model = identity_observation(model.d, 0.1)
    with pytest.raises(DivergenceError):  # one step per period of 1.5
        simulate_observations(model, model.params_ref, obs_model, 1.5, seed=0)
    data = simulate_observations(model, model.params_ref, obs_model, 1.5, 0, noise=False, h=1.0)
    grid = build_grid(model.t_span, 1.0, data.times)
    x = integrate_augmented(model, model.theta_ref(), grid)[grid.node_index(data.times)]
    assert np.array_equal(data.values, x)
    # a period no coarser than h keeps one step per period
    fine = simulate_observations(model, model.params_ref, obs_model, 0.01, 3)
    fine_h = simulate_observations(model, model.params_ref, obs_model, 0.01, 3, h=1.0)
    assert np.array_equal(fine.values, fine_h.values)


def test_simulate_observation_count_matches_high_frequency_setup():
    model = fitzhugh_nagumo()
    data = simulate_observations(model, model.params_ref, identity_observation(2, 0.1), 0.01, seed=0)
    assert len(data) == 5000
    assert data.times[0] == 0.01
    assert data.times[-1] == 50.0


def test_simulate_same_seed_is_identical(fn_small):
    model, data, _ = fn_small
    again = simulate_observations(model, model.params_ref, data.model, 0.05, seed=42)
    assert np.array_equal(data.values, again.values)
    assert np.array_equal(data.times, again.times)


def test_simulate_different_seed_differs(fn_small):
    model, data, _ = fn_small
    other = simulate_observations(model, model.params_ref, data.model, 0.05, seed=43)
    assert not np.array_equal(data.values, other.values)


def test_golden_observations_regenerate():
    model = dataclasses.replace(fitzhugh_nagumo(), t_span=(0.0, 2.0))
    obs_model = identity_observation(2, 0.1)
    data = simulate_observations(model, model.params_ref, obs_model, 0.05, seed=2024)
    golden = read_observations_csv(GOLDEN, obs_model)
    assert len(golden) == len(data) == 40
    assert np.allclose(data.times, golden.times, rtol=0, atol=0)
    assert np.allclose(data.values, golden.values, rtol=1e-12, atol=1e-14)


def test_ndtri_is_bitwise_scipy():
    """The in-repo quantile gives scipy's bits on the centre, both tails, the
    z = 8 split, the exp(-2) branch points and the clamp at finfo.tiny."""
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(7)
    edges = []
    for b in (_EXP_M2, 1.0 - _EXP_M2):
        edges.extend(b + np.arange(-8, 9) * np.spacing(b))
        edges.extend([np.nextafter(b, 0.0), b, np.nextafter(b, 1.0)])
    u = np.concatenate(
        [
            np.maximum(rng.random(100_000), np.finfo(float).tiny),
            np.logspace(-300, -1, 20_000),
            1.0 - np.logspace(-16, -1, 20_000),
            edges,
            [np.finfo(float).tiny, 0.5, np.nextafter(1.0, 0.0)],
        ]
    )
    ours, theirs = ndtri(u), scipy_special.ndtri(u)
    assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))
    assert np.any(np.sqrt(-2.0 * np.log(u)) >= 8.0)  # the far tail is covered


# sha256 of the observation values ``build_data`` gave at seed 1234 with
# scipy.special.ndtri as the quantile function
SEED_1234_DATA_SHA256 = {
    "fitzhugh_nagumo": "4e6b991f9500d15cbabc9a603bf3a48575c7c641325d5c13062dce8ae43ad6ea",
    "lotka_volterra": "4691583b28cf41d18d8b14f940022f25775fc6f1c455c8e0343efb7945e28a64",
    "van_der_pol": "9bd0bff921c8c62a73e2d1c6fa1002516f1557d2fb0ddb4cbf3ca5cb48f9f1f2",
}


@pytest.mark.parametrize("name", sorted(SEED_1234_DATA_SHA256))
def test_shipped_data_is_bitwise_unchanged(name):
    _, data = build_data(ExperimentConfig(model=name, seed=1234))
    digest = hashlib.sha256(np.ascontiguousarray(data.values).tobytes()).hexdigest()
    assert digest == SEED_1234_DATA_SHA256[name]


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------


def test_objective_zero_at_truth_on_noiseless_data(fn_small_noiseless):
    model, data, problem = fn_small_noiseless
    assert problem.objective(model.theta_ref()) == 0.0


def test_objective_single_observation_reduces_to_loss(fn_small):
    model, data, _ = fn_small
    single = data.subset(np.array([10]))
    grid = build_grid(model.t_span, 0.25, single.times)
    val = objective(model, model.theta_ref(), single, grid)
    x = integrate_augmented(model, model.theta_ref(), grid)[grid.node_index(single.times)[0]]
    assert np.isclose(val, loss(single.model, single.values[0], x), rtol=1e-14)


def test_objective_matches_per_term_sum(fn_small):
    model, data, problem = fn_small
    theta = model.theta_ref() * 1.01
    x = integrate_augmented(model, theta, problem.grid)[problem.grid.node_index(data.times)]
    terms = np.array([loss(data.model, data.values[i], x[i]) for i in range(len(data))])
    assert problem.objective(theta) == np.sum(data.weights * terms)


def test_objective_many_matches_scalar_objective(fn_small):
    model, data, problem = fn_small
    thetas = np.array([model.theta_ref(), model.theta_ref() * 1.02, model.theta_ref() * 0.97])
    batch = problem.objective_many(thetas)
    singles = np.array([problem.objective(t) for t in thetas])
    assert np.array_equal(batch, singles)


def test_objective_nonnegative(fn_small):
    model, _, problem = fn_small
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = model.theta_ref() * (1.0 + 0.1 * rng.standard_normal(model.q))
        assert problem.objective(theta) >= 0.0


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_gradient_forward_equals_adjoint(name):
    model = get_model(name)
    short = dataclasses.replace(model, t_span=(model.t_span[0], model.t_span[0] + 4.0))
    data = simulate_observations(short, short.params_ref, identity_observation(2, 0.1), 0.1, seed=7)
    # ten observations share each of the upper times 1.0, 2.0, 3.0 and 4.0
    accumulated = accumulate_upper(data, np.array([1.0, 2.0, 3.0, 4.0]))
    assert len(accumulated.distinct_times()) == 4 < len(accumulated)
    rng = np.random.default_rng(5)
    for observed in (data, accumulated):
        grid = build_grid(short.t_span, 0.5, observed.distinct_times())
        for _ in range(3):
            theta = short.theta_ref() * (1.0 + 0.05 * rng.standard_normal(short.q))
            gf = gradient(short, theta, observed, grid, mode="forward")
            ga = gradient(short, theta, observed, grid, mode="adjoint")
            assert np.linalg.norm(gf.grad - ga.grad) <= 1e-8 * (1.0 + np.linalg.norm(gf.grad))


def test_gradient_matches_finite_differences(fn_small):
    model, data, problem = fn_small
    theta = model.theta_ref() * 1.03
    g = problem.gradient(theta).grad
    fd = np.empty_like(g)
    for j in range(model.q):
        e = np.zeros(model.q)
        e[j] = 1e-6 * (1.0 + abs(theta[j]))
        fd[j] = (problem.objective(theta + e) - problem.objective(theta - e)) / (2 * e[j])
    assert np.linalg.norm(g - fd) <= 1e-4 * (1.0 + np.linalg.norm(g))


def test_gradient_zero_at_truth_noiseless(fn_small_noiseless):
    model, _, problem = fn_small_noiseless
    g = problem.gradient(model.theta_ref())
    assert np.linalg.norm(g.grad) <= 1e-8
    assert g.value == 0.0


def test_gradient_value_matches_objective(fn_small):
    model, data, problem = fn_small
    theta = model.theta_ref() * 0.99
    assert problem.gradient(theta).value == problem.objective(theta)


def test_weights_scale_objective_terms(fn_small):
    model, data, problem = fn_small
    theta = model.theta_ref() * 1.01
    doubled = data.replace_weights(2.0 * data.weights)
    v1 = objective(model, theta, data, problem.grid)
    v2 = objective(model, theta, doubled, problem.grid)
    assert np.isclose(v2, 2.0 * v1, rtol=1e-14)


def test_zero_tau_diverges_at_the_first_node(sweep_paths):
    # tau = 0 divides by zero in the first stage; every entry point stops at
    # node 1 after one counted step
    model = fitzhugh_nagumo()
    data = simulate_observations(model, model.params_ref, identity_observation(2, 0.1), 0.1, seed=3)
    problem = Problem(model, data, h=1.0)
    theta = model.theta_ref()
    theta[5] = 0.0
    runs = {
        "objective": lambda: objective(model, theta, data, problem.grid),
        "forward": lambda: gradient(model, theta, data, problem.grid, mode="forward"),
        "adjoint": lambda: gradient(model, theta, data, problem.grid, mode="adjoint"),
        "residual_system": lambda: problem.residual_system(theta),
        "state": lambda: integrate_augmented(model, theta, problem.grid),
    }
    for path in sweep_paths:
        for name, run in runs.items():
            reset_step_count()
            with pytest.raises(DivergenceError) as err:
                run()
            assert (err.value.node_index, err.value.time) == (1, data.times[0]), (path, name)
            assert step_count() == 1, (path, name)


def test_objective_many_masks_a_diverging_row(sweep_paths):
    # at step 1.5 the reference trajectory blows up mid-span; a smaller
    # current ii keeps the second row finite
    model = fitzhugh_nagumo()
    times = 1.5 * np.arange(1, 34)
    data = ObservationSet(times=times, values=np.zeros((len(times), 2)), model=identity_observation(2, 0.1))
    grid = build_grid(model.t_span, 1.5, times)
    diverging = model.theta_ref()
    finite = model.theta_ref()
    finite[2] = 0.2
    for path in sweep_paths:
        with pytest.raises(DivergenceError):
            objective(model, diverging, data, grid)
        values = objective_many(model, np.array([diverging, finite]), data, grid)
        assert np.isnan(values[0]) and np.isfinite(values[1]), path
        assert np.isnan(objective_many(model, diverging[None], data, grid)[0]), path
        assert values[1] == objective(model, finite, data, grid), path


def test_a_batch_divides_by_zero_as_ieee_arithmetic_does(sweep_paths):
    # tau = 0: a batch, a batch of one included, is not checked; the row
    # goes non-finite at node 1 and objective_many masks it
    model = fitzhugh_nagumo()
    data = simulate_observations(model, model.params_ref, identity_observation(2, 0.1), 0.1, seed=3)
    grid = Problem(model, data, h=1.0).grid
    zero_tau = model.theta_ref()
    zero_tau[5] = 0.0
    states = {}
    for path in sweep_paths:
        values = objective_many(model, np.array([zero_tau, model.theta_ref()]), data, grid)
        assert np.isnan(values[0]) and np.isfinite(values[1]), path
        reset_step_count()
        states[path] = integrate_augmented(model, zero_tau[None], grid)
        assert step_count() == grid.n_steps, path
        assert np.all(np.isfinite(states[path][0])), path
        assert not np.any(np.isfinite(states[path][1:])), path
    assert np.array_equal(states["compiled"], states["python"], equal_nan=True)


# ---------------------------------------------------------------------------
# loss terms: the per-term definition and the compiled loss pass
# ---------------------------------------------------------------------------


def test_loss_terms_equal_the_matrix_form_oracle():
    # bitwise for an identity H and a diagonal V (every shipped config),
    # to roundoff for a general observation model
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4, 2))
    general = ObservationModel(np.array([[1.0, 0.3], [-0.2, 0.8]]), np.array([[0.04, 0.01], [0.01, 0.02]]))
    for obs, exact in ((identity_observation(2, 0.1), True), (general, False)):
        data = ObservationSet(
            times=np.arange(1.0, 7.0), values=rng.standard_normal((6, 2)), model=obs,
            weights=rng.uniform(0.5, 2.0, 6),
        )
        terms = _loss_values(data, x)
        assert terms.shape == (6, 4)
        oracle = np.array(
            [[data.weights[i] * loss(obs, data.values[i], x[i, k]) for k in range(4)] for i in range(6)]
        )
        if exact:
            assert np.array_equal(terms, oracle)
        else:
            assert np.allclose(terms, oracle, rtol=1e-13, atol=0)
        assert np.array_equal(_loss_values(data, x[:, 1]), terms[:, 1])


def test_weighted_loss_grads_match_the_oracle():
    rng = np.random.default_rng(4)
    obs = ObservationModel(np.array([[0.7, -0.4]]), np.array([[0.05]]))
    data = ObservationSet(
        times=np.arange(1.0, 6.0), values=rng.standard_normal((5, 1)), model=obs,
        weights=rng.uniform(0.5, 2.0, 5),
    )
    x = rng.standard_normal((5, 2))
    grads = _weighted_loss_grads(data, x)
    for i in range(5):
        expected = data.weights[i] * loss_grad(obs, data.values[i], x[i])
        assert np.allclose(grads[i], expected, rtol=1e-13, atol=1e-15)


def _loss_parity_cases(model):
    """Observation sets on a 4-unit span of ``model``: weights other than one,
    ten observations sharing each accumulated time, a 1 x 2 operator and a
    2 x 2 operator with correlated noise."""
    rng = np.random.default_rng(11)
    data = simulate_observations(model, model.params_ref, identity_observation(2, 0.1), 0.1, seed=7)
    weighted = data.replace_weights(rng.uniform(0.5, 2.0, len(data)))
    accumulated = accumulate_upper(weighted, np.array([1.0, 2.0, 3.0, 4.0]))
    assert len(accumulated.distinct_times()) == 4 < len(accumulated)
    projected = ObservationModel(np.array([[0.7, -0.4]]), np.array([[0.05]]))
    correlated = ObservationModel(np.array([[1.0, 0.3], [-0.2, 0.8]]), np.array([[0.04, 0.01], [0.01, 0.02]]))
    others = [
        simulate_observations(model, model.params_ref, obs, 0.1, seed=8).replace_weights(
            rng.uniform(0.5, 2.0, len(data))
        )
        for obs in (projected, correlated)
    ]
    return [weighted, accumulated, *others]


@pytest.mark.parametrize("scale", [1.0, 1.1])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_compiled_loss_terms_match_the_python_definition_bitwise(name, scale, sweep_paths):
    model = get_model(name)
    model = dataclasses.replace(model, t_span=(model.t_span[0], model.t_span[0] + 4.0))
    rng = np.random.default_rng(29)
    theta = scale * model.theta_ref()
    rows = theta + 0.01 * (1.0 + np.abs(theta)) * rng.standard_normal((52, model.q))
    cases = _loss_parity_cases(model)
    results = {}
    for path in sweep_paths:
        results[path] = []
        for data in cases:
            grid = build_grid(model.t_span, 0.5, data.distinct_times())
            idx = grid.node_index(data.times)
            for thetas in (theta, rows[:1], rows[:2], rows):
                terms = integrate_loss_terms(model, thetas, grid, data)
                oracle = _loss_values(data, integrate_augmented(model, thetas, grid)[idx])
                assert terms.shape == oracle.shape == (len(data),) + thetas.shape[:-1], path
                assert np.array_equal(terms, oracle), path
                results[path].append(terms)
    for compiled, python in zip(results["compiled"], results["python"]):
        assert np.array_equal(compiled, python)


def test_an_empty_observation_set_has_no_loss_terms(sweep_paths):
    model = fitzhugh_nagumo()
    data = ObservationSet(times=np.empty(0), values=np.empty((0, 2)), model=identity_observation(2, 0.1))
    grid = build_grid((0.0, 5.0), 0.25, data.times)
    theta = model.theta_ref()
    for path in sweep_paths:
        for thetas in (theta, np.stack([theta, 1.1 * theta])):
            reset_step_count()
            terms = integrate_loss_terms(model, thetas, grid, data)
            assert terms.shape == (0,) + thetas.shape[:-1], path
            assert step_count() == grid.n_steps, path


def test_loss_terms_reject_an_operator_of_the_wrong_width():
    model = fitzhugh_nagumo()
    data = ObservationSet(times=np.array([1.0]), values=np.zeros((1, 3)), model=identity_observation(3, 0.1))
    with pytest.raises(ValueError, match="width"):
        integrate_loss_terms(model, model.theta_ref(), build_grid((0.0, 2.0), 0.5, data.times), data)


# sha256 of ``objective_many`` at the seed-1234 data of each shipped config,
# at K rows theta_ref * (1 + 0.05 z) with z drawn by default_rng(1234).  The
# K=1 entries were captured while the terms were still computed from the
# whole batched trajectory with matrix products; the K=52 entries since each
# column is summed on its own, as ``objective`` sums its terms
SEED_1234_OBJECTIVE_MANY_SHA256 = {
    ("fitzhugh_nagumo", 1): "2cd6642a36218222710c01792df09d8760b59af88f2891cc52541387a079c5e5",
    ("fitzhugh_nagumo", 52): "2eb694a2af1ac2b8a9e77b92e8037898fc612d4d3e791a72f2dfc7d0c7adca5c",
    ("lotka_volterra", 1): "f16ff660989116d55987d68e2ced7280ea842c2b01286721c66f79801f3feb48",
    ("lotka_volterra", 52): "8ffe95c0cbba4749c192ad5158254f40892fc928f0c422fd8efa2d533615e3ef",
    ("van_der_pol", 1): "8b5431cd1a0512d215d707a744ff8c5e828ded4d368619ebbe64c1b91fe4e89f",
    ("van_der_pol", 52): "441194b9d77800b536ce835e13ab05142fe69aa274c9bddbdb12314e9534ec42",
}


def _seed_1234_problem(name):
    config = ExperimentConfig(model=name, seed=1234)
    model, data = build_data(config)
    return model, build_problem(config, model, data)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_objective_many_is_bitwise_unchanged(name, sweep_paths):
    model, problem = _seed_1234_problem(name)
    for path in sweep_paths:
        for k in (1, 52):
            z = np.random.default_rng(1234).standard_normal((k, model.q))
            values = problem.objective_many(model.theta_ref() * (1.0 + 0.05 * z))
            digest = hashlib.sha256(values.tobytes()).hexdigest()
            assert digest == SEED_1234_OBJECTIVE_MANY_SHA256[name, k], (path, k)
        theta = model.theta_ref()
        assert problem.gradient(theta).value == problem.objective(theta), path


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_row_of_objective_many_is_objective(name, sweep_paths):
    model, problem = _seed_1234_problem(name)
    for path in sweep_paths:
        for k in (1, 2, 52):
            z = np.random.default_rng(k).standard_normal((k, model.q))
            thetas = model.theta_ref() * (1.0 + 0.05 * z)
            singles = np.array([problem.objective(theta) for theta in thetas])
            assert np.array_equal(problem.objective_many(thetas), singles), (path, k)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_objective_many_allocates_only_the_loss_terms():
    # the compiled pass keeps no (n_nodes, K, d) trajectory: the (N, K)
    # terms are the only large allocation
    model, problem = _seed_1234_problem("lotka_volterra")
    assert kernel.sweeps(model) is not None
    n_obs, k = problem.n_obs, 52
    assert n_obs == 2000
    thetas = model.theta_ref() * (1.0 + 0.05 * np.random.default_rng(1234).standard_normal((k, model.q)))
    problem.objective_many(thetas)  # the kernel is built before tracing
    tracemalloc.start()
    try:
        problem.objective_many(thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n_obs * k * 8


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_round_trip_and_idempotence(fn_small, tmp_path):
    _, data, _ = fn_small
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_observations_csv(data, p1)
    write_observations_csv(data, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_observations_csv(p1, data.model)
    assert np.array_equal(back.times, data.times)
    assert np.array_equal(back.values, data.values)
    assert np.array_equal(back.weights, data.weights)


def test_observation_set_validation():
    obs = identity_observation(2, 0.1)
    with pytest.raises(ValueError):
        ObservationSet(times=np.array([1.0, 0.5]), values=np.zeros((2, 2)), model=obs)
    with pytest.raises(ValueError):
        ObservationSet(times=np.array([1.0]), values=np.zeros((1, 3)), model=obs)
    with pytest.raises(ValueError):
        ObservationSet(
            times=np.array([1.0]), values=np.zeros((1, 2)), model=obs, weights=np.array([-1.0])
        )
