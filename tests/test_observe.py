from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from hfda.dynamics import MODEL_NAMES, fitzhugh_nagumo, get_model
from hfda.harness import ExperimentConfig, build_data
from hfda.integrate import DivergenceError, build_grid, reset_step_count, step_count
from hfda.modify import accumulate_upper
from hfda.observe import (
    _EXP_M2,
    ObservationModel,
    ObservationSet,
    gradient,
    identity_observation,
    loss,
    loss_grad,
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
    from hfda.integrate import grid_from_times, integrate_augmented

    model, data, _ = fn_small_noiseless
    grid = grid_from_times(model.t_span[0], data.times)
    x = integrate_augmented(model, model.theta_ref(), grid)[grid.node_index(data.times)]
    assert np.array_equal(data.values, x @ data.model.h_matrix.T)


def test_simulate_truth_is_never_integrated_more_coarsely_than_h():
    from hfda.integrate import integrate_augmented

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
    from hfda.integrate import integrate_augmented

    x = integrate_augmented(model, model.theta_ref(), grid)[grid.node_index(single.times)[0]]
    assert np.isclose(val, loss(single.model, single.values[0], x), rtol=1e-14)


def test_objective_matches_per_term_sum(fn_small):
    model, data, problem = fn_small
    theta = model.theta_ref() * 1.01
    from hfda.integrate import integrate_augmented

    x = integrate_augmented(model, theta, problem.grid)[problem.grid.node_index(data.times)]
    terms = np.array([loss(data.model, data.values[i], x[i]) for i in range(len(data))])
    assert problem.objective(theta) == np.sum(data.weights * terms)


def test_objective_many_matches_scalar_objective(fn_small):
    # identical trajectories; only the final reduction tree differs (ulps)
    model, data, problem = fn_small
    thetas = np.array([model.theta_ref(), model.theta_ref() * 1.02, model.theta_ref() * 0.97])
    batch = problem.objective_many(thetas)
    singles = np.array([problem.objective(t) for t in thetas])
    assert np.allclose(batch, singles, rtol=1e-13, atol=0)


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
            assert gf.n_terms == ga.n_terms == len(observed)


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
        assert np.isclose(values[1], objective(model, finite, data, grid), rtol=1e-13, atol=0), path


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
