from __future__ import annotations

import numpy as np
import pytest

from hfda.harness import ExperimentConfig, build_data, build_problem
from hfda.integrate import integrate_augmented_sensitivity, reset_step_count, step_count
from hfda.modify import ModificationScheme
from hfda.observe import gradient
from hfda.optimize import Problem
from hfda.stochastic import (
    ResidualSystem,
    SampleSet,
    Sampler,
    draw_simple,
    draw_stratified,
    draw_systematic,
    residual_system,
    round_half_away,
    stochastic_gradient,
)


def offsets_sample(n_obs, kappa, offset):
    idx = np.arange(offset, n_obs, kappa)
    return SampleSet(indices=idx, pi=np.full(len(idx), 1.0 / kappa))


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------


def test_systematic_draw_pi_and_size():
    rng = np.random.default_rng(0)
    s = draw_systematic(10, 5, rng)
    assert len(s) == 2
    assert np.all(s.pi == 0.2)
    assert s.indices[1] - s.indices[0] == 5


def test_systematic_kappa_one_keeps_everything():
    s = draw_systematic(7, 1, np.random.default_rng(1))
    assert np.array_equal(s.indices, np.arange(7))
    assert np.all(s.pi == 1.0)


def test_systematic_inclusion_probability_by_enumeration():
    # averaging the sampled-indicator over all offsets gives exactly 1/kappa
    n_obs, kappa = 23, 4
    counts = np.zeros(n_obs)
    for offset in range(kappa):
        counts[offsets_sample(n_obs, kappa, offset).indices] += 1
    assert np.array_equal(counts, np.ones(n_obs))


def test_systematic_rejects_bad_kappa():
    with pytest.raises(ValueError, match=r"sampling stride 11 must lie in \[1, 10\]"):
        draw_systematic(10, 11, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"sampling stride 0 must lie in \[1, 10\]"):
        draw_systematic(10, 0, np.random.default_rng(0))


def test_simple_draw_full_and_sorted():
    rng = np.random.default_rng(2)
    s = draw_simple(6, 6, rng)
    assert np.array_equal(s.indices, np.arange(6))
    assert np.all(s.pi == 1.0)
    s2 = draw_simple(100, 17, rng)
    assert np.all(np.diff(s2.indices) > 0)
    assert np.all(s2.pi == 0.17)


def test_simple_draw_frequencies():
    # m=1 of N=2: each index should appear about half the time (3 sigma)
    rng = np.random.default_rng(3)
    n_draws = 4000
    hits = sum(draw_simple(2, 1, rng).indices[0] for _ in range(n_draws))
    sigma = 0.5 * np.sqrt(n_draws)
    assert abs(hits - n_draws / 2) <= 3 * sigma


def test_simple_draw_range_errors():
    with pytest.raises(ValueError, match=r"sample size 0 must lie in \[1, 5\]"):
        draw_simple(5, 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"sample size 6 must lie in \[1, 5\]"):
        draw_simple(5, 6, np.random.default_rng(0))


def test_stratified_draw_windows_and_boundary():
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = draw_stratified(10, 4, rng)  # windows 0-3, 4-7, 8-9
        assert len(s) == 3
        assert 0 <= s.indices[0] < 4 <= s.indices[1] < 8 <= s.indices[2] < 10
        assert np.array_equal(s.pi, [0.25, 0.25, 0.5])


def test_stratified_rejects_bad_kappa():
    with pytest.raises(ValueError, match=r"sampling stride 11 must lie in \[1, 10\]"):
        draw_stratified(10, 11, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"sampling stride 0 must lie in \[1, 10\]"):
        draw_stratified(10, 0, np.random.default_rng(0))


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(indices=np.array([]), pi=np.array([]))
    with pytest.raises(ValueError):
        SampleSet(indices=np.array([2, 1]), pi=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        SampleSet(indices=np.array([0]), pi=np.array([1.5]))


def test_sampler_grid_policy():
    assert Sampler("systematic", kappa=2).coarse_grid
    assert Sampler("stratified", kappa=2).coarse_grid
    assert not Sampler("simple", kappa=3).coarse_grid


@pytest.mark.parametrize("kappa", [1, 3, 100, 2000, 5000])
def test_simple_sampler_keeps_one_observation_in_kappa(kappa):
    sample = Sampler("simple", kappa=kappa).draw(2000, np.random.default_rng(0))
    assert len(sample) == max(1, round_half_away(2000 / kappa))
    assert np.all(sample.pi == len(sample) / 2000)


def test_sampler_rejects_a_stride_below_one():
    with pytest.raises(ValueError, match="sampling stride 0 must be at least 1"):
        Sampler("simple", kappa=0)


# ---------------------------------------------------------------------------
# stochastic gradient
# ---------------------------------------------------------------------------


def test_full_sample_gradient_equals_full_gradient(fn_small):
    model, data, problem = fn_small
    theta = model.theta_ref() * 1.02
    ev_full = problem.gradient(theta)
    every = SampleSet(indices=np.arange(len(data)), pi=np.ones(len(data)))
    ev_s = stochastic_gradient(model, theta, data, every, problem.grid)
    assert np.array_equal(ev_full.grad, ev_s.grad)


def test_offset_average_is_unbiased_on_shared_grid(fn_small):
    # the inverse-probability weighting makes the offset average reproduce
    # the full gradient exactly; a common grid isolates the weighting
    # algebra from integration error
    model, data, problem = fn_small
    rng = np.random.default_rng(6)
    for kappa in (2, 5, 10):
        theta = model.theta_ref() * (1.0 + 0.05 * rng.standard_normal(model.q))
        full = gradient(model, theta, data, problem.grid).grad
        acc = np.zeros(model.q)
        for offset in range(kappa):
            s = offsets_sample(len(data), kappa, offset)
            acc += stochastic_gradient(model, theta, data, s, problem.grid).grad
        rel = np.linalg.norm(acc / kappa - full) / np.linalg.norm(full)
        assert rel <= 1e-12


def test_stochastic_gradient_forward_equals_adjoint(fn_small):
    model, data, problem = fn_small
    theta = model.theta_ref() * 0.98
    s = offsets_sample(len(data), 5, 2)
    grid = problem.sample_grid(s)
    gf = stochastic_gradient(model, theta, data, s, grid, mode="forward")
    ga = stochastic_gradient(model, theta, data, s, grid, mode="adjoint")
    assert np.linalg.norm(gf.grad - ga.grad) <= 1e-8 * (1.0 + np.linalg.norm(gf.grad))


def test_stochastic_gradient_rejects_empty_sample():
    with pytest.raises(ValueError):
        SampleSet(indices=np.array([], dtype=int), pi=np.array([]))


# ---------------------------------------------------------------------------
# cost contract
# ---------------------------------------------------------------------------


def test_systematic_gradient_runs_on_coarse_grid(fn_small):
    model, data, problem = fn_small
    kappa = 10
    theta = model.theta_ref()
    s = offsets_sample(len(data), kappa, 3)
    grid = problem.sample_grid(s, coarse=True)
    reset_step_count()
    stochastic_gradient(model, theta, data, s, grid)
    coarse_steps = step_count()
    assert coarse_steps <= len(data) // kappa + 1

    reset_step_count()
    problem.gradient(theta)
    assert step_count() >= len(data)


# ---------------------------------------------------------------------------
# residual system
# ---------------------------------------------------------------------------


def test_residuals_vanish_at_truth_noiseless(fn_small_noiseless):
    model, data, problem = fn_small_noiseless
    s = offsets_sample(len(data), 4, 1)
    rs = residual_system(model, model.theta_ref(), data, s, problem.grid)
    assert np.array_equal(rs.r, np.zeros(rs.n_rows))


def test_full_data_system_is_the_system_of_a_draw_of_everything():
    # Gauss-Newton fits the record as it is; weights scaled by 1/pi = 1
    # would give the same bits
    config = ExperimentConfig(model="fitzhugh_nagumo")
    model, data = build_data(config)
    problem = build_problem(config, model, data)
    every = SampleSet(indices=np.arange(len(data)), pi=np.ones(len(data)))
    full = problem.residual_system(model.theta_ref())
    drawn = residual_system(model, model.theta_ref(), data, every, problem.grid)
    for name in ("r", "d_matrix", "w_inv_blocks"):
        assert np.array_equal(getattr(full, name), getattr(drawn, name)), name


def test_score_identity(fn_small):
    model, data, problem = fn_small
    theta = model.theta_ref() * 1.03
    s = offsets_sample(len(data), 5, 0)
    grid = problem.sample_grid(s)
    rs = residual_system(model, theta, data, s, grid)
    g = stochastic_gradient(model, theta, data, s, grid).grad
    resid = rs.d_matrix.T @ rs.w_inv_apply(rs.r) + g
    assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(g))


def test_single_observation_scalar_blocks(fn_small):
    model, data, problem = fn_small
    s = SampleSet(indices=np.array([7]), pi=np.array([0.25]))
    rs = residual_system(model, model.theta_ref(), data, s, problem.grid)
    obs = data.model
    node = problem.grid.node_index(data.times[7:8])[0]
    from hfda.integrate import integrate_augmented

    x = integrate_augmented(model, model.theta_ref(), problem.grid)[node]
    expected_r = data.values[7] - obs.h_matrix @ x
    assert np.allclose(rs.r, expected_r, rtol=0, atol=0)
    assert rs.d_matrix.shape == (2, model.q)
    assert np.allclose(rs.w_inv_blocks[0], 4.0 * obs.v_inv)


def test_residual_rows_on_shared_times_follow_each_observation_node(fn_small):
    model, data, _ = fn_small
    shared = ModificationScheme("accumulate_upper", 0.1, 0).apply(data, model.t_span, 0.05)
    problem = Problem(model, shared, h=0.25)
    theta = model.theta_ref() * 1.03
    sample = offsets_sample(len(shared), 3, 1)
    rs = residual_system(model, theta, shared, sample, problem.grid)

    nodes = problem.grid.node_index(shared.times[sample.indices])
    assert len(np.unique(nodes)) < len(nodes)  # several sampled rows per node
    states, sens = integrate_augmented_sensitivity(model, theta, problem.grid)
    h_matrix = shared.model.h_matrix
    expected_r = [shared.values[i] - h_matrix @ states[j] for i, j in zip(sample.indices, nodes)]
    assert np.array_equal(rs.r, np.concatenate(expected_r))
    assert np.array_equal(rs.d_matrix, np.concatenate([h_matrix @ sens[j] for j in nodes]))


def test_residual_jacobian_is_stored_column_major(fn_small):
    # the Gauss-Newton and kSGD normal products take their roundoff from
    # the layout of D, so assembled and hand-built systems share one layout
    model, data, problem = fn_small
    s = offsets_sample(len(data), 5, 2)
    rs = residual_system(model, model.theta_ref(), data, s, problem.sample_grid(s))
    d = np.arange(12.0).reshape(6, 2)
    hand = ResidualSystem(r=np.zeros(6), d_matrix=d, w_inv_blocks=np.ones((6, 1, 1)))
    assert rs.d_matrix.flags.f_contiguous and rs.d_matrix.shape == (2 * len(s), model.q)
    assert hand.d_matrix.flags.f_contiguous and np.array_equal(hand.d_matrix, d)


def test_dense_weight_views_are_consistent():
    blocks = np.array([[[2.0]], [[4.0]]])
    rs = ResidualSystem(r=np.array([1.0, 2.0]), d_matrix=np.eye(2), w_inv_blocks=blocks)
    assert np.array_equal(rs.w_inv_apply(np.eye(2)), np.diag([2.0, 4.0]))
    assert np.array_equal(rs.w, np.diag([0.5, 0.25]))
    assert np.array_equal(rs.w_inv_apply(np.array([1.0, 1.0])), [2.0, 4.0])

    blocks = np.random.default_rng(3).standard_normal((4, 2, 2))
    rs = ResidualSystem(r=np.zeros(8), d_matrix=np.zeros((8, 1)), w_inv_blocks=blocks)
    expected = np.zeros((8, 8))
    for s, block in enumerate(blocks):
        expected[2 * s : 2 * s + 2, 2 * s : 2 * s + 2] = block
    assert np.array_equal(rs.w_inv_apply(np.eye(8)), expected)
    assert np.array_equal(rs.w[2:4, 2:4], np.linalg.inv(blocks[1]))
    assert np.count_nonzero(rs.w) == 16
