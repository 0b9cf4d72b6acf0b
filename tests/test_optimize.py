from __future__ import annotations

import numpy as np
import pytest

from hfda import optimize
from hfda.dynamics import linear_system
from hfda.harness import ExperimentConfig, build_data, build_problem, resolve_theta0
from hfda.integrate import DivergenceError
from hfda.observe import GradientEvaluation, identity_observation, simulate_observations
from hfda.optimize import (
    KsgdState,
    Problem,
    SolverError,
    StepSchedule,
    _cho_solve,
    _spd_factor,
    ksgd_step,
    run_gauss_newton,
    run_gd,
    run_ksgd,
    run_sgd,
)
from hfda.stochastic import ResidualSystem, Sampler, SampleSet


class QuadraticProblem:
    """Gradient oracle for 0.5 * theta' A theta, enough for run_gd."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def gradient(self, theta):
        return GradientEvaluation(grad=self.a @ theta)


def random_spd(rng, n, shift=None):
    m = rng.standard_normal((n, n))
    return m @ m.T + (n if shift is None else shift) * np.eye(n)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule("polynomial", 0.1, alpha=0.5)
    with pytest.raises(ValueError):
        StepSchedule("polynomial", 0.1, alpha=1.5)
    with pytest.raises(ValueError):
        StepSchedule("constant", -1.0)
    with pytest.raises(ValueError):
        StepSchedule("geometric", 0.1)


def test_polynomial_schedule_square_sum_converges():
    # integral bound: sum eta_k^2 <= eta0^2 * (1 + k0 / (2 alpha - 1))
    for alpha in (0.6, 0.8, 1.0):
        sch = StepSchedule("polynomial", eta0=0.3, k0=25.0, alpha=alpha)
        bound = sch.eta0**2 * (1.0 + sch.k0 / (2 * alpha - 1.0))
        partial = np.cumsum([sch.eta(k) ** 2 for k in range(200_000)])
        assert partial[-1] <= bound
        assert np.all(np.diff(partial) >= 0)


def test_polynomial_schedule_sum_diverges():
    # eta_k >= eta0 * k0 / (k0 + k), whose partial sums grow like log k
    sch = StepSchedule("polynomial", eta0=1.0, k0=10.0, alpha=1.0)
    total, checkpoints = 0.0, []
    for k in range(100_000):
        total += sch.eta(k)
        if k in (100, 10_000, 99_999):
            checkpoints.append(total)
    assert checkpoints[1] >= checkpoints[0] + 1.0
    assert checkpoints[2] >= checkpoints[1] + 1.0


def test_constant_schedule():
    sch = StepSchedule("constant", 0.05)
    assert sch.eta(0) == sch.eta(1000) == 0.05


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------


def test_gd_quadratic_monotone_contraction():
    rng = np.random.default_rng(0)
    a = random_spd(rng, 3)
    eta = 1.9 / np.max(np.linalg.eigvalsh(a))
    trace = run_gd(QuadraticProblem(a), rng.standard_normal(3), StepSchedule("constant", eta), max_iter=50)
    norms = np.linalg.norm(trace.thetas, axis=1)
    assert np.all(np.diff(norms) < 0)


def test_gd_frozen_at_stationary_point():
    a = np.eye(2)
    trace = run_gd(QuadraticProblem(a), np.zeros(2), StepSchedule("constant", 0.5), max_iter=4)
    assert np.array_equal(trace.thetas, np.zeros((len(trace), 2)))


def test_gd_iteration_cap_semantics():
    a = np.eye(2)
    trace = run_gd(QuadraticProblem(a), np.ones(2), StepSchedule("constant", 0.1), budget=0.0, max_iter=5)
    assert trace.n_iterations == 5
    assert trace.terminated_by == "max_iter"
    assert np.array_equal(trace.iteration, np.arange(6))


def test_gd_requires_some_cap():
    with pytest.raises(ValueError):
        run_gd(QuadraticProblem(np.eye(2)), np.ones(2), StepSchedule("constant", 0.1))


def test_gd_budget_termination():
    a = np.eye(2)
    trace = run_gd(QuadraticProblem(a), np.ones(2), StepSchedule("constant", 0.01), budget=0.05)
    assert trace.terminated_by == "budget"
    assert np.all(np.diff(trace.wall_clock) >= 0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_gd_divergence_detection():
    a = np.eye(2)
    trace = run_gd(QuadraticProblem(a), np.ones(2), StepSchedule("constant", 1e12), max_iter=400)
    assert trace.terminated_by == "divergence"
    assert np.all(np.isfinite(trace.thetas))


class FailingProblem(QuadraticProblem):
    """A quadratic whose gradient fails on call ``at``: it raises
    ``DivergenceError``, or returns NaN."""

    def __init__(self, a, at, raises):
        super().__init__(a)
        self.at, self.raises, self.calls = at, raises, 0

    def gradient(self, theta):
        k, self.calls = self.calls, self.calls + 1
        if k != self.at:
            return super().gradient(theta)
        if self.raises:
            raise DivergenceError(0, 0.0)
        return GradientEvaluation(grad=np.full_like(theta, np.nan))


@pytest.mark.parametrize("record_every", [1, 2])
@pytest.mark.parametrize("at", [0, 3])
def test_gd_nonfinite_iterate_ends_as_divergence_error(at, record_every):
    # a step with a non-finite iterate never completed, as one that raised
    traces = [
        run_gd(
            FailingProblem(np.eye(2), at, raises),
            np.ones(2),
            StepSchedule("constant", 0.1),
            max_iter=10,
            record_every=record_every,
        )
        for raises in (True, False)
    ]
    for trace in traces:
        assert trace.terminated_by == "divergence"
        assert trace.n_iterations == at
        assert trace.iteration[-1] == at
    raised, nonfinite = traces
    assert np.array_equal(raised.iteration, nonfinite.iteration)
    assert np.array_equal(raised.thetas, nonfinite.thetas)


@pytest.mark.parametrize(
    "ends, caps, fails_at",
    [
        ("max_iter", dict(max_iter=7), None),
        ("budget", dict(budget=0.01), None),
        ("converged", dict(max_iter=1000, gtol=1e-3), None),
        ("divergence", dict(max_iter=10), 0),
        ("divergence", dict(max_iter=10), 5),
    ],
)
def test_the_last_record_is_the_last_iterate(ends, caps, fails_at):
    # every exit records the iterate after the last completed step, so the
    # trace's count is that record's iteration number; record_every = 4
    # puts most exits off the recording stride
    problem = FailingProblem(np.eye(2), -1 if fails_at is None else fails_at, raises=True)
    trace = run_gd(problem, np.ones(2), StepSchedule("constant", 0.1), record_every=4, **caps)
    completed = problem.calls - (fails_at is not None)
    theta = np.ones(2)
    for _ in range(completed):
        theta = theta - 0.1 * theta
    assert trace.terminated_by == ends
    assert trace.n_iterations == trace.iteration[-1] == completed
    assert np.array_equal(trace.final_theta, theta)
    assert np.array_equal(trace.iteration[:-1], np.arange(0, completed, 4))


def test_gd_convergence_stopping():
    a = np.eye(2)
    trace = run_gd(
        QuadraticProblem(a), np.ones(2), StepSchedule("constant", 0.5), max_iter=1000, gtol=1e-10
    )
    assert trace.terminated_by == "converged"
    assert np.linalg.norm(trace.final_theta) <= 1e-9


# ---------------------------------------------------------------------------
# stochastic gradient descent
# ---------------------------------------------------------------------------


def test_sgd_with_full_sampler_reproduces_gd(fn_small):
    model, data, problem = fn_small
    theta0 = model.theta_ref() * 1.02
    sch = StepSchedule("constant", 1e-5)
    tr_gd = run_gd(problem, theta0, sch, max_iter=6)
    tr_sgd = run_sgd(problem, theta0, sch, Sampler("systematic", kappa=1), max_iter=6, seed=0)
    assert np.array_equal(tr_gd.thetas, tr_sgd.thetas)


def test_sgd_fixed_seed_reproducible(fn_small):
    model, data, problem = fn_small
    theta0 = model.theta_ref() * 0.95
    sch = StepSchedule("polynomial", 2e-5, k0=50.0, alpha=1.0)
    a = run_sgd(problem, theta0, sch, Sampler("systematic", kappa=5), max_iter=40, seed=11)
    b = run_sgd(problem, theta0, sch, Sampler("systematic", kappa=5), max_iter=40, seed=11)
    assert np.array_equal(a.thetas, b.thetas)
    c = run_sgd(problem, theta0, sch, Sampler("systematic", kappa=5), max_iter=40, seed=12)
    assert not np.array_equal(a.thetas, c.thetas)


def test_sgd_converges_to_batch_minimizer_on_linear_gaussian():
    # scalar location problem: the batch minimizer is the sample mean
    model = linear_system(np.zeros((1, 1)), np.zeros((1, 1)), x0=np.array([1.0]), t_span=(0.0, 10.0))
    obs_model = identity_observation(1, 0.5)
    data = simulate_observations(model, np.zeros(1), obs_model, 0.1, seed=21)
    problem = Problem(model, data, h=1.0)
    batch_minimizer = float(np.mean(data.values))

    theta0 = np.array([batch_minimizer + 1.0, 0.0])
    sch = StepSchedule("polynomial", 1e-3, k0=50.0, alpha=1.0)
    trace = run_sgd(problem, theta0, sch, Sampler("systematic", kappa=10), max_iter=500, seed=5)
    assert abs(trace.final_theta[0] - batch_minimizer) < 0.1 * abs(theta0[0] - batch_minimizer)


# ---------------------------------------------------------------------------
# Gauss-Newton
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def linear_problem():
    rng = np.random.default_rng(13)
    model = linear_system(
        0.3 * rng.standard_normal((2, 2)),
        rng.standard_normal((2, 2)),
        x0=np.zeros(2),
        t_span=(0.0, 2.0),
    )
    obs_model = identity_observation(2, 0.4)
    data = simulate_observations(model, np.array([0.6, -0.3]), obs_model, 0.1, seed=3)
    return Problem(model, data, h=0.2)


def flow_jacobian_fd(problem, theta0):
    """Exact Jacobian of the affine observation map via central differences."""
    from hfda.integrate import integrate_augmented

    model, data, grid = problem.model, problem.data, problem.grid
    idx = grid.node_index(data.times)
    h_mat = data.model.h_matrix
    cols = []
    for j in range(model.q):
        e = np.zeros(model.q)
        e[j] = 1e-4
        plus = integrate_augmented(model, theta0 + e, grid)[idx] @ h_mat.T
        minus = integrate_augmented(model, theta0 - e, grid)[idx] @ h_mat.T
        cols.append(((plus - minus) / 2e-4).reshape(-1))
    return np.stack(cols, axis=1)


def test_gauss_newton_one_step_exact_on_affine(linear_problem):
    rng = np.random.default_rng(7)
    theta0 = rng.standard_normal(4)
    trace = run_gauss_newton(linear_problem, theta0, damping_rel=0.0, max_iter=1)

    # independent oracle: normal equations on the finite-difference Jacobian
    # (exact for an affine flow), V = sigma^2 I cancels in the solve
    d_mat = flow_jacobian_fd(linear_problem, theta0)
    from hfda.integrate import integrate_augmented

    idx = linear_problem.grid.node_index(linear_problem.data.times)
    pred = integrate_augmented(linear_problem.model, theta0, linear_problem.grid)[idx]
    r0 = (linear_problem.data.values - pred @ linear_problem.data.model.h_matrix.T).reshape(-1)
    oracle = theta0 + np.linalg.solve(d_mat.T @ d_mat, d_mat.T @ r0)
    assert np.linalg.norm(trace.final_theta - oracle) <= 1e-7 * (1 + np.linalg.norm(oracle))


def test_gauss_newton_zero_residual_fixed_point(fn_small_noiseless):
    model, data, problem = fn_small_noiseless
    trace = run_gauss_newton(problem, model.theta_ref(), damping_rel=0.0, max_iter=1)
    assert np.array_equal(trace.final_theta, model.theta_ref())


def test_gauss_newton_damping_shrinks_step(linear_problem):
    theta0 = np.ones(4)
    deltas = []
    for rel in (1e-1, 1e2, 1e5):
        trace = run_gauss_newton(linear_problem, theta0, damping_rel=rel, max_iter=1)
        deltas.append(np.linalg.norm(trace.final_theta - theta0))
    assert deltas[0] > deltas[1] > deltas[2]
    assert deltas[2] <= 1e-4


def test_gauss_newton_reaches_stationarity(fn_small):
    # the short window leaves (a, b, tau) nearly unidentifiable, so only
    # stationarity and descent are asserted, not proximity to the truth
    model, data, problem = fn_small
    trace = run_gauss_newton(problem, model.theta_ref(), max_iter=25, gtol=1e-2)
    assert trace.terminated_by == "converged"
    assert problem.objective(trace.final_theta) < problem.objective(model.theta_ref())
    assert np.max(np.abs(problem.gradient(trace.final_theta).grad)) <= 1e-2


def test_cholesky_solve_matches_scipy():
    """The numpy factor-and-solve agrees with LAPACK's potrf/potrs through
    scipy to roundoff on well-conditioned matrices and on matrix right-hand
    sides, and a matrix that is not positive definite raises SolverError."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    for q in range(1, 7):
        m = random_spd(rng, q)
        b = rng.standard_normal((q, 3))
        ours = _cho_solve(_spd_factor(m, "test"), b)
        theirs = scipy_linalg.cho_solve(scipy_linalg.cho_factor(m, lower=True), b)
        assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-14)
    with pytest.raises(SolverError, match="test: matrix is not positive definite"):
        _spd_factor(np.diag([1.0, -1e-3]), "test")


def test_gauss_newton_singular_without_damping():
    # unobserved parameter direction (B = 0) makes the normal matrix singular
    model = linear_system(np.zeros((1, 1)), np.zeros((1, 1)), x0=np.array([0.5]), t_span=(0.0, 1.0))
    obs_model = identity_observation(1, 0.3)
    data = simulate_observations(model, np.zeros(1), obs_model, 0.25, seed=1)
    problem = Problem(model, data, h=0.25)
    with pytest.raises(SolverError, match="damping"):
        run_gauss_newton(problem, np.array([0.0, 0.0]), damping_rel=0.0, max_iter=1)
    # the default damping keeps the thinned/rank-deficient system solvable
    trace = run_gauss_newton(problem, np.array([0.0, 0.0]), max_iter=1)
    assert np.all(np.isfinite(trace.final_theta))


# ---------------------------------------------------------------------------
# Kalman-based steps
# ---------------------------------------------------------------------------


def scalar_rs(y, d=1.0, v=1.0):
    return ResidualSystem(
        r=np.array([y]), d_matrix=np.array([[d]]), w_inv_blocks=np.array([[[1.0 / v]]])
    )


def test_ksgd_step_scalar_hand_values():
    state = KsgdState.initial(np.zeros(1), 1)
    new = ksgd_step(state, scalar_rs(3.0), form="information")
    assert np.isclose(new.theta[0], 1.5, rtol=1e-14)
    assert np.isclose(new.c_inv[0, 0], 2.0, rtol=1e-14)


def test_ksgd_step_zero_residual_keeps_theta_contracts_c():
    state = KsgdState.initial(np.array([0.7]), 1)
    new = ksgd_step(state, scalar_rs(0.0), form="information")
    assert new.theta[0] == 0.7
    assert new.c_inv[0, 0] == 2.0


def test_ksgd_information_and_covariance_forms_agree():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        q = int(rng.integers(1, 7))
        m = int(rng.integers(1, 11))
        d = rng.standard_normal((m, q))
        w_blocks = np.array([[[float(rng.uniform(0.5, 2.0))]] for _ in range(m)])
        rs = ResidualSystem(r=rng.standard_normal(m), d_matrix=d, w_inv_blocks=1.0 / w_blocks)
        c = random_spd(rng, q)
        theta = rng.standard_normal(q)
        t_info = ksgd_step(KsgdState(theta, np.linalg.inv(c), None, 0), rs, "information").theta
        t_cov = ksgd_step(KsgdState(theta, None, c, 0), rs, "covariance").theta
        worst = max(worst, np.linalg.norm(t_info - t_cov) / (1.0 + np.linalg.norm(t_info)))
    assert worst <= 1e-10


def test_ksgd_precision_eigenvalues_nondecreasing():
    rng = np.random.default_rng(29)
    state = KsgdState.initial(np.zeros(4), 4)
    prev = np.linalg.eigvalsh(state.c_inv)
    for _ in range(10):
        m = int(rng.integers(1, 6))
        rs = ResidualSystem(
            r=rng.standard_normal(m),
            d_matrix=rng.standard_normal((m, 4)),
            w_inv_blocks=np.array([[[1.0]]] * m),
        )
        state = ksgd_step(state, rs, form="information")
        current = np.linalg.eigvalsh(state.c_inv)
        assert np.all(current >= prev - 1e-10)
        prev = current


def test_ksgd_sweep_matches_recursive_least_squares_closed_form():
    # one pass over disjoint unit-probability batches of an affine problem
    # equals the identity-prior generalized least squares solution
    rng = np.random.default_rng(31)
    for q in range(1, 7):
        rows = 3 * q + 2
        d_full = rng.standard_normal((rows, q))
        y = rng.standard_normal(rows)
        theta0 = rng.standard_normal(q)

        state = KsgdState.initial(theta0, q)
        for start in range(0, rows, 3):
            sl = slice(start, min(start + 3, rows))
            d_b = d_full[sl]
            r_b = y[sl] - d_b @ state.theta
            rs = ResidualSystem(
                r=r_b, d_matrix=d_b, w_inv_blocks=np.array([[[1.0]]] * d_b.shape[0])
            )
            state = ksgd_step(state, rs, form="information")

        r0 = y - d_full @ theta0
        oracle = theta0 + np.linalg.solve(d_full.T @ d_full + np.eye(q), d_full.T @ r0)
        assert np.linalg.norm(state.theta - oracle) <= 1e-8 * (1.0 + np.linalg.norm(oracle))


def test_ksgd_sweep_of_linear_ode_matches_generalized_least_squares(linear_problem):
    # one pass of kSGD over disjoint unit-probability batches, with residual
    # systems assembled from the integrated linear ODE, lands on the
    # identity-prior GLS solution; the oracle uses only finite differences
    # of the (affine) flow and the data
    rng = np.random.default_rng(17)
    theta0 = rng.standard_normal(4)
    data = linear_problem.data
    d_mat = flow_jacobian_fd(linear_problem, theta0)
    from hfda.integrate import integrate_augmented

    idx = linear_problem.grid.node_index(data.times)
    pred = integrate_augmented(linear_problem.model, theta0, linear_problem.grid)[idx]
    r0 = (data.values - pred @ data.model.h_matrix.T).reshape(-1)
    w_inv = np.kron(np.diag(data.weights), data.model.v_inv)
    gls = theta0 + np.linalg.solve(d_mat.T @ w_inv @ d_mat + np.eye(4), d_mat.T @ w_inv @ r0)

    for form in ("information", "covariance"):
        state = KsgdState.initial(theta0, 4)
        for batch in np.array_split(np.arange(linear_problem.n_obs), 6):
            sample = SampleSet(indices=batch, pi=np.ones(len(batch)))
            state = ksgd_step(state, linear_problem.residual_system(state.theta, sample), form=form)
        assert np.linalg.norm(state.theta - gls) <= 1e-8 * (1.0 + np.linalg.norm(gls)), form


def test_run_ksgd_fixed_point_at_truth(fn_small_noiseless):
    # a stride-1 systematic draw keeps every observation and integrates on
    # the same grid the data was generated on, so every residual is exactly
    # zero and the iterate never moves
    model, data, problem = fn_small_noiseless
    trace = run_ksgd(problem, model.theta_ref(), Sampler("systematic", kappa=1), max_iter=4, seed=2)
    assert np.array_equal(trace.final_theta, model.theta_ref())
    # a coarse systematic grid re-introduces truncation-scale residuals but
    # must stay in the truncation neighborhood
    trace2 = run_ksgd(problem, model.theta_ref(), Sampler("systematic", kappa=5), max_iter=8, seed=2)
    assert np.linalg.norm(trace2.final_theta - model.theta_ref()) <= 1e-3


def test_run_ksgd_auto_form_covers_covariance_regime(linear_problem):
    # single-observation draws stack 2 residual rows against 4 estimated
    # components, so the auto rule selects the Woodbury form each iteration
    n_obs = linear_problem.n_obs
    theta0 = np.zeros(4)
    trace = run_ksgd(
        linear_problem, theta0, Sampler("systematic", kappa=n_obs), max_iter=12, seed=3
    )
    assert trace.n_iterations == 12
    assert np.all(np.isfinite(trace.thetas))
    assert linear_problem.objective(trace.final_theta) < linear_problem.objective(theta0)


def test_run_ksgd_auto_form_keeps_one_matrix_on_the_shipped_lv_run(monkeypatch):
    # the shipped LV draws stack 40 residual rows against 6 components, so
    # "auto" settles on the information form and then updates C^-1 alone
    config = ExperimentConfig(model="lotka_volterra")
    model, data = build_data(config)
    problem = build_problem(config, model, data)
    theta0 = resolve_theta0(config, model)
    sampler = Sampler("systematic", kappa=100)
    states = []

    def recording(state, rs, form):
        states.append(ksgd_step(state, rs, form))
        return states[-1]

    monkeypatch.setattr(optimize, "ksgd_step", recording)
    auto = run_ksgd(problem, theta0, sampler, form="auto", max_iter=50, seed=5)
    information = run_ksgd(problem, theta0, sampler, form="information", max_iter=50, seed=5)
    assert auto.n_iterations == information.n_iterations == 50
    assert np.array_equal(auto.thetas, information.thetas)
    assert len(states) == 100
    assert all(state.c is None and state.c_inv.shape == (6, 6) for state in states)


def test_run_ksgd_seed_reproducible(fn_small):
    model, data, problem = fn_small
    theta0 = model.theta_ref() * 1.01
    a = run_ksgd(problem, theta0, Sampler("systematic", kappa=5), max_iter=20, seed=4)
    b = run_ksgd(problem, theta0, Sampler("systematic", kappa=5), max_iter=20, seed=4)
    assert np.array_equal(a.thetas, b.thetas)


def test_run_ksgd_improves_noisy_fit(fn_small):
    model, data, problem = fn_small
    theta0 = model.theta_ref() * np.array([1.1, 0.9, 1.2, 1.1, 0.9, 1.05])
    trace = run_ksgd(problem, theta0, Sampler("systematic", kappa=5), max_iter=30, seed=6)
    assert problem.objective(trace.final_theta) < problem.objective(theta0)


def test_ksgd_form_requirements():
    state = KsgdState(np.zeros(1), None, None, 0)
    with pytest.raises(SolverError):
        ksgd_step(state, scalar_rs(1.0), form="information")
    with pytest.raises(ValueError):
        ksgd_step(KsgdState.initial(np.zeros(1), 1), scalar_rs(1.0), form="fancy")
