from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from hfda import harness
from hfda.dynamics import fitzhugh_nagumo
from hfda.harness import (
    ExperimentConfig,
    build_data,
    build_problem,
    check_model_jacobians,
    derive_seed,
    reference_minimizer,
    relative_error,
    replay_trace,
    resolve_theta0,
)
from hfda.optimize import RunTrace, SolverError, StepSchedule, run_gauss_newton, run_gd


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    # a reduced-span FN instance keeps harness tests fast
    return ExperimentConfig(
        model="fitzhugh_nagumo",
        seed=321,
        output_dir=str(tmp_path_factory.mktemp("harness")),
        obs_period=0.05,
        h=0.25,
    )


def test_relative_error_arithmetic():
    values = {(0.0,): 4.0, (1.0,): 8.0}
    fn = lambda theta: values[tuple(np.atleast_1d(theta))]
    assert relative_error(fn, np.array([0.0]), np.array([0.0])) == 0.0
    assert relative_error(fn, np.array([1.0]), np.array([0.0])) == 1.0


def test_relative_error_rejects_nonpositive_reference():
    with pytest.raises(ValueError):
        relative_error(lambda theta: 0.0, np.zeros(1), np.zeros(1))


def test_a_config_built_in_code_needs_a_cap_its_runs_can_reach():
    # the rule of optimize._run_loop, so a NaN or infinite budget fails
    # before the reference fit, as it does at parse time
    for section in ("solver", "race"):
        for budget in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=rf"\[{section}\] budget or \[{section}\] max_iter"):
                ExperimentConfig(model="fitzhugh_nagumo", **{f"{section}_budget": budget})
        # a negative budget means no time cap
        capped = {f"{section}_budget": -1.0, f"{section}_max_iter": 3}
        assert getattr(ExperimentConfig(model="fitzhugh_nagumo", **capped), f"{section}_budget") == -1.0


def test_derive_seed_stable_and_distinct():
    a = derive_seed(1234, "observation")
    assert a == derive_seed(1234, "observation")
    assert a != derive_seed(1234, "sgd")
    assert a != derive_seed(1235, "observation")


def test_resolve_theta0_policies(small_config):
    model = fitzhugh_nagumo()
    ref = resolve_theta0(dataclasses.replace(small_config, theta0_policy="reference"), model)
    assert np.array_equal(ref, model.theta_ref())
    pert = resolve_theta0(small_config, model)
    assert pert.shape == ref.shape and not np.array_equal(pert, ref)
    again = resolve_theta0(small_config, model)
    assert np.array_equal(pert, again)
    explicit = dataclasses.replace(
        small_config, theta0_policy="explicit", theta0_values=tuple(range(6))
    )
    assert np.array_equal(resolve_theta0(explicit, model), np.arange(6.0))


def test_config_fills_model_defaults():
    cfg = ExperimentConfig(model="lotka_volterra", seed=1)
    assert cfg.h == 0.5
    assert cfg.obs_period == 0.005
    assert cfg.obs_sigma == 0.1
    assert cfg.solver_kappa is None  # run_solver derives an unset stride
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.h = 1.0
    with pytest.raises(ValueError):
        ExperimentConfig(model="unknown_model", seed=1)


def test_replaced_period_rescales_the_default_kappa():
    # the stride is derived when a solver runs, so a replaced period is seen
    config = dataclasses.replace(ExperimentConfig(model="fitzhugh_nagumo"), obs_period=0.05)
    model, data = build_data(config)
    problem = build_problem(config, model, data)
    _, hyper = harness.run_solver(
        config, "sgd", problem, model.theta_ref(), budget=0.0, max_iter=1, record_every=1
    )
    assert hyper["kappa"] == 10


# sha256 of the 20 recorded iterates of each solver on the seed-1234 LV data,
# with the noise from NormalDist().inv_cdf
SIMPLE_SAMPLER_RUN_SHA256 = {
    "sgd": "55bf66dea32a8f2975767a8a83c6f9c3305846cac4f4831c8653e07695206f4b",
    "ksgd": "87c177918fb8e41aeefa05d89a3fb350882045812aea7cec4aeeb5de3d51685a",
}


@pytest.mark.parametrize("solver", sorted(SIMPLE_SAMPLER_RUN_SHA256))
def test_simple_sampler_runs_keep_their_bits_on_the_shipped_lv_data(solver):
    # kappa = 100 on N = 2000: every simple draw keeps 20 observations
    config = ExperimentConfig(model="lotka_volterra", solver_sampler="simple")
    model, data = build_data(config)
    problem = build_problem(config, model, data)
    trace, hyper = harness.run_solver(
        config, solver, problem, resolve_theta0(config, model), budget=0.0, max_iter=20, record_every=1
    )
    assert hyper["kappa"] == 100 and trace.n_iterations == 20
    assert hashlib.sha256(trace.thetas.tobytes()).hexdigest() == SIMPLE_SAMPLER_RUN_SHA256[solver]


# sha256 of the seed-1234 reference minimizer theta_hat of each config,
# fitted with no cache on the noise from NormalDist().inv_cdf
SEED_1234_REFERENCE_SHA256 = {
    "fitzhugh_nagumo": "c2d253ef5c9362930768d9b6f824d8316aa603257c3d5cb925314b76ed8f48af",
    "lotka_volterra": "3861eb98c3e5d0f6ca7f3d9903cfc2468032d4c41a216464e96220663e103ca8",
}


@pytest.mark.parametrize("name", sorted(SEED_1234_REFERENCE_SHA256))
def test_reference_fit_keeps_its_bits(name):
    config = ExperimentConfig(model=name, seed=1234)
    model, data = build_data(config)
    theta_hat, _ = reference_minimizer(config, build_problem(config, model, data))
    assert hashlib.sha256(theta_hat.tobytes()).hexdigest() == SEED_1234_REFERENCE_SHA256[name]


def test_gauss_newton_from_the_race_start_keeps_its_bits():
    config = ExperimentConfig(model="van_der_pol", seed=1234)
    model, data = build_data(config)
    trace, _ = harness.run_solver(
        config, "gn", build_problem(config, model, data), resolve_theta0(config, model), budget=0.0,
        max_iter=2, record_every=1, gtol=config.solver_gtol,
    )
    assert trace.terminated_by == "max_iter" and trace.n_iterations == 2
    digest = hashlib.sha256(trace.thetas.tobytes()).hexdigest()
    assert digest == "91d5020eec235576772ef4774aaa65304e5e1d70b3ab93dff73efe6a3549f471"


def test_reference_minimizer_cached(small_config, tmp_path):
    model, data = build_data(small_config)
    problem = build_problem(small_config, model, data)
    cfg = dataclasses.replace(small_config, ref_gtol=1e-2, ref_max_iter=20)
    theta1, g1 = reference_minimizer(cfg, problem, cache_dir=tmp_path)
    cache_files = list(tmp_path.glob("reference_*.json"))
    assert len(cache_files) == 1
    theta2, g2 = reference_minimizer(cfg, problem, cache_dir=tmp_path)
    assert np.array_equal(theta1, theta2)
    assert g1 == g2


def test_replay_trace_of_reference_is_zero(small_config, tmp_path):
    model, data = build_data(small_config)
    problem = build_problem(small_config, model, data)
    cfg = dataclasses.replace(small_config, ref_gtol=1e-2, ref_max_iter=20)
    theta_hat, g_ref = reference_minimizer(cfg, problem, cache_dir=tmp_path)
    trace = RunTrace(
        wall_clock=np.array([0.0, 0.5]),
        iteration=np.array([0, 1]),
        thetas=np.array([theta_hat, theta_hat]),
        budget=1.0,
        terminated_by="max_iter",
    )
    times, errors = replay_trace(trace, problem, theta_hat)
    assert np.array_equal(errors, np.zeros(2))


def test_replay_trace_singleton_and_term_for_term(small_config, tmp_path):
    model, data = build_data(small_config)
    problem = build_problem(small_config, model, data)
    cfg = dataclasses.replace(small_config, ref_gtol=1e-2, ref_max_iter=20)
    theta_hat, g_ref = reference_minimizer(cfg, problem, cache_dir=tmp_path)

    theta0 = resolve_theta0(small_config, model)
    trace = run_gd(problem, theta0, StepSchedule("constant", 1e-7), max_iter=5)
    times, errors = replay_trace(trace, problem, theta_hat)
    assert len(times) == len(trace)
    # independent evaluation path: one scalar objective call per iterate
    g_hat = problem.objective(theta_hat)
    direct = np.array([(problem.objective(t) - g_hat) / g_hat for t in trace.thetas])
    assert np.array_equal(errors, direct)

    single = RunTrace(
        wall_clock=np.array([0.0]),
        iteration=np.array([0]),
        thetas=theta0[None],
        budget=0.0,
        terminated_by="max_iter",
    )
    times1, errors1 = replay_trace(single, problem, theta_hat)
    assert len(times1) == 1


def test_replay_drops_nonfinite_rows(small_config, tmp_path):
    model, data = build_data(small_config)
    problem = build_problem(small_config, model, data)
    cfg = dataclasses.replace(small_config, ref_gtol=1e-2, ref_max_iter=20)
    theta_hat, g_ref = reference_minimizer(cfg, problem, cache_dir=tmp_path)
    bad = theta_hat.copy()
    bad[0] = 80.0  # cubic blow-up under the full-span integration
    trace = RunTrace(
        wall_clock=np.array([0.0, 0.4]),
        iteration=np.array([0, 1]),
        thetas=np.array([theta_hat, bad]),
        budget=1.0,
        terminated_by="max_iter",
    )
    times, errors = replay_trace(trace, problem, theta_hat)
    assert len(times) == 1
    assert np.all(np.isfinite(errors))


def test_reference_cache_from_an_older_format_is_not_read(small_config, tmp_path, monkeypatch):
    config = small_config  # a fit that converges, so the new format is written
    model, data = build_data(config)
    problem = build_problem(config, model, data)
    monkeypatch.setattr(harness, "REFERENCE_FORMAT", harness.REFERENCE_FORMAT - 1)
    old_key = harness._reference_key(config)
    monkeypatch.undo()
    assert old_key != harness._reference_key(config)
    stale = {"key": old_key, "theta": [9.0] * model.q, "objective": 1.0, "model": config.model}
    (tmp_path / f"reference_{old_key}.json").write_text(json.dumps(stale))
    theta_hat, _ = reference_minimizer(config, problem, cache_dir=tmp_path)
    assert not np.array_equal(theta_hat, stale["theta"])
    assert (tmp_path / f"reference_{harness._reference_key(config)}.json").exists()


def test_reference_cache_holds_converged_fits_only(small_config, tmp_path):
    model, data = build_data(small_config)
    problem = build_problem(small_config, model, data)
    capped = dataclasses.replace(small_config, ref_max_iter=1)
    theta_hat, g_ref = reference_minimizer(capped, problem, cache_dir=tmp_path)
    assert theta_hat.shape == (model.q,) and np.isfinite(g_ref)
    assert not list(tmp_path.glob("reference_*.json"))

    reference_minimizer(small_config, problem, cache_dir=tmp_path)
    (cache,) = tmp_path.glob("reference_*.json")
    payload = json.loads(cache.read_text())
    assert payload["terminated_by"] == "converged"
    assert 1 <= payload["iterations"] <= small_config.ref_max_iter


def test_both_derivative_modes_read_one_reference_cache(small_config, tmp_path, monkeypatch):
    # Gauss-Newton always takes the forward tangent, so the mode does not change the fit
    model, data = build_data(small_config)
    problem = build_problem(small_config, model, data)
    theta_hat, g_ref = reference_minimizer(small_config, problem, cache_dir=tmp_path)

    def refit(*args, **kwargs):
        raise AssertionError("the reference was fitted again")

    monkeypatch.setattr(harness, "run_gauss_newton", refit)
    adjoint = dataclasses.replace(small_config, mode="adjoint")
    cached = reference_minimizer(adjoint, build_problem(adjoint, model, data), cache_dir=tmp_path)
    assert np.array_equal(cached[0], theta_hat) and cached[1] == g_ref


def test_study_status_says_whether_a_fit_converged(small_config, monkeypatch):
    base = harness.prepare_baseline(small_config)

    def study_fit(config):
        row = harness.GridRow(
            "gn_none", "gn", "none", 1.0, base.problem.model.theta_ref(), 0.0, config.table1_max_iter,
            config.table1_gtol, config.table1_max_iter, rescue=True,
        )
        (run,) = harness.run_grid(config, base, [row])
        return run.trace.final_theta, run.status

    theta, status = study_fit(small_config)
    assert status == "ok" and np.all(np.isfinite(theta))

    capped = dataclasses.replace(small_config, table1_max_iter=1, table1_gtol=0.0)
    theta, status = study_fit(capped)
    assert status == "max_iter" and np.all(np.isfinite(theta))

    def fail_smallest_damping(*args, damping_rel, **kwargs):
        if damping_rel == 1e-8:
            raise SolverError("normal equations")
        return run_gauss_newton(*args, damping_rel=damping_rel, **kwargs)

    monkeypatch.setattr(harness, "run_gauss_newton", fail_smallest_damping)
    _, status = study_fit(capped)
    assert status == "max_iter(damping_rel=0.0001)"


def test_study_none_row_reports_the_reference_fit_status(small_config):
    # one potp and two iterations per scheme fit keep the study small
    quick = dataclasses.replace(small_config, table1_potps=(0.1,), table1_max_iter=2)
    capped = dataclasses.replace(quick, ref_max_iter=1)  # its own cache key, never cached
    for config, status in ((capped, "max_iter"), (quick, "ok")):
        none_row = harness.run_table1_study(config, write_csv=False).rows[0]
        assert (none_row.scheme, none_row.status) == ("none", status)


def test_run_checks_catch_corrupted_jacobian(fn_corrupted_jac_x):
    disc = check_model_jacobians(fn_corrupted_jac_x, seed=3)
    assert disc > 1e-5  # the finite-difference check must flag it
