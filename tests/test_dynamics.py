from __future__ import annotations

import numpy as np
import pytest

from hfda.dynamics import (
    MODEL_NAMES,
    augment,
    eval_jacobians,
    eval_rhs,
    fitzhugh_nagumo,
    get_model,
    linear_system,
    lotka_volterra,
    van_der_pol,
)


def fd_jacobians(model, t, x, params, step=1e-6):
    """Independent central-difference oracle for both Jacobians."""
    fx = np.empty((model.d, model.d))
    for j in range(model.d):
        e = np.zeros(model.d)
        e[j] = step
        fx[:, j] = (eval_rhs(model, t, x + e, params) - eval_rhs(model, t, x - e, params)) / (2 * step)
    fp = np.empty((model.d, model.p))
    for j in range(model.p):
        e = np.zeros(model.p)
        e[j] = step
        fp[:, j] = (eval_rhs(model, t, x, params + e) - eval_rhs(model, t, x, params - e)) / (2 * step)
    return fx, fp


def test_fn_rhs_hand_value():
    model = fitzhugh_nagumo()
    out = eval_rhs(model, 0.0, np.zeros(2), np.array([0.5, 0.7, 0.8, 12.5]))
    assert np.allclose(out, [0.5, -0.056], rtol=0, atol=1e-15)


def test_lv_coexistence_equilibrium():
    model = lotka_volterra()
    out = eval_rhs(model, 0.0, np.ones(2), np.ones(4))
    assert np.array_equal(out, np.zeros(2))


def test_vdp_fixed_point():
    model = van_der_pol()
    out = eval_rhs(model, 0.0, np.zeros(2), np.ones(1))
    assert np.array_equal(out, np.zeros(2))


def test_fn_state_jacobian_hand_value():
    model = fitzhugh_nagumo()
    fx, _ = eval_jacobians(model, 0.0, np.zeros(2), np.array([0.5, 0.7, 0.8, 12.5]))
    assert np.allclose(fx, [[1.0, -1.0], [1 / 12.5, -0.8 / 12.5]], rtol=0, atol=1e-15)


def test_lv_state_jacobian_at_equilibrium():
    model = lotka_volterra()
    fx, _ = eval_jacobians(model, 0.0, np.ones(2), np.ones(4))
    assert np.allclose(fx, [[0.0, -1.0], [1.0, 0.0]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_jacobians_match_finite_differences(name):
    model = get_model(name)
    rng = np.random.default_rng(101)
    for _ in range(100):
        t = rng.uniform(*model.t_span)
        x = model.x0 + rng.uniform(-1.0, 1.0, model.d)
        params = model.params_ref * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, model.p))
        fx, fp = eval_jacobians(model, t, x, params)
        fx_fd, fp_fd = fd_jacobians(model, t, x, params)
        scale = max(1.0, np.max(np.abs(fx)), np.max(np.abs(fp)))
        assert np.max(np.abs(fx - fx_fd)) / scale <= 1e-5
        assert np.max(np.abs(fp - fp_fd)) / scale <= 1e-5


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_batched_evaluation_matches_float_evaluation_bitwise(name):
    # the model functions use only + - * /, so every element of a batched
    # evaluation equals the Python-float evaluation of its row
    model = get_model(name)
    rng = np.random.default_rng(29)
    x = model.x0 + rng.uniform(-1.0, 1.0, (64, model.d))
    params = model.params_ref * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, (64, model.p)))
    f = eval_rhs(model, 0.3, x, params)
    fx, fp = eval_jacobians(model, 0.3, x, params)
    assert f.shape == (64, model.d) and fx.shape == (64, model.d, model.d)
    assert fp.shape == (64, model.d, model.p)
    for k in range(len(x)):
        assert np.array_equal(f[k], eval_rhs(model, 0.3, x[k], params[k]))
        fx_k, fp_k = eval_jacobians(model, 0.3, x[k], params[k])
        assert np.array_equal(fx[k], fx_k) and np.array_equal(fp[k], fp_k)


def test_rhs_is_deterministic():
    model = fitzhugh_nagumo()
    x = np.array([0.3, -0.7])
    params = model.params_ref
    a = eval_rhs(model, 1.0, x, params)
    b = eval_rhs(model, 1.0, x, params)
    assert np.array_equal(a, b)


def test_rhs_dimension_mismatch():
    model = fitzhugh_nagumo()
    with pytest.raises(ValueError):
        eval_rhs(model, 0.0, np.zeros(3), model.params_ref)
    with pytest.raises(ValueError):
        eval_rhs(model, 0.0, np.zeros(2), np.zeros(2))


def test_augmented_dimension():
    system = augment(fitzhugh_nagumo())
    assert system.q == 6


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_augmented_parameter_block_is_zero(name):
    model = get_model(name)
    system = augment(model)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.standard_normal(system.q)
        dz = system.rhs(0.7, z)
        assert np.array_equal(dz[model.d :], np.zeros(model.p))
        jac = system.jac(0.7, z)
        assert np.array_equal(jac[model.d :, :], np.zeros((model.p, system.q)))
        fx, fp = eval_jacobians(model, 0.7, z[: model.d], z[model.d :])
        assert np.array_equal(jac[: model.d, : model.d], fx)
        assert np.array_equal(jac[: model.d, model.d :], fp)


def test_registry_lookup():
    for name in MODEL_NAMES:
        assert get_model(name).name == name
    with pytest.raises(ValueError):
        get_model("lorenz96")


def test_linear_system_rhs_is_affine():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 2))
    model = linear_system(a, b, x0=np.zeros(3), t_span=(0.0, 1.0))
    x = rng.standard_normal(3)
    params = rng.standard_normal(2)
    assert np.allclose(model.rhs(0.0, x, params), a @ x + b @ params)
    fx, fp = eval_jacobians(model, 0.0, x, params)
    assert np.array_equal(fx, a)
    assert np.array_equal(fp, b)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        linear_system(np.zeros((2, 2)), np.zeros((2, 1)), x0=np.zeros(2), t_span=(1.0, 1.0))
