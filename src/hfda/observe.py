"""Observation model, Gaussian quasi-likelihood loss, and full-data objective.

Observations are linear transformations of the physical state plus Gaussian
noise: y_i = H x(t_i) + eps_i with eps_i ~ N(0, V).  The loss for one
observation is the corresponding negative log-likelihood up to its additive
constant, 0.5 * (y - Hx)' V^-1 (y - Hx), and the full objective sums the
per-observation losses (times their weights) over the whole record.

The gradient of the objective with respect to the augmented initial
condition is available two ways: by propagating the forward sensitivity
matrix to every observation node, or by a single backward adjoint sweep with
the per-observation loss gradients injected as impulses.  Both are exact
derivatives of the discrete objective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .dynamics import ModelSpec
from .integrate import (
    TimeGrid,
    build_grid,
    grid_from_times,
    integrate_adjoint,
    integrate_augmented,
    integrate_augmented_sensitivity,
)

Array = np.ndarray

DERIVATIVE_MODES = ("forward", "adjoint")


def inverse_cdf_gaussian(rng: np.random.Generator, shape) -> Array:
    """Standard normal variates via the inverse CDF of uniform draws.

    Keeping the transformation explicit (rather than relying on the
    generator's native normal sampler) pins regenerated data to the uniform
    bit stream of the seeded generator.
    """
    u = rng.random(shape)
    # rng.random() can return 0.0, whose quantile is -inf
    u = np.maximum(u, np.finfo(float).tiny)
    return ndtri(u)


@dataclass(frozen=True)
class ObservationModel:
    """Linear observation operator H with noise covariance V."""

    h_matrix: Array
    v_matrix: Array
    v_inv: Array = field(init=False, repr=False)
    v_chol: Array = field(init=False, repr=False)

    def __post_init__(self) -> None:
        h = np.atleast_2d(np.asarray(self.h_matrix, dtype=float))
        v = np.atleast_2d(np.asarray(self.v_matrix, dtype=float))
        if np.any(np.all(h == 0.0, axis=1)):
            raise ValueError("observation operator has an all-zero row")
        if v.shape != (h.shape[0], h.shape[0]):
            raise ValueError("noise covariance must be n x n for an n x d operator")
        if not np.allclose(v, v.T):
            raise ValueError("noise covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(v)
        except np.linalg.LinAlgError:
            raise ValueError("noise covariance must be positive definite") from None
        object.__setattr__(self, "h_matrix", h)
        object.__setattr__(self, "v_matrix", v)
        object.__setattr__(self, "v_inv", np.linalg.inv(v))
        object.__setattr__(self, "v_chol", chol)

    @property
    def n(self) -> int:
        return self.h_matrix.shape[0]

    @property
    def d(self) -> int:
        return self.h_matrix.shape[1]


def identity_observation(d: int, sigma: float) -> ObservationModel:
    """Observe the full physical state with isotropic noise sigma^2 I."""
    return ObservationModel(h_matrix=np.eye(d), v_matrix=sigma**2 * np.eye(d))


@dataclass(frozen=True)
class ObservationSet:
    """Timestamped observations with their operator and per-term weights.

    Times are nondecreasing; duplicates are allowed because accumulation
    schemes superimpose observations on a shared time (the loss then sums
    over all of them).  Weights multiply the per-observation loss terms and
    default to one.
    """

    times: Array
    values: Array
    model: ObservationModel
    weights: Array = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        weights = (
            np.ones(len(times)) if self.weights is None else np.asarray(self.weights, dtype=float)
        )
        if values.shape != (len(times), self.model.n):
            raise ValueError("values must have shape (n_obs, n)")
        if weights.shape != (len(times),):
            raise ValueError("weights must have one entry per observation")
        if np.any(np.diff(times) < 0):
            raise ValueError("observation times must be nondecreasing")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(times))):
            raise ValueError("observation times/values must be finite")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.times)

    def distinct_times(self) -> Array:
        return np.unique(self.times)

    def subset(self, indices: Array, weight_scale: Array | None = None) -> "ObservationSet":
        """Restrict to the given (sorted) indices, optionally rescaling weights."""
        indices = np.asarray(indices, dtype=int)
        w = self.weights[indices]
        if weight_scale is not None:
            w = w * weight_scale
        return ObservationSet(
            times=self.times[indices], values=self.values[indices], model=self.model, weights=w
        )

    def replace_weights(self, weights: Array | float) -> "ObservationSet":
        w = np.broadcast_to(np.asarray(weights, dtype=float), (len(self),)).copy()
        return ObservationSet(times=self.times, values=self.values, model=self.model, weights=w)


@dataclass(frozen=True)
class GradientEvaluation:
    """Objective value and gradient over the included loss terms."""

    value: float
    grad: Array
    n_terms: int


def loss(obs_model: ObservationModel, y: Array, x_state: Array) -> float:
    """0.5 * (y - Hx)' V^-1 (y - Hx) for a single observation."""
    r = np.asarray(y, dtype=float) - obs_model.h_matrix @ np.asarray(x_state, dtype=float)
    return float(np.sum((r @ obs_model.v_inv) * r, axis=-1) * 0.5)


def loss_grad(obs_model: ObservationModel, y: Array, x_state: Array) -> Array:
    """Derivative of ``loss`` with respect to the physical state: -H' V^-1 (y - Hx)."""
    r = np.asarray(y, dtype=float) - obs_model.h_matrix @ np.asarray(x_state, dtype=float)
    return -obs_model.h_matrix.T @ (obs_model.v_inv @ r)


def observation_times(t_span: tuple[float, float], period: float) -> Array:
    """Integer multiples of the period in (t0, t_end], none at t0."""
    t0, t_end = t_span
    if period <= 0:
        raise ValueError("observation period must be positive")
    n_obs = int(math.floor((t_end - t0) / period * (1.0 + 1e-12) + 1e-9))
    times = t0 + period * np.arange(1, n_obs + 1)
    if n_obs and abs(times[-1] - t_end) <= 1e-9 * max(abs(t_end), t_end - t0):
        times[-1] = t_end
    return times


def simulate_observations(
    model: ModelSpec,
    params_star: Array,
    obs_model: ObservationModel,
    obs_period: float,
    seed: int,
    x0: Array | None = None,
    noise: bool = True,
    h: float | None = None,
) -> ObservationSet:
    """Generate y_i = H x(t_i; params_star) + eps_i on a regular time mesh.

    The reference trajectory is integrated with one step per observation
    period, or, when a step ``h`` shorter than the period is given, on the
    step-h grid through the observation times, so the truth is never
    integrated more coarsely than the fit.  Noise is drawn from a generator
    seeded with ``seed`` alone, so the result is a pure function of its
    arguments.  ``noise=False`` is the zero-covariance limit: y_i = H x(t_i)
    exactly.
    """
    if obs_model.d != model.d:
        raise ValueError("observation operator width must match the model state dimension")
    x0 = model.x0 if x0 is None else np.asarray(x0, dtype=float)
    times = observation_times(model.t_span, obs_period)
    if times.size == 0:
        raise ValueError("observation period exceeds the integration interval")
    z0 = np.concatenate([x0, np.asarray(params_star, dtype=float)])
    if h is not None and obs_period > h:
        grid = build_grid(model.t_span, h, times)
    else:
        grid = grid_from_times(model.t_span[0], times)
    x_obs = integrate_augmented(model, z0, grid)[grid.node_index(times)]

    y = x_obs @ obs_model.h_matrix.T
    if noise:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        y = y + inverse_cdf_gaussian(rng, (len(times), obs_model.n)) @ obs_model.v_chol.T
    return ObservationSet(times=times, values=y, model=obs_model)


def _loss_values(data: ObservationSet, x_obs: Array) -> Array:
    """Per-observation weighted losses; x_obs has shape (N, ..., d)."""
    obs = data.model
    r = data.values.reshape(data.values.shape[:1] + (1,) * (x_obs.ndim - 2) + data.values.shape[1:])
    r = r - x_obs @ obs.h_matrix.T
    quad = np.sum((r @ obs.v_inv) * r, axis=-1)
    w = data.weights.reshape((len(data),) + (1,) * (quad.ndim - 1))
    return w * (0.5 * quad)


def objective(model: ModelSpec, theta: Array, data: ObservationSet, grid: TimeGrid) -> float:
    """Sum of weighted losses along the trajectory started at theta."""
    states = integrate_augmented(model, np.asarray(theta, dtype=float), grid)
    idx = grid.node_index(data.times)
    return float(np.sum(_loss_values(data, states[idx])))


def objective_many(model: ModelSpec, thetas: Array, data: ObservationSet, grid: TimeGrid) -> Array:
    """Objective at a batch of decision vectors, shape (K, q) -> (K,).

    One vectorized integration serves all K evaluations; non-finite
    trajectories yield NaN entries instead of raising.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    states = integrate_augmented(model, thetas, grid)
    idx = grid.node_index(data.times)
    x_obs = states[idx]  # (N, K, d)
    with np.errstate(all="ignore"):
        vals = np.sum(_loss_values(data, x_obs), axis=0)
    return np.where(np.isfinite(vals), vals, np.nan)


def _weighted_loss_grads(data: ObservationSet, x_obs: Array) -> Array:
    """Per-observation weighted loss gradients with respect to the physical
    state, shape (N, d)."""
    obs = data.model
    r = data.values - x_obs @ obs.h_matrix.T
    return data.weights[:, None] * (-(r @ obs.v_inv) @ obs.h_matrix)


def gradient(
    model: ModelSpec,
    theta: Array,
    data: ObservationSet,
    grid: TimeGrid,
    mode: str = "forward",
) -> GradientEvaluation:
    """Objective value and its gradient with respect to theta.

    mode "forward" contracts every observation's loss gradient with the
    propagated sensitivity of the physical state; mode "adjoint" injects the
    same vectors as impulses into one backward sweep of the physical-block
    adjoint.  The two agree to roundoff.
    """
    if mode not in DERIVATIVE_MODES:
        raise ValueError(f"unknown gradient mode {mode!r}")
    theta = np.asarray(theta, dtype=float)
    idx = grid.node_index(data.times)
    if mode == "forward":
        states, request, sens_top = integrate_augmented_sensitivity(model, theta, grid, idx)
    else:
        states = integrate_augmented(model, theta, grid)
    x_obs = states[idx]
    impulses = np.zeros((len(grid.nodes), model.d))  # summed over observations sharing a node
    np.add.at(impulses, idx, _weighted_loss_grads(data, x_obs))
    if mode == "forward":
        grad = np.einsum("riq,ri->q", sens_top, impulses[request])
    else:
        grad = integrate_adjoint(model, theta, grid, states, impulses)

    value = float(np.sum(_loss_values(data, x_obs)))
    return GradientEvaluation(value=value, grad=grad, n_terms=len(data))


def write_observations_csv(data: ObservationSet, path) -> None:
    """Write `t,y1,...,yn,weight` rows with round-trip-exact floats."""
    n = data.model.n
    header = "t," + ",".join(f"y{j + 1}" for j in range(n)) + ",weight"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(len(data)):
            row = [data.times[i], *data.values[i], data.weights[i]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_observations_csv(path, obs_model: ObservationModel) -> ObservationSet:
    """Read a file written by ``write_observations_csv``."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != obs_model.n + 2:
        raise ValueError("observation CSV width does not match the observation model")
    return ObservationSet(
        times=raw[:, 0], values=raw[:, 1 : 1 + obs_model.n], model=obs_model, weights=raw[:, -1]
    )
