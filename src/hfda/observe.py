"""Observation model, Gaussian quasi-likelihood loss, and full-data objective.

Observations are linear transformations of the physical state plus Gaussian
noise: y_i = H x(t_i) + eps_i with eps_i ~ N(0, V).  The loss for one
observation is the corresponding negative log-likelihood up to its additive
constant, 0.5 * (y - Hx)' V^-1 (y - Hx), and the full objective sums the
per-observation losses (times their weights) over the whole record.
Simulated noise is the standard library's normal quantile of seeded
uniforms (``inverse_cdf_gaussian``).

The gradient of the objective with respect to the augmented initial
condition is available two ways: by propagating the forward sensitivity
matrix to every grid node and contracting it at each observation's node, or
by a single backward adjoint sweep with the per-observation loss gradients
injected as impulses.  Both are exact derivatives of the discrete objective.

``observations_csv_lines`` formats a record as CSV lines; this module opens
no file, and the package reads no CSV back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .dynamics import ModelSpec
from .integrate import (
    TimeGrid,
    build_grid,
    grid_from_times,
    integrate_adjoint,
    integrate_augmented,
    integrate_augmented_sensitivity,
    integrate_loss_terms,
)

Array = np.ndarray

DERIVATIVE_MODES = ("forward", "adjoint")


def inverse_cdf_gaussian(rng: np.random.Generator, shape) -> Array:
    """Standard normal variates via the inverse CDF of uniform draws.

    Keeping the transformation explicit (rather than relying on the
    generator's native normal sampler) pins regenerated data to the uniform
    bit stream of the seeded generator.  The quantile function is the
    standard library's ``NormalDist().inv_cdf``, so the data depend on
    numpy's generator and the C library's ``log`` but on no special-function
    library.
    """
    u = rng.random(shape)
    # rng.random() can return 0.0, which inv_cdf rejects
    u = np.maximum(u, np.finfo(float).tiny)
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(v) for v in u.ravel().tolist()]).reshape(u.shape)


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


@dataclass(frozen=True)
class GradientEvaluation:
    """Gradient of the objective over the included loss terms."""

    grad: Array


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
    times = observation_times(model.t_span, obs_period)
    if times.size == 0:
        raise ValueError("observation period exceeds the integration interval")
    z0 = np.concatenate([model.x0, np.asarray(params_star, dtype=float)])
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


def _dot(a: list, b: list):
    """a_0 b_0 + a_1 b_1 + ..., summed left to right from the first product."""
    total = a[0] * b[0]
    for u, v in zip(a[1:], b[1:]):
        total = total + u * v
    return total


def _loss_values(data: ObservationSet, x_obs: Array) -> Array:
    """Per-observation weighted losses w * (0.5 * quad); x_obs has shape
    (N, ..., d), the result (N, ...).

    With r = y - H x, quad = sum_i (sum_j r_j V^-1_ji) r_i.  The terms are
    computed component by component, each sum left to right from its first
    product: this is the definition, and the compiled loss pass of
    ``integrate_loss_terms`` reproduces it bit for bit.  With an identity H
    and a diagonal V every cross product is an exact zero, so the terms
    equal those of the matrix form (y - H x)' V^-1 (y - H x).
    """
    obs = data.model
    lead = (len(data),) + (1,) * (x_obs.ndim - 2)
    x = [x_obs[..., j] for j in range(obs.d)]
    y = [data.values[:, i].reshape(lead) for i in range(obs.n)]
    r = [y_i - _dot(h_i, x) for y_i, h_i in zip(y, obs.h_matrix.tolist())]
    u = [_dot(r, column) for column in obs.v_inv.T.tolist()]
    return data.weights.reshape(lead) * (0.5 * _dot(u, r))


def objective(model: ModelSpec, theta: Array, data: ObservationSet, grid: TimeGrid) -> float:
    """Sum of weighted losses along the trajectory started at theta."""
    return float(np.sum(integrate_loss_terms(model, theta, grid, data)))


def objective_many(model: ModelSpec, thetas: Array, data: ObservationSet, grid: TimeGrid) -> Array:
    """Objective at a batch of decision vectors, shape (K, q) -> (K,).

    One pass over the grid serves all K evaluations and allocates only the
    (N, K) loss terms; non-finite trajectories yield NaN entries instead of
    raising.  Each column is summed on its own, in the order ``objective``
    sums its terms, so every row is bitwise equal to ``objective`` whatever K.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    terms = integrate_loss_terms(model, thetas, grid, data)
    with np.errstate(all="ignore"):
        vals = np.array([np.sum(terms[:, k]) for k in range(terms.shape[1])])
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
    """Gradient of the objective with respect to theta.

    mode "forward" contracts every observation's loss gradient with the
    sensitivity of the physical state at its node, one term per observation;
    mode "adjoint" injects the same vectors as impulses, summed per node,
    into one backward sweep of the physical-block adjoint.  The two agree to
    roundoff.
    """
    if mode not in DERIVATIVE_MODES:
        raise ValueError(f"unknown gradient mode {mode!r}")
    theta = np.asarray(theta, dtype=float)
    idx = grid.node_index(data.times)
    if mode == "forward":
        states, sens = integrate_augmented_sensitivity(model, theta, grid)
        grad = np.einsum("iaq,ia->q", sens[idx], _weighted_loss_grads(data, states[idx]))
        return GradientEvaluation(grad=grad)
    states = integrate_augmented(model, theta, grid)
    impulses = np.zeros((len(grid.nodes), model.d))  # summed over observations sharing a node
    np.add.at(impulses, idx, _weighted_loss_grads(data, states[idx]))
    return GradientEvaluation(grad=integrate_adjoint(model, theta, grid, states, impulses))


def observations_csv_lines(data: ObservationSet) -> list[str]:
    """The `t,y1,...,yn,weight` header and rows, floats round-trip exact."""
    header = "t," + ",".join(f"y{j + 1}" for j in range(data.model.n)) + ",weight"
    rows = np.column_stack([data.times, data.values, data.weights]).tolist()
    return [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
