"""Random observation subsets and the estimators built on them.

A ``SampleSet`` is a sorted set of observation indices together with each
index's inclusion probability pi.  Weighting every sampled loss term by
1/pi makes the subsampled gradient an unbiased estimator of the full
gradient.  Every draw keeps about one observation in kappa.  Systematic
draws keep every kappa-th from a random offset, so the sampled times sit
one preferred integration step apart and the gradient costs one coarse
pass; simple random draws scatter the times and force integration on the
union of the sampled times with the regular step grid.

``residual_system`` assembles the stacked residual vector, its Jacobian
with respect to the augmented initial condition, and the block-diagonal
inverse weight matrix used by the Gauss-Newton-type updates.  It and
``stochastic_gradient`` both fit the sampled observations as
``ObservationSet.subset`` returns them with weights scaled by 1/pi;
Gauss-Newton passes no sample and fits the whole record as it is.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec
from .integrate import TimeGrid, integrate_augmented_sensitivity
from .observe import GradientEvaluation, ObservationSet, gradient

Array = np.ndarray


@dataclass(frozen=True)
class SampleSet:
    """Sorted 0-based observation indices with inclusion probabilities."""

    indices: Array
    pi: Array

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=int)
        pi = np.asarray(self.pi, dtype=float)
        if indices.size == 0:
            raise ValueError("sample must be nonempty")
        if np.any(np.diff(indices) <= 0):
            raise ValueError("sample indices must be sorted and distinct")
        if pi.shape != indices.shape or np.any(pi <= 0) or np.any(pi > 1):
            raise ValueError("inclusion probabilities must lie in (0, 1]")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "pi", pi)

    def __len__(self) -> int:
        return len(self.indices)


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(np.sign(x) * np.floor(abs(x) + 0.5))


def draw_systematic(n_obs: int, kappa: int, rng: np.random.Generator) -> SampleSet:
    """Offset uniform on {0..kappa-1}, then every kappa-th index; pi = 1/kappa."""
    if not 1 <= kappa <= n_obs:
        raise ValueError(f"sampling stride {kappa} must lie in [1, {n_obs}]")
    offset = int(rng.integers(kappa))
    indices = np.arange(offset, n_obs, kappa)
    return SampleSet(indices=indices, pi=np.full(len(indices), 1.0 / kappa))


def draw_simple(n_obs: int, m: int, rng: np.random.Generator) -> SampleSet:
    """Uniform without replacement; pi = m / n_obs."""
    if not 1 <= m <= n_obs:
        raise ValueError(f"sample size {m} must lie in [1, {n_obs}]")
    indices = np.sort(rng.choice(n_obs, size=m, replace=False))
    return SampleSet(indices=indices, pi=np.full(m, m / n_obs))


def draw_stratified(n_obs: int, kappa: int, rng: np.random.Generator) -> SampleSet:
    """One index uniformly from each window of kappa consecutive indices.

    pi = 1/kappa except in a shorter boundary window, where it is the
    reciprocal of that window's length.
    """
    if not 1 <= kappa <= n_obs:
        raise ValueError(f"sampling stride {kappa} must lie in [1, {n_obs}]")
    starts = np.arange(0, n_obs, kappa)
    sizes = np.minimum(kappa, n_obs - starts)
    picks = starts + rng.integers(sizes)
    return SampleSet(indices=picks, pi=1.0 / sizes)


SAMPLER_KINDS = ("systematic", "stratified", "simple")


@dataclass(frozen=True)
class Sampler:
    """A drawing strategy solvers call once per iteration, keeping about
    one observation in ``kappa``: "systematic" every kappa-th from a random
    offset, "stratified" one from each window of kappa, "simple"
    max(1, round(n_obs / kappa)) uniformly without replacement.
    """

    kind: str
    kappa: int

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.kappa < 1:
            raise ValueError(f"sampling stride {self.kappa} must be at least 1")

    def draw(self, n_obs: int, rng: np.random.Generator) -> SampleSet:
        if self.kind == "systematic":
            return draw_systematic(n_obs, self.kappa, rng)
        if self.kind == "stratified":
            return draw_stratified(n_obs, self.kappa, rng)
        return draw_simple(n_obs, max(1, round_half_away(n_obs / self.kappa)), rng)

    @property
    def coarse_grid(self) -> bool:
        """Whether sampled times alone define the integration grid.

        Simple random samples do not: their irregular spacing forces the
        union with the regular step grid (the cost the sampling-design
        argument is about).
        """
        return self.kind != "simple"


def stochastic_gradient(
    model: ModelSpec,
    theta: Array,
    data: ObservationSet,
    sample: SampleSet,
    grid: TimeGrid,
    mode: str = "forward",
) -> GradientEvaluation:
    """Inverse-probability-weighted gradient over the sampled terms only.

    The grid must contain every sampled observation time as a node; for
    systematic samples the coarse grid of the sampled times themselves
    suffices, so the cost is one pass at the coarse step.
    """
    sub = data.subset(sample.indices, weight_scale=1.0 / sample.pi)
    return gradient(model, theta, sub, grid, mode=mode)


@dataclass(frozen=True)
class ResidualSystem:
    """Stacked residuals r, Jacobian d_matrix, and block weights for a sample.

    Blocks follow the sampled indices in increasing order.  The inverse
    weight is block diagonal with blocks (weight/pi) * V^-1, stored as
    ``w_inv_blocks`` of shape (m, n, n) and applied without assembling the
    full matrix (the dense ``w`` view exists for small systems).
    For the Gaussian-affine loss, d_matrix' w_inv r equals minus the
    stochastic gradient.  d_matrix is stored column-major: the BLAS kernels
    of the Gauss-Newton and kSGD normal products, and so their roundoff,
    depend on its layout.
    """

    r: Array
    d_matrix: Array
    w_inv_blocks: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_matrix", np.asfortranarray(self.d_matrix))

    @property
    def n_rows(self) -> int:
        return len(self.r)

    def w_inv_apply(self, v: Array) -> Array:
        """W^-1 v for a stacked vector or matrix of row dimension n_rows."""
        m, n = self.w_inv_blocks.shape[:2]
        out = np.einsum("sij,sj...->si...", self.w_inv_blocks, v.reshape((m, n) + v.shape[1:]))
        return out.reshape(v.shape)

    @property
    def w(self) -> Array:
        return _block_diag(np.linalg.inv(self.w_inv_blocks))


def _block_diag(blocks: Array) -> Array:
    """Dense block-diagonal matrix of an (m, n, n) stack of blocks."""
    m, n = blocks.shape[:2]
    out = np.zeros((m * n, m * n))
    out.reshape(m, n, m, n)[np.arange(m), :, np.arange(m), :] = blocks
    return out


def residual_system(
    model: ModelSpec,
    theta: Array,
    data: ObservationSet,
    sample: SampleSet | None,
    grid: TimeGrid,
) -> ResidualSystem:
    """Assemble the residual system at theta for the sampled observations,
    weighted as in ``stochastic_gradient``; with no sample, for all of
    ``data`` as it is.  Each observation's block of r and D comes from the
    state and the sensitivity at its own grid node."""
    sub = data if sample is None else data.subset(sample.indices, weight_scale=1.0 / sample.pi)
    obs = sub.model
    node_idx = grid.node_index(sub.times)

    states, sens = integrate_augmented_sensitivity(model, np.asarray(theta, dtype=float), grid)
    r = (sub.values - states[node_idx] @ obs.h_matrix.T).reshape(-1)
    # rows of H x_theta restricted to the physical block, per sampled time
    d_matrix = (obs.h_matrix @ sens[node_idx]).reshape(-1, model.q)  # (m n, q)

    w_inv_blocks = sub.weights[:, None, None] * obs.v_inv  # per-block multiplier on V^-1
    return ResidualSystem(r=r, d_matrix=d_matrix, w_inv_blocks=w_inv_blocks)
