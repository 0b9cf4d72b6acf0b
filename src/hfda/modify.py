"""Data-modification schemes: accumulation, averaging, and sampling.

All six schemes map an observation set to a smaller or displaced one:

* ``accumulate_upper`` / ``accumulate_nearest`` move observation times onto
  predetermined target times, leaving values untouched (observations pile up
  on shared times).
* ``average_upper`` / ``average_nearest`` replace each group with one
  superobservation at the target time whose value is the group mean, with
  unit weight: every fit and ``hfda modify`` treat the mean as an ordinary
  observation.
* ``simple_random_sample`` / ``systematic_random_sample`` keep a subset of
  the observations unchanged, drawn by ``stochastic.draw_simple`` /
  ``draw_systematic`` (the draws the stochastic solvers use).

A scheme is ``ModificationScheme(kind, potp, seed)``: every kind keeps a
target fraction ``potp`` in (0, 1] of the observations.
``apply(data, t_span, obs_period)`` gives the displacement kinds the
targets ``default_predetermined(t_span, obs_period, potp)``, the multiples
of obs_period / potp; the sampling kinds draw from ``seed``.  Counts
derived from a target fraction use half-away-from-zero rounding
(``stochastic.round_half_away``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observe import ObservationSet, observation_times
from .stochastic import draw_simple, draw_systematic, round_half_away

Array = np.ndarray

SCHEME_KINDS = (
    "accumulate_upper",
    "accumulate_nearest",
    "average_upper",
    "average_nearest",
    "simple_random",
    "systematic_random",
)


def default_predetermined(
    t_span: tuple[float, float], obs_period: float, potp: float
) -> Array:
    """Target times spaced so that a fraction ``potp`` of the original
    observation times survives: multiples of obs_period / potp, ended by
    t_end when the last multiple falls short of it, so every observation
    has a target."""
    if not 0.0 < potp <= 1.0:
        raise ValueError("potp must lie in (0, 1]")
    times = observation_times(t_span, obs_period / potp)
    if times.size == 0 or times[-1] < t_span[1]:
        times = np.append(times, t_span[1])
    return times


def _check_predetermined(data: ObservationSet, predetermined: Array) -> Array:
    predetermined = np.asarray(predetermined, dtype=float)
    if predetermined.size == 0:
        raise ValueError("predetermined times must be nonempty")
    if np.any(np.diff(predetermined) <= 0):
        raise ValueError("predetermined times must be strictly increasing")
    if len(data) and data.times[-1] > predetermined[-1]:
        raise ValueError("an observation lies after the last predetermined time")
    return predetermined


def _assign_upper(times: Array, predetermined: Array) -> Array:
    """Index of the first target time >= each observation time."""
    return np.searchsorted(predetermined, times, side="left")


def _assign_nearest(times: Array, predetermined: Array) -> Array:
    """Index of the closest target time; equidistant ties go upward."""
    right = np.clip(np.searchsorted(predetermined, times, side="left"), 0, len(predetermined) - 1)
    left = np.maximum(right - 1, 0)
    d_right = predetermined[right] - times
    d_left = times - predetermined[left]
    return np.where(d_right <= d_left, right, left)


def _accumulate(data: ObservationSet, predetermined: Array, assign) -> ObservationSet:
    predetermined = _check_predetermined(data, predetermined)
    target = assign(data.times, predetermined)
    return ObservationSet(
        times=predetermined[target], values=data.values, model=data.model, weights=data.weights
    )


def _average(data: ObservationSet, predetermined: Array, assign) -> ObservationSet:
    predetermined = _check_predetermined(data, predetermined)
    target = assign(data.times, predetermined)
    used, group = np.unique(target, return_inverse=True)
    sums = np.zeros((len(used), data.values.shape[1]))
    np.add.at(sums, group, data.values)
    counts = np.bincount(group).astype(float)
    return ObservationSet(times=predetermined[used], values=sums / counts[:, None], model=data.model)


def accumulate_upper(data: ObservationSet, predetermined: Array) -> ObservationSet:
    """Displace each observation to the upper end of its target interval."""
    return _accumulate(data, predetermined, _assign_upper)


def accumulate_nearest(data: ObservationSet, predetermined: Array) -> ObservationSet:
    """Displace each observation to the nearest target time."""
    return _accumulate(data, predetermined, _assign_nearest)


def average_upper(data: ObservationSet, predetermined: Array) -> ObservationSet:
    """One mean-valued superobservation per interval, placed at its upper end."""
    return _average(data, predetermined, _assign_upper)


def average_nearest(data: ObservationSet, predetermined: Array) -> ObservationSet:
    """One mean-valued superobservation per nearest-target group."""
    return _average(data, predetermined, _assign_nearest)


def simple_random_sample(data: ObservationSet, potp: float, seed: int) -> ObservationSet:
    """Uniform sample without replacement keeping round(potp * N) observations."""
    m = round_half_away(potp * len(data))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return data.subset(draw_simple(len(data), m, rng).indices)


def systematic_random_sample(data: ObservationSet, potp: float, seed: int) -> ObservationSet:
    """Keep every kappa-th observation from a uniformly random offset,
    kappa = round(1 / potp)."""
    kappa = round_half_away(1.0 / potp)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return data.subset(draw_systematic(len(data), kappa, rng).indices)


_DISPLACEMENTS = {
    "accumulate_upper": accumulate_upper,
    "accumulate_nearest": accumulate_nearest,
    "average_upper": average_upper,
    "average_nearest": average_nearest,
}


@dataclass(frozen=True)
class ModificationScheme:
    """One scheme: its kind, the target fraction ``potp`` of observations it
    keeps, and the seed the sampling kinds draw from (a fixed one, so every
    draw replays).  ``apply`` places the displacement kinds' targets with
    ``default_predetermined`` from the span and the observation period."""

    kind: str
    potp: float
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}; available: {', '.join(SCHEME_KINDS)}")
        if self.seed is None:
            raise ValueError(f"{self.kind} needs a seed: a draw from SeedSequence(None) cannot be replayed")
        if not 0.0 < self.potp <= 1.0:
            raise ValueError(f"{self.kind} potp must lie in (0, 1], got {self.potp!r}")

    def apply(
        self, data: ObservationSet, t_span: tuple[float, float], obs_period: float
    ) -> ObservationSet:
        if self.kind == "simple_random":
            return simple_random_sample(data, self.potp, self.seed)
        if self.kind == "systematic_random":
            return systematic_random_sample(data, self.potp, self.seed)
        targets = default_predetermined(t_span, obs_period, self.potp)
        return _DISPLACEMENTS[self.kind](data, targets)
