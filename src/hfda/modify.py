"""Data-modification schemes: accumulation, averaging, and sampling.

A scheme is ``ModificationScheme(kind, potp, seed)``: its kind, the target
fraction ``potp`` in (0, 1] of the observations it keeps, and the seed the
sampling kinds draw from.  ``apply(data, t_span, obs_period)`` is the one
way to modify data.  The kinds:

* ``accumulate_upper`` / ``accumulate_nearest`` move each observation time
  onto the first target time at or after it / the nearest target time,
  leaving values untouched (observations pile up on shared times).
* ``average_upper`` / ``average_nearest`` replace each such group with one
  superobservation at its target time whose value is the group mean, with
  unit weight: every fit and ``hfda modify`` treat the mean as an ordinary
  observation.
* ``simple_random`` / ``systematic_random`` keep a subset of the
  observations unchanged, drawn by ``stochastic.draw_simple`` /
  ``draw_systematic`` (the draws the stochastic solvers use).

The displacement kinds' targets are ``default_predetermined(t_span,
obs_period, potp)``, the multiples of obs_period / potp.  Counts derived
from a target fraction use half-away-from-zero rounding
(``stochastic.round_half_away``); ``keeps_none`` is the rule that says when
they leave a sampling kind no observation.
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


def keeps_none(kind: str, potp: float, n_obs: int) -> bool:
    """Whether ``kind`` at ``potp`` would keep no observation of ``n_obs``:
    ``simple_random`` needs round(potp * n_obs) >= 1 and
    ``systematic_random`` a stride round(1 / potp) <= n_obs."""
    if kind == "simple_random":
        return round_half_away(potp * n_obs) < 1
    return kind == "systematic_random" and round_half_away(1.0 / potp) > n_obs


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


def _accumulate(data: ObservationSet, predetermined: Array, target: Array) -> ObservationSet:
    return ObservationSet(
        times=predetermined[target], values=data.values, model=data.model, weights=data.weights
    )


def _average(data: ObservationSet, predetermined: Array, target: Array) -> ObservationSet:
    used, group = np.unique(target, return_inverse=True)
    sums = np.zeros((len(used), data.values.shape[1]))
    np.add.at(sums, group, data.values)
    counts = np.bincount(group).astype(float)
    return ObservationSet(times=predetermined[used], values=sums / counts[:, None], model=data.model)


# displacement kind -> (how a group combines, how observations find their target)
_DISPLACEMENTS = {
    "accumulate_upper": (_accumulate, _assign_upper),
    "accumulate_nearest": (_accumulate, _assign_nearest),
    "average_upper": (_average, _assign_upper),
    "average_nearest": (_average, _assign_nearest),
}


@dataclass(frozen=True)
class ModificationScheme:
    """One scheme: its kind, the target fraction ``potp`` of observations it
    keeps, and the seed the sampling kinds draw from (a fixed one, so every
    draw replays)."""

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
        """Modify ``data`` observed on ``t_span`` every ``obs_period``.  The
        sampling kinds keep round(potp * N) observations drawn uniformly or
        every round(1 / potp)-th from a uniform offset; the displacement
        kinds move observations onto ``default_predetermined`` targets."""
        n = len(data)
        if n and data.times[-1] > t_span[1]:
            raise ValueError(f"an observation at {data.times[-1]:g} lies after the span's end {t_span[1]:g}")
        if self.kind in _DISPLACEMENTS:
            combine, assign = _DISPLACEMENTS[self.kind]
            targets = default_predetermined(t_span, obs_period, self.potp)
            return combine(data, targets, assign(data.times, targets))
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        if self.kind == "simple_random":
            return data.subset(draw_simple(n, round_half_away(self.potp * n), rng).indices)
        return data.subset(draw_systematic(n, round_half_away(1.0 / self.potp), rng).indices)
