from __future__ import annotations

import numpy as np
import pytest

from hfda.harness import ExperimentConfig, build_data, modify_data
from hfda.modify import (
    ModificationScheme,
    SCHEME_KINDS,
    _assign_nearest,
    _assign_upper,
    accumulate_nearest,
    accumulate_upper,
    average_nearest,
    average_upper,
    default_predetermined,
    round_half_away,
    simple_random_sample,
    systematic_random_sample,
)
from hfda.observe import ObservationModel, ObservationSet


def toy_data(n=10, values=None):
    """Observations at t = 1..n with scalar values 1..n by default."""
    times = np.arange(1.0, n + 1.0)
    vals = np.arange(1.0, n + 1.0) if values is None else np.asarray(values, dtype=float)
    obs = ObservationModel(h_matrix=np.array([[1.0, 0.0]]), v_matrix=np.array([[1.0]]))
    return ObservationSet(times=times, values=vals[:, None], model=obs)


# ---------------------------------------------------------------------------
# accumulation
# ---------------------------------------------------------------------------


def test_accumulate_upper_two_interval_example():
    data = toy_data()
    out = accumulate_upper(data, np.array([5.0, 10.0]))
    assert np.array_equal(out.times, [5.0] * 5 + [10.0] * 5)
    assert np.array_equal(out.values, data.values)


def test_accumulate_upper_identity_when_targets_are_all_times():
    data = toy_data()
    out = accumulate_upper(data, data.times)
    assert np.array_equal(out.times, data.times)
    assert np.array_equal(out.values, data.values)


def test_accumulate_upper_single_target_collapses_everything():
    data = toy_data()
    out = accumulate_upper(data, np.array([10.0]))
    assert np.array_equal(out.times, np.full(10, 10.0))
    assert len(out) == 10


def test_accumulate_nearest_seven_three_split():
    data = toy_data()
    out = accumulate_nearest(data, np.array([5.0, 10.0]))
    assert np.array_equal(out.times, [5.0] * 7 + [10.0] * 3)
    assert np.array_equal(out.values, data.values)


def test_accumulate_nearest_tie_goes_upward():
    obs = ObservationModel(h_matrix=np.array([[1.0, 0.0]]), v_matrix=np.array([[1.0]]))
    data = ObservationSet(times=np.array([7.5]), values=np.array([[1.0]]), model=obs)
    out = accumulate_nearest(data, np.array([5.0, 10.0]))
    assert out.times[0] == 10.0


def test_accumulate_rejects_late_observation():
    data = toy_data()
    with pytest.raises(ValueError):
        accumulate_upper(data, np.array([5.0]))
    with pytest.raises(ValueError):
        accumulate_nearest(data, np.array([5.0]))


# ---------------------------------------------------------------------------
# averaging
# ---------------------------------------------------------------------------


def test_average_upper_means_and_counts():
    data = toy_data()
    out = average_upper(data, np.array([5.0, 10.0]))
    assert np.array_equal(out.times, [5.0, 10.0])
    assert np.array_equal(out.values[:, 0], [3.0, 8.0])  # mean(1..5), mean(6..10)
    assert np.array_equal(out.weights, [1.0, 1.0])


def test_average_constant_values_stay_constant():
    data = toy_data(values=np.full(10, 2.5))
    out = average_upper(data, np.array([5.0, 10.0]))
    assert np.array_equal(out.values[:, 0], [2.5, 2.5])


def test_average_singleton_groups_identity_on_values():
    data = toy_data()
    out = average_upper(data, data.times)
    assert np.array_equal(out.values, data.values)
    assert np.array_equal(out.weights, np.ones(10))


def test_average_nearest_group_sizes():
    data = toy_data()
    out = average_nearest(data, np.array([5.0, 10.0]))
    # mean(1..7) and mean(8..10): the groups hold 7 and 3 observations
    assert np.array_equal(out.values[:, 0], [4.0, 9.0])
    assert np.array_equal(out.weights, [1.0, 1.0])


def test_average_nearest_partition_matches_accumulate_nearest():
    data = toy_data()
    acc = accumulate_nearest(data, np.array([5.0, 10.0]))
    avg = average_nearest(data, np.array([5.0, 10.0]))
    assert np.array_equal(avg.times, np.unique(acc.times))
    means = [acc.values[acc.times == t].mean(axis=0) for t in avg.times]
    assert np.array_equal(avg.values, means)


def test_average_skips_empty_intervals():
    data = toy_data()
    out = average_upper(data, np.array([0.5, 5.0, 10.0]))
    assert np.array_equal(out.times, [5.0, 10.0])


def test_averaging_conserves_member_counts(fn_small):
    _, data, _ = fn_small
    targets = default_predetermined((0.0, 5.0), 0.05, 0.1)
    pairs = ((average_upper, accumulate_upper), (average_nearest, accumulate_nearest))
    for average, accumulate in pairs:
        out = average(data, targets)
        acc = accumulate(data, targets)  # every observation, at its group's time
        assert np.array_equal(out.times, np.unique(acc.times))
        means = [acc.values[acc.times == t].mean(axis=0) for t in out.times]
        assert np.allclose(out.values, means, rtol=1e-12, atol=0.0)


def _average_by_group_loop(data, predetermined, assign):
    """Group means computed one group at a time, as a reference."""
    target = assign(data.times, predetermined)
    used = np.unique(target)
    values = np.array([data.values[target == j].mean(axis=0) for j in used])
    return predetermined[used], values


@pytest.mark.parametrize(
    "average, assign", [(average_upper, _assign_upper), (average_nearest, _assign_nearest)]
)
def test_average_matches_a_per_group_loop(average, assign):
    # two-component values: numpy sums a single column pairwise in ``mean``,
    # so a one-component record would agree only to roundoff
    rng = np.random.default_rng(5)
    sizes = rng.integers(1, 51, 60)
    predetermined = np.arange(1.0, len(sizes) + 1.0)
    times = np.concatenate(
        [np.sort(rng.uniform(j - 1.0, j, n)) for j, n in zip(predetermined, sizes)]
    )
    obs = ObservationModel(h_matrix=np.eye(2), v_matrix=np.eye(2))
    values = rng.standard_normal((len(times), 2)) * rng.uniform(0.1, 100.0, (len(times), 1))
    data = ObservationSet(times=times, values=values, model=obs)
    out = average(data, predetermined)
    ref_times, ref_values = _average_by_group_loop(data, predetermined, assign)
    assert np.array_equal(out.times, ref_times)
    assert np.array_equal(out.values, ref_values)
    assert np.array_equal(out.weights, np.ones(len(out)))
    if average is average_upper:  # the groups are the generated windows
        windows = np.split(values, np.cumsum(sizes)[:-1])
        assert np.array_equal(out.values, [w.mean(axis=0) for w in windows])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_simple_random_full_fraction_is_identity():
    data = toy_data()
    out = simple_random_sample(data, 1.0, seed=1)
    assert np.array_equal(out.times, data.times)
    assert np.array_equal(out.values, data.values)


def test_simple_random_keeps_round_fraction(fn_small):
    _, data, _ = fn_small
    out = simple_random_sample(data, 0.1, seed=3)
    assert len(out) == 10
    assert np.all(np.diff(out.times) > 0)


def test_simple_random_same_seed_same_subset(fn_small):
    _, data, _ = fn_small
    a = simple_random_sample(data, 0.2, seed=9)
    b = simple_random_sample(data, 0.2, seed=9)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.values, b.values)


def test_simple_random_rejects_empty_sample():
    data = toy_data()
    with pytest.raises(ValueError):
        simple_random_sample(data, 0.01, seed=0)


def test_systematic_offsets_and_stride():
    data = toy_data()
    seen = set()
    for seed in range(40):
        out = systematic_random_sample(data, 0.2, seed=seed)
        offset = int(out.times[0]) - 1
        seen.add(offset)
        assert np.array_equal(out.times, data.times[offset::5])
    assert seen == {0, 1, 2, 3, 4}


def test_systematic_kappa_one_is_identity():
    data = toy_data()
    out = systematic_random_sample(data, 1.0, seed=5)
    assert np.array_equal(out.times, data.times)


def test_systematic_high_frequency_count(fn_small):
    # 100 observations at potp 0.01 would need stride 100 > N; use potp 0.1
    _, data, _ = fn_small
    for seed in range(20):
        out = systematic_random_sample(data, 0.1, seed=seed)
        assert len(out) == 10


def test_systematic_rejects_stride_beyond_n():
    data = toy_data()
    with pytest.raises(ValueError):
        systematic_random_sample(data, 0.01, seed=0)


def test_systematic_count_5000_at_one_percent():
    obs = ObservationModel(h_matrix=np.array([[1.0]]), v_matrix=np.array([[1.0]]))
    data = ObservationSet(
        times=np.arange(1.0, 5001.0), values=np.zeros((5000, 1)), model=obs
    )
    for seed in range(25):
        out = systematic_random_sample(data, 0.01, seed=seed)
        assert len(out) == 50


# ---------------------------------------------------------------------------
# cross-scheme invariants
# ---------------------------------------------------------------------------


def test_all_schemes_nondecreasing_times_and_no_growth(fn_small):
    _, data, _ = fn_small
    for kind in SCHEME_KINDS:
        scheme = ModificationScheme(kind, 0.1, seed=4)
        out = scheme.apply(data, (0.0, 5.0), 0.05)
        assert len(out) <= len(data)
        assert np.all(np.diff(out.times) >= 0)


def test_accumulation_never_changes_values(fn_small):
    _, data, _ = fn_small
    targets = default_predetermined((0.0, 5.0), 0.05, 0.1)
    for fn in (accumulate_upper, accumulate_nearest):
        out = fn(data, targets)
        assert np.array_equal(np.sort(out.values, axis=0), np.sort(data.values, axis=0))


def test_sampling_hits_target_fraction_within_one(fn_small):
    _, data, _ = fn_small
    n_in = len(np.unique(data.times))
    for kind in ("simple_random", "systematic_random"):
        for potp in (0.1, 0.25):
            scheme = ModificationScheme(kind, potp, seed=8)
            out = scheme.apply(data, (0.0, 5.0), 0.05)
            n_out = len(np.unique(out.times))
            assert abs(n_out - potp * n_in) <= 1.0


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.4) == 2
    assert round_half_away(-0.5) == -1


def test_scheme_field_validation():
    # a scheme that apply would reject, or a draw that could not be
    # replayed, cannot be built, whatever its kind
    bad = [("bogus", 0.1, 1)]
    for kind in SCHEME_KINDS:
        bad += [(kind, 0.1, None)] + [(kind, potp, 1) for potp in (0.0, 1.5, np.nan)]
    for kind, potp, seed in bad:
        with pytest.raises(ValueError):
            ModificationScheme(kind, potp, seed)


def test_default_predetermined_spacing():
    targets = default_predetermined((0.0, 50.0), 0.01, 0.01)
    assert len(targets) == 50
    assert targets[0] == 1.0
    assert targets[-1] == 50.0
    # a spacing that does not divide the span ends the targets at t_end
    targets = default_predetermined((0.0, 50.0), 0.01, 0.0123)
    assert len(targets) == 62
    assert np.allclose(np.diff(targets[:-1]), 0.01 / 0.0123)
    assert targets[-2] < targets[-1] == 50.0
    # so does a span shorter than one spacing, with t_end its only target
    assert np.array_equal(default_predetermined((0.0, 50.0), 0.01, 0.0001), [50.0])


def test_every_scheme_runs_on_the_shipped_fn_data_at_a_fraction_that_does_not_divide_it():
    config = ExperimentConfig(model="fitzhugh_nagumo")
    model, data = build_data(config)
    t_end = model.t_span[1]
    targets = default_predetermined(model.t_span, config.obs_period, 0.0123)
    for kind in SCHEME_KINDS:
        out = modify_data(config, model, data, kind, 0.0123)
        assert 0 < len(out) <= len(data), kind
        assert out.times[-1] <= t_end, kind
        if not kind.endswith("_random"):
            assert np.all(np.isin(out.times, targets)), kind
        if kind.startswith("average"):
            assert len(out) == 62, kind
