import numpy as np
import pytest

from conftest import rand_pset
from sparsemerge.params import ParameterSet, flatten, param_count
from sparsemerge.sparsity import (
    Granularity,
    SparsityMeasure,
    SparsitySchedule,
    collect_stats,
    make_sparse_variants,
    prune,
    schedule_rate,
    sparsity_weights,
)

DEFAULTS = SparsitySchedule()


def golden_sequence():
    # Hand-evaluated linear ramps over cycles of nominal lengths 3, 6, 12
    # (the last truncated to 3 steps by total_steps=12).
    return [
        0.1, 0.35, 0.6,
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
        0.1, 0.1 + 0.5 / 11, 0.1 + 1.0 / 11,
    ]


def test_default_schedule_matches_golden_sequence():
    for step, expected in enumerate(golden_sequence()):
        assert schedule_rate(DEFAULTS, step) == pytest.approx(expected, abs=1e-12)


def test_constant_schedule_when_bounds_equal():
    sched = SparsitySchedule(0.4, 0.4, 3, 2, 12)
    assert all(schedule_rate(sched, s) == 0.4 for s in range(12))


def test_fixed_length_cycles_without_growth():
    sched = SparsitySchedule(0.2, 0.7, 2, 1, 4)
    assert [schedule_rate(sched, s) for s in range(4)] == [0.2, 0.7, 0.2, 0.7]


def test_unit_cycles_pin_to_s_max():
    sched = SparsitySchedule(0.1, 0.6, 1, 1, 3)
    assert [schedule_rate(sched, s) for s in range(3)] == [0.6, 0.6, 0.6]


def test_step_out_of_range():
    with pytest.raises(ValueError):
        schedule_rate(DEFAULTS, 12)
    with pytest.raises(ValueError):
        schedule_rate(DEFAULTS, -1)


def test_schedule_invariants_over_random_configs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        lo, hi = sorted(rng.random(2))
        sched = SparsitySchedule(
            lo, hi, int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 40))
        )
        # Independent cycle enumeration.
        boundaries = []
        start, length = 0, sched.t0
        while start < sched.total_steps:
            boundaries.append((start, length))
            start += length
            length *= sched.t_mult
        for cycle_start, cycle_len in boundaries:
            prev = None
            for t_cur in range(min(cycle_len, sched.total_steps - cycle_start)):
                rate = schedule_rate(sched, cycle_start + t_cur)
                assert sched.s_min - 1e-12 <= rate <= sched.s_max + 1e-12
                if t_cur == 0:
                    assert rate == sched.s_min or cycle_len == 1
                if prev is not None:
                    assert rate >= prev - 1e-12
                prev = rate


def test_schedule_validation():
    with pytest.raises(ValueError):
        SparsitySchedule(0.7, 0.3)
    with pytest.raises(ValueError):
        SparsitySchedule(t0=0)
    with pytest.raises(ValueError):
        SparsitySchedule(t_mult=0)


def test_prune_forced_magnitude_order():
    p = ParameterSet.from_pairs([("t", np.array([0.1, -0.2, 0.3, -0.4]))])
    pruned = prune(p, 0.5)
    assert np.array_equal(pruned["t"], [0.0, 0.0, 0.3, -0.4])


def test_prune_rate_zero_is_identity():
    p = rand_pset(0)
    pruned = prune(p, 0.0)
    for name, arr in p.layers:
        assert np.array_equal(arr, pruned[name])


def test_prune_rate_one_zeroes_everything():
    p = rand_pset(1)
    pruned = prune(p, 1.0)
    assert collect_stats(pruned).zero_frac == 1.0


def test_prune_tie_break_ascending_index():
    p = ParameterSet.from_pairs([("t", np.array([1.0, -1.0, 2.0, 1.0]))])
    pruned = prune(p, 0.5)
    assert np.array_equal(pruned["t"], [0.0, 0.0, 2.0, 1.0])


def reference_prune(flat: np.ndarray, rate: float) -> np.ndarray:
    """Zero the first floor(rate * n) entries of a stable argsort of |flat|."""
    out = flat.copy()
    out[np.argsort(np.abs(flat), kind="stable")[: int(np.floor(rate * flat.size))]] = 0.0
    return out


def test_prune_equals_stable_argsort_bit_for_bit():
    rng = np.random.default_rng(11)
    n = 60
    for trial in range(50):
        # Four magnitudes, so most cuts fall inside a block of ties; some
        # entries are 0.0 and some -0.0, and the signs vary.
        flat = rng.integers(0, 4, n) * rng.choice([-1.0, 1.0], n) * 0.5
        flat[rng.random(n) < 0.1] = -0.0
        p = ParameterSet.from_pairs([("w", flat[:40].reshape(8, 5)), ("b", flat[40:])])
        # Rate 0, rate 1 and a rate that prunes exactly k entries, for every k.
        for rate in [0.0, 1.0, *((k + 0.5) / n for k in range(n))]:
            got = flatten(prune(p, rate))
            assert np.array_equal(got.view(np.uint64), reference_prune(flat, rate).view(np.uint64)), (
                trial, rate)
    # A cut that falls strictly inside a block of equal magnitudes.
    p = ParameterSet.from_pairs([("t", np.array([2.0, -1.0, 1.0, -0.0, 1.0, 0.0, -1.0, 3.0]))])
    got = flatten(prune(p, 0.5))
    assert np.array_equal(got.view(np.uint64), reference_prune(flatten(p), 0.5).view(np.uint64))
    assert np.array_equal(got, [2.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 3.0])


def test_prune_invalid_rate():
    with pytest.raises(ValueError):
        prune(rand_pset(0), 1.5)


def test_prune_zero_count_and_survivors():
    rng = np.random.default_rng(42)
    for trial in range(200):
        p = rand_pset(trial, sparsity=float(rng.random() * 0.5))
        rate = float(rng.random())
        n = param_count(p)
        prior_zeros = int(np.count_nonzero(flatten(p) == 0.0))
        pruned = prune(p, rate)
        flat_before, flat_after = flatten(p), flatten(pruned)
        assert np.count_nonzero(flat_after == 0.0) == max(prior_zeros, int(np.floor(rate * n)))
        survivors = flat_after != 0.0
        assert np.array_equal(flat_before[survivors], flat_after[survivors])
        again = prune(pruned, rate)
        assert np.array_equal(flatten(again), flat_after)


def test_zero_count_weights_local():
    a = ParameterSet.from_pairs([("t", np.array([0.0, 0.0, 1.0, 2.0]))])
    b = ParameterSet.from_pairs([("t", np.array([1.0, 1.0, 1.0, 1.0]))])
    w = sparsity_weights(collect_stats(a), collect_stats(b), SparsityMeasure.ZERO_COUNT, Granularity.LOCAL)
    assert w["t"] == (0.5, 0.0)


def test_magnitude_weights_pair_normalized():
    a = ParameterSet.from_pairs([("t", np.array([2.0, 0.0, 2.0]))])
    b = ParameterSet.from_pairs([("t", np.array([1.0, 1.0, 1.0]))])
    w = sparsity_weights(collect_stats(a), collect_stats(b), SparsityMeasure.MAGNITUDE, Granularity.LOCAL)
    w_a, w_b = w["t"]
    assert w_a == pytest.approx(3.0 / 7.0, abs=1e-9)
    assert w_b == pytest.approx(4.0 / 7.0, abs=1e-9)
    assert w_a + w_b == pytest.approx(1.0, abs=1e-9)


def test_identical_models_get_equal_weights():
    p = rand_pset(3, sparsity=0.3)
    for measure in SparsityMeasure:
        for granularity in Granularity:
            w = sparsity_weights(collect_stats(p), collect_stats(p), measure, granularity)
            for name in p.names:
                assert w[name][0] == w[name][1]


def test_weights_swap_consistent():
    a = rand_pset(1, sparsity=0.4)
    b = rand_pset(2, sparsity=0.1)
    for measure in SparsityMeasure:
        for granularity in Granularity:
            w_ab = sparsity_weights(collect_stats(a), collect_stats(b), measure, granularity)
            w_ba = sparsity_weights(collect_stats(b), collect_stats(a), measure, granularity)
            for name in a.names:
                assert w_ab[name] == (w_ba[name][1], w_ba[name][0])


def test_weights_in_unit_interval():
    rng = np.random.default_rng(5)
    for trial in range(20):
        a = rand_pset(trial, sparsity=float(rng.random()))
        b = rand_pset(trial + 100, sparsity=float(rng.random()))
        for measure in SparsityMeasure:
            for granularity in Granularity:
                weights = sparsity_weights(collect_stats(a), collect_stats(b), measure, granularity)
                for w_a, w_b in weights.values():
                    assert 0.0 <= w_a <= 1.0 and 0.0 <= w_b <= 1.0


def test_magnitude_weights_sum_to_one_when_any_entry_nonzero():
    rng = np.random.default_rng(6)
    for trial in range(30):
        a = rand_pset(trial, sparsity=float(rng.random() * 0.95))
        b = rand_pset(trial + 500, sparsity=float(rng.random() * 0.95))
        for granularity in Granularity:
            weights = sparsity_weights(
                collect_stats(a), collect_stats(b), SparsityMeasure.MAGNITUDE, granularity
            )
            for name, (w_a, w_b) in weights.items():
                if granularity is Granularity.LOCAL:
                    any_nonzero = np.any(a[name] != 0.0) or np.any(b[name] != 0.0)
                else:
                    any_nonzero = any(
                        np.any(arr != 0.0) for p in (a, b) for _, arr in p.layers
                    )
                if any_nonzero:
                    assert abs(w_a + w_b - 1.0) < 1e-9


def test_global_weights_replicated_across_layers():
    a = rand_pset(1, sparsity=0.4)
    b = rand_pset(2)
    for measure in SparsityMeasure:
        weights = sparsity_weights(collect_stats(a), collect_stats(b), measure, Granularity.GLOBAL)
        values = set(weights.values())
        assert len(values) == 1


def test_collect_stats_extremes():
    zeros = ParameterSet.from_pairs([("t", np.zeros(10))])
    stats = collect_stats(zeros)
    assert stats.zero_frac == 1.0 and stats.mean_abs == 0.0
    dense = rand_pset(0)
    assert collect_stats(dense).zero_frac == 0.0


def test_collect_stats_after_global_prune():
    p = ParameterSet.from_pairs([("a", np.arange(1.0, 61.0)), ("b", np.arange(61.0, 101.0))])
    assert param_count(p) == 100
    stats = collect_stats(prune(p, 0.3))
    assert stats.zero_frac == pytest.approx(0.30, abs=1e-15)


def test_make_sparse_variants_even_spacing_round_robin():
    parents = [rand_pset(0), rand_pset(1)]
    sched = SparsitySchedule(0.1, 0.6, 3, 2, 12)
    variants = make_sparse_variants(parents, 8, sched)
    assert len(variants) == 6
    fractions = [collect_stats(v).zero_frac for v in variants]
    n = param_count(parents[0])
    expected_rates = np.linspace(0.1, 0.6, 6)
    assert np.allclose(fractions, [np.floor(r * n) / n for r in expected_rates], atol=1e-15)
    # Round-robin: even variants prune parent 0, odd variants parent 1.
    for i, v in enumerate(variants):
        parent_flat = flatten(parents[i % 2])
        v_flat = flatten(v)
        survivors = v_flat != 0.0
        assert np.array_equal(v_flat[survivors], parent_flat[survivors])


def test_make_sparse_variants_degenerate_cases():
    parents = [rand_pset(0), rand_pset(1)]
    assert make_sparse_variants(parents, 2, DEFAULTS) == []
    # A single variant is pruned at s_min, from the first parent.
    (single,) = make_sparse_variants(parents, 3, DEFAULTS)
    assert np.array_equal(flatten(single), flatten(prune(parents[0], DEFAULTS.s_min)))
    one = [rand_pset(2)]
    sched = SparsitySchedule(0.5, 0.5, 3, 2, 12)
    variants = make_sparse_variants(one, 3, sched)
    assert len(variants) == 2
    fracs = [collect_stats(v).zero_frac for v in variants]
    assert fracs[0] == fracs[1]
    with pytest.raises(ValueError):
        make_sparse_variants(parents, 1, DEFAULTS)
