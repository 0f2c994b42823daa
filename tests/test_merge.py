import numpy as np
import pytest

from conftest import rand_pset
from sparsemerge.merge import (
    MergeConfig,
    compute_lambda,
    merge_layer,
    merge_models,
    redense,
    task_arithmetic,
    weight_average,
)
from sparsemerge.params import ParameterSet, flatten
from sparsemerge.sparsity import Granularity, SparsityMeasure, collect_stats, prune


def oracle_merge(a, b, lam):
    """Independent per-element application of the four-branch rule."""
    out = np.empty_like(a)
    flat_a, flat_b, flat_out = a.ravel(), b.ravel(), out.ravel()
    for i in range(flat_a.size):
        if flat_a[i] == 0.0 and flat_b[i] == 0.0:
            flat_out[i] = 0.0
        elif flat_a[i] == 0.0:
            flat_out[i] = flat_b[i]
        elif flat_b[i] == 0.0:
            flat_out[i] = flat_a[i]
        else:
            flat_out[i] = lam * flat_a[i] + (1.0 - lam) * flat_b[i]
    return out


def test_lambda_direct_substitution():
    assert compute_lambda(0.6, 0.2, 0.4, 0.2) == pytest.approx(1.0 / 1.4, abs=1e-12)


def test_lambda_symmetry_and_degenerate():
    assert compute_lambda(0.3, 0.3, 0.7, 0.7) == 0.5
    assert compute_lambda(0.0, 0.0, 0.0, 0.0) == 0.5


def test_lambda_rejects_negative_inputs():
    with pytest.raises(ValueError):
        compute_lambda(-0.1, 0.2, 0.3, 0.4)


def test_lambda_complement_identity_exact():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        s_a, s_b, w_a, w_b = rng.random(4) * rng.choice([1e-6, 1.0, 1e3], size=4)
        lam = compute_lambda(s_a, s_b, w_a, w_b)
        comp = compute_lambda(s_b, s_a, w_b, w_a)
        assert 0.0 <= lam <= 1.0
        assert lam + comp == 1.0
    assert compute_lambda(0.0, 0.0, 0.0, 0.0) + compute_lambda(0.0, 0.0, 0.0, 0.0) == 1.0


def test_merge_layer_exercises_all_branches():
    merged = merge_layer(np.array([1.0, 0.0, 2.0]), np.array([0.0, 3.0, 4.0]), 0.5)
    assert np.array_equal(merged, [1.0, 3.0, 3.0])


def test_merge_layer_lambda_one_returns_a():
    a, b = np.array([1.5, -2.0, 0.25]), np.array([4.0, 5.0, 6.0])
    assert np.array_equal(merge_layer(a, b, 1.0), a)


def test_merge_layer_shape_and_lambda_validation():
    with pytest.raises(ValueError):
        merge_layer(np.zeros(3), np.zeros(4), 0.5)
    with pytest.raises(ValueError):
        merge_layer(np.zeros(3), np.zeros(3), 1.5)


def test_merge_layer_matches_oracle_on_random_sparse_pairs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        sparsity_a, sparsity_b = rng.random(2) * 0.9
        a = np.where(rng.random(n) < sparsity_a, 0.0, rng.standard_normal(n))
        b = np.where(rng.random(n) < sparsity_b, 0.0, rng.standard_normal(n))
        lam = float(rng.random())
        merged = merge_layer(a, b, lam)
        expected = oracle_merge(a, b, lam)
        attraction = (a == 0.0) | (b == 0.0)
        assert np.array_equal(merged[attraction], expected[attraction])
        assert np.allclose(merged[~attraction], expected[~attraction], atol=1e-12, rtol=0)


def test_merge_layer_swap_complement():
    rng = np.random.default_rng(3)
    # Dyadic lambdas make 1 - lam exact, so the swapped merge is bit-identical.
    for lam in np.arange(0.0, 1.0 + 1e-9, 0.125):
        a = np.where(rng.random(30) < 0.3, 0.0, rng.standard_normal(30))
        b = np.where(rng.random(30) < 0.3, 0.0, rng.standard_normal(30))
        assert np.array_equal(merge_layer(a, b, float(lam)), merge_layer(b, a, float(1.0 - lam)))
    for _ in range(100):
        lam = float(rng.random())
        a, b = rng.standard_normal(30), rng.standard_normal(30)
        assert np.allclose(
            merge_layer(a, b, lam), merge_layer(b, a, 1.0 - lam), atol=1e-12, rtol=0
        )


def test_merge_layer_attraction_and_zero_preservation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = np.where(rng.random(50) < 0.4, 0.0, rng.standard_normal(50))
        b = np.where(rng.random(50) < 0.4, 0.0, rng.standard_normal(50))
        merged = merge_layer(a, b, float(rng.random()))
        only_a = (a != 0.0) & (b == 0.0)
        only_b = (a == 0.0) & (b != 0.0)
        assert np.array_equal(merged[only_a], a[only_a])
        assert np.array_equal(merged[only_b], b[only_b])
        assert np.array_equal(merged == 0.0, (a == 0.0) & (b == 0.0))


def test_merge_layer_interpolation_bounds():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal(100), rng.standard_normal(100)
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        merged = merge_layer(a, b, lam)
        assert np.all(merged >= np.minimum(a, b) - 1e-12)
        assert np.all(merged <= np.maximum(a, b) + 1e-12)


def test_merge_models_identical_parents():
    p = rand_pset(0, sparsity=0.2)
    merged, lambdas = merge_models(p, p, collect_stats(p), collect_stats(p), 0.7, 0.7, MergeConfig())
    assert all(lam == 0.5 for lam in lambdas.values())
    for name, arr in p.layers:
        nonzero = arr != 0.0
        assert np.array_equal(merged[name][nonzero], arr[nonzero])


def test_merge_models_dense_vs_all_zero():
    dense = rand_pset(1)
    hollow = ParameterSet.from_pairs((name, np.zeros_like(arr)) for name, arr in dense.layers)
    stats = collect_stats(dense), collect_stats(hollow)
    merged, _ = merge_models(dense, hollow, *stats, 0.1, 0.9, MergeConfig())
    for name, arr in dense.layers:
        assert np.array_equal(merged[name], arr)


def test_merge_models_granularity_changes_lambda_structure():
    rng = np.random.default_rng(9)
    layer1 = rng.standard_normal(50)
    layer2 = rng.standard_normal(50)
    a = ParameterSet.from_pairs(
        [("l1", np.where(rng.random(50) < 0.8, 0.0, layer1)), ("l2", layer2)]
    )
    b = ParameterSet.from_pairs(
        [("l1", rng.standard_normal(50)), ("l2", np.where(rng.random(50) < 0.8, 0.0, layer1))]
    )
    cfg_local = MergeConfig(measure=SparsityMeasure.ZERO_COUNT, granularity=Granularity.LOCAL)
    cfg_global = MergeConfig(measure=SparsityMeasure.ZERO_COUNT, granularity=Granularity.GLOBAL)
    _, local_lams = merge_models(a, b, collect_stats(a), collect_stats(b), 0.5, 0.5, cfg_local)
    _, global_lams = merge_models(a, b, collect_stats(a), collect_stats(b), 0.5, 0.5, cfg_global)
    assert local_lams["l1"] != local_lams["l2"]
    assert len(set(global_lams.values())) == 1


def test_merge_models_rejects_incompatible():
    a, b = rand_pset(0), rand_pset(1, shapes=[("w1", (2, 2))])
    with pytest.raises(ValueError):
        merge_models(a, b, collect_stats(a), collect_stats(b), 0.5, 0.5, MergeConfig())


def test_merge_models_rejects_statistics_of_other_layers():
    a, b = rand_pset(0), rand_pset(1)
    other = collect_stats(rand_pset(2, shapes=[("w1", (4, 3)), ("b1", (3,))]))
    with pytest.raises(ValueError, match="statistics of layers w1, b1, expected w1, b1, w2, b2"):
        merge_models(a, b, collect_stats(a), other, 0.5, 0.5, MergeConfig())
    with pytest.raises(ValueError, match="statistics of layers"):
        merge_models(a, b, other, collect_stats(b), 0.5, 0.5, MergeConfig())


def recomputed_weights(a, b, measure, granularity):
    """Sparsity weights computed from the models themselves, as merge_models
    did before it took the parents' statistics."""
    def measures(p):
        zero = {name: np.count_nonzero(arr == 0.0) / arr.size for name, arr in p.layers}
        mean = {name: float(np.abs(arr).mean()) for name, arr in p.layers}
        n = sum(arr.size for _, arr in p.layers)
        total_zero = sum(np.count_nonzero(arr == 0.0) for _, arr in p.layers) / n
        total_mean = sum(float(np.abs(arr).sum()) for _, arr in p.layers) / n
        return zero, mean, total_zero, total_mean

    zero_a, mean_a, total_zero_a, total_mean_a = measures(a)
    zero_b, mean_b, total_zero_b, total_mean_b = measures(b)
    out = {}
    for name in a.names:
        local = granularity is Granularity.LOCAL
        if measure is SparsityMeasure.ZERO_COUNT:
            out[name] = (zero_a[name], zero_b[name]) if local else (total_zero_a, total_zero_b)
        else:
            m_a, m_b = (mean_a[name], mean_b[name]) if local else (total_mean_a, total_mean_b)
            den = m_a + m_b + 1e-12
            out[name] = (1.0 - m_a / den, 1.0 - m_b / den)
    return out


def test_merge_models_from_parent_statistics_equals_recomputing_them():
    rng = np.random.default_rng(13)
    for trial in range(20):
        a = rand_pset(trial, sparsity=float(rng.random()))
        b = prune(rand_pset(trial + 50, sparsity=0.2), float(rng.random()))
        s_a, s_b = float(rng.random()), float(rng.random())
        for measure in SparsityMeasure:
            for granularity in Granularity:
                cfg = MergeConfig(measure=measure, granularity=granularity)
                merged, lambdas = merge_models(a, b, collect_stats(a), collect_stats(b), s_a, s_b, cfg)
                weights = recomputed_weights(a, b, measure, granularity)
                assert lambdas == {name: compute_lambda(s_a, s_b, *weights[name]) for name in a.names}
                for name in a.names:
                    expected = oracle_merge(a[name], b[name], lambdas[name])
                    assert np.array_equal(merged[name].view(np.uint64), expected.view(np.uint64))


def test_redense_examples():
    p = ParameterSet.from_pairs([("t", np.array([0.0, 5.0]))])
    donor = ParameterSet.from_pairs([("t", np.array([7.0, 9.0]))])
    assert np.array_equal(redense(p, donor)["t"], [7.0, 5.0])
    dense = rand_pset(2)
    restored = redense(dense, rand_pset(3))
    for name, arr in dense.layers:
        assert np.array_equal(restored[name], arr)


def test_redense_inverts_prune():
    rng = np.random.default_rng(13)
    for trial in range(100):
        theta = rand_pset(trial)
        rate = float(rng.random())
        restored = redense(prune(theta, rate), theta)
        assert np.array_equal(flatten(restored), flatten(theta))


def test_redense_never_zeroes_donor_nonzero():
    p = rand_pset(1, sparsity=0.5)
    donor = rand_pset(2, sparsity=0.2)
    restored = redense(p, donor)
    for name in p.names:
        bad = (restored[name] == 0.0) & (donor[name] != 0.0)
        assert not bad.any()


def test_weight_average_examples():
    theta = rand_pset(4)
    avg = weight_average([theta, theta])
    for name, arr in theta.layers:
        assert np.array_equal(avg[name], arr)
    two = ParameterSet.from_pairs([("t", np.array([2.0]))])
    four = ParameterSet.from_pairs([("t", np.array([4.0]))])
    assert np.array_equal(weight_average([two, four])["t"], [3.0])
    with pytest.raises(ValueError):
        weight_average([])


def test_weight_average_matches_elementwise_oracle():
    models = [rand_pset(i) for i in range(5)]
    avg = weight_average(models)
    for name in models[0].names:
        expected = np.zeros_like(models[0][name])
        for m in models:
            expected = expected + m[name]
        expected = expected / len(models)
        assert np.allclose(avg[name], expected, atol=1e-12, rtol=0)


def test_task_arithmetic_examples():
    base = ParameterSet.from_pairs([("t", np.array([0.0]))])
    e1 = ParameterSet.from_pairs([("t", np.array([1.0]))])
    e2 = ParameterSet.from_pairs([("t", np.array([2.0]))])
    assert np.array_equal(task_arithmetic(base, [e1, e2], 1.0)["t"], [3.0])

    rand_base, expert = rand_pset(5), rand_pset(6)
    zero_scale = task_arithmetic(rand_base, [expert], 0.0)
    for name, arr in rand_base.layers:
        assert np.array_equal(zero_scale[name], arr)
    identity = task_arithmetic(rand_base, [expert], 1.0)
    for name, arr in expert.layers:
        assert np.array_equal(identity[name], arr)
    with pytest.raises(ValueError):
        task_arithmetic(rand_base, [], 1.0)
