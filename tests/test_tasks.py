import numpy as np
import pytest

from sparsemerge import tasks
from sparsemerge.params import (
    ParameterSet,
    flatten,
    param_count,
    require_compatible,
    stack,
    unflatten,
    unstack,
)
from sparsemerge.tasks import (
    Dataset,
    ExpertTrainConfig,
    MlpSpec,
    ModularOp,
    ModularTaskSpec,
    accuracy,
    build_experts,
    forward,
    full_split,
    gen_dataset,
    init_mlp,
    loss,
    loss_and_grad,
    sample_pairs,
    softmax,
    train,
    twin_tasks,
)


def test_labels_add_and_sub():
    add = ModularTaskSpec(13, ModularOp.ADD)
    sub = ModularTaskSpec(13, ModularOp.SUB)
    assert add.label(3, 4) == 7
    assert sub.label(3, 4) == 12


def test_gen_dataset_deterministic():
    spec = ModularTaskSpec(13, ModularOp.ADD, split_seed=3)
    d1 = gen_dataset(spec, "train", 40, seed=9)
    d2 = gen_dataset(spec, "train", 40, seed=9)
    assert np.array_equal(d1.inputs, d2.inputs)
    assert np.array_equal(d1.labels, d2.labels)


def test_inputs_are_one_hot_pairs():
    spec = ModularTaskSpec(7, ModularOp.ADD)
    data = gen_dataset(spec, "train", 20, seed=0)
    assert data.inputs.shape == (20, 14)
    assert np.all(data.inputs.sum(axis=1) == 2.0)
    assert np.all((data.inputs == 0.0) | (data.inputs == 1.0))


def test_train_and_test_pools_disjoint():
    for seed in range(10):
        spec = ModularTaskSpec(13, ModularOp.ADD, split_seed=seed)
        train_pairs = {tuple(p) for p in sample_pairs(spec, "train", 100, seed=1)}
        test_pairs = {tuple(p) for p in sample_pairs(spec, "test", 40, seed=2)}
        assert not train_pairs & test_pairs


def test_opt_draws_from_train_pool():
    spec = ModularTaskSpec(13, ModularOp.SUB, split_seed=5)
    train_pairs = {tuple(p) for p in full_split_pairs(spec, "train")}
    opt_pairs = {tuple(p) for p in sample_pairs(spec, "opt", 64, seed=7)}
    assert opt_pairs <= train_pairs


def full_split_pairs(spec, which):
    n = 13 * 13
    sizes = {"train": n - round(0.25 * n), "test": round(0.25 * n)}
    return sample_pairs(spec, which, sizes[which], seed=0)


def test_oversized_request_rejected():
    spec = ModularTaskSpec(13, ModularOp.ADD)
    with pytest.raises(ValueError):
        gen_dataset(spec, "test", 1000, seed=0)


def test_labels_match_op_in_generated_data():
    spec = ModularTaskSpec(11, ModularOp.SUB, split_seed=2)
    pairs = sample_pairs(spec, "train", 30, seed=4)
    data = gen_dataset(spec, "train", 30, seed=4)
    for (a, b), label in zip(pairs, data.labels):
        assert label == (int(a) - int(b)) % 11


def zero_network(spec: MlpSpec) -> ParameterSet:
    template = init_mlp(spec, 0)
    return ParameterSet.from_pairs((name, np.zeros_like(arr)) for name, arr in template.items())


def test_zero_weight_network_gives_uniform_loss():
    spec = MlpSpec(13, 32)
    data = gen_dataset(ModularTaskSpec(13, ModularOp.ADD), "train", 50, seed=0)
    value = loss(zero_network(spec), data)
    assert value == pytest.approx(np.log(13.0), abs=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    probs = softmax(rng.standard_normal((40, 13)) * 10.0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12, rtol=0)


def fd_gradient(p: ParameterSet, batch: Dataset, h: float = 1e-5) -> ParameterSet:
    flat = flatten(p)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        up = loss(unflatten(p, bumped), batch)
        bumped[i] -= 2 * h
        down = loss(unflatten(p, bumped), batch)
        grad[i] = (up - down) / (2 * h)
    return unflatten(p, grad)


def gradient_check(seed: int, spec: MlpSpec, batch: Dataset) -> float:
    rng = np.random.default_rng(seed)
    base = init_mlp(spec, seed)
    jitter = ParameterSet.from_pairs(
        (name, arr + 0.3 * rng.standard_normal(arr.shape)) for name, arr in base.items()
    )
    _, analytic = loss_and_grad(jitter, batch)
    numeric = fd_gradient(jitter, batch)
    worst = 0.0
    for name in jitter.names:
        diff = np.max(np.abs(analytic[name] - numeric[name]))
        scale = max(np.max(np.abs(numeric[name])), 1e-12)
        worst = max(worst, diff / scale)
    return worst


def test_gradient_matches_finite_differences():
    spec = MlpSpec(4, 8)
    assert param_count(init_mlp(spec, 0)) <= 200
    batch = gen_dataset(ModularTaskSpec(4, ModularOp.ADD), "train", 8, seed=1)
    for seed in range(5):
        assert gradient_check(seed, spec, batch) < 1e-4


def test_one_epoch_reduces_loss():
    spec = ModularTaskSpec(13, ModularOp.ADD, split_seed=0)
    data = full_split(spec, "train")
    net = init_mlp(MlpSpec(13, 32), 0)
    trained = train(net, data, learning_rate=0.1, epochs=1, batch_size=32, seed=0)
    assert loss(trained, data) < loss(net, data)


def test_descent_sanity_at_small_learning_rate():
    spec = ModularTaskSpec(13, ModularOp.SUB, split_seed=1)
    data = full_split(spec, "train")
    net = init_mlp(MlpSpec(13, 32), 1)
    trained = train(net, data, learning_rate=0.01, epochs=5, batch_size=32, seed=3)
    assert loss(trained, data) <= loss(net, data)


def exact_table_network(spec: ModularTaskSpec) -> ParameterSet:
    """Hand-built net whose logits are one-hot on the true label."""
    m = spec.modulus
    h = m * m
    fc1_w = np.zeros((2 * m, h))
    fc3_w = np.zeros((h, m))
    for a in range(m):
        for b in range(m):
            unit = a * m + b
            fc1_w[a, unit] = 1.0
            fc1_w[m + b, unit] = 1.0
            fc3_w[unit, spec.label(a, b)] = 10.0
    return ParameterSet.from_pairs(
        [
            ("fc1_w", fc1_w),
            ("fc1_b", -np.ones(h)),
            ("fc2_w", np.eye(h)),
            ("fc2_b", np.zeros(h)),
            ("fc3_w", fc3_w),
            ("fc3_b", np.zeros(m)),
        ]
    )


def test_label_emitting_oracle_scores_one():
    spec = ModularTaskSpec(5, ModularOp.ADD, split_seed=0)
    oracle = exact_table_network(spec)
    for which in ("train", "test"):
        assert accuracy(oracle, full_split(spec, which)) == 1.0


def test_empty_dataset_rejected():
    net = init_mlp(MlpSpec(5, 4), 0)
    empty = Dataset(np.zeros((0, 10)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        accuracy(net, empty)
    with pytest.raises(ValueError):
        loss_and_grad(net, empty)


def test_forward_shapes():
    spec = MlpSpec(13, 32)
    net = init_mlp(spec, 0)
    data = gen_dataset(ModularTaskSpec(13, ModularOp.ADD), "train", 17, seed=0)
    assert forward(net, data.inputs).shape == (17, 13)


def test_forward_rejects_mismatched_input_width():
    net = init_mlp(MlpSpec(13, 32), 0)
    wrong = gen_dataset(ModularTaskSpec(7, ModularOp.ADD), "train", 5, seed=0)
    with pytest.raises(ValueError):
        forward(net, wrong.inputs)


def test_expert_pipeline(expert_bundle):
    base, expert_add, expert_sub, (add_spec, sub_spec) = expert_bundle
    require_compatible(base, expert_add, expert_sub)

    assert accuracy(expert_add, full_split(add_spec, "train")) >= 0.95

    add_test = full_split(add_spec, "test")
    sub_test = full_split(sub_spec, "test")
    assert accuracy(expert_add, add_test) > accuracy(base, add_test)
    assert accuracy(expert_sub, sub_test) > accuracy(base, sub_test)
    assert accuracy(expert_add, sub_test) < accuracy(expert_sub, sub_test)


def test_twin_tasks_share_split_seed():
    add_spec, sub_spec = twin_tasks(13, split_seed=7)
    assert add_spec.op is ModularOp.ADD and sub_spec.op is ModularOp.SUB
    assert add_spec.split_seed == sub_spec.split_seed == 7


def test_lockstep_experts_equal_separate_training():
    """build_experts trains both experts as one stack; each must be bit for
    bit the expert a K=1 train call from the same base gives."""
    seed, m, hidden = 3, 5, 8
    recipe = ExpertTrainConfig(base_epochs=3, expert_epochs=40, batch_size=4)
    base, expert_add, expert_sub = build_experts(seed, m, hidden, recipe)
    for k, (spec, expert) in enumerate(zip(twin_tasks(m, split_seed=seed), (expert_add, expert_sub))):
        alone = train(base, full_split(spec, "train"), learning_rate=recipe.learning_rate,
                      epochs=recipe.expert_epochs, batch_size=recipe.batch_size,
                      seed=seed * 7 + 1 + k, weight_decay=recipe.weight_decay)
        assert np.array_equal(flatten(expert), flatten(alone))


def test_stacked_gradient_slices_equal_single_model_gradients():
    spec = MlpSpec(5, 8)
    models = [init_mlp(spec, seed) for seed in range(3)]
    batches = [
        gen_dataset(ModularTaskSpec(5, op, split_seed=1), "train", 7, seed=seed)
        for seed, op in enumerate((ModularOp.ADD, ModularOp.SUB, ModularOp.ADD))
    ]
    stacked_batch = Dataset(np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches]))
    values, stacked_grad = loss_and_grad(stack(models), stacked_batch)
    for k, (model, batch, grad) in enumerate(zip(models, batches, unstack(stacked_grad))):
        value, single = loss_and_grad(model, batch)
        assert values[k] == value
        assert np.array_equal(flatten(grad), flatten(single))


def frozen(batch: Dataset) -> Dataset:
    """A read-only copy of ``batch``, whose linearization loss_and_grad may reuse."""
    inputs, labels = batch.inputs.copy(), batch.labels.copy()
    inputs.flags.writeable = labels.flags.writeable = False
    return Dataset(inputs, labels)


def test_stacked_hessian_vector_products_equal_single_model_products():
    spec = MlpSpec(5, 8)
    models = [init_mlp(spec, seed) for seed in range(3)]
    rng = np.random.default_rng(2)
    tangents = [unflatten(m, rng.standard_normal(param_count(m))) for m in models]
    batches = [
        gen_dataset(ModularTaskSpec(5, op, split_seed=1), "train", 7, seed=seed)
        for seed, op in enumerate((ModularOp.ADD, ModularOp.SUB, ModularOp.ADD))
    ]
    # A read-only stack, so that the second stacked call reuses the first one's
    # linearization; the per-model batches are writable and reuse nothing.
    stacked_batch = frozen(Dataset(np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches])))
    stacked_models, stacked_tangents = stack(models), stack(tangents)
    for _ in range(2):
        stacked_values, stacked_hv = loss_and_grad(stacked_models, stacked_batch, stacked_tangents)
        for k, (model, batch, tangent) in enumerate(zip(models, batches, tangents)):
            value, hv = loss_and_grad(model, batch, tangent)
            assert stacked_values[k] == value
            assert np.array_equal(flatten(unstack(stacked_hv)[k]), flatten(hv))


def test_tangent_calls_reuse_a_linearization_only_where_it_is_the_same(monkeypatch):
    """Interleaved tangents, points and batches give bit for bit what fresh
    copies of the same point and batch give, while each run of calls at one
    point on one read-only batch linearizes once."""
    spec = MlpSpec(5, 8)
    points = [init_mlp(spec, seed) for seed in range(2)]
    rng = np.random.default_rng(5)
    tangents = [unflatten(points[0], rng.standard_normal(param_count(points[0]))) for _ in range(3)]
    batches = [frozen(gen_dataset(ModularTaskSpec(5, ModularOp.ADD), "train", 9, seed=s)) for s in range(2)]

    def fresh(p, batch, tangent):
        return loss_and_grad(unflatten(p, flatten(p)), frozen(batch), tangent)

    calls = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 0, 0)]
    expected = [fresh(points[i], batches[b], tangents[t]) for i, b, t in calls]
    linearized = []
    original = tasks._linearize

    def counting(p, batch):
        linearized.append(batch)
        return original(p, batch)

    monkeypatch.setattr(tasks, "_linearize", counting)
    for (i, b, t), (value, hv) in zip(calls, expected):
        got_value, got_hv = loss_and_grad(points[i], batches[b], tangents[t])
        assert got_value == value
        assert np.array_equal(flatten(got_hv), flatten(hv))
    assert len(linearized) == 5


def test_a_writable_batch_is_linearized_afresh_after_it_changes():
    net = init_mlp(MlpSpec(5, 8), 0)
    batch = gen_dataset(ModularTaskSpec(5, ModularOp.ADD), "train", 9, seed=0)
    other = gen_dataset(ModularTaskSpec(5, ModularOp.SUB), "train", 9, seed=1)
    tangent = unflatten(net, np.random.default_rng(1).standard_normal(param_count(net)))
    loss_and_grad(net, batch, tangent)
    batch.inputs[...] = other.inputs
    batch.labels[...] = other.labels
    assert np.array_equal(flatten(loss_and_grad(net, batch, tangent)[1]),
                          flatten(loss_and_grad(net, other, tangent)[1]))


def test_a_tangent_leaves_the_loss_and_gradient_unchanged():
    net = init_mlp(MlpSpec(5, 8), 0)
    batch = gen_dataset(ModularTaskSpec(5, ModularOp.ADD), "train", 9, seed=0)
    tangent = unflatten(net, np.random.default_rng(0).standard_normal(param_count(net)))
    assert loss_and_grad(net, batch, tangent)[0] == loss_and_grad(net, batch)[0]


def test_train_rejects_a_model_stack_that_does_not_match_the_dataset():
    spec = ModularTaskSpec(5, ModularOp.ADD)
    one = full_split(spec, "train")
    two = Dataset(np.stack([one.inputs] * 2), np.stack([one.labels] * 2))
    net = init_mlp(MlpSpec(5, 4), 0)
    for model, data in ((stack([net, net]), one), (net, two), (stack([net] * 3), two)):
        with pytest.raises(ValueError, match="does not match"):
            train(model, data, learning_rate=0.1, epochs=1, batch_size=32, seed=0)
