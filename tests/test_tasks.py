import numpy as np
import pytest

from conftest import twin_tasks
from sparsemerge.landscape import hvp
from sparsemerge.params import (
    ParameterSet,
    flatten,
    param_count,
    require_compatible,
    stack,
    unflatten,
    unstack,
)
from sparsemerge.seeding import TAG_DATA, substream
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
    linearize,
    loss,
    loss_and_grad,
    sample_pairs,
    softmax,
    train,
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
    # The full pools: the m*m pairs in row-major order, split by the task's
    # permutation, each one-hot encoded and labelled by the op.
    for m in (2, 7, 13):
        for op, sign in ((ModularOp.ADD, 1), (ModularOp.SUB, -1)):
            spec = ModularTaskSpec(m, op, split_seed=3)
            ordered = np.array([(a, b) for a in range(m) for b in range(m)])
            perm = substream(3, TAG_DATA, m, 0 if op is ModularOp.ADD else 1).permutation(m * m)
            n_test = spec.pool_size("test")
            for which, expected in (("train", ordered[perm[n_test:]]), ("test", ordered[perm[:n_test]])):
                data = full_split(spec, which)
                rows = np.arange(len(expected))
                one_hot = np.zeros((len(expected), 2 * m))
                one_hot[rows, expected[:, 0]] = 1.0
                one_hot[rows, m + expected[:, 1]] = 1.0
                assert np.array_equal(data.inputs, one_hot)
                assert data.labels.dtype == np.int64
                assert data.labels.tolist() == [(int(a) + sign * int(b)) % m for a, b in expected]


def zero_network(spec: MlpSpec) -> ParameterSet:
    template = init_mlp(spec, 0)
    return ParameterSet.from_pairs((name, np.zeros_like(arr)) for name, arr in template.layers)


@pytest.mark.parametrize("spec", [MlpSpec(13, 32), MlpSpec(2, 1), MlpSpec(5, 7)])
def test_mlp_spec_of_reads_the_widths_back(spec):
    assert MlpSpec.of(init_mlp(spec, 0)) == spec


def _with_layer(p: ParameterSet, name: str, arr) -> ParameterSet:
    return ParameterSet.from_pairs((n, arr if n == name else a) for n, a in p.layers)


NOT_AN_MLP = {
    "layers out of order": (
        lambda p: ParameterSet.from_pairs(reversed(p.layers)),
        "layers fc3_b, fc3_w, fc2_b, fc2_w, fc1_b, fc1_w, expected fc1_w, fc1_b, fc2_w, fc2_b, fc3_w, fc3_b"),
    "a layer missing": (
        lambda p: ParameterSet.from_pairs(p.layers[:-1]),
        "layers fc1_w, fc1_b, fc2_w, fc2_b, fc3_w, expected fc1_w, fc1_b, fc2_w, fc2_b, fc3_w, fc3_b"),
    "one output": (
        lambda p: _with_layer(_with_layer(p, "fc3_w", np.zeros((4, 1))), "fc3_b", np.zeros(1)),
        "fc3_w has 1 output, expected a modulus >= 2"),
    "wrong fc2_w": (
        lambda p: _with_layer(p, "fc2_w", np.zeros((4, 5))),
        "does not fit widths [6, 4, 4, 3] (m=3): fc2_w is [4, 5], expected [4, 4]"),
    "wrong input width": (
        lambda p: _with_layer(p, "fc1_w", np.zeros((7, 4))),
        "does not fit widths [6, 4, 4, 3] (m=3): fc1_w is [7, 4], expected [6, 4]"),
    "a stack": (
        lambda p: stack([p, p]),
        "does not fit widths [6, 4, 4, 3] (m=3): fc1_w is [2, 6, 4], expected [6, 4]; "
        "fc1_b is [2, 4], expected [4]; fc2_w is [2, 4, 4], expected [4, 4]; fc2_b is [2, 4], "
        "expected [4]; fc3_w is [2, 4, 3], expected [4, 3]; fc3_b is [2, 3], expected [3]"),
}


@pytest.mark.parametrize("case", list(NOT_AN_MLP))
def test_mlp_spec_of_names_what_is_not_an_mlp(case):
    change, message = NOT_AN_MLP[case]
    with pytest.raises(ValueError) as info:
        MlpSpec.of(change(init_mlp(MlpSpec(3, 4), 0)))
    assert str(info.value) == message


def test_derivatives_refuse_layers_out_of_order():
    """The derivative passes take the layers by position, so a model whose
    layers are not LAYER_NAMES in order is refused, not differentiated."""
    p = init_mlp(MlpSpec(3, 4), 0)
    reordered = ParameterSet.from_pairs(reversed(p.layers))
    batch = gen_dataset(ModularTaskSpec(3, ModularOp.ADD), "train", 5, seed=0)
    tangent = np.ones(param_count(p))
    expected = NOT_AN_MLP["layers out of order"][1]
    for differentiate in (
        lambda: linearize(reordered, batch),
        lambda: loss_and_grad(reordered, batch),
        lambda: loss_and_grad(reordered, batch, tangent),
        lambda: hvp(linearize(reordered, batch), tangent),
    ):
        with pytest.raises(ValueError) as info:
            differentiate()
        assert str(info.value) == expected


def test_zero_weight_network_gives_uniform_loss():
    spec = MlpSpec(13, 32)
    data = gen_dataset(ModularTaskSpec(13, ModularOp.ADD), "train", 50, seed=0)
    value = loss(zero_network(spec), data)
    assert value == pytest.approx(np.log(13.0), abs=1e-12)


def test_loss_is_the_value_loss_and_grad_returns():
    """One cross-entropy: ``loss`` is bit for bit the value of ``loss_and_grad``,
    for one model and for each model of a stack of two."""
    spec = MlpSpec(5, 8)
    models = [init_mlp(spec, seed) for seed in (1, 2)]
    batches = [gen_dataset(ModularTaskSpec(5, op, split_seed=1), "train", 9, seed=3) for op in ModularOp]
    assert loss(models[0], batches[0]) == loss_and_grad(models[0], batches[0])[0]
    stacked_batch = Dataset(np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches]))
    values = loss_and_grad(stack(models), stacked_batch)[0]
    assert values.shape == (2,)
    assert [loss(m, b) for m, b in zip(models, batches)] == list(values)


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
        (name, arr + 0.3 * rng.standard_normal(arr.shape)) for name, arr in base.layers
    )
    analytic = unflatten(jitter, loss_and_grad(jitter, batch)[1])
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
    trained = train(net, data, learning_rate=0.1, epochs=1, batch_size=32, seeds=[0])
    assert loss(trained, data) < loss(net, data)


def test_descent_sanity_at_small_learning_rate():
    spec = ModularTaskSpec(13, ModularOp.SUB, split_seed=1)
    data = full_split(spec, "train")
    net = init_mlp(MlpSpec(13, 32), 1)
    trained = train(net, data, learning_rate=0.01, epochs=5, batch_size=32, seeds=[3])
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


def test_accuracy_is_the_python_float_mean_of_matches():
    # Trace files print repr(accuracy), so it must stay a Python float.
    for m, seed in ((5, 0), (7, 1), (13, 2)):
        net = init_mlp(MlpSpec(m, 16), seed)
        for which in ("train", "test"):
            data = full_split(ModularTaskSpec(m, ModularOp.SUB, split_seed=seed), which)
            value = accuracy(net, data)
            assert type(value) is float
            assert value == float((forward(net, data.inputs).argmax(axis=1) == data.labels).mean())


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
    specs = twin_tasks(m, split_seed=seed)
    base, expert_add, expert_sub = build_experts(specs, seed, hidden, recipe)
    for k, (spec, expert) in enumerate(zip(specs, (expert_add, expert_sub))):
        alone = train(base, full_split(spec, "train"), learning_rate=recipe.learning_rate,
                      epochs=recipe.expert_epochs, batch_size=recipe.batch_size,
                      seeds=[seed * 7 + 1 + k], weight_decay=recipe.weight_decay)
        assert np.array_equal(flatten(expert), flatten(alone))


def test_a_stack_of_unrelated_models_equals_training_each_alone():
    """Each model of a stack shuffles with its own seed, whatever its start:
    two nets of different inits, on the pools of two different tasks, trained
    as one stack, are bit for bit the nets that train gives each alone."""
    specs = (ModularTaskSpec(5, ModularOp.ADD, split_seed=1), ModularTaskSpec(5, ModularOp.SUB, split_seed=4))
    nets = [init_mlp(MlpSpec(5, 8), 2), init_mlp(MlpSpec(5, 8), 9)]
    pools = [full_split(spec, "train") for spec in specs]
    seeds, sgd = [3, 11], dict(learning_rate=0.5, epochs=20, batch_size=4, weight_decay=0.012)
    data = Dataset(np.stack([d.inputs for d in pools]), np.stack([d.labels for d in pools]))
    together = unstack(train(stack(nets), data, seeds=seeds, **sgd))
    for net, pool, seed, trained in zip(nets, pools, seeds, together):
        assert np.array_equal(flatten(trained), flatten(train(net, pool, seeds=[seed], **sgd)))


def test_stacked_gradient_slices_equal_single_model_gradients():
    spec = MlpSpec(5, 8)
    models = [init_mlp(spec, seed) for seed in range(3)]
    batches = [
        gen_dataset(ModularTaskSpec(5, op, split_seed=1), "train", 7, seed=seed)
        for seed, op in enumerate((ModularOp.ADD, ModularOp.SUB, ModularOp.ADD))
    ]
    stacked_batch = Dataset(np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches]))
    stacked_models = stack(models)
    values, stacked_grad = loss_and_grad(stacked_models, stacked_batch)
    for k, (model, batch, grad) in enumerate(zip(models, batches, unstack(unflatten(stacked_models, stacked_grad)))):
        value, single = loss_and_grad(model, batch)
        assert values[k] == value
        assert np.array_equal(flatten(grad), single)


def test_stacked_hessian_vector_products_equal_single_model_products():
    spec = MlpSpec(5, 8)
    models = [init_mlp(spec, seed) for seed in range(3)]
    rng = np.random.default_rng(2)
    tangents = [unflatten(m, rng.standard_normal(param_count(m))) for m in models]
    batches = [
        gen_dataset(ModularTaskSpec(5, op, split_seed=1), "train", 7, seed=seed)
        for seed, op in enumerate((ModularOp.ADD, ModularOp.SUB, ModularOp.ADD))
    ]
    stacked_batch = Dataset(np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches]))
    stacked_models, stacked_tangents = stack(models), stack(tangents)
    # The second stacked call reuses the first one's linearization; the
    # per-model calls linearize afresh.
    lin = linearize(stacked_models, stacked_batch)
    for _ in range(2):
        stacked_values, stacked_hv = loss_and_grad(stacked_models, stacked_batch, flatten(stacked_tangents), lin)
        for k, (model, batch, tangent) in enumerate(zip(models, batches, tangents)):
            value, hv = loss_and_grad(model, batch, flatten(tangent))
            assert stacked_values[k] == value
            assert np.array_equal(flatten(unstack(unflatten(stacked_models, stacked_hv))[k]), hv)


def test_tangent_calls_reuse_a_linearization_only_where_it_is_the_same():
    """Given the linearization of its point and batch, loss_and_grad returns
    bit for bit what it returns without one, for a tangent or none, on one
    model and on a stack; one of another point or batch is refused."""
    spec = MlpSpec(5, 8)
    rng = np.random.default_rng(5)
    batches = [gen_dataset(ModularTaskSpec(5, ModularOp.ADD), "train", 9, seed=s) for s in range(2)]
    single = (init_mlp(spec, 0), batches[0])
    stacked = (stack([init_mlp(spec, 0), init_mlp(spec, 1)]),
               Dataset(np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches])))
    for p, batch in (single, stacked):
        lin = linearize(p, batch)
        for tangent in (None, rng.standard_normal(param_count(p)), rng.standard_normal(param_count(p))):
            value, derivative = loss_and_grad(p, batch, tangent, lin)
            fresh_value, fresh = loss_and_grad(p, batch, tangent)
            assert np.array_equal(value, fresh_value) and np.array_equal(derivative, fresh)
            # A stack's values are the caller's own: the next call, given the
            # same lin, still returns the loss.
            if isinstance(value, np.ndarray):
                value[...] = 0.0
        tangent = rng.standard_normal(param_count(p))
        copy_of_p = unflatten(p, flatten(p))
        copy_of_batch = Dataset(batch.inputs.copy(), batch.labels.copy())
        for foreign in ((copy_of_p, batch), (p, copy_of_batch)):
            with pytest.raises(ValueError, match="another point or on another batch"):
                loss_and_grad(*foreign, tangent, lin)
            with pytest.raises(ValueError, match="another point or on another batch"):
                loss_and_grad(*foreign, None, lin)


def test_a_writable_batch_is_linearized_afresh_after_it_changes():
    """A product after the rows change equals the product on a fresh copy of
    the new rows, whether the batch holds the changed arrays or read-only
    views of them."""
    net = init_mlp(MlpSpec(5, 8), 0)
    tangent = np.random.default_rng(1).standard_normal(param_count(net))
    other = gen_dataset(ModularTaskSpec(5, ModularOp.SUB), "train", 9, seed=1)
    expected = loss_and_grad(net, other, tangent)[1]
    for read_only_views in (False, True):
        batch = gen_dataset(ModularTaskSpec(5, ModularOp.ADD), "train", 9, seed=0)
        x, y = batch.inputs, batch.labels
        if read_only_views:
            batch = Dataset(x.view(), y.view())
            batch.inputs.flags.writeable = batch.labels.flags.writeable = False
        before = loss_and_grad(net, batch, tangent)[1]
        x[...] = other.inputs
        y[...] = other.labels
        after = loss_and_grad(net, batch, tangent)[1]
        assert not np.array_equal(after, before)
        assert np.array_equal(after, expected)


def test_a_tangent_leaves_the_loss_and_gradient_unchanged():
    net = init_mlp(MlpSpec(5, 8), 0)
    batch = gen_dataset(ModularTaskSpec(5, ModularOp.ADD), "train", 9, seed=0)
    tangent = np.random.default_rng(0).standard_normal(param_count(net))
    assert loss_and_grad(net, batch, tangent)[0] == loss_and_grad(net, batch)[0]


def test_derivatives_are_flat_vectors_and_a_stack_gives_flatten_of_the_stacked_derivatives():
    """The gradient and H * tangent of a stack equal, bit for bit, flatten of
    the stack of each model's own, the tangent being laid out the same way."""
    spec = MlpSpec(5, 8)
    models = [init_mlp(spec, seed) for seed in range(3)]
    rng = np.random.default_rng(7)
    tangents = [rng.standard_normal(param_count(m)) for m in models]
    batches = [
        gen_dataset(ModularTaskSpec(5, op, split_seed=2), "train", 6, seed=seed)
        for seed, op in enumerate((ModularOp.SUB, ModularOp.ADD, ModularOp.SUB))
    ]
    stacked_models = stack(models)
    stacked_batch = Dataset(np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches]))

    def as_stack(vectors):
        return flatten(stack(unflatten(m, v) for m, v in zip(models, vectors)))

    grads = [loss_and_grad(m, b)[1] for m, b in zip(models, batches)]
    products = [loss_and_grad(m, b, t)[1] for m, b, t in zip(models, batches, tangents)]
    for single in (*grads, *products):
        assert single.dtype == np.float64 and single.shape == (param_count(models[0]),)
    stacked_grad = loss_and_grad(stacked_models, stacked_batch)[1]
    stacked_product = loss_and_grad(stacked_models, stacked_batch, as_stack(tangents))[1]
    assert stacked_grad.shape == stacked_product.shape == (param_count(stacked_models),)
    assert np.array_equal(stacked_grad, as_stack(grads))
    assert np.array_equal(stacked_product, as_stack(products))


def test_a_rectifier_at_exactly_zero_passes_no_derivative():
    """With fc1_w and fc1_b zero, every first pre-activation is exactly 0, so
    the first rectifier passes nothing back: the gradient and H * tangent are
    exactly 0 in fc1_w, fc1_b and fc2_w (whose input, the first activation,
    is 0), for one model and for a stack. The second pre-activations are then
    fc2_b: its zero half passes nothing back either, and its other half keeps
    the derivatives further up from being 0."""
    spec = MlpSpec(5, 8)
    rng = np.random.default_rng(11)
    models = []
    for seed in (0, 1):
        p = init_mlp(spec, seed)
        fc2_b = np.concatenate([np.zeros(4), rng.uniform(0.5, 1.0, 4)])
        for name, arr in (("fc1_w", np.zeros((10, 8))), ("fc1_b", np.zeros(8)), ("fc2_b", fc2_b)):
            p = _with_layer(p, name, arr)
        models.append(p)
    batches = [gen_dataset(ModularTaskSpec(5, op), "train", 9, seed=0) for op in ModularOp]
    stacked_batch = Dataset(np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches]))
    for p, batch in ((models[0], batches[0]), (stack(models), stacked_batch)):
        tangent = rng.standard_normal(param_count(p))
        for derivative in (loss_and_grad(p, batch)[1], loss_and_grad(p, batch, tangent)[1]):
            layers = dict(unflatten(p, derivative).layers)
            for name in ("fc1_w", "fc1_b", "fc2_w"):
                assert np.all(layers[name] == 0.0), name
            assert np.all(layers["fc2_b"][..., :4] == 0.0)
            assert np.all(layers["fc2_b"][..., 4:] != 0.0) and np.any(layers["fc3_w"] != 0.0)


def test_a_tangent_of_another_length_is_rejected():
    net = init_mlp(MlpSpec(5, 8), 0)
    batch = gen_dataset(ModularTaskSpec(5, ModularOp.ADD), "train", 9, seed=0)
    for size in (param_count(net) - 1, param_count(net) + 1):
        with pytest.raises(ValueError, match="tangent"):
            loss_and_grad(net, batch, np.ones(size))


def test_train_builds_two_parameter_sets_whatever_the_step_count(built_sets):
    """Its private copy and its result: no step builds a set."""
    spec = ModularTaskSpec(5, ModularOp.ADD)
    one = full_split(spec, "train")
    two = Dataset(np.stack([one.inputs] * 2), np.stack([one.labels] * 2))
    net = init_mlp(MlpSpec(5, 4), 0)
    for model, data, seeds in ((net, one, [0]), (stack([net, net]), two, [0, 1])):
        for epochs, batch_size in ((0, 5), (1, 64), (3, 5)):
            built_sets.clear()
            train(model, data, learning_rate=0.1, epochs=epochs, batch_size=batch_size, seeds=seeds)
            assert built_sets == [model.layout] * 2


def test_train_leaves_its_input_as_it_was_and_returns_a_read_only_set():
    spec = ModularTaskSpec(5, ModularOp.ADD)
    one = full_split(spec, "train")
    two = Dataset(np.stack([one.inputs] * 2), np.stack([one.labels] * 2))
    net = init_mlp(MlpSpec(5, 4), 0)
    for model, data, seeds in ((net, one, [0]), (stack([net, net]), two, [0, 1])):
        before = flatten(model).tobytes()
        sgd = dict(learning_rate=0.1, epochs=3, batch_size=5, seeds=seeds, weight_decay=0.01)
        first, second = train(model, data, **sgd), train(model, data, **sgd)
        assert flatten(model).tobytes() == before
        assert not flatten(model).flags.writeable
        assert not flatten(first).flags.writeable
        assert all(not arr.flags.writeable for _, arr in first.layers)
        assert flatten(first).tobytes() == flatten(second).tobytes() != before


def _pools(m: int, ops) -> Dataset:
    """The train pools of ``ops`` on modulus m: one dataset, or a stack of several."""
    pools = [full_split(ModularTaskSpec(m, op), "train") for op in ops]
    if len(pools) == 1:
        return pools[0]
    return Dataset(np.stack([d.inputs for d in pools]), np.stack([d.labels for d in pools]))


@pytest.mark.parametrize("m, hidden, ops, seeds, lr, batch_size, epoch, layer", [
    (13, 32, [ModularOp.SUB], [2], 1e30, 32, 2, "fc1_w"),
    (13, 32, [ModularOp.ADD, ModularOp.SUB], [1, 2], 1e30, 32, 2, "fc1_w"),
    (5, 4, [ModularOp.ADD], [0], 1e100, 5, 1, "fc2_w"),
    (5, 4, [ModularOp.ADD, ModularOp.ADD], [0, 1], 1e100, 5, 1, "fc2_w"),
])
def test_a_diverging_train_names_its_epoch_and_the_first_non_finite_layer(
        m, hidden, ops, seeds, lr, batch_size, epoch, layer):
    net = init_mlp(MlpSpec(m, hidden), 0)
    model = net if len(seeds) == 1 else stack([net] * len(seeds))
    with pytest.raises(ValueError) as caught:
        train(model, _pools(m, ops), learning_rate=lr, epochs=3, batch_size=batch_size, seeds=seeds)
    assert str(caught.value) == (f"training diverged at epoch {epoch} of 3 (learning rate {lr!r}): "
                                 f"layer '{layer}' contains non-finite values")


def test_train_rejects_a_model_stack_that_does_not_match_the_dataset():
    spec = ModularTaskSpec(5, ModularOp.ADD)
    one = full_split(spec, "train")
    two = Dataset(np.stack([one.inputs] * 2), np.stack([one.labels] * 2))
    net = init_mlp(MlpSpec(5, 4), 0)
    for model, data in ((stack([net, net]), one), (net, two), (stack([net] * 3), two)):
        with pytest.raises(ValueError, match="does not match"):
            train(model, data, learning_rate=0.1, epochs=1, batch_size=32, seeds=[0])


def test_train_rejects_a_seed_count_that_is_not_the_stack_size():
    spec = ModularTaskSpec(5, ModularOp.ADD)
    one = full_split(spec, "train")
    two = Dataset(np.stack([one.inputs] * 2), np.stack([one.labels] * 2))
    net = init_mlp(MlpSpec(5, 4), 0)
    for model, data, seeds, message in ((net, one, [0, 1], "got 2 for 1"),
                                        (stack([net, net]), two, [0], "got 1 for 2"),
                                        (stack([net, net]), two, [0, 1, 2], "got 3 for 2")):
        with pytest.raises(ValueError, match=message):
            train(model, data, learning_rate=0.1, epochs=1, batch_size=32, seeds=seeds)


def test_train_rejects_inputs_of_another_width():
    """A net for m=13 on m=7 data is a shape error up front, not a divergence."""
    net = init_mlp(MlpSpec(13, 8), 0)
    data = full_split(ModularTaskSpec(7, ModularOp.ADD), "train")
    with pytest.raises(ValueError, match="inputs of width 14 do not match fc1_w's 26 rows"):
        train(net, data, learning_rate=0.1, epochs=2, batch_size=32, seeds=[0])
