import numpy as np
import pytest

from conftest import rand_pset
from sparsemerge.params import (
    CheckpointError,
    ParameterSet,
    flatten,
    load_checkpoint,
    param_count,
    require_compatible,
    save_checkpoint,
    stack,
    unflatten,
    unstack,
)
from sparsemerge.tasks import Dataset, MlpSpec, ModularOp, ModularTaskSpec, gen_dataset, init_mlp


def pair(names, shapes):
    return ParameterSet.from_pairs((name, np.zeros(shape)) for name, shape in zip(names, shapes))


P0 = rand_pset(0)
COMPATIBILITY_CASES = {
    # case: (sets, None if compatible else a pattern the message must match)
    "itself": ([P0, P0], None),
    "transposed-shape": ([pair(["fc1"], [(4, 3)]), pair(["fc1"], [(3, 4)])], "'fc1'"),
    "two-inits-of-one-spec": ([init_mlp(MlpSpec(13, 32), 1), init_mlp(MlpSpec(13, 32), 2)], None),
    "swapped-order": ([pair("xy", [(2,), (2,)]), pair("yx", [(2,), (2,)])], "'x'"),
    "same-shapes": ([P0, rand_pset(1)], None),
    "fewer-layers": ([P0, rand_pset(1, shapes=[("w1", (2, 2))])], "'w1'"),
    "other-bias-shape": ([P0, rand_pset(1, shapes=[("w1", (4, 3)), ("b1", (4,))])], "'b1'"),
    "third-differs": ([P0, rand_pset(1), rand_pset(2, shapes=[("w1", (4, 3))])], "layer count"),
}


@pytest.mark.parametrize("case", list(COMPATIBILITY_CASES))
def test_require_compatible(case):
    """Same verdict in both argument orders; a mismatch names the first differing layer."""
    sets, message = COMPATIBILITY_CASES[case]
    for ordered in (sets, sets[::-1]):
        if message is None:
            require_compatible(*ordered)
        else:
            with pytest.raises(ValueError, match=f"incompatible parameter sets: .*{message}"):
                require_compatible(*ordered)


def test_layer_validation():
    with pytest.raises(ValueError):
        ParameterSet.from_pairs([("", np.zeros(2))])
    with pytest.raises(ValueError):
        ParameterSet.from_pairs([("a", np.zeros(2)), ("a", np.zeros(2))])
    with pytest.raises(ValueError):
        ParameterSet.from_pairs([("a", np.array([1.0, np.nan]))])


def test_param_count_matches_dim_products():
    p = rand_pset(3)
    assert param_count(p) == sum(np.prod(arr.shape) for _, arr in p.layers)


def test_roundtrip_preserves_values_at_f32(tmp_path):
    p = rand_pset(7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(p, path)
    loaded = load_checkpoint(path)
    for (name, arr), (name2, arr2) in zip(p.layers, loaded.layers):
        assert name == name2
        assert np.array_equal(arr2, arr.astype(np.float32).astype(np.float64))


def test_second_save_is_byte_identical(tmp_path):
    p = rand_pset(11)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(p, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_empty_parameter_set_roundtrip(tmp_path):
    empty = ParameterSet.from_pairs([])
    path = tmp_path / "empty.ckpt"
    save_checkpoint(empty, path)
    assert load_checkpoint(path).layers == ()
    assert path.stat().st_size == 12


def test_file_size_follows_format(tmp_path):
    spec = MlpSpec(13, 32)
    p = init_mlp(spec, 0)
    path = tmp_path / "mlp.ckpt"
    save_checkpoint(p, path)
    expected = 12
    for name, arr in p.layers:
        expected += 4 + len(name.encode()) + 4 + 8 * arr.ndim + 4 * arr.size
    assert path.stat().st_size == expected


def test_corrupt_magic_rejected(tmp_path):
    p = rand_pset(0)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(p, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_wrong_version_rejected(tmp_path):
    p = rand_pset(0)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(p, path)
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    p = rand_pset(0)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(p, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    p = rand_pset(0)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(p, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "old, new, message",
    [(b"w1", b"\xff1", "layer 0 name is not UTF-8"), (b"b1", b"w1", "duplicate layer name 'w1'")],
)
def test_malformed_layer_rejected(tmp_path, old, new, message):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(rand_pset(0), path)
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_flatten_unflatten_roundtrip():
    p = rand_pset(5)
    flat = flatten(p)
    assert flat.shape == (param_count(p),)
    back = unflatten(p, flat)
    for (name, arr), (_, arr2) in zip(p.layers, back.layers):
        assert np.array_equal(arr, arr2)


def test_layers_are_immutable():
    p = rand_pset(0)
    with pytest.raises(ValueError):
        p["w1"][0, 0] = 5.0


def test_flat_buffer_layout_contract():
    p = rand_pset(4)
    flat = flatten(p)
    assert not flat.flags.writeable
    for name in p.names:
        assert np.shares_memory(flat, p[name])
    values = flat.copy()
    q = unflatten(p, values)
    values[:] = 9.0
    assert np.array_equal(flatten(q), flat)
    values[13] = np.nan  # b1 follows the 12 entries of w1
    with pytest.raises(ValueError, match="'b1'"):
        unflatten(p, values)


def test_unflatten_rejects_a_vector_of_the_wrong_length():
    p = rand_pset(0)
    for size in (param_count(p) - 1, param_count(p) + 1):
        with pytest.raises(ValueError, match="layout needs"):
            unflatten(p, np.zeros(size))


def test_unflatten_rejects_nan_and_names_the_layer():
    p = rand_pset(1)
    values = flatten(p).copy()
    values[-1] = np.nan  # the last entry belongs to b2
    with pytest.raises(ValueError, match="'b2'"):
        unflatten(p, values)


def test_unflatten_shares_the_layout_but_not_the_values():
    p = rand_pset(2)
    for values in (flatten(p), flatten(p) * 2.0):
        q = unflatten(p, values)
        assert q.layout is p.layout
        assert not np.shares_memory(flatten(q), values)
        assert not np.shares_memory(flatten(q), flatten(p))


def test_stack_adds_a_leading_model_axis_and_unstack_inverts_it():
    sets = [rand_pset(seed) for seed in range(3)]
    stacked = stack(sets)
    assert stacked.names == sets[0].names
    assert stacked.shapes == tuple((3, *shape) for shape in sets[0].shapes)
    for k, (original, back) in enumerate(zip(sets, unstack(stacked))):
        assert back.shapes == original.shapes
        assert np.array_equal(flatten(back), flatten(original))
        assert np.array_equal(stacked["w1"][k], original["w1"])
    with pytest.raises(ValueError, match="incompatible"):
        stack([sets[0], rand_pset(0, shapes=[("w1", (4, 3))])])


def test_len_of_a_stacked_dataset_is_rows_per_model():
    one = gen_dataset(ModularTaskSpec(5, ModularOp.ADD), "train", 6, seed=0)
    stacked = Dataset(np.stack([one.inputs] * 3), np.stack([one.labels] * 3))
    assert len(stacked) == len(one) == 6
