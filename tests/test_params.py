import numpy as np
import pytest

from conftest import rand_pset
from sparsemerge.params import (
    CheckpointError,
    ParameterSet,
    assert_compatible,
    flatten,
    load_checkpoint,
    param_count,
    save_checkpoint,
    unflatten,
    zero_positions,
)
from sparsemerge.sparsity import Granularity, prune
from sparsemerge.tasks import MlpSpec, init_mlp


def test_compatible_with_itself():
    p = rand_pset(0)
    report = assert_compatible(p, p)
    assert report.compatible
    assert report.mismatches == ()


def test_shape_mismatch_reported_per_layer():
    a = ParameterSet.from_pairs([("fc1", np.zeros((4, 3)))])
    b = ParameterSet.from_pairs([("fc1", np.zeros((3, 4)))])
    report = assert_compatible(a, b)
    assert not report.compatible
    assert report.mismatches[0][0] == "fc1"


def test_two_inits_from_same_spec_are_compatible():
    spec = MlpSpec(13, 32)
    a = init_mlp(spec, 1)
    b = init_mlp(spec, 2)
    assert assert_compatible(a, b).compatible


def test_name_order_matters():
    a = ParameterSet.from_pairs([("x", np.zeros(2)), ("y", np.zeros(2))])
    b = ParameterSet.from_pairs([("y", np.zeros(2)), ("x", np.zeros(2))])
    assert not assert_compatible(a, b).compatible


def test_compatibility_is_symmetric():
    cases = [
        (rand_pset(0), rand_pset(1)),
        (rand_pset(0), rand_pset(1, shapes=[("w1", (2, 2))])),
        (rand_pset(0), rand_pset(1, shapes=[("w1", (4, 3)), ("b1", (4,))])),
    ]
    for a, b in cases:
        assert assert_compatible(a, b).compatible == assert_compatible(b, a).compatible


def test_layer_validation():
    with pytest.raises(ValueError):
        ParameterSet.from_pairs([("", np.zeros(2))])
    with pytest.raises(ValueError):
        ParameterSet.from_pairs([("a", np.zeros(2)), ("a", np.zeros(2))])
    with pytest.raises(ValueError):
        ParameterSet.from_pairs([("a", np.array([1.0, np.nan]))])


def test_param_count_matches_dim_products():
    p = rand_pset(3)
    assert param_count(p) == sum(np.prod(arr.shape) for _, arr in p.items())


def test_zero_positions_examples():
    p = ParameterSet.from_pairs([("t", np.array([0.0, 1.5, 0.0]))])
    assert zero_positions(p, "t") == {0, 2}
    dense = ParameterSet.from_pairs([("t", np.array([1.0, 2.0, 3.0]))])
    assert zero_positions(dense, "t") == set()
    with pytest.raises(KeyError):
        zero_positions(p, "missing")


def test_zero_positions_after_prune():
    p = ParameterSet.from_pairs([("t", np.arange(1.0, 11.0))])
    pruned = prune(p, 0.5, Granularity.GLOBAL)
    assert len(zero_positions(pruned, "t")) == 5


def test_roundtrip_preserves_values_at_f32(tmp_path):
    p = rand_pset(7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(p, path)
    loaded = load_checkpoint(path)
    for (name, arr), (name2, arr2) in zip(p.items(), loaded.items()):
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
    for name, arr in p.items():
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


def test_flatten_unflatten_roundtrip():
    p = rand_pset(5)
    flat = flatten(p)
    assert flat.shape == (param_count(p),)
    back = unflatten(p, flat)
    for (name, arr), (_, arr2) in zip(p.items(), back.items()):
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
