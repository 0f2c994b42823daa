"""Named parameter tensors in one flat buffer, layout checks, and checkpoint files.

A ``ParameterSet`` keeps a model's values in one read-only contiguous
float64 vector together with its layout (layer names and shapes); each layer
is a read-only view of its slice. ``flatten`` returns that vector without a
copy, and ``unflatten`` copies a vector into a new set with a given layout,
so whole-model operations (updates, merges, probes) are single vector
expressions between the two. A ``Layout`` (names and shapes) is checked once,
when it is built, and is shared by every set that ``unflatten`` derives from
it; each set's values are checked once, when the set is built.

Everything downstream (pruning, merging, evolution, curvature scans) operates
on ``ParameterSet`` values. Sets are immutable after construction and all
operations on them are pure, so they can be shared freely. One set has a
writer: the private copy that ``tasks.train`` makes of the set it is given.
Each SGD step updates that copy's buffer in place, and the copy never leaves
``train``, which returns its values as a new set.
"""

from __future__ import annotations

import itertools
import math
import struct
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"SAEC"
CHECKPOINT_VERSION = 2


class CheckpointError(Exception):
    """Malformed, truncated, or wrong-version checkpoint file."""


class ConfigError(ValueError):
    """Invalid settings, one (field, reason) pair per violated check."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{field}: {reason}" for field, reason in self.violations))


def check_fields(*checks: tuple[bool, str, str]) -> None:
    """Raise ConfigError listing every (ok, field, reason) check that fails."""
    failed = [(field, reason) for ok, field, reason in checks if not ok]
    if failed:
        raise ConfigError(failed)


class Layout:
    """Layer names and shapes of a ParameterSet, checked once when built.

    Names must be non-empty and unique and every dimension positive. The
    layout also holds each layer's slice of the flat vector, so sets that
    share a layout (every set ``unflatten`` builds shares its template's)
    never repeat these checks.
    """

    __slots__ = ("names", "shapes", "slices", "size")

    def __init__(self, names, shapes):
        names = tuple(names)
        shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        seen: set[str] = set()
        for name, shape in zip(names, shapes, strict=True):
            if not name:
                raise ValueError("layer names must be non-empty")
            if name in seen:
                raise ValueError(f"duplicate layer name {name!r}")
            seen.add(name)
            if not shape:
                raise ValueError(f"layer {name!r} must have at least one dimension")
            if any(d <= 0 for d in shape):
                raise ValueError(f"layer {name!r} has a non-positive dimension {shape}")
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "slices", tuple(map(slice, [0, *ends], ends)))
        object.__setattr__(self, "size", ends[-1] if ends else 0)

    def views(self, flat: np.ndarray) -> tuple:
        """Each layer of a vector of ``size`` entries, in order, as a view of its slice."""
        return tuple(flat[s].reshape(shape) for s, shape in zip(self.slices, self.shapes))

    def __setattr__(self, name, value):
        raise AttributeError(f"Layout is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Layout is immutable; cannot delete {name!r}")


class ParameterSet:
    """Ordered, immutable collection of named float64 tensors in one buffer.

    The values sit in one read-only contiguous float64 vector, layer after
    layer in row-major order; each layer is a read-only view of its slice.
    Layer order is part of model identity: serialization preserves it, so
    two models with the same layers in a different order are not compatible.

    A stack of K models with one layout is itself a set whose every layer has
    a leading model axis of length K (see ``stack``).

    The constructor takes an already-checked ``Layout``, copies ``flat`` and
    checks its length and that every value is finite. Callers build sets
    with ``from_pairs`` or ``unflatten``.
    """

    __slots__ = ("layout", "layers", "_flat", "_views")

    def __init__(self, layout: Layout, flat):
        flat = np.array(flat, dtype=np.float64)
        if flat.shape != (layout.size,):
            raise ValueError(f"flat vector has {flat.shape} entries, layout needs {layout.size}")
        # Freeze before slicing, so that every view inherits read-only.
        flat.flags.writeable = False
        views = layout.views(flat)
        if not np.isfinite(flat).all():
            bad = next(name for name, v in zip(layout.names, views) if not np.isfinite(v).all())
            raise ValueError(f"layer {bad!r} contains non-finite values")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "layers", tuple(zip(layout.names, views)))
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_views", dict(zip(layout.names, views)))

    @property
    def names(self) -> tuple[str, ...]:
        return self.layout.names

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return self.layout.shapes

    def __setattr__(self, name, value):
        raise AttributeError(f"ParameterSet is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ParameterSet is immutable; cannot delete {name!r}")

    @classmethod
    def from_pairs(cls, pairs) -> "ParameterSet":
        """Copy (name, array-like) pairs, in order, into a new set."""
        arrays = [(name, np.asarray(values, dtype=np.float64)) for name, values in pairs]
        return cls(
            Layout((name for name, _ in arrays), (arr.shape for _, arr in arrays)),
            np.concatenate([arr.ravel() for _, arr in arrays]) if arrays else (),
        )

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]


def require_compatible(*sets: ParameterSet) -> None:
    """Raise ValueError unless every set has the first one's layer names, order and shapes."""
    first = sets[0].layout
    for other in sets[1:]:
        layout = other.layout
        if layout is first or (layout.names, layout.shapes) == (first.names, first.shapes):
            continue
        pairs = zip(zip(first.names, first.shapes), zip(layout.names, layout.shapes))
        detail = next(
            (f"{a[0]!r} {list(a[1])} vs {b[0]!r} {list(b[1])}" for a, b in pairs if a != b),
            f"layer count {len(first.names)} vs {len(layout.names)}",
        )
        raise ValueError(f"incompatible parameter sets: {detail}")


def param_count(p: ParameterSet) -> int:
    return p._flat.size


def flatten(p: ParameterSet) -> np.ndarray:
    """The set's own read-only value vector; no copy is made."""
    return p._flat


def unflatten(template: ParameterSet, flat: np.ndarray) -> ParameterSet:
    """Copy ``flat`` into a new set that shares the template's layout."""
    return ParameterSet(template.layout, flat)


def stack(sets) -> ParameterSet:
    """K compatible sets as one set whose layers have a leading axis of length K."""
    sets = list(sets)
    require_compatible(*sets)
    return ParameterSet.from_pairs((name, np.stack([p[name] for p in sets])) for name in sets[0].names)


def unstack(stacked: ParameterSet) -> list[ParameterSet]:
    """The K sets of a stack, in order; the inverse of ``stack``."""
    count = stacked.shapes[0][0]
    return [ParameterSet.from_pairs((name, arr[k]) for name, arr in stacked.layers) for k in range(count)]


def repeat_per_layer(p: ParameterSet, values) -> np.ndarray:
    """Repeat one value per layer over that layer's entries, aligned with flatten(p)."""
    return np.repeat(np.asarray(values, dtype=np.float64), [v.size for _, v in p.layers])


def save_checkpoint(p: ParameterSet, path) -> None:
    """Write a binary checkpoint that holds the set's float64 values exactly."""
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<II", CHECKPOINT_VERSION, len(p.layers))
    for name, arr in p.layers:
        encoded = name.encode("utf-8")
        buf += struct.pack("<I", len(encoded))
        buf += encoded
        buf += struct.pack("<I", arr.ndim)
        buf += np.asarray(arr.shape, dtype="<u8").tobytes()
        buf += np.asarray(arr, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(buf))


def load_checkpoint(path) -> ParameterSet:
    data = Path(path).read_bytes()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(data):
            raise CheckpointError(f"truncated checkpoint: ran out of bytes reading {what}")
        chunk = data[offset : offset + n]
        offset += n
        return chunk

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes: not a checkpoint file")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (num_layers,) = struct.unpack("<I", take(4, "layer count"))
    pairs = []
    for i in range(num_layers):
        (name_len,) = struct.unpack("<I", take(4, f"layer {i} name length"))
        try:
            name = take(name_len, f"layer {i} name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"layer {i} name is not UTF-8") from None
        (ndim,) = struct.unpack("<I", take(4, f"layer {i} rank"))
        dims = np.frombuffer(take(8 * ndim, f"layer {i} dims"), dtype="<u8")
        shape = tuple(int(d) for d in dims)
        numel = 1
        for d in shape:
            numel *= d
        raw = np.frombuffer(take(8 * numel, f"layer {i} values"), dtype="<f8")
        pairs.append((name, raw.reshape(shape)))
    if offset != len(data):
        raise CheckpointError(f"{len(data) - offset} trailing bytes after last layer")
    try:
        return ParameterSet.from_pairs(pairs)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
