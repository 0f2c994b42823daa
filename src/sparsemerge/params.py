"""Named parameter tensors in one flat buffer, layout checks, and checkpoint files.

A ``ParameterSet`` keeps a model's values in one read-only contiguous
float64 vector together with its layout (layer names and shapes); each layer
is a read-only view of its slice. ``flatten`` returns that vector without a
copy, and ``unflatten`` copies a vector into a new set with a given layout,
so whole-model operations (updates, merges, probes) are single vector
expressions between the two. Every set is validated once, when it is built.

Everything downstream (pruning, merging, evolution, curvature scans) operates
on ``ParameterSet`` values. Sets are immutable after construction and all
operations on them are pure, so they can be shared freely.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"SAEC"
CHECKPOINT_VERSION = 1


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


class ParameterSet:
    """Ordered, immutable collection of named float64 tensors in one buffer.

    The values sit in one read-only contiguous float64 vector, layer after
    layer in row-major order; each layer is a read-only view of its slice.
    The layout is ``names`` and ``shapes``. Layer order is part of model
    identity: serialization preserves it, so two models with the same layers
    in a different order are not compatible.

    The constructor copies ``flat`` and validates the whole set once: names
    non-empty and unique, every dimension positive, every value finite.
    Callers build sets with ``from_pairs`` or ``unflatten``.
    """

    __slots__ = ("names", "shapes", "layers", "_flat", "_views")

    def __init__(self, names, shapes, flat):
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
        sizes = [math.prod(shape) for shape in shapes]
        flat = np.array(flat, dtype=np.float64)
        if flat.shape != (sum(sizes),):
            raise ValueError(f"flat vector has {flat.shape} entries, layout needs {sum(sizes)}")
        # Freeze before slicing, so that every view inherits read-only.
        flat.flags.writeable = False
        ends = list(itertools.accumulate(sizes))
        views = [
            flat[end - size : end].reshape(shape) for end, size, shape in zip(ends, sizes, shapes)
        ]
        if not np.isfinite(flat).all():
            bad = next(name for name, v in zip(names, views) if not np.isfinite(v).all())
            raise ValueError(f"layer {bad!r} contains non-finite values")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "layers", tuple(zip(names, views)))
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_views", dict(zip(names, views)))

    def __setattr__(self, name, value):
        raise AttributeError(f"ParameterSet is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ParameterSet is immutable; cannot delete {name!r}")

    @classmethod
    def from_pairs(cls, pairs) -> "ParameterSet":
        """Copy (name, array-like) pairs, in order, into a new set."""
        arrays = [(name, np.asarray(values, dtype=np.float64)) for name, values in pairs]
        return cls(
            (name for name, _ in arrays),
            (arr.shape for _, arr in arrays),
            np.concatenate([arr.ravel() for _, arr in arrays]) if arrays else (),
        )

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def items(self):
        return iter(self.layers)


@dataclass(frozen=True)
class CompatibilityReport:
    compatible: bool
    mismatches: tuple[tuple[str, str], ...]


def assert_compatible(a: ParameterSet, b: ParameterSet) -> CompatibilityReport:
    """Check that two sets share a layout: layer names, order, and shapes.

    Never raises; failures are listed in the returned report.
    """
    mismatches: list[tuple[str, str]] = []
    if len(a.names) != len(b.names):
        mismatches.append(("<model>", f"layer count {len(a.names)} vs {len(b.names)}"))
    for na, nb, sa, sb in zip(a.names, b.names, a.shapes, b.shapes):
        if na != nb:
            mismatches.append((na, f"layer name/order mismatch: {na!r} vs {nb!r}"))
        elif sa != sb:
            mismatches.append((na, f"dims {list(sa)} vs {list(sb)}"))
    return CompatibilityReport(not mismatches, tuple(mismatches))


def require_compatible(a: ParameterSet, b: ParameterSet) -> None:
    report = assert_compatible(a, b)
    if not report.compatible:
        detail = "; ".join(f"{name}: {why}" for name, why in report.mismatches)
        raise ValueError(f"incompatible parameter sets: {detail}")


def param_count(p: ParameterSet) -> int:
    return p._flat.size


def zero_positions(p: ParameterSet, layer: str) -> set[int]:
    """Flat row-major indices of exactly-zero entries in one layer.

    Zeros are only ever written by pruning, so exact comparison against 0.0
    is the intended test; no epsilon is involved.
    """
    arr = p[layer]
    return set(np.flatnonzero(arr.ravel() == 0.0).tolist())


def flatten(p: ParameterSet) -> np.ndarray:
    """The set's own read-only value vector; no copy is made."""
    return p._flat


def unflatten(template: ParameterSet, flat: np.ndarray) -> ParameterSet:
    """Copy ``flat`` into a new set with the template's layout."""
    return ParameterSet(template.names, template.shapes, flat)


def repeat_per_layer(p: ParameterSet, values) -> np.ndarray:
    """Repeat one value per layer over that layer's entries, aligned with flatten(p)."""
    return np.repeat(np.asarray(values, dtype=np.float64), [v.size for _, v in p.layers])


def save_checkpoint(p: ParameterSet, path) -> None:
    """Write a binary checkpoint; values are rounded to 32-bit floats."""
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<II", CHECKPOINT_VERSION, len(p.layers))
    for name, arr in p.layers:
        encoded = name.encode("utf-8")
        buf += struct.pack("<I", len(encoded))
        buf += encoded
        buf += struct.pack("<I", arr.ndim)
        buf += np.asarray(arr.shape, dtype="<u8").tobytes()
        buf += np.ascontiguousarray(arr, dtype=np.float64).astype("<f4").tobytes()
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
        name = take(name_len, f"layer {i} name").decode("utf-8")
        (ndim,) = struct.unpack("<I", take(4, f"layer {i} rank"))
        dims = np.frombuffer(take(8 * ndim, f"layer {i} dims"), dtype="<u8")
        shape = tuple(int(d) for d in dims)
        numel = 1
        for d in shape:
            numel *= d
        raw = np.frombuffer(take(4 * numel, f"layer {i} values"), dtype="<f4")
        pairs.append((name, raw.astype(np.float64).reshape(shape)))
    if offset != len(data):
        raise CheckpointError(f"{len(data) - offset} trailing bytes after last layer")
    return ParameterSet.from_pairs(pairs)
