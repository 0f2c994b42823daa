"""Named parameter tensors, compatibility checks, and checkpoint files.

Everything downstream (pruning, merging, evolution, curvature scans) operates
on ``ParameterSet`` values. Sets are immutable after construction and all
operations on them are pure, so they can be shared freely.
"""

from __future__ import annotations

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


def _freeze_layer(name: str, values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.ndim == 0:
        raise ValueError(f"layer {name!r} must have at least one dimension")
    if any(d <= 0 for d in arr.shape):
        raise ValueError(f"layer {name!r} has a non-positive dimension {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"layer {name!r} contains non-finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ParameterSet:
    """Ordered, immutable collection of named float64 tensors.

    Layer order is part of model identity: merging walks layers positionally
    and serialization preserves order, so two models with the same layers in
    a different order are not compatible.
    """

    layers: tuple[tuple[str, np.ndarray], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "ParameterSet":
        seen: set[str] = set()
        out = []
        for name, values in pairs:
            if not name:
                raise ValueError("layer names must be non-empty")
            if name in seen:
                raise ValueError(f"duplicate layer name {name!r}")
            seen.add(name)
            out.append((name, _freeze_layer(name, values)))
        return cls(tuple(out))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.layers)

    def __getitem__(self, name: str) -> np.ndarray:
        for n, arr in self.layers:
            if n == name:
                return arr
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.layers)

    def items(self):
        return iter(self.layers)


@dataclass(frozen=True)
class CompatibilityReport:
    compatible: bool
    mismatches: tuple[tuple[str, str], ...]


def assert_compatible(a: ParameterSet, b: ParameterSet) -> CompatibilityReport:
    """Check that two sets share layer names, order, and shapes.

    Never raises; failures are listed in the returned report.
    """
    mismatches: list[tuple[str, str]] = []
    if len(a.layers) != len(b.layers):
        mismatches.append(
            ("<model>", f"layer count {len(a.layers)} vs {len(b.layers)}")
        )
    for (na, ta), (nb, tb) in zip(a.layers, b.layers):
        if na != nb:
            mismatches.append((na, f"layer name/order mismatch: {na!r} vs {nb!r}"))
        elif ta.shape != tb.shape:
            mismatches.append((na, f"dims {list(ta.shape)} vs {list(tb.shape)}"))
    return CompatibilityReport(not mismatches, tuple(mismatches))


def require_compatible(a: ParameterSet, b: ParameterSet) -> None:
    report = assert_compatible(a, b)
    if not report.compatible:
        detail = "; ".join(f"{name}: {why}" for name, why in report.mismatches)
        raise ValueError(f"incompatible parameter sets: {detail}")


def param_count(p: ParameterSet) -> int:
    return sum(arr.size for _, arr in p.layers)


def zero_positions(p: ParameterSet, layer: str) -> set[int]:
    """Flat row-major indices of exactly-zero entries in one layer.

    Zeros are only ever written by pruning, so exact comparison against 0.0
    is the intended test; no epsilon is involved.
    """
    arr = p[layer]
    return set(np.flatnonzero(arr.ravel() == 0.0).tolist())


def flatten(p: ParameterSet) -> np.ndarray:
    if not p.layers:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([arr.ravel() for _, arr in p.layers])


def unflatten(template: ParameterSet, flat: np.ndarray) -> ParameterSet:
    if flat.shape != (param_count(template),):
        raise ValueError(
            f"flat vector has {flat.shape} entries, template needs {param_count(template)}"
        )
    out = []
    offset = 0
    for name, arr in template.layers:
        out.append((name, flat[offset : offset + arr.size].reshape(arr.shape)))
        offset += arr.size
    return ParameterSet.from_pairs(out)


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
