"""Magnitude pruning, sparsity measurement, and the cyclic prune-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import ParameterSet, check_fields, flatten, param_count, unflatten

# Pair-normalization guard for the magnitude measure.
MAGNITUDE_EPS = 1e-12


class SparsityMeasure(Enum):
    ZERO_COUNT = "zero-count"
    MAGNITUDE = "magnitude"


class Granularity(Enum):
    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class SparsitySchedule:
    """Cyclic ramp of the prune rate.

    Within each cycle the rate ramps linearly from ``s_min`` to ``s_max``;
    every restart returns to ``s_min`` and multiplies the cycle length by
    ``t_mult``. The final cycle may be cut short by ``total_steps``, in which
    case the ramp slope is still that of the full nominal cycle.
    """

    s_min: float = 0.1
    s_max: float = 0.6
    t0: int = 3
    t_mult: int = 2
    total_steps: int = 12

    def __post_init__(self):
        # total_steps == 0 is allowed so a zero-step run stays constructible.
        check_fields(
            (0.0 <= self.s_min <= self.s_max <= 1.0, "s_min",
             f"need 0 <= s_min <= s_max <= 1, got ({self.s_min}, {self.s_max})"),
            (self.t0 >= 1, "t0", f"must be >= 1, got {self.t0}"),
            (self.t_mult >= 1, "t_mult", f"must be >= 1, got {self.t_mult}"),
            (self.total_steps >= 0, "total_steps", f"must be >= 0, got {self.total_steps}"),
        )


def schedule_rate(sched: SparsitySchedule, step: int) -> float:
    if not 0 <= step < sched.total_steps:
        raise ValueError(f"step {step} outside [0, {sched.total_steps})")
    t_cur = step
    t_i = sched.t0
    while t_cur >= t_i:
        t_cur -= t_i
        t_i *= sched.t_mult
    if t_i == 1:
        return sched.s_max
    progress = t_cur / (t_i - 1)
    return sched.s_min + (sched.s_max - sched.s_min) * progress


def prune(p: ParameterSet, rate: float) -> ParameterSet:
    """Zero the ``k = floor(rate * n)`` smallest-magnitude entries of the whole model.

    Existing zeros rank first and magnitude ties break by ascending flat
    index, as in a stable sort. A selection finds the k-th smallest
    magnitude; every entry below it is zeroed, then the lowest-index entries
    equal to it until k are zeroed. Surviving entries are returned
    bit-for-bit.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"prune rate must be in [0, 1], got {rate}")
    flat = flatten(p)
    out = flat.copy()
    k = int(np.floor(rate * flat.size))
    if k:
        mag = np.abs(flat)
        kth = np.partition(mag, k - 1)[k - 1]
        below = mag < kth
        out[below] = 0.0
        out[np.flatnonzero(mag == kth)[: k - np.count_nonzero(below)]] = 0.0
    return unflatten(p, out)


@dataclass(frozen=True)
class SparsityStats:
    layer_zero_frac: dict[str, float]
    layer_mean_abs: dict[str, float]
    zero_frac: float
    mean_abs: float


def collect_stats(p: ParameterSet) -> SparsityStats:
    layer_zero = {}
    layer_mean = {}
    zeros = 0
    total_abs = 0.0
    n = param_count(p)
    for name, arr in p.layers:
        z = int(np.count_nonzero(arr == 0.0))
        # numpy's mean is this same float64 sum divided by the size.
        abs_sum = float(np.abs(arr).sum())
        layer_zero[name] = z / arr.size
        layer_mean[name] = abs_sum / arr.size
        zeros += z
        total_abs += abs_sum
    return SparsityStats(
        layer_zero_frac=layer_zero,
        layer_mean_abs=layer_mean,
        zero_frac=zeros / n if n else 0.0,
        mean_abs=total_abs / n if n else 0.0,
    )


def sparsity_weights(
    stats_a: SparsityStats,
    stats_b: SparsityStats,
    measure: SparsityMeasure,
    granularity: Granularity,
) -> dict[str, tuple[float, float]]:
    """Per-layer sparsity signals (w_a, w_b), each in [0, 1].

    They are read from the two parents' statistics (see ``collect_stats``),
    which must cover the same layers, and keyed by the layers of ``stats_a``.

    Zero-count: a model's own zero fraction (layer-wise under local scoring,
    the model-level fraction replicated to every layer under global).
    Magnitude: pair-normalized mean |value|, so the parent with the smaller
    mean magnitude receives the larger weight and the pair sums to 1 up to
    the normalization guard.
    """
    out: dict[str, tuple[float, float]] = {}
    for name in stats_a.layer_zero_frac:
        if measure is SparsityMeasure.ZERO_COUNT:
            if granularity is Granularity.LOCAL:
                out[name] = (stats_a.layer_zero_frac[name], stats_b.layer_zero_frac[name])
            else:
                out[name] = (stats_a.zero_frac, stats_b.zero_frac)
        else:
            if granularity is Granularity.LOCAL:
                m_a = stats_a.layer_mean_abs[name]
                m_b = stats_b.layer_mean_abs[name]
            else:
                m_a = stats_a.mean_abs
                m_b = stats_b.mean_abs
            den = m_a + m_b + MAGNITUDE_EPS
            out[name] = (1.0 - m_a / den, 1.0 - m_b / den)
    return out


def make_sparse_variants(
    dense: list[ParameterSet], capacity: int, sched: SparsitySchedule
) -> list[ParameterSet]:
    """Pruned copies of the dense models, filling the archive to capacity.

    Rates are evenly spaced across [s_min, s_max] (a single variant takes
    s_min); variant i is pruned from parent i mod len(dense). Fully
    deterministic.
    """
    if capacity < len(dense):
        raise ValueError(f"capacity {capacity} below number of dense models {len(dense)}")
    rates = np.linspace(sched.s_min, sched.s_max, capacity - len(dense))
    return [prune(dense[i % len(dense)], float(rate)) for i, rate in enumerate(rates)]
