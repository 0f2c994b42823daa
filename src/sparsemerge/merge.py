"""Layer-wise sparsity-aware merging, re-densification, and static baselines."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import ParameterSet, check_fields, flatten, repeat_per_layer, require_compatible, unflatten
from .sparsity import Granularity, SparsityMeasure, sparsity_weights


class RedenseMode(Enum):
    FROM_PARENTS = "parents"
    FROM_ORIGINAL_DENSE = "original-dense"


@dataclass(frozen=True)
class MergeConfig:
    measure: SparsityMeasure = SparsityMeasure.MAGNITUDE
    granularity: Granularity = Granularity.GLOBAL
    redense_mode: RedenseMode = RedenseMode.FROM_PARENTS
    gamma: float = 0.2

    def __post_init__(self):
        check_fields((0.0 <= self.gamma <= 1.0, "gamma", f"must be in [0, 1], got {self.gamma}"))


def compute_lambda(s_a: float, s_b: float, w_a: float, w_b: float) -> float:
    """Mixing ratio (s_a + w_a) / ((s_a + w_a) + (s_b + w_b)).

    A zero denominator yields 0.5. The smaller of the two quotients is the
    one actually divided, which makes the complement identity
    lambda(A,B) + lambda(B,A) == 1 hold exactly in floating point.
    """
    for v in (s_a, s_b, w_a, w_b):
        if v < 0:
            raise ValueError(f"scores and sparsity weights must be >= 0, got {v}")
    num_a = s_a + w_a
    num_b = s_b + w_b
    den = num_a + num_b
    if den == 0.0:
        return 0.5
    if num_a <= num_b:
        return num_a / den
    return 1.0 - num_b / den


def merge_layer(a: np.ndarray, b: np.ndarray, lam) -> np.ndarray:
    """Blend two tensors elementwise with zero-attraction.

    Where both entries are nonzero the result is lam*a + (1-lam)*b; where
    exactly one is zero the other entry survives unchanged (a pruned slot
    attracts the co-parent's value); where both are zero the slot stays 0.
    ``lam`` is one ratio or one ratio per entry.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if not np.all((0.0 <= lam) & (lam <= 1.0)):
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    interp = lam * a + (1.0 - lam) * b
    return np.where(a == 0.0, b, np.where(b == 0.0, a, interp))


def merge_models(
    a: ParameterSet,
    b: ParameterSet,
    s_a: float,
    s_b: float,
    cfg: MergeConfig,
) -> tuple[ParameterSet, dict[str, float]]:
    """Merge two compatible models; returns the per-layer mixing ratios used."""
    require_compatible(a, b)
    for s in (s_a, s_b):
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"evaluation scores must be in [0, 1], got {s}")
    weights = sparsity_weights(a, b, cfg.measure, cfg.granularity)
    lambdas = {name: compute_lambda(s_a, s_b, *weights[name]) for name in a.names}
    lam = repeat_per_layer(a, list(lambdas.values()))
    return unflatten(a, merge_layer(flatten(a), flatten(b), lam)), lambdas


def redense(p: ParameterSet, donor: ParameterSet) -> ParameterSet:
    """Fill every exactly-zero entry of p with the donor's value there."""
    require_compatible(p, donor)
    return unflatten(p, np.where(flatten(p) == 0.0, flatten(donor), flatten(p)))


def weight_average(models: list[ParameterSet]) -> ParameterSet:
    if not models:
        raise ValueError("need at least one model to average")
    for m in models[1:]:
        require_compatible(models[0], m)
    return unflatten(models[0], np.mean([flatten(m) for m in models], axis=0))


def task_arithmetic(
    base: ParameterSet, experts: list[ParameterSet], scale: float = 1.0
) -> ParameterSet:
    """base + scale * sum_k (expert_k - base), evaluated elementwise."""
    if not experts:
        raise ValueError("need at least one expert")
    for e in experts:
        require_compatible(base, e)
    acc = (1.0 - scale * len(experts)) * flatten(base)
    for e in experts:
        acc = acc + scale * flatten(e)
    return unflatten(base, acc)
