"""Sparsity-driven evolutionary model merging at desk scale."""

from .merge import MergeConfig, RedenseMode, compute_lambda, merge_layer, merge_models
from .params import CheckpointError, ParameterSet, load_checkpoint, param_count, save_checkpoint
from .sparsity import (
    Granularity,
    SparsityMeasure,
    SparsitySchedule,
    SparsityStats,
    collect_stats,
    make_sparse_variants,
    prune,
    schedule_rate,
    sparsity_weights,
)

__all__ = [
    "CheckpointError",
    "Granularity",
    "MergeConfig",
    "ParameterSet",
    "RedenseMode",
    "SparsityMeasure",
    "SparsitySchedule",
    "SparsityStats",
    "collect_stats",
    "compute_lambda",
    "load_checkpoint",
    "make_sparse_variants",
    "merge_layer",
    "merge_models",
    "param_count",
    "prune",
    "save_checkpoint",
    "schedule_rate",
    "sparsity_weights",
]
