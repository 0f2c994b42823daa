"""Archive-based prune-merge evolution and the particle-swarm baseline."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .merge import MergeConfig, RedenseMode, merge_models, redense, weight_average
from .params import ParameterSet, check_fields, flatten, repeat_per_layer, require_compatible, unflatten
from .seeding import (
    TAG_INIT_EVAL,
    TAG_OPT_BATCH,
    TAG_PAIRING,
    TAG_PSO,
    TAG_PSO_BATCH,
    derive_seed,
    substream,
)
from .sparsity import (
    SparsitySchedule,
    SparsityStats,
    collect_stats,
    make_sparse_variants,
    prune,
    schedule_rate,
)
from .tasks import Dataset, ModularTaskSpec, accuracy, gen_dataset


class AnnealTarget(Enum):
    OFFSPRING_ONLY = "offspring"
    OFFSPRING_AND_ARCHIVE = "archive"


@dataclass(frozen=True)
class Individual:
    id: int
    params: ParameterSet
    perf: tuple[float, ...]
    perf_mean: float
    stats: SparsityStats
    total_score: float
    root_dense: bool = False  # a dense expert the archive started from


@dataclass
class Archive:
    members: list[Individual]
    next_id: int
    dense_reference: ParameterSet


@dataclass(frozen=True)
class EvolveConfig:
    capacity: int = 8
    schedule: SparsitySchedule = field(default_factory=SparsitySchedule)
    merge_cfg: MergeConfig = field(default_factory=MergeConfig)
    seed: int = 0
    tasks: tuple[ModularTaskSpec, ...] = ()
    opt_batch: int = 64
    anneal: AnnealTarget = AnnealTarget.OFFSPRING_ONLY

    def __post_init__(self):
        check_fields(
            (self.capacity >= 2 and self.capacity % 2 == 0, "capacity",
             f"must be even and >= 2, got {self.capacity}"),
            (self.opt_batch >= 1, "opt_batch", f"must be >= 1, got {self.opt_batch}"),
            (bool(self.tasks), "tasks", "need at least one task"),
        )


@dataclass(frozen=True)
class TraceRecord:
    step: int  # 0 = initialization, evolution steps are 1-based
    member_id: int
    perf: tuple[float, ...]
    perf_mean: float
    zero_frac: float
    total_score: float
    event: str


TRACE_HEADER = "step,member_id,perf_task_a,perf_task_b,perf_mean,zero_frac,total_score,event"


def blend_score(perf_mean: float, zero_frac: float, gamma: float) -> float:
    """Selection score: sparsity competes directly with task performance."""
    return (1.0 - gamma) * perf_mean + gamma * zero_frac


def score(
    params: ParameterSet, batches: list[Dataset], gamma: float
) -> tuple[tuple[float, ...], SparsityStats, float]:
    """Per-task accuracy, sparsity statistics and the gamma-blended selection score."""
    if not batches or any(len(b) == 0 for b in batches):
        raise ValueError("empty optimization batch")
    perf = tuple(accuracy(params, b) for b in batches)
    stats = collect_stats(params)
    return perf, stats, blend_score(float(np.mean(perf)), stats.zero_frac, gamma)


def _evaluate(
    params: ParameterSet, batches: list[Dataset], gamma: float, ind_id: int, root_dense: bool = False
) -> Individual:
    perf, stats, total = score(params, batches, gamma)
    return Individual(ind_id, params, perf, float(np.mean(perf)), stats, total, root_dense)


def _record(step: int, member: Individual, event: str) -> TraceRecord:
    return TraceRecord(
        step, member.id, member.perf, member.perf_mean, member.stats.zero_frac, member.total_score, event
    )


def _opt_batches(
    tasks: tuple[ModularTaskSpec, ...], size: int, seed: int, tag: int, step: int
) -> list[Dataset]:
    """One optimization batch per task, drawn afresh for each (tag, step)."""
    return [
        gen_dataset(task, "opt", size, derive_seed(seed, tag, step, j))
        for j, task in enumerate(tasks)
    ]


def init_archive(dense_experts: list[ParameterSet], cfg: EvolveConfig) -> Archive:
    """Dense experts plus evenly-spaced sparse variants, all scored."""
    if len(dense_experts) < 2:
        raise ValueError("need at least two dense experts")
    require_compatible(*dense_experts)
    models = [*dense_experts, *make_sparse_variants(dense_experts, cfg.capacity, cfg.schedule)]
    batches = _opt_batches(cfg.tasks, cfg.opt_batch, cfg.seed, TAG_INIT_EVAL, 0)
    members = [
        _evaluate(model, batches, cfg.merge_cfg.gamma, i, root_dense=i < len(dense_experts))
        for i, model in enumerate(models)
    ]
    return Archive(members, next_id=cfg.capacity, dense_reference=weight_average(dense_experts))


def _worst_index(members: list[Individual]) -> int:
    return min(range(len(members)), key=lambda i: (members[i].total_score, members[i].id))


def evolve_step(
    archive: Archive, cfg: EvolveConfig, step: int, rng: np.random.Generator
) -> tuple[Archive, list[TraceRecord]]:
    """One generation: pair, merge, prune, evaluate, replace.

    All offspring are built from the step-start archive snapshot; replacement
    decisions are then applied sequentially in pair order, so a concurrent
    evaluation of the pairs would produce identical results.
    """
    if len(archive.members) != cfg.capacity:
        raise ValueError(f"archive has {len(archive.members)} members, capacity {cfg.capacity}")
    rate = schedule_rate(cfg.schedule, step)
    gamma = cfg.merge_cfg.gamma
    batches = _opt_batches(cfg.tasks, cfg.opt_batch, cfg.seed, TAG_OPT_BATCH, step)
    snapshot = list(archive.members)
    perm = rng.permutation(cfg.capacity)
    pairs = [(int(perm[2 * k]), int(perm[2 * k + 1])) for k in range(cfg.capacity // 2)]

    offspring = []
    for k, (i, j) in enumerate(pairs):
        parent_a, parent_b = snapshot[i], snapshot[j]
        merged, lambdas = merge_models(
            parent_a.params,
            parent_b.params,
            parent_a.perf_mean,
            parent_b.perf_mean,
            cfg.merge_cfg,
        )
        child_params = prune(merged, rate)
        if cfg.merge_cfg.redense_mode is RedenseMode.FROM_ORIGINAL_DENSE:
            child_params = redense(child_params, archive.dense_reference)
        child = _evaluate(child_params, batches, gamma, archive.next_id + k)
        origin = f"offspring parents={parent_a.id}|{parent_b.id} rate={rate!r}"
        packed_lams = ";".join(f"{name}={lam!r}" for name, lam in lambdas.items())
        offspring.append((child, origin, packed_lams))

    records = []
    members = list(snapshot)
    for child, origin, packed_lams in offspring:
        target = _worst_index(members)
        if child.total_score > members[target].total_score:
            event = f"{origin} accepted replaced={members[target].id} lambdas={packed_lams}"
            members[target] = child
        else:
            event = f"{origin} rejected lambdas={packed_lams}"
        records.append(_record(step + 1, child, event))

    if cfg.anneal is AnnealTarget.OFFSPRING_AND_ARCHIVE:
        # Root dense experts are never re-pruned, so dense ancestors survive
        # for re-densification.
        for idx, member in enumerate(members):
            if member.root_dense:
                continue
            members[idx] = _evaluate(prune(member.params, rate), batches, gamma, member.id)

    records.extend(_record(step + 1, member, "member") for member in members)
    return Archive(members, archive.next_id + len(offspring), archive.dense_reference), records


def best_member(archive: Archive) -> Individual:
    return max(archive.members, key=lambda m: (m.total_score, -m.id))


def run_sae(
    dense_experts: list[ParameterSet], cfg: EvolveConfig
) -> tuple[Individual, list[TraceRecord]]:
    """Full evolutionary run; deterministic given (experts, cfg)."""
    archive = init_archive(dense_experts, cfg)
    records = [_record(0, m, "init") for m in archive.members]
    for step in range(cfg.schedule.total_steps):
        rng = substream(cfg.seed, TAG_PAIRING, step)
        archive, recs = evolve_step(archive, cfg, step, rng)
        records.extend(recs)
    return best_member(archive), records


def write_trace(path, records: list[TraceRecord]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_HEADER.split(","))
        for r in records:
            perf = list(r.perf) + [float("nan")] * (2 - len(r.perf))
            writer.writerow(
                [
                    r.step, r.member_id, repr(perf[0]), repr(perf[1]),
                    repr(r.perf_mean), repr(r.zero_frac), repr(r.total_score), r.event,
                ]
            )


# ----------------------------------------------------------------------------
# Particle swarm baseline: searches dense per-layer mixing vectors, no
# attraction rule, so it represents interpolation-based prior work.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class PsoConfig:
    swarm: int = 8
    iters: int = 12
    w: float = 0.729
    c1: float = 1.49445
    c2: float = 1.49445
    vmax: float = 0.5
    opt_batch: int = 64
    seed: int = 0

    def __post_init__(self):
        check_fields(
            (self.swarm >= 2, "swarm", f"must be >= 2, got {self.swarm}"),
            (self.iters >= 1, "iters", f"must be >= 1, got {self.iters}"),
            (self.w > 0, "w", f"must be > 0, got {self.w}"),
            (self.c1 > 0, "c1", f"must be > 0, got {self.c1}"),
            (self.c2 > 0, "c2", f"must be > 0, got {self.c2}"),
            (self.vmax > 0, "vmax", f"must be > 0, got {self.vmax}"),
            (self.opt_batch >= 1, "opt_batch", f"must be >= 1, got {self.opt_batch}"),
        )


@dataclass(frozen=True)
class PsoTraceRecord:
    iteration: int
    gbest_fitness: float
    iter_best: float
    iter_mean: float


PSO_TRACE_HEADER = "iteration,gbest_fitness,iter_best,iter_mean"


def _mix_position(experts: list[ParameterSet], position: np.ndarray) -> ParameterSet:
    """Fold experts pairwise with per-layer interpolation weights."""
    layout = experts[0]
    lams = position.reshape(len(experts) - 1, len(layout.names))
    current = flatten(layout)
    for row, expert in zip(lams, experts[1:]):
        lam = repeat_per_layer(layout, row)
        current = lam * current + (1.0 - lam) * flatten(expert)
    return unflatten(layout, current)


def pso_update(
    x: np.ndarray,
    v: np.ndarray,
    pbest_x: np.ndarray,
    gbest_x: np.ndarray,
    cfg: PsoConfig,
    r1: np.ndarray,
    r2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One velocity/position step; positions stay clamped to [0, 1]."""
    v = cfg.w * v + cfg.c1 * r1 * (pbest_x - x) + cfg.c2 * r2 * (gbest_x - x)
    v = np.clip(v, -cfg.vmax, cfg.vmax)
    x = np.clip(x + v, 0.0, 1.0)
    return x, v


def run_pso(
    experts: list[ParameterSet],
    cfg: PsoConfig,
    tasks: tuple[ModularTaskSpec, ...],
) -> tuple[ParameterSet, list[PsoTraceRecord]]:
    if len(experts) < 2:
        raise ValueError("need at least two experts")
    require_compatible(*experts)
    n_dim = (len(experts) - 1) * len(experts[0].names)
    rng = substream(cfg.seed, TAG_PSO)
    x = rng.random((cfg.swarm, n_dim))
    v = np.zeros_like(x)
    pbest_x = x.copy()
    pbest_f = np.full(cfg.swarm, -np.inf)
    gbest_x = x[0].copy()
    gbest_f = -np.inf

    trace = []
    for t in range(cfg.iters):
        if t > 0:
            r1 = rng.random((cfg.swarm, n_dim))
            r2 = rng.random((cfg.swarm, n_dim))
            x, v = pso_update(x, v, pbest_x, gbest_x, cfg, r1, r2)
        batches = _opt_batches(tasks, cfg.opt_batch, cfg.seed, TAG_PSO_BATCH, t)
        fits = np.zeros(cfg.swarm)
        for i in range(cfg.swarm):
            model = _mix_position(experts, x[i])
            fits[i] = float(np.mean([accuracy(model, b) for b in batches]))
            if fits[i] > pbest_f[i]:
                pbest_f[i] = fits[i]
                pbest_x[i] = x[i].copy()
            if fits[i] > gbest_f:
                gbest_f = fits[i]
                gbest_x = x[i].copy()
        trace.append(PsoTraceRecord(t, gbest_f, float(fits.max()), float(fits.mean())))
    return _mix_position(experts, gbest_x), trace


def write_pso_trace(path, records: list[PsoTraceRecord]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(PSO_TRACE_HEADER.split(","))
        for r in records:
            writer.writerow([r.iteration, repr(r.gbest_fitness), repr(r.iter_best), repr(r.iter_mean)])
