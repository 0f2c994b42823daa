"""Archive-based prune-merge evolution and the particle-swarm baseline."""

from __future__ import annotations

import csv
import string
from dataclasses import dataclass, field
from typing import Callable, TextIO

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


@dataclass(frozen=True)
class Individual:
    id: int
    params: ParameterSet
    perf: tuple[float, ...]
    perf_mean: float
    stats: SparsityStats
    total_score: float


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


def blend_score(perf_mean: float, zero_frac: float, gamma: float) -> float:
    """Selection score: sparsity competes directly with task performance."""
    return (1.0 - gamma) * perf_mean + gamma * zero_frac


def _evaluate(params: ParameterSet, batches: list[Dataset], gamma: float, ind_id: int) -> Individual:
    """Per-task accuracy, sparsity statistics and the gamma-blended selection score."""
    if not batches or any(len(b) == 0 for b in batches):
        raise ValueError("empty optimization batch")
    perf = tuple(accuracy(params, b) for b in batches)
    perf_mean = float(np.mean(perf))
    stats = collect_stats(params)
    total = blend_score(perf_mean, stats.zero_frac, gamma)
    return Individual(ind_id, params, perf, perf_mean, stats, total)


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
    members = [_evaluate(model, batches, cfg.merge_cfg.gamma, i) for i, model in enumerate(models)]
    return Archive(members, next_id=cfg.capacity, dense_reference=weight_average(dense_experts))


def _worst_index(members: list[Individual]) -> int:
    return min(range(len(members)), key=lambda i: (members[i].total_score, members[i].id))


def evolve_step(archive: Archive, cfg: EvolveConfig, step: int) -> tuple[Archive, list[TraceRecord]]:
    """One generation: pair, merge, prune, (redense), score, replace-worst.

    The pairing is ``substream(cfg.seed, TAG_PAIRING, step)``'s permutation.
    Every parent comes from the step-start archive; each offspring in turn
    replaces the worst of a copy of it if strictly better, so a concurrent
    evaluation of the pairs would produce identical results.
    """
    if len(archive.members) != cfg.capacity:
        raise ValueError(f"archive has {len(archive.members)} members, capacity {cfg.capacity}")
    rate = schedule_rate(cfg.schedule, step)
    batches = _opt_batches(cfg.tasks, cfg.opt_batch, cfg.seed, TAG_OPT_BATCH, step)
    pairs = substream(cfg.seed, TAG_PAIRING, step).permutation(cfg.capacity).reshape(-1, 2)
    members = list(archive.members)
    records = []
    for k, (i, j) in enumerate(pairs):
        parent_a, parent_b = archive.members[i], archive.members[j]
        merged, lambdas = merge_models(
            parent_a.params,
            parent_b.params,
            parent_a.stats,
            parent_b.stats,
            parent_a.perf_mean,
            parent_b.perf_mean,
            cfg.merge_cfg,
        )
        child_params = prune(merged, rate)
        if cfg.merge_cfg.redense_mode is RedenseMode.FROM_ORIGINAL_DENSE:
            child_params = redense(child_params, archive.dense_reference)
        child = _evaluate(child_params, batches, cfg.merge_cfg.gamma, archive.next_id + k)
        event = f"offspring parents={parent_a.id}|{parent_b.id} rate={rate!r}"
        target = _worst_index(members)
        if child.total_score > members[target].total_score:
            event += f" accepted replaced={members[target].id}"
            members[target] = child
        else:
            event += " rejected"
        event += " lambdas=" + ";".join(f"{name}={lam!r}" for name, lam in lambdas.items())
        records.append(_record(step + 1, child, event))

    records.extend(_record(step + 1, member, "member") for member in members)
    return Archive(members, archive.next_id + len(pairs), archive.dense_reference), records


def best_member(archive: Archive) -> Individual:
    return max(archive.members, key=lambda m: (m.total_score, -m.id))


def run_sae(
    dense_experts: list[ParameterSet], cfg: EvolveConfig, sink: Callable[[list[TraceRecord]], None]
) -> Individual:
    """Full evolutionary run; deterministic given (experts, cfg). Returns the best member.

    ``sink`` receives each step's trace records as the step ends, the initial
    archive's first; the run keeps none, so its memory does not grow with its steps.
    """
    archive = init_archive(dense_experts, cfg)
    sink([_record(0, m, "init") for m in archive.members])
    for step in range(cfg.schedule.total_steps):
        archive, records = evolve_step(archive, cfg, step)
        sink(records)
    return best_member(archive)


def write_trace(f: TextIO, records: list[TraceRecord]) -> None:
    """One row per record, appended to ``f``, a text file opened with
    ``newline=""``. An empty file first gets the header, with one
    ``perf_task_<a, b, ...>`` column per task of the run."""
    writer = csv.writer(f)
    if f.tell() == 0:
        n_tasks = len(records[0].perf) if records else 0
        perf_columns = [f"perf_task_{string.ascii_lowercase[k]}" for k in range(n_tasks)]
        writer.writerow(
            ["step", "member_id", *perf_columns, "perf_mean", "zero_frac", "total_score", "event"]
        )
    for r in records:
        writer.writerow(
            [
                r.step, r.member_id, *map(repr, r.perf),
                repr(r.perf_mean), repr(r.zero_frac), repr(r.total_score), r.event,
            ]
        )


# ----------------------------------------------------------------------------
# Particle swarm baseline: searches one interpolation weight per layer between
# the two experts, no attraction rule, so it represents interpolation-based prior work.
# ----------------------------------------------------------------------------


# Clerc & Kennedy's (2002) constriction swarm: inertia, cognitive and social
# weights, and a speed limit of half the [0, 1] position range.
PSO_W = 0.729
PSO_C1 = PSO_C2 = 1.49445
PSO_VMAX = 0.5


@dataclass(frozen=True)
class PsoConfig:
    swarm: int = 8
    iters: int = 12
    opt_batch: int = 64
    seed: int = 0

    def __post_init__(self):
        check_fields(
            (self.swarm >= 2, "swarm", f"must be >= 2, got {self.swarm}"),
            (self.iters >= 1, "iters", f"must be >= 1, got {self.iters}"),
            (self.opt_batch >= 1, "opt_batch", f"must be >= 1, got {self.opt_batch}"),
        )


@dataclass(frozen=True)
class PsoTraceRecord:
    iteration: int
    gbest_fitness: float
    iter_best: float
    iter_mean: float


PSO_TRACE_HEADER = "iteration,gbest_fitness,iter_best,iter_mean"


def _mix_position(a: ParameterSet, b: ParameterSet, position: np.ndarray) -> ParameterSet:
    """``lam * a + (1 - lam) * b`` with one interpolation weight lam per layer."""
    lam = repeat_per_layer(a, position)
    return unflatten(a, lam * flatten(a) + (1.0 - lam) * flatten(b))


def pso_update(
    x: np.ndarray,
    v: np.ndarray,
    pbest_x: np.ndarray,
    gbest_x: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One velocity/position step; positions stay clamped to [0, 1]."""
    v = PSO_W * v + PSO_C1 * r1 * (pbest_x - x) + PSO_C2 * r2 * (gbest_x - x)
    v = np.clip(v, -PSO_VMAX, PSO_VMAX)
    x = np.clip(x + v, 0.0, 1.0)
    return x, v


def run_pso(
    experts: list[ParameterSet],
    cfg: PsoConfig,
    tasks: tuple[ModularTaskSpec, ...],
) -> tuple[ParameterSet, list[PsoTraceRecord]]:
    if len(experts) != 2:
        raise ValueError(f"PSO interpolates two experts, got {len(experts)}")
    require_compatible(*experts)
    n_dim = len(experts[0].names)
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
            x, v = pso_update(x, v, pbest_x, gbest_x, r1, r2)
        batches = _opt_batches(tasks, cfg.opt_batch, cfg.seed, TAG_PSO_BATCH, t)
        fits = np.zeros(cfg.swarm)
        for i in range(cfg.swarm):
            model = _mix_position(*experts, x[i])
            fits[i] = float(np.mean([accuracy(model, b) for b in batches]))
            if fits[i] > pbest_f[i]:
                pbest_f[i] = fits[i]
                pbest_x[i] = x[i].copy()
            if fits[i] > gbest_f:
                gbest_f = float(fits[i])
                gbest_x = x[i].copy()
        trace.append(PsoTraceRecord(t, gbest_f, float(fits.max()), float(fits.mean())))
    return _mix_position(*experts, gbest_x), trace


def write_pso_trace(path, records: list[PsoTraceRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(PSO_TRACE_HEADER.split(","))
        for r in records:
            writer.writerow([r.iteration, repr(r.gbest_fitness), repr(r.iter_best), repr(r.iter_mean)])
