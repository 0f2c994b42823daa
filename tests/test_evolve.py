import numpy as np
import pytest

from sparsemerge.evolve import (
    AnnealTarget,
    EvolveConfig,
    PsoConfig,
    best_member,
    blend_score,
    evolve_step,
    init_archive,
    pso_update,
    run_pso,
    run_sae,
    score,
)
from sparsemerge.merge import MergeConfig, RedenseMode
from sparsemerge.params import flatten
from sparsemerge.seeding import TAG_PAIRING, substream
from sparsemerge.sparsity import SparsitySchedule, collect_stats
from sparsemerge.tasks import Dataset, full_split


def make_cfg(specs, **overrides):
    defaults = dict(
        capacity=8,
        schedule=SparsitySchedule(),
        merge_cfg=MergeConfig(),
        seed=0,
        tasks=specs,
        opt_batch=64,
    )
    defaults.update(overrides)
    return EvolveConfig(**defaults)


def test_blend_score_examples():
    assert blend_score(1.0, 0.3, 0.0) == 1.0
    assert blend_score(0.9, 0.3, 1.0) == 0.3
    assert blend_score(0.5, 0.25, 0.2) == pytest.approx(0.45, abs=1e-15)


def test_perfect_model_scores_one_without_sparsity_bonus():
    from test_tasks import exact_table_network
    from sparsemerge.tasks import ModularOp, ModularTaskSpec, full_split as split

    spec = ModularTaskSpec(5, ModularOp.ADD, split_seed=0)
    oracle = exact_table_network(spec)
    batches = [split(spec, "test"), split(spec, "train")]
    perf, _, total = score(oracle, batches, gamma=0.0)
    assert perf == (1.0, 1.0)
    assert total == 1.0


def test_score_matches_blend_and_rejects_empty(expert_bundle):
    _, expert_add, _, specs = expert_bundle
    batches = [full_split(spec, "test") for spec in specs]
    perf, stats, total = score(expert_add, batches, 0.2)
    assert stats == collect_stats(expert_add)
    assert total == blend_score(float(np.mean(perf)), stats.zero_frac, 0.2)
    assert 0.0 <= total <= 1.0
    with pytest.raises(ValueError):
        score(expert_add, [], 0.2)
    with pytest.raises(ValueError):
        score(expert_add, [Dataset(np.zeros((0, 26)), np.zeros(0, dtype=np.int64))], 0.2)


def test_config_validation(expert_bundle):
    specs = expert_bundle[3]
    with pytest.raises(ValueError):
        make_cfg(specs, capacity=7)
    with pytest.raises(ValueError):
        make_cfg(specs, capacity=0)
    with pytest.raises(ValueError):
        make_cfg((), capacity=8)


def test_init_archive_composition(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    archive = init_archive([expert_add, expert_sub], make_cfg(specs))
    assert len(archive.members) == 8
    roots = [m for m in archive.members if m.root_dense]
    assert len(roots) == 2
    assert len({m.id for m in archive.members}) == 8
    for member in archive.members:
        assert 0.0 <= member.total_score <= 1.0
        assert np.isfinite(member.total_score)


def test_larger_archive_capacity(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = make_cfg(specs, capacity=16, schedule=SparsitySchedule(total_steps=2))
    best, records = run_sae([expert_add, expert_sub], cfg)
    member_rows = [r for r in records if r.step == 2 and r.event == "member"]
    assert len(member_rows) == 16
    assert 0.0 <= best.total_score <= 1.0


def test_init_archive_at_minimum_capacity(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    archive = init_archive([expert_add, expert_sub], make_cfg(specs, capacity=2))
    assert len(archive.members) == 2
    assert all(m.root_dense for m in archive.members)


def test_init_archive_needs_two_experts(expert_bundle):
    _, expert_add, _, specs = expert_bundle
    with pytest.raises(ValueError):
        init_archive([expert_add], make_cfg(specs))


def test_tie_keeps_incumbent(expert_bundle):
    _, expert_add, _, specs = expert_bundle
    pool = len(full_split(specs[0], "train"))
    cfg = make_cfg(
        specs,
        capacity=2,
        schedule=SparsitySchedule(0.0, 0.0, 3, 2, 1),
        merge_cfg=MergeConfig(gamma=0.0),
        opt_batch=pool,
    )
    archive = init_archive([expert_add, expert_add], cfg)
    stepped, records = evolve_step(archive, cfg, 0, substream(cfg.seed, TAG_PAIRING, 0))
    assert {m.id for m in stepped.members} == {0, 1}
    offspring_events = [r for r in records if r.event.startswith("offspring")]
    assert len(offspring_events) == 1
    assert "rejected" in offspring_events[0].event


def test_step_requires_full_archive(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = make_cfg(specs)
    archive = init_archive([expert_add, expert_sub], cfg)
    archive.members.pop()
    with pytest.raises(ValueError):
        evolve_step(archive, cfg, 0, substream(0, TAG_PAIRING, 0))


def parse_parents(event: str) -> tuple[int, int]:
    token = [t for t in event.split() if t.startswith("parents=")][0]
    a, b = token.removeprefix("parents=").split("|")
    return int(a), int(b)


def test_run_invariants_from_trace(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = make_cfg(specs)
    best, records = run_sae([expert_add, expert_sub], cfg)

    member_rows = {}
    for r in records:
        if r.event in ("init", "member"):
            member_rows.setdefault(r.step, []).append(r)
    assert sorted(member_rows) == list(range(13))
    for step, rows in member_rows.items():
        assert len(rows) == 8, f"archive size drifted at step {step}"

    best_series = [max(r.total_score for r in member_rows[s]) for s in sorted(member_rows)]
    assert all(b >= a - 1e-15 for a, b in zip(best_series, best_series[1:]))
    assert best.total_score == best_series[-1]

    for step in range(1, 13):
        offspring = [r for r in records if r.step == step and r.event.startswith("offspring")]
        assert len(offspring) == 4
        paired = [p for r in offspring for p in parse_parents(r.event)]
        previous_ids = {r.member_id for r in member_rows[step - 1]}
        assert sorted(paired) == sorted(previous_ids)
        for r in offspring:
            assert "lambdas=" in r.event


def test_offspring_zero_fraction_respects_schedule(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = make_cfg(specs)
    _, records = run_sae([expert_add, expert_sub], cfg)
    n = sum(arr.size for _, arr in expert_add.items())
    for r in records:
        if r.event.startswith("offspring"):
            rate_token = [t for t in r.event.split() if t.startswith("rate=")][0]
            rate = float(rate_token.removeprefix("rate="))
            assert r.zero_frac >= np.floor(rate * n) / n - 1e-15


def test_zero_steps_returns_best_initial(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = make_cfg(specs, schedule=SparsitySchedule(total_steps=0))
    best, records = run_sae([expert_add, expert_sub], cfg)
    init_rows = [r for r in records if r.event == "init"]
    assert len(records) == len(init_rows) == 8
    assert best.total_score == max(r.total_score for r in init_rows)


def test_run_sae_deterministic(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = make_cfg(specs)
    best1, rec1 = run_sae([expert_add, expert_sub], cfg)
    best2, rec2 = run_sae([expert_add, expert_sub], cfg)
    assert rec1 == rec2
    assert np.array_equal(flatten(best1.params), flatten(best2.params))


def test_redense_from_original_dense_restores_density(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = make_cfg(specs, merge_cfg=MergeConfig(redense_mode=RedenseMode.FROM_ORIGINAL_DENSE))
    _, records = run_sae([expert_add, expert_sub], cfg)
    reference_zero = collect_stats(
        init_archive([expert_add, expert_sub], cfg).dense_reference
    ).zero_frac
    for r in records:
        if r.event.startswith("offspring"):
            assert r.zero_frac <= reference_zero + 1e-12


def test_archive_annealing_never_touches_roots(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = make_cfg(specs, anneal=AnnealTarget.OFFSPRING_AND_ARCHIVE)
    archive = init_archive([expert_add, expert_sub], cfg)
    root_params = [flatten(m.params) for m in archive.members if m.root_dense]
    stepped, _ = evolve_step(archive, cfg, 2, substream(cfg.seed, TAG_PAIRING, 2))
    surviving_roots = [m for m in stepped.members if m.root_dense]
    for member in surviving_roots:
        assert any(np.array_equal(flatten(member.params), rp) for rp in root_params)
    rate = 0.6  # schedule_rate(defaults, 2)
    n = sum(arr.size for _, arr in expert_add.items())
    for member in stepped.members:
        if not member.root_dense:
            assert member.stats.zero_frac >= np.floor(rate * n) / n - 1e-12


def test_pso_update_clamps_positions_and_velocity():
    rng = np.random.default_rng(0)
    cfg = PsoConfig(swarm=8, iters=1, vmax=0.3)
    x = rng.random((8, 5))
    v = rng.standard_normal((8, 5)) * 3.0
    x2, v2 = pso_update(
        x, v, rng.random((8, 5)), rng.random(5), cfg, rng.random((8, 5)), rng.random((8, 5))
    )
    assert np.all((x2 >= 0.0) & (x2 <= 1.0))
    assert np.all(np.abs(v2) <= cfg.vmax + 1e-15)


def test_pso_fixed_point():
    # A still swarm gathered at its global best (so at every personal best) stays put,
    # whatever the random draws, for as many steps as it runs.
    rng = np.random.default_rng(1)
    cfg = PsoConfig(swarm=4, iters=5, seed=1)
    gbest = np.full(5, 0.37)
    x, v = np.tile(gbest, (4, 1)), np.zeros((4, 5))
    for _ in range(cfg.iters):
        x, v = pso_update(x, v, x.copy(), gbest, cfg, rng.random((4, 5)), rng.random((4, 5)))
        assert np.array_equal(x, np.tile(gbest, (4, 1))) and not v.any()


def test_pso_gbest_monotone_and_trace_shape(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = PsoConfig(swarm=8, iters=12, opt_batch=64, seed=0)
    best, trace = run_pso([expert_add, expert_sub], cfg, specs)
    assert len(trace) == 12
    series = [r.gbest_fitness for r in trace]
    assert all(b >= a for a, b in zip(series, series[1:]))
    assert [r.iteration for r in trace] == list(range(12))


def test_pso_deterministic(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = PsoConfig(swarm=6, iters=6, seed=3)
    best1, trace1 = run_pso([expert_add, expert_sub], cfg, specs)
    best2, trace2 = run_pso([expert_add, expert_sub], cfg, specs)
    assert trace1 == trace2
    assert np.array_equal(flatten(best1), flatten(best2))


def test_pso_needs_two_experts(expert_bundle):
    _, expert_add, _, specs = expert_bundle
    with pytest.raises(ValueError):
        run_pso([expert_add], PsoConfig(), specs)


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(swarm=1)
    with pytest.raises(ValueError):
        PsoConfig(w=0.0)
    with pytest.raises(ValueError, match="opt_batch"):
        PsoConfig(opt_batch=0)


def test_best_member_tie_breaks_to_lower_id(expert_bundle):
    _, expert_add, expert_sub, specs = expert_bundle
    cfg = make_cfg(specs, capacity=2, schedule=SparsitySchedule(total_steps=0), opt_batch=len(full_split(specs[0], "train")))
    archive = init_archive([expert_add, expert_add], cfg)
    assert archive.members[0].total_score == archive.members[1].total_score
    assert best_member(archive).id == 0
