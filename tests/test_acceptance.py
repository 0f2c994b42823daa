"""Acceptance suite: every release criterion with its tolerance and runtime cap.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. Each check measures its own wall time against the stated budget.
"""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sparsemerge.cli import main as cli
from sparsemerge.evolve import EvolveConfig, PsoConfig, run_pso, run_sae
from sparsemerge.landscape import EigConfig, convexity_score, extreme_eigs, hvp
from sparsemerge.merge import compute_lambda, merge_layer, redense, weight_average
from sparsemerge.params import ParameterSet, flatten, param_count, unflatten
from sparsemerge.seeding import TAG_EIG, substream
from sparsemerge.sparsity import SparsitySchedule, prune, schedule_rate
from sparsemerge.tasks import (
    MlpSpec,
    ModularOp,
    ModularTaskSpec,
    accuracy,
    full_split,
    gen_dataset,
    init_mlp,
    linearize,
    loss,
    loss_and_grad,
)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    started = time.time()
    yield
    elapsed = time.time() - started
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def random_sparse(rng, n, sparsity):
    return np.where(rng.random(n) < sparsity, 0.0, rng.standard_normal(n))


def random_pset(rng, sparsity=0.0):
    return ParameterSet.from_pairs(
        [
            ("w1", random_sparse(rng, 24, sparsity).reshape(6, 4)),
            ("b1", random_sparse(rng, 4, sparsity)),
            ("w2", random_sparse(rng, 12, sparsity).reshape(4, 3)),
        ]
    )


def test_criterion_01_schedule_golden_sequence():
    with criterion(1, "schedule golden sequence", 1.0):
        sched = SparsitySchedule(0.1, 0.6, 3, 2, 12)
        golden = [
            0.1, 0.35, 0.6,
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
            0.1, 0.1 + 0.5 / 11, 0.1 + 1.0 / 11,
        ]
        for step, expected in enumerate(golden):
            assert abs(schedule_rate(sched, step) - expected) <= 1e-12


def test_criterion_02_merge_oracle_equivalence():
    with criterion(2, "merge oracle equivalence", 5.0):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            a = random_sparse(rng, n, float(rng.random() * 0.9))
            b = random_sparse(rng, n, float(rng.random() * 0.9))
            lam = float(rng.random())
            merged = merge_layer(a, b, lam)
            for i in range(n):
                if a[i] == 0.0 and b[i] == 0.0:
                    assert merged[i] == 0.0
                elif a[i] == 0.0:
                    assert merged[i] == b[i]
                elif b[i] == 0.0:
                    assert merged[i] == a[i]
                else:
                    assert abs(merged[i] - (lam * a[i] + (1.0 - lam) * b[i])) <= 1e-12


def test_criterion_03_mixing_ratio_contracts():
    with criterion(3, "mixing ratio contracts", 1.0):
        rng = np.random.default_rng(303)
        for _ in range(10_000):
            s_a, s_b, w_a, w_b = rng.random(4) * rng.choice([1e-4, 1.0, 1e2], size=4)
            lam = compute_lambda(s_a, s_b, w_a, w_b)
            assert 0.0 <= lam <= 1.0
            assert lam + compute_lambda(s_b, s_a, w_b, w_a) == 1.0
        assert compute_lambda(0.0, 0.0, 0.0, 0.0) == 0.5


def test_criterion_04_pruning_exactness():
    with criterion(4, "pruning exactness", 5.0):
        rng = np.random.default_rng(404)
        for _ in range(200):
            p = random_pset(rng, sparsity=float(rng.random() * 0.6))
            rate = float(rng.random())
            n = param_count(p)
            prior = int(np.count_nonzero(flatten(p) == 0.0))
            pruned = prune(p, rate)
            flat_before, flat_after = flatten(p), flatten(pruned)
            assert np.count_nonzero(flat_after == 0.0) == max(prior, int(np.floor(rate * n)))
            survivors = flat_after != 0.0
            assert np.array_equal(flat_before[survivors], flat_after[survivors])
            twice = prune(pruned, rate)
            assert np.array_equal(flatten(twice), flat_after)


def test_criterion_05_redense_inverse():
    with criterion(5, "redense inverse", 2.0):
        rng = np.random.default_rng(505)
        for _ in range(100):
            theta = random_pset(rng)
            rate = float(rng.random())
            restored = redense(prune(theta, rate), theta)
            assert np.array_equal(flatten(restored), flatten(theta))


def test_criterion_06_gradient_check():
    with criterion(6, "gradient finite-difference check", 10.0):
        spec = MlpSpec(4, 8)
        net_template = init_mlp(spec, 0)
        assert param_count(net_template) <= 200
        batch = gen_dataset(ModularTaskSpec(4, ModularOp.ADD), "train", 10, seed=6)
        h = 1e-5
        rng = np.random.default_rng(606)
        for _ in range(20):
            flat0 = flatten(net_template) + 0.3 * rng.standard_normal(param_count(net_template))
            point = unflatten(net_template, flat0)
            analytic = unflatten(point, loss_and_grad(point, batch)[1])
            numeric = np.zeros_like(flat0)
            for i in range(flat0.size):
                bumped = flat0.copy()
                bumped[i] += h
                up = loss(unflatten(point, bumped), batch)
                bumped[i] -= 2 * h
                down = loss(unflatten(point, bumped), batch)
                numeric[i] = (up - down) / (2 * h)
            numeric_set = unflatten(point, numeric)
            for name in point.names:
                diff = np.max(np.abs(analytic[name] - numeric_set[name]))
                scale = max(np.max(np.abs(numeric_set[name])), 1e-12)
                assert diff / scale < 1e-4, f"layer {name}"


def test_criterion_07_curvature_oracle():
    with criterion(7, "curvature oracle", 30.0):
        net = init_mlp(MlpSpec(2, 3), 0)
        n = param_count(net)
        assert n <= 40
        batch = gen_dataset(ModularTaskSpec(2, ModularOp.ADD), "train", 3, seed=0)
        eig_cfg = EigConfig(iters=800, tol=1e-12)
        start = substream(0, TAG_EIG, n).standard_normal(n)
        rng = np.random.default_rng(0)
        for _ in range(10):
            point = unflatten(net, flatten(net) + 0.2 * rng.standard_normal(n))
            hess = np.zeros((n, n))
            flat = flatten(point)
            for j in range(n):
                bumped = flat.copy()
                bumped[j] += 1e-5
                g_plus = loss_and_grad(unflatten(point, bumped), batch)[1]
                bumped[j] -= 2e-5
                g_minus = loss_and_grad(unflatten(point, bumped), batch)[1]
                hess[:, j] = (g_plus - g_minus) / 2e-5
            spectrum = np.linalg.eigvalsh((hess + hess.T) / 2.0)
            result = extreme_eigs(lambda v: hvp(linearize(point, batch), v), start, eig_cfg)
            assert abs(result.lam_max - spectrum[-1]) <= 0.02 * abs(spectrum[-1])
            assert abs(result.lam_min - spectrum[0]) <= 0.02 * abs(spectrum[0])

        # Hessians of L = w1^2 + w2^2, of L = w1^2 - w2^2, and of L = w1^2 with w2 unused.
        pair = substream(0, TAG_EIG, 2).standard_normal(2)
        convex = extreme_eigs(lambda v: np.array([2.0, 2.0]) * v, pair, eig_cfg)
        saddle = extreme_eigs(lambda v: np.array([2.0, -2.0]) * v, pair, eig_cfg)
        flat_case = extreme_eigs(lambda v: np.array([2.0, 0.0]) * v, pair, eig_cfg)
        assert convexity_score(convex.lam_max, convex.lam_min) == 0.5
        assert convexity_score(saddle.lam_max, saddle.lam_min) == 0.5
        assert convexity_score(flat_case.lam_max, flat_case.lam_min) == 0.0


def test_criterion_08_convexity_range(convexity_runs):
    (first, _), (dur_first, _) = (convexity_runs[0], convexity_runs[1])
    assert dur_first < 300.0, f"21x21 convexity grid took {dur_first:.0f}s"
    with open(first / "convexity.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == 441
    for row in rows:
        value = float(row[4])
        assert 0.0 <= value <= 0.5
    print(f"ACCEPTANCE 08 convexity range: PASS ({dur_first:.2f}s)")


def test_criterion_09_cli_determinism(experts_dir, convexity_runs, tmp_path):
    started = time.time()
    (conv_a, conv_b), conv_durations = convexity_runs
    for name in ("convexity.csv", "convexity.pgm", "config.txt"):
        assert (conv_a / name).read_bytes() == (conv_b / name).read_bytes()

    evolve_dirs = []
    for tag in ("a", "b"):
        out = tmp_path / f"evolve_{tag}"
        assert cli(["evolve", "--experts", str(experts_dir), "--seed", "1",
                    "--out", str(out)]) == 0
        evolve_dirs.append(out)
    for name in ("trace.csv", "best.ckpt", "summary.csv", "config.txt"):
        assert (evolve_dirs[0] / name).read_bytes() == (evolve_dirs[1] / name).read_bytes()

    pso_dirs = []
    for tag in ("a", "b"):
        out = tmp_path / f"pso_{tag}"
        assert cli(["pso", "--experts", str(experts_dir), "--seed", "1",
                    "--out", str(out)]) == 0
        pso_dirs.append(out)
    for name in ("trace.csv", "best.ckpt", "summary.csv", "config.txt"):
        assert (pso_dirs[0] / name).read_bytes() == (pso_dirs[1] / name).read_bytes()

    total = time.time() - started + sum(conv_durations)
    assert total < 600.0, f"determinism checks took {total:.0f}s"
    print(f"ACCEPTANCE 09 determinism: PASS ({total:.2f}s)")


@pytest.fixture(scope="module")
def seeded_runs(experts5):
    """SAE and PSO runs for seeds 0..4 on the full-recipe experts."""
    runs = {}
    for seed, (base, expert_add, expert_sub, specs) in experts5.items():
        cfg = EvolveConfig(capacity=8, seed=seed, tasks=specs)
        records = []
        best = run_sae([expert_add, expert_sub], cfg, records.extend)
        pso_best, pso_trace = run_pso(
            [expert_add, expert_sub], PsoConfig(seed=seed), specs
        )
        runs[seed] = {
            "experts": (base, expert_add, expert_sub),
            "specs": specs,
            "sae": (best, records),
            "pso": (pso_best, pso_trace),
        }
    return runs


def test_criterion_10_evolution_monotonicity(seeded_runs):
    with criterion(10, "evolution monotonicity", 600.0):
        for seed, run in seeded_runs.items():
            _, records = run["sae"]
            members = {}
            for r in records:
                if r.event in ("init", "member"):
                    members.setdefault(r.step, []).append(r.total_score)
            assert sorted(members) == list(range(13))
            assert all(len(v) == 8 for v in members.values()), f"seed {seed}"
            best_series = [max(members[s]) for s in sorted(members)]
            assert all(
                later >= earlier for earlier, later in zip(best_series, best_series[1:])
            ), f"seed {seed}: best total_score decreased"

            _, pso_trace = run["pso"]
            fitness = [r.gbest_fitness for r in pso_trace]
            assert all(b >= a for a, b in zip(fitness, fitness[1:])), f"seed {seed}"


def test_criterion_11_directional_analog(seeded_runs, experts_dir, tmp_path):
    with criterion(11, "desk-scale directional analog", 900.0):
        wins = 0
        for seed, run in seeded_runs.items():
            specs = run["specs"]
            tests = [full_split(spec, "test") for spec in specs]
            best, _ = run["sae"]
            _, expert_add, expert_sub = run["experts"]
            sae_mean = float(np.mean([accuracy(best.params, t) for t in tests]))
            wa = weight_average([expert_add, expert_sub])
            wa_mean = float(np.mean([accuracy(wa, t) for t in tests]))
            wins += sae_mean >= wa_mean
        assert wins >= 3, f"SAE met the weight-average bar in only {wins}/5 seeds"

        # Full comparison table through the command-line pipeline.
        run_dirs = []
        sae_out = tmp_path / "sae"
        assert cli(["evolve", "--experts", str(experts_dir), "--seed", "0",
                    "--out", str(sae_out)]) == 0
        run_dirs.append(sae_out)
        pso_out = tmp_path / "pso"
        assert cli(["pso", "--experts", str(experts_dir), "--seed", "0",
                    "--out", str(pso_out)]) == 0
        run_dirs.append(pso_out)
        for method in ("weight-average", "task-arithmetic"):
            out = tmp_path / method
            assert cli(["baseline", "--method", method, "--experts", str(experts_dir),
                        "--out", str(out)]) == 0
            run_dirs.append(out)
        run_dirs.append(experts_dir)
        report_dir = tmp_path / "report"
        assert cli(["report", "--runs", *map(str, run_dirs), "--out", str(report_dir)]) == 0
        with open(report_dir / "report.csv", newline="") as f:
            rows = list(csv.reader(f))
        methods = [r[0] for r in rows[1:]]
        for required in ("sae", "pso", "weight-average", "task-arithmetic",
                         "expert_add", "expert_sub"):
            assert required in methods
        for row in rows[1:]:
            a, b, avg = map(float, row[1:])
            assert abs(avg - (a + b) / 2.0) < 1e-12


def test_criterion_12_ablation_harness(experts_dir, tmp_path):
    with criterion(12, "ablation harness parity", 2700.0):
        run_dirs = []
        for granularity in ("global", "local"):
            for measure in ("magnitude", "zero-count"):
                for s_min, s_max in ((0.1, 0.6), (0.05, 0.9)):
                    for redense_mode in ("parents", "original-dense"):
                        label = f"sae_{granularity}_{measure}_{s_min}-{s_max}_{redense_mode}"
                        out = tmp_path / label
                        code = cli([
                            "evolve", "--experts", str(experts_dir), "--seed", "0",
                            "--granularity", granularity, "--measure", measure,
                            "--s-min", str(s_min), "--s-max", str(s_max),
                            "--redense", redense_mode, "--label", label,
                            "--out", str(out),
                        ])
                        assert code == 0, f"configuration {label} failed"
                        run_dirs.append(out)
        report_dir = tmp_path / "report"
        assert cli(["report", "--runs", *map(str, run_dirs), "--out", str(report_dir)]) == 0
        with open(report_dir / "report.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert len(rows) == 16
        assert len({r[0] for r in rows}) == 16
        for row in rows:
            a, b, avg = map(float, row[1:])
            for value in (a, b, avg):
                assert np.isfinite(value) and 0.0 <= value <= 1.0
