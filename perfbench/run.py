"""sparsemerge benchmark: CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the WORKLOADS below, or ``all`` to run each in turn. Run from
anywhere; paths resolve against the checkout that holds this file, and all
output goes to perfbench/out/<workload>/ (emptied at the start of every run,
so inputs are never reused across runs or commits).

Each run generates its inputs from --seed with the package's own CLI, then
starts workload processes (worker.py) one at a time, each a fresh
interpreter with BLAS pinned to one thread:

* --trace 0: set-up probes, then untraced repetitions for --seconds; prints
  wall_s, setup_s and peak_rss_mb (medians).
* --trace 1: one untraced repetition and two traced ones; prints the
  per-layer metrics of tracer.METRICS and trace.overhead_frac.

Every repetition is checked: exit codes, value ranges, and artifacts
byte-identical to the first repetition. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import BYPASSED_TIMES, METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
ENV = dict(
    os.environ,
    PYTHONPATH=str(SRC),
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 10  # set-up-only processes per untraced run
ARTIFACT_SUFFIXES = (".ckpt", ".csv", ".pgm")

# Inputs of loss_geometry and merge_search: experts trained briefly (1000 of
# the default 8000 expert epochs), so generation stays a few seconds.
SHORT_EXPERT_EPOCHS = "1000"
EXPERTS = "inputs/experts"
# loss_geometry maps 5x5 cells at default eigen-solver settings around each
# of three independently seeded anchors. The number of HVPs a map needs
# depends on its anchor: over ten seeds, the interquartile range of the HVP
# count was 13 % of the median for one 9x9 map and 3 % for the sum of three
# 5x5 maps. The default 21x21 map takes about 48 s, too long to repeat
# within one run.
ANCHORS = 3
CONVEXITY_GRID = "5"


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed inputs)."""


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[str], list[list[str]]]  # seed -> CLI argvs, run once before timing
    loads: tuple[str, ...]  # checkpoints loaded during set-up
    commands: Callable[[str, str], list[tuple[str, list[str]]]]  # (seed, run dir) -> (label, argv)
    exercised: tuple[str, ...]  # per-layer counts that must not read 0
    quality: Callable[[Path], dict[str, float]]  # run dir -> quality metrics


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _summary(path: Path) -> dict[str, dict[str, float]]:
    return {r["method"]: {k: float(v) for k, v in r.items() if k != "method"} for r in _rows(path)}


def _short_experts(seed: str, out: str = EXPERTS) -> list[str]:
    return ["train-experts", "--seed", seed, "--expert-epochs", SHORT_EXPERT_EPOCHS, "--out", out]


def _anchor_seeds(seed: str) -> list[tuple[int, str]]:
    return [(k, str(ANCHORS * int(seed) + k)) for k in range(ANCHORS)]


def _anchor(k: int) -> str:
    return f"inputs/sae{k}/best.ckpt"


def _expert_accuracy(run: Path) -> dict[str, float]:
    s = _summary(run / "experts" / "summary.csv")
    return {"test_acc_avg": (s["expert_add"]["task_a"] + s["expert_sub"]["task_b"]) / 2.0}


def _converged_frac(run: Path) -> dict[str, float]:
    flags = [int(r["converged"]) for k in range(ANCHORS)
             for r in _rows(run / f"convexity{k}" / "convexity.csv")]
    return {"converged_frac": sum(flags) / len(flags)}


def _sae_accuracy(run: Path) -> dict[str, float]:
    return {"test_acc_avg": _summary(run / "sae" / "summary.csv")["sae"]["avg"]}


COMMON = ("params.from_pairs.calls", "params.ckpt.bytes", "tasks.forward.calls",
          "tasks.matmul_flops", "seeding.substream.calls")

WORKLOADS = {
    "train_experts": Workload(
        inputs=lambda seed: [],
        loads=(),
        commands=lambda seed, run: [
            ("experts", ["train-experts", "--seed", seed, "--out", f"{run}/experts"]),
        ],
        exercised=COMMON + ("tasks.loss_and_grad.calls", "tasks.sgd_steps"),
        quality=_expert_accuracy,
    ),
    "loss_geometry": Workload(
        inputs=lambda seed: [
            argv
            for k, s in _anchor_seeds(seed)
            for argv in (
                _short_experts(s, f"inputs/experts{k}"),
                ["evolve", "--experts", f"inputs/experts{k}", "--seed", s, "--out", f"inputs/sae{k}"],
            )
        ],
        loads=tuple(_anchor(k) for k in range(ANCHORS)),
        commands=lambda seed, run: [
            command
            for k, s in _anchor_seeds(seed)
            for command in (
                (f"landscape{k}", ["landscape", "--ckpt", _anchor(k), "--seed", s,
                                   "--out", f"{run}/landscape{k}"]),
                (f"convexity{k}", ["convexity", "--ckpt", _anchor(k), "--seed", s,
                                   "--grid", CONVEXITY_GRID, "--out", f"{run}/convexity{k}"]),
            )
        ],
        exercised=COMMON + ("params.flatten.calls", "params.unflatten.calls",
                            "tasks.loss_and_grad.calls", "landscape.hvp.calls",
                            "landscape.extreme_eigs.calls", "landscape.grad_evals_per_hvp"),
        quality=_converged_frac,
    ),
    "merge_search": Workload(
        inputs=lambda seed: [_short_experts(seed)],
        loads=(f"{EXPERTS}/base.ckpt", f"{EXPERTS}/expert_add.ckpt", f"{EXPERTS}/expert_sub.ckpt"),
        commands=lambda seed, run: [
            ("sae", ["evolve", "--experts", EXPERTS, "--seed", seed, "--pop", "32", "--steps", "96",
                     "--out", f"{run}/sae"]),
            ("pso", ["pso", "--experts", EXPERTS, "--seed", seed, "--swarm", "64", "--iters", "48",
                     "--out", f"{run}/pso"]),
            ("wa", ["baseline", "--method", "weight-average", "--experts", EXPERTS, "--out", f"{run}/wa"]),
            ("ta", ["baseline", "--method", "task-arithmetic", "--experts", EXPERTS, "--out", f"{run}/ta"]),
            ("report", ["report", "--runs", f"{run}/sae", f"{run}/pso", f"{run}/wa", f"{run}/ta",
                        "--out", f"{run}/report"]),
        ],
        exercised=COMMON + ("params.flatten.calls", "params.unflatten.calls",
                            "sparsity.collect_stats.calls", "sparsity.prune.calls",
                            "sparsity.sparsity_weights.calls", "merge.merge_models.calls",
                            "evolve.offspring", "evolve.pso.evals"),
        quality=_sae_accuracy,
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifacts(directory: Path) -> dict[str, str]:
    if not directory.is_dir():
        return {}
    return {p.name: sha256(p) for p in sorted(directory.iterdir()) if p.suffix in ARTIFACT_SUFFIXES}


def digest(tree: Path) -> str:
    """One SHA-256 over every artifact below ``tree``, by relative path."""
    h = hashlib.sha256()
    for p in sorted(tree.rglob("*")):
        if p.suffix in ARTIFACT_SUFFIXES:
            h.update(f"{p.relative_to(tree)} {sha256(p)}\n".encode())
    return h.hexdigest()


def check_outputs(out: Path, stdout: str) -> list[str]:
    """Range and consistency checks on one command's output directory."""
    problems = []
    for name in ("summary.csv", "report.csv"):
        if (out / name).is_file():
            for row in _rows(out / name):
                for key in ("task_a", "task_b", "avg"):
                    if not 0.0 <= float(row[key]) <= 1.0:
                        problems.append(f"{name}: {row['method']} {key}={row[key]} outside [0, 1]")
    if (out / "convexity.csv").is_file():
        rows = _rows(out / "convexity.csv")
        problems += [f"convexity.csv: cell ({r['i']}, {r['j']}) value {r['value']} outside [0, 0.5]"
                     for r in rows if not 0.0 <= float(r["value"]) <= 0.5]
        converged = sum(int(r["converged"]) for r in rows)
        printed = re.search(r"converged=(\d+)/(\d+)", stdout)
        if not printed or (int(printed[1]), int(printed[2])) != (converged, len(rows)):
            problems.append(f"converged count printed as {printed and printed[0]!r}, "
                            f"convexity.csv has {converged}/{len(rows)}")
    if (out / "landscape.csv").is_file():
        problems += [f"landscape.csv: cell ({r['i']}, {r['j']}) loss {r['value']}"
                     for r in _rows(out / "landscape.csv")
                     if not (math.isfinite(float(r["value"])) and float(r["value"]) >= 0.0)]
    return problems


class Run:
    """One workload's runs for one seed, with their checks and tallies."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = str(seed)
        self.deadline = deadline
        self.dir = OUT / name
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, str]] | None = None  # label -> artifacts of the first rep

    def _remaining(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"{self.name}: time budget of {BUDGET_S:.0f} s used up")
        return remaining

    def generate_inputs(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for argv in self.workload.inputs(self.seed):
            proc = subprocess.run([sys.executable, "-m", "sparsemerge.cli", *argv], cwd=self.dir,
                                  env=ENV, capture_output=True, text=True, timeout=self._remaining())
            if proc.returncode != 0:
                raise BenchError(f"input generation `{' '.join(argv)}` exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")

    def spawn(self, run: str, commands: list[tuple[str, list[str]]], trace: bool) -> dict | None:
        """Start one worker process and wait for it; None if it produced no result."""
        run_dir = self.dir / run
        run_dir.mkdir()
        spec = {"loads": list(self.workload.loads), "commands": commands, "trace": trace,
                "result": str(run_dir / "result.json")}
        (run_dir / "spec.json").write_text(json.dumps(spec))
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(run_dir / "spec.json"), repr(spawn)],
                cwd=self.dir, env=ENV, capture_output=True, text=True, timeout=self._remaining(),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{run}: worker killed at the time budget")
            return None
        if proc.returncode != 0 or not (run_dir / "result.json").is_file():
            self.problems.append(f"{run}: worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        return json.loads((run_dir / "result.json").read_text())

    def repetition(self, run: str, trace: bool = False, extra: Callable[[dict], list[str]] | None = None):
        """Run and check the workload's commands once; returns the worker result or None."""
        commands = self.workload.commands(self.seed, run)
        result = self.spawn(run, commands, trace)
        whole = [] if result is None else (extra(result) if extra else [])
        outcomes = {c["label"]: c for c in (result or {}).get("commands", [])}
        if self.reference is None and result is not None:
            self.reference = {label: artifacts(self.dir / run / label) for label, _ in commands}
        for label, _ in commands:
            self.attempted += 1
            outcome = outcomes.get(label)
            if outcome is None:
                problems = ["no result"]
            elif outcome["code"] != 0:
                problems = [f"exit code {outcome['code']}: "
                            f"{(outcome['error'] or outcome['stdout']).strip()[-500:]}"]
            else:
                got = artifacts(self.dir / run / label)
                problems = check_outputs(self.dir / run / label, outcome["stdout"])
                if not got:
                    problems.append("wrote no artifacts")
                elif self.reference is not None and got != self.reference[label]:
                    differ = sorted(n for n in set(got) | set(self.reference[label])
                                    if got.get(n) != self.reference[label].get(n))
                    problems.append(f"artifacts differ from the first repetition: {', '.join(differ)}")
            problems += whole
            if problems:
                self.failed += 1
                self.problems += [f"{run}/{label}: {p}" for p in problems]
        return result

    def untraced(self, seconds: float) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}

        def probe_setup(count: int) -> None:
            for _ in range(count):
                probe = self.spawn(f"setup{len(samples['setup_s'])}", [], False)
                if probe is None:
                    raise BenchError("; ".join(self.problems))
                samples["setup_s"].append(probe["setup_s"])

        # Half the set-up probes before the repetitions and half after, so
        # their median spans the whole run.
        probe_setup(SETUP_PROBES // 2)
        started = time.monotonic()
        while True:
            result = self.repetition(f"rep{len(samples['wall_s'])}")
            if result is None:
                raise BenchError("; ".join(self.problems))
            samples["wall_s"].append(result["wall_s"])
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
            elapsed = time.monotonic() - started
            per_rep = elapsed / len(samples["wall_s"])
            if elapsed + per_rep > seconds or self.deadline - time.monotonic() < 2 * per_rep:
                break
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        return samples

    def traced(self) -> tuple[dict[str, float], list[str]]:
        """One untraced and two traced repetitions; per-layer metrics of the first traced one."""
        base = self.repetition("rep0")
        runs = []

        def trace_checks(result: dict) -> list[str]:
            problems = list(result["trace_problems"])
            problems += [f"exercised count {m} reads 0" for m in self.workload.exercised
                         if result["layers"][m] == 0]
            if runs:
                first = runs[0]["layers"]
                problems += [f"count {m} differs between traced runs: {first[m]} vs {result['layers'][m]}"
                             for m, unit in METRICS.items()
                             if unit != "s" and first[m] != result["layers"][m]]
            return problems

        for k in range(2):
            result = self.repetition(f"trace{k}", trace=True, extra=trace_checks)
            if result is None or base is None:
                raise BenchError("; ".join(self.problems))
            runs.append(result)
        metrics = dict(runs[0]["layers"])
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in runs) / base["wall_s"] - 1.0
        )
        return metrics, [f"trace{k} wall_s = {r['wall_s']:.4f} s" for k, r in enumerate(runs)]


def describe(name: str, values: list[float], unit: str) -> str:
    spread = ""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f", q1={q1:.4f}, q3={q3:.4f}"
    return f"{name} = {statistics.median(values):.4f} {unit}  (median of n={len(values)}{spread})"


def environment() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    return (f"env nproc={os.cpu_count()} affinity={affinity} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas_name} blas_threads=1 (OPENBLAS/OMP/MKL_NUM_THREADS)")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, time.monotonic() + BUDGET_S)
    print(f"workload {name} seed={seed} trace={int(trace)}", flush=True)
    run.generate_inputs()
    if (run.dir / "inputs").is_dir():
        print(f"inputs sha256={digest(run.dir / 'inputs')}", flush=True)
    metrics: dict[str, dict] = {}
    if trace:
        layers, notes = run.traced()
        for line in notes:
            print(line)
        for key, value in layers.items():
            unit = METRICS.get(key, "ratio")
            print(f"{key} = {value} {unit}")
            if key not in BYPASSED_TIMES:
                metrics[key] = {"value": value, "unit": unit}
    else:
        samples = run.untraced(seconds)
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
        for key, values in samples.items():
            metrics[key] = {"value": statistics.median(values), "unit": units[key]}
            print(describe(key, values, units[key]))
    if (run.dir / "rep0").is_dir():
        for key, value in run.workload.quality(run.dir / "rep0").items():
            print(f"{key} = {value} ratio")
        print(f"artifacts sha256={digest(run.dir / 'rep0')}")
    print(f"failed_frac = {run.failed / run.attempted} ratio  ({run.failed} of {run.attempted} commands)")
    for problem in run.problems:
        print(f"FAILED {problem}")
    return {"correct": run.failed == 0 and not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sparsemerge" / "cli.py").is_file():
        print(f"error: no sparsemerge sources at {SRC}", file=sys.stderr)
        return 2
    print(environment(), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if len(names) > 1:
                print(f"result {name} {json.dumps(results[name])}", flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
