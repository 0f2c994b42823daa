"""Span tracing of the sparsemerge modules, installed from outside the package.

``Tracer.install`` wraps every public function of each package module (and
the classmethods of its public classes) and rebinds every module attribute
and module-level dict entry that refers to the original. Modules import each
other with ``from .x import y``, so a function is reachable under several
names (``tasks.loss_and_grad`` is also ``landscape.loss_and_grad``); all of
them must see the wrapper. ``restore`` puts every original back.

Each call records one span: name id, parent span, start, end. Spans sit in
flat arrays in memory and are written out once, after the traced commands.
A few hooks read call arguments or results to count work that timing alone
does not show (bytes copied, matmul flops, converged cells, accepted
offspring).

Run ``python3 perfbench/tracer.py`` to self-test the self-time arithmetic.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("params", "tasks", "seeding", "landscape", "sparsity", "merge", "evolve", "cli")

# Writers of CSV, PGM, config and log files (checkpoints are under params).
WRITERS = (
    "cli.write_summary",
    "cli.echo_config",
    "cli.log_line",
    "evolve.write_trace",
    "evolve.write_pso_trace",
    "landscape.write_grid_csv",
    "landscape.write_convexity_csv",
    "landscape.write_pgm",
)
DATA_FUNCS = ("tasks.sample_pairs", "tasks.gen_dataset", "tasks.full_split", "tasks.pool_sizes")

# Per-layer metrics: name -> unit. Units other than "s" are exact counts or
# ratios of counts, which must repeat between two traced runs.
METRICS = {
    "params.from_pairs.calls": "count",
    "params.from_pairs.self_s": "s",
    "params.from_pairs.bytes": "B",
    "params.flatten.calls": "count",
    "params.unflatten.calls": "count",
    "params.flat.self_s": "s",
    "params.ckpt.io_s": "s",
    "params.ckpt.bytes": "B",
    "tasks.loss_and_grad.calls": "count",
    "tasks.loss_and_grad.self_s": "s",
    "tasks.forward.calls": "count",
    "tasks.forward.self_s": "s",
    "tasks.sgd_steps": "count",
    "tasks.train.self_s": "s",
    "tasks.data.self_s": "s",
    "tasks.matmul_flops": "flop",
    "seeding.substream.calls": "count",
    "seeding.substream.self_s": "s",
    "landscape.hvp.calls": "count",
    "landscape.hvp.self_s": "s",
    "landscape.grad_evals_per_hvp": "ratio",
    "landscape.extreme_eigs.calls": "count",
    "landscape.extreme_eigs.self_s": "s",
    "landscape.hvps_per_cell.p50": "count",
    "landscape.hvps_per_cell.max": "count",
    "landscape.converged_cells": "count",
    "landscape.loss_grid.s": "s",
    "sparsity.collect_stats.calls": "count",
    "sparsity.collect_stats.self_s": "s",
    "sparsity.collect_stats.per_offspring": "ratio",
    "sparsity.prune.calls": "count",
    "sparsity.prune.self_s": "s",
    "sparsity.sparsity_weights.calls": "count",
    "merge.merge_models.calls": "count",
    "merge.merge_models.self_s": "s",
    "merge.baselines.s": "s",
    "evolve.offspring": "count",
    "evolve.accepted": "count",
    "evolve.accept_ratio": "ratio",
    "evolve.evolve_step.self_s": "s",
    "evolve.pso.evals": "count",
    "evolve.run_pso.self_s": "s",
    "cli.import_s": "s",
    "cli.write.s": "s",
}

# Times of code that some workload bypasses, where they read exactly 0 on
# every run. run.py prints them but leaves them out of the JSON result and
# BENCHMARK.json, whose times must be measured values.
BYPASSED_TIMES = (
    "params.flat.self_s",
    "tasks.loss_and_grad.self_s",
    "tasks.train.self_s",
    "landscape.hvp.self_s",
    "landscape.extreme_eigs.self_s",
    "landscape.loss_grid.s",
    "sparsity.collect_stats.self_s",
    "sparsity.prune.self_s",
    "merge.merge_models.self_s",
    "merge.baselines.s",
    "evolve.evolve_step.self_s",
    "evolve.run_pso.self_s",
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _weight_sizes(p) -> list[int]:
    return [arr.size for _, arr in p.layers if arr.ndim == 2]


def _hook_from_pairs(counters, args, kwargs, result):
    counters["params.from_pairs.bytes"] += sum(arr.nbytes for _, arr in result.layers)


def _hook_save(counters, args, kwargs, result):
    counters["params.ckpt.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _hook_load(counters, args, kwargs, result):
    counters["params.ckpt.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _hook_forward(counters, args, kwargs, result):
    n = _arg(args, kwargs, 1, "inputs").shape[0]
    counters["tasks.matmul_flops"] += 2 * n * sum(_weight_sizes(_arg(args, kwargs, 0, "p")))


def _hook_loss_and_grad(counters, args, kwargs, result):
    n = len(_arg(args, kwargs, 1, "batch"))
    sizes = _weight_sizes(_arg(args, kwargs, 0, "p"))
    # Forward, weight gradients, and input gradients of every layer but the first.
    counters["tasks.matmul_flops"] += 2 * n * (2 * sum(sizes) + sum(sizes[1:]))


def _hook_extreme_eigs(counters, args, kwargs, result):
    counters["landscape.converged_cells"] += int(result.converged)


def _hook_evolve_step(counters, args, kwargs, result):
    for record in result[1]:
        if record.event.startswith("offspring"):
            counters["evolve.offspring"] += 1
            counters["evolve.accepted"] += " accepted " in record.event


def _hook_run_pso(counters, args, kwargs, result):
    # Every iteration scores the whole swarm once.
    counters["evolve.pso.evals"] += _arg(args, kwargs, 1, "cfg").swarm * len(result[1])


HOOKS = {
    "params.from_pairs": _hook_from_pairs,
    "params.save_checkpoint": _hook_save,
    "params.load_checkpoint": _hook_load,
    "tasks.forward": _hook_forward,
    "tasks.loss_and_grad": _hook_loss_and_grad,
    "landscape.extreme_eigs": _hook_extreme_eigs,
    "evolve.evolve_step": _hook_evolve_step,
    "evolve.run_pso": _hook_run_pso,
}


def _targets(module):
    """(owner, attribute, qualified name, function) for each public function
    and each classmethod of a public class defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{layer}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                if isinstance(member, classmethod) and not attr.startswith("_"):
                    yield obj, attr, f"{layer}.{attr}", member


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "sparsemerge" or n.startswith("sparsemerge.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, object, object]] = []  # (owner, key, original)
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}

    def _wrap(self, fn, qualname: str):
        name_id = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        counters = self.counters
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_end)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                span_start[idx] = start
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap and rebind everything; return references still unwrapped."""
        replacement: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sparsemerge.{layer}")
            for owner, attr, qualname, obj in _targets(module):
                if isinstance(obj, classmethod):
                    wrapped = classmethod(self._wrap(obj.__func__, qualname))
                else:
                    wrapped = self._wrap(obj, qualname)
                replacement[id(obj)] = wrapped
                self._originals[id(obj)] = obj
                self._wrappers[id(wrapped)] = wrapped
                if owner is not module:  # class attribute: one object, shared by all importers
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrapped)
        for owner, key, value, _ in self._references(self._originals):
            self._patches.append((owner, key, value))
            self._set(owner, key, replacement[id(value)])
        return [where for _, _, _, where in self._references(self._originals)]

    def restore(self) -> list[str]:
        """Put every original back; return references still wrapped."""
        for owner, key, original in reversed(self._patches):
            self._set(owner, key, original)
        self._patches.clear()
        leftover = [where for _, _, _, where in self._references(self._wrappers)]
        for layer in LAYERS:
            module = sys.modules[f"sparsemerge.{layer}"]
            for owner, attr, _, obj in _targets(module):
                if owner is not module and id(obj) in self._wrappers:
                    leftover.append(f"{owner.__name__}.{attr}")
        return leftover

    @staticmethod
    def _set(owner, key, value):
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    @staticmethod
    def _references(table: dict[int, object]):
        """(owner, key, value, description) for each module attribute and
        module-level dict entry bound to an object in table."""
        found = []
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if key.startswith("__"):
                    continue
                if table.get(id(value)) is value:
                    found.append((module, key, value, f"{module.__name__}.{key}"))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if table.get(id(v)) is v:
                            found.append((value, k, v, f"{module.__name__}.{key}[{k!r}]"))
        return found

    def save_spans(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def layer_metrics(self, import_s: float) -> dict[str, float]:
        names = [self.names[i] for i in self.span_name]
        parents = self.span_parent
        starts, ends = self.span_start, self.span_end
        own = self_times(parents, starts, ends)
        calls: Counter = Counter(names)
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        for name, s, e, t in zip(names, starts, ends, own):
            self_s[name] += t
            total_s[name] += e - s

        def ancestor(idx: int, target: str) -> int:
            idx = parents[idx]
            while idx >= 0 and names[idx] != target:
                idx = parents[idx]
            return idx

        hvps_per_cell = {i: 0 for i, n in enumerate(names) if n == "landscape.extreme_eigs"}
        grad_evals_in_hvp = 0
        sgd_steps = 0
        for i, name in enumerate(names):
            if name == "landscape.hvp":
                cell = ancestor(i, "landscape.extreme_eigs")
                if cell >= 0:
                    hvps_per_cell[cell] += 1
            elif name == "tasks.loss_and_grad":
                grad_evals_in_hvp += ancestor(i, "landscape.hvp") >= 0
                sgd_steps += parents[i] >= 0 and names[parents[i]] == "tasks.train"
        per_cell = sorted(hvps_per_cell.values())
        c = self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "params.from_pairs.calls": calls["params.from_pairs"],
            "params.from_pairs.self_s": self_s["params.from_pairs"],
            "params.from_pairs.bytes": c["params.from_pairs.bytes"],
            "params.flatten.calls": calls["params.flatten"],
            "params.unflatten.calls": calls["params.unflatten"],
            "params.flat.self_s": self_s["params.flatten"] + self_s["params.unflatten"],
            "params.ckpt.io_s": self_s["params.save_checkpoint"] + self_s["params.load_checkpoint"],
            "params.ckpt.bytes": c["params.ckpt.bytes"],
            "tasks.loss_and_grad.calls": calls["tasks.loss_and_grad"],
            "tasks.loss_and_grad.self_s": self_s["tasks.loss_and_grad"],
            "tasks.forward.calls": calls["tasks.forward"],
            "tasks.forward.self_s": self_s["tasks.forward"],
            "tasks.sgd_steps": sgd_steps,
            "tasks.train.self_s": self_s["tasks.train"],
            "tasks.data.self_s": sum(self_s[n] for n in DATA_FUNCS),
            "tasks.matmul_flops": c["tasks.matmul_flops"],
            "seeding.substream.calls": calls["seeding.substream"],
            "seeding.substream.self_s": self_s["seeding.substream"],
            "landscape.hvp.calls": calls["landscape.hvp"],
            "landscape.hvp.self_s": self_s["landscape.hvp"],
            "landscape.grad_evals_per_hvp": ratio(grad_evals_in_hvp, calls["landscape.hvp"]),
            "landscape.extreme_eigs.calls": calls["landscape.extreme_eigs"],
            "landscape.extreme_eigs.self_s": self_s["landscape.extreme_eigs"],
            "landscape.hvps_per_cell.p50": per_cell[len(per_cell) // 2] if per_cell else 0,
            "landscape.hvps_per_cell.max": per_cell[-1] if per_cell else 0,
            "landscape.converged_cells": c["landscape.converged_cells"],
            "landscape.loss_grid.s": total_s["landscape.loss_grid"],
            "sparsity.collect_stats.calls": calls["sparsity.collect_stats"],
            "sparsity.collect_stats.self_s": self_s["sparsity.collect_stats"],
            "sparsity.collect_stats.per_offspring": ratio(
                calls["sparsity.collect_stats"], c["evolve.offspring"]
            ),
            "sparsity.prune.calls": calls["sparsity.prune"],
            "sparsity.prune.self_s": self_s["sparsity.prune"],
            "sparsity.sparsity_weights.calls": calls["sparsity.sparsity_weights"],
            "merge.merge_models.calls": calls["merge.merge_models"],
            "merge.merge_models.self_s": self_s["merge.merge_models"],
            "merge.baselines.s": total_s["merge.weight_average"] + total_s["merge.task_arithmetic"],
            "evolve.offspring": c["evolve.offspring"],
            "evolve.accepted": c["evolve.accepted"],
            "evolve.accept_ratio": ratio(c["evolve.accepted"], c["evolve.offspring"]),
            "evolve.evolve_step.self_s": self_s["evolve.evolve_step"],
            "evolve.pso.evals": c["evolve.pso.evals"],
            "evolve.run_pso.self_s": self_s["evolve.run_pso"],
            "cli.import_s": import_s,
            "cli.write.s": sum(total_s[n] for n in WRITERS),
        }


def self_times(parents, starts, ends) -> list[float]:
    """Duration of each span minus the part of it that its child spans cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    own = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_end is not None and s <= run_end:
                run_end = max(run_end, e)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        if run_end is not None:
            covered += run_end - run_start
        own[p] -= covered
    return own


def selftest() -> list[str]:
    """Check self_times on synthetic nested spans; return the failures."""
    # 0: root [0, 10]
    # 1: child [1, 4], 2: child [3, 6] overlapping it, 3: child [9, 12] past the root's end
    # 4: grandchild [2, 3] under 1, 5: grandchild [5, 5] (empty) under 2
    parents = [-1, 0, 0, 0, 1, 2]
    starts = [0.0, 1.0, 3.0, 9.0, 2.0, 5.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0, 5.0]
    expected = [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 3.0, 1.0, 0.0]
    got = self_times(parents, starts, ends)
    return [
        f"span {i}: self time {g!r}, expected {w!r}"
        for i, (g, w) in enumerate(zip(got, expected))
        if abs(g - w) > 1e-12
    ]


if __name__ == "__main__":
    problems = selftest()
    for line in problems:
        print(line, file=sys.stderr)
    print("self-time self-test:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
