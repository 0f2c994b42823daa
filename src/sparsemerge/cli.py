"""Single command-line entry point for the whole experiment pipeline.

Every command resolves each setting as CLI flag > --config file > the
experts run's config.txt (task settings only) > built-in default, echoes the
resolved configuration into the run directory, and draws all randomness from
one master seed. Timestamps are confined to run.log so that two runs with
identical configuration produce byte-identical artifacts. Bad input ends with
one ``error:`` line, or one ``invalid config:`` line per violated setting,
and exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable

from .evolve import (
    AnnealTarget,
    EvolveConfig,
    PsoConfig,
    run_pso,
    run_sae,
    write_pso_trace,
    write_trace,
)
from .landscape import (
    EigConfig,
    GridSpec,
    convexity_grid,
    loss_grid,
    random_directions,
    write_convexity_csv,
    write_grid_csv,
    write_pgm,
)
from .merge import MergeConfig, RedenseMode, task_arithmetic, weight_average
from .params import CheckpointError, ConfigError, ParameterSet, load_checkpoint, save_checkpoint
from .seeding import TAG_EIG, derive_seed
from .sparsity import Granularity, SparsityMeasure, SparsitySchedule
from .tasks import (
    LAYER_NAMES,
    ExpertTrainConfig,
    MlpSpec,
    ModularOp,
    ModularTaskSpec,
    accuracy,
    build_experts,
    full_split,
    gen_dataset,
    sample_pairs,
)

SUMMARY_HEADER = ["method", "task_a", "task_b", "avg"]
EXPERT_NAMES = ("base", "expert_add", "expert_sub")

Row = tuple[str, float, float, float]
Outcome = tuple[list[Row], list[str]]  # a command's summary rows and stdout lines


@dataclass(frozen=True)
class Opt:
    flag: str
    kind: Callable[[str], Any]
    default: Any
    choices: tuple[str, ...] | None = None
    help: str = ""
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    @property
    def key(self) -> str:
        return self.flag.lstrip("-")


def _choices(enum: type[Enum]) -> tuple[str, ...]:
    return tuple(member.value for member in enum)


# Defaults and choices come from the config fields each option sets.
OUT_OPT = Opt("--out", str, None, help="output directory", required=True)

SHARED_OPTS = [
    Opt("--seed", int, 0, help="master seed; all randomness derives from it"),
    OUT_OPT,
]

M_OPT = Opt("--m", int, ModularTaskSpec.modulus, help="modulus of the twin tasks")

# The only settings an experts run's config.txt passes on to the runs that
# load its checkpoints.
TASK_OPTS = [
    M_OPT,
    Opt("--split-seed", int, None, help="train/test partition seed (defaults to --seed)"),
]

TRAIN_OPTS = [
    Opt("--hidden", int, MlpSpec.hidden, help="hidden width of the network"),
    Opt("--base-epochs", int, ExpertTrainConfig.base_epochs),
    Opt("--expert-epochs", int, ExpertTrainConfig.expert_epochs),
    Opt("--lr", float, ExpertTrainConfig.learning_rate),
    Opt("--batch-size", int, ExpertTrainConfig.batch_size),
    Opt("--weight-decay", float, ExpertTrainConfig.weight_decay),
]

EXPERTS_OPT = Opt("--experts", str, None, help="directory produced by train-experts", required=True)

EVOLVE_OPTS = [
    EXPERTS_OPT,
    Opt("--pop", int, EvolveConfig.capacity),
    Opt("--steps", int, SparsitySchedule.total_steps),
    Opt("--s-min", float, SparsitySchedule.s_min),
    Opt("--s-max", float, SparsitySchedule.s_max),
    Opt("--t0", int, SparsitySchedule.t0),
    Opt("--t-mult", int, SparsitySchedule.t_mult),
    Opt("--measure", str, MergeConfig.measure.value, choices=_choices(SparsityMeasure)),
    Opt("--granularity", str, MergeConfig.granularity.value, choices=_choices(Granularity)),
    Opt("--redense", str, MergeConfig.redense_mode.value, choices=_choices(RedenseMode)),
    Opt("--gamma", float, MergeConfig.gamma),
    Opt("--anneal", str, EvolveConfig.anneal.value, choices=_choices(AnnealTarget)),
    Opt("--opt-batch", int, EvolveConfig.opt_batch),
    Opt("--label", str, "sae"),
]

PSO_OPTS = [
    EXPERTS_OPT,
    Opt("--swarm", int, PsoConfig.swarm),
    Opt("--iters", int, PsoConfig.iters),
    Opt("--w", float, PsoConfig.w),
    Opt("--c1", float, PsoConfig.c1),
    Opt("--c2", float, PsoConfig.c2),
    Opt("--vmax", float, PsoConfig.vmax),
    Opt("--opt-batch", int, PsoConfig.opt_batch),
    Opt("--label", str, "pso"),
]

BASELINE_OPTS = [
    EXPERTS_OPT,
    Opt("--method", str, None, choices=("weight-average", "task-arithmetic"), required=True),
    Opt("--scale", float, 1.0),
]

SCAN_OPTS = [
    Opt("--ckpt", str, None, help="checkpoint to scan around", required=True),
    Opt("--op", str, ModularTaskSpec.op.value, choices=_choices(ModularOp)),
    Opt("--grid", int, GridSpec.resolution),
    Opt("--alpha-max", float, GridSpec.alpha_max),
    Opt("--beta-max", float, GridSpec.beta_max),
]

LANDSCAPE_OPTS = [Opt("--split", str, "train", choices=("train", "test"))]

CONVEXITY_OPTS = [
    Opt("--eps", float, GridSpec.eps),
    Opt("--eig-iters", int, EigConfig.iters),
    Opt("--eig-tol", float, EigConfig.tol),
    Opt("--hess-batch", int, 64),
]

GEN_DATA_OPTS = [
    Opt("--op", str, ModularTaskSpec.op.value, choices=_choices(ModularOp)),
    Opt("--which", str, "train", choices=("train", "opt", "test")),
    Opt("--n", int, 0, help="sample size; 0 means the whole pool"),
]

EVAL_OPTS = [
    Opt("--ckpt", str, None, required=True),
    Opt("--label", str, "model"),
]

COMMAND_OPTS: dict[str, list[Opt]] = {
    "gen-data": SHARED_OPTS + TASK_OPTS + GEN_DATA_OPTS,
    # Experts train on the partition of --seed, which their config.txt records.
    "train-experts": SHARED_OPTS + [M_OPT] + TRAIN_OPTS,
    "evolve": SHARED_OPTS + TASK_OPTS + EVOLVE_OPTS,
    "pso": SHARED_OPTS + TASK_OPTS + PSO_OPTS,
    "baseline": SHARED_OPTS + TASK_OPTS + BASELINE_OPTS,
    "eval": SHARED_OPTS + TASK_OPTS + EVAL_OPTS,
    "landscape": SHARED_OPTS + TASK_OPTS + SCAN_OPTS + LANDSCAPE_OPTS,
    "convexity": SHARED_OPTS + TASK_OPTS + SCAN_OPTS + CONVEXITY_OPTS,
    "report": [OUT_OPT],
}

# Keys that never enter the echoed config: they locate the run, not its science.
NON_SCIENCE_KEYS = {"out"}

# Config fields set by an option of another name. A field takes the option of its
# own name where the command has one (pso --iters), else its alias (convexity --eig-iters).
FIELD_ALIASES = {
    "capacity": "pop", "total_steps": "steps", "learning_rate": "lr", "modulus": "m",
    "resolution": "grid", "redense_mode": "redense", "iters": "eig_iters", "tol": "eig_tol",
}


def option_for(field: str, options) -> str:
    """The option (dest name) that sets config ``field`` among ``options``."""
    return field if field in options else FIELD_ALIASES.get(field, field)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsemerge",
        description="sparsity-driven evolutionary model merging experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in COMMAND_OPTS.items():
        sp = sub.add_parser(command)
        for opt in opts:
            sp.add_argument(opt.flag, default=None, choices=opt.choices, help=opt.help)
        sp.add_argument("--config", help="flat key=value config file; flags override it")
        if command == "report":
            sp.add_argument("--runs", nargs="+", required=True,
                            help="run directories whose summary.csv rows to join")
    return parser


def read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def resolve_options(ns: argparse.Namespace) -> dict[str, Any]:
    """Take each setting from the first source that sets it: flag, --config
    file, the --experts run's config.txt (TASK_OPTS only), built-in default.

    Each source is a key -> raw string mapping plus where it came from, so
    that a bad value is reported against its flag or file.
    """
    opts = COMMAND_OPTS[ns.command]
    sources: list[tuple[dict[str, Any], str]] = [
        ({opt.key: getattr(ns, opt.dest) for opt in opts}, "")
    ]
    if ns.config:
        file_values = read_config_file(Path(ns.config))
        unknown = sorted(set(file_values) - {opt.key for opt in opts})
        if unknown:
            raise ValueError(f"{ns.config}: unknown keys for {ns.command}: {', '.join(unknown)}")
        sources.append((file_values, ns.config))
    experts = next((src["experts"] for src, _ in sources if src.get("experts")), None)
    if experts and (Path(experts) / "config.txt").is_file():
        meta_path = Path(experts) / "config.txt"
        meta = read_config_file(meta_path)
        sources.append(({opt.key: meta.get(opt.key) for opt in TASK_OPTS}, str(meta_path)))
    cfg: dict[str, Any] = {"runs": ns.runs} if "runs" in ns else {}
    for opt in opts:
        found = [(src[opt.key], where) for src, where in sources if src.get(opt.key)]
        if not found:
            if opt.required:
                raise ValueError(f"{opt.flag} is required")
            cfg[opt.dest] = opt.default
            continue
        raw, where = found[0]
        label = f"{opt.key} in {where}" if where else opt.flag
        try:
            value = opt.kind(raw)
        except ValueError:
            raise ValueError(f"{label}: expected {opt.kind.__name__}, got {raw!r}") from None
        if opt.choices and value not in opt.choices:
            raise ValueError(f"{label}: expected one of {', '.join(opt.choices)}, got {raw!r}")
        cfg[opt.dest] = value
    return cfg


def echo_config(out_dir: Path, values: dict[str, Any]) -> None:
    lines = []
    for key in sorted(values):
        if key in NON_SCIENCE_KEYS or values[key] is None:
            continue
        value = values[key]
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key.replace('_', '-')}={rendered}")
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n")


def log_line(out_dir: Path, message: str) -> None:
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    with open(out_dir / "run.log", "a") as f:
        f.write(f"[{stamp}] {message}\n")


def write_summary(path: Path, rows: list[Row]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SUMMARY_HEADER)
        for method, a, b, avg in rows:
            writer.writerow([method, repr(a), repr(b), repr(avg)])


def read_summary(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != SUMMARY_HEADER:
        raise ValueError(f"{path} is not a summary file")
    return rows[1:]


class Settings:
    """Builds a command's configs from its options, loads its checkpoints and
    collects every violation; leaving the ``with`` block raises them as one
    ConfigError, one per field, plus the first input that failed to load."""

    def __init__(self, cfg: dict[str, Any]):
        self.cfg = cfg
        self.violations: dict[str | None, str] = {}

    def __enter__(self) -> "Settings":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is None and self.violations:
            raise ConfigError(self.violations.items())

    def check(self, ok: bool, field: str, reason: str) -> None:
        if not ok:
            self.violations.setdefault(field, reason)

    def build(self, cls, **given):
        """``cls`` with each field not ``given`` taken from its option, if the command
        has one (an enum as ``type(default)(value)``); None if the result is invalid."""
        for f in dataclasses.fields(cls):
            key = option_for(f.name, self.cfg)
            if f.name not in given and key in self.cfg:
                value = self.cfg[key]
                given[f.name] = type(f.default)(value) if isinstance(f.default, Enum) else value
        return self.load(cls, **given)

    def load(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, or None with its failure recorded: a ConfigError
        per field, a bad or missing input file under field None (an ``error:`` line)."""
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            for field, reason in exc.violations:
                self.check(False, field, reason)
        except (CheckpointError, OSError, ValueError) as exc:
            self.check(False, None, str(exc))
        return None


def build_tasks(s: Settings) -> tuple[ModularTaskSpec | None, ...]:
    """The task of --op, or both tasks where the command has no --op, modulo
    --m and partitioned by --split-seed (default: --seed)."""
    seed, split_seed = s.cfg["seed"], s.cfg.get("split_seed")
    s.check(seed >= 0, "seed", f"must be >= 0, got {seed}")
    if split_seed is None:
        split_seed = max(seed, 0)  # a negative --seed is named once, as --seed
    ops = [{}] if "op" in s.cfg else [{"op": op} for op in ModularOp]
    return tuple(s.build(ModularTaskSpec, split_seed=split_seed, **op) for op in ops)


def check_draw(s: Settings, field: str, spec: ModularTaskSpec | None, which: str, low: int = 1) -> int | None:
    """Option ``field`` draws that many pairs from the ``which`` pool, so it must be
    in low..pool size; returns the size. Pass spec None where a checkpoint does not
    fit --m: that is the error then, not the pool size --m gives."""
    n, pool = s.cfg[field], spec.pool_size(which) if spec else None
    s.check(n >= low, field, f"must be >= {low}, got {n}")
    s.check(pool is None or n <= pool, field,
            f"must be <= {pool}, the size of the pool it draws from, got {n}")
    return pool


def evaluate_model(
    params: ParameterSet, specs: tuple[ModularTaskSpec, ...]
) -> tuple[float, float, float]:
    acc_a = accuracy(params, full_split(specs[0], "test"))
    acc_b = accuracy(params, full_split(specs[1], "test"))
    return acc_a, acc_b, (acc_a + acc_b) / 2.0


def score_line(method: str, a: float, b: float, avg: float) -> str:
    return f"{method}: task_a={a:.4f} task_b={b:.4f} avg={avg:.4f}"


def load_model(path, m: int) -> ParameterSet:
    """Load a checkpoint and check that it is the MLP for modulus m.

    The hidden width is read from fc1_w; every layer must then have the
    shape MlpSpec(m, hidden) gives it.
    """
    try:
        params = load_checkpoint(path)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if params.names != LAYER_NAMES:
        raise ValueError(f"{path}: layers {', '.join(params.names)}, expected {', '.join(LAYER_NAMES)}")
    spec = MlpSpec(m, params["fc1_w"].shape[-1])
    wrong = [
        f"{name} is {list(arr.shape)}, expected {list(shape)}"
        for (name, arr), shape in zip(params.items(), spec.shapes)
        if arr.shape != shape
    ]
    if wrong:
        raise ValueError(f"{path} does not fit widths {list(spec.widths)} (m={m}): {'; '.join(wrong)}")
    return params


def load_experts(cfg: dict[str, Any]) -> tuple[ParameterSet, ...]:
    """(base, expert_add, expert_sub) of the --experts run."""
    return tuple(load_model(Path(cfg["experts"]) / f"{name}.ckpt", cfg["m"]) for name in EXPERT_NAMES)


def run_command(command: str, cfg: dict[str, Any]) -> int:
    """Run one command in its --out directory.

    The handler writes the command's own artifacts and returns its summary
    rows and stdout lines; this then writes summary.csv (if there are rows),
    config.txt and run.log. report only joins earlier runs, so it writes
    neither config.txt nor run.log.
    """
    out_dir = Path(cfg["out"])
    if out_dir.exists() and not out_dir.is_dir():
        raise ValueError(f"--out {out_dir} exists and is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    rows, lines = HANDLERS[command](cfg, out_dir)
    if rows:
        write_summary(out_dir / "summary.csv", rows)
    if command != "report":
        echo_config(out_dir, cfg)
        log_line(out_dir, f"{command} finished in {time.time() - started:.1f}s")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Commands: each takes the resolved settings and the run directory, and
# returns (summary rows, stdout lines).
# ---------------------------------------------------------------------------


def cmd_gen_data(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        (spec,) = build_tasks(s)
        pool = check_draw(s, "n", spec, cfg["which"], low=0)
    pairs = sample_pairs(spec, cfg["which"], cfg["n"] or pool, cfg["seed"])
    path = out_dir / f"{cfg['op']}_{cfg['which']}.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["a", "b", "label"])
        for a, b in pairs:
            writer.writerow([int(a), int(b), spec.label(int(a), int(b))])
    return [], [f"wrote {path}"]


def cmd_train_experts(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        specs = build_tasks(s)
        net = s.build(MlpSpec)
        recipe = s.build(ExpertTrainConfig)
    cfg["split_seed"] = cfg["seed"]  # passed on to runs on these experts
    models = build_experts(cfg["seed"], net.modulus, net.hidden, recipe)
    rows = []
    for name, model in zip(EXPERT_NAMES, models):
        save_checkpoint(model, out_dir / f"{name}.ckpt")
        rows.append((name, *evaluate_model(model, specs)))
    return rows, [score_line(*row) for row in rows]


def cmd_evolve(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        specs = build_tasks(s)
        evolve_cfg = s.build(EvolveConfig, schedule=s.build(SparsitySchedule),
                             merge_cfg=s.build(MergeConfig), tasks=specs)
        experts = s.load(load_experts, cfg)
        check_draw(s, "opt_batch", specs[0] if experts else None, "opt")
    _, expert_add, expert_sub = experts
    best, records = run_sae([expert_add, expert_sub], evolve_cfg)
    write_trace(out_dir / "trace.csv", records)
    save_checkpoint(best.params, out_dir / "best.ckpt")
    row = (cfg["label"], *evaluate_model(best.params, specs))
    return [row], [
        f"{row[0]}: best id={best.id} total_score={best.total_score:.4f} "
        f"task_a={row[1]:.4f} task_b={row[2]:.4f} avg={row[3]:.4f}"
    ]


def cmd_pso(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        specs = build_tasks(s)
        pso_cfg = s.build(PsoConfig)
        experts = s.load(load_experts, cfg)
        check_draw(s, "opt_batch", specs[0] if experts else None, "opt")
    _, expert_add, expert_sub = experts
    best, trace = run_pso([expert_add, expert_sub], pso_cfg, specs)
    write_pso_trace(out_dir / "trace.csv", trace)
    save_checkpoint(best, out_dir / "best.ckpt")
    row = (cfg["label"], *evaluate_model(best, specs))
    return [row], [score_line(*row)]


def cmd_baseline(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    if cfg["method"] == "weight-average" and cfg["scale"] != 1.0:
        raise ValueError("--scale applies only to --method task-arithmetic")
    with Settings(cfg) as s:
        specs = build_tasks(s)
        experts = s.load(load_experts, cfg)
    base, expert_add, expert_sub = experts
    if cfg["method"] == "weight-average":
        merged = weight_average([expert_add, expert_sub])
    else:
        merged = task_arithmetic(base, [expert_add, expert_sub], cfg["scale"])
    save_checkpoint(merged, out_dir / "merged.ckpt")
    row = (cfg["method"], *evaluate_model(merged, specs))
    return [row], [score_line(*row)]


def cmd_eval(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        specs = build_tasks(s)
        params = s.load(load_model, cfg["ckpt"], cfg["m"])
    row = (cfg["label"], *evaluate_model(params, specs))
    return [row], [score_line(*row)]


def cmd_landscape(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        (spec,) = build_tasks(s)
        grid = s.build(GridSpec)
        params = s.load(load_model, cfg["ckpt"], cfg["m"])
    losses = loss_grid(params, random_directions(params, cfg["seed"]), grid, full_split(spec, cfg["split"]))
    write_grid_csv(out_dir / "landscape.csv", grid, losses)
    write_pgm(out_dir / "landscape.pgm", losses)
    center = grid.resolution // 2
    return [], [
        f"landscape grid {grid.resolution}x{grid.resolution}: "
        f"min={losses.min():.4f} center={losses[center, center]:.4f}"
    ]


def cmd_convexity(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        (spec,) = build_tasks(s)
        grid = s.build(GridSpec)
        eig_cfg = s.build(EigConfig)
        params = s.load(load_model, cfg["ckpt"], cfg["m"])
        check_draw(s, "hess_batch", spec if params else None, "opt")
    batch = gen_dataset(spec, "opt", cfg["hess_batch"], derive_seed(cfg["seed"], TAG_EIG))
    result = convexity_grid(params, random_directions(params, cfg["seed"]), grid, batch, eig_cfg)
    write_convexity_csv(out_dir / "convexity.csv", grid, result)
    write_pgm(out_dir / "convexity.pgm", result.convexity)
    return [], [
        f"convexity grid {grid.resolution}x{grid.resolution}: "
        f"mean={result.convexity.mean():.4f} "
        f"converged={int(result.converged.sum())}/{result.converged.size}"
    ]


def cmd_report(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    rows: list[list[str]] = []
    for run in cfg["runs"]:
        rows.extend(read_summary(Path(run) / "summary.csv"))
    path = out_dir / "report.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(rows)
    return [], [f"report with {len(rows)} rows -> {path}"]


HANDLERS: dict[str, Callable[[dict[str, Any], Path], Outcome]] = {
    "gen-data": cmd_gen_data,
    "train-experts": cmd_train_experts,
    "evolve": cmd_evolve,
    "pso": cmd_pso,
    "baseline": cmd_baseline,
    "eval": cmd_eval,
    "landscape": cmd_landscape,
    "convexity": cmd_convexity,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return run_command(ns.command, resolve_options(ns))
    except ConfigError as exc:
        options = {opt.dest for opt in COMMAND_OPTS[ns.command]}
        for field, reason in exc.violations:
            if field is None:
                print(f"error: {reason}", file=sys.stderr)
            else:
                flag = "--" + option_for(field, options).replace("_", "-")
                print(f"invalid config: {flag}: {reason}", file=sys.stderr)
        return 2
    except (CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
