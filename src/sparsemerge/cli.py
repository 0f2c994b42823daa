"""Single command-line entry point for the whole experiment pipeline.

Every command resolves each setting as CLI flag > --config file > built-in
default, echoes the resolved configuration into the run directory, and draws
all randomness from one master seed. What the inputs fix is read from them,
not from a flag: a checkpoint gives the modulus and the hidden width, and the
config.txt of the run that wrote it gives the train/test partition it trained
on. Every run records the partition it used there. Timestamps are confined
to run.log so that two runs with identical configuration produce
byte-identical artifacts. Bad input, a bad flag included, ends with one
``error:`` line, or one ``invalid config:`` line per violated setting, and
exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import math
import sys
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable

from .evolve import (
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
    write_convexity_csv,
    write_grid_csv,
    write_pgm,
)
from .merge import MergeConfig, RedenseMode, task_arithmetic, weight_average
from .params import (
    CheckpointError,
    ConfigError,
    ParameterSet,
    load_checkpoint,
    require_compatible,
    save_checkpoint,
)
from .seeding import TAG_EIG, derive_seed
from .sparsity import Granularity, SparsityMeasure, SparsitySchedule
from .tasks import (
    ExpertTrainConfig,
    MlpSpec,
    ModularOp,
    ModularTaskSpec,
    accuracy,
    build_experts,
    full_split,
    gen_dataset,
    loss,
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

# Only for commands that load no checkpoint: a checkpoint fixes its modulus.
M_OPT = Opt("--m", int, ModularTaskSpec.modulus, help="modulus of the twin tasks")

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
    Opt("--opt-batch", int, EvolveConfig.opt_batch),
    Opt("--label", str, "sae"),
]

PSO_OPTS = [
    EXPERTS_OPT,
    Opt("--swarm", int, PsoConfig.swarm),
    Opt("--iters", int, PsoConfig.iters),
    Opt("--opt-batch", int, PsoConfig.opt_batch),
    Opt("--label", str, "pso"),
]

BASELINE_OPTS = [
    EXPERTS_OPT,
    Opt("--method", str, None, choices=("weight-average", "task-arithmetic"), required=True),
    Opt("--scale", float, 1.0),
]

SCAN_OPTS = [
    Opt("--ckpt", str, None, help="checkpoint to scan around; its run gives the partition", required=True),
    Opt("--op", str, ModularTaskSpec.op.value, choices=_choices(ModularOp)),
    Opt("--grid", int, GridSpec.resolution),
    Opt("--extent", float, GridSpec.extent, help="each axis runs from -extent to extent"),
]

LANDSCAPE_OPTS = [Opt("--split", str, "train", choices=("train", "test"))]

CONVEXITY_OPTS = [
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
    Opt("--ckpt", str, None, help="checkpoint to score; its run gives the partition", required=True),
    Opt("--label", str, "model"),
]

COMMAND_OPTS: dict[str, list[Opt]] = {
    # A command that loads no checkpoint uses the partition of --seed.
    "gen-data": SHARED_OPTS + [M_OPT] + GEN_DATA_OPTS,
    "train-experts": SHARED_OPTS + [M_OPT] + TRAIN_OPTS,
    "evolve": SHARED_OPTS + EVOLVE_OPTS,
    "pso": SHARED_OPTS + PSO_OPTS,
    # A merge or a score draws no randomness, and the loaded run gives the partition.
    "baseline": [OUT_OPT] + BASELINE_OPTS,
    "eval": [OUT_OPT] + EVAL_OPTS,
    "landscape": SHARED_OPTS + SCAN_OPTS + LANDSCAPE_OPTS,
    "convexity": SHARED_OPTS + SCAN_OPTS + CONVEXITY_OPTS,
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


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors (an unknown flag, a missing command or --runs)
    as ValueError, so that main reports them as one ``error:`` line."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """Flags as raw strings, taken only by their full names as --config keys
    are: resolve_options checks every value, a flag's and a key's alike."""
    parser = _Parser(
        prog="sparsemerge",
        description="sparsity-driven evolutionary model merging experiments",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in COMMAND_OPTS.items():
        sp = sub.add_parser(command, allow_abbrev=False)
        for opt in opts:
            metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
            sp.add_argument(opt.flag, default=None, metavar=metavar, help=opt.help)
        sp.add_argument("--config", help="flat key=value config file; flags override it")
        if command == "report":
            sp.add_argument("--runs", nargs="+", required=True,
                            help="run directories whose summary.csv rows to join")
    return parser


def read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key}")
        values[key] = value.strip()
    return values


def resolve_options(ns: argparse.Namespace) -> dict[str, Any]:
    """Take each setting from the first source that gives it a value: flag,
    --config file, built-in default. An empty value is given, and an error.

    Each source is a key -> raw string mapping plus where it came from, so
    that a bad value is reported against its flag or file.
    """
    opts = COMMAND_OPTS[ns.command]
    sources: list[tuple[dict[str, Any], str]] = [
        ({opt.key: getattr(ns, opt.dest) for opt in opts}, "")
    ]
    cfg: dict[str, Any] = {"runs": ns.runs} if "runs" in ns else {}
    if ns.config is not None:
        file_values = read_config_file(Path(ns.config))
        keys = {opt.key for opt in opts}
        # Every run but report's records split-seed, which build_tasks checks, not sets.
        if "split-seed" in file_values and ns.command != "report":
            cfg["claimed_split_seed"] = (parse_split_seed(ns.config, file_values.pop("split-seed")), ns.config)
        unknown = sorted(set(file_values) - keys)
        if unknown:
            raise ValueError(f"{ns.config}: unknown keys for {ns.command}: {', '.join(unknown)}")
        sources.append((file_values, ns.config))
    for opt in opts:
        found = [(src[opt.key], where) for src, where in sources if src.get(opt.key) is not None]
        if not found:
            if opt.required:
                raise ValueError(f"{opt.flag} is required")
            cfg[opt.dest] = opt.default
            continue
        raw, where = found[0]
        label = f"{opt.key} in {where}" if where else opt.flag
        if not raw.strip():
            raise ValueError(f"{label}: expected a value, got {raw!r}")
        # config.txt holds each value as UTF-8 text on one line, which
        # read_config_file strips: only such a string replays as itself.
        if opt.kind is str and (raw != raw.strip() or not raw.isprintable()):
            raise ValueError(f"{label}: expected printable text without surrounding whitespace, "
                             f"got {raw!r}")
        try:
            value = opt.kind(raw)
        except ValueError:
            raise ValueError(f"{label}: expected {opt.kind.__name__}, got {raw!r}") from None
        # float() also reads "nan", "inf" and overflowing literals such as 1e999.
        # No setting means any of them, and a bound such as > 0 lets inf through.
        if opt.kind is float and not math.isfinite(value):
            raise ValueError(f"{label}: expected a finite float, got {raw!r}")
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
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def log_line(out_dir: Path, message: str) -> None:
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    with open(out_dir / "run.log", "a", encoding="utf-8") as f:
        f.write(f"[{stamp}] {message}\n")


def write_summary(path: Path, rows: list[Row]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(SUMMARY_HEADER)
        for method, a, b, avg in rows:
            writer.writerow([method, repr(a), repr(b), repr(avg)])


def read_summary(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != SUMMARY_HEADER:
        raise ValueError(f"{path} is not a summary file")
    return rows[1:]


def _error_text(exc: Exception) -> str:
    """The ``error:`` line's text: a failed file operation names its file."""
    return f"{exc.filename}: {exc.strerror}" if isinstance(exc, OSError) and exc.filename else str(exc)


class Settings:
    """Builds a command's configs from its options, loads its checkpoints and
    collects every violation; leaving the ``with`` block raises them as one
    ConfigError, one per field, then the first input that failed to load.
    Leaving it without one creates the --out directory: nothing is written
    until every check passes."""

    def __init__(self, cfg: dict[str, Any]):
        self.cfg = cfg
        self.violations: dict[str | None, str] = {}
        if "seed" in cfg:
            self.check(cfg["seed"] >= 0, "seed", f"must be >= 0, got {cfg['seed']}")

    def __enter__(self) -> "Settings":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            return
        if self.violations:
            raise ConfigError(sorted(self.violations.items(), key=lambda item: item[0] is None))
        Path(self.cfg["out"]).mkdir(parents=True, exist_ok=True)

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
            self.check(False, None, _error_text(exc))
        return None


def build_tasks(s: Settings, m: int | None, split_seed: int | None) -> tuple[ModularTaskSpec | None, ...]:
    """The task of --op, or both tasks where the command has no --op, modulo
    ``m`` and partitioned by ``split_seed``, which the run's config.txt records.
    Each task is None where ``m`` or ``split_seed`` is None: the input that
    gives it did not load. A split-seed key in --config must name this one."""
    claimed, path = s.cfg.pop("claimed_split_seed", (None, None))
    s.check(claimed is None or split_seed is None or claimed == split_seed, None,
            f"{path}: split-seed={claimed} is not the partition this command uses, split-seed={split_seed}")
    s.cfg["split_seed"] = split_seed
    ops = [{}] if "op" in s.cfg else [{"op": op} for op in ModularOp]
    if m is None or split_seed is None:
        return tuple(None for _ in ops)
    return tuple(s.build(ModularTaskSpec, modulus=m, split_seed=split_seed, **op) for op in ops)


def check_draw(s: Settings, field: str, spec: ModularTaskSpec | None, which: str, low: int = 1) -> int | None:
    """Option ``field`` draws that many pairs from the ``which`` pool, so it must be
    in low..pool size; returns the size. With spec None (no task: an input did not
    load, or --m is bad) only the lower bound is checked."""
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


def load_model(path) -> ParameterSet:
    """Load a checkpoint and check that it is an MLP for the twin tasks (see MlpSpec.of)."""
    try:
        params = load_checkpoint(path)
        MlpSpec.of(params)
    except (CheckpointError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return params


def recorded_split_seed(run) -> int:
    """The split seed that run directory ``run``'s config.txt records: the
    partition the models the run wrote trained on, or were scored on."""
    meta = Path(run) / "config.txt"
    return parse_split_seed(meta, read_config_file(meta).get("split-seed"))


def parse_split_seed(path, raw: str | None) -> int:
    """The split-seed value ``raw`` that the config file at ``path`` holds, as an int >= 0."""
    if raw is None:
        raise ValueError(f"{path} has no split-seed, so the run's partition is unknown")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{path}: split-seed: expected an int >= 0, got {raw!r}")
    return int(raw)


def expert_paths(run) -> list[Path]:
    return [Path(run) / f"{name}.ckpt" for name in EXPERT_NAMES]


def load_run(s: Settings, paths) -> tuple[tuple[ParameterSet | None, ...], tuple[ModularTaskSpec | None, ...]]:
    """The models at ``paths``, checkpoints of one run directory, and their
    tasks: modulo their modulus, on the partition the run's config.txt records.
    A model that did not load is None, and all are None where their layouts
    differ. --out may not be the run, whose records it would replace."""
    run = Path(paths[0]).parent
    s.check(Path(s.cfg["out"]).resolve() != run.resolve(), "out",
            f"must not be {run}, the run this command reads")
    models = tuple(s.load(load_model, path) for path in paths)
    if None not in models:
        try:
            require_compatible(*models)
        except ValueError as exc:
            s.check(False, None, f"{run}: {exc}")
            models = (None,) * len(paths)
    m = None if None in models else MlpSpec.of(models[0]).modulus
    return models, build_tasks(s, m, s.load(recorded_split_seed, run))


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
    started = time.time()
    rows, lines = HANDLERS[command](cfg, out_dir)
    if rows:
        write_summary(out_dir / "summary.csv", rows)
    if command != "report":
        echo_config(out_dir, cfg)
        log_line(out_dir, f"{command} finished in {time.time() - started:.1f}s")
    # The files are written: a character of --label that stdout cannot encode
    # (any non-ASCII one under the C locale) is escaped, not an error.
    text = "\n".join(lines)
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding:
        text = text.encode(encoding, "backslashreplace").decode(encoding)
    print(text)
    return 0


# ---------------------------------------------------------------------------
# Commands: each takes the resolved settings and the run directory, and
# returns (summary rows, stdout lines).
# ---------------------------------------------------------------------------


def cmd_gen_data(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        (spec,) = build_tasks(s, cfg["m"], max(cfg["seed"], 0))  # a negative --seed is named once
        pool = check_draw(s, "n", spec, cfg["which"], low=0)
    pairs = sample_pairs(spec, cfg["which"], cfg["n"] or pool, cfg["seed"])
    path = out_dir / f"{cfg['op']}_{cfg['which']}.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["a", "b", "label"])
        for a, b in pairs:
            writer.writerow([int(a), int(b), spec.label(int(a), int(b))])
    return [], [f"wrote {path}"]


def cmd_train_experts(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        specs = build_tasks(s, cfg["m"], max(cfg["seed"], 0))  # a negative --seed is named once
        net = s.build(MlpSpec)
        recipe = s.build(ExpertTrainConfig)
    models = build_experts(specs, cfg["seed"], net.hidden, recipe)
    # Scored first: a model that cannot be scored writes nothing.
    rows = [(name, *evaluate_model(model, specs)) for name, model in zip(EXPERT_NAMES, models)]
    for name, model in zip(EXPERT_NAMES, models):
        save_checkpoint(model, out_dir / f"{name}.ckpt")
    return rows, [score_line(*row) for row in rows]


def cmd_evolve(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        experts, specs = load_run(s, expert_paths(cfg["experts"]))
        evolve_cfg = s.build(EvolveConfig, schedule=s.build(SparsitySchedule),
                             merge_cfg=s.build(MergeConfig), tasks=specs)
        check_draw(s, "opt_batch", specs[0], "opt")
    _, expert_add, expert_sub = experts
    trace = out_dir / "trace.csv"
    try:
        with open(trace, "w", newline="", encoding="utf-8") as f:
            best = run_sae([expert_add, expert_sub], evolve_cfg, functools.partial(write_trace, f))
        row = (cfg["label"], *evaluate_model(best.params, specs))
    except BaseException:
        trace.unlink(missing_ok=True)  # a failed command writes nothing
        raise
    save_checkpoint(best.params, out_dir / "best.ckpt")
    return [row], [
        f"{row[0]}: best id={best.id} total_score={best.total_score:.4f} "
        f"task_a={row[1]:.4f} task_b={row[2]:.4f} avg={row[3]:.4f}"
    ]


def cmd_pso(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        experts, specs = load_run(s, expert_paths(cfg["experts"]))
        pso_cfg = s.build(PsoConfig)
        check_draw(s, "opt_batch", specs[0], "opt")
    _, expert_add, expert_sub = experts
    best, trace = run_pso([expert_add, expert_sub], pso_cfg, specs)
    # Scored first: a merge that cannot be scored writes nothing.
    row = (cfg["label"], *evaluate_model(best, specs))
    write_pso_trace(out_dir / "trace.csv", trace)
    save_checkpoint(best, out_dir / "best.ckpt")
    return [row], [score_line(*row)]


def cmd_baseline(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        s.check(cfg["method"] == "task-arithmetic" or cfg["scale"] == 1.0, "scale",
                f"applies only to --method task-arithmetic, got {cfg['scale']}")
        experts, specs = load_run(s, expert_paths(cfg["experts"]))
    base, expert_add, expert_sub = experts
    if cfg["method"] == "weight-average":
        merged = weight_average([expert_add, expert_sub])
    else:
        merged = task_arithmetic(base, [expert_add, expert_sub], cfg["scale"])
    # Scored first: a merge that cannot be scored writes nothing.
    row = (cfg["method"], *evaluate_model(merged, specs))
    save_checkpoint(merged, out_dir / "merged.ckpt")
    return [row], [score_line(*row)]


def cmd_eval(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        (params,), specs = load_run(s, [cfg["ckpt"]])
    row = (cfg["label"], *evaluate_model(params, specs))
    return [row], [score_line(*row)]


def cmd_landscape(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        (params,), (spec,) = load_run(s, [cfg["ckpt"]])
        grid = s.build(GridSpec)
    data = full_split(spec, cfg["split"])
    losses = loss_grid(params, grid, data, cfg["seed"])
    write_grid_csv(out_dir / "landscape.csv", grid, losses)
    write_pgm(out_dir / "landscape.pgm", losses)
    # The checkpoint itself: an even grid has no cell at alpha = beta = 0.
    return [], [
        f"landscape grid {grid.resolution}x{grid.resolution}: "
        f"min={losses.min():.4f} center={loss(params, data):.4f}"
    ]


def cmd_convexity(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        (params,), (spec,) = load_run(s, [cfg["ckpt"]])
        grid = s.build(GridSpec)
        eig_cfg = s.build(EigConfig)
        check_draw(s, "hess_batch", spec, "opt")
    batch = gen_dataset(spec, "opt", cfg["hess_batch"], derive_seed(cfg["seed"], TAG_EIG))
    result = convexity_grid(params, grid, batch, eig_cfg, cfg["seed"])
    write_convexity_csv(out_dir / "convexity.csv", grid, result)
    write_pgm(out_dir / "convexity.pgm", result.convexity)
    return [], [
        f"convexity grid {grid.resolution}x{grid.resolution}: "
        f"mean={result.convexity.mean():.4f} "
        f"converged={int(result.converged.sum())}/{result.converged.size} "
        f"steps={int(result.steps.sum())} max_steps={int(result.steps.max())}"
    ]


def cmd_report(cfg: dict[str, Any], out_dir: Path) -> Outcome:
    with Settings(cfg) as s:
        summaries = [s.load(read_summary, Path(run) / "summary.csv") for run in cfg["runs"]]
    rows = [row for summary in summaries for row in summary]
    path = out_dir / "report.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
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
    try:
        ns = build_parser().parse_args(argv)
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
    except (CheckpointError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
