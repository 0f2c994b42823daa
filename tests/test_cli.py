import csv
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_pset
from sparsemerge import cli
from sparsemerge.cli import COMMAND_OPTS, main, read_config_file
from sparsemerge.params import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint, save_checkpoint

FAST_TRAIN = ["--base-epochs", "3", "--expert-epochs", "40", "--seed", "0"]


@pytest.fixture(scope="module")
def fast_experts_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fast_experts")
    assert main(["train-experts", *FAST_TRAIN, "--out", str(out)]) == 0
    return out


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def tree_bytes(run_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(run_dir.iterdir())
        if p.name != "run.log"
    }


def test_gen_data_labels(tmp_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--m", "13", "--op", "sub", "--which", "train",
                 "--n", "20", "--seed", "3", "--out", str(out)]) == 0
    rows = read_rows(out / "sub_train.csv")
    assert rows[0] == ["a", "b", "label"]
    assert len(rows) == 21
    for a, b, label in rows[1:]:
        assert int(label) == (int(a) - int(b)) % 13


def test_train_experts_outputs(fast_experts_dir):
    for name in ("base.ckpt", "expert_add.ckpt", "expert_sub.ckpt", "summary.csv", "config.txt"):
        assert (fast_experts_dir / name).exists()
    rows = read_rows(fast_experts_dir / "summary.csv")
    assert rows[0] == ["method", "task_a", "task_b", "avg"]
    assert [r[0] for r in rows[1:]] == ["base", "expert_add", "expert_sub"]
    echoed = read_config_file(fast_experts_dir / "config.txt")
    assert echoed["seed"] == "0"
    assert echoed["m"] == "13"
    assert "out" not in echoed


def test_baseline_weight_average(fast_experts_dir, tmp_path):
    out = tmp_path / "wa"
    assert main(["baseline", "--method", "weight-average",
                 "--experts", str(fast_experts_dir), "--out", str(out)]) == 0
    rows = read_rows(out / "summary.csv")
    assert rows[1][0] == "weight-average"
    assert 0.0 <= float(rows[1][3]) <= 1.0
    assert (out / "merged.ckpt").exists()


def test_baseline_task_arithmetic_scale_zero_equals_base(fast_experts_dir, tmp_path):
    out = tmp_path / "ta0"
    assert main(["baseline", "--method", "task-arithmetic", "--scale", "0.0",
                 "--experts", str(fast_experts_dir), "--out", str(out)]) == 0
    merged = load_checkpoint(out / "merged.ckpt")
    base = load_checkpoint(fast_experts_dir / "base.ckpt")
    for name, arr in base.items():
        assert np.array_equal(merged[name], arr)


def test_eval_checkpoint(fast_experts_dir, tmp_path):
    out = tmp_path / "eval"
    assert main(["eval", "--ckpt", str(fast_experts_dir / "expert_add.ckpt"),
                 "--label", "expert_add", "--split-seed", "0", "--out", str(out)]) == 0
    rows = read_rows(out / "summary.csv")
    assert rows[1][0] == "expert_add"


def test_evolve_run_and_determinism(fast_experts_dir, tmp_path):
    args = ["evolve", "--experts", str(fast_experts_dir), "--steps", "4", "--seed", "7"]
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(run_a)]) == 0
    assert main([*args, "--out", str(run_b)]) == 0
    for name in ("trace.csv", "best.ckpt", "summary.csv", "config.txt"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()
    header = read_rows(run_a / "trace.csv")[0]
    assert header == ["step", "member_id", "perf_task_a", "perf_task_b",
                      "perf_mean", "zero_frac", "total_score", "event"]


def test_pso_run_and_determinism(fast_experts_dir, tmp_path):
    args = ["pso", "--experts", str(fast_experts_dir), "--iters", "4", "--seed", "5"]
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(run_a)]) == 0
    assert main([*args, "--out", str(run_b)]) == 0
    assert tree_bytes(run_a) == tree_bytes(run_b)
    rows = read_rows(run_a / "trace.csv")
    assert rows[0] == ["iteration", "gbest_fitness", "iter_best", "iter_mean"]
    assert len(rows) == 5


def test_report_joins_rows(fast_experts_dir, tmp_path):
    runs = []
    for label, extra in [("sae", ["evolve", "--steps", "2"]), ("pso", ["pso", "--iters", "2"])]:
        out = tmp_path / label
        assert main([extra[0], *extra[1:], "--experts", str(fast_experts_dir),
                     "--out", str(out), "--seed", "1"]) == 0
        runs.append(str(out))
    for method in ("weight-average", "task-arithmetic"):
        out = tmp_path / method
        assert main(["baseline", "--method", method,
                     "--experts", str(fast_experts_dir), "--out", str(out)]) == 0
        runs.append(str(out))
    report_dir = tmp_path / "report"
    assert main(["report", "--runs", *runs, "--out", str(report_dir)]) == 0
    rows = read_rows(report_dir / "report.csv")
    assert rows[0] == ["method", "task_a", "task_b", "avg"]
    assert [r[0] for r in rows[1:]] == ["sae", "pso", "weight-average", "task-arithmetic"]
    first = (report_dir / "report.csv").read_bytes()
    assert main(["report", "--runs", *runs, "--out", str(report_dir)]) == 0
    assert (report_dir / "report.csv").read_bytes() == first


def test_config_file_and_flag_override(fast_experts_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=3\ns-max=0.5\ngamma=0.3\n")
    out = tmp_path / "run"
    assert main(["evolve", "--experts", str(fast_experts_dir), "--config", str(cfg),
                 "--gamma", "0.1", "--out", str(out), "--seed", "2"]) == 0
    echoed = read_config_file(out / "config.txt")
    assert echoed["steps"] == "3"          # from file
    assert echoed["s-max"] == "0.5"        # from file
    assert echoed["gamma"] == "0.1"        # flag overrides file
    assert echoed["s-min"] == "0.1"        # default


def test_unknown_config_keys_rejected(fast_experts_dir, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("s_min=0.1\nstepz=3\n")
    code = main(["evolve", "--experts", str(fast_experts_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_missing_experts_dir_fails(tmp_path):
    code = main(["evolve", "--experts", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_missing_checkpoint_fails(tmp_path):
    code = main(["eval", "--ckpt", str(tmp_path / "nope.ckpt"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_report_missing_summary_fails(tmp_path):
    (tmp_path / "empty_run").mkdir()
    code = main(["report", "--runs", str(tmp_path / "empty_run"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_invalid_config_lists_every_violation(fast_experts_dir, tmp_path, capsys):
    code = main(["evolve", "--experts", str(fast_experts_dir), "--pop", "7",
                 "--gamma", "1.5", "--s-min", "0.9", "--s-max", "0.2", "--t0", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("invalid config") == 4
    assert "pop" in err and "gamma" in err and "s-min" in err


def test_bad_expert_recipe_names_every_flag_before_training(tmp_path, capsys):
    out = tmp_path / "experts"
    code = main(["train-experts", "--expert-epochs", "-1", "--weight-decay", "-0.5",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid config: --expert-epochs: must be >= 0, got -1",
        "invalid config: --weight-decay: must be >= 0, got -0.5",
    ]
    assert not list(out.glob("*.ckpt"))


def test_landscape_and_convexity_outputs(fast_experts_dir, tmp_path):
    ckpt = fast_experts_dir / "expert_add.ckpt"
    land = tmp_path / "land"
    assert main(["landscape", "--ckpt", str(ckpt), "--grid", "5", "--alpha-max", "0.5",
                 "--beta-max", "0.5", "--split-seed", "0", "--out", str(land)]) == 0
    rows = read_rows(land / "landscape.csv")
    assert rows[0] == ["i", "j", "alpha", "beta", "value"]
    assert len(rows) == 1 + 25
    assert (land / "landscape.pgm").read_bytes().startswith(b"P5\n5 5\n255\n")

    conv = tmp_path / "conv"
    assert main(["convexity", "--ckpt", str(ckpt), "--grid", "3", "--alpha-max", "0.3",
                 "--beta-max", "0.3", "--eig-iters", "60", "--split-seed", "0",
                 "--out", str(conv)]) == 0
    rows = read_rows(conv / "convexity.csv")
    assert rows[0] == ["i", "j", "alpha", "beta", "value", "lambda_max", "lambda_min", "converged"]
    values = [float(r[4]) for r in rows[1:]]
    assert all(0.0 <= v <= 0.5 for v in values)


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _truncated(src: Path, dst: Path) -> str:
    dst.write_bytes(src.read_bytes()[:50])
    return str(dst)


def _experts_with_truncated_sub(experts: Path, tmp: Path) -> str:
    copy = shutil.copytree(experts, tmp / "experts")
    _truncated(experts / "expert_sub.ckpt", copy / "expert_sub.ckpt")
    return str(copy)


def _raw_checkpoint(path: Path, *layers) -> str:
    """A checkpoint of (name bytes, shape, values) layers, written byte by byte
    so that it can hold what save_checkpoint never writes."""
    buf = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(layers))
    for name, shape, values in layers:
        buf += struct.pack("<I", len(name)) + name + struct.pack("<I", len(shape))
        buf += np.asarray(shape, dtype="<u8").tobytes() + np.asarray(values, dtype="<f4").tobytes()
    path.write_bytes(buf)
    return str(path)


NOT_UTF8 = (b"\xff", (2,), [0.0, 0.0])


def _experts_with_unreadable_sub(experts: Path, tmp: Path) -> str:
    copy = shutil.copytree(experts, tmp / "experts")
    _raw_checkpoint(copy / "expert_sub.ckpt", NOT_UTF8)
    return str(copy)


def _not_an_mlp(tmp: Path) -> str:
    save_checkpoint(rand_pset(0), tmp / "other.ckpt")
    return str(tmp / "other.ckpt")


M7_MISMATCH = "fc1_w is [26, 32], expected [14, 32]"

# name -> (experts dir, scratch dir) -> (argv, text the error line must contain)
BAD_INPUTS = {
    "eval-truncated-checkpoint": lambda ex, tmp: (
        ["eval", "--ckpt", _truncated(ex / "expert_add.ckpt", tmp / "cut.ckpt")], "truncated"),
    "baseline-truncated-expert": lambda ex, tmp: (
        ["baseline", "--method", "weight-average", "--experts", _experts_with_truncated_sub(ex, tmp)],
        "expert_sub.ckpt: truncated"),
    "evolve-truncated-expert": lambda ex, tmp: (
        ["evolve", "--experts", _experts_with_truncated_sub(ex, tmp)], "expert_sub.ckpt: truncated"),
    "eval-name-not-utf8": lambda ex, tmp: (
        ["eval", "--ckpt", _raw_checkpoint(tmp / "x.ckpt", NOT_UTF8)],
        f"{tmp / 'x.ckpt'}: layer 0 name is not UTF-8"),
    "eval-non-finite-values": lambda ex, tmp: (
        ["eval", "--ckpt", _raw_checkpoint(tmp / "x.ckpt", (b"fc1_w", (2,), [np.nan, 0.0]))],
        f"{tmp / 'x.ckpt'}: layer 'fc1_w' contains non-finite values"),
    "eval-duplicate-name": lambda ex, tmp: (
        ["eval", "--ckpt", _raw_checkpoint(tmp / "x.ckpt", (b"fc1_w", (1,), [0.0]), (b"fc1_w", (1,), [0.0]))],
        f"{tmp / 'x.ckpt'}: duplicate layer name 'fc1_w'"),
    "eval-zero-dimension": lambda ex, tmp: (
        ["eval", "--ckpt", _raw_checkpoint(tmp / "x.ckpt", (b"fc1_w", (0, 3), []))],
        f"{tmp / 'x.ckpt'}: layer 'fc1_w' has a non-positive dimension (0, 3)"),
    "evolve-expert-name-not-utf8": lambda ex, tmp: (
        ["evolve", "--experts", _experts_with_unreadable_sub(ex, tmp)],
        "expert_sub.ckpt: layer 0 name is not UTF-8"),
    "eval-modulus-mismatch": lambda ex, tmp: (
        ["eval", "--ckpt", str(ex / "expert_add.ckpt"), "--m", "7"], M7_MISMATCH),
    "evolve-modulus-mismatch": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--m", "7"], M7_MISMATCH),
    "convexity-modulus-mismatch": lambda ex, tmp: (
        ["convexity", "--ckpt", str(ex / "expert_add.ckpt"), "--m", "7", "--grid", "3"], M7_MISMATCH),
    "config-modulus-beats-experts": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--config", _write(tmp / "m.cfg", "m=7\n")], M7_MISMATCH),
    "eval-not-an-mlp": lambda ex, tmp: (
        ["eval", "--ckpt", _not_an_mlp(tmp)], "expected fc1_w"),
    "out-is-a-file": lambda ex, tmp: (
        ["eval", "--ckpt", str(ex / "expert_add.ckpt"), "--out", _write(tmp / "file", "")], "--out"),
    "flag-not-an-int": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--pop", "abc"], "--pop"),
    "config-not-an-int": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--config", _write(tmp / "p.cfg", "pop=abc\n")],
        f"pop in {tmp / 'p.cfg'}"),
    "weight-average-with-scale": lambda ex, tmp: (
        ["baseline", "--method", "weight-average", "--experts", str(ex), "--scale", "0.3"],
        "--scale"),
    "config-not-a-choice": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--config", _write(tmp / "c.cfg", "measure=bogus\n")],
        f"measure in {tmp / 'c.cfg'}"),
    "train-experts-diverges": lambda ex, tmp: (
        ["train-experts", "--lr", "1e4", "--base-epochs", "3", "--expert-epochs", "3"],
        "training diverged at epoch 2 of 3"),
}


def test_train_experts_rejects_split_seed(tmp_path):
    """Experts train on the partition of --seed; a second seed would only mislabel them."""
    with pytest.raises(SystemExit) as exc:
        main(["train-experts", *FAST_TRAIN, "--split-seed", "3", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


# A numpy RuntimeWarning would print a second stderr line outside pytest.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_with_one_error_line(case, fast_experts_dir, tmp_path, capsys):
    argv, expected = BAD_INPUTS[case](fast_experts_dir, tmp_path)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert expected in lines[0]


# What an m=13 checkpoint gets for not fitting --m 7.
M7_WIDTHS = ("does not fit widths [14, 32, 32, 7] (m=7): fc1_w is [26, 32], expected [14, 32]; "
             "fc3_w is [32, 13], expected [32, 7]; fc3_b is [13], expected [7]")

# name -> (argv, "{experts}" standing for the experts run; the expected
# "invalid config:" lines, in order, and any "error:" line, given in full)
BAD_SETTINGS = {
    "train-experts-recipe-and-sizes": (
        ["train-experts", "--m", "1", "--hidden", "0", "--lr", "0"],
        ["--m: must be >= 2, got 1", "--hidden: must be >= 1, got 0", "--lr: must be > 0, got 0.0"]),
    "convexity-grid-eigen-and-batch": (
        ["convexity", "--ckpt", "{experts}/expert_add.ckpt", "--grid", "1", "--eps", "0",
         "--eig-iters", "0", "--eig-tol", "0", "--hess-batch", "0"],
        ["--grid: must be >= 2, got 1", "--eps: must be > 0, got 0.0",
         "--eig-iters: must be >= 1, got 0", "--eig-tol: must be > 0, got 0.0",
         "--hess-batch: must be >= 1, got 0"]),
    "landscape-grid": (
        ["landscape", "--ckpt", "{experts}/expert_add.ckpt", "--grid", "1", "--alpha-max", "-1"],
        ["--alpha-max: must be > 0, got -1.0", "--grid: must be >= 2, got 1"]),
    "pso-swarm-and-batch": (
        ["pso", "--experts", "{experts}", "--swarm", "1", "--opt-batch", "0"],
        ["--swarm: must be >= 2, got 1", "--opt-batch: must be >= 1, got 0"]),
    "evolve-seed-and-pop": (
        ["evolve", "--experts", "{experts}", "--seed", "-1", "--pop", "7"],
        ["--seed: must be >= 0, got -1", "--pop: must be even and >= 2, got 7"]),
    "eval-split-seed": (
        ["eval", "--ckpt", "{experts}/expert_add.ckpt", "--split-seed", "-1"],
        ["--split-seed: must be >= 0, got -1"]),
    "gen-data-negative-n": (
        ["gen-data", "--n", "-1"],
        ["--n: must be >= 0, got -1"]),
    "evolve-batch-above-pool": (
        ["evolve", "--experts", "{experts}", "--opt-batch", "500"],
        ["--opt-batch: must be <= 127, the size of the pool it draws from, got 500"]),
    "evolve-pop-and-checkpoint-mismatch": (
        ["evolve", "--experts", "{experts}", "--m", "7", "--pop", "7"],
        ["--pop: must be even and >= 2, got 7", f"error: {{experts}}/base.ckpt {M7_WIDTHS}"]),
    "convexity-grid-and-checkpoint-mismatch": (
        ["convexity", "--ckpt", "{experts}/expert_add.ckpt", "--m", "7", "--grid", "1"],
        ["--grid: must be >= 2, got 1", f"error: {{experts}}/expert_add.ckpt {M7_WIDTHS}"]),
}


@pytest.mark.parametrize("case", list(BAD_SETTINGS))
def test_every_bad_setting_is_named_before_any_work(case, fast_experts_dir, tmp_path, capsys):
    """Exactly one invalid config line per bad setting (no numpy message), a
    checkpoint that does not fit --m named with them, and nothing trained or
    written first."""
    argv, expected = BAD_SETTINGS[case]
    out = tmp_path / "o"
    argv = [a.format(experts=fast_experts_dir) for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        line.format(experts=fast_experts_dir) if line.startswith("error: ") else f"invalid config: {line}"
        for line in expected
    ]
    written = [p.name for p in out.rglob("*")
               if p.suffix in {".ckpt", ".csv", ".pgm"} or p.name == "config.txt"]
    assert not written, written


class RecordingConfig(dict):
    """Resolved settings that remember which keys were read."""

    def __init__(self, values):
        super().__init__(values)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# Per command: arguments that make a quick run take every option's code path.
GUARD_ARGS = {
    "gen-data": ["--n", "5"],
    "train-experts": ["--base-epochs", "1", "--expert-epochs", "1"],
    "evolve": ["--experts", "{experts}", "--steps", "1"],
    "pso": ["--experts", "{experts}", "--iters", "1"],
    "baseline": ["--experts", "{experts}", "--method", "task-arithmetic"],
    "eval": ["--ckpt", "{experts}/expert_add.ckpt"],
    "landscape": ["--ckpt", "{experts}/expert_add.ckpt", "--grid", "2"],
    "convexity": ["--ckpt", "{experts}/expert_add.ckpt", "--grid", "2", "--eig-iters", "2"],
    "report": ["--runs", "{experts}"],
}


@pytest.mark.parametrize("command", list(COMMAND_OPTS))
def test_every_option_is_read(command, fast_experts_dir, tmp_path, monkeypatch):
    """A flag that no code path reads is dead; the config echo does not count."""
    configs = []
    resolve, echo = cli.resolve_options, cli.echo_config

    def recording_resolve(ns):
        configs.append(RecordingConfig(resolve(ns)))
        return configs[-1]

    def echo_unrecorded(out_dir, values):
        before = set(values.read)
        echo(out_dir, values)
        values.read &= before

    monkeypatch.setattr(cli, "resolve_options", recording_resolve)
    monkeypatch.setattr(cli, "echo_config", echo_unrecorded)
    args = [a.format(experts=fast_experts_dir) for a in GUARD_ARGS[command]]
    assert main([command, *args, "--out", str(tmp_path / "o")]) == 0
    unread = {opt.dest for opt in COMMAND_OPTS[command]} - configs[0].read
    assert not unread, f"{command} never reads {sorted(unread)}"
