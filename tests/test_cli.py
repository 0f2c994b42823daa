import csv
import hashlib
import os
import shlex
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_pset, twin_tasks
from sparsemerge import cli, evolve, landscape
from sparsemerge.cli import COMMAND_OPTS, main, read_config_file
from sparsemerge.params import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    flatten,
    load_checkpoint,
    save_checkpoint,
    unflatten,
)
from sparsemerge.tasks import LAYER_NAMES, ExpertTrainConfig, MlpSpec, full_split, init_mlp, loss

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


def test_experts_run_holds_the_trained_models_bit_for_bit(experts_run):
    """train-experts --seed 0 writes build_experts(twin_tasks(13, 0), 0) unrounded:
    each checkpoint holds the float64 values of the model it was written from."""
    experts_dir, calls = experts_run
    [(args, models)] = calls
    assert args == (twin_tasks(13, 0), 0, MlpSpec.hidden, ExpertTrainConfig())
    for path, model in zip(cli.expert_paths(experts_dir), models):
        loaded = load_checkpoint(path)
        assert (loaded.names, loaded.shapes) == (model.names, model.shapes)
        assert flatten(loaded).tobytes() == flatten(model).tobytes()


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
    for name, arr in base.layers:
        assert np.array_equal(merged[name], arr)


def test_eval_checkpoint(fast_experts_dir, tmp_path):
    out = tmp_path / "eval"
    assert main(["eval", "--ckpt", str(fast_experts_dir / "expert_add.ckpt"),
                 "--label", "expert_add", "--out", str(out)]) == 0
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


def test_evolve_memory_does_not_grow_with_its_steps(fast_experts_dir, tmp_path):
    """evolve writes each step's trace rows as the step ends, so its peak
    traced allocation at 64 steps stays near its peak at 8. Under numpy 2.4
    it grew 557 -> 617 KiB; keeping the 672 more records until the end of the
    run made it grow 570 -> 747 KiB."""
    def peak_kib(steps: int) -> float:
        tracemalloc.start()
        try:
            assert main(["evolve", "--experts", str(fast_experts_dir), "--pop", "8", "--steps", str(steps),
                         "--out", str(tmp_path / f"run{steps}")]) == 0
            return tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()

    assert main(["evolve", "--experts", str(fast_experts_dir), "--pop", "8", "--steps", "8",
                 "--out", str(tmp_path / "warm-up")]) == 0
    short, long = peak_kib(8), peak_kib(64)
    assert long - short < 120, f"peak {short:.0f} KiB at 8 steps, {long:.0f} KiB at 64"


def test_a_failed_evolve_removes_the_rows_it_streamed(fast_experts_dir, tmp_path, monkeypatch, capsys):
    """A run that fails after trace rows were written leaves no trace.csv:
    a failed command writes nothing."""
    out = tmp_path / "run"
    real_step = evolve.evolve_step

    def failing_step(archive, cfg, step):
        if step == 2:
            assert (out / "trace.csv").is_file()
            raise ValueError("step 2 failed")
        return real_step(archive, cfg, step)

    monkeypatch.setattr(evolve, "evolve_step", failing_step)
    assert main(["evolve", "--experts", str(fast_experts_dir), "--steps", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: step 2 failed"]
    assert list(out.iterdir()) == []


def test_pso_run_and_determinism(fast_experts_dir, tmp_path):
    args = ["pso", "--experts", str(fast_experts_dir), "--iters", "4", "--seed", "5"]
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(run_a)]) == 0
    assert main([*args, "--out", str(run_b)]) == 0
    assert tree_bytes(run_a) == tree_bytes(run_b)
    rows = read_rows(run_a / "trace.csv")
    assert rows[0] == ["iteration", "gbest_fitness", "iter_best", "iter_mean"]
    assert len(rows) == 5
    # Every cell is a plain number that a CSV reader takes as one.
    values = [[float(cell) for cell in row] for row in rows[1:]]
    assert [row[0] for row in values] == [0, 1, 2, 3]


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


def test_inputs_fix_the_modulus_and_the_partition():
    """--m only where no checkpoint is loaded, --split-seed nowhere (--seed or the
    loaded run gives the partition); --seed only where randomness is drawn."""
    commands = {flag: [c for c, opts in COMMAND_OPTS.items() if flag in {o.flag for o in opts}]
                for flag in ("--m", "--split-seed", "--seed")}
    assert commands == {"--m": ["gen-data", "train-experts"],
                        "--split-seed": [],
                        "--seed": ["gen-data", "train-experts", "evolve", "pso", "landscape", "convexity"]}
    assert sum(len(opts) for opts in COMMAND_OPTS.values()) == 61


def test_baseline_scores_on_the_partition_the_experts_run_records(fast_experts_dir, tmp_path):
    """The test pools come from the experts' config.txt."""
    experts = Path(shutil.copytree(fast_experts_dir, tmp_path / "experts"))
    meta = (experts / "config.txt").read_text()
    assert "split-seed=0\n" in meta
    (experts / "config.txt").write_text(meta.replace("split-seed=0\n", "split-seed=3\n"))
    out = tmp_path / "wa"
    assert main(["baseline", "--method", "weight-average", "--experts", str(experts),
                 "--out", str(out)]) == 0
    merged = load_checkpoint(out / "merged.ckpt")
    expected = cli.evaluate_model(merged, twin_tasks(13, split_seed=3))
    assert read_rows(out / "summary.csv")[1] == ["weight-average", *map(repr, expected)]
    echoed = read_config_file(out / "config.txt")
    assert echoed["split-seed"] == "3"
    assert "m" not in echoed and "seed" not in echoed


def test_eval_scores_each_checkpoint_on_the_partition_its_run_records(tmp_path, capsys):
    """On experts whose seed is not the default, eval of every checkpoint that
    train-experts, evolve, pso and baseline write gives that run's summary row."""
    experts = tmp_path / "experts"
    assert main(["train-experts", "--base-epochs", "3", "--expert-epochs", "40", "--seed", "1",
                 "--out", str(experts)]) == 0
    runs = {"sae": ["evolve", "--steps", "4", "--seed", "1"],
            "pso": ["pso", "--iters", "4", "--seed", "1"],
            "wa": ["baseline", "--method", "weight-average"]}
    for name, argv in runs.items():
        assert main([*argv, "--experts", str(experts), "--out", str(tmp_path / name)]) == 0
    checkpoints = [(experts / f"{name}.ckpt", name) for name in cli.EXPERT_NAMES] + [
        (tmp_path / "sae" / "best.ckpt", "sae"), (tmp_path / "pso" / "best.ckpt", "pso"),
        (tmp_path / "wa" / "merged.ckpt", "weight-average")]
    capsys.readouterr()
    for k, (ckpt, method) in enumerate(checkpoints):
        (row,) = [r for r in read_rows(ckpt.parent / "summary.csv")[1:] if r[0] == method]
        out = tmp_path / f"eval{k}"
        assert main(["eval", "--ckpt", str(ckpt), "--label", method, "--out", str(out)]) == 0
        assert read_rows(out / "summary.csv")[1] == row
        assert capsys.readouterr().out.splitlines() == [cli.score_line(method, *map(float, row[1:]))]
        assert read_config_file(out / "config.txt")["split-seed"] == "1"
    conv = tmp_path / "conv"
    assert main(["convexity", "--ckpt", str(experts / "expert_add.ckpt"), "--grid", "2",
                 "--eig-iters", "2", "--out", str(conv)]) == 0
    assert read_config_file(conv / "config.txt")["split-seed"] == "1"


def readme_pipeline() -> list[list[str]]:
    """The command lines of README's Pipeline block, each split into words."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Pipeline", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_pipeline_parses():
    """Every command line of README's Pipeline block is one the parser takes."""
    lines = readme_pipeline()
    assert len(lines) >= 8
    parser = cli.build_parser()
    for prog, *argv in lines:
        assert prog == "sparsemerge", argv
        parser.parse_args(argv)


# Per README Pipeline command: flags that make it quick, on FAST experts of seed 1.
QUICK_ARGS = {
    "train-experts": ["--base-epochs", "3", "--expert-epochs", "40", "--seed", "1"],
    "evolve": ["--steps", "4"],
    "pso": ["--iters", "4"],
    "landscape": ["--grid", "3"],
    "convexity": ["--grid", "3", "--eig-iters", "10"],
}


def test_every_run_replays_from_its_config(tmp_path, monkeypatch, capsys):
    """README's pipeline plus eval and gen-data; each run's config.txt, given as
    --config from the same working directory, writes the same files again."""
    lines = [argv for _, *argv in readme_pipeline()] + [
        ["eval", "--ckpt", "runs/sae/best.ckpt", "--label", "sae", "--out", "runs/eval"],
        ["gen-data", "--seed", "1", "--n", "5", "--out", "runs/data"]]
    monkeypatch.chdir(tmp_path)
    commands = {}
    for argv in lines:
        assert main([*argv, *QUICK_ARGS.get(argv[0], [])]) == 0, argv
        commands[argv[argv.index("--out") + 1]] = argv[0]
    assert len(commands) == 10
    capsys.readouterr()
    for run, command in commands.items():
        if command == "report":  # it writes no config.txt
            continue
        replay = f"replay/{run}"
        assert main([command, "--config", f"{run}/config.txt", "--out", replay]) == 0, command
        assert capsys.readouterr().err == ""
        assert tree_bytes(Path(replay)) == tree_bytes(Path(run)), command


def test_replay_from_another_directory_names_the_missing_input(fast_experts_dir, tmp_path, monkeypatch, capsys):
    """A config.txt echoes its input paths as given, so from another working
    directory its replay names the input it cannot find and writes nothing."""
    shutil.copytree(fast_experts_dir, tmp_path / "runs" / "experts")
    monkeypatch.chdir(tmp_path)
    assert main(["baseline", "--method", "weight-average", "--experts", "runs/experts", "--out", "runs/wa"]) == 0
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    capsys.readouterr()
    assert main(["baseline", "--config", "../runs/wa/config.txt", "--out", "wa"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: runs/experts/base.ckpt: No such file or directory"]
    assert not Path("wa").exists()


def test_a_config_replays_as_utf8_under_any_locale(fast_experts_dir, tmp_path):
    """config.txt holds UTF-8, and so does every text file a command reads or
    writes: a non-ASCII --label replays under the C locale with UTF-8 mode off
    and writes the bytes a UTF-8 run writes. Stdout is UTF-8 in both, so only
    the files are tested."""
    config = tmp_path / "config.txt"
    config.write_bytes(f"ckpt={fast_experts_dir / 'expert_add.ckpt'}\nlabel=café\n".encode())
    src = str(Path(cli.__file__).parents[1])
    runs = {}
    for name, locale_env in [("utf8", {"PYTHONUTF8": "1"}),
                             ("c", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})]:
        env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8", **locale_env}
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-m", "sparsemerge.cli", "eval", "--config", str(config), "--out", str(out)],
            env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, ""), name
        runs[name] = {f: (out / f).read_bytes() for f in ("config.txt", "summary.csv")}
    assert "label=café".encode() in runs["utf8"]["config.txt"]
    assert runs["c"] == runs["utf8"]


@pytest.mark.parametrize("command, inputs, files", [
    ("eval", "ckpt={experts}/expert_add.ckpt", ["config.txt", "run.log", "summary.csv"]),
    ("evolve", "experts={experts}\nsteps=1",
     ["best.ckpt", "config.txt", "run.log", "summary.csv", "trace.csv"]),
], ids=["eval", "evolve"])
def test_a_report_line_stdout_cannot_encode_is_escaped(command, inputs, files, fast_experts_dir, tmp_path):
    """Under the C locale with UTF-8 mode off, stdout is ASCII: a non-ASCII
    --label prints escaped, and the command ends with exit 0 and every file
    written, the label in them as UTF-8."""
    config = tmp_path / "c.cfg"
    config.write_bytes(f"{inputs.format(experts=fast_experts_dir)}\nlabel=café\n".encode())
    env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    env.update(PYTHONPATH=str(Path(cli.__file__).parents[1]), LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    out = tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-m", "sparsemerge.cli", command, "--config", str(config), "--out", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.startswith(b"caf\\xe9: ")
    assert sorted(p.name for p in out.iterdir()) == files
    assert read_config_file(out / "config.txt")["label"] == "café"
    assert (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1].startswith("café,")


@pytest.mark.parametrize("argv", [
    ["pso", "--experts", "EXPERTS", "--iters", "2"],
    ["train-experts", *FAST_TRAIN],
    ["evolve", "--experts", "EXPERTS", "--steps", "2"],
    ["baseline", "--method", "weight-average", "--experts", "EXPERTS"],
], ids=["pso", "train-experts", "evolve", "baseline"])
def test_a_command_scores_before_it_writes(argv, fast_experts_dir, tmp_path, monkeypatch, capsys):
    """A model that cannot be scored is never written: each command scores
    before its first write, so a failed score leaves --out empty."""

    def failing_score(*args):
        raise ValueError("scoring failed")

    monkeypatch.setattr(cli, "evaluate_model", failing_score)
    out = tmp_path / "o"
    argv = [str(fast_experts_dir) if arg == "EXPERTS" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: scoring failed"]
    assert list(out.iterdir()) == []


# A short seed-0 pipeline through every command but gen-data, with relative
# paths, since config.txt records its inputs as given.
PINNED_PIPELINE = [
    ["train-experts", "--seed", "0", "--base-epochs", "3", "--expert-epochs", "40", "--out", "runs/experts"],
    ["evolve", "--experts", "runs/experts", "--seed", "0", "--steps", "4", "--out", "runs/sae"],
    ["pso", "--experts", "runs/experts", "--seed", "0", "--iters", "4", "--out", "runs/pso"],
    ["baseline", "--method", "weight-average", "--experts", "runs/experts", "--out", "runs/wa"],
    ["baseline", "--method", "task-arithmetic", "--experts", "runs/experts", "--out", "runs/ta"],
    ["eval", "--ckpt", "runs/sae/best.ckpt", "--label", "sae", "--out", "runs/eval"],
    ["report", "--runs", "runs/sae", "runs/pso", "runs/wa", "runs/ta", "runs/experts", "--out", "runs/report"],
    ["landscape", "--ckpt", "runs/sae/best.ckpt", "--seed", "0", "--grid", "3", "--out", "runs/land"],
    ["convexity", "--ckpt", "runs/sae/best.ckpt", "--seed", "0", "--grid", "3", "--out", "runs/conv"],
]


def pinned_artifacts(root: Path) -> dict[str, str]:
    """sha256 of every checkpoint, CSV, heatmap and config.txt below ``root``, by relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.suffix in (".ckpt", ".csv", ".pgm") or p.name == "config.txt"
    }


def numeric_environment() -> tuple:
    """What the pinned bytes depend on besides the program: the numpy major,
    the OpenBLAS kernel that runtime dispatch picks (the ``Core:`` line that
    ``OPENBLAS_VERBOSE=2`` prints, or None for another BLAS), and the SIMD
    features numpy dispatches to on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    blas = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_VERBOSE": "2"}, check=True)
    cores = [line.split(":", 1)[1].strip() for line in (blas.stdout + blas.stderr).splitlines()
             if line.startswith("Core:")]
    simd = tuple(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    return int(np.__version__.split(".")[0]), cores[0] if cores else None, simd


# Keyed by numeric_environment(), since another OpenBLAS kernel or SIMD level
# gives other bytes. Measured in one environment only; a run in another skips
# and names its key and the digests it measured, which are its pin once checked.
PINNED_SHA256 = {
    (2, "SkylakeX", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")): {
        "conv/config.txt": "1224849ce615af8f1108ac70142c26bba5605c60b3c87fc0f5cdb1c41c2cc6f9",
        "conv/convexity.csv": "e937615bff1515141782dc692d71dbeb2de4945964377275d55f8d40bcd4d5a6",
        "conv/convexity.pgm": "e9e4a11336da727e714114089026c28ca4ba28bdf3ad2518f967cd490056f9c0",
        "eval/config.txt": "0798d657714b93bda82a7e83a5f1d01c1ccd5e5e729bd3a109f7c987a841a99d",
        "eval/summary.csv": "6645f4c76466361f009975de9c6d3e79d5b1bcae1124957ffab4f17e1ad18907",
        "experts/base.ckpt": "8750fbdbfa6fa4bff7fccec652cf8b2d2cb05f2d8c1f83968e9f81dda5d1d498",
        "experts/config.txt": "78a228aedcdbd1dac0ddec62c5ee856312fca6486cde00d33333dd869f94a70e",
        "experts/expert_add.ckpt": "1c07feff96ca09f8f91c97bb37304964901be810561a47d4d6f880953a3f76c5",
        "experts/expert_sub.ckpt": "696d74cf8637e72a9e94a8551eb3a4371d484f0affd4cf4b0d82b27136db05e0",
        "experts/summary.csv": "06b274d93cb0508faf10037715070fd7f7a431f28fc506bfc20f061181ea97e2",
        "land/config.txt": "00954e7b7b4ff5d1bf423950164cd31d1bc4c5e0181199e836c6e66a075eaf28",
        "land/landscape.csv": "96fb758c9a54b79b42589b3011c10cf505e54cd416671dbcf40a716e6d1cf7f9",
        "land/landscape.pgm": "475a79c246e634573bbab069a1a628e2a4b2b11347eabcc3aaaba1d107f68ffc",
        "pso/best.ckpt": "ce08778092be13287261c0695bc6a154725f3928a75a47e88851b060cb8aa8de",
        "pso/config.txt": "6fa64cb4d4ab85a87b11d2cc5b6d3963c168b3002204710ed06201ae31599c5e",
        "pso/summary.csv": "5b99c6a520cf34c74c4a35bfae9dc7c3eda461639c52bf6e893f526ac3ceebc4",
        "pso/trace.csv": "d254a9a8cf53aba2bf4d77046f29a9f889f0f9fe1ae7f29827abfc794d9ac41b",
        "report/report.csv": "adb243a0b4a24aa3a9a44f887cc0ad347f6c6c33d3d53287ee36f59f166d4663",
        "sae/best.ckpt": "d86461f758b5cbbc00e6fb5c1f240e4b58236f71dc31a2431581a636853cc7fc",
        "sae/config.txt": "b024f7e50b5ceb1549bcd3ed8a490c44bd83af08ca092e596ca9dda9de80a3fb",
        "sae/summary.csv": "6645f4c76466361f009975de9c6d3e79d5b1bcae1124957ffab4f17e1ad18907",
        "sae/trace.csv": "90506823d98680811ec57f91b8d01d79ca3c8c805b10b2609c0a8aa473bd09a2",
        "ta/config.txt": "b7568864de7b521717ed6d58504b6f95940a2cbaf4c7d07713b9ad0fb010ddbd",
        "ta/merged.ckpt": "11e133e7dd3a6ffb5037ff318f9c9fc1e275b9378cff2a84410457c266112ad7",
        "ta/summary.csv": "109e75563bd7c6990a35cba3cf3afe186af81b64a953918833f47433dd985d56",
        "wa/config.txt": "c07f501631037aa35455e0863b5cf1d61c8ccd4e29d4ca1d0bd04c9919b7872e",
        "wa/merged.ckpt": "7ce92407eedd0d90a26f0e161b42ad34ac813c34289a77174640e8e382d07aea",
        "wa/summary.csv": "2d52c488363a0f8655abd60906304791991a35012839d34577f3f69e4cb5dc9a",
    },
}


def test_a_short_pipeline_writes_the_pinned_bytes(tmp_path, monkeypatch, capsys):
    """Every artifact of a short seed-0 pipeline is the pinned bytes. A change
    that moves any of them updates its pin and says why."""
    monkeypatch.chdir(tmp_path)
    for argv in PINNED_PIPELINE:
        assert main(argv) == 0, argv
    assert capsys.readouterr().err == ""
    measured = pinned_artifacts(Path("runs"))
    key = numeric_environment()
    if key not in PINNED_SHA256:
        pytest.skip(f"no artifact pin for {key}; measured {measured}")
    assert measured == PINNED_SHA256[key]


def test_readme_command_flags_parse():
    """Every flag in the key-flags column of README's Commands table is one its command takes."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Commands", 1)[1].split("\nShared flags", 1)[0]
    rows = [line.strip("|").split("|") for line in table.splitlines() if line.startswith("| `")]
    flags = {command.strip(" `"): key_flags.strip(" `").split() for command, *_, key_flags in rows}
    assert sorted(flags) == sorted(COMMAND_OPTS)
    parser = cli.build_parser()
    for command, command_flags in flags.items():
        for flag in command_flags:
            parser.parse_args([command, flag, "1"])


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
    assert main(["landscape", "--ckpt", str(ckpt), "--grid", "5", "--extent", "0.5",
                 "--out", str(land)]) == 0
    rows = read_rows(land / "landscape.csv")
    assert rows[0] == ["i", "j", "alpha", "beta", "value"]
    assert len(rows) == 1 + 25
    assert (land / "landscape.pgm").read_bytes().startswith(b"P5\n5 5\n255\n")

    conv = tmp_path / "conv"
    assert main(["convexity", "--ckpt", str(ckpt), "--grid", "3", "--extent", "0.3",
                 "--eig-iters", "60", "--out", str(conv)]) == 0
    rows = read_rows(conv / "convexity.csv")
    assert rows[0] == ["i", "j", "alpha", "beta", "value", "lambda_max", "lambda_min", "converged"]
    values = [float(r[4]) for r in rows[1:]]
    assert all(0.0 <= v <= 0.5 for v in values)


def test_convexity_prints_the_products_each_cell_took(fast_experts_dir, tmp_path, monkeypatch, capsys):
    """steps= is the sum of the Hessian-vector products over the cells of a 3x3
    map and max_steps= the most any one cell took, after the converged= count."""
    per_cell = []
    original_hvp, original_eigs = landscape.hvp, landscape.extreme_eigs

    def counted_hvp(*args):
        per_cell[-1] += 1
        return original_hvp(*args)

    def counted_eigs(*args):
        per_cell.append(0)
        return original_eigs(*args)

    monkeypatch.setattr(landscape, "hvp", counted_hvp)
    monkeypatch.setattr(landscape, "extreme_eigs", counted_eigs)
    assert main(["convexity", "--ckpt", str(fast_experts_dir / "expert_add.ckpt"), "--grid", "3",
                 "--out", str(tmp_path / "conv")]) == 0
    assert len(per_cell) == 9
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.endswith(f" converged=9/9 steps={sum(per_cell)} max_steps={max(per_cell)}")


def test_landscape_center_is_the_checkpoint_on_an_even_grid(fast_experts_dir, tmp_path, capsys):
    """A 4x4 grid has no cell at alpha = beta = 0; center= is still the checkpoint's loss."""
    ckpt = fast_experts_dir / "expert_add.ckpt"
    assert main(["landscape", "--ckpt", str(ckpt), "--grid", "4", "--out", str(tmp_path / "land")]) == 0
    train_add, _ = twin_tasks(13, split_seed=0)
    at_ckpt = loss(load_checkpoint(ckpt), full_split(train_add, "train"))
    assert capsys.readouterr().out.split("center=")[1].strip() == f"{at_ckpt:.4f}"


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _write_bytes(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _truncated(src: Path, dst: Path) -> str:
    dst.write_bytes(src.read_bytes()[:50])
    return str(dst)


def _experts_with_truncated_sub(experts: Path, tmp: Path) -> str:
    copy = shutil.copytree(experts, tmp / "experts")
    _truncated(experts / "expert_sub.ckpt", copy / "expert_sub.ckpt")
    return str(copy)


def _raw_checkpoint(path: Path, *layers, version=CHECKPOINT_VERSION, dtype="<f8") -> str:
    """A checkpoint of (name bytes, shape, values) layers, written byte by byte
    so that it can hold what save_checkpoint never writes; version 1 stored
    its values as "<f4"."""
    buf = CHECKPOINT_MAGIC + struct.pack("<II", version, len(layers))
    for name, shape, values in layers:
        buf += struct.pack("<I", len(name)) + name + struct.pack("<I", len(shape))
        buf += np.asarray(shape, dtype="<u8").tobytes() + np.asarray(values, dtype=dtype).tobytes()
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


def _mlp_layers(d_in, h1, h2, d_out, **shapes):
    """Zero layers of an MLP with these widths, which MlpSpec may not allow, for
    _raw_checkpoint; a keyword gives that layer another shape."""
    widths = [(d_in, h1), (h1,), (h1, h2), (h2,), (h2, d_out), (d_out,)]
    shapes = [shapes.get(name, shape) for name, shape in zip(LAYER_NAMES, widths)]
    return [(name.encode(), shape, np.zeros(shape).ravel()) for name, shape in zip(LAYER_NAMES, shapes)]


def _experts_without_config(experts: Path, tmp: Path) -> str:
    copy = shutil.copytree(experts, tmp / "experts")
    (copy / "config.txt").unlink()
    return str(copy)


def _experts_with_scaled_add(experts: Path, tmp: Path, scale: float) -> Path:
    """A copy of the experts run whose expert_add.ckpt holds its values times ``scale``."""
    copy = shutil.copytree(experts, tmp / "experts")
    add = load_checkpoint(experts / "expert_add.ckpt")
    save_checkpoint(unflatten(add, flatten(add) * scale), copy / "expert_add.ckpt")
    return copy


def _checkpoint_away_from_its_run(experts: Path, tmp: Path) -> str:
    return str(shutil.copy(experts / "expert_add.ckpt", tmp / "alone.ckpt"))


def _experts_without_split_seed(experts: Path, tmp: Path) -> str:
    copy = shutil.copytree(experts, tmp / "experts")
    lines = (copy / "config.txt").read_text().splitlines(keepends=True)
    (copy / "config.txt").write_text("".join(line for line in lines if not line.startswith("split-seed=")))
    return str(copy)


def _experts_with_sub_for_m7(experts: Path, tmp: Path) -> str:
    copy = shutil.copytree(experts, tmp / "experts")
    save_checkpoint(init_mlp(MlpSpec(7, 32), 0), copy / "expert_sub.ckpt")
    return str(copy)


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
    "eval-version-1-checkpoint": lambda ex, tmp: (
        ["eval", "--ckpt",
         _raw_checkpoint(tmp / "v1.ckpt", *_mlp_layers(26, 32, 32, 13), version=1, dtype="<f4")],
        f"error: {tmp / 'v1.ckpt'}: unsupported checkpoint version 1"),
    "evolve-expert-name-not-utf8": lambda ex, tmp: (
        ["evolve", "--experts", _experts_with_unreadable_sub(ex, tmp)],
        "expert_sub.ckpt: layer 0 name is not UTF-8"),
    # A checkpoint fixes its modulus, and an experts run its partition: a flag
    # or --config key for either is unknown.
    "eval-modulus-mismatch": lambda ex, tmp: (
        ["eval", "--ckpt", str(ex / "expert_add.ckpt"), "--m", "7"], "error: unrecognized arguments: --m 7"),
    "evolve-modulus-mismatch": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--m", "7"], "error: unrecognized arguments: --m 7"),
    "convexity-modulus-mismatch": lambda ex, tmp: (
        ["convexity", "--ckpt", str(ex / "expert_add.ckpt"), "--m", "7", "--grid", "3"],
        "error: unrecognized arguments: --m 7"),
    "config-modulus-beats-experts": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--config", _write(tmp / "m.cfg", "m=7\n")],
        f"error: {tmp / 'm.cfg'}: unknown keys for evolve: m"),
    "config-duplicate-key": lambda ex, tmp: (
        ["gen-data", "--config", _write(tmp / "d.cfg", "seed=1\nseed=2\n")],
        f"error: {tmp / 'd.cfg'}:2: duplicate key seed"),
    # A merge draws no randomness and the experts run gives the partition.
    "baseline-seed": lambda ex, tmp: (
        ["baseline", "--method", "weight-average", "--experts", str(ex), "--seed", "7"],
        "error: unrecognized arguments: --seed 7"),
    # A config.txt records the partition it used, which --config checks, not sets.
    "config-split-seed-beats-experts": lambda ex, tmp: (
        ["baseline", "--method", "weight-average", "--experts", str(ex),
         "--config", _write(tmp / "s.cfg", "split-seed=1\n")],
        f"error: {tmp / 's.cfg'}: split-seed=1 is not the partition this command uses, split-seed=0"),
    "config-split-seed-beats-seed": lambda ex, tmp: (
        ["train-experts", "--config", _write(tmp / "s.cfg", "seed=2\nsplit-seed=1\n")],
        f"error: {tmp / 's.cfg'}: split-seed=1 is not the partition this command uses, split-seed=2"),
    "gen-data-config-split-seed-beats-seed": lambda ex, tmp: (
        ["gen-data", "--seed", "2", "--config", _write(tmp / "s.cfg", "split-seed=1\n")],
        f"error: {tmp / 's.cfg'}: split-seed=1 is not the partition this command uses, split-seed=2"),
    "config-split-seed-not-an-int": lambda ex, tmp: (
        ["gen-data", "--config", _write(tmp / "s.cfg", "split-seed=x\n")],
        f"error: {tmp / 's.cfg'}: split-seed: expected an int >= 0, got 'x'"),
    "report-split-seed": lambda ex, tmp: (
        ["report", "--runs", str(ex), "--config", _write(tmp / "s.cfg", "split-seed=0\n")],
        f"error: {tmp / 's.cfg'}: unknown keys for report: split-seed"),
    "experts-without-config": lambda ex, tmp: (
        ["pso", "--experts", _experts_without_config(ex, tmp)],
        f"error: {tmp / 'experts' / 'config.txt'}: No such file or directory"),
    "experts-without-split-seed": lambda ex, tmp: (
        ["baseline", "--method", "weight-average", "--experts", _experts_without_split_seed(ex, tmp)],
        f"error: {tmp / 'experts' / 'config.txt'} has no split-seed, so the run's partition is unknown"),
    # A finite model whose forward pass overflows has no score.
    "baseline-overflowing-merge": lambda ex, tmp: (
        ["baseline", "--method", "task-arithmetic", "--scale", "1e200", "--experts", str(ex)],
        "error: non-finite logits"),
    "eval-overflowing-checkpoint": lambda ex, tmp: (
        ["eval", "--ckpt", str(_experts_with_scaled_add(ex, tmp, 1e160) / "expert_add.ckpt")],
        "error: non-finite logits"),
    # A checkpoint's run gives its partition, and a score draws no randomness.
    "checkpoint-away-from-its-run": lambda ex, tmp: (
        ["eval", "--ckpt", _checkpoint_away_from_its_run(ex, tmp)],
        f"error: {tmp / 'config.txt'}: No such file or directory"),
    "eval-seed": lambda ex, tmp: (
        ["eval", "--ckpt", str(ex / "expert_add.ckpt"), "--seed", "1"],
        "error: unrecognized arguments: --seed 1"),
    "convexity-split-seed": lambda ex, tmp: (
        ["convexity", "--ckpt", str(ex / "expert_add.ckpt"), "--split-seed", "0"],
        "error: unrecognized arguments: --split-seed 0"),
    "experts-of-two-moduli": lambda ex, tmp: (
        ["evolve", "--experts", _experts_with_sub_for_m7(ex, tmp)],
        f"error: {tmp / 'experts'}: incompatible parameter sets: 'fc1_w' [26, 32] vs 'fc1_w' [14, 32]"),
    "checkpoint-of-wrong-shape": lambda ex, tmp: (
        ["eval", "--ckpt", _raw_checkpoint(tmp / "w.ckpt", *_mlp_layers(4, 3, 3, 2, fc2_w=(3, 5)))],
        f"error: {tmp / 'w.ckpt'}: does not fit widths [4, 3, 3, 2] (m=2): fc2_w is [3, 5], expected [3, 3]"),
    "checkpoint-without-modulus": lambda ex, tmp: (
        ["eval", "--ckpt", _raw_checkpoint(tmp / "m1.ckpt", *_mlp_layers(2, 4, 4, 1))],
        f"error: {tmp / 'm1.ckpt'}: fc3_w has 1 output, expected a modulus >= 2"),
    "flag-empty": lambda ex, tmp: (
        ["gen-data", "--n", ""], "error: --n: expected a value, got ''"),
    "flag-empty-out": lambda ex, tmp: (
        ["gen-data", "--out", ""], "error: --out: expected a value, got ''"),
    "config-not-utf8": lambda ex, tmp: (
        ["gen-data", "--config", _write_bytes(tmp / "u.cfg", b"seed=\xff\n")],
        f"error: {tmp / 'u.cfg'}: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"),
    # config.txt holds a string as UTF-8 on one line, stripped: any other would not replay.
    "flag-label-with-a-line-break": lambda ex, tmp: (
        ["eval", "--ckpt", str(ex / "expert_add.ckpt"), "--label", "x\ny"],
        "error: --label: expected printable text without surrounding whitespace, got 'x\\ny'"),
    "flag-label-padded": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--steps", "1", "--label", " padded "],
        "error: --label: expected printable text without surrounding whitespace, got ' padded '"),
    # A non-UTF-8 byte in an argument reaches Python as a lone surrogate.
    "flag-label-not-utf8": lambda ex, tmp: (
        ["eval", "--ckpt", str(ex / "expert_add.ckpt"), "--label", "x\udcff"],
        "error: --label: expected printable text without surrounding whitespace, got 'x\\udcff'"),
    "config-empty-key": lambda ex, tmp: (
        ["gen-data", "--config", _write(tmp / "n.cfg", "n=\n")],
        f"error: n in {tmp / 'n.cfg'}: expected a value, got ''"),
    "flag-not-a-choice": lambda ex, tmp: (
        ["gen-data", "--which", "bogus"], "error: --which: expected one of train, opt, test, got 'bogus'"),
    "flag-unknown": lambda ex, tmp: (
        ["eval", "--ckpt", str(ex / "expert_add.ckpt"), "--bogus", "1"],
        "error: unrecognized arguments: --bogus 1"),
    "report-without-runs": lambda ex, tmp: (
        ["report"], "error: the following arguments are required: --runs"),
    "eval-not-an-mlp": lambda ex, tmp: (
        ["eval", "--ckpt", _not_an_mlp(tmp)], "expected fc1_w"),
    "out-is-a-file": lambda ex, tmp: (
        ["eval", "--ckpt", str(ex / "expert_add.ckpt"), "--out", _write(tmp / "file", "")], "--out"),
    "flag-not-an-int": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--pop", "abc"], "--pop"),
    "config-not-an-int": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--config", _write(tmp / "p.cfg", "pop=abc\n")],
        f"pop in {tmp / 'p.cfg'}"),
    "config-not-a-choice": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--config", _write(tmp / "c.cfg", "measure=bogus\n")],
        f"measure in {tmp / 'c.cfg'}"),
    # Each step's decay factor 1 - lr * wd is positive (0.9 here, else 1):
    # the learning rate alone diverges.
    "train-experts-diverges": lambda ex, tmp: (
        ["train-experts", "--lr", "1e30", "--weight-decay", "1e-31", "--base-epochs", "0", "--expert-epochs", "3"],
        "training diverged at epoch 2 of 3"),
    "train-experts-experts-diverge": lambda ex, tmp: (
        ["train-experts", "--lr", "1e30", "--weight-decay", "0", "--base-epochs", "0", "--expert-epochs", "3"],
        "error: experts: training diverged at epoch 2 of 3"),
    "train-experts-base-diverges": lambda ex, tmp: (
        ["train-experts", "--lr", "1e150", "--weight-decay", "0", "--base-epochs", "3", "--expert-epochs", "3"],
        "error: base: training diverged at epoch 1 of 3"),
    "config-non-finite-float": lambda ex, tmp: (
        ["evolve", "--experts", str(ex), "--config", _write(tmp / "g.cfg", "gamma=nan\n")],
        f"error: gamma in {tmp / 'g.cfg'}: expected a finite float, got 'nan'"),
    # A finite extent whose scan overflows names the first cell it reached.
    "landscape-overflowing-extent": lambda ex, tmp: (
        ["landscape", "--ckpt", str(ex / "expert_add.ckpt"), "--grid", "3", "--extent", "1e200"],
        "error: cell (0, 0, alpha=-1e+200, beta=-1e+200): non-finite loss"),
    "convexity-overflowing-extent": lambda ex, tmp: (
        ["convexity", "--ckpt", str(ex / "expert_add.ckpt"), "--grid", "3", "--extent", "1e200"],
        "error: cell (0, 0, alpha=-1e+200, beta=-1e+200): non-finite operator product at Lanczos step 1"),
    "flag-overflowing-float": lambda ex, tmp: (
        ["baseline", "--method", "task-arithmetic", "--experts", str(ex), "--scale", "1e999"],
        "error: --scale: expected a finite float, got '1e999'"),
}


@pytest.mark.parametrize("argv", [
    ["train-experts", *FAST_TRAIN, "--split-seed", "3"],
    ["gen-data", "--split-seed", "3"],
    ["convexity", "--ckpt", "nope.ckpt", "--eps", "1e-8"],
    ["pso", "--experts", "nope", "--w", "0.5"],
    ["pso", "--experts", "nope", "--c1", "1"],
    ["pso", "--experts", "nope", "--c2", "1"],
    ["pso", "--experts", "nope", "--vmax", "0.5"],
    ["evolve", "--experts", "nope", "--anneal", "archive"],
    ["landscape", "--ckpt", "nope.ckpt", "--alpha-max", "0.5"],
    ["landscape", "--ckpt", "nope.ckpt", "--beta-max", "0.5"],
    ["convexity", "--ckpt", "nope.ckpt", "--alpha-max", "0.5"],
    ["convexity", "--ckpt", "nope.ckpt", "--beta-max", "0.5"],
], ids=["train-experts-split-seed", "gen-data-split-seed", "convexity-eps",
        "pso-w", "pso-c1", "pso-c2", "pso-vmax", "evolve-anneal",
        "landscape-alpha-max", "landscape-beta-max", "convexity-alpha-max", "convexity-beta-max"])
def test_train_experts_rejects_split_seed(argv, tmp_path, capsys):
    """Data and experts take the partition of --seed, where a second seed would
    only mislabel them; the convexity score's guard and the swarm's
    constriction weights are constants; the archive changes only through its
    offspring; and a scan has one --extent for both axes."""
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: unrecognized arguments: {' '.join(argv[-2:])}"]
    assert not (tmp_path / "o").exists()


def test_config_split_seed_is_read_as_an_int(tmp_path):
    """A --config split-seed is compared with the partition as an int, as every
    setting is read by its type: split-seed=01 names partition 1."""
    assert main(["gen-data", "--seed", "1", "--out", str(tmp_path / "flag")]) == 0
    assert main(["gen-data", "--seed", "1", "--out", str(tmp_path / "config"),
                 "--config", _write(tmp_path / "s.cfg", "split-seed=01\n")]) == 0
    assert tree_bytes(tmp_path / "config") == tree_bytes(tmp_path / "flag")


def test_missing_command_is_one_error_line(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: the following arguments are required: command"]


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_with_one_error_line(case, fast_experts_dir, tmp_path, capsys):
    argv, expected = BAD_INPUTS[case](fast_experts_dir, tmp_path)
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert expected in lines[0]
    # A command that fails writes nothing.
    assert not any((tmp_path / "o").glob("*"))


# Each asks numpy for one array of 2^59 to 1.5 * 2^60 bytes: past any 64-bit
# address space (so the request fails at once and allocates nothing) and
# below numpy's 2^63-byte limit (past which it raises ValueError instead).
@pytest.mark.parametrize("argv", [
    ["pso", "--experts", "{experts}", "--swarm", str(2**55)],
    ["train-experts", "--hidden", str(2**52)],
    ["train-experts", "--m", str(2**28)],
    ["gen-data", "--m", str(2**28)],
    ["landscape", "--ckpt", "{experts}/expert_add.ckpt", "--grid", str(2**56)],
    ["convexity", "--ckpt", "{experts}/expert_add.ckpt", "--grid", str(2**56)],
    ["evolve", "--experts", "{experts}", "--pop", str(2**56)],
], ids=lambda argv: argv[0] + argv[-2])
def test_a_size_too_large_to_allocate_is_one_error_line(argv, fast_experts_dir, tmp_path, capsys):
    out = tmp_path / "o"
    assert main([a.format(experts=fast_experts_dir) for a in argv] + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate "), lines
    assert not any(out.glob("*"))


# What _experts_with_truncated_sub's expert_sub.ckpt gets.
TRUNCATED = "truncated checkpoint: ran out of bytes reading layer 0 values"

# name -> (argv, "{experts}" standing for the experts run, "{copy}" for a copy
# of it and "{cut}" for a copy whose expert_sub.ckpt is cut short; the expected
# "invalid config:" lines, in order, and any "error:" line, given in full)
BAD_SETTINGS = {
    "train-experts-recipe-and-sizes": (
        ["train-experts", "--m", "1", "--hidden", "0", "--lr", "0"],
        ["--m: must be >= 2, got 1", "--hidden: must be >= 1, got 0", "--lr: must be > 0, got 0.0"]),
    # Each step multiplies the weights by 1 - lr * wd: 0 here, which zeroes them.
    "train-experts-decay-factor-not-positive": (
        ["train-experts", "--lr", "0.5", "--weight-decay", "2"],
        ["--weight-decay: must be < 1 / learning rate, got 2.0 at learning rate 0.5"]),
    "convexity-grid-eigen-and-batch": (
        ["convexity", "--ckpt", "{experts}/expert_add.ckpt", "--grid", "1",
         "--eig-iters", "0", "--eig-tol", "0", "--hess-batch", "0"],
        ["--grid: must be >= 2, got 1",
         "--eig-iters: must be >= 1, got 0", "--eig-tol: must be > 0, got 0.0",
         "--hess-batch: must be >= 1, got 0"]),
    "landscape-grid": (
        ["landscape", "--ckpt", "{experts}/expert_add.ckpt", "--grid", "1", "--extent", "-1"],
        ["--extent: must be > 0, got -1.0", "--grid: must be >= 2, got 1"]),
    "pso-swarm-and-batch": (
        ["pso", "--experts", "{experts}", "--swarm", "1", "--opt-batch", "0"],
        ["--swarm: must be >= 2, got 1", "--opt-batch: must be >= 1, got 0"]),
    "evolve-seed-and-pop": (
        ["evolve", "--experts", "{experts}", "--seed", "-1", "--pop", "7"],
        ["--seed: must be >= 0, got -1", "--pop: must be even and >= 2, got 7"]),
    "gen-data-negative-n": (
        ["gen-data", "--n", "-1"],
        ["--n: must be >= 0, got -1"]),
    "evolve-batch-above-pool": (
        ["evolve", "--experts", "{experts}", "--opt-batch", "500"],
        ["--opt-batch: must be <= 127, the size of the pool it draws from, got 500"]),
    "evolve-pop-and-checkpoint-mismatch": (
        ["evolve", "--experts", "{cut}", "--pop", "7"],
        ["--pop: must be even and >= 2, got 7", f"error: {{cut}}/expert_sub.ckpt: {TRUNCATED}"]),
    "landscape-grid-and-unreadable-checkpoint": (
        ["landscape", "--ckpt", "{cut}/expert_sub.ckpt", "--grid", "1"],
        ["--grid: must be >= 2, got 1", f"error: {{cut}}/expert_sub.ckpt: {TRUNCATED}"]),
    "convexity-grid-and-checkpoint-mismatch": (
        ["convexity", "--ckpt", "{cut}/expert_sub.ckpt", "--grid", "1"],
        ["--grid: must be >= 2, got 1", f"error: {{cut}}/expert_sub.ckpt: {TRUNCATED}"]),
    # A non-finite float passes every bound check, so the coercion rejects it.
    "convexity-infinite-eig-tol": (
        ["convexity", "--ckpt", "{experts}/expert_add.ckpt", "--grid", "3", "--eig-tol", "inf"],
        ["error: --eig-tol: expected a finite float, got 'inf'"]),
    "landscape-infinite-extent": (
        ["landscape", "--ckpt", "{experts}/expert_add.ckpt", "--grid", "3", "--extent", "inf"],
        ["error: --extent: expected a finite float, got 'inf'"]),
    "landscape-extent-without-a-finite-axis": (
        ["landscape", "--ckpt", "{experts}/expert_add.ckpt", "--grid", "2", "--extent", "1e308"],
        ["--extent: must be <= 8.988465674311579e+307, got 1e+308"]),
    "weight-average-with-scale": (
        ["baseline", "--method", "weight-average", "--scale", "2", "--experts", "{experts}/nonexistent"],
        ["--scale: applies only to --method task-arithmetic, got 2.0",
         "error: {experts}/nonexistent/base.ckpt: No such file or directory"]),
    "baseline-nan-scale": (
        ["baseline", "--experts", "{experts}", "--method", "task-arithmetic", "--scale", "nan"],
        ["error: --scale: expected a finite float, got 'nan'"]),
    # A run's records are not replaced by a command that reads them.
    "eval-into-its-run": (
        ["eval", "--ckpt", "{copy}/expert_add.ckpt", "--out", "{copy}"],
        ["--out: must not be {copy}, the run this command reads"]),
    "evolve-pop-into-its-run": (
        ["evolve", "--experts", "{copy}", "--pop", "3", "--out", "{copy}/"],
        ["--out: must not be {copy}, the run this command reads", "--pop: must be even and >= 2, got 3"]),
    "baseline-infinite-scale": (
        ["baseline", "--experts", "{experts}", "--method", "task-arithmetic", "--scale=-inf"],
        ["error: --scale: expected a finite float, got '-inf'"]),
}


@pytest.mark.parametrize("case", list(BAD_SETTINGS))
def test_every_bad_setting_is_named_before_any_work(case, fast_experts_dir, tmp_path, capsys):
    """Exactly one invalid config line per bad setting (no numpy message), a
    checkpoint that does not load named after them, and nothing trained or
    written first, not even the --out directory."""
    argv, expected = BAD_SETTINGS[case]
    out = tmp_path / "o"
    dirs = dict(experts=fast_experts_dir, copy=shutil.copytree(fast_experts_dir, tmp_path / "copy"),
                cut=_experts_with_truncated_sub(fast_experts_dir, tmp_path))
    argv = [a.format(**dirs) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        line.format(**dirs) if line.startswith("error: ") else f"invalid config: {line.format(**dirs)}"
        for line in expected
    ]
    assert not out.exists()
    assert tree_bytes(dirs["copy"]) == tree_bytes(fast_experts_dir)


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
