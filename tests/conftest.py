import time

import numpy as np
import pytest

from sparsemerge import cli
from sparsemerge.cli import Settings, build_tasks, main as cli_main
from sparsemerge.params import ParameterSet, load_checkpoint
from sparsemerge.tasks import ModularTaskSpec, build_experts


def rand_pset(seed: int, shapes=None, sparsity: float = 0.0) -> ParameterSet:
    """Random model-shaped parameter set, optionally with exact zeros."""
    if shapes is None:
        shapes = [("w1", (4, 3)), ("b1", (3,)), ("w2", (3, 2)), ("b2", (2,))]
    rng = np.random.default_rng(seed)
    pairs = []
    for name, shape in shapes:
        arr = rng.standard_normal(shape)
        if sparsity > 0.0:
            mask = rng.random(shape) < sparsity
            arr = np.where(mask, 0.0, arr)
        pairs.append((name, arr))
    return ParameterSet.from_pairs(pairs)


def twin_tasks(modulus: int, split_seed: int) -> tuple[ModularTaskSpec, ModularTaskSpec]:
    """The twin tasks (add, then sub) of one modulus and one partition, by the
    rule of every command with no --op: ``cli.build_tasks``."""
    return build_tasks(Settings({}), modulus, split_seed)


@pytest.fixture
def built_sets(monkeypatch) -> list:
    """The layout of every ParameterSet built from here to the end of the test, in order."""
    built = []
    original = ParameterSet.__init__

    def counting(self, layout, flat):
        built.append(layout)
        original(self, layout, flat)

    monkeypatch.setattr(ParameterSet, "__init__", counting)
    return built


@pytest.fixture(scope="session")
def expert_bundle(experts5):
    """Fully-trained experts for seed 0: (base, expert_add, expert_sub, specs)."""
    return experts5[0]


@pytest.fixture(scope="session")
def experts5(experts_dir):
    """Trained experts for seeds 0..4, keyed by seed. Seed 0's are the
    checkpoints of experts_dir, which hold the trained models bit for bit."""
    out = {0: (*map(load_checkpoint, cli.expert_paths(experts_dir)), twin_tasks(13, split_seed=0))}
    for seed in range(1, 5):
        specs = twin_tasks(13, split_seed=seed)
        out[seed] = (*build_experts(specs, seed), specs)
    return out


@pytest.fixture(scope="session")
def experts_run(tmp_path_factory):
    """The CLI's experts run (seed 0, default recipe): its directory, and the
    (arguments, models) of each build_experts call it made."""
    out = tmp_path_factory.mktemp("experts_seed0")
    calls = []

    def recording(*args):
        calls.append((args, build_experts(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_experts", recording)
        assert cli_main(["train-experts", "--seed", "0", "--out", str(out)]) == 0
    return out, calls


@pytest.fixture(scope="session")
def experts_dir(experts_run):
    """CLI-produced experts run directory (seed 0, default recipe)."""
    return experts_run[0]


@pytest.fixture(scope="session")
def convexity_runs(experts_dir, tmp_path_factory):
    """Two CLI runs of the default 21x21 convexity map of seed 0's expert_add:
    their directories and wall times."""
    ckpt = experts_dir / "expert_add.ckpt"
    dirs = []
    durations = []
    for tag in ("one", "two"):
        out = tmp_path_factory.mktemp(f"conv_{tag}")
        started = time.time()
        code = cli_main(["convexity", "--ckpt", str(ckpt), "--grid", "21",
                         "--seed", "0", "--out", str(out)])
        durations.append(time.time() - started)
        assert code == 0
        dirs.append(out)
    return dirs, durations
