import numpy as np
import pytest

from sparsemerge.cli import Settings, build_tasks, main as cli_main
from sparsemerge.params import ParameterSet
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
def experts5():
    """Trained experts for seeds 0..4, keyed by seed."""
    out = {}
    for seed in range(5):
        specs = twin_tasks(13, split_seed=seed)
        out[seed] = (*build_experts(specs, seed), specs)
    return out


@pytest.fixture(scope="session")
def experts_dir(tmp_path_factory):
    """CLI-produced experts run directory (seed 0, default recipe)."""
    out = tmp_path_factory.mktemp("experts_seed0")
    code = cli_main(["train-experts", "--seed", "0", "--out", str(out)])
    assert code == 0
    return out
