"""Synthetic modular-arithmetic twin tasks and a small MLP trained on them.

Two conflicting specialists over one architecture: the same one-hot pair
(a, b) must map to (a+b) mod m on one task and (a-b) mod m on the other.
Experts are fine-tuned from a shared, deliberately underfit base, which
gives the merging experiments genuine tension between parents.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal

import numpy as np

from .params import ParameterSet, flatten, require_compatible, unflatten
from .seeding import TAG_DATA, TAG_INIT, TAG_SHUFFLE, substream


class ModularOp(Enum):
    ADD = "add"
    SUB = "sub"


@dataclass(frozen=True)
class ModularTaskSpec:
    """One modular-arithmetic task plus its train/test partition.

    ``split_seed`` shuffles the m*m input pairs once; the first quarter is
    held out as the test pool and the rest is the train pool. Optimization
    batches are resampled from the train pool, so train and test never share
    a pair.
    """

    modulus: int = 13
    op: ModularOp = ModularOp.ADD
    split_seed: int = 0
    test_fraction: float = 0.25

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")

    def label(self, a: int, b: int) -> int:
        if self.op is ModularOp.ADD:
            return (a + b) % self.modulus
        return (a - b) % self.modulus


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray  # (n, 2m) one-hot pairs
    labels: np.ndarray  # (n,) class indices in [0, m)

    def __len__(self) -> int:
        return len(self.labels)


Split = Literal["train", "opt", "test"]
_SPLIT_CODE = {"train": 0, "opt": 1, "test": 2}


def _pair_pools(spec: ModularTaskSpec) -> tuple[np.ndarray, np.ndarray]:
    m = spec.modulus
    pairs = np.array([(a, b) for a in range(m) for b in range(m)])
    rng = substream(spec.split_seed, TAG_DATA, m, 0 if spec.op is ModularOp.ADD else 1)
    perm = rng.permutation(len(pairs))
    n_test = max(1, int(round(spec.test_fraction * len(pairs))))
    return pairs[perm[n_test:]], pairs[perm[:n_test]]


def pool_sizes(spec: ModularTaskSpec) -> tuple[int, int]:
    train, test = _pair_pools(spec)
    return len(train), len(test)


def _encode(pairs: np.ndarray, spec: ModularTaskSpec) -> Dataset:
    m = spec.modulus
    n = len(pairs)
    inputs = np.zeros((n, 2 * m))
    inputs[np.arange(n), pairs[:, 0]] = 1.0
    inputs[np.arange(n), m + pairs[:, 1]] = 1.0
    labels = np.array([spec.label(int(a), int(b)) for a, b in pairs], dtype=np.int64)
    return Dataset(inputs, labels)


def sample_pairs(spec: ModularTaskSpec, which: Split, n: int, seed: int) -> np.ndarray:
    """Sample n distinct (a, b) pairs from the requested pool.

    "train" and "opt" both draw from the train pool (optimization batches are
    the dynamically resampled subsets); "test" draws from the held-out pool.
    """
    if which not in _SPLIT_CODE:
        raise ValueError(f"unknown split {which!r}")
    train_pool, test_pool = _pair_pools(spec)
    pool = test_pool if which == "test" else train_pool
    if n > len(pool):
        raise ValueError(f"n={n} exceeds available pairs ({len(pool)}) in split {which!r}")
    rng = substream(seed, TAG_DATA, _SPLIT_CODE[which], spec.split_seed)
    idx = rng.choice(len(pool), size=n, replace=False)
    return pool[idx]


def gen_dataset(spec: ModularTaskSpec, which: Split, n: int, seed: int) -> Dataset:
    return _encode(sample_pairs(spec, which, n, seed), spec)


def full_split(spec: ModularTaskSpec, which: Split) -> Dataset:
    """The entire train or test pool, in canonical order."""
    train_pool, test_pool = _pair_pools(spec)
    return _encode(test_pool if which == "test" else train_pool, spec)


@dataclass(frozen=True)
class MlpSpec:
    """Feed-forward net [2m, h, h, m] with rectifier hidden layers."""

    modulus: int = 13
    hidden: int = 32

    def __post_init__(self):
        if self.modulus < 2 or self.hidden < 1:
            raise ValueError(f"bad MlpSpec ({self.modulus}, {self.hidden})")

    @property
    def widths(self) -> tuple[int, int, int, int]:
        return (2 * self.modulus, self.hidden, self.hidden, self.modulus)

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """Shape of each layer in LAYER_NAMES, in order."""
        d_in, h, _, d_out = self.widths
        return ((d_in, h), (h,), (h, h), (h,), (h, d_out), (d_out,))


LAYER_NAMES = ("fc1_w", "fc1_b", "fc2_w", "fc2_b", "fc3_w", "fc3_b")


def init_mlp(spec: MlpSpec, seed: int) -> ParameterSet:
    """He-normal weights drawn layer by layer, zero biases."""
    rng = substream(seed, TAG_INIT)
    layers = []
    for name, shape in zip(LAYER_NAMES, spec.shapes):
        if len(shape) == 2:
            layers.append((name, rng.standard_normal(shape) * np.sqrt(2.0 / shape[0])))
        else:
            layers.append((name, np.zeros(shape)))
    return ParameterSet.from_pairs(layers)


def _forward_cached(p: ParameterSet, x: np.ndarray):
    z1 = x @ p["fc1_w"] + p["fc1_b"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ p["fc2_w"] + p["fc2_b"]
    a2 = np.maximum(z2, 0.0)
    logits = a2 @ p["fc3_w"] + p["fc3_b"]
    return z1, a1, z2, a2, logits


def forward(p: ParameterSet, inputs: np.ndarray) -> np.ndarray:
    return _forward_cached(p, inputs)[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss(p: ParameterSet, batch: Dataset) -> float:
    probs = softmax(forward(p, batch.inputs))
    picked = probs[np.arange(len(batch)), batch.labels]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def loss_and_grad(p: ParameterSet, batch: Dataset) -> tuple[float, ParameterSet]:
    """Mean cross-entropy and its exact gradient via backpropagation."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    x, y = batch.inputs, batch.labels
    n = len(y)
    z1, a1, z2, a2, logits = _forward_cached(p, x)
    probs = softmax(logits)
    picked = probs[np.arange(n), y]
    value = float(-np.log(np.maximum(picked, 1e-300)).mean())

    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    g /= n
    g_w3 = a2.T @ g
    g_b3 = g.sum(axis=0)
    d_a2 = g @ p["fc3_w"].T
    d_z2 = d_a2 * (z2 > 0)
    g_w2 = a1.T @ d_z2
    g_b2 = d_z2.sum(axis=0)
    d_a1 = d_z2 @ p["fc2_w"].T
    d_z1 = d_a1 * (z1 > 0)
    g_w1 = x.T @ d_z1
    g_b1 = d_z1.sum(axis=0)
    grads = dict(zip(LAYER_NAMES, (g_w1, g_b1, g_w2, g_b2, g_w3, g_b3)))
    return value, unflatten(p, np.concatenate([grads[name].ravel() for name in p.names]))


def accuracy(p: ParameterSet, dataset: Dataset) -> float:
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    pred = forward(p, dataset.inputs).argmax(axis=1)
    return float((pred == dataset.labels).mean())


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0 or self.batch_size < 1 or self.weight_decay < 0:
            raise ValueError("bad training configuration")


def train(p: ParameterSet, dataset: Dataset, cfg: TrainConfig) -> ParameterSet:
    """Plain mini-batch gradient descent, optionally with decoupled L2 shrink.

    No optimizer state: the result is a pure function of (p, dataset, cfg).
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    params = p
    shrink = 1.0 - cfg.learning_rate * cfg.weight_decay
    for epoch in range(cfg.epochs):
        order = substream(cfg.seed, TAG_SHUFFLE, epoch).permutation(len(dataset))
        for start in range(0, len(dataset), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = Dataset(dataset.inputs[idx], dataset.labels[idx])
            _, grad = loss_and_grad(params, batch)
            params = unflatten(params, flatten(params) * shrink - cfg.learning_rate * flatten(grad))
    return params


def twin_tasks(modulus: int = 13, split_seed: int = 0) -> tuple[ModularTaskSpec, ModularTaskSpec]:
    return (
        ModularTaskSpec(modulus, ModularOp.ADD, split_seed),
        ModularTaskSpec(modulus, ModularOp.SUB, split_seed),
    )


@dataclass(frozen=True)
class ExpertTrainConfig:
    """Recipe producing the base and the two specialists.

    The base is trained briefly on the conflicting 50/50 mixture with no
    regularization, so it stays underfit. The experts then fine-tune from it
    with weight decay, which the modular tasks need before they generalize
    past memorization of the train pairs.
    """

    base_epochs: int = 30
    expert_epochs: int = 8000
    learning_rate: float = 0.5
    batch_size: int = 32
    weight_decay: float = 0.012


def build_experts(
    seed: int,
    modulus: int = 13,
    hidden: int = 32,
    recipe: ExpertTrainConfig = ExpertTrainConfig(),
) -> tuple[ParameterSet, ParameterSet, ParameterSet]:
    """Train (base, expert_add, expert_sub) on the twin tasks."""
    add_spec, sub_spec = twin_tasks(modulus, split_seed=seed)
    add_train = full_split(add_spec, "train")
    sub_train = full_split(sub_spec, "train")
    mixture = Dataset(
        np.concatenate([add_train.inputs, sub_train.inputs]),
        np.concatenate([add_train.labels, sub_train.labels]),
    )
    net = init_mlp(MlpSpec(modulus, hidden), seed)
    base = train(
        net,
        mixture,
        TrainConfig(recipe.learning_rate, recipe.base_epochs, recipe.batch_size, seed),
    )
    expert_add = train(
        base,
        add_train,
        TrainConfig(
            recipe.learning_rate,
            recipe.expert_epochs,
            recipe.batch_size,
            seed * 7 + 1,
            recipe.weight_decay,
        ),
    )
    expert_sub = train(
        base,
        sub_train,
        TrainConfig(
            recipe.learning_rate,
            recipe.expert_epochs,
            recipe.batch_size,
            seed * 7 + 2,
            recipe.weight_decay,
        ),
    )
    require_compatible(expert_add, expert_sub)
    return base, expert_add, expert_sub
