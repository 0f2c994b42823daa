"""Synthetic modular-arithmetic twin tasks and a small MLP trained on them.

Two conflicting specialists over one architecture: the same one-hot pair
(a, b) must map to (a+b) mod m on one task and (a-b) mod m on the other.
Experts are fine-tuned from a shared, deliberately underfit base, which
gives the merging experiments genuine tension between parents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Literal

import numpy as np

from .params import ParameterSet, check_fields, flatten, stack, unflatten, unstack
from .seeding import TAG_DATA, TAG_INIT, TAG_SHUFFLE, substream


# Share of the m*m input pairs held out as the test pool.
TEST_FRACTION = 0.25


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

    def __post_init__(self):
        check_fields(
            (self.modulus >= 2, "modulus", f"must be >= 2, got {self.modulus}"),
            (self.split_seed >= 0, "split_seed", f"must be >= 0, got {self.split_seed}"),
        )

    def pool_size(self, which: str) -> int:
        """Pairs in the test pool, or in the train pool that "train" and "opt" draw from."""
        n_test = max(1, int(round(TEST_FRACTION * self.modulus**2)))
        return n_test if which == "test" else self.modulus**2 - n_test

    def label(self, a: int, b: int) -> int:
        if self.op is ModularOp.ADD:
            return (a + b) % self.modulus
        return (a - b) % self.modulus


@dataclass(frozen=True)
class Dataset:
    """Rows of one task, or of K tasks stacked along a leading model axis."""

    inputs: np.ndarray  # (n, 2m) one-hot pairs, or (K, n, 2m) for a stack
    labels: np.ndarray  # (n,) class indices in [0, m), or (K, n)

    def __len__(self) -> int:
        """Rows per model."""
        return self.labels.shape[-1]


Split = Literal["train", "opt", "test"]
_SPLIT_CODE = {"train": 0, "opt": 1, "test": 2}


def _pair_pools(spec: ModularTaskSpec) -> tuple[np.ndarray, np.ndarray]:
    m = spec.modulus
    pairs = np.array([(a, b) for a in range(m) for b in range(m)])
    rng = substream(spec.split_seed, TAG_DATA, m, 0 if spec.op is ModularOp.ADD else 1)
    perm = rng.permutation(len(pairs))
    n_test = spec.pool_size("test")
    return pairs[perm[n_test:]], pairs[perm[:n_test]]


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
        check_fields(
            (self.modulus >= 2, "modulus", f"must be >= 2, got {self.modulus}"),
            (self.hidden >= 1, "hidden", f"must be >= 1, got {self.hidden}"),
        )

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
    """Pre- and post-activations of one model on x (b, 2m), or of a stack of
    K models (every layer with a leading model axis) on x (K, b, 2m)."""
    z1 = x @ p["fc1_w"] + p["fc1_b"][..., None, :]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ p["fc2_w"] + p["fc2_b"][..., None, :]
    a2 = np.maximum(z2, 0.0)
    logits = a2 @ p["fc3_w"] + p["fc3_b"][..., None, :]
    return z1, a1, z2, a2, logits


def forward(p: ParameterSet, inputs: np.ndarray) -> np.ndarray:
    return _forward_cached(p, inputs)[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def loss(p: ParameterSet, batch: Dataset) -> float:
    probs = softmax(forward(p, batch.inputs))
    picked = probs[np.arange(len(batch)), batch.labels]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def loss_and_grad(p: ParameterSet, batch: Dataset, tangent: ParameterSet | None = None) -> tuple:
    """Mean cross-entropy and its exact gradient via backpropagation.

    For a stack of K models (see ``params.stack``) on a batch with inputs
    (K, b, 2m) and labels (K, b), the loss is one mean per model and the
    gradient is a stack laid out like ``p``.

    Given a ``tangent`` laid out like ``p``, it returns the exact
    Hessian-vector product H * tangent, laid out like ``p``, in place of the
    gradient: forward-over-reverse differentiation (Pearlmutter's R-operator)
    pushes the tangent through the forward pass and then through the backward
    pass, reusing its rectifier masks, whose second derivative is zero off the
    kinks. The forward and backward pass depend only on the point and the
    batch, so a tangent call on the same ``p`` and the same read-only batch
    as the tangent call before it (every Lanczos step of a cell, see
    ``landscape.batch_grad``) reuses them and runs only the tangent's pass.
    """
    if tangent is None:
        a1, a2, _, mask1, _, g, d_z2, value = _linearize(p, batch)
        d_z1 = (d_z2 @ p["fc2_w"].swapaxes(-1, -2)) * mask1
        return value, _assemble(p, (
            batch.inputs.swapaxes(-1, -2) @ d_z1, d_z1.sum(axis=-2),
            a1.swapaxes(-1, -2) @ d_z2, d_z2.sum(axis=-2),
            a2.swapaxes(-1, -2) @ g, g.sum(axis=-2),
        ))
    global _last_linearization
    memo = _last_linearization
    if memo[0] is p and memo[1] is batch:
        lin = memo[2]
    else:
        lin = _linearize(p, batch)
        if not (batch.inputs.flags.writeable or batch.labels.flags.writeable):
            _last_linearization = (p, batch, lin)
    # A copy, so that no caller can write into the value a later hit returns.
    return lin[-1].copy(), _r_op(p, batch, lin, tangent)


# (point, batch, _linearize(point, batch)) of the last tangent call on a
# read-only batch. The set and the batch are immutable and held here, so an
# identity match is the same point on the same rows; one entry stays alive.
_last_linearization: tuple = (None, None, None)


def _linearize(p: ParameterSet, batch: Dataset) -> tuple:
    """What ``loss_and_grad`` computes from the point and the batch alone:
    activations, probabilities, rectifier masks, the error g at the logits,
    its pullback d_z2 to the second pre-activation, and the loss value."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    y = batch.labels
    z1, a1, z2, a2, logits = _forward_cached(p, batch.inputs)
    probs = softmax(logits)
    # Each row's label, picked through a (rows, m) view of the probabilities.
    rows, labels = np.arange(y.size), y.ravel()
    picked = probs.reshape(-1, probs.shape[-1])[rows, labels].reshape(y.shape)
    value = -np.log(np.maximum(picked, 1e-300)).mean(axis=-1)
    mask1, mask2 = z1 > 0, z2 > 0
    g = probs.copy()
    g.reshape(-1, g.shape[-1])[rows, labels] -= 1.0
    g /= len(batch)
    d_z2 = (g @ p["fc3_w"].swapaxes(-1, -2)) * mask2
    return a1, a2, probs, mask1, mask2, g, d_z2, value


def _r_op(p: ParameterSet, batch: Dataset, lin: tuple, tangent: ParameterSet) -> ParameterSet:
    """H * tangent at the point that ``lin`` linearizes: the R-operator pass."""
    x, n = batch.inputs, len(batch)
    w2, w3 = p["fc2_w"], p["fc3_w"]
    a1, a2, probs, mask1, mask2, g, d_z2, _ = lin
    v1, c1, v2, c2, v3, c3 = (tangent[name] for name in LAYER_NAMES)
    r_a1 = (x @ v1 + c1[..., None, :]) * mask1
    r_a2 = (r_a1 @ w2 + a1 @ v2 + c2[..., None, :]) * mask2
    r_logits = r_a2 @ w3 + a2 @ v3 + c3[..., None, :]
    r_g = probs * (r_logits - (probs * r_logits).sum(axis=-1, keepdims=True)) / n
    r_d_z2 = (r_g @ w3.swapaxes(-1, -2) + g @ v3.swapaxes(-1, -2)) * mask2
    r_d_z1 = (r_d_z2 @ w2.swapaxes(-1, -2) + d_z2 @ v2.swapaxes(-1, -2)) * mask1
    return _assemble(p, (
        x.swapaxes(-1, -2) @ r_d_z1,
        r_d_z1.sum(axis=-2),
        r_a1.swapaxes(-1, -2) @ d_z2 + a1.swapaxes(-1, -2) @ r_d_z2,
        r_d_z2.sum(axis=-2),
        r_a2.swapaxes(-1, -2) @ g + a2.swapaxes(-1, -2) @ r_g,
        r_g.sum(axis=-2),
    ))


def _assemble(p: ParameterSet, layers) -> ParameterSet:
    """One array per name in LAYER_NAMES, as a set laid out like ``p``."""
    by_name = dict(zip(LAYER_NAMES, layers))
    return unflatten(p, np.concatenate([by_name[name].ravel() for name in p.names]))


def accuracy(p: ParameterSet, dataset: Dataset) -> float:
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    pred = forward(p, dataset.inputs).argmax(axis=1)
    return float((pred == dataset.labels).mean())


def train(
    p: ParameterSet,
    dataset: Dataset,
    *,
    learning_rate: float,
    epochs: int,
    batch_size: int,
    seed: int,
    weight_decay: float = 0.0,
) -> ParameterSet:
    """Plain mini-batch gradient descent, optionally with decoupled L2 shrink.

    No optimizer state: the result is a pure function of its arguments. A
    stack of K models (see ``params.stack``) trains on a stacked dataset in
    lockstep, one step per batch for all K. Model k shuffles with seed
    ``seed + k``, so it takes exactly the steps it would take alone.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")
    lead = dataset.labels.shape[:-1]  # () for one model, (K,) for a stack
    if p["fc1_w"].shape[:-2] != lead:
        raise ValueError(f"stack of models {p['fc1_w'].shape[:-2]} does not match dataset stack {lead}")
    seeds = [seed + k for k in range(math.prod(lead))]
    # Model k's rows start at k*n once the stack's rows are laid end to end.
    offsets = n * np.arange(len(seeds)).reshape(lead + (1,))
    inputs = dataset.inputs.reshape(-1, dataset.inputs.shape[-1])
    labels = dataset.labels.reshape(-1)
    params = p
    shrink = 1.0 - learning_rate * weight_decay
    # An overflow leaves non-finite values, which the ParameterSet built at
    # each step rejects; that error, with its epoch, is the one report.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            orders = [substream(model_seed, TAG_SHUFFLE, epoch).permutation(n) for model_seed in seeds]
            order = np.reshape(orders, lead + (n,)) + offsets
            for start in range(0, n, batch_size):
                idx = order[..., start : start + batch_size]
                try:
                    _, grad = loss_and_grad(params, Dataset(inputs[idx], labels[idx]))
                    params = unflatten(params, flatten(params) * shrink - learning_rate * flatten(grad))
                except ValueError as exc:
                    raise ValueError(
                        f"training diverged at epoch {epoch + 1} of {epochs} "
                        f"(learning rate {learning_rate!r}): {exc}"
                    ) from None
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

    def __post_init__(self):
        check_fields(
            (self.base_epochs >= 0, "base_epochs", f"must be >= 0, got {self.base_epochs}"),
            (self.expert_epochs >= 0, "expert_epochs", f"must be >= 0, got {self.expert_epochs}"),
            (self.learning_rate > 0, "learning_rate", f"must be > 0, got {self.learning_rate}"),
            (self.batch_size >= 1, "batch_size", f"must be >= 1, got {self.batch_size}"),
            (self.weight_decay >= 0, "weight_decay", f"must be >= 0, got {self.weight_decay}"),
        )


def build_experts(
    seed: int,
    modulus: int = 13,
    hidden: int = 32,
    recipe: ExpertTrainConfig = ExpertTrainConfig(),
) -> tuple[ParameterSet, ParameterSet, ParameterSet]:
    """Train (base, expert_add, expert_sub) on the twin tasks.

    Both experts fine-tune from the base in lockstep, as one stack of two
    models; expert_add shuffles with seed 7*seed + 1 and expert_sub with
    7*seed + 2.
    """
    add_spec, sub_spec = twin_tasks(modulus, split_seed=seed)
    add_train = full_split(add_spec, "train")
    sub_train = full_split(sub_spec, "train")
    mixture = Dataset(
        np.concatenate([add_train.inputs, sub_train.inputs]),
        np.concatenate([add_train.labels, sub_train.labels]),
    )
    sgd = dict(learning_rate=recipe.learning_rate, batch_size=recipe.batch_size)
    base = train(init_mlp(MlpSpec(modulus, hidden), seed), mixture, epochs=recipe.base_epochs, seed=seed, **sgd)
    # The two train pools always have the same size, so they stack.
    pools = Dataset(
        np.stack([add_train.inputs, sub_train.inputs]),
        np.stack([add_train.labels, sub_train.labels]),
    )
    experts = train(
        stack([base, base]), pools,
        epochs=recipe.expert_epochs, seed=seed * 7 + 1, weight_decay=recipe.weight_decay, **sgd,
    )
    expert_add, expert_sub = unstack(experts)
    return base, expert_add, expert_sub
