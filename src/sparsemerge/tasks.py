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

    def label(self, a, b):
        """The class of (a, b): ints, or integer arrays for one label per pair."""
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
    # (a, b) in row-major order: row i is (i // m, i % m).
    pairs = np.stack(np.divmod(np.arange(m * m), m), axis=1)
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
    labels = spec.label(pairs[:, 0], pairs[:, 1]).astype(np.int64, copy=False)
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

    @classmethod
    def of(cls, params: ParameterSet) -> "MlpSpec":
        """The spec of the MLP ``params`` holds: the modulus and the hidden width are
        the output widths of fc3_w and fc1_w. Raises ValueError unless the layers
        are LAYER_NAMES, in order, with the shapes the spec gives them."""
        _require_layer_order(params)
        m = params["fc3_w"].shape[-1]
        if m < 2:
            raise ValueError(f"fc3_w has {m} output, expected a modulus >= 2")
        spec = cls(m, params["fc1_w"].shape[-1])
        wrong = [f"{name} is {list(arr.shape)}, expected {list(shape)}"
                 for (name, arr), shape in zip(params.layers, spec.shapes) if arr.shape != shape]
        if wrong:
            raise ValueError(f"does not fit widths {list(spec.widths)} (m={m}): {'; '.join(wrong)}")
        return spec


LAYER_NAMES = ("fc1_w", "fc1_b", "fc2_w", "fc2_b", "fc3_w", "fc3_b")


def _require_layer_order(p: ParameterSet) -> None:
    """Raise ValueError unless the layers of ``p`` are LAYER_NAMES, in order."""
    if p.names != LAYER_NAMES:
        raise ValueError(f"layers {', '.join(p.names)}, expected {', '.join(LAYER_NAMES)}")


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
    """Both hidden activations and the logits of one model on x (b, 2m), or
    of a stack of K models (every layer with a leading model axis) on x
    (K, b, 2m). Each rectifier works in place on its pre-activation."""
    a1 = x @ p["fc1_w"]
    a1 += p["fc1_b"][..., None, :]
    np.maximum(a1, 0.0, out=a1)
    a2 = a1 @ p["fc2_w"]
    a2 += p["fc2_b"][..., None, :]
    np.maximum(a2, 0.0, out=a2)
    logits = a2 @ p["fc3_w"]
    logits += p["fc3_b"][..., None, :]
    return a1, a2, logits


def forward(p: ParameterSet, inputs: np.ndarray) -> np.ndarray:
    """The logits of one model on ``inputs`` (b, 2m), or of a stack of K
    models on inputs (K, b, 2m): one row of m class scores per input."""
    return _forward_cached(p, inputs)[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities over the last axis, in a new array; ``logits`` is left as it is."""
    e = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean of -log p(label) over the rows of each model: a 0-d array for one
    model, one value per model for a stack."""
    # Each row's label, picked through a (rows, m) view of the probabilities.
    picked = probs.reshape(-1, probs.shape[-1])[np.arange(labels.size), labels.ravel()]
    log_p = np.log(np.maximum(picked.reshape(labels.shape), 1e-300))
    return -np.add.reduce(log_p, axis=-1) / labels.shape[-1]


def loss(p: ParameterSet, batch: Dataset) -> float:
    """Mean cross-entropy of one model on ``batch``: bit for bit the value
    ``loss_and_grad`` returns."""
    return float(_cross_entropy(softmax(forward(p, batch.inputs)), batch.labels))


def loss_and_grad(p: ParameterSet, batch: Dataset, tangent: np.ndarray | None = None,
                  lin: tuple | None = None) -> tuple:
    """Mean cross-entropy and its exact gradient via backpropagation.

    Every derivative it takes or returns is one float64 vector aligned with
    ``flatten(p)``: the gradient, the tangent and H * tangent. For a stack of
    K models (see ``params.stack``) on a batch with inputs (K, b, 2m) and
    labels (K, b), the loss is one mean per model and the gradient is aligned
    with ``flatten`` of the stack.

    Given a ``tangent``, it returns the exact Hessian-vector product
    H * tangent in place of the gradient: forward-over-reverse
    differentiation (Pearlmutter's R-operator) pushes the tangent through the
    forward pass and then through the backward pass, reusing its rectifier
    masks, whose second derivative is zero off the kinks. The forward and
    backward pass depend only on the point and the batch: given ``lin``, the
    ``linearize(p, batch)`` of this very ``p`` and ``batch`` (every Lanczos
    step of a cell, see ``landscape.convexity_grid``), it runs only the pass
    that follows them. A ``lin`` taken at another point or on another batch
    raises ValueError.
    """
    if lin is None:
        lin = linearize(p, batch)
    elif lin[0] is not p or lin[1] is not batch:
        raise ValueError("the linearization was taken at another point or on another batch")
    # A copy, so that no caller can write into the linearization's value.
    value = lin[-1].copy()
    if tangent is not None:
        return value, _r_op(lin, tangent)
    _, _, a1, a2, _, mask1, _, g, d_z2, _ = lin
    d_z1 = d_z2 @ p["fc2_w"].swapaxes(-1, -2)
    d_z1 *= mask1
    return value, _pull_back(p.layout, batch.inputs, a1, a2, d_z1, d_z2, g)[0]


def linearize(p: ParameterSet, batch: Dataset) -> tuple:
    """What ``loss_and_grad`` computes from the point and the batch alone:
    the point and the batch themselves, activations, probabilities, rectifier
    masks, the error g at the logits, its pullback d_z2 to the second
    pre-activation, and the loss value. The derivative passes take the layers
    of ``p`` by position, so they must be LAYER_NAMES in order."""
    _require_layer_order(p)
    if len(batch) == 0:
        raise ValueError("empty batch")
    y = batch.labels
    a1, a2, logits = _forward_cached(p, batch.inputs)
    probs = softmax(logits)
    value = _cross_entropy(probs, y)
    # Float masks: a product with a bool mask casts the mask on every use,
    # and an R-operator pass uses both twice. A rectifier's output is
    # positive exactly where its input is, NaN included.
    mask1 = (a1 > 0).astype(np.float64)
    mask2 = (a2 > 0).astype(np.float64)
    g = probs.copy()
    g.reshape(-1, g.shape[-1])[np.arange(y.size), y.ravel()] -= 1.0
    g /= len(batch)
    d_z2 = g @ p["fc3_w"].swapaxes(-1, -2)
    d_z2 *= mask2
    return p, batch, a1, a2, probs, mask1, mask2, g, d_z2, value


def _pull_back(layout, x, a1, a2, d_z1, d_z2, d_logits) -> tuple:
    """The layer derivatives that the errors at the three pre-activations give,
    each written into its slice of one new vector aligned with ``flatten``:
    that vector and its layer views."""
    flat = np.empty(layout.size)
    views = d_w1, d_b1, d_w2, d_b2, d_w3, d_b3 = layout.views(flat)
    np.matmul(x.swapaxes(-1, -2), d_z1, out=d_w1)
    np.add.reduce(d_z1, axis=-2, out=d_b1)
    np.matmul(a1.swapaxes(-1, -2), d_z2, out=d_w2)
    np.add.reduce(d_z2, axis=-2, out=d_b2)
    np.matmul(a2.swapaxes(-1, -2), d_logits, out=d_w3)
    np.add.reduce(d_logits, axis=-2, out=d_b3)
    return flat, views


def _r_op(lin: tuple, tangent: np.ndarray) -> np.ndarray:
    """H * tangent at the point that ``lin`` linearizes: the R-operator pass."""
    p, batch, a1, a2, probs, mask1, mask2, g, d_z2, _ = lin
    x, n = batch.inputs, len(batch)
    w2, w3 = p["fc2_w"], p["fc3_w"]
    layout = p.layout
    if tangent.shape != (layout.size,):
        raise ValueError(f"tangent has {tangent.shape} entries, the model needs {layout.size}")
    v1, c1, v2, c2, v3, c3 = layout.views(tangent)
    r_a1 = x @ v1
    r_a1 += c1[..., None, :]
    r_a1 *= mask1
    r_a2 = r_a1 @ w2
    r_a2 += a1 @ v2
    r_a2 += c2[..., None, :]
    r_a2 *= mask2
    r_logits = r_a2 @ w3
    r_logits += a2 @ v3
    r_logits += c3[..., None, :]
    # r_g = probs * (r_logits - sum(probs * r_logits)) / n, in r_logits' buffer.
    r_g = r_logits
    r_g -= np.add.reduce(probs * r_logits, axis=-1, keepdims=True)
    r_g *= probs
    r_g /= n
    r_d_z2 = r_g @ w3.swapaxes(-1, -2)
    r_d_z2 += g @ v3.swapaxes(-1, -2)
    r_d_z2 *= mask2
    r_d_z1 = r_d_z2 @ w2.swapaxes(-1, -2)
    r_d_z1 += d_z2 @ v2.swapaxes(-1, -2)
    r_d_z1 *= mask1
    hv, (_, _, h_w2, _, h_w3, _) = _pull_back(layout, x, a1, a2, r_d_z1, r_d_z2, r_g)
    # fc2_w's and fc3_w's terms are sums of two products, and a sum of two
    # terms has the same bits in either order.
    h_w2 += r_a1.swapaxes(-1, -2) @ d_z2
    h_w3 += r_a2.swapaxes(-1, -2) @ g
    return hv


def accuracy(p: ParameterSet, dataset: Dataset) -> float:
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    # An overflow is reported as the error below, not warned of.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward(p, dataset.inputs)
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits")
    pred = logits.argmax(axis=1)
    # int(): a Python float, equal to the mean of the matches.
    return int(np.count_nonzero(pred == dataset.labels)) / len(dataset)


def train(
    p: ParameterSet,
    dataset: Dataset,
    *,
    learning_rate: float,
    epochs: int,
    batch_size: int,
    seeds: list[int],
    weight_decay: float = 0.0,
) -> ParameterSet:
    """Plain mini-batch gradient descent, optionally with decoupled L2 shrink.

    No optimizer state: the result is a pure function of its arguments.
    ``seeds`` holds one shuffle seed per model. A stack of K models (see
    ``params.stack``) trains on a stacked dataset in lockstep, one step per
    batch for all K, and model k shuffles with ``seeds[k]``, so it takes
    exactly the steps it would take alone with that seed.

    Each step takes the flat gradient from one ``loss_and_grad`` call and
    updates, in place, the buffer of one private copy of ``p``: the values
    become ``values * shrink - learning_rate * grad``. ``train`` builds two
    sets, that copy and the result; the set it was given is never written.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")
    lead = dataset.labels.shape[:-1]  # () for one model, (K,) for a stack
    if p["fc1_w"].shape[:-2] != lead:
        raise ValueError(f"stack of models {p['fc1_w'].shape[:-2]} does not match dataset stack {lead}")
    n_models = lead[0] if lead else 1
    if len(seeds) != n_models:
        raise ValueError(f"train takes one shuffle seed per model, got {len(seeds)} for {n_models}")
    if p["fc1_w"].shape[-2] != dataset.inputs.shape[-1]:
        raise ValueError(
            f"inputs of width {dataset.inputs.shape[-1]} do not match fc1_w's {p['fc1_w'].shape[-2]} rows"
        )
    # Model k's rows start at k*n once the stack's rows are laid end to end.
    offsets = n * np.arange(len(seeds)).reshape(lead + (1,))
    inputs = dataset.inputs.reshape(-1, dataset.inputs.shape[-1])
    labels = dataset.labels.reshape(-1)
    # The one writable set: a private copy whose buffer each step updates in
    # place. It never leaves this function.
    params = unflatten(p, flatten(p))
    values = flatten(params)
    values.flags.writeable = True
    shrink = 1.0 - learning_rate * weight_decay
    # A non-finite gradient or an overflow leaves non-finite values, which a
    # set built from them rejects; that error, with its epoch, is the one report.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            orders = [substream(model_seed, TAG_SHUFFLE, epoch).permutation(n) for model_seed in seeds]
            order = np.reshape(orders, lead + (n,)) + offsets
            for start in range(0, n, batch_size):
                idx = order[..., start : start + batch_size]
                try:
                    _, grad = loss_and_grad(params, Dataset(inputs[idx], labels[idx]))
                    values *= shrink
                    grad *= learning_rate
                    values -= grad
                    if not np.isfinite(values).all():
                        unflatten(params, values)  # raises, naming the first non-finite layer
                except ValueError as exc:
                    raise ValueError(
                        f"training diverged at epoch {epoch + 1} of {epochs} "
                        f"(learning rate {learning_rate!r}): {exc}"
                    ) from None
    return unflatten(params, values)


@dataclass(frozen=True)
class ExpertTrainConfig:
    """Recipe producing the base and the two specialists.

    The base is trained briefly on the conflicting 50/50 mixture with no
    regularization, so it stays underfit. The experts then fine-tune from it
    with weight decay. At this recipe they memorize without generalizing: on
    seed 0 each scores 1.0 on its train pool and 0.43-0.50 on the held-out
    pool. Decay 0.003 gives the same, and 0.03 collapses to chance.
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
            # Each step multiplies the weights by 1 - lr * wd, which must stay positive.
            (self.learning_rate * self.weight_decay < 1, "weight_decay",
             f"must be < 1 / learning rate, got {self.weight_decay} at learning rate {self.learning_rate}"),
        )


def build_experts(
    tasks: tuple[ModularTaskSpec, ModularTaskSpec],
    seed: int,
    hidden: int = 32,
    recipe: ExpertTrainConfig = ExpertTrainConfig(),
) -> tuple[ParameterSet, ParameterSet, ParameterSet]:
    """Train (base, expert_add, expert_sub) on the train pools of ``tasks``,
    the twin tasks (add, then sub) of one modulus and one partition.

    The base initializes from ``seed`` and shuffles with ``[seed]``. Both
    experts then fine-tune from it in lockstep, as one stack of two models
    with shuffle seeds ``[7*seed + 1, 7*seed + 2]``.
    """
    add_train, sub_train = (full_split(spec, "train") for spec in tasks)
    mixture = Dataset(
        np.concatenate([add_train.inputs, sub_train.inputs]),
        np.concatenate([add_train.labels, sub_train.labels]),
    )
    sgd = dict(learning_rate=recipe.learning_rate, batch_size=recipe.batch_size)
    net = init_mlp(MlpSpec(tasks[0].modulus, hidden), seed)
    base = _train_phase("base", net, mixture, epochs=recipe.base_epochs, seeds=[seed], **sgd)
    # The two train pools always have the same size, so they stack.
    pools = Dataset(
        np.stack([add_train.inputs, sub_train.inputs]),
        np.stack([add_train.labels, sub_train.labels]),
    )
    experts = _train_phase("experts", stack([base, base]), pools, epochs=recipe.expert_epochs,
                           seeds=[7 * seed + 1, 7 * seed + 2], weight_decay=recipe.weight_decay, **sgd)
    expert_add, expert_sub = unstack(experts)
    return base, expert_add, expert_sub


def _train_phase(phase: str, p: ParameterSet, dataset: Dataset, **sgd) -> ParameterSet:
    """``train``, with a failure naming the phase of ``build_experts`` it ended."""
    try:
        return train(p, dataset, **sgd)
    except ValueError as exc:
        raise ValueError(f"{phase}: {exc}") from None
