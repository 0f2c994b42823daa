"""Loss-surface scans and Hessian-based convexity maps.

The extreme Hessian eigenvalues of each cell come from one matrix-free
Lanczos run with full reorthogonalisation. Its Hessian-vector products are
exact on a batch's cross-entropy (Pearlmutter's R-operator, computed by
``tasks.loss_and_grad``) and central finite differences of any other
gradient function. Every exact product of a cell is taken at one point on
one read-only batch, so the forward and backward pass there run once per
cell and each product adds only the tangent's pass. Scans move along two
random directions rescaled layer-wise to the anchor model's norms.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import ParameterSet, check_fields, flatten, param_count, unflatten
from .seeding import TAG_DIRECTIONS, TAG_EIG, derive_seed, substream
from .tasks import Dataset, loss, loss_and_grad

GradFn = Callable[[ParameterSet], ParameterSet]

# Step of the finite-difference Hessian-vector product.
HVP_STEP = 1e-4
# Eigenvalue estimates below ZERO_TOL * spread are reported as exactly 0: they
# are below the rounding error of the products (about 1e-12 relative for the
# finite-difference ones), so a flat direction scores exactly 0.
ZERO_TOL = 1e-9
# A Lanczos residual below BREAKDOWN * spread is rounding error: the Krylov
# space is invariant and its Ritz values are exact eigenvalues.
BREAKDOWN = 1e-12


class _BatchGrad:
    """Gradient of the mean cross-entropy on a fixed batch; ``hvp`` takes the
    exact Hessian-vector product of this function instead of differencing it.

    The batch is a read-only copy, so ``tasks.loss_and_grad`` may reuse its
    linearization at a point across the HVPs taken there."""

    __slots__ = ("batch",)

    def __init__(self, batch: Dataset):
        inputs, labels = np.array(batch.inputs), np.array(batch.labels)
        inputs.flags.writeable = labels.flags.writeable = False
        self.batch = Dataset(inputs, labels)

    def __call__(self, theta: ParameterSet) -> ParameterSet:
        return loss_and_grad(theta, self.batch)[1]


def batch_grad(batch: Dataset) -> GradFn:
    """Gradient of the mean cross-entropy on a fixed batch."""
    return _BatchGrad(batch)


@dataclass(frozen=True)
class DirectionPair:
    d1: ParameterSet
    d2: ParameterSet


@dataclass(frozen=True)
class GridSpec:
    alpha_max: float = 1.0
    beta_max: float = 1.0
    resolution: int = 21
    eps: float = 1e-8

    def __post_init__(self):
        check_fields(
            (self.alpha_max > 0, "alpha_max", f"must be > 0, got {self.alpha_max}"),
            (self.beta_max > 0, "beta_max", f"must be > 0, got {self.beta_max}"),
            (self.resolution >= 2, "resolution", f"must be >= 2, got {self.resolution}"),
            (self.eps > 0, "eps", f"must be > 0, got {self.eps}"),
        )

    def axis(self, extent: float) -> np.ndarray:
        values = np.linspace(-extent, extent, self.resolution)
        if self.resolution % 2 == 1:
            values[self.resolution // 2] = 0.0  # center cell must be theta0 exactly
        return values

    @property
    def alphas(self) -> np.ndarray:
        return self.axis(self.alpha_max)

    @property
    def betas(self) -> np.ndarray:
        return self.axis(self.beta_max)


def random_directions(theta0: ParameterSet, seed: int) -> DirectionPair:
    """Two random directions, each layer rescaled to the anchor layer's norm."""
    rng = substream(seed, TAG_DIRECTIONS)
    dirs = []
    for _ in range(2):
        layers = []
        for name, arr in theta0.items():
            raw = rng.standard_normal(arr.shape)
            target = float(np.linalg.norm(arr))
            raw_norm = float(np.linalg.norm(raw))
            if target == 0.0 or raw_norm == 0.0:
                layers.append((name, np.zeros_like(arr)))
            else:
                layers.append((name, raw * (target / raw_norm)))
        dirs.append(ParameterSet.from_pairs(layers))
    return DirectionPair(dirs[0], dirs[1])


def point_params(
    theta0: ParameterSet, dirs: DirectionPair, alpha: float, beta: float
) -> ParameterSet:
    return unflatten(theta0, flatten(theta0) + alpha * flatten(dirs.d1) + beta * flatten(dirs.d2))


def loss_grid(
    theta0: ParameterSet, dirs: DirectionPair, grid: GridSpec, dataset: Dataset
) -> np.ndarray:
    alphas, betas = grid.alphas, grid.betas
    out = np.zeros((grid.resolution, grid.resolution))
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            out[i, j] = loss(point_params(theta0, dirs, float(alpha), float(beta)), dataset)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite loss encountered on the grid")
    return out


def hvp(grad_fn: GradFn, theta: ParameterSet, v: ParameterSet) -> ParameterSet:
    """Hessian-vector product H(theta) * v of the loss whose gradient is grad_fn.

    For a ``batch_grad`` gradient it is exact: one backpropagation with the
    tangent v (``tasks.loss_and_grad``). For any other gradient function it is
    the central difference (g(theta + h*v_hat) - g(theta - h*v_hat)) / (2h) * ||v||,
    h = HVP_STEP, with the probe normalized so that the step is independent
    of ||v||.
    """
    flat_v = flatten(v)
    norm = float(np.linalg.norm(flat_v))
    if norm == 0.0:
        raise ValueError("zero-norm direction")
    if isinstance(grad_fn, _BatchGrad):
        return loss_and_grad(theta, grad_fn.batch, v)[1]
    flat_theta = flatten(theta)
    vhat = flat_v / norm
    g_plus = flatten(grad_fn(unflatten(theta, flat_theta + HVP_STEP * vhat)))
    g_minus = flatten(grad_fn(unflatten(theta, flat_theta - HVP_STEP * vhat)))
    return unflatten(theta, (g_plus - g_minus) * (norm / (2.0 * HVP_STEP)))


@dataclass(frozen=True)
class EigConfig:
    """Lanczos step limit (capped at the parameter count), Ritz-residual
    tolerance relative to the spread, and start-vector seed."""

    iters: int = 100
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_fields(
            (self.iters >= 1, "iters", f"must be >= 1, got {self.iters}"),
            (self.tol > 0, "tol", f"must be > 0, got {self.tol}"),
        )


@dataclass(frozen=True)
class EigResult:
    lam_max: float
    lam_min: float
    converged: bool


def extreme_eigs(
    grad_fn: GradFn, theta: ParameterSet, cfg: EigConfig = EigConfig()
) -> EigResult:
    """Extreme Hessian eigenvalues by Lanczos with full reorthogonalisation.

    Each step takes one ``hvp`` of the newest basis vector, orthogonalises the
    product against the whole basis (two Gram-Schmidt passes) and extends the
    tridiagonal matrix T whose eigenvalues (Ritz values) approximate the
    spectrum from the inside. The run stops when the residuals |beta * s_last|
    of both extreme Ritz pairs are at most ``cfg.tol`` times the spread
    (the largest Ritz magnitude), or at breakdown (beta at rounding level: the
    Ritz values are exact), and takes at most min(cfg.iters, n) steps for n
    parameters. ``converged`` is False only when it stops at that limit.
    """
    n = param_count(theta)
    steps = min(cfg.iters, n)
    basis = np.zeros((steps, n))
    # T, written in place: step j's alpha on the diagonal, its beta beside it
    # (the spare last row and column take the final step's beta).
    tri = np.zeros((steps + 1, steps + 1))
    v0 = substream(cfg.seed, TAG_EIG, n).standard_normal(n)
    q = v0 / np.linalg.norm(v0)
    converged = False
    for j in range(steps):
        basis[j] = q
        w = flatten(hvp(grad_fn, theta, unflatten(theta, q)))
        tri[j, j] = q @ w
        span = basis[: j + 1]
        for _ in range(2):
            w = w - span.T @ (span @ w)
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(tri[: j + 1, : j + 1])
        spread = max(abs(ritz[0]), abs(ritz[-1]))
        residual = beta * max(abs(vecs[-1, 0]), abs(vecs[-1, -1]))
        if beta <= BREAKDOWN * spread or residual <= cfg.tol * spread:
            converged = True
            break
        tri[j, j + 1] = tri[j + 1, j] = beta
        q = w / beta
    lam_max, lam_min = float(ritz[-1]), float(ritz[0])
    if abs(lam_max) <= ZERO_TOL * spread:
        lam_max = 0.0
    if abs(lam_min) <= ZERO_TOL * spread:
        lam_min = 0.0
    return EigResult(lam_max, lam_min, converged)


def convexity_score(lam_max: float, lam_min: float, eps: float) -> float:
    """clip(|lam_min| / (|lam_max| + eps), 0, 0.5)"""
    return float(np.clip(abs(lam_min) / (abs(lam_max) + eps), 0.0, 0.5))


@dataclass(frozen=True)
class ConvexityResult:
    convexity: np.ndarray
    lam_max: np.ndarray
    lam_min: np.ndarray
    converged: np.ndarray


def convexity_grid(
    theta0: ParameterSet,
    dirs: DirectionPair,
    grid: GridSpec,
    dataset: Dataset,
    eig_cfg: EigConfig = EigConfig(),
) -> ConvexityResult:
    """Convexity proxy per grid cell; non-converged cells are flagged, never hidden."""
    r = grid.resolution
    conv = np.zeros((r, r))
    lmax = np.zeros((r, r))
    lmin = np.zeros((r, r))
    flags = np.zeros((r, r), dtype=bool)
    grad_fn = batch_grad(dataset)
    for i, alpha in enumerate(grid.alphas):
        for j, beta in enumerate(grid.betas):
            theta = point_params(theta0, dirs, float(alpha), float(beta))
            cell_cfg = dataclasses.replace(eig_cfg, seed=derive_seed(eig_cfg.seed, TAG_EIG, i, j))
            result = extreme_eigs(grad_fn, theta, cell_cfg)
            conv[i, j] = convexity_score(result.lam_max, result.lam_min, grid.eps)
            lmax[i, j] = result.lam_max
            lmin[i, j] = result.lam_min
            flags[i, j] = result.converged
    return ConvexityResult(conv, lmax, lmin, flags)


def write_grid_csv(path, grid: GridSpec, value: np.ndarray, **columns: np.ndarray) -> None:
    """One row per cell: i, j, alpha, beta, value, then each extra column;
    floats are written as repr, boolean flags as 0/1."""
    maps = [value, *columns.values()]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j", "alpha", "beta", "value", *columns])
        for i, alpha in enumerate(grid.alphas):
            for j, beta in enumerate(grid.betas):
                cells = [int(m[i, j]) if m.dtype == bool else repr(float(m[i, j])) for m in maps]
                writer.writerow([i, j, repr(float(alpha)), repr(float(beta)), *cells])


def write_convexity_csv(path, grid: GridSpec, result: ConvexityResult) -> None:
    write_grid_csv(path, grid, result.convexity,
                   lambda_max=result.lam_max, lambda_min=result.lam_min, converged=result.converged)


def write_pgm(path, matrix: np.ndarray) -> None:
    """8-bit P5 heatmap, min-max normalized over the grid, one pixel per cell."""
    lo = float(matrix.min())
    hi = float(matrix.max())
    span = hi - lo if hi > lo else 1.0
    pixels = np.round((matrix - lo) / span * 255.0).astype(np.uint8)
    header = f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(pixels.tobytes())
