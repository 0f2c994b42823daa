"""Loss-surface scans and Hessian-based convexity maps.

A single gradient routine drives everything: Hessian-vector products come
from central finite differences of the gradient, and the extreme eigenvalues
from matrix-free power iteration with spectral shifts. Scans move along two
random directions rescaled layer-wise to the anchor model's norms.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import ParameterSet, flatten, unflatten
from .seeding import TAG_DIRECTIONS, TAG_EIG, derive_seed, substream
from .tasks import Dataset, loss, loss_and_grad

GradFn = Callable[[ParameterSet], ParameterSet]


def batch_grad(batch: Dataset) -> GradFn:
    """Gradient of the mean cross-entropy on a fixed batch."""
    def grad(theta: ParameterSet) -> ParameterSet:
        return loss_and_grad(theta, batch)[1]
    return grad


@dataclass(frozen=True)
class DirectionPair:
    d1: ParameterSet
    d2: ParameterSet
    seed: int


@dataclass(frozen=True)
class GridSpec:
    alpha_max: float = 1.0
    beta_max: float = 1.0
    resolution: int = 21
    eps: float = 1e-8

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        if self.alpha_max <= 0 or self.beta_max <= 0 or self.eps <= 0:
            raise ValueError("grid extents and eps must be > 0")

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
    return DirectionPair(dirs[0], dirs[1], seed)


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


def hvp(grad_fn: GradFn, theta: ParameterSet, v: ParameterSet, h: float = 1e-4) -> ParameterSet:
    """Hessian-vector product by central differences of the gradient.

    Uses (g(theta + h*v_hat) - g(theta - h*v_hat)) / (2h) * ||v|| with the
    probe normalized, so the step size is independent of ||v||.
    """
    flat_v = flatten(v)
    norm = float(np.linalg.norm(flat_v))
    if norm == 0.0:
        raise ValueError("zero-norm direction")
    flat_theta = flatten(theta)
    vhat = flat_v / norm
    g_plus = flatten(grad_fn(unflatten(theta, flat_theta + h * vhat)))
    g_minus = flatten(grad_fn(unflatten(theta, flat_theta - h * vhat)))
    return unflatten(theta, (g_plus - g_minus) * (norm / (2.0 * h)))


@dataclass(frozen=True)
class EigConfig:
    iters: int = 100
    tol: float = 1e-6
    h: float = 1e-4
    seed: int = 0
    # Estimates below zero_tol * spread are reported as exactly 0: the
    # finite-difference products cannot resolve eigenvalues that small.
    zero_tol: float = 1e-9

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if self.tol <= 0 or self.h <= 0 or self.zero_tol < 0:
            raise ValueError("tol and h must be > 0, zero_tol >= 0")


@dataclass(frozen=True)
class EigResult:
    lam_max: float
    lam_min: float
    converged: bool


def _power_iteration(
    op: Callable[[np.ndarray], np.ndarray], v0: np.ndarray, iters: int, tol: float
) -> tuple[float, bool]:
    """Rayleigh-quotient power iteration; returns (estimate, converged)."""
    v = v0 / np.linalg.norm(v0)
    estimate = None
    for _ in range(iters):
        w = op(v)
        w_norm = float(np.linalg.norm(w))
        if w_norm == 0.0:
            return 0.0, True  # operator annihilates the probe: eigenvalue 0
        rayleigh = float(v @ w)
        if estimate is not None and abs(rayleigh - estimate) <= tol * max(1.0, abs(rayleigh)):
            return rayleigh, True
        estimate = rayleigh
        v = w / w_norm
    return estimate if estimate is not None else 0.0, False


def extreme_eigs(
    grad_fn: GradFn, theta: ParameterSet, cfg: EigConfig = EigConfig()
) -> EigResult:
    """Extreme Hessian eigenvalues via shifted power iteration.

    A plain pass finds a dominant-magnitude estimate mu1 (a Rayleigh
    quotient, hence inside the spectrum). Power iteration on H - mu1*I then
    converges to the spectrum endpoint farthest from mu1, and shifting by
    that endpoint recovers the opposite one. Both reported values therefore
    come from properly shifted passes, which also handles the
    |lam_max| == |lam_min| saddle that defeats the unshifted iteration.
    """
    flat_theta = flatten(theta)
    n = flat_theta.size

    def op(u: np.ndarray) -> np.ndarray:
        return flatten(hvp(grad_fn, theta, unflatten(theta, u), cfg.h))

    v0 = substream(cfg.seed, TAG_EIG, n).standard_normal(n)
    mu1, _ = _power_iteration(op, v0, cfg.iters, cfg.tol)
    d2, ok2 = _power_iteration(lambda u: op(u) - mu1 * u, v0, cfg.iters, cfg.tol)
    mu2 = mu1 + d2
    d3, ok3 = _power_iteration(lambda u: op(u) - mu2 * u, v0, cfg.iters, cfg.tol)
    mu3 = mu2 + d3
    lam_max, lam_min = max(mu2, mu3), min(mu2, mu3)
    spread = max(abs(lam_max), abs(lam_min))
    if spread > 0.0:
        if abs(lam_max) <= cfg.zero_tol * spread:
            lam_max = 0.0
        if abs(lam_min) <= cfg.zero_tol * spread:
            lam_min = 0.0
    return EigResult(lam_max, lam_min, ok2 and ok3)


def convexity_score(lam_max: float, lam_min: float, eps: float) -> float:
    """clip(|lam_min| / (|lam_max| + eps), 0, 0.5)"""
    return float(np.clip(abs(lam_min) / (abs(lam_max) + eps), 0.0, 0.5))


@dataclass(frozen=True)
class ConvexityResult:
    convexity: np.ndarray
    lam_max: np.ndarray
    lam_min: np.ndarray
    loss: np.ndarray
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
    losses = np.zeros((r, r))
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
            losses[i, j] = loss(theta, dataset)
            flags[i, j] = result.converged
    return ConvexityResult(conv, lmax, lmin, losses, flags)


def write_grid_csv(path, grid: GridSpec, value: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j", "alpha", "beta", "value"])
        for i, alpha in enumerate(grid.alphas):
            for j, beta in enumerate(grid.betas):
                writer.writerow([i, j, repr(float(alpha)), repr(float(beta)), repr(float(value[i, j]))])


def write_convexity_csv(path, grid: GridSpec, result: ConvexityResult) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j", "alpha", "beta", "value", "lambda_max", "lambda_min", "converged"])
        for i, alpha in enumerate(grid.alphas):
            for j, beta in enumerate(grid.betas):
                writer.writerow(
                    [
                        i, j, repr(float(alpha)), repr(float(beta)),
                        repr(float(result.convexity[i, j])),
                        repr(float(result.lam_max[i, j])),
                        repr(float(result.lam_min[i, j])),
                        int(result.converged[i, j]),
                    ]
                )


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
