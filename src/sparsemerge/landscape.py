"""Loss-surface scans and Hessian-based convexity maps.

The extreme Hessian eigenvalues of each cell come from one matrix-free
Lanczos run with full reorthogonalisation. Its Hessian-vector products are
exact on a batch's cross-entropy (Pearlmutter's R-operator, computed by
``tasks.loss_and_grad``). Every product of a cell is taken at one point on
one read-only batch, so the forward and backward pass there run once per
cell and each product adds only the tangent's pass. Scans move along two
random directions rescaled layer-wise to the anchor model's norms.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import ParameterSet, check_fields, flatten, param_count, unflatten
from .seeding import TAG_DIRECTIONS, TAG_EIG, derive_seed, substream
from .tasks import Dataset, loss, loss_and_grad

# Eigenvalue estimates below ZERO_TOL * spread are reported as exactly 0: they
# are below the rounding error of the products, so a flat direction scores
# exactly 0.
ZERO_TOL = 1e-9
# A Lanczos residual below BREAKDOWN * spread is rounding error: the Krylov
# space is invariant and its Ritz values are exact eigenvalues.
BREAKDOWN = 1e-12
# Keeps the convexity score finite where lambda_max is exactly 0.
SCORE_EPS = 1e-8


@dataclass(frozen=True)
class DirectionPair:
    d1: ParameterSet
    d2: ParameterSet


@dataclass(frozen=True)
class GridSpec:
    alpha_max: float = 1.0
    beta_max: float = 1.0
    resolution: int = 21

    def __post_init__(self):
        # An axis spans 2 * extent, which must itself be a finite float.
        widest = sys.float_info.max / 2
        check_fields(
            (self.alpha_max > 0, "alpha_max", f"must be > 0, got {self.alpha_max}"),
            (self.alpha_max <= widest, "alpha_max", f"must be <= {widest!r}, got {self.alpha_max}"),
            (self.beta_max > 0, "beta_max", f"must be > 0, got {self.beta_max}"),
            (self.beta_max <= widest, "beta_max", f"must be <= {widest!r}, got {self.beta_max}"),
            (self.resolution >= 2, "resolution", f"must be >= 2, got {self.resolution}"),
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
        for name, arr in theta0.layers:
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
    """Loss at every cell; the first cell whose model or loss is not finite
    (an overflow, which is not warned of) ends the scan with a ValueError
    that names it."""
    out = np.zeros((grid.resolution, grid.resolution))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, alpha in enumerate(map(float, grid.alphas)):
            for j, beta in enumerate(map(float, grid.betas)):
                try:
                    out[i, j] = loss(point_params(theta0, dirs, alpha, beta), dataset)
                    if not np.isfinite(out[i, j]):
                        raise ValueError("non-finite loss")
                except ValueError as exc:
                    raise ValueError(f"cell ({i}, {j}, alpha={alpha!r}, beta={beta!r}): {exc}") from None
    return out


def hvp(theta: ParameterSet, batch: Dataset, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product H(theta) * v of the mean cross-entropy on
    ``batch``: one backpropagation with the tangent v (``tasks.loss_and_grad``).

    ``v`` and the product are flat vectors aligned with ``flatten(theta)``.
    """
    return loss_and_grad(theta, batch, v)[1]


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
    matvec: Callable[[np.ndarray], np.ndarray], n: int, cfg: EigConfig = EigConfig()
) -> EigResult:
    """Extreme eigenvalues of a symmetric operator by Lanczos with full
    reorthogonalisation.

    ``matvec`` maps a flat vector of length n to its product with the
    operator (for a convexity cell, ``hvp`` at the cell's point). Each step
    takes one product of the newest basis vector, orthogonalises it against
    the whole basis (two Gram-Schmidt passes) and extends the tridiagonal
    matrix T whose eigenvalues (Ritz values) approximate the spectrum from
    the inside. The run stops when the residuals |beta * s_last| of both
    extreme Ritz pairs are at most ``cfg.tol`` times the spread (the largest
    Ritz magnitude), or at breakdown (beta at rounding level: the Ritz values
    are exact), and takes at most min(cfg.iters, n) steps. ``converged`` is
    False only when it stops at that limit. A product that is not finite
    raises ValueError.
    """
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
        w = matvec(q)
        tri[j, j] = q @ w
        span = basis[: j + 1]
        for _ in range(2):
            w = w - span.T @ (span @ w)
        beta = float(np.linalg.norm(w))
        if not math.isfinite(beta):
            raise ValueError(f"non-finite operator product at Lanczos step {j + 1}")
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


def convexity_score(lam_max: float, lam_min: float) -> float:
    """clip(|lam_min| / (|lam_max| + SCORE_EPS), 0, 0.5)"""
    return float(np.clip(abs(lam_min) / (abs(lam_max) + SCORE_EPS), 0.0, 0.5))


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
    """Convexity proxy per grid cell; non-converged cells are flagged, never
    hidden. A cell whose model or Hessian products are not finite (an
    overflow, which is not warned of) ends the map with a ValueError that
    names it."""
    r = grid.resolution
    conv = np.zeros((r, r))
    lmax = np.zeros((r, r))
    lmin = np.zeros((r, r))
    flags = np.zeros((r, r), dtype=bool)
    # A read-only copy, so that every product of a cell reuses the
    # linearization ``loss_and_grad`` took at the cell's point.
    inputs, labels = np.array(dataset.inputs), np.array(dataset.labels)
    inputs.flags.writeable = labels.flags.writeable = False
    batch = Dataset(inputs, labels)
    n = param_count(theta0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, alpha in enumerate(map(float, grid.alphas)):
            for j, beta in enumerate(map(float, grid.betas)):
                cell_cfg = dataclasses.replace(eig_cfg, seed=derive_seed(eig_cfg.seed, TAG_EIG, i, j))
                try:
                    theta = point_params(theta0, dirs, alpha, beta)
                    result = extreme_eigs(lambda v: hvp(theta, batch, v), n, cell_cfg)
                except ValueError as exc:
                    raise ValueError(f"cell ({i}, {j}, alpha={alpha!r}, beta={beta!r}): {exc}") from None
                conv[i, j] = convexity_score(result.lam_max, result.lam_min)
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
