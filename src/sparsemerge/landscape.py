"""Loss-surface scans and Hessian-based convexity maps.

The extreme Hessian eigenvalues of each cell come from one matrix-free
Lanczos run with full reorthogonalisation. Its Hessian-vector products are
exact on a batch's cross-entropy (Pearlmutter's R-operator, computed by
``tasks.loss_and_grad``). Each cell linearizes once at its point
(``tasks.linearize``: the forward and backward pass) and hands that to every
product it takes, so each product adds only the tangent's pass. A Lanczos
step takes only the eigenvalues of its tridiagonal matrix and screens the
stop test on them; the eigenvectors are taken only where the screen cannot
rule a stop out. Each cell after the first starts from the previous cell's
extreme Ritz vectors. Scans move along two random directions rescaled
layer-wise to the anchor model's norms.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .params import ParameterSet, check_fields, flatten, param_count, unflatten
from .seeding import TAG_DIRECTIONS, TAG_EIG, derive_seed, substream
from .tasks import Dataset, linearize, loss, loss_and_grad

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
class GridSpec:
    """A square scan: ``resolution`` points from -extent to extent on each axis."""

    extent: float = 1.0
    resolution: int = 21

    def __post_init__(self):
        # The axis spans 2 * extent, which must itself be a finite float.
        widest = sys.float_info.max / 2
        check_fields(
            (self.extent > 0, "extent", f"must be > 0, got {self.extent}"),
            (self.extent <= widest, "extent", f"must be <= {widest!r}, got {self.extent}"),
            (self.resolution >= 2, "resolution", f"must be >= 2, got {self.resolution}"),
        )

    @property
    def axis(self) -> np.ndarray:
        """The alpha values of the rows, and the beta values of the columns."""
        values = np.linspace(-self.extent, self.extent, self.resolution)
        if self.resolution % 2 == 1:
            values[self.resolution // 2] = 0.0  # center cell must be theta0 exactly
        return values


def random_directions(theta0: ParameterSet, seed: int) -> tuple[ParameterSet, ParameterSet]:
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
    return dirs[0], dirs[1]


def point_params(
    theta0: ParameterSet, dirs: tuple[ParameterSet, ParameterSet], alpha: float, beta: float
) -> ParameterSet:
    d1, d2 = dirs
    return unflatten(theta0, flatten(theta0) + alpha * flatten(d1) + beta * flatten(d2))


def _scan(theta0: ParameterSet, grid: GridSpec, seed: int, measure: Callable) -> list:
    """``measure(theta, i, j)`` at the point theta of every cell (i, j), row by
    row, along the directions that ``seed`` draws. The first cell whose model
    or measure is not finite (an overflow, which is not warned of) ends the
    scan with a ValueError that names it."""
    dirs = random_directions(theta0, seed)
    axis = list(map(float, grid.axis))
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, alpha in enumerate(axis):
            for j, beta in enumerate(axis):
                try:
                    values.append(measure(point_params(theta0, dirs, alpha, beta), i, j))
                except ValueError as exc:
                    raise ValueError(f"cell ({i}, {j}, alpha={alpha!r}, beta={beta!r}): {exc}") from None
    return values


def loss_grid(theta0: ParameterSet, grid: GridSpec, dataset: Dataset, seed: int) -> np.ndarray:
    """Loss at every cell of the scan that ``seed`` keys (see ``_scan``)."""

    def cell(theta: ParameterSet, i: int, j: int) -> float:
        value = loss(theta, dataset)
        if not math.isfinite(value):
            raise ValueError("non-finite loss")
        return value

    return np.array(_scan(theta0, grid, seed, cell)).reshape(grid.resolution, grid.resolution)


def hvp(lin: tuple, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product H * v of the mean cross-entropy on
    ``batch`` at ``theta``, given ``lin = linearize(theta, batch)``: one
    ``tasks.loss_and_grad`` call, which runs only the tangent's pass.

    ``v`` and the product are flat vectors aligned with ``flatten(theta)``.
    """
    return loss_and_grad(lin[0], lin[1], v, lin)[1]


@dataclass(frozen=True)
class EigConfig:
    """Lanczos step limit (capped at the parameter count) and Ritz-residual
    tolerance relative to the spread."""

    iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        check_fields(
            (self.iters >= 1, "iters", f"must be >= 1, got {self.iters}"),
            (self.tol > 0, "tol", f"must be > 0, got {self.tol}"),
        )


@dataclass(frozen=True)
class EigResult:
    """The extreme Ritz values, whether the run converged, the operator
    products it took, and the unit Ritz vectors of both extremes (which ``==``
    and repr leave out)."""

    lam_max: float
    lam_min: float
    converged: bool
    steps: int
    vec_max: np.ndarray = field(compare=False, repr=False)
    vec_min: np.ndarray = field(compare=False, repr=False)


def _may_stop(ritz: np.ndarray, previous: np.ndarray, beta: float, tol: float) -> bool:
    """Whether a Lanczos step may pass the stop test of ``extreme_eigs``:
    False only when the Ritz values of this step (``ritz``, of T_k, ascending)
    and of the last (``previous``, of T_{k-1}) show that it fails. By
    interlacing, the last component s_i of the unit eigenvector of T_k for
    theta_i has |s_i|^2 = prod_j (theta_i - mu_j) / prod_{j != i} (theta_i - theta_j).
    Each extreme's is taken as a product of ratios of paired factors, each in
    [0, 1] in exact arithmetic. Every numerator is shrunk and every
    denominator grown by the Ritz values' rounding error (k * eps * spread,
    plus the smallest normal float so that no denominator is 0), and every
    ratio is clipped to [0, 1]. So the product is a lower bound on |s_i|^2
    that is always finite, and it reads 0 where a Ritz value moved by less
    than rounding."""
    spread = max(abs(ritz[0]), abs(ritz[-1]))
    if beta <= BREAKDOWN * spread:
        return True
    noise = ritz.size * sys.float_info.epsilon * spread + sys.float_info.min
    top, bottom = ritz[-1], ritz[0]
    top_s2 = np.minimum(np.maximum((top - noise) - previous, 0.0)
                        / ((top + noise) - ritz[:-1]), 1.0).prod()
    bottom_s2 = np.minimum(np.maximum(previous - (bottom + noise), 0.0)
                           / (ritz[1:] - (bottom - noise)), 1.0).prod()
    bound = tol * spread
    return beta * math.sqrt(top_s2) <= bound and beta * math.sqrt(bottom_s2) <= bound


def extreme_eigs(
    matvec: Callable[[np.ndarray], np.ndarray], start: np.ndarray, cfg: EigConfig
) -> EigResult:
    """Extreme eigenvalues of a symmetric operator by Lanczos with full
    reorthogonalisation, started from ``start / ||start||``.

    ``matvec`` maps a flat vector of length n = ``start.size`` to a new float
    vector, its product with the operator (for a convexity cell, ``hvp`` at
    the cell's point); the run overwrites that vector. Each step takes one
    product of the newest basis vector, orthogonalises it in place against
    the whole basis (two Gram-Schmidt passes) and extends the tridiagonal
    matrix T whose eigenvalues (Ritz values) approximate the spectrum from
    the inside. The run stops when the residuals |beta * s_last| of both
    extreme Ritz pairs are at most ``cfg.tol`` times the spread (the largest
    Ritz magnitude), or at breakdown (beta at rounding level: the Ritz values
    are exact), and takes at most min(cfg.iters, n) steps. ``converged`` is
    False only when it stops at that limit. Each step takes only T's
    eigenvalues and screens the test on them (``_may_stop``); a step that
    passes the screen, and the last allowed one, take T's eigenvectors, which
    decide the stop and give the reported values and Ritz vectors. A product
    that is not finite raises ValueError.
    """
    n = start.size
    limit = min(cfg.iters, n)
    basis = np.empty((limit, n))  # row j is written at step j, before it is read
    # T, written in place: step j's alpha on the diagonal, its beta beside it
    # (the spare last row and column take the final step's beta).
    tri = np.zeros((limit + 1, limit + 1))
    q = start / np.linalg.norm(start)
    previous = np.empty(0)
    for j in range(limit):
        basis[j] = q
        w = matvec(q)
        tri[j, j] = q @ w
        span = basis[: j + 1]
        for _ in range(2):
            w -= span.T @ (span @ w)
        beta = math.sqrt(w.dot(w))
        if not math.isfinite(beta):
            raise ValueError(f"non-finite operator product at Lanczos step {j + 1}")
        ritz = np.linalg.eigvalsh(tri[: j + 1, : j + 1])
        if j + 1 == limit or _may_stop(ritz, previous, beta, cfg.tol):
            values, vecs = np.linalg.eigh(tri[: j + 1, : j + 1])
            spread = max(abs(values[0]), abs(values[-1]))
            residual = beta * max(abs(vecs[-1, 0]), abs(vecs[-1, -1]))
            converged = beta <= BREAKDOWN * spread or residual <= cfg.tol * spread
            if converged:
                break
        tri[j, j + 1] = tri[j + 1, j] = beta
        q = w / beta
        previous = ritz
    lam_max, lam_min = float(values[-1]), float(values[0])
    if abs(lam_max) <= ZERO_TOL * spread:
        lam_max = 0.0
    if abs(lam_min) <= ZERO_TOL * spread:
        lam_min = 0.0
    return EigResult(lam_max, lam_min, bool(converged), j + 1, vecs[:, -1] @ span, vecs[:, 0] @ span)


def convexity_score(lam_max: float, lam_min: float) -> float:
    """clip(|lam_min| / (|lam_max| + SCORE_EPS), 0, 0.5)"""
    return float(np.clip(abs(lam_min) / (abs(lam_max) + SCORE_EPS), 0.0, 0.5))


@dataclass(frozen=True)
class ConvexityResult:
    convexity: np.ndarray
    lam_max: np.ndarray
    lam_min: np.ndarray
    converged: np.ndarray
    steps: np.ndarray


def convexity_grid(
    theta0: ParameterSet, grid: GridSpec, dataset: Dataset, eig_cfg: EigConfig, seed: int
) -> ConvexityResult:
    """Convexity proxy at every cell of the scan that ``seed`` keys (see
    ``_scan``); non-converged cells are flagged, never hidden, and ``steps``
    counts each cell's Hessian-vector products. Cell (i, j) draws the standard
    normal vector s of ``substream(derive_seed(seed, TAG_EIG, i, j), TAG_EIG, n)``.
    Cell (0, 0) starts Lanczos from s; every later cell, in the scan's
    row-by-row order, from the sum of the previous cell's two extreme Ritz
    vectors plus 0.1 * s / ||s||, so a cell depends on the cells scanned
    before it and runs stay deterministic."""
    n = param_count(theta0)
    previous = None  # the last cell's EigResult, the only one kept

    def cell(theta: ParameterSet, i: int, j: int) -> tuple:
        nonlocal previous
        lin = linearize(theta, dataset)
        start = substream(derive_seed(seed, TAG_EIG, i, j), TAG_EIG, n).standard_normal(n)
        if previous is not None:
            start = previous.vec_max + previous.vec_min + 0.1 * start / np.linalg.norm(start)
        r = previous = extreme_eigs(lambda v: hvp(lin, v), start, eig_cfg)
        return convexity_score(r.lam_max, r.lam_min), r.lam_max, r.lam_min, r.converged, r.steps

    shape = (grid.resolution, grid.resolution)
    return ConvexityResult(*(np.array(m).reshape(shape) for m in zip(*_scan(theta0, grid, seed, cell))))


def write_grid_csv(path, grid: GridSpec, value: np.ndarray, **columns: np.ndarray) -> None:
    """One row per cell: i, j, alpha, beta, value, then each extra column;
    floats are written as repr, boolean flags as 0/1."""
    maps = [value, *columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j", "alpha", "beta", "value", *columns])
        axis = grid.axis
        for i, alpha in enumerate(axis):
            for j, beta in enumerate(axis):
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
