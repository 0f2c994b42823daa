import numpy as np
import pytest

from conftest import twin_tasks
from sparsemerge import landscape, tasks
from sparsemerge.landscape import (
    EigConfig,
    GridSpec,
    convexity_grid,
    convexity_score,
    extreme_eigs,
    hvp,
    loss_grid,
    point_params,
    random_directions,
    write_convexity_csv,
    write_grid_csv,
    write_pgm,
)
from sparsemerge.params import ParameterSet, flatten, load_checkpoint, param_count, unflatten
from sparsemerge.seeding import TAG_EIG, derive_seed
from sparsemerge.tasks import (
    MlpSpec,
    ModularOp,
    ModularTaskSpec,
    full_split,
    gen_dataset,
    init_mlp,
    loss,
    loss_and_grad,
)


def diagonal(*entries: float):
    """The symmetric operator diag(entries) and its size, as extreme_eigs takes them."""
    d = np.array(entries)
    return (lambda v: d * v), d.size


def counting(fn):
    """``fn`` and the one-entry count of the calls made through it."""
    count = [0]

    def counted(*args):
        count[0] += 1
        return fn(*args)

    return counted, count


def hessian_of(theta: ParameterSet, batch):
    """The Hessian of the batch's mean cross-entropy at theta, as extreme_eigs takes it."""
    return (lambda v: hvp(theta, batch, v)), param_count(theta)


def small_net_and_batch():
    net = init_mlp(MlpSpec(2, 3), 0)
    batch = gen_dataset(ModularTaskSpec(2, ModularOp.ADD), "train", 3, seed=0)
    return net, batch


def dense_hessian(theta: ParameterSet, batch, h: float = 1e-5) -> np.ndarray:
    """Central differences of the batch's gradients, one column per parameter."""
    flat = flatten(theta)
    n = flat.size
    hess = np.zeros((n, n))
    for j in range(n):
        bumped = flat.copy()
        bumped[j] += h
        g_plus = loss_and_grad(unflatten(theta, bumped), batch)[1]
        bumped[j] -= 2 * h
        g_minus = loss_and_grad(unflatten(theta, bumped), batch)[1]
        hess[:, j] = (g_plus - g_minus) / (2 * h)
    return (hess + hess.T) / 2.0


def test_direction_norms_match_anchor():
    theta = init_mlp(MlpSpec(13, 32), 0)
    dirs = random_directions(theta, seed=5)
    for d in (dirs.d1, dirs.d2):
        for name, arr in theta.layers:
            assert np.linalg.norm(d[name]) == pytest.approx(np.linalg.norm(arr), abs=1e-9)


def test_zero_norm_layer_gets_zero_direction():
    theta = ParameterSet.from_pairs([("a", np.ones(4)), ("b", np.zeros(3))])
    dirs = random_directions(theta, seed=0)
    assert np.array_equal(dirs.d1["b"], np.zeros(3))
    assert np.array_equal(dirs.d2["b"], np.zeros(3))


def test_directions_deterministic():
    theta = init_mlp(MlpSpec(5, 4), 1)
    d_a = random_directions(theta, seed=3)
    d_b = random_directions(theta, seed=3)
    assert np.array_equal(flatten(d_a.d1), flatten(d_b.d1))
    assert np.array_equal(flatten(d_a.d2), flatten(d_b.d2))


def test_point_params_identity_and_offsets():
    theta = init_mlp(MlpSpec(5, 4), 0)
    dirs = random_directions(theta, seed=1)
    center = point_params(theta, dirs, 0.0, 0.0)
    assert np.array_equal(flatten(center), flatten(theta))
    shifted = point_params(theta, dirs, 1.0, 0.0)
    assert np.allclose(flatten(shifted), flatten(theta) + flatten(dirs.d1), atol=0, rtol=0)


def test_point_params_linearity():
    theta = init_mlp(MlpSpec(5, 4), 0)
    dirs = random_directions(theta, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a1, a2 = rng.standard_normal(2)
        lhs = flatten(point_params(theta, dirs, a1 + a2, 0.0))
        rhs = flatten(point_params(theta, dirs, a1, 0.0)) + a2 * flatten(dirs.d1)
        assert np.allclose(lhs, rhs, atol=1e-12, rtol=0)


def test_loss_grid_center_and_determinism():
    net, batch = small_net_and_batch()
    dirs = random_directions(net, seed=2)
    grid = GridSpec(0.5, 0.5, 5)
    values = loss_grid(net, dirs, grid, batch)
    assert values.shape == (5, 5)
    assert values[2, 2] == loss(net, batch)
    assert np.array_equal(values, loss_grid(net, dirs, grid, batch))
    assert np.all(np.isfinite(values))


def test_converged_expert_sits_in_local_basin(expert_bundle):
    _, expert_add, _, (add_spec, _) = expert_bundle
    train = full_split(add_spec, "train")
    dirs = random_directions(expert_add, seed=0)
    grid = GridSpec(0.1, 0.1, 3)
    m = loss_grid(expert_add, dirs, grid, train)
    assert m[1, 1] <= m[0, 1] and m[1, 1] <= m[2, 1]
    assert m[1, 1] <= m[1, 0] and m[1, 1] <= m[1, 2]


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(resolution=1)
    with pytest.raises(ValueError):
        GridSpec(alpha_max=0.0)


def test_hvp_linearity():
    net, batch = small_net_and_batch()
    rng = np.random.default_rng(4)
    v = rng.standard_normal(flatten(net).size)
    for scale in (0.5, 2.0, -3.0):
        lhs = hvp(net, batch, scale * v)
        rhs = scale * hvp(net, batch, v)
        denom = max(np.max(np.abs(rhs)), 1e-12)
        assert np.max(np.abs(lhs - rhs)) / denom < 1e-5


def test_hvp_symmetry():
    net, batch = small_net_and_batch()
    rng = np.random.default_rng(8)
    n = flatten(net).size
    assert n <= 100
    point = unflatten(net, flatten(net) + 0.2 * rng.standard_normal(n))
    for _ in range(5):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        left = float(hvp(point, batch, u) @ v)
        right = float(u @ hvp(point, batch, v))
        assert abs(left - right) / max(abs(left), abs(right), 1e-12) < 1e-5


def test_convexity_grid_linearizes_each_cell_once_on_a_read_only_copy(monkeypatch):
    net, batch = small_net_and_batch()
    inputs, labels = batch.inputs.copy(), batch.labels.copy()
    hvp_counted, products = counting(landscape.hvp)
    linearize_counted, linearized = counting(tasks._linearize)
    monkeypatch.setattr(landscape, "hvp", hvp_counted)
    monkeypatch.setattr(tasks, "_linearize", linearize_counted)
    grid = GridSpec(0.3, 0.3, 2)
    convexity_grid(net, random_directions(net, seed=7), grid, batch, EigConfig(iters=5))
    assert linearized[0] == 4 < products[0]
    # The caller's batch stays its own: writable and unchanged.
    assert batch.inputs.flags.writeable and batch.labels.flags.writeable
    assert np.array_equal(batch.inputs, inputs) and np.array_equal(batch.labels, labels)


def test_extreme_eigs_convex_quadratic():
    # The Hessian of L = w1^2 + w2^2.
    result = extreme_eigs(*diagonal(2.0, 2.0), EigConfig(iters=500, tol=1e-11))
    assert result.lam_max == pytest.approx(2.0, abs=1e-6)
    assert result.lam_min == pytest.approx(2.0, abs=1e-6)
    assert convexity_score(result.lam_max, result.lam_min) == 0.5


def test_extreme_eigs_symmetric_saddle():
    # The Hessian of L = w1^2 - w2^2.
    result = extreme_eigs(*diagonal(2.0, -2.0), EigConfig(iters=500, tol=1e-11))
    assert result.lam_max == pytest.approx(2.0, abs=1e-6)
    assert result.lam_min == pytest.approx(-2.0, abs=1e-6)
    assert convexity_score(result.lam_max, result.lam_min) == 0.5


def test_extreme_eigs_flat_direction():
    # The Hessian of L = w1^2 with w2 unused.
    result = extreme_eigs(*diagonal(2.0, 0.0), EigConfig(iters=500, tol=1e-11))
    assert result.lam_max == pytest.approx(2.0, abs=1e-6)
    assert result.lam_min == 0.0
    assert convexity_score(result.lam_max, result.lam_min) == 0.0


def test_extreme_eigs_against_dense_hessian():
    net, batch = small_net_and_batch()
    assert flatten(net).size <= 40
    rng = np.random.default_rng(0)
    for _ in range(3):
        point = unflatten(net, flatten(net) + 0.2 * rng.standard_normal(flatten(net).size))
        spectrum = np.linalg.eigvalsh(dense_hessian(point, batch))
        result = extreme_eigs(*hessian_of(point, batch), EigConfig(iters=600, tol=1e-12))
        assert result.lam_max == pytest.approx(spectrum[-1], rel=0.02)
        assert result.lam_min == pytest.approx(spectrum[0], rel=0.02)


def test_rayleigh_quotients_inside_extreme_bounds():
    net, batch = small_net_and_batch()
    rng = np.random.default_rng(4)
    n = flatten(net).size
    point = unflatten(net, flatten(net) + 0.2 * rng.standard_normal(n))
    result = extreme_eigs(*hessian_of(point, batch), EigConfig(iters=600, tol=1e-12))
    slack = 0.02 * max(abs(result.lam_max), abs(result.lam_min))
    for _ in range(10):
        probe = rng.standard_normal(n)
        rayleigh = float(hvp(point, batch, probe) @ probe) / float(probe @ probe)
        assert result.lam_min - slack <= rayleigh <= result.lam_max + slack


def wider_net_and_batch():
    """A net of more than 40 parameters (63) and a batch of 6 pairs."""
    net = init_mlp(MlpSpec(3, 4), 0)
    batch = gen_dataset(ModularTaskSpec(3, ModularOp.ADD), "train", 6, seed=0)
    return net, batch


def exact_hessian(theta: ParameterSet, batch) -> np.ndarray:
    """Dense Hessian, column by column from hvp."""
    n = param_count(theta)
    return np.stack([hvp(theta, batch, e) for e in np.eye(n)], axis=1)


def kink_margin(theta: ParameterSet, batch) -> float:
    """Smallest |pre-activation| of the hidden layers on the batch."""
    z1 = batch.inputs @ theta["fc1_w"] + theta["fc1_b"]
    z2 = np.maximum(z1, 0.0) @ theta["fc2_w"] + theta["fc2_b"]
    return float(min(np.abs(z1).min(), np.abs(z2).min()))


def finite_difference_hvp(theta: ParameterSet, batch, v: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """(g(theta + h*v_hat) - g(theta - h*v_hat)) / (2h) * ||v|| for the batch's
    gradient g, with the probe normalized so that the step is independent of ||v||."""
    flat, norm = flatten(theta), float(np.linalg.norm(v))
    vhat = v / norm
    g_plus = loss_and_grad(unflatten(theta, flat + h * vhat), batch)[1]
    g_minus = loss_and_grad(unflatten(theta, flat - h * vhat), batch)[1]
    return (g_plus - g_minus) * (norm / (2.0 * h))


def test_exact_hvp_matches_finite_differences_away_from_kinks():
    net, batch = wider_net_and_batch()
    rng = np.random.default_rng(3)
    n = param_count(net)
    checked = 0
    while checked < 5:
        point = unflatten(net, flatten(net) + 0.3 * rng.standard_normal(n))
        # A unit probe of step 1e-4 moves each pre-activation by well under 1e-2.
        if kink_margin(point, batch) < 1e-2:
            continue
        v = rng.standard_normal(n)
        want = finite_difference_hvp(point, batch, v)
        got = hvp(point, batch, v)
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
        checked += 1


def test_exact_hessian_is_symmetric_and_lanczos_finds_its_extremes():
    net, batch = small_net_and_batch()
    rng = np.random.default_rng(1)
    for _ in range(3):
        point = unflatten(net, flatten(net) + 0.2 * rng.standard_normal(param_count(net)))
        hess = exact_hessian(point, batch)
        assert np.max(np.abs(hess - hess.T)) <= 1e-12 * np.max(np.abs(hess))
        spectrum = np.linalg.eigvalsh(hess)
        result = extreme_eigs(*hessian_of(point, batch), EigConfig())
        assert result.converged
        assert result.lam_max == pytest.approx(spectrum[-1], rel=1e-6)
        assert result.lam_min == pytest.approx(spectrum[0], rel=1e-6)


def test_lanczos_stops_by_breakdown_on_a_two_parameter_saddle():
    matvec, n = diagonal(2.0, -2.0)
    matvec, count = counting(matvec)
    # No residual meets this tolerance; only breakdown ends the run converged.
    result = extreme_eigs(matvec, n, EigConfig(iters=500, tol=1e-300))
    assert result.converged
    assert count[0] <= 2
    assert result.lam_max == pytest.approx(2.0, abs=1e-6)
    assert result.lam_min == pytest.approx(-2.0, abs=1e-6)


def test_lanczos_takes_at_most_one_step_per_parameter():
    net, batch = small_net_and_batch()
    matvec, n = hessian_of(net, batch)
    matvec, count = counting(matvec)
    extreme_eigs(matvec, n, EigConfig(iters=500, tol=1e-300))
    assert 0 < count[0] <= n


def test_too_few_lanczos_steps_are_not_converged():
    net, batch = wider_net_and_batch()
    matvec, n = hessian_of(net, batch)
    assert n >= 40
    matvec, count = counting(matvec)
    result = extreme_eigs(matvec, n, EigConfig(iters=3))
    assert count[0] == 3
    assert not result.converged


def test_lanczos_builds_no_parameter_set_inside_the_loop(built_sets):
    net, batch = wider_net_and_batch()
    matvec, n = hessian_of(net, batch)
    matvec, count = counting(matvec)
    built_sets.clear()
    extreme_eigs(matvec, n, EigConfig(iters=5))
    assert count[0] == 5
    assert built_sets == []


def test_converged_cells_match_the_dense_spectrum():
    net, batch = wider_net_and_batch()
    dirs = random_directions(net, seed=4)
    grid = GridSpec(0.5, 0.5, 3)
    result = convexity_grid(net, dirs, grid, batch)
    assert result.converged.mean() >= 0.9
    for i, alpha in enumerate(grid.alphas):
        for j, beta in enumerate(grid.betas):
            if not result.converged[i, j]:
                continue
            spectrum = np.linalg.eigvalsh(exact_hessian(point_params(net, dirs, alpha, beta), batch))
            assert result.lam_max[i, j] == pytest.approx(spectrum[-1], rel=1e-4)
            assert result.lam_min[i, j] == pytest.approx(spectrum[0], rel=1e-4)


@pytest.mark.parametrize("i, j", [(10, 10), (0, 0)], ids=["centre", "corner"])
def test_lanczos_finds_the_extremes_of_a_trained_expert(experts_dir, i, j):
    """Two cells of the default convexity map of seed 0's expert_add (2,349
    parameters), with the batch, directions and cell seed that ``convexity``
    uses: both extremes are within the solver's own contract, EigConfig.tol
    times the spread, of the dense spectrum built from unit HVPs."""
    theta0 = load_checkpoint(experts_dir / "expert_add.ckpt")
    batch = gen_dataset(twin_tasks(13, 0)[0], "opt", 64, derive_seed(0, TAG_EIG))
    # Read-only, so that the cell's products share one linearization, as in a map.
    batch.inputs.flags.writeable = batch.labels.flags.writeable = False
    grid, cfg = GridSpec(), EigConfig(seed=derive_seed(0, TAG_EIG, i, j))
    theta = point_params(theta0, random_directions(theta0, 0), float(grid.alphas[i]), float(grid.betas[j]))
    hess = exact_hessian(theta, batch)
    assert hess.shape == (2349, 2349)
    assert np.max(np.abs(hess - hess.T)) <= 1e-12 * np.max(np.abs(hess))
    spectrum = np.linalg.eigvalsh(hess)
    spread = max(abs(spectrum[0]), abs(spectrum[-1]))
    result = extreme_eigs(*hessian_of(theta, batch), cfg)
    assert result.converged
    assert abs(result.lam_max - spectrum[-1]) <= cfg.tol * spread
    assert abs(result.lam_min - spectrum[0]) <= cfg.tol * spread


def test_convexity_score_clipping():
    assert convexity_score(2.0, 2.0) == 0.5
    assert convexity_score(1.0, 0.0) == 0.0
    assert convexity_score(1.0, -0.25) == pytest.approx(0.25, rel=1e-6)
    # Clipping is idempotent and order-preserving below the cap.
    low = convexity_score(1.0, -0.1)
    high = convexity_score(1.0, -0.3)
    assert low < high < 0.5


def test_convexity_grid_range_flags_and_determinism():
    net, batch = small_net_and_batch()
    dirs = random_directions(net, seed=7)
    grid = GridSpec(0.3, 0.3, 3)
    eig_cfg = EigConfig(iters=300, tol=1e-9)
    result = convexity_grid(net, dirs, grid, batch, eig_cfg)
    assert result.convexity.shape == (3, 3)
    assert np.all((result.convexity >= 0.0) & (result.convexity <= 0.5))
    assert result.converged.dtype == bool
    again = convexity_grid(net, dirs, grid, batch, eig_cfg)
    assert np.array_equal(result.convexity, again.convexity)
    assert np.array_equal(result.lam_max, again.lam_max)


def test_grid_csv_and_pgm_outputs(tmp_path):
    net, batch = small_net_and_batch()
    dirs = random_directions(net, seed=7)
    grid = GridSpec(0.3, 0.3, 3)
    values = loss_grid(net, dirs, grid, batch)
    csv_path = tmp_path / "landscape.csv"
    write_grid_csv(csv_path, grid, values)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "i,j,alpha,beta,value"
    assert len(lines) == 1 + 9

    result = convexity_grid(net, dirs, grid, batch, EigConfig(iters=100))
    conv_path = tmp_path / "convexity.csv"
    write_convexity_csv(conv_path, grid, result)
    header = conv_path.read_text().splitlines()[0]
    assert header == "i,j,alpha,beta,value,lambda_max,lambda_min,converged"

    pgm_path = tmp_path / "map.pgm"
    write_pgm(pgm_path, values)
    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n3 3\n255\n")
    assert len(blob) == len(b"P5\n3 3\n255\n") + 9
