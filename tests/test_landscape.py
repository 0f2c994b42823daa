import numpy as np
import pytest

from sparsemerge import landscape
from sparsemerge.landscape import (
    EigConfig,
    GridSpec,
    batch_grad,
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
from sparsemerge.params import ParameterSet, flatten, param_count, unflatten
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


def quadratic_grad(theta: ParameterSet) -> ParameterSet:
    """Gradient of L = sum(w^2): analytic Hessian is 2I."""
    return ParameterSet.from_pairs((name, 2.0 * arr) for name, arr in theta.items())


def saddle_grad(theta: ParameterSet) -> ParameterSet:
    """Gradient of L = w1^2 - w2^2 on a single 2-entry layer."""
    w = theta["w"]
    return ParameterSet.from_pairs([("w", np.array([2.0 * w[0], -2.0 * w[1]]))])


def flat_grad(theta: ParameterSet) -> ParameterSet:
    """Gradient of L = w1^2 with w2 unused."""
    w = theta["w"]
    return ParameterSet.from_pairs([("w", np.array([2.0 * w[0], 0.0]))])


def two_param_point() -> ParameterSet:
    return ParameterSet.from_pairs([("w", np.array([0.3, -0.45]))])


def small_net_and_batch():
    net = init_mlp(MlpSpec(2, 3), 0)
    batch = gen_dataset(ModularTaskSpec(2, ModularOp.ADD), "train", 3, seed=0)
    return net, batch


def dense_hessian(grad_fn, theta: ParameterSet, h: float = 1e-5) -> np.ndarray:
    flat = flatten(theta)
    n = flat.size
    hess = np.zeros((n, n))
    for j in range(n):
        bumped = flat.copy()
        bumped[j] += h
        g_plus = flatten(grad_fn(unflatten(theta, bumped)))
        bumped[j] -= 2 * h
        g_minus = flatten(grad_fn(unflatten(theta, bumped)))
        hess[:, j] = (g_plus - g_minus) / (2 * h)
    return (hess + hess.T) / 2.0


def test_direction_norms_match_anchor():
    theta = init_mlp(MlpSpec(13, 32), 0)
    dirs = random_directions(theta, seed=5)
    for d in (dirs.d1, dirs.d2):
        for name, arr in theta.items():
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


def test_hvp_on_quadratic_is_two_v():
    theta = two_param_point()
    v = np.array([1.7, -0.6])
    result = hvp(quadratic_grad, theta, v)
    assert np.allclose(result, 2.0 * v, atol=1e-6, rtol=0)


def test_hvp_linearity():
    net, batch = small_net_and_batch()
    grad_fn = batch_grad(batch)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(flatten(net).size)
    for scale in (0.5, 2.0, -3.0):
        lhs = hvp(grad_fn, net, scale * v)
        rhs = scale * hvp(grad_fn, net, v)
        denom = max(np.max(np.abs(rhs)), 1e-12)
        assert np.max(np.abs(lhs - rhs)) / denom < 1e-5


def test_hvp_symmetry():
    net, batch = small_net_and_batch()
    grad_fn = batch_grad(batch)
    rng = np.random.default_rng(8)
    n = flatten(net).size
    assert n <= 100
    # Probe away from the init point so no finite-difference step crosses a
    # rectifier kink, where the Hessian does not exist.
    point = unflatten(net, flatten(net) + 0.2 * rng.standard_normal(n))
    for _ in range(5):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        left = float(hvp(grad_fn, point, u) @ v)
        right = float(u @ hvp(grad_fn, point, v))
        assert abs(left - right) / max(abs(left), abs(right), 1e-12) < 1e-5


def test_batch_grad_holds_a_read_only_copy_of_its_batch():
    _, batch = small_net_and_batch()
    grad_fn = batch_grad(batch)
    with pytest.raises(ValueError, match="read-only"):
        grad_fn.batch.inputs[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        grad_fn.batch.labels[0] = 1
    batch.inputs[0, 0] = 2.0  # the caller's batch stays its own and writable
    assert grad_fn.batch.inputs[0, 0] != 2.0


def test_hvp_rejects_zero_direction():
    theta = two_param_point()
    with pytest.raises(ValueError):
        hvp(quadratic_grad, theta, np.zeros(2))


def test_extreme_eigs_convex_quadratic():
    result = extreme_eigs(quadratic_grad, two_param_point(), EigConfig(iters=500, tol=1e-11))
    assert result.lam_max == pytest.approx(2.0, abs=1e-6)
    assert result.lam_min == pytest.approx(2.0, abs=1e-6)
    assert convexity_score(result.lam_max, result.lam_min, 1e-8) == 0.5


def test_extreme_eigs_symmetric_saddle():
    result = extreme_eigs(saddle_grad, two_param_point(), EigConfig(iters=500, tol=1e-11))
    assert result.lam_max == pytest.approx(2.0, abs=1e-6)
    assert result.lam_min == pytest.approx(-2.0, abs=1e-6)
    assert convexity_score(result.lam_max, result.lam_min, 1e-8) == 0.5


def test_extreme_eigs_flat_direction():
    result = extreme_eigs(flat_grad, two_param_point(), EigConfig(iters=500, tol=1e-11))
    assert result.lam_max == pytest.approx(2.0, abs=1e-6)
    assert result.lam_min == 0.0
    assert convexity_score(result.lam_max, result.lam_min, 1e-8) == 0.0


def test_extreme_eigs_against_dense_hessian():
    net, batch = small_net_and_batch()
    assert flatten(net).size <= 40
    grad_fn = batch_grad(batch)
    rng = np.random.default_rng(0)
    for _ in range(3):
        point = unflatten(net, flatten(net) + 0.2 * rng.standard_normal(flatten(net).size))
        spectrum = np.linalg.eigvalsh(dense_hessian(grad_fn, point))
        result = extreme_eigs(grad_fn, point, EigConfig(iters=600, tol=1e-12))
        assert result.lam_max == pytest.approx(spectrum[-1], rel=0.02)
        assert result.lam_min == pytest.approx(spectrum[0], rel=0.02)


def test_rayleigh_quotients_inside_extreme_bounds():
    net, batch = small_net_and_batch()
    grad_fn = batch_grad(batch)
    rng = np.random.default_rng(4)
    n = flatten(net).size
    point = unflatten(net, flatten(net) + 0.2 * rng.standard_normal(n))
    result = extreme_eigs(grad_fn, point, EigConfig(iters=600, tol=1e-12))
    slack = 0.02 * max(abs(result.lam_max), abs(result.lam_min))
    for _ in range(10):
        probe = rng.standard_normal(n)
        rayleigh = float(hvp(grad_fn, point, probe) @ probe) / float(probe @ probe)
        assert result.lam_min - slack <= rayleigh <= result.lam_max + slack


def wider_net_and_batch():
    """A net of more than 40 parameters (63) and a batch of 6 pairs."""
    net = init_mlp(MlpSpec(3, 4), 0)
    batch = gen_dataset(ModularTaskSpec(3, ModularOp.ADD), "train", 6, seed=0)
    return net, batch


def exact_hessian(grad_fn, theta: ParameterSet) -> np.ndarray:
    """Dense Hessian, column by column from hvp."""
    n = param_count(theta)
    return np.stack([hvp(grad_fn, theta, e) for e in np.eye(n)], axis=1)


def kink_margin(theta: ParameterSet, batch) -> float:
    """Smallest |pre-activation| of the hidden layers on the batch."""
    z1 = batch.inputs @ theta["fc1_w"] + theta["fc1_b"]
    z2 = np.maximum(z1, 0.0) @ theta["fc2_w"] + theta["fc2_b"]
    return float(min(np.abs(z1).min(), np.abs(z2).min()))


def counting_hvp(monkeypatch) -> list[int]:
    """Count the products extreme_eigs takes; returns the one-entry counter."""
    count = [0]
    inner = landscape.hvp

    def counted(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(landscape, "hvp", counted)
    return count


def test_exact_hvp_matches_finite_differences_away_from_kinks():
    net, batch = wider_net_and_batch()
    exact = batch_grad(batch)

    def plain(theta):  # not a batch_grad, so hvp differences it
        return unflatten(theta, loss_and_grad(theta, batch)[1])

    rng = np.random.default_rng(3)
    n = param_count(net)
    checked = 0
    while checked < 5:
        point = unflatten(net, flatten(net) + 0.3 * rng.standard_normal(n))
        # A unit probe of step HVP_STEP moves each pre-activation by well under 1e-2.
        if kink_margin(point, batch) < 1e-2:
            continue
        v = rng.standard_normal(n)
        want = hvp(plain, point, v)
        got = hvp(exact, point, v)
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
        checked += 1


def test_exact_hessian_is_symmetric_and_lanczos_finds_its_extremes():
    net, batch = small_net_and_batch()
    grad_fn = batch_grad(batch)
    rng = np.random.default_rng(1)
    for _ in range(3):
        point = unflatten(net, flatten(net) + 0.2 * rng.standard_normal(param_count(net)))
        hess = exact_hessian(grad_fn, point)
        assert np.max(np.abs(hess - hess.T)) <= 1e-12 * np.max(np.abs(hess))
        spectrum = np.linalg.eigvalsh(hess)
        result = extreme_eigs(grad_fn, point, EigConfig())
        assert result.converged
        assert result.lam_max == pytest.approx(spectrum[-1], rel=1e-6)
        assert result.lam_min == pytest.approx(spectrum[0], rel=1e-6)


def test_lanczos_stops_by_breakdown_on_a_two_parameter_saddle(monkeypatch):
    count = counting_hvp(monkeypatch)
    # No residual meets this tolerance; only breakdown ends the run converged.
    result = extreme_eigs(saddle_grad, two_param_point(), EigConfig(iters=500, tol=1e-300))
    assert result.converged
    assert count[0] <= 2
    assert result.lam_max == pytest.approx(2.0, abs=1e-6)
    assert result.lam_min == pytest.approx(-2.0, abs=1e-6)


def test_lanczos_takes_at_most_one_step_per_parameter(monkeypatch):
    net, batch = small_net_and_batch()
    count = counting_hvp(monkeypatch)
    extreme_eigs(batch_grad(batch), net, EigConfig(iters=500, tol=1e-300))
    assert 0 < count[0] <= param_count(net)


def test_too_few_lanczos_steps_are_not_converged(monkeypatch):
    net, batch = wider_net_and_batch()
    assert param_count(net) >= 40
    count = counting_hvp(monkeypatch)
    result = extreme_eigs(batch_grad(batch), net, EigConfig(iters=3))
    assert count[0] == 3
    assert not result.converged


def test_lanczos_builds_no_parameter_set_inside_the_loop(monkeypatch, built_sets):
    net, batch = wider_net_and_batch()
    grad_fn = batch_grad(batch)
    count = counting_hvp(monkeypatch)
    built_sets.clear()
    extreme_eigs(grad_fn, net, EigConfig(iters=5))
    assert count[0] == 5
    assert built_sets == []


def test_converged_cells_match_the_dense_spectrum():
    net, batch = wider_net_and_batch()
    dirs = random_directions(net, seed=4)
    grid = GridSpec(0.5, 0.5, 3)
    result = convexity_grid(net, dirs, grid, batch)
    assert result.converged.mean() >= 0.9
    grad_fn = batch_grad(batch)
    for i, alpha in enumerate(grid.alphas):
        for j, beta in enumerate(grid.betas):
            if not result.converged[i, j]:
                continue
            spectrum = np.linalg.eigvalsh(exact_hessian(grad_fn, point_params(net, dirs, alpha, beta)))
            assert result.lam_max[i, j] == pytest.approx(spectrum[-1], rel=1e-4)
            assert result.lam_min[i, j] == pytest.approx(spectrum[0], rel=1e-4)


def test_convexity_score_clipping():
    assert convexity_score(2.0, 2.0, 1e-8) == 0.5
    assert convexity_score(1.0, 0.0, 1e-8) == 0.0
    assert convexity_score(1.0, -0.25, 1e-8) == pytest.approx(0.25, rel=1e-6)
    # Clipping is idempotent and order-preserving below the cap.
    low = convexity_score(1.0, -0.1, 1e-8)
    high = convexity_score(1.0, -0.3, 1e-8)
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
