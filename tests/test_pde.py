import numpy as np
import pytest

from echolab.pde import (
    DirichletSample,
    analytic_disc_solution,
    build_feature_model,
    default_boundary_data,
    eval_feature_laplacian,
    eval_features,
    evaluation_grid,
    grid_rms_error,
    online_moment_solution,
    sample_disc,
    solution_field_csv,
    solve_dirichlet_offline,
    solve_dirichlet_online,
    stacked_problem,
)
from echolab.reservoir import make_rng
from echolab.training import solve_offline


def numerical_laplacian(f, z, h=1e-4):
    """5-point-stencil oracle in two dimensions."""
    x, y = z
    return (
        f(np.array([x + h, y]))
        + f(np.array([x - h, y]))
        + f(np.array([x, y + h]))
        + f(np.array([x, y - h]))
        - 4.0 * f(np.array([x, y]))
    ) / h**2


class TestFeatures:
    def test_zero_weights_zero_features(self):
        model = build_feature_model(5, seed=0)
        model.C[:] = 0.0
        model.b[:] = 0.0
        assert np.allclose(eval_features(model, np.array([0.3, -0.2])), 0.0)

    def test_large_bias_saturates(self):
        model = build_feature_model(3, seed=0)
        model.b[:] = 40.0
        feats = eval_features(model, np.zeros(2))
        assert np.allclose(feats, 1.0, atol=1e-10)

    def test_batch_matches_single(self):
        model = build_feature_model(7, seed=1)
        pts = make_rng(2).uniform(-0.5, 0.5, (4, 2))
        batch = eval_features(model, pts)
        for i, z in enumerate(pts):
            assert np.allclose(batch[i], eval_features(model, z))


class TestFeatureLaplacian:
    def test_zero_row_gives_zero(self):
        model = build_feature_model(4, seed=0)
        model.C[2] = 0.0
        lap = eval_feature_laplacian(model, np.array([0.1, 0.2]))
        assert lap[2] == 0.0

    def test_matches_finite_difference_oracle(self):
        model = build_feature_model(20, seed=3, weight_range=(-0.5, 0.5))
        rng = make_rng(4)
        for _ in range(20):
            z = rng.uniform(-0.5, 0.5, 2)
            lap = eval_feature_laplacian(model, z)
            for i in (0, 7, 19):
                oracle = numerical_laplacian(lambda p, i=i: eval_features(model, p)[i], z)
                assert abs(lap[i] - oracle) <= 1e-5 * max(1.0, abs(oracle))


class TestSampleDisc:
    def test_interior_radius_mean(self):
        # Area-uniform law: E[r] = 2/3.
        sample = sample_disc(100_000, 1, seed=0)
        radii = np.linalg.norm(sample.interior, axis=1)
        assert abs(radii.mean() - 2.0 / 3.0) < 0.01

    def test_boundary_on_circle(self):
        sample = sample_disc(10, 1000, seed=1)
        norms = np.linalg.norm(sample.boundary, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_seeded_determinism(self):
        a = sample_disc(50, 50, seed=7)
        b = sample_disc(50, 50, seed=7)
        assert np.array_equal(a.interior, b.interior)
        assert np.array_equal(a.boundary, b.boundary)
        assert np.array_equal(a.boundary_values, b.boundary_values)

    def test_boundary_values_from_data_fn(self):
        sample = sample_disc(5, 200, seed=2)
        theta = np.arctan2(sample.boundary[:, 1], sample.boundary[:, 0])
        assert np.allclose(sample.boundary_values, np.cos(4 * theta), atol=1e-12)


class TestOfflineSolve:
    def test_homogeneous_data_gives_zero_weights(self):
        model = build_feature_model(20, seed=0)
        sample = sample_disc(30, 30, seed=1, boundary_fn=lambda t: np.zeros_like(t))
        sol = solve_dirichlet_offline(model, sample, lam=1e-4)
        assert np.allclose(sol.readout.w, 0.0, atol=1e-12)
        assert sol.boundary_rms < 1e-12

    def test_small_configuration_runs(self):
        model = build_feature_model(50, seed=0)
        sample = sample_disc(50, 50, seed=100)
        sol = solve_dirichlet_offline(model, sample, lam=1e-6)
        assert np.isfinite(sol.interior_rms)
        assert np.isfinite(sol.boundary_rms)
        assert np.isfinite(grid_rms_error(model, sol.readout))

    def test_large_configuration_beats_small(self):
        # Reference run: the 500-feature pseudo-inverse solve hits the
        # quartic harmonic almost exactly (grid RMS ~ 1e-7 vs ~ 0.25).
        m50 = build_feature_model(50, seed=0)
        s50 = sample_disc(50, 50, seed=100)
        g50 = grid_rms_error(m50, solve_dirichlet_offline(m50, s50, lam=1e-6).readout)
        m500 = build_feature_model(500, seed=0)
        s500 = sample_disc(500, 500, seed=100)
        g500 = grid_rms_error(m500, solve_dirichlet_offline(m500, s500, lam=0.0).readout)
        assert g500 < 0.5 * g50

    def test_weighting_equivalence_with_equal_counts(self):
        # With ell = ell' the balanced stacking at penalty lam equals
        # the plain unweighted stacking at the same lam.
        model = build_feature_model(30, seed=2)
        sample = sample_disc(40, 40, seed=3)
        lam = 1e-4
        sol = solve_dirichlet_offline(model, sample, lam=lam)
        X = np.vstack(
            [eval_feature_laplacian(model, sample.interior), eval_features(model, sample.boundary)]
        )
        Y = np.concatenate([np.zeros(40), sample.boundary_values])
        from echolab.training import RegressionProblem

        direct = solve_offline(RegressionProblem(X, Y), lam=lam)
        assert np.allclose(sol.readout.w, direct.w, atol=1e-10)

    def test_solution_linearity_of_laplacian(self):
        # Laplacian of W^T f equals W^T (Laplacian f): check the
        # assembled field against finite differences.
        model = build_feature_model(40, seed=4, weight_range=(-0.4, 0.4))
        sample = sample_disc(60, 60, seed=5)
        sol = solve_dirichlet_offline(model, sample, lam=1e-6)
        w = sol.readout.w
        # Large readout norms amplify stencil roundoff, so the step is
        # widened to keep the oracle itself accurate to ~1e-7.
        rng = make_rng(6)
        for _ in range(20):
            z = rng.uniform(-0.5, 0.5, 2)
            direct = eval_feature_laplacian(model, z) @ w
            oracle = numerical_laplacian(lambda p: eval_features(model, p) @ w, z, h=1e-3)
            assert abs(direct - oracle) <= 1e-5 * max(1.0, abs(oracle))

    def test_maximum_principle_sanity(self):
        model = build_feature_model(500, seed=0)
        sample = sample_disc(500, 500, seed=100)
        sol = solve_dirichlet_offline(model, sample, lam=0.0)
        r, theta = evaluation_grid()
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        field = eval_features(model, pts) @ sol.readout.w
        assert np.max(np.abs(field)) <= 1.0 + sol.boundary_rms + 0.05


class TestOnlineSolve:
    def test_homogeneous_data_decays_to_zero(self):
        model = build_feature_model(10, seed=0)
        sample = sample_disc(10, 10, seed=1, boundary_fn=lambda t: np.zeros_like(t))
        out = solve_dirichlet_online(model, sample, 5000, w0=np.ones(10))
        assert np.linalg.norm(out.w) < 1e-3

    def test_cycled_sample_reaches_ridge_solution(self):
        # Oracle: direct normal-equation solve of the cycled moments.
        model = build_feature_model(10, seed=1)
        sample = sample_disc(8, 8, seed=2)
        w_star = online_moment_solution(model, sample)
        out = solve_dirichlet_online(model, sample, 100_000)
        assert np.linalg.norm(out.w - w_star) / np.linalg.norm(w_star) < 1e-3
        # The update runs at unit ridge, and the readout says so.
        assert out.lam == 1.0

    def test_online_grid_rms_close_to_offline(self):
        model = build_feature_model(100, seed=3)
        sample = sample_disc(100, 100, seed=4)
        lam_off = (len(sample.interior) + len(sample.boundary)) / 2.0
        g_off = grid_rms_error(model, solve_dirichlet_offline(model, sample, lam=lam_off).readout)
        g_on = grid_rms_error(model, solve_dirichlet_online(model, sample, 50_000))
        assert g_on < 2.0 * g_off


class TestAnalyticSolution:
    def test_boundary_value(self):
        assert analytic_disc_solution(1.0, 0.0) == 1.0

    def test_center_is_zero(self):
        assert analytic_disc_solution(0.0, 1.234) == 0.0

    def test_harmonicity_by_finite_differences(self):
        def phi(z):
            r = np.hypot(z[0], z[1])
            theta = np.arctan2(z[1], z[0])
            return analytic_disc_solution(r, theta)

        rng = make_rng(7)
        for _ in range(10):
            z = rng.uniform(-0.6, 0.6, 2)
            assert abs(numerical_laplacian(phi, z)) < 1e-6


class TestExports:
    def test_solution_field_csv_shape(self):
        model = build_feature_model(10, seed=0)
        sample = sample_disc(10, 10, seed=0)
        sol = solve_dirichlet_offline(model, sample, lam=1e-4)
        lines = solution_field_csv(model, sol.readout, n_r=5, n_theta=8).splitlines()
        assert lines[0] == "r,theta,phi_hat,phi_exact,abs_err"
        assert len(lines) == 1 + 5 * 8

    def test_report_json(self):
        model = build_feature_model(10, seed=0)
        sample = sample_disc(10, 10, seed=0)
        sol = solve_dirichlet_offline(model, sample, lam=1e-4)
        assert "interior_rms" in sol.report_json(grid_rms=0.5, config={"n": 10})

    def test_interior_point_validation(self):
        with pytest.raises(ValueError):
            DirichletSample(
                interior=np.array([[1.5, 0.0]]),
                boundary=np.array([[1.0, 0.0]]),
                boundary_values=np.array([1.0]),
            )
