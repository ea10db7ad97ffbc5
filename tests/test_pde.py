import tracemalloc

import numpy as np
import pytest

from echolab import pde
from echolab.pde import (
    GRID_BLOCK,
    DirichletSample,
    RandomFeatureModel,
    analytic_disc_solution,
    build_feature_model,
    eval_feature_laplacian,
    eval_features,
    evaluation_grid,
    grid_solution,
    sample_disc,
    solve_dirichlet_offline,
    stacked_problem,
)
from echolab.reservoir import make_rng
from echolab.training import solve_offline


def grid_rms(model, readout):
    """RMS over the evaluation grid of the learned minus the closed-form solution."""
    _, _, approx, exact = grid_solution(model, readout)
    return float(np.sqrt(np.mean((approx - exact) ** 2)))


def wide_feature_model(n, seed, scale):
    """Features with weights U[-scale, scale], wider than the solver's."""
    rng = make_rng(seed)
    C = rng.uniform(-scale, scale, (n, 2))
    return RandomFeatureModel(n=n, d=2, C=C, b=rng.uniform(-scale, scale, n))


def homogeneous_sample(ell, seed):
    """The disc sample's points with zero boundary data."""
    sample = sample_disc(ell, ell, seed=seed)
    return DirichletSample(sample.interior, sample.boundary, np.zeros(ell))


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
        model = wide_feature_model(20, seed=3, scale=0.5)
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
        # The data function is h(theta) = cos(4 theta).
        sample = sample_disc(5, 200, seed=2)
        theta = np.arctan2(sample.boundary[:, 1], sample.boundary[:, 0])
        assert np.allclose(sample.boundary_values, np.cos(4 * theta), atol=1e-12)


class TestOfflineSolve:
    def test_homogeneous_data_gives_zero_weights(self):
        model = build_feature_model(20, seed=0)
        sample = homogeneous_sample(30, seed=1)
        sol = solve_dirichlet_offline(model, sample, lam=1e-4)
        assert np.allclose(sol.readout.w, 0.0, atol=1e-12)
        assert sol.boundary_rms < 1e-12

    def test_small_configuration_runs(self):
        model = build_feature_model(50, seed=0)
        sample = sample_disc(50, 50, seed=100)
        sol = solve_dirichlet_offline(model, sample, lam=1e-6)
        assert np.isfinite(sol.interior_rms)
        assert np.isfinite(sol.boundary_rms)
        assert np.isfinite(grid_rms(model, sol.readout))

    def test_large_configuration_beats_small(self):
        # Reference run: the 500-feature pseudo-inverse solve hits the
        # quartic harmonic almost exactly (grid RMS ~ 1e-7 vs ~ 0.25).
        m50 = build_feature_model(50, seed=0)
        s50 = sample_disc(50, 50, seed=100)
        g50 = grid_rms(m50, solve_dirichlet_offline(m50, s50, lam=1e-6).readout)
        m500 = build_feature_model(500, seed=0)
        s500 = sample_disc(500, 500, seed=100)
        g500 = grid_rms(m500, solve_dirichlet_offline(m500, s500, lam=0.0).readout)
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

    def test_design_is_the_stacked_weighted_blocks(self):
        model = build_feature_model(30, seed=2)
        sample = sample_disc(40, 25, seed=3)
        problem = stacked_problem(model, sample)
        lap = eval_feature_laplacian(model, sample.interior)
        feat = eval_features(model, sample.boundary)
        expected = np.column_stack(
            [
                np.vstack([lap / np.sqrt(40), feat / np.sqrt(25)]),
                np.concatenate([np.zeros(40), sample.boundary_values / np.sqrt(25)]),
            ]
        )
        assert problem.design.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, ell, ell_prime, lam", [(30, 40, 25, 1e-4), (500, 500, 500, 0.0)])
    def test_region_rms_within_summation_bound(self, n, ell, ell_prime, lam):
        # Each region's RMS is read off the weighted residual; against the
        # RMS of the unweighted residual F w - g of its feature rows F it
        # may differ by rounding alone, at most n eps max_i(|F_i| @ |w|).
        model = build_feature_model(n, seed=2)
        sample = sample_disc(ell, ell_prime, seed=3)
        sol = solve_dirichlet_offline(model, sample, lam=lam)
        w = sol.readout.w
        regions = [
            (sol.interior_rms, eval_feature_laplacian(model, sample.interior), 0.0),
            (sol.boundary_rms, eval_features(model, sample.boundary), sample.boundary_values),
        ]
        for reported, F, g in regions:
            rms = float(np.sqrt(np.mean((F @ w - g) ** 2)))
            bound = n * np.finfo(float).eps * np.max(np.abs(F) @ np.abs(w))
            assert abs(reported - rms) <= bound

    def test_solution_linearity_of_laplacian(self):
        # Laplacian of W^T f equals W^T (Laplacian f): check the
        # assembled field against finite differences.
        model = wide_feature_model(40, seed=4, scale=0.4)
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
        field = grid_solution(model, sol.readout)[2]
        assert np.max(np.abs(field)) <= 1.0 + sol.boundary_rms + 0.05


def default_solution(seed):
    """The pde_dirichlet experiment's model and readout at its default
    config: n = ell = ell' = 500, lam = 0."""
    model = build_feature_model(500, seed=seed)
    sample = sample_disc(500, 500, seed=seed + 1)
    return model, solve_dirichlet_offline(model, sample, lam=0.0).readout


class TestBlockedGrid:
    """`grid_solution` evaluates the grid GRID_BLOCK rows at a time.

    Against the one-shot product F @ w of the whole grid's features, each
    point may differ by rounding alone: the two sum the same n products
    in possibly different orders, so by at most 2 n eps (|F| @ |w|).
    """

    @staticmethod
    def one_shot_and_bound(model, readout, r, theta):
        """F @ w over the whole grid's features F, and 2 n eps (|F| @ |w|)."""
        features = eval_features(model, np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
        bound = 2 * model.n * np.finfo(float).eps * (np.abs(features) @ np.abs(readout.w))
        return features @ readout.w, bound

    @pytest.mark.parametrize("seed", [0, 2, 3, 84, 85])
    def test_field_within_summation_bound(self, seed):
        model, readout = default_solution(seed)
        r, theta, approx, exact = grid_solution(model, readout)
        one_shot, bound = self.one_shot_and_bound(model, readout, r, theta)
        assert np.all(np.abs(approx - one_shot) <= bound)
        rms, rms_one_shot = (float(np.sqrt(np.mean((f - exact) ** 2))) for f in (approx, one_shot))
        assert abs(rms - rms_one_shot) <= 1e-4 * rms_one_shot

    def test_partial_last_block(self, monkeypatch):
        # 2.5 blocks of the real grid: the last block holds GRID_BLOCK / 2 rows.
        model, readout = default_solution(0)
        r, theta = evaluation_grid()
        m = 5 * GRID_BLOCK // 2
        monkeypatch.setattr(pde, "evaluation_grid", lambda: (r[:m], theta[:m]))
        got_r, _, approx, _ = grid_solution(model, readout)
        assert len(got_r) == len(approx) == m
        one_shot, bound = self.one_shot_and_bound(model, readout, r[:m], theta[:m])
        assert np.all(np.abs(approx - one_shot) <= bound)

    def test_grid_within_one_block_is_the_one_shot_product(self, monkeypatch):
        # Fewer rows than GRID_BLOCK make one block: the one-shot product.
        model, readout = default_solution(0)
        r, theta = evaluation_grid()
        m = GRID_BLOCK // 3
        monkeypatch.setattr(pde, "evaluation_grid", lambda: (r[:m], theta[:m]))
        approx = grid_solution(model, readout)[2]
        assert approx.tobytes() == self.one_shot_and_bound(model, readout, r[:m], theta[:m])[0].tobytes()

    @pytest.mark.parametrize("block", [1, 7])
    def test_any_block_size_within_summation_bound(self, monkeypatch, block):
        # Single rows, and blocks that leave a partial one of 5 rows.
        model, readout = default_solution(2)
        r, theta = evaluation_grid()
        m = 250
        monkeypatch.setattr(pde, "evaluation_grid", lambda: (r[:m], theta[:m]))
        monkeypatch.setattr(pde, "GRID_BLOCK", block)
        approx = grid_solution(model, readout)[2]
        one_shot, bound = self.one_shot_and_bound(model, readout, r[:m], theta[:m])
        assert np.all(np.abs(approx - one_shot) <= bound)

    def test_working_set_is_one_block(self):
        # The whole grid's (10000, 500) feature matrix alone is 40 MB.
        model, readout = default_solution(0)
        tracemalloc.start()
        try:
            grid_solution(model, readout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_working_set_grows_with_rows_not_features(self, monkeypatch):
        # Doubling the grid from 5000 to 10000 rows may add the O(m)
        # arrays (points, field, closed form: at most 8 floats a row), not
        # the n = 500 floats a row of the grid's feature matrix.
        model, readout = default_solution(0)
        r, theta = evaluation_grid()
        peaks = {}
        for m in (len(r) // 2, len(r)):
            monkeypatch.setattr(pde, "evaluation_grid", lambda m=m: (r[:m], theta[:m]))
            tracemalloc.start()
            try:
                grid_solution(model, readout)
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[len(r)] - peaks[len(r) // 2] < 8 * 8 * (len(r) // 2)


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
    def test_grid_solution_on_the_evaluation_grid(self):
        model = build_feature_model(10, seed=0)
        sample = sample_disc(10, 10, seed=0)
        sol = solve_dirichlet_offline(model, sample, lam=1e-4)
        r, theta, approx, exact = grid_solution(model, sol.readout)
        grid_r, grid_theta = evaluation_grid()
        assert r.tobytes() == grid_r.tobytes() and theta.tobytes() == grid_theta.tobytes()
        assert len(r) == 50 * 200
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        blocks = [
            eval_features(model, pts[i : i + GRID_BLOCK]) @ sol.readout.w
            for i in range(0, len(pts), GRID_BLOCK)
        ]
        assert approx.tobytes() == np.concatenate(blocks).tobytes()
        assert exact.tobytes() == analytic_disc_solution(r, theta).tobytes()

    def test_interior_point_validation(self):
        with pytest.raises(ValueError):
            DirichletSample(
                interior=np.array([[1.5, 0.0]]),
                boundary=np.array([[1.0, 0.0]]),
                boundary_values=np.array([1.0]),
            )
