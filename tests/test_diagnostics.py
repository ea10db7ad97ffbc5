import numpy as np
import pytest

from echolab.diagnostics import (
    FixedPointResult,
    LyapunovResult,
    esn_jacobian,
    lorenz_linearization_eigs,
    lorenz_wing_jacobian,
    lyapunov_qr,
    newton_fixed_point,
    pca_project,
)
from echolab.dynsys import (
    WING_FIXED_POINT,
    LorenzParams,
    TimeSeries,
    integrate_lorenz,
    lorenz_step_jacobian,
    lorenz_tangent_maps,
)
from echolab.errors import (
    DegenerateJacobianError,
    NearNeutralFixedPointError,
    NewtonConvergenceError,
)
from echolab.reservoir import ReservoirGenConfig, autonomous_map, generate, make_rng
from oracles import (
    lorenz_step_jacobian_reference,
    lorenz_step_reference,
    lyapunov_qr_reference,
)


class TestNewton:
    def test_linear_map_one_iteration(self):
        res = newton_fixed_point(
            lambda x: 0.5 * x, lambda x: 0.5 * np.eye(1), np.array([7.0])
        )
        assert abs(res.x_star[0]) < 1e-12
        assert res.iterations == 1

    def test_tanh2x_matches_bisection_oracle(self):
        res = newton_fixed_point(
            lambda x: np.tanh(2 * x),
            lambda x: np.diag(2 * (1 - np.tanh(2 * x) ** 2)),
            np.array([0.9]),
        )
        assert abs(res.x_star[0] - 0.9575040240772688) < 1e-10
        assert res.residual < 1e-10

    def test_quadratic_convergence_tail(self):
        # Smooth scalar map with well-conditioned J - I: the residuals
        # should square from step to step near the root.
        res = newton_fixed_point(
            lambda x: np.cos(x), lambda x: np.diag(-np.sin(x)), np.array([1.0]), tol=1e-14
        )
        hist = res.residual_history
        hist = hist[hist > 0]
        for r0, r1 in zip(hist[-4:-1], hist[-3:]):
            assert r1 <= 10.0 * r0**2 + 1e-15

    def test_near_neutral_fixed_point_raises(self):
        # The translation x -> x + 1 has J = I everywhere and no root.
        with pytest.raises(NearNeutralFixedPointError):
            newton_fixed_point(
                lambda x: x + 1.0, lambda x: np.eye(1), np.array([0.0]), n_retries=0
            )

    def test_nonconvergence_raises_with_residual(self):
        with pytest.raises(NewtonConvergenceError) as err:
            newton_fixed_point(
                lambda x: np.tanh(2 * x),
                lambda x: np.diag(2 * (1 - np.tanh(2 * x) ** 2)),
                np.array([0.2]), tol=1e-14, max_iter=1, n_retries=1,
            )
        assert err.value.residual > 0

    def test_result_serialises(self):
        res = newton_fixed_point(
            lambda x: 0.5 * x, lambda x: 0.5 * np.eye(1), np.array([1.0])
        )
        assert isinstance(res, FixedPointResult)
        assert "jacobian_eigs_real" in res.to_json()


class TestEsnJacobian:
    def random_spec(self, seed, activation="tanh"):
        cfg = ReservoirGenConfig(
            7, 1, ("uniform_rescaled_2norm", 0.8), ("uniform", -0.3, 0.3),
            ("uniform", -0.1, 0.1), seed=seed, activation=activation,
        )
        return generate(cfg)

    def test_matches_finite_differences(self):
        rng = make_rng(0)
        for seed in range(20):
            spec = self.random_spec(seed)
            w = rng.standard_normal(7) * 0.3
            x = rng.standard_normal(7)
            J = esn_jacobian(spec, w, x)
            psi = autonomous_map(spec, w)
            h = 1e-5
            fd = np.empty((7, 7))
            for j in range(7):
                e = np.zeros(7)
                e[j] = h
                fd[:, j] = (psi(x + e) - psi(x - e)) / (2 * h)
            assert np.max(np.abs(J - fd)) < 1e-6

    def test_saturation_kills_jacobian(self):
        spec = self.random_spec(1)
        spec.b = spec.b + 50.0
        J = esn_jacobian(spec, np.zeros(7), np.zeros(7))
        assert np.max(np.abs(J)) < 1e-10

    def test_identity_activation_is_linear_part(self):
        spec = self.random_spec(2, activation="identity")
        w = np.full(7, 0.1)
        J = esn_jacobian(spec, w, np.ones(7))
        assert np.allclose(J, spec.A + spec.C @ w[None, :], atol=1e-14)


class TestLorenzLinearization:
    def test_tau_zero_gives_unit_eigenvalues(self):
        eigs = lorenz_linearization_eigs(tau=0.0)
        assert np.allclose(eigs, 1.0)

    def test_spectral_mapping(self):
        tau = 0.01
        J = lorenz_wing_jacobian()
        eigs_exp = np.sort_complex(lorenz_linearization_eigs(tau=tau))
        eigs_map = np.sort_complex(np.exp(tau * np.linalg.eigvals(J)))
        assert np.max(np.abs(eigs_exp - eigs_map)) < 1e-10

    @pytest.mark.parametrize("tau,tol", [(0.01, 1e-6), (0.001, 1e-10)])
    def test_matches_rk4_step_jacobian_at_wing(self, tau, tol):
        # At an equilibrium the RK4 step Jacobian is the degree-4 Taylor
        # polynomial of exp(tau J), so the spectra agree to O((tau |lambda|)^5).
        step = lorenz_step_jacobian(WING_FIXED_POINT, LorenzParams(tau=tau))
        eigs_step = np.sort_complex(np.linalg.eigvals(step))
        eigs = np.sort_complex(lorenz_linearization_eigs(tau=tau))
        assert np.max(np.abs(eigs - eigs_step)) < tol

    def test_wing_jacobian_matches_printed_matrix(self):
        s = 6.0 * np.sqrt(2.0)
        printed = np.array([[-10.0, 10.0, 0.0], [1.0, -1.0, -s], [s, s, -8.0 / 3.0]])
        assert np.allclose(lorenz_wing_jacobian(), printed, atol=1e-14)

    def test_wing_eigenstructure(self):
        # Dense eigensolver oracle: one real negative root plus a
        # complex pair with positive real part.
        eigs = np.linalg.eigvals(lorenz_wing_jacobian())
        real = sorted(e for e in eigs if abs(e.imag) < 1e-9)
        pair = [e for e in eigs if e.imag > 1e-9]
        assert len(real) == 1 and real[0].real < 0
        assert len(pair) == 1 and pair[0].real > 0


class TestLyapunovQr:
    def test_constant_diagonal_jacobian_exact(self):
        J = np.diag([0.5, 2.0])
        res = lyapunov_qr([J] * 200)
        assert np.allclose(res.exponents, [np.log(2.0), np.log(0.5)], atol=1e-12)

    def test_rotation_gives_zero_exponents(self):
        th = 0.7
        J = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        res = lyapunov_qr([J] * 300)
        assert np.max(np.abs(res.exponents)) < 1e-10

    def test_sum_equals_log_det_over_tau(self):
        J = np.array([[0.8, -0.3], [0.3, 0.8]])
        tau = 0.05
        res = lyapunov_qr([J] * 500, tau=tau)
        assert abs(res.exponents.sum() - np.log(abs(np.linalg.det(J))) / tau) < 1e-8

    def test_running_means_recorded(self):
        J = np.diag([0.9, 1.1])
        res = lyapunov_qr([J] * 500, record_every=100)
        assert res.running_means.shape == (5, 3)
        assert res.running_means[0, 0] == 100
        assert "lambda_1" in res.trace_csv().splitlines()[0]

    def test_exponents_sorted_descending(self):
        J = np.diag([1.5, 0.2, 0.9])
        res = lyapunov_qr([J] * 150)
        assert np.all(np.diff(res.exponents) <= 0)

    def test_too_few_iterations_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_qr([np.eye(1)] * 10)

    def test_reorth_interval_must_divide_record_interval(self):
        J = np.diag([0.9, 1.1])
        for record_every, reorth_every in ((100, 3), (100, 0), (10, 20)):
            with pytest.raises(ValueError):
                lyapunov_qr([J] * 200, record_every=record_every, reorth_every=reorth_every)

    def test_partial_block_is_factored(self):
        # 205 steps at reorth_every=10 leave a 5-step block after the
        # last QR; its growth must still reach the exponents.
        J = np.diag([0.5, 2.0])
        res = lyapunov_qr([J] * 205, reorth_every=10)
        assert res.n_iterations == 205
        assert np.allclose(res.exponents, [np.log(2.0), np.log(0.5)], atol=1e-12)

    def test_zero_diagonal_raises(self):
        with pytest.raises(DegenerateJacobianError):
            lyapunov_qr([np.diag([1.0, 0.0])] * 200)


class TestLyapunovQrLorenz:
    """The blocked QR on Lorenz tangent maps against the per-step reference."""

    @staticmethod
    def orbit_start():
        return integrate_lorenz(LorenzParams(), 1000).samples[-1]

    def test_equals_reference_at_reorth_one(self):
        params = LorenzParams()
        x0 = self.orbit_start()
        exponents, running = lyapunov_qr_reference(
            lambda x: lorenz_step_reference(x, params),
            lambda x: lorenz_step_jacobian_reference(x, params),
            x0, 3000, tau=params.tau,
        )
        res = lyapunov_qr(
            lorenz_tangent_maps(LorenzParams(initial=x0), 3000), tau=params.tau
        )
        expected = LyapunovResult(exponents=exponents, n_iterations=3000, running_means=running)
        assert np.array_equal(res.exponents, exponents)
        assert res.trace_csv() == expected.trace_csv()
        assert res.to_json() == expected.to_json()

    def test_reorth_ten_matches_reorth_one(self):
        x0 = self.orbit_start()
        tau = LorenzParams().tau
        one = lyapunov_qr(lorenz_tangent_maps(LorenzParams(initial=x0), 20000), tau=tau)
        ten = lyapunov_qr(
            lorenz_tangent_maps(LorenzParams(initial=x0), 20000), tau=tau, reorth_every=10
        )
        assert np.max(np.abs(ten.exponents - one.exponents)) < 1e-10
        assert ten.running_means.shape == one.running_means.shape
        assert np.max(np.abs(ten.running_means - one.running_means)) < 1e-10


class TestPca:
    def test_recovers_embedded_plane(self):
        rng = make_rng(3)
        latent = rng.standard_normal((200, 2))
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        X = latent @ basis.T + 5.0
        res = pca_project(TimeSeries(step=1.0, samples=X), k=2)
        recon = res.projected.samples @ res.components.T + res.mean
        assert np.max(np.abs(recon - X)) < 1e-10

    def test_isotropic_cloud_spreads_variance(self):
        rng = make_rng(4)
        n = 6
        X = rng.standard_normal((20000, n))
        res = pca_project(TimeSeries(step=1.0, samples=X), k=n)
        total = res.explained_variance.sum()
        shares = res.explained_variance / total
        assert np.max(np.abs(shares - 1.0 / n)) < 0.02

    def test_full_projection_is_isometry(self):
        rng = make_rng(5)
        X = rng.standard_normal((40, 4))
        res = pca_project(TimeSeries(step=1.0, samples=X), k=4)
        P = res.projected.samples
        for i in (0, 7, 21):
            for j in (3, 15, 39):
                d_orig = np.linalg.norm(X[i] - X[j])
                d_proj = np.linalg.norm(P[i] - P[j])
                assert abs(d_orig - d_proj) < 1e-10

    def test_components_orthonormal(self):
        rng = make_rng(6)
        X = rng.standard_normal((100, 5))
        res = pca_project(TimeSeries(step=1.0, samples=X), k=3)
        gram = res.components.T @ res.components
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    def test_rank_deficient_padded_with_warning(self):
        X = np.outer(np.arange(10.0), np.array([1.0, 2.0, 3.0]))
        with pytest.warns(RuntimeWarning):
            res = pca_project(TimeSeries(step=1.0, samples=X), k=3)
        assert np.allclose(res.components[:, 1:], 0.0)
