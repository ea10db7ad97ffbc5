import numpy as np
import pytest

from echolab.diagnostics import (
    FixedPointResult,
    esn_jacobian,
    explained_variances,
    lorenz_linearization_eigs,
    lyapunov_qr,
    newton_fixed_point,
)
from echolab.dynsys import (
    WING_FIXED_POINT,
    LorenzParams,
    TimeSeries,
    integrate_lorenz,
    lorenz_jacobian,
    lorenz_step_jacobian,
    lorenz_tangent_maps,
)
from echolab.errors import (
    DegenerateJacobianError,
    NearNeutralFixedPointError,
    NewtonConvergenceError,
)
from echolab.reservoir import ReservoirGenConfig, autonomous_map, drive, generate, make_rng
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
        # should square from step to step near the root. Newton evaluates
        # psi once per iterate, so a wrapper records every residual.
        history = []

        def psi(x):
            fx = np.cos(x)
            history.append(float(np.linalg.norm(fx - x)))
            return fx

        res = newton_fixed_point(psi, lambda x: np.diag(-np.sin(x)), np.array([1.0]))
        assert history[-1] == res.residual and len(history) == res.iterations + 1
        hist = np.array(history)
        hist = hist[hist > 0]
        for r0, r1 in zip(hist[-4:-1], hist[-3:]):
            assert r1 <= 10.0 * r0**2 + 1e-15

    def test_near_neutral_fixed_point_raises(self):
        # The translation x -> x + 1 has J = I everywhere and no root.
        with pytest.raises(NearNeutralFixedPointError):
            newton_fixed_point(lambda x: x + 1.0, lambda x: np.eye(1), np.array([0.0]))

    def test_nonconvergence_raises_with_residual(self):
        # psi(x) = x + x^2 + 1 has no real fixed point, so every retry fails.
        with pytest.raises(NewtonConvergenceError) as err:
            newton_fixed_point(
                lambda x: x + x**2 + 1.0, lambda x: np.diag(1.0 + 2.0 * x), np.array([0.5])
            )
        assert err.value.residual >= 1.0

    def test_returns_fixed_point_result(self):
        res = newton_fixed_point(
            lambda x: 0.5 * x, lambda x: 0.5 * np.eye(1), np.array([1.0])
        )
        assert isinstance(res, FixedPointResult)
        assert (res.x_star.tolist(), res.iterations, res.residual) == ([0.0], 1, 0.0)
        assert res.jacobian_eigs.tolist() == [0.5]


class TestEsnJacobian:
    def random_spec(self, seed, activation="tanh"):
        return generate(ReservoirGenConfig(7, 1, 0.8, 0.3, 0.1, seed=seed, activation=activation))

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
        J = lorenz_jacobian(WING_FIXED_POINT, LorenzParams())
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
        J = lorenz_jacobian(WING_FIXED_POINT, LorenzParams())
        assert np.allclose(J, printed, atol=1e-14)

    def test_wing_eigenstructure(self):
        # Dense eigensolver oracle: one real negative root plus a
        # complex pair with positive real part.
        eigs = np.linalg.eigvals(lorenz_jacobian(WING_FIXED_POINT, LorenzParams()))
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
        res = lyapunov_qr([J] * 500)
        assert res.running_means.shape == (5, 3)
        assert res.running_means[0, 0] == 100

    def test_exponents_sorted_descending(self):
        J = np.diag([1.5, 0.2, 0.9])
        res = lyapunov_qr([J] * 150)
        assert np.all(np.diff(res.exponents) <= 0)

    def test_too_few_iterations_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_qr([np.eye(1)] * 10)

    def test_reorth_interval_must_divide_record_interval(self):
        J = np.diag([0.9, 1.1])
        for reorth_every in (3, 0, 7):
            with pytest.raises(ValueError, match="reorth_every must divide 100"):
                lyapunov_qr([J] * 200, reorth_every=reorth_every)

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
        assert np.array_equal(res.exponents, exponents)
        assert res.running_means.shape == running.shape
        assert res.running_means.tobytes() == running.tobytes()
        assert res.n_iterations == 3000

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
        # A shifted cloud in a 2-plane of R^6: two directions carry all of
        # its variance, and the third carries none.
        rng = make_rng(3)
        latent = rng.standard_normal((200, 2))
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        X = latent @ basis.T + 5.0
        var = explained_variances(X, 3)
        latent_var = np.sort(np.linalg.eigvalsh(np.cov(latent, rowvar=False)))[::-1]
        assert np.allclose(var[:2], latent_var, rtol=1e-10)
        assert var[2] < 1e-20 * var[0]

    def test_isotropic_cloud_spreads_variance(self):
        rng = make_rng(4)
        n = 6
        X = rng.standard_normal((20000, n))
        var = explained_variances(X, n)
        shares = var / var.sum()
        assert np.max(np.abs(shares - 1.0 / n)) < 0.02

    def test_full_projection_is_isometry(self):
        # Rotating onto all principal directions keeps the total variance.
        rng = make_rng(5)
        X = rng.standard_normal((40, 4))
        var = explained_variances(X, 4)
        assert abs(var.sum() - X.var(axis=0, ddof=1).sum()) < 1e-12 * var.sum()

    def test_rank_deficient_trailing_variances_zero(self):
        X = np.outer(np.arange(10.0), np.array([1.0, 2.0, 3.0]))
        var = explained_variances(X, 3)
        assert abs(var[0] - X.var(axis=0, ddof=1).sum()) < 1e-12 * var[0]
        assert np.all(var[1:] < 1e-25 * var[0])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_full_svd_on_reservoir_states(self, seed):
        # The singular values alone and those of the thin SVD that also
        # computes U and V come from different LAPACK paths. Each is
        # accurate to a few ulps of the largest singular value, so the
        # variances agree to 8 eps of the largest variance; the smallest
        # of them can differ by more than that relative to itself.
        spec = generate(
            ReservoirGenConfig(n=100, d=1, a_norm=1.0, c_scale=0.05, b_scale=0.05, seed=seed)
        )
        xi = integrate_lorenz(LorenzParams(), 3000).samples[:, :1]
        X = drive(spec, TimeSeries(step=0.01, samples=xi), np.zeros(100)).samples[100:]
        sv = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)[1]
        full = sv[:3] ** 2 / (X.shape[0] - 1)
        err = np.abs(explained_variances(X, 3) - full)
        assert np.max(err) <= 8 * np.finfo(float).eps * full[0]

    def test_k_beyond_samples_or_dimension_rejected(self):
        with pytest.raises(ValueError):
            explained_variances(np.zeros((5, 2)), 3)
        with pytest.raises(ValueError):
            explained_variances(np.zeros((2, 5)), 3)
