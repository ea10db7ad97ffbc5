import numpy as np
import pytest

from echolab.diagnostics import (
    LORENZ_EXPONENT_SPREAD,
    PCA_OVERSAMPLE,
    RECORD_EVERY,
    REORTH_GROWTH_BOUND,
    FixedPointResult,
    _gram_schmidt,
    esn_jacobian,
    explained_variances,
    lorenz_linearization_eigs,
    lorenz_reorth_interval,
    lyapunov_qr,
    newton_fixed_point,
)
from echolab.dynsys import (
    TANGENT_CHUNK,
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
from echolab.reservoir import autonomous_map, drive, generate, make_rng
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

    def test_large_well_conditioned_system_is_not_singular(self):
        # J - I = -0.1 I is well conditioned, but its determinant
        # 0.1^400 underflows to zero.
        res = newton_fixed_point(
            lambda x: 0.9 * x + 1.0, lambda x: 0.9 * np.eye(400), np.zeros(400)
        )
        assert np.allclose(res.x_star, 10.0, rtol=1e-12)
        assert res.iterations == 1

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
        return generate(7, seed, a_norm=0.8, c_scale=0.3, b_scale=0.1, activation=activation)

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


def stack_of(J, n):
    """One (n, d, d) stack repeating the Jacobian J."""
    return [np.stack([J] * n)]


class TestLyapunovQr:
    def test_constant_diagonal_jacobian_exact(self):
        J = np.diag([0.5, 2.0])
        res = lyapunov_qr(stack_of(J, 200))
        assert np.allclose(res.exponents, [np.log(2.0), np.log(0.5)], atol=1e-12)

    def test_rotation_gives_zero_exponents(self):
        th = 0.7
        J = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        res = lyapunov_qr(stack_of(J, 300))
        assert np.max(np.abs(res.exponents)) < 1e-10

    def test_sum_equals_log_det_over_tau(self):
        J = np.array([[0.8, -0.3], [0.3, 0.8]])
        tau = 0.05
        res = lyapunov_qr(stack_of(J, 500), tau=tau)
        assert abs(res.exponents.sum() - np.log(abs(np.linalg.det(J))) / tau) < 1e-8

    def test_running_means_recorded(self):
        J = np.diag([0.9, 1.1])
        res = lyapunov_qr(stack_of(J, 500))
        assert res.running_means.shape == (5, 3)
        assert res.running_means[0, 0] == 100

    def test_running_mean_drift(self):
        # Constant exponents drift by rounding only; the drift of a
        # one-row trace is not defined.
        res = lyapunov_qr(stack_of(np.diag([0.9, 1.1]), 2000))
        assert res.running_mean_drift < 1e-15
        assert lyapunov_qr(stack_of(np.eye(2), 150)).running_mean_drift is None

    def test_exponents_sorted_descending(self):
        J = np.diag([1.5, 0.2, 0.9])
        res = lyapunov_qr(stack_of(J, 150))
        assert np.all(np.diff(res.exponents) <= 0)

    def test_too_few_iterations_rejected(self):
        with pytest.raises(ValueError, match="at least 100"):
            lyapunov_qr(stack_of(np.eye(1), 10))
        with pytest.raises(ValueError, match="at least 100"):
            lyapunov_qr([])

    def test_matrices_are_not_taken_as_stacks(self):
        with pytest.raises(ValueError, match=r"\(k, d, d\)"):
            lyapunov_qr([np.eye(2)] * 200)
        with pytest.raises(ValueError, match=r"\(k, d, d\)"):
            lyapunov_qr(np.stack([np.eye(2)] * 200))

    def test_reorth_interval_must_divide_record_interval(self):
        J = np.diag([0.9, 1.1])
        for reorth_every in (3, 0, 7):
            with pytest.raises(ValueError, match="reorth_every must divide 100"):
                lyapunov_qr(stack_of(J, 200), reorth_every=reorth_every)

    def test_partial_block_is_factored(self):
        # 205 steps at reorth_every=10 leave a 5-step block after the
        # last QR; its growth must still reach the exponents.
        J = np.diag([0.5, 2.0])
        res = lyapunov_qr(stack_of(J, 205), reorth_every=10)
        assert res.n_iterations == 205
        assert np.allclose(res.exponents, [np.log(2.0), np.log(0.5)], atol=1e-12)

    def test_zero_diagonal_raises(self):
        with pytest.raises(DegenerateJacobianError):
            lyapunov_qr(stack_of(np.diag([1.0, 0.0]), 200))

    @pytest.mark.parametrize(
        "bad, reorth_every, iteration",
        [
            (np.diag([1.0, 0.0]), 1, 53),
            (np.diag([1.0, 0.0]), 10, 60),
            (np.full((2, 2), np.nan), 1, 53),
            (np.full((2, 2), np.nan), 10, 60),
        ],
    )
    def test_degenerate_jacobian_names_the_iteration(self, bad, reorth_every, iteration):
        # A zero column or a nan at step 53 fails the QR of the block
        # that holds it.
        stack = np.stack([np.diag([0.9, 1.1])] * 200)
        stack[52] = bad
        with pytest.raises(
            DegenerateJacobianError,
            match=f"zero or non-finite R diagonal at iteration {iteration}$",
        ):
            lyapunov_qr([stack], reorth_every=reorth_every)


class TestGramSchmidt:
    @pytest.mark.parametrize("kappa", [4.7, 1e4, 1e8])
    def test_orthonormal_at_any_condition(self, kappa):
        # Z = U diag(1, kappa^-1/2, 1/kappa) V^T has condition kappa. Q
        # stays orthonormal to working precision (one Gram-Schmidt pass
        # alone reads 3.1e-13 at 1e4 and 1.4e-8 at 1e8 on these frames),
        # and log r_kk agrees with LAPACK's log |R_kk| within the
        # kappa * eps perturbation bound.
        rng = make_rng(int(np.log10(kappa)))
        U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        Z = U @ np.diag([1.0, kappa**-0.5, 1.0 / kappa]) @ V.T
        q, diag = _gram_schmidt(Z.T.tolist())
        Q = np.array(q).T
        assert np.linalg.norm(Q.T @ Q - np.eye(3), 2) <= 1e-14
        assert np.all(np.array(diag) > 0)
        R = np.linalg.qr(Z)[1]
        err = np.abs(np.log(diag) - np.log(np.abs(np.diag(R))))
        assert np.max(err) <= kappa * np.finfo(float).eps

    def test_rectangular_frame(self):
        # Three columns in R^5: the same code serves any d x k frame, and
        # its factors are LAPACK's with R's diagonal made positive.
        Z = make_rng(5).standard_normal((5, 3))
        q, diag = _gram_schmidt(Z.T.tolist())
        Q, R = np.linalg.qr(Z)
        assert np.allclose(np.array(q).T, Q * np.sign(np.diag(R)), rtol=0, atol=1e-14)
        assert np.allclose(diag, np.abs(np.diag(R)), rtol=1e-14, atol=0)

    def test_zero_column_is_reported(self):
        assert _gram_schmidt([[1.0, 0.0], [2.0, 0.0]]) is None


class TestLorenzReorthInterval:
    @pytest.mark.parametrize(
        "tau, interval", [(0.001, 100), (0.01, 50), (0.05, 10), (0.1, 5), (1.0, 1)]
    )
    def test_interval_table(self, tau, interval):
        assert lorenz_reorth_interval(tau)[0] == interval
        assert RECORD_EVERY % interval == 0
        assert TANGENT_CHUNK % interval == 0

    def test_interval_keeps_the_growth_bound(self):
        # The chosen interval's growth is within the bound and the next
        # divisor's is not, wherever one step alone stays within it.
        divisors = [m for m in range(1, 101) if 100 % m == 0]
        for tau in np.geomspace(1e-4, 0.5, 40):
            m, growth = lorenz_reorth_interval(tau)
            assert growth == pytest.approx(np.exp(LORENZ_EXPONENT_SPREAD * m * tau))
            assert growth <= REORTH_GROWTH_BOUND
            longer = [k for k in divisors if k > m]
            if longer:
                assert np.exp(LORENZ_EXPONENT_SPREAD * longer[0] * tau) > REORTH_GROWTH_BOUND


class TestLyapunovQrLorenz:
    """The blocked QR on Lorenz tangent maps against the per-step reference."""

    @staticmethod
    def orbit_start():
        return integrate_lorenz(LorenzParams(), 1000).samples[-1]

    def test_equals_reference_at_reorth_one(self):
        # The Gram-Schmidt QR rounds differently from LAPACK's
        # Householder QR; measured differences are 3.6e-15 on the
        # exponents and 8.9e-15 on the running means.
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
        assert np.max(np.abs(res.exponents - exponents)) < 1e-13
        assert res.running_means.shape == running.shape
        assert np.array_equal(res.running_means[:, 0], running[:, 0])
        assert np.max(np.abs(res.running_means - running)) < 1e-13
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

    @pytest.mark.parametrize(
        "tau, interval, near_bound, exponent_tol",
        [(0.01, 50, False, 1e-12), (0.0107, 50, True, 1e-11), (0.0535, 10, True, 1e-11)],
    )
    def test_derived_interval_matches_reorth_one(self, tau, interval, near_bound, exponent_tol):
        # The derived interval against one QR per step. At the default
        # tau = 0.01 (growth 2.3e3) measured 2.4e-13 on the exponents and
        # 6.9e-12 on the running means; 100 steps would lose 1.4e-7. At
        # tau = 0.0107 and 0.0535 the growth is 3.9e3, within 5% of the 4e3
        # bound (a larger bound must move these points up to it): measured
        # 4.8e-12 and 9.7e-13 on the exponents, 6.2e-12 and 1.7e-11 on the
        # running means. At a growth of 1e4 they are off by up to 3.6e-11
        # and 4.8e-10.
        m, growth = lorenz_reorth_interval(tau)
        assert m == interval and growth <= REORTH_GROWTH_BOUND
        if near_bound:
            assert growth > 0.95 * REORTH_GROWTH_BOUND
        params = LorenzParams(tau=tau, initial=self.orbit_start())
        one = lyapunov_qr(lorenz_tangent_maps(params, 20000), tau=tau)
        derived = lyapunov_qr(lorenz_tangent_maps(params, 20000), tau=tau, reorth_every=m)
        assert np.max(np.abs(derived.exponents - one.exponents)) < exponent_tol
        assert derived.running_means.shape == one.running_means.shape
        assert np.array_equal(derived.running_means[:, 0], one.running_means[:, 0])
        assert np.max(np.abs(derived.running_means - one.running_means)) < 1e-10

    @pytest.mark.parametrize("reorth_every", [1, 10, 50])
    def test_stack_split_does_not_change_a_bit(self, reorth_every):
        # Blocks follow the global step index, so cutting one sequence
        # into stacks of 7, 13 and 180 (blocks straddling the cuts) gives
        # the bits of the single stack.
        params = LorenzParams(initial=self.orbit_start())
        whole = np.concatenate(list(lorenz_tangent_maps(params, 2005)))
        cuts = np.cumsum([7, 13, 180] * 10)
        pieces = np.split(whole, cuts[cuts < len(whole)])
        one = lyapunov_qr([whole], tau=params.tau, reorth_every=reorth_every)
        split = lyapunov_qr(pieces, tau=params.tau, reorth_every=reorth_every)
        assert split.n_iterations == one.n_iterations == 2005
        assert split.exponents.tobytes() == one.exponents.tobytes()
        assert split.running_means.tobytes() == one.running_means.tobytes()


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

    @staticmethod
    def _assert_matches_thin_svd(X, k, exact=None):
        # Within 8 eps of the largest variance of a thin SVD of the
        # centred samples and, when given, of the exact variances.
        sv = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)[1]
        references = [sv[:k] ** 2 / (X.shape[0] - 1)]
        if exact is not None:
            references.append(exact[:k])
        var = explained_variances(X, k)
        for full in references:
            assert np.max(np.abs(var - full)) <= 8 * np.finfo(float).eps * full[0]

    @staticmethod
    def _reservoir_states(n, ell, seed):
        spec = generate(n, seed)
        xi = integrate_lorenz(LorenzParams(), ell).samples[:, :1]
        return drive(spec, TimeSeries(step=0.01, samples=xi), np.zeros(n)).samples[100:]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_full_svd_on_reservoir_states(self, seed):
        # The Ritz values come from an eigenbasis of the Gram matrix and
        # a small SVD of the samples projected onto it; the thin SVD
        # reduces the samples themselves. Each is accurate to a few ulps
        # of the largest singular value, so the variances agree to 8 eps
        # of the largest variance; the smallest of them can differ by
        # more than that relative to itself.
        self._assert_matches_thin_svd(self._reservoir_states(100, 3000, seed), 3)

    def test_matches_full_svd_at_benchmark_dimension(self):
        # n = 300 as in the ESN benchmark, over fewer driven steps.
        self._assert_matches_thin_svd(self._reservoir_states(300, 2000, 1), 3)

    @staticmethod
    def _exact_cloud(m, n, offset):
        # m samples of a cloud in R^n whose centred samples and variances
        # are exact in floating point: +-1 Hadamard columns without the
        # constant one (orthogonal, mean zero) scaled by distinct dyadic
        # s_j and rotated by the orthogonal D H_n / sqrt(n), n in {4, 16},
        # where the signs D keep every principal direction off the diagonal.
        # The singular values are sqrt(m) * s_j, the variances
        # m * s_j**2 / (m - 1). On Gaussian clouds the thin SVD is itself
        # off by up to 20 eps of the largest variance; here it is exact to
        # a few eps.
        def hadamard(size):
            h = np.ones((1, 1))
            while h.shape[0] < size:
                h = np.block([[h, h], [h, -h]])
            return h

        s = np.arange(2 * n, n, -1) / 16.0
        rotation = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)[:, None] * hadamard(n)
        centred = (hadamard(m)[:, 1 : n + 1] * s) @ rotation.T / np.sqrt(n)
        X = centred + offset
        assert np.array_equal(X - X.mean(axis=0), centred)
        return X, m * s**2 / (m - 1)

    def test_matches_full_svd_far_from_origin(self):
        # A mean 1e3 times the spread, in more dimensions than the trial
        # space: the samples must be centred before the Gram matrix is
        # formed, or its leading eigenvector points at the mean and the
        # trial space misses part of the spread.
        X, exact = self._exact_cloud(512, 16, 1e3)
        self._assert_matches_thin_svd(X, 3, exact)

    @pytest.mark.parametrize("m, n, k", [(256, 4, 2), (256, 4, 4), (512, 16, 10), (512, 16, 16)])
    def test_matches_full_svd_when_every_column_is_used(self, m, n, k):
        # k = n, or n below k + PCA_OVERSAMPLE: the trial space is all of R^n.
        assert n < k + PCA_OVERSAMPLE
        X, exact = self._exact_cloud(m, n, 5.0)
        self._assert_matches_thin_svd(X, k, exact)

    def test_k_beyond_samples_or_dimension_rejected(self):
        with pytest.raises(ValueError):
            explained_variances(np.zeros((5, 2)), 3)
        with pytest.raises(ValueError):
            explained_variances(np.zeros((2, 5)), 3)
