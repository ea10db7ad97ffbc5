import warnings

import numpy as np
import pytest

from echolab.dynsys import TimeSeries, integrate_lorenz, LorenzParams, example_drive_map
from echolab.errors import (
    DegenerateMatrixError,
    DimensionMismatchError,
    IntegrationDivergedError,
    SeriesDivergentError,
    SpectrumCollisionError,
)
from echolab.reservoir import (
    GononConfig,
    ReservoirGenConfig,
    ReservoirSpec,
    autonomous_drive,
    autonomous_map,
    build_gonon,
    check_condition_C,
    check_condition_D,
    check_global_contraction,
    check_local_contraction,
    check_system_isomorphism,
    circle_past_obs,
    drive,
    generate,
    gonon_shift_blocks,
    linear_gs_series,
    lower_shift_matrix,
    make_rng,
    matrix_2norm,
    spectral_radius,
    trajectory_past_obs,
)
from oracles import iterate_with_step_check


def scalar_series(values):
    return TimeSeries(step=1.0, samples=np.asarray(values, dtype=float)[:, None])


def linear_spec(A, C, seed=0):
    n = A.shape[0]
    return ReservoirSpec(
        n=n, d=1, A=A, C=np.asarray(C, dtype=float), b=np.zeros(n),
        activation="identity", seed=seed,
    )


class TestGenerate:
    def test_lower_shift_matrix(self):
        cfg = ReservoirGenConfig(3, 1, ("lower_shift",), ("unit_e1",), ("zero",))
        spec = generate(cfg)
        expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        assert np.array_equal(spec.A, expected)

    def test_rescaled_2norm_hits_target(self):
        for seed in (0, 1, 2):
            cfg = ReservoirGenConfig(
                40, 1, ("uniform_rescaled_2norm", 1.0), ("uniform", -0.05, 0.05),
                ("uniform", -0.05, 0.05), seed=seed,
            )
            spec = generate(cfg)
            assert abs(np.linalg.norm(spec.A, 2) - 1.0) < 1e-10

    def test_erdos_renyi_density_and_radius(self):
        cfg = ReservoirGenConfig(
            300, 1, ("gaussian_erdos_renyi", 6, 1.0), ("gaussian", 0.1),
            ("gaussian", 0.1), seed=3,
        )
        spec = generate(cfg)
        mean_nonzeros = np.count_nonzero(spec.A) / 300
        assert 4.5 <= mean_nonzeros <= 7.5
        rho = np.max(np.abs(np.linalg.eigvals(spec.A)))
        assert abs(rho - 1.0) < 1e-8

    def test_zero_explicit_matrix_rejected_for_rescale(self):
        cfg = ReservoirGenConfig(
            3, 1, ("gaussian_erdos_renyi", 0.000001, 1.0), ("unit_e1",), ("zero",), seed=0,
        )
        with pytest.raises(DegenerateMatrixError):
            generate(cfg)

    def test_seeded_determinism(self):
        cfg = ReservoirGenConfig(
            20, 1, ("uniform_rescaled_2norm", 0.9), ("uniform", -0.05, 0.05),
            ("uniform", -0.05, 0.05), seed=42,
        )
        a, b = generate(cfg), generate(cfg)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.b, b.b)

    def test_json_roundtrip_preserves_drive(self):
        cfg = ReservoirGenConfig(
            10, 1, ("uniform_rescaled_2norm", 0.8), ("uniform", -0.1, 0.1),
            ("uniform", -0.1, 0.1), seed=5,
        )
        spec = generate(cfg)
        clone = ReservoirSpec.from_json(spec.to_json())
        z = scalar_series(np.sin(np.arange(30)))
        x0 = np.zeros(10)
        assert np.array_equal(drive(spec, z, x0).samples, drive(clone, z, x0).samples)


class TestBuildGonon:
    def test_state_dimension(self):
        spec = build_gonon(GononConfig(n=4, T0=2, R=1.0, d=1))
        assert spec.n == 2 * (1 * 3 + 4) == 14

    def test_shift_block_nilpotent(self):
        S, _ = gonon_shift_blocks(d=1, T0=2)
        assert np.array_equal(np.linalg.matrix_power(S, 3), np.zeros((3, 3)))
        S2, _ = gonon_shift_blocks(d=2, T0=3)
        assert np.any(np.linalg.matrix_power(S2, 3) != 0)
        assert np.array_equal(np.linalg.matrix_power(S2, 4), np.zeros((8, 8)))

    def test_sign_block_structure(self):
        spec = build_gonon(GononConfig(n=3, T0=1, R=0.5, d=1, seed=9))
        half = spec.n // 2
        A = spec.A
        assert np.array_equal(A[:half, half:], -A[:half, :half])
        assert np.array_equal(A[half:, :half], -A[:half, :half])
        assert np.array_equal(A[half:, half:], A[:half, :half])
        assert np.array_equal(spec.C[half:], -spec.C[:half])
        assert np.array_equal(spec.b[half:], -spec.b[:half])

    def test_bias_range_and_zero_shift_bias(self):
        cfg = GononConfig(n=50, T0=2, R=2.0, d=1, M_T0=3.0, seed=1)
        spec = build_gonon(cfg)
        m = 3
        assert np.all(spec.b[:m] == 0.0)
        bound = max(cfg.M_T0 * cfg.R, 1.0)
        assert np.max(np.abs(spec.b)) <= bound

    def test_delay_line_recovers_inputs(self):
        # Upper shift block stores tanh-encoded delayed inputs; invert
        # the encoding to recover the raw window exactly.
        cfg = GononConfig(n=2, T0=2, R=0.5, d=1, seed=4)
        spec = build_gonon(cfg)
        rng = np.random.default_rng(0)
        z = rng.uniform(-0.9, 0.9, 12)
        states = drive(spec, scalar_series(z), np.zeros(spec.n)).samples
        k = 10
        x = states[k + 1]
        # After one step the halves are antisymmetric, so the effective
        # drive is tanh(2 A_bar x_plus + C_bar z + b_bar) on the upper half.
        block = lambda state, j: state[j]
        z0 = np.arctanh(block(states[k + 1], 0))
        assert abs(z0 - z[k]) < 1e-12
        z1 = np.arctanh(np.arctanh(block(states[k + 1], 1)) / 2.0)
        assert abs(z1 - z[k - 1]) < 1e-10
        z2 = np.arctanh(np.arctanh(np.arctanh(block(states[k + 1], 2)) / 2.0) / 2.0)
        assert abs(z2 - z[k - 2]) < 1e-8

    def test_states_bounded_by_tanh(self):
        spec = build_gonon(GononConfig(n=5, T0=1, R=1.0, d=1, seed=2))
        z = scalar_series(np.sin(np.arange(50)) * 3.0)
        states = drive(spec, z, np.zeros(spec.n)).samples
        assert np.all(np.abs(states[1:]) < 1.0)


class TestDrive:
    def test_identity_relay(self):
        spec = ReservoirSpec(
            n=1, d=1, A=np.zeros((1, 1)), C=np.eye(1), b=np.zeros(1), activation="identity"
        )
        z = scalar_series([3.0, -1.0, 2.5])
        out = drive(spec, z, np.array([7.0]))
        assert np.allclose(out.samples[:, 0], [7.0, 3.0, -1.0, 2.5])

    def test_lower_shift_builds_delay_vector(self):
        spec = linear_spec(lower_shift_matrix(3), np.array([[1.0], [0.0], [0.0]]))
        out = drive(spec, scalar_series([1.0, 2.0, 3.0]), np.zeros(3))
        assert np.array_equal(out.samples[3], np.array([3.0, 2.0, 1.0]))

    def test_takens_window_exact_for_long_input(self):
        n = 6
        spec = linear_spec(lower_shift_matrix(n), np.eye(n, 1))
        rng = np.random.default_rng(1)
        z = rng.standard_normal(40)
        out = drive(spec, scalar_series(z), np.zeros(n))
        k = 25
        assert np.array_equal(out.samples[k], z[k - n : k][::-1])

    def test_tanh_states_inside_unit_cube(self):
        cfg = ReservoirGenConfig(
            8, 1, ("uniform_rescaled_2norm", 1.2), ("uniform", -1, 1), ("uniform", -1, 1), seed=0,
        )
        spec = generate(cfg)
        out = drive(spec, scalar_series(np.linspace(-5, 5, 50)), np.zeros(8))
        assert np.all(np.abs(out.samples[1:]) < 1.0)

    def test_dim_mismatch(self):
        spec = generate(ReservoirGenConfig(4, 2, ("lower_shift",), ("unit_e1",), ("zero",)))
        with pytest.raises(DimensionMismatchError):
            drive(spec, scalar_series([1.0]), np.zeros(4))


    def test_matches_per_step_reference(self):
        spec = generate(ReservoirGenConfig(
            30, 1, ("uniform_rescaled_2norm", 0.9), ("uniform", -1, 1), ("uniform", -0.5, 0.5),
            seed=4,
        ))
        z = scalar_series(np.random.default_rng(4).uniform(-3, 3, 400))
        x0 = np.full(30, 0.1)
        expected = iterate_with_step_check(spec.step, z, x0)
        assert drive(spec, z, x0).samples.tobytes() == expected.tobytes()

    def test_unstable_identity_reservoir_reports_step(self):
        # x_k = 2^k from x0 = 1: 2^39 < 1e12 < 2^40, so step 40 is the
        # first out of range; the loop runs on to inf without warnings.
        spec = ReservoirSpec(
            n=1, d=1, A=np.array([[2.0]]), C=np.zeros((1, 1)), b=np.zeros(1),
            activation="identity",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError) as err:
                drive(spec, scalar_series(np.zeros(2000)), np.array([1.0]))
        assert err.value.step == 40


class TestAutonomousDrive:
    def test_unstable_readout_loop_reports_step(self):
        spec = ReservoirSpec(
            n=2, d=1, A=np.eye(2), C=np.array([[1.0], [1.0]]), b=np.zeros(2),
            activation="identity",
        )
        # psi(x) = x + (x_0, x_0): the first coordinate doubles each step.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError) as err:
                autonomous_drive(spec, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 3000)
        assert err.value.step == 40

    def test_matches_per_step_reference(self):
        spec = generate(ReservoirGenConfig(
            30, 1, ("uniform_rescaled_2norm", 0.9), ("uniform", -1, 1), ("uniform", -0.5, 0.5),
            seed=5,
        ))
        w = np.random.default_rng(5).uniform(-0.1, 0.1, 30)
        psi = autonomous_map(spec, w)
        x0 = np.full(30, 0.2)
        expected = iterate_with_step_check(lambda x, _: psi(x), scalar_series(np.zeros(400)), x0)
        out = autonomous_drive(spec, w, x0, 400)
        assert out.samples.tobytes() == expected.tobytes()

    def test_all_zero_system_constant(self):
        spec = ReservoirSpec(
            n=2, d=1, A=np.zeros((2, 2)), C=np.zeros((2, 1)), b=np.zeros(2), activation="tanh"
        )
        out = autonomous_drive(spec, np.zeros(2), np.array([0.3, -0.4]), 5)
        assert np.all(out.samples[1:] == 0.0)

    def test_scalar_projection_iteration(self):
        spec = ReservoirSpec(
            n=2, d=1, A=np.zeros((2, 2)), C=np.array([[1.0], [0.0]]),
            b=np.zeros(2), activation="identity",
        )
        w = np.array([1.0, 0.0])
        out = autonomous_drive(spec, w, np.array([0.7, 9.9]), 4)
        assert np.allclose(out.samples[1:, 0], 0.7)
        assert np.allclose(out.samples[1:, 1], 0.0)


class TestContraction:
    def test_global_contraction_reports_norm(self):
        A = 0.9 * np.eye(3)
        spec = ReservoirSpec(n=3, d=1, A=A, C=np.zeros((3, 1)), b=np.zeros(3))
        res = check_global_contraction(spec)
        assert res.is_contracting
        assert abs(res.c - 0.9) < 1e-10

    def test_lower_shift_not_contracting(self):
        spec = ReservoirSpec(
            n=3, d=1, A=lower_shift_matrix(3), C=np.zeros((3, 1)), b=np.zeros(3)
        )
        res = check_global_contraction(spec)
        assert not res.is_contracting
        assert abs(res.c - 1.0) < 1e-10

    def test_esp_decay_bound(self):
        cfg = ReservoirGenConfig(
            10, 1, ("uniform_rescaled_2norm", 0.5), ("uniform", -0.2, 0.2),
            ("uniform", -0.1, 0.1), seed=8,
        )
        spec = generate(cfg)
        rng = np.random.default_rng(3)
        z = scalar_series(rng.uniform(-1, 1, 60))
        x0 = rng.standard_normal(10)
        y0 = rng.standard_normal(10)
        xs = drive(spec, z, x0).samples
        ys = drive(spec, z, y0).samples
        base = np.linalg.norm(x0 - y0)
        for k in (1, 5, 10, 50):
            assert np.linalg.norm(xs[k] - ys[k]) <= 0.5**k * base + 1e-15

    def test_local_contraction_doubling_map_fails(self):
        res = check_local_contraction(
            lambda x, z: 2.0 * x, (np.array([-1.0]), np.array([1.0])), (0.0, 0.0),
            n_probes=500, seed=0,
        )
        assert not res.invariant
        assert res.c_est > 1.9

    def test_local_contraction_zero_map(self):
        res = check_local_contraction(
            lambda x, z: 0.0 * x, (np.array([-1.0]), np.array([1.0])), (0.0, 1.0),
            n_probes=500, seed=0,
        )
        assert res.invariant
        assert res.c_est == 0.0
        res2 = check_local_contraction(
            lambda x, z: 0.0 * x, (np.array([2.0]), np.array([3.0])), (0.0, 1.0),
            n_probes=200, seed=0,
        )
        assert not res2.invariant

    def test_signed_power_box_contraction(self):
        fmap = example_drive_map("signed_power", alpha=0.9, lam=0.009, k=0.1)
        xi = integrate_lorenz(LorenzParams(), 3000).samples[:, 0]
        res = check_local_contraction(
            fmap, (np.full(3, 0.9), np.full(3, 1.1)), (xi.min(), xi.max()),
            n_probes=2000, seed=1,
        )
        assert res.invariant
        assert res.c_est < 1.0


class TestLinearGsSeries:
    def test_zero_matrix_gives_direct_injection(self):
        spec = linear_spec(np.zeros((3, 3)), np.array([[2.0], [0.0], [1.0]]))
        res = linear_gs_series(spec, np.array([0.5, 9.0, 9.0]), truncation=2)
        assert np.allclose(res.value, np.array([1.0, 0.0, 0.5]))

    def test_decayed_shift_unrolled_by_hand(self):
        # A = 0.99 * shift, C = e1: A^k C = 0.99^k e_{k+1} for k < 3, else 0.
        spec = linear_spec(0.99 * lower_shift_matrix(3), np.eye(3, 1))
        w = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        res = linear_gs_series(spec, w, truncation=5)
        expected = np.array([1.0, 0.99 * 2.0, 0.99**2 * 3.0])
        assert np.allclose(res.value, expected, atol=1e-14)

    def test_drive_converges_to_series(self):
        # Circle rotation drive; iterate the reservoir and compare the
        # late states with the truncated series at the matching angles.
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        A *= 0.5 / spectral_radius(A)
        C = rng.standard_normal((6, 1))
        spec = linear_spec(A, C)
        eps = 2 * np.pi / 100
        omega = lambda m: 0.5 * np.sin(m)
        K = 700  # tail < 1e-10 since ||A||_2^K dominates
        n_steps = 900
        angles = np.mod(np.arange(n_steps) * eps, 2 * np.pi)
        z = scalar_series([omega(a) for a in angles])
        states = drive(spec, z, 10.0 * rng.standard_normal(6)).samples
        # x_k tracks f(phi^(k-1) m0): state k was produced by input z_{k-1}.
        for k in (800, 850, 899):
            m_k = np.mod((k - 1) * eps, 2 * np.pi)
            res = linear_gs_series(spec, circle_past_obs(eps, m_k, omega, K), truncation=K)
            assert res.tail_bound < 1e-8
            assert np.linalg.norm(states[k] - res.value) < 1e-8

    def test_gs_equation_self_consistency(self):
        # f(m) = A f(phi^{-1}(m)) + C omega(m) within truncation tolerance.
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 4))
        A *= 0.4 / spectral_radius(A)
        C = rng.standard_normal((4, 1))
        spec = linear_spec(A, C)
        eps = 0.31
        omega = lambda m: np.cos(m)
        K = 60
        m = 1.234
        f_m = linear_gs_series(spec, circle_past_obs(eps, m, omega, K), truncation=K)
        f_prev = linear_gs_series(
            spec, circle_past_obs(eps, np.mod(m - eps, 2 * np.pi), omega, K), truncation=K
        )
        lhs = f_m.value
        rhs = A @ f_prev.value + C[:, 0] * omega(m)
        assert np.linalg.norm(lhs - rhs) < 10 * (f_m.tail_bound + f_prev.tail_bound) + 1e-12

    def test_trajectory_window_backward(self):
        ts = scalar_series(np.arange(10.0))
        w = trajectory_past_obs(ts, index=7, truncation=3)
        assert np.array_equal(w[:, 0], [7.0, 6.0, 5.0, 4.0])
        with pytest.raises(ValueError):
            trajectory_past_obs(ts, index=2, truncation=3)

    def test_divergent_radius_rejected(self):
        spec = linear_spec(np.eye(2), np.ones((2, 1)))
        with pytest.raises(SeriesDivergentError):
            linear_gs_series(spec, np.zeros(3), truncation=2)


class TestEmbeddingConditions:
    def test_shift_with_e1_satisfies_D(self):
        assert check_condition_D(lower_shift_matrix(3), np.eye(3, 1))

    def test_identity_fails_D(self):
        assert not check_condition_D(np.eye(3), np.array([1.0, 2.0, 3.0]))

    def test_random_pairs_satisfy_D(self):
        for seed in range(100):
            rng = make_rng(seed)
            A = rng.standard_normal((6, 6))
            C = rng.standard_normal(6)
            assert check_condition_D(A, C)

    def test_condition_D_similarity_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = rng.standard_normal((5, 5))
            C = rng.standard_normal(5)
            P = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
            assert np.linalg.cond(P) < 100
            assert check_condition_D(A, C) == check_condition_D(
                P @ A @ np.linalg.inv(P), P @ C
            )

    def test_single_eigenvalue_true_when_nonzero(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        A *= 0.5 / spectral_radius(A)
        C = rng.standard_normal(4)
        assert check_condition_C(A, C, [0.7], period=2)

    def test_duplicate_eigenvalues_fail(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        A *= 0.5 / spectral_radius(A)
        C = rng.standard_normal(4)
        assert not check_condition_C(A, C, [0.6, 0.6], period=2)

    def test_random_triples_satisfy_C(self):
        for seed in range(100):
            rng = make_rng(1000 + seed)
            A = rng.standard_normal((6, 6))
            A *= 0.8 / spectral_radius(A)
            C = rng.standard_normal(6)
            lams = rng.uniform(0.1, 0.9, 3)
            while len(np.unique(np.round(lams, 6))) < 3:
                lams = rng.uniform(0.1, 0.9, 3)
            assert check_condition_C(A, C, list(lams), period=3)

    def test_spectrum_collision_detected(self):
        A = np.diag([0.5, 0.25])
        C = np.ones(2)
        with pytest.raises(SpectrumCollisionError):
            check_condition_C(A, C, [4.1], period=1)


class TestSystemIsomorphism:
    def build_pair(self, seed, P):
        rng = make_rng(seed)
        n = 8
        A_bar = rng.standard_normal((n, n))
        A_bar *= 0.7 / spectral_radius(A_bar)
        C_bar = rng.standard_normal((n, 1))
        spec_b = linear_spec(A_bar, C_bar, seed=seed)
        Pinv = np.linalg.inv(P)
        spec_a = linear_spec(P @ A_bar @ Pinv, P @ C_bar, seed=seed)
        return spec_a, spec_b

    def test_identity_similarity_exact(self):
        spec_a, spec_b = self.build_pair(0, np.eye(8))
        z = scalar_series(np.sin(0.1 * np.arange(100)))
        dev = check_system_isomorphism(spec_a, spec_b, np.eye(8), z, np.ones(8))
        assert dev == 0.0

    def test_scaling_similarity(self):
        P = 2.0 * np.eye(8)
        spec_a, spec_b = self.build_pair(1, P)
        z = scalar_series(np.sin(0.1 * np.arange(200)))
        rng = np.random.default_rng(0)
        dev = check_system_isomorphism(
            spec_a, spec_b, P, z, rng.standard_normal(8), x0_bar=rng.standard_normal(8)
        )
        assert dev < 1e-10

    def test_random_well_conditioned_similarity(self):
        rng = np.random.default_rng(10)
        z = scalar_series(np.sin(0.05 * np.arange(300)) + 0.2 * np.cos(np.arange(300)))
        for seed in range(5):
            P = np.eye(8) + 0.2 * rng.standard_normal((8, 8))
            assert np.linalg.cond(P) < 10
            spec_a, spec_b = self.build_pair(seed, P)
            dev = check_system_isomorphism(
                spec_a, spec_b, P, z, rng.standard_normal(8),
                x0_bar=rng.standard_normal(8),
            )
            assert dev < 1e-8

    def test_singular_p_rejected(self):
        spec_a, spec_b = self.build_pair(2, np.eye(8))
        z = scalar_series([0.0])
        with pytest.raises(DegenerateMatrixError):
            check_system_isomorphism(spec_a, spec_b, np.zeros((8, 8)), z, np.ones(8))


class TestNormHelpers:
    def test_power_iteration_matches_svd(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            A = rng.standard_normal((30, 30))
            assert abs(matrix_2norm(A) - np.linalg.norm(A, 2)) < 1e-8 * np.linalg.norm(A, 2)

    def test_spectral_radius_diagonal(self):
        assert abs(spectral_radius(np.diag([0.3, -2.0, 1.1])) - 2.0) < 1e-12
