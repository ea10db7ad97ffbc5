import hashlib
import math
import warnings

import numpy as np
import pytest

from echolab.dynsys import TimeSeries
from echolab.errors import (
    DimensionMismatchError,
    IntegrationDivergedError,
    SpectrumCollisionError,
)
from echolab.reservoir import (
    ReservoirSpec,
    autonomous_drive,
    autonomous_map,
    check_condition_C,
    check_condition_D,
    drive,
    generate,
    make_rng,
    spectral_radius,
)
from oracles import iterate_with_step_check, linear_gs_series_reference


def scalar_series(values):
    return TimeSeries(step=1.0, samples=np.asarray(values, dtype=float)[:, None])


def lower_shift_matrix(n):
    A = np.zeros((n, n))
    A[np.arange(1, n), np.arange(n - 1)] = 1.0
    return A


def circle_past_obs(epsilon, m, omega, truncation):
    """Backward observations w_k = omega(m - k epsilon) of a rotation."""
    return omega(np.mod(m - np.arange(truncation + 1) * epsilon, 2 * np.pi))


def example_spec(units):
    """The scalar example x -> tanh(2x + z) as an ESN (A = 2, C = 1,
    b = 0), in `units` uncoupled copies."""
    return ReservoirSpec(A=2.0 * np.eye(units), C=np.ones(units), b=np.zeros(units))


def linear_spec(A, C):
    return ReservoirSpec(A=A, C=C, b=np.zeros(A.shape[0]), activation="identity")


class TestGenerate:
    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 42, 601])
    def test_rescaled_2norm_hits_target(self, seed):
        spec = generate(40, seed, a_norm=0.8)
        assert abs(np.linalg.norm(spec.A, 2) - 0.8) < 1e-12

    def test_forecasting_reservoir_of_seed_42_keeps_its_bits(self):
        # The dense 2-norm is the value the power iteration it replaced
        # fell back to at n = 300, seed 42, so this A is unchanged.
        A = generate(300, 42).A
        digest = hashlib.sha256(A.tobytes()).hexdigest()
        assert digest == "49617ae8b6adc77ea812cfd497ce71d0285e0e2abb167a6b91388bbd3623bfdc"

    def test_input_and_bias_within_their_ranges(self):
        spec = generate(50, 6, d=3, a_norm=0.9, c_scale=0.2)
        assert spec.C.shape == (50, 3) and spec.b.shape == (50,)
        assert np.all(np.abs(spec.C) <= 0.2) and np.all(np.abs(spec.b) <= 0.05)
        assert np.abs(spec.C).max() > 0.1 and np.abs(spec.b).max() > 0.025

    def test_draws_a_then_c_then_b_from_one_generator(self):
        # The draw order fixes every reservoir a seed names.
        spec = generate(6, 9, d=2, a_norm=0.7, c_scale=0.3, b_scale=0.1)
        rng = make_rng(9)
        A = rng.uniform(-1.0, 1.0, (6, 6))
        assert np.allclose(spec.A, A * (0.7 / np.linalg.norm(A, 2)), rtol=1e-9, atol=0)
        assert np.array_equal(spec.C, rng.uniform(-0.3, 0.3, (6, 2)))
        assert np.array_equal(spec.b, rng.uniform(-0.1, 0.1, 6))

    def test_seeded_determinism(self):
        a, b = generate(20, 42, a_norm=0.9), generate(20, 42, a_norm=0.9)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.b, b.b)


class TestSpec:
    def test_sizes_read_off_a_and_c(self):
        spec = ReservoirSpec(A=np.eye(3), C=np.ones((3, 2)), b=np.zeros(3))
        assert (spec.n, spec.d) == (3, 2)
        column = ReservoirSpec(A=np.eye(3), C=np.arange(3.0), b=np.zeros(3)).C
        assert column.tolist() == [[0.0], [1.0], [2.0]]

    @pytest.mark.parametrize(
        "A, C",
        [
            (0.5 * np.eye(3), np.arange(6.0).reshape(2, 3)),  # C transposed
            (np.eye(4), np.ones((2, 2))),  # n entries, but not one per state
            (np.eye(3), np.ones(2)),
            (np.ones((3, 2)), np.ones(3)),  # A not square
        ],
    )
    def test_mismatched_shapes_rejected(self, A, C):
        with pytest.raises(DimensionMismatchError):
            ReservoirSpec(A=A, C=C, b=np.zeros(3))


class TestDrive:
    def test_identity_relay(self):
        spec = ReservoirSpec(A=np.zeros((1, 1)), C=np.eye(1), b=np.zeros(1), activation="identity")
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
        spec = generate(8, 0, a_norm=1.2, c_scale=1.0, b_scale=1.0)
        out = drive(spec, scalar_series(np.linspace(-5, 5, 50)), np.zeros(8))
        assert np.all(np.abs(out.samples[1:]) < 1.0)

    def test_wrong_state_size_rejected(self):
        # A start state of another size is not broadcast into the spec's.
        with pytest.raises(ValueError):
            drive(example_spec(1), scalar_series(np.zeros(3)), np.array([0.1, 0.2]))

    def test_dim_mismatch(self):
        spec = ReservoirSpec(A=lower_shift_matrix(4), C=np.eye(4, 2), b=np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            drive(spec, scalar_series([1.0]), np.zeros(4))


    # n = 300 is the size the benchmark drives; its product may take
    # another BLAS path than n = 30.
    @pytest.mark.parametrize("n, activation", [(30, "tanh"), (300, "tanh"), (30, "identity")])
    def test_matches_per_step_reference(self, n, activation):
        spec = generate(n, 4, a_norm=0.9, c_scale=1.0, b_scale=0.5, activation=activation)
        z = scalar_series(np.random.default_rng(4).uniform(-3, 3, 400))
        x0 = np.full(n, 0.1)
        expected = iterate_with_step_check(
            lambda x, z: spec.advance(x, spec.C @ np.atleast_1d(z), np.empty(n)), z, x0
        )
        assert drive(spec, z, x0).samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: generate(300, 4, a_norm=0.9, c_scale=1.0, b_scale=0.5),
            lambda: linear_spec(0.5 * np.eye(3), np.ones(3)),
            lambda: example_spec(1),
        ],
        ids=["tanh_esn", "identity", "example"],
    )
    def test_out_gets_the_bits_of_a_fresh_array(self, make_spec):
        # Drive into the first n columns of a wider array, as a design
        # [X | Y] is laid out; the last column is left alone.
        spec = make_spec()
        z = scalar_series(np.random.default_rng(8).uniform(-1, 1, 200))
        x0 = np.full(spec.n, 0.3)
        wide = np.full((201, spec.n + 1), 5.0)
        out = drive(spec, z, x0, out=wide[:, : spec.n])
        assert np.shares_memory(out.samples, wide)
        assert out.samples.tobytes() == drive(spec, z, x0).samples.tobytes()
        assert np.all(wide[:, -1] == 5.0)

    @pytest.mark.parametrize(
        "make_out",
        [
            lambda: np.zeros((30, 4)),  # one row short
            lambda: np.zeros((31, 5)),  # one column too many
            lambda: np.zeros((31, 8))[:, ::2],  # rows not contiguous
            lambda: np.zeros((4, 31)).T,  # column-major
            lambda: np.zeros((31, 4), dtype=np.float32),
        ],
    )
    def test_bad_out_rejected_before_iterating(self, make_out):
        spec = generate(4, 1, a_norm=0.9, c_scale=1.0, b_scale=0.5)
        out = make_out()
        with pytest.raises(DimensionMismatchError):
            drive(spec, scalar_series(np.ones(30)), np.full(4, 0.5), out=out)
        assert np.all(out == 0.0)

    def test_example_converges_to_its_stable_fixed_points(self):
        # Bisection oracle on tanh(2x) - x gives x* = 0.9575040240772688;
        # by symmetry -x* is the other stable fixed point.
        out = drive(example_spec(2), scalar_series(np.zeros(80)), np.array([-0.9, 0.9]))
        tail = out.samples[50:]
        assert np.max(np.abs(tail - [-0.9575040240772688, 0.9575040240772688])) < 1e-6

    def test_example_zero_is_fixed(self):
        out = drive(example_spec(1), scalar_series(np.zeros(30)), np.array([0.0]))
        assert np.all(out.samples == 0.0)

    def test_example_stays_in_unit_interval(self):
        z = scalar_series(np.random.default_rng(7).uniform(-1, 1, 200))
        out = drive(example_spec(2), z, np.array([0.73, -0.2]))
        assert np.all(np.abs(out.samples) <= 1.0)

    # One unit from inside the basin of the positive fixed point, from the
    # negative side and from the unstable fixed point 0; two units from
    # the starts of the `gs_examples` branches.
    @pytest.mark.parametrize("x0", [[0.3], [-0.8], [0.0], [-0.9, 0.9]])
    def test_example_matches_per_step_reference(self, x0):
        z = scalar_series(np.random.default_rng(3).uniform(0, 1, 300))
        fmap = lambda x, z: np.tanh(2.0 * x + z)
        expected = iterate_with_step_check(fmap, z, np.array(x0))
        out = drive(example_spec(len(x0)), z, np.array(x0))
        assert out.samples.tobytes() == expected.tobytes()

    def test_unstable_identity_reservoir_reports_step(self):
        # x_k = 2^k from x0 = 1: 2^39 < 1e12 < 2^40, so step 40 is the
        # first out of range; the loop runs on to inf without warnings.
        spec = ReservoirSpec(
            A=np.array([[2.0]]), C=np.zeros((1, 1)), b=np.zeros(1), activation="identity"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError) as err:
                drive(spec, scalar_series(np.zeros(2000)), np.array([1.0]))
        assert err.value.step == 40


class TestAutonomousDrive:
    def test_unstable_readout_loop_reports_step(self):
        spec = ReservoirSpec(
            A=np.eye(2), C=np.array([[1.0], [1.0]]), b=np.zeros(2), activation="identity"
        )
        # psi(x) = x + (x_0, x_0): the first coordinate doubles each step.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError) as err:
                autonomous_drive(spec, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 3000)
        assert err.value.step == 40

    # The identity row contracts: ||A||_2 = 0.5 and the small readout
    # keep the linear loop bounded.
    @pytest.mark.parametrize(
        "n, activation, a_norm, w_scale",
        [(30, "tanh", 0.9, 0.1), (300, "tanh", 0.9, 0.1), (30, "identity", 0.5, 0.01)],
    )
    def test_matches_per_step_reference(self, n, activation, a_norm, w_scale):
        spec = generate(n, 5, a_norm=a_norm, c_scale=1.0, b_scale=0.5, activation=activation)
        w = np.random.default_rng(5).uniform(-w_scale, w_scale, n)
        psi = autonomous_map(spec, w)
        x0 = np.full(n, 0.2)
        expected = iterate_with_step_check(lambda x, _: psi(x), scalar_series(np.zeros(400)), x0)
        out = autonomous_drive(spec, w, x0, 400)
        assert out.samples.tobytes() == expected.tobytes()

    def test_all_zero_system_constant(self):
        spec = ReservoirSpec(A=np.zeros((2, 2)), C=np.zeros((2, 1)), b=np.zeros(2))
        out = autonomous_drive(spec, np.zeros(2), np.array([0.3, -0.4]), 5)
        assert np.all(out.samples[1:] == 0.0)

    def test_scalar_projection_iteration(self):
        spec = ReservoirSpec(
            A=np.zeros((2, 2)), C=np.array([[1.0], [0.0]]), b=np.zeros(2), activation="identity"
        )
        w = np.array([1.0, 0.0])
        out = autonomous_drive(spec, w, np.array([0.7, 9.9]), 4)
        assert np.allclose(out.samples[1:, 0], 0.7)
        assert np.allclose(out.samples[1:, 1], 0.0)


class TestContraction:
    def test_esp_decay_bound(self):
        spec = generate(10, 8, a_norm=0.5, c_scale=0.2, b_scale=0.1)
        rng = np.random.default_rng(3)
        z = scalar_series(rng.uniform(-1, 1, 60))
        x0 = rng.standard_normal(10)
        y0 = rng.standard_normal(10)
        xs = drive(spec, z, x0).samples
        ys = drive(spec, z, y0).samples
        base = np.linalg.norm(x0 - y0)
        for k in (1, 5, 10, 50):
            assert np.linalg.norm(xs[k] - ys[k]) <= 0.5**k * base + 1e-15


class TestLinearGsSeries:
    """A driven linear reservoir against the series form of its
    generalised synchronisation, sum_k A^k C omega(phi^{-k}(m)).

    The series is `linear_gs_series_reference`; the tests before the
    drive test pin that oracle down by hand and by the GS equation."""

    def test_zero_matrix_gives_direct_injection(self):
        value, tail_bound = linear_gs_series_reference(
            np.zeros((3, 3)), np.array([[2.0], [0.0], [1.0]]), np.array([0.5, 9.0, 9.0])
        )
        assert np.allclose(value, [1.0, 0.0, 0.5])
        assert tail_bound == 0.0

    def test_decayed_shift_unrolled_by_hand(self):
        # A = 0.99 * shift, C = e1: A^k C = 0.99^k e_{k+1} for k < 3, else 0.
        value, _ = linear_gs_series_reference(
            0.99 * lower_shift_matrix(3), np.eye(3, 1), np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        )
        assert np.allclose(value, [1.0, 0.99 * 2.0, 0.99**2 * 3.0], atol=1e-14)

    def test_gs_equation_self_consistency(self):
        # f(m) = A f(phi^{-1}(m)) + C omega(m) within the two tail bounds.
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 4))
        A *= 0.4 / np.linalg.norm(A, 2)
        C = rng.standard_normal((4, 1))
        eps, K, m = 0.31, 60, 1.234
        omega = lambda angle: np.cos(angle)
        f_m, tail_m = linear_gs_series_reference(A, C, circle_past_obs(eps, m, omega, K))
        f_prev, tail_prev = linear_gs_series_reference(
            A, C, circle_past_obs(eps, np.mod(m - eps, 2 * np.pi), omega, K)
        )
        assert tail_m < 1e-20 and tail_prev < 1e-20
        rhs = A @ f_prev + C[:, 0] * omega(m)
        assert np.linalg.norm(f_m - rhs) < 10 * (tail_m + tail_prev) + 1e-12

    def test_divergent_norm_has_no_tail_bound(self):
        _, tail_bound = linear_gs_series_reference(np.eye(2), np.ones((2, 1)), np.zeros(3))
        assert tail_bound == math.inf

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
            value, tail_bound = linear_gs_series_reference(A, C, circle_past_obs(eps, m_k, omega, K))
            assert tail_bound < 1e-8
            assert np.linalg.norm(states[k] - value) < 1e-8


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


class TestStackedConditions:
    """The stacked predicates against one call per member."""

    @staticmethod
    def batch():
        # Members 0-3 pass both conditions; 4 (A = I) and 5 (A = I / 2)
        # are Krylov-deficient; 6 repeats lambda = 0.6 (as in
        # test_duplicate_eigenvalues_fail) and fails C.
        A, C, lams = [], [], []
        for seed in range(4):
            rng = make_rng(500 + seed)
            a = rng.standard_normal((4, 4))
            A.append(a * (0.5 / spectral_radius(a)))
            C.append(rng.standard_normal(4))
            lams.append([0.7, 0.3])
        A += [np.eye(4), 0.5 * np.eye(4)]
        C += [np.array([1.0, 2.0, 3.0, 4.0])] * 2
        lams += [[0.7, 0.3]] * 2
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        A.append(a * (0.5 / spectral_radius(a)))
        C.append(rng.standard_normal(4))
        lams.append([0.6, 0.6])
        return np.array(A), np.array(C), np.array(lams)

    def test_spectral_radius_per_member(self):
        A, _, _ = self.batch()
        rho = spectral_radius(A)
        assert rho.shape == (7,)
        assert rho.tolist() == [spectral_radius(a) for a in A]

    def test_condition_D_per_member(self):
        A, C, _ = self.batch()
        stacked = check_condition_D(A, C)
        assert stacked.dtype == bool
        assert stacked.tolist() == [check_condition_D(a, c) for a, c in zip(A, C)]
        assert stacked.tolist() == [True] * 4 + [False, False, True]

    def test_condition_C_per_member(self):
        A, C, lams = (x[[0, 1, 2, 3, 5, 6]] for x in self.batch())
        stacked = check_condition_C(A, C, lams, period=2)
        per_member = [check_condition_C(a, c, list(lam), period=2) for a, c, lam in zip(A, C, lams)]
        assert stacked.dtype == bool
        assert stacked.tolist() == per_member
        assert stacked.tolist() == [True] * 4 + [False, False]

    def test_single_matrix_gives_plain_bools(self):
        A, C, lams = self.batch()
        assert type(check_condition_D(A[0], C[0])) is bool
        assert type(check_condition_C(A[0], C[0], lams[0], period=2)) is bool
        assert type(spectral_radius(A[0])) is float

    def test_collision_names_the_member(self):
        A, C, lams = (x[:4] for x in self.batch())
        lams[2, 1] = 4.1  # |lambda| rho(A^1) = 2.05
        with pytest.raises(SpectrumCollisionError, match=r"^member 2: rho\(lambda A\^n\) = 2\.050"):
            check_condition_C(A, C, lams, period=1)
        with pytest.raises(SpectrumCollisionError, match=r"^member 4: 1 is in the spectrum"):
            check_condition_C(*self.batch(), period=2)


class TestNormHelpers:
    def test_spectral_radius_diagonal(self):
        assert abs(spectral_radius(np.diag([0.3, -2.0, 1.1])) - 2.0) < 1e-12
