import math
import warnings

import numpy as np
import pytest

from echolab.dynsys import (
    EXAMPLE_DRIVE_DIMS,
    LorenzParams,
    ObservationFn,
    TimeSeries,
    WING_FIXED_POINT,
    TANGENT_CHUNK,
    check_divergence,
    circle_rotation,
    csv_text,
    circular_distance,
    example_drive,
    example_drive_map,
    integrate_lorenz,
    lorenz_jacobian,
    lorenz_rhs,
    lorenz_step,
    lorenz_step_jacobian,
    lorenz_tangent_maps,
    observe,
)
from echolab.errors import DimensionMismatchError, IntegrationDivergedError
from oracles import (
    integrate_lorenz_reference,
    iterate_with_step_check,
    lorenz_step_jacobian_reference,
    rk4_step,
)


def reference_step(state, tau, substeps=1000):
    """High-accuracy RK4 oracle: same scheme, 1000x finer grid."""
    params = LorenzParams(tau=tau)
    h = tau / substeps
    f = lambda s: lorenz_rhs(s, params)
    for _ in range(substeps):
        state = rk4_step(f, state, h)
    return state


class TestIntegrateLorenz:
    def test_wing_equilibrium_is_fixed(self):
        params = LorenzParams(initial=WING_FIXED_POINT)
        ts = integrate_lorenz(params, 10)
        assert len(ts) == 11
        assert np.max(np.abs(ts.samples - WING_FIXED_POINT)) < 1e-6

    def test_first_sample_is_initial(self):
        params = LorenzParams()
        ts = integrate_lorenz(params, 5)
        assert np.array_equal(ts.samples[0], params.initial)

    def test_long_trajectory_bounded(self):
        ts = integrate_lorenz(LorenzParams(), 20000)
        assert len(ts) == 20001
        # Reference run gives max |coordinate| = 47.90; bound recorded at 100.
        assert np.max(np.abs(ts.samples)) < 100.0

    def test_richardson_step_halving(self):
        # Oracle: two half steps agree with one full step to O(tau^4);
        # measured difference 2.098e-06 from (1,1,1).
        s0 = np.array([1.0, 1.0, 1.0])
        one = lorenz_step(s0, LorenzParams(tau=0.01))
        half = LorenzParams(tau=0.005)
        two = lorenz_step(lorenz_step(s0, half), half)
        diff = np.max(np.abs(one - two))
        assert diff < 5e-6

    def test_local_error_order(self):
        # One-step error vs the fine-grid oracle must shrink by >= 12
        # when tau is halved (exact RK4 order gives 32).
        s0 = np.array([1.0, 1.0, 1.0])
        err_tau = np.max(np.abs(lorenz_step(s0, LorenzParams(tau=0.01)) - reference_step(s0, 0.01)))
        err_half = np.max(np.abs(lorenz_step(s0, LorenzParams(tau=0.005)) - reference_step(s0, 0.005)))
        assert err_tau / err_half >= 12.0

    def test_step_jacobian_matches_finite_differences(self):
        params = LorenzParams()
        state = np.array([1.3, -2.1, 17.0])
        jac = lorenz_step_jacobian(state, params)
        h = 1e-6
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = (lorenz_step(state + e, params) - lorenz_step(state - e, params)) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-7

    def test_divergence_reports_step(self):
        # Unstable parameters blow up quickly; the error names the step,
        # the same one the per-step reference loop stops at.
        params = LorenzParams(sigma=1e6, rho=1e6, tau=10.0, initial=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(IntegrationDivergedError) as ref:
            integrate_lorenz_reference(params, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError) as err:
                integrate_lorenz(params, 100)
        assert err.value.step == ref.value.step >= 1

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            integrate_lorenz(LorenzParams(), 0)


class TestLorenzKernel:
    """The float orbit and the batched tangent maps against per-step numpy."""

    def test_orbit_bytes_equal_reference(self):
        params = LorenzParams()
        new = integrate_lorenz(params, 20000).samples
        ref = integrate_lorenz_reference(params, 20000).samples
        assert new.tobytes() == ref.tobytes()

    def test_orbit_bytes_equal_reference_other_parameters(self):
        params = LorenzParams(sigma=16.0, rho=45.92, beta=4.0, tau=0.003,
                              initial=np.array([-3.2, 7.5, 30.1]))
        new = integrate_lorenz(params, 3000).samples
        ref = integrate_lorenz_reference(params, 3000).samples
        assert new.tobytes() == ref.tobytes()

    def test_lorenz_step_is_one_orbit_step(self):
        params = LorenzParams()
        orbit = integrate_lorenz(params, 3).samples
        assert np.array_equal(lorenz_step(orbit[2], params), orbit[3])

    def test_batched_step_jacobian_equals_per_state_reference(self):
        params = LorenzParams()
        states = np.random.default_rng(0).uniform([-20, -25, 0], [20, 25, 50], (50, 3))
        batch = lorenz_step_jacobian(states, params)
        assert batch.shape == (50, 3, 3)
        for state, jac in zip(states, batch):
            assert np.array_equal(jac, lorenz_step_jacobian_reference(state, params))
            assert np.array_equal(lorenz_step_jacobian(state, params), jac)

    def test_batched_field_and_jacobian_match_single_states(self):
        params = LorenzParams()
        states = np.random.default_rng(1).standard_normal((7, 3)) * 10
        rhs, jac = lorenz_rhs(states, params), lorenz_jacobian(states, params)
        assert rhs.shape == (7, 3) and jac.shape == (7, 3, 3)
        for k, state in enumerate(states):
            assert np.array_equal(rhs[k], lorenz_rhs(state, params))
            assert np.array_equal(jac[k], lorenz_jacobian(state, params))

    def test_tangent_maps_follow_the_orbit_across_chunks(self):
        params = LorenzParams()
        n = 2 * TANGENT_CHUNK + 5
        orbit = integrate_lorenz(params, n).samples
        maps = list(lorenz_tangent_maps(params, n))
        assert len(maps) == n
        for k in (0, TANGENT_CHUNK - 1, TANGENT_CHUNK, TANGENT_CHUNK + 1, n - 1):
            assert np.array_equal(maps[k], lorenz_step_jacobian_reference(orbit[k], params))


class TestCheckDivergence:
    def test_reports_first_bad_row(self):
        states = np.ones((6, 2))
        states[3, 1] = 2e12
        states[5, 0] = np.nan
        with pytest.raises(IntegrationDivergedError) as err:
            check_divergence(states)
        assert err.value.step == 3

    def test_nan_and_negative_overflow_count(self):
        for bad in (np.nan, -np.inf, -1.5e12):
            states = np.zeros((4, 3))
            states[2, 2] = bad
            with pytest.raises(IntegrationDivergedError) as err:
                check_divergence(states)
            assert err.value.step == 2

    def test_start_row_and_threshold_pass(self):
        states = np.full((3, 2), 1e12)
        states[0] = np.inf
        check_divergence(states)


class TestCircleRotation:
    def test_exact_period(self):
        ts = circle_rotation(2 * np.pi / 100, 0.0, 100)
        assert circular_distance(ts.samples[100, 0], 0.0) < 1e-12

    def test_zero_epsilon_constant(self):
        ts = circle_rotation(0.0, 1.2, 7)
        assert np.all(ts.samples == 1.2)

    def test_pi_alternates(self):
        ts = circle_rotation(np.pi, 0.0, 3)
        assert np.allclose(ts.samples[:, 0], [0.0, np.pi, 0.0, np.pi])

    def test_angles_reduced(self):
        ts = circle_rotation(1.0, 0.0, 50)
        assert np.all(ts.samples >= 0.0)
        assert np.all(ts.samples < 2 * np.pi)


class TestObserve:
    def test_coord_extracts_column(self):
        ts = integrate_lorenz(LorenzParams(), 50)
        xi = observe(ts, ObservationFn("coord", index=0))
        assert xi.dim == 1
        assert np.array_equal(xi.samples[:, 0], ts.samples[:, 0])
        assert xi.step == ts.step

    def test_coord_2_gives_zeta_targets(self):
        ts = integrate_lorenz(LorenzParams(), 50)
        zeta = observe(ts, ObservationFn("coord", index=2))
        assert np.array_equal(zeta.samples[:, 0], ts.samples[:, 2])

    def test_scaled_sin_on_constant(self):
        const = TimeSeries(step=1.0, samples=np.full((5, 1), np.pi / 2))
        out = observe(const, ObservationFn("scaled_sin", amplitude=0.5))
        assert np.allclose(out.samples, 0.5)

    def test_incompatible_dim_raises(self):
        ts = circle_rotation(0.1, 0.0, 3)
        with pytest.raises(DimensionMismatchError):
            observe(ts, ObservationFn("coord", index=2))


class TestExampleDrives:
    def zero_input(self, n):
        return TimeSeries(step=1.0, samples=np.zeros((n, 1)))

    def test_tanh2x_converges_to_positive_fixed_point(self):
        # Bisection oracle on tanh(2x) - x gives x* = 0.9575040240772688.
        out = example_drive("tanh2x", self.zero_input(80), np.array([0.9]))
        tail = out.samples[50:, 0]
        assert np.max(np.abs(tail - 0.9575040240772688)) < 1e-6

    def test_tanh2x_zero_is_fixed(self):
        out = example_drive("tanh2x", self.zero_input(30), np.array([0.0]))
        assert np.all(out.samples == 0.0)

    def test_tanh2x_stays_in_unit_interval(self):
        rng = np.random.default_rng(7)
        z = TimeSeries(step=1.0, samples=rng.uniform(-1, 1, (200, 1)))
        out = example_drive("tanh2x", z, np.array([0.73]))
        assert np.all(np.abs(out.samples) <= 1.0)

    def test_polar_sqrt_radius_tends_to_one(self):
        # Iterating rho -> sqrt(rho) from 4 gives rho_k = 4^(2^-k).
        out = example_drive("polar_sqrt", self.zero_input(50), np.array([4.0, 0.0]), delta=0.1)
        radii = out.samples[:, 0]
        assert np.all(np.diff(radii) <= 1e-15)
        assert abs(radii[50] - 1.0) < 1e-3

    @pytest.mark.parametrize(
        "kind,x0",
        [("tanh2x", [0.3]), ("signed_power", [1.0, -0.95, 1.05]), ("polar_sqrt", [4.0, 0.5])],
    )
    def test_matches_per_step_reference(self, kind, x0):
        z = TimeSeries(step=1.0, samples=np.random.default_rng(3).uniform(0, 1, (300, 1)))
        expected = iterate_with_step_check(example_drive_map(kind), z, np.array(x0))
        out = example_drive(kind, z, np.array(x0))
        assert out.samples.tobytes() == expected.tobytes()

    def test_polar_square_diverges_beyond_two(self):
        # rho -> rho^2 from 2.5 passes 1e12 at step 5; the per-step loop
        # stops at the same step, and no overflow warning escapes.
        z = self.zero_input(100)
        x0 = np.array([2.5, 0.0])
        with pytest.raises(IntegrationDivergedError) as ref:
            iterate_with_step_check(example_drive_map("polar_square", delta=0.1), z, x0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError) as err:
                example_drive("polar_square", z, x0, delta=0.1)
        assert err.value.step == ref.value.step == 5

    def test_signed_power_box_invariance(self):
        # Each signed-power box [0.9,1.1]^3 (any sign pattern) is mapped
        # into itself under the Lorenz-xi input range.
        fmap = example_drive_map("signed_power", alpha=0.9, lam=0.009, k=0.1)
        rng = np.random.default_rng(11)
        xi = integrate_lorenz(LorenzParams(), 2000).samples[:, 0]
        lo, hi = xi.min(), xi.max()
        for signs in [(1, 1, 1), (-1, 1, 1), (1, -1, -1), (-1, -1, -1)]:
            s = np.array(signs, dtype=float)
            for _ in range(200):
                x = s * rng.uniform(0.9, 1.1, 3)
                z = rng.uniform(lo, hi)
                y = fmap(x, z)
                assert np.all(s * y >= 0.9 - 1e-12)
                assert np.all(s * y <= 1.1 + 1e-12)

    def test_wrong_state_dim_rejected(self):
        with pytest.raises(DimensionMismatchError):
            example_drive("tanh2x", self.zero_input(3), np.array([0.1, 0.2]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            example_drive("cubic", self.zero_input(3), np.array([0.0]))

    def test_dims_table(self):
        assert EXAMPLE_DRIVE_DIMS["signed_power"] == 3


class TestTimeSeriesCsv:
    def test_roundtrip(self):
        ts = integrate_lorenz(LorenzParams(), 20)
        back = TimeSeries.from_csv(ts.to_csv())
        assert np.allclose(back.samples, ts.samples)
        assert abs(back.step - ts.step) < 1e-15

    def test_header_and_time_column(self):
        ts = TimeSeries(step=0.5, samples=np.arange(6.0).reshape(3, 2), origin_index=4)
        lines = ts.to_csv().splitlines()
        assert lines[0] == "t,x0,x1"
        assert float(lines[1].split(",")[0]) == 2.0


class TestCsvText:
    def test_values_keep_the_artifact_formats(self):
        # Integers as integers, -0.0 as -0, inf as inf, floats at .17g:
        # the formats of str(int(v)), "inf" and f"{v:.17g}" they replace.
        col = [3, -0.0, math.inf, 1.0 / 3.0, 100.0]
        lines = csv_text(["v", "w"], [col, np.array(col)]).splitlines()
        old = [f"{v:.17g}" for v in col]
        assert old == ["3", "-0", "inf", "0.33333333333333331", "100"]
        assert lines == ["v,w"] + [f"{v},{v}" for v in old]

    def test_uint8_matrix_without_header(self):
        M = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]], dtype=np.uint8)
        old = "\n".join(",".join(str(int(v)) for v in row) for row in M) + "\n"
        assert csv_text([], M.T) == old

    def test_floats_parse_back_exactly(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        rows = csv_text(["x"], [x]).splitlines()[1:]
        assert np.array_equal(np.array([float(r) for r in rows]), x)
