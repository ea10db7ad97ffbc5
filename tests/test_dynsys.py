import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from echolab.dynsys import (
    LorenzParams,
    TimeSeries,
    WING_FIXED_POINT,
    TANGENT_CHUNK,
    _distinct_texts,
    check_divergence,
    circle_rotation,
    csv_text,
    example_drive,
    integrate_lorenz,
    lorenz_jacobian,
    lorenz_rhs,
    lorenz_step_jacobian,
    lorenz_tangent_maps,
)
from echolab.errors import DimensionMismatchError, IntegrationDivergedError
from oracles import (
    csv_text_reference,
    integrate_lorenz_reference,
    iterate_with_step_check,
    lorenz_step_jacobian_reference,
    rk4_step,
)


def one_step(state, params):
    """One RK4 step of the library's orbit kernel from `state`."""
    return integrate_lorenz(replace(params, initial=state), 1).samples[1]


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
        one = one_step(s0, LorenzParams(tau=0.01))
        half = LorenzParams(tau=0.005)
        two = one_step(one_step(s0, half), half)
        diff = np.max(np.abs(one - two))
        assert diff < 5e-6

    def test_local_error_order(self):
        # One-step error vs the fine-grid oracle must shrink by >= 12
        # when tau is halved (exact RK4 order gives 32).
        s0 = np.array([1.0, 1.0, 1.0])
        err_tau = np.max(np.abs(one_step(s0, LorenzParams(tau=0.01)) - reference_step(s0, 0.01)))
        err_half = np.max(np.abs(one_step(s0, LorenzParams(tau=0.005)) - reference_step(s0, 0.005)))
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
            fd[:, j] = (one_step(state + e, params) - one_step(state - e, params)) / (2 * h)
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
        stacks = list(lorenz_tangent_maps(params, n))
        assert [len(s) for s in stacks] == [TANGENT_CHUNK, TANGENT_CHUNK, 5]
        maps = np.concatenate(stacks)
        assert maps.shape == (n, 3, 3)
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
        # Angular distance to 0, taken both ways round the circle.
        d = ts.samples[100, 0] % (2 * np.pi)
        assert min(d, 2 * np.pi - d) < 1e-12

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


class TestExampleDrives:
    def zero_input(self, n):
        return TimeSeries(step=1.0, samples=np.zeros((n, 1)))

    def test_tanh2x_converges_to_positive_fixed_point(self):
        # Bisection oracle on tanh(2x) - x gives x* = 0.9575040240772688.
        out = example_drive(self.zero_input(80), np.array([0.9]))
        tail = out.samples[50:, 0]
        assert np.max(np.abs(tail - 0.9575040240772688)) < 1e-6

    def test_tanh2x_zero_is_fixed(self):
        out = example_drive(self.zero_input(30), np.array([0.0]))
        assert np.all(out.samples == 0.0)

    def test_tanh2x_stays_in_unit_interval(self):
        rng = np.random.default_rng(7)
        z = TimeSeries(step=1.0, samples=rng.uniform(-1, 1, (200, 1)))
        out = example_drive(z, np.array([0.73]))
        assert np.all(np.abs(out.samples) <= 1.0)

    # From inside the basin of the positive fixed point, from the
    # negative side, and from the unstable fixed point 0.
    @pytest.mark.parametrize("x0", [[0.3], [-0.8], [0.0]])
    def test_matches_per_step_reference(self, x0):
        z = TimeSeries(step=1.0, samples=np.random.default_rng(3).uniform(0, 1, (300, 1)))
        fmap = lambda x, z: np.tanh(2.0 * x + z)
        expected = iterate_with_step_check(fmap, z, np.array(x0))
        out = example_drive(z, np.array(x0))
        assert out.samples.tobytes() == expected.tobytes()

    def test_wrong_state_dim_rejected(self):
        with pytest.raises(DimensionMismatchError):
            example_drive(self.zero_input(3), np.array([0.1, 0.2]))

    def test_vector_input_rejected(self):
        z = TimeSeries(step=1.0, samples=np.zeros((3, 2)))
        with pytest.raises(DimensionMismatchError):
            example_drive(z, np.array([0.1]))


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

    def test_repeated_values_match_the_cell_by_cell_writer(self):
        # Each column repeats its values, so each is formatted once per
        # distinct bit pattern; the bytes are the row template's.
        n = 40
        columns = {
            "signed_zero": np.tile([0.0, -0.0, 0.0, 1.5], n // 4),
            "extremes": np.tile([math.inf, -math.inf, 5e-324, -5e-324], n // 4),
            "int64": np.tile(np.array([-(2**62), 0, 7, 2**62 + 1], dtype=np.int64), n // 4),
            "uint8": np.tile(np.array([0, 1, 255, 128], dtype=np.uint8), n // 4),
            "bool": np.tile([True, False, False, True], n // 4),
            "constant": np.full(n, 1.0 / 3.0),
        }
        for name, col in columns.items():
            assert _distinct_texts(col) is not None, name
            assert csv_text([name], [col]) == csv_text_reference([name], [col]), name
        header, cols = list(columns), list(columns.values())
        assert csv_text(header, cols) == csv_text_reference(header, cols)
        assert csv_text([], cols) == csv_text_reference([], cols)

    def test_zero_rows(self):
        empty = [np.zeros(0), np.zeros(0, dtype=np.int64)]
        assert csv_text(["a", "b"], empty) == csv_text_reference(["a", "b"], empty) == "a,b\n"
        assert csv_text([], empty) == csv_text_reference([], empty) == "\n"

    def test_both_sides_of_the_half_rule(self):
        # 10 distinct values in 20 rows are formatted once each; 11 are
        # formatted cell by cell. Both write the reference bytes.
        rng = np.random.default_rng(9)
        values = rng.standard_normal(11) * 10.0 ** rng.integers(-300, 300, 11)
        at_half = np.concatenate([values[:10], values[:10]])
        over_half = np.concatenate([values, values[:9]])
        assert _distinct_texts(at_half) is not None
        assert _distinct_texts(over_half) is None
        cols = [at_half, over_half, np.arange(20)]
        assert csv_text(["a", "b", "c"], cols) == csv_text_reference(["a", "b", "c"], cols)
