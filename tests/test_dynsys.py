import warnings
from dataclasses import replace

import numpy as np
import pytest

from echolab.dynsys import (
    LorenzParams,
    WING_FIXED_POINT,
    TANGENT_CHUNK,
    check_divergence,
    circle_rotation,
    integrate_lorenz,
    lorenz_jacobian,
    lorenz_rhs,
    lorenz_step_jacobian,
    lorenz_tangent_maps,
)
from echolab.errors import IntegrationDivergedError
from oracles import (
    integrate_lorenz_reference,
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
