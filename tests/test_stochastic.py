import math

import numpy as np
import pytest

from echolab.dynsys import TimeSeries, circle_rotation
from echolab.errors import AdmissibilityError, NonErgodicError
from echolab.stochastic import (
    PathView,
    ProcessSpec,
    RewardFunctional,
    bellman_contraction_check,
    bellman_residual,
    markov_value_oracle,
    sample_path,
    shift,
    stationary_distribution,
    value_mc,
)
from echolab.training import Readout, solve_offline, value_targets


def two_state_chain(p_stay=0.9):
    P = np.array([[p_stay, 1 - p_stay], [1 - p_stay, p_stay]])
    emissions = np.array([[0.0], [1.0]])
    return P, emissions


class TestSamplePath:
    def test_iid_sign_mean(self):
        spec = ProcessSpec(("iid_finite", [[-1.0], [1.0]], [0.5, 0.5]), seed=3)
        path = sample_path(spec, 100_000)
        # CLT oracle: 3 sigma / sqrt(n) < 0.01 for unit-variance signs.
        assert abs(path.samples.mean()) < 0.02

    def test_markov_occupancy_matches_stationary_solve(self):
        P, emissions = two_state_chain()
        pi = stationary_distribution(P)
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)
        spec = ProcessSpec(("markov_chain", P, emissions), seed=5)
        path, states = sample_path(spec, 100_000, return_states=True)
        occupancy = np.bincount(states, minlength=2) / len(states)
        assert np.max(np.abs(occupancy - pi)) < 0.02

    def test_deterministic_wrap_replays_series(self):
        series = circle_rotation(0.1, 0.3, 50)
        spec = ProcessSpec(("deterministic_wrap", series))
        path = sample_path(spec, 20)
        assert np.array_equal(path.samples, series.samples[:20])

    def test_seeded_replay(self):
        spec = ProcessSpec(("iid_finite", [[0.0], [1.0]], [0.3, 0.7]), seed=11)
        a = sample_path(spec, 500)
        b = sample_path(spec, 500)
        assert np.array_equal(a.samples, b.samples)

    def test_reducible_chain_rejected(self):
        P = np.eye(2)
        with pytest.raises(NonErgodicError):
            sample_path(ProcessSpec(("markov_chain", P, [[0.0], [1.0]])), 10)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            ProcessSpec(("iid_finite", [[0.0], [1.0]], [0.5, 0.6]))

    def test_stationarity_of_marginals(self):
        P, emissions = two_state_chain(0.8)
        spec = ProcessSpec(("markov_chain", P, emissions), seed=7)
        _, states = sample_path(spec, 60_000, return_states=True)
        early = np.bincount(states[:20_000], minlength=2) / 20_000
        late = np.bincount(states[40_000:], minlength=2) / 20_000
        assert np.max(np.abs(early - late)) < 3.0 / math.sqrt(20_000) * 3


class TestShift:
    def test_zero_shift_identity(self):
        series = TimeSeries(step=1.0, samples=np.arange(5.0)[:, None])
        view = shift(series, 0)
        assert np.array_equal(view.sample(2), series.samples[2])
        assert len(view) == 5

    def test_forward_then_back_is_identity(self):
        series = TimeSeries(step=1.0, samples=np.arange(5.0)[:, None])
        view = shift(shift(series, 1), -1)
        assert np.array_equal(view.sample(0), series.samples[0])

    def test_sample_alignment(self):
        series = TimeSeries(step=1.0, samples=np.arange(10.0)[:, None])
        assert shift(series, 3).sample(0)[0] == 3.0

    def test_composition_additivity(self):
        series = TimeSeries(step=1.0, samples=np.arange(10.0)[:, None])
        a = shift(shift(series, 2), 3)
        b = shift(series, 5)
        assert a.offset == b.offset

    def test_out_of_range_window(self):
        series = TimeSeries(step=1.0, samples=np.arange(3.0)[:, None])
        with pytest.raises(IndexError):
            shift(series, -1)
        with pytest.raises(IndexError):
            shift(series, 1).sample(2)


class TestValueMc:
    def test_constant_reward_geometric_sum(self):
        spec = ProcessSpec(("iid_finite", [[0.0]], [1.0]), seed=0)
        reward = RewardFunctional(window=1, fn=lambda recent: 2.0)
        gamma = 0.9
        est = value_mc(spec, reward, gamma, history=np.zeros((1, 1)), n_rollouts=20)
        assert est.stderr < 1e-12
        assert abs(est.value - 2.0 / (1 - gamma)) < 1e-6

    def test_gamma_zero_returns_reward_of_history(self):
        spec = ProcessSpec(("iid_finite", [[0.0], [1.0]], [0.5, 0.5]), seed=1)
        reward = RewardFunctional(window=2, fn=lambda recent: recent[-1, 0] - recent[0, 0])
        hist = np.array([[1.0], [3.0]])
        est = value_mc(spec, reward, 0.0, history=hist, n_rollouts=10)
        assert est.value == 2.0
        assert est.horizon == 1

    def test_markov_chain_matches_linear_solve(self):
        P, emissions = two_state_chain()
        gamma = 0.9
        r_table = np.array([1.0, -0.5])
        oracle = markov_value_oracle(P, r_table, gamma)
        spec = ProcessSpec(("markov_chain", P, emissions), seed=2)
        reward = RewardFunctional(window=1, fn=lambda recent: r_table[int(recent[-1, 0])])
        for state in (0, 1):
            est = value_mc(
                spec, reward, gamma,
                history=emissions[state][None, :],
                n_rollouts=600, current_state=state, seed=40 + state,
            )
            assert abs(est.value - oracle[state]) < 3 * est.stderr + 1e-9

    def test_fixed_seed_values_pinned(self):
        # Rollouts draw through the same walk as `sample_path`; these
        # values pin the order of its rng.choice calls for each kind.
        P, em = np.array([[0.9, 0.1], [0.3, 0.7]]), np.array([[0.0], [1.0]])
        r_table = np.array([1.0, -0.5])
        last = RewardFunctional(window=1, fn=lambda recent: r_table[int(recent[-1, 0])])
        pair = RewardFunctional(
            window=2, fn=lambda recent: recent[-1, 0] * recent[0, 0] - 0.25 * recent[-1, 0]
        )
        markov = value_mc(
            ProcessSpec(("markov_chain", P, em)), last, 0.9, history=em[1][None, :],
            n_rollouts=40, current_state=1, seed=11,
        )
        iid = value_mc(
            ProcessSpec(("iid_finite", [[-1.0], [0.5], [2.0]], [0.2, 0.5, 0.3])), pair, 0.8,
            history=np.array([[0.5], [2.0]]), n_rollouts=40, seed=12,
        )
        series = TimeSeries(step=1.0, samples=np.sin(0.3 * np.arange(200.0))[:, None])
        wrapped = value_mc(
            ProcessSpec(("deterministic_wrap", series)), pair, 0.7, history=series.samples[4:6],
            n_rollouts=3, horizon=60, current_state=5, seed=13,
        )
        assert (markov.value, markov.stderr, markov.horizon) == (
            3.3685312725247534, 0.4632201411795544, 197
        )
        assert (iid.value, iid.stderr, iid.horizon) == (1.9191826437244526, 0.4012952688387449, 93)
        assert (wrapped.value, wrapped.horizon) == (1.8497147433638237, 60)

    def test_unbounded_reward_flagged(self):
        spec = ProcessSpec(("iid_finite", [[1.0]], [1.0]), seed=0)
        reward = RewardFunctional(window=1, fn=lambda recent: float("nan"))
        with pytest.raises(AdmissibilityError):
            value_mc(spec, reward, 0.5, history=np.ones((1, 1)), n_rollouts=2)


class TestBellmanResidual:
    def deterministic_cycle(self, n=200, gamma=0.9):
        states = np.arange(n) % 2
        features = np.eye(2)[states]
        r_table = np.array([1.0, 0.0])
        rewards = r_table[states[:-1]]
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        V = markov_value_oracle(P, r_table, gamma)
        return features, rewards, V, gamma

    def test_exact_tabular_solution_has_zero_residual(self):
        features, rewards, V, gamma = self.deterministic_cycle()
        assert bellman_residual(features, V, rewards, gamma) < 1e-12

    def test_gamma_zero_is_regression_mse(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((50, 3))
        w = rng.standard_normal(3)
        r = rng.standard_normal(49)
        res = bellman_residual(H, w, r, 0.0)
        mse = np.mean((H[:-1] @ w - r) ** 2)
        assert abs(res - mse) < 1e-12

    def test_zero_weights_unit_rewards(self):
        H = np.ones((30, 2))
        assert abs(bellman_residual(H, np.zeros(2), np.ones(29), 0.7) - 1.0) < 1e-12

    def test_trained_readout_beats_perturbations(self):
        # Residual minimality: the offline solution's Bellman residual
        # is no larger than 50 nearby perturbed readouts'.
        features, rewards, V, gamma = self.deterministic_cycle()
        prob = value_targets(TimeSeries(step=1.0, samples=features), rewards, gamma)
        w_star = solve_offline(prob, lam=0.0).w
        base = bellman_residual(features, w_star, rewards, gamma)
        rng = np.random.default_rng(5)
        for _ in range(50):
            delta = rng.standard_normal(2)
            delta *= 0.1 * np.linalg.norm(w_star) / np.linalg.norm(delta)
            assert base <= bellman_residual(features, w_star + delta, rewards, gamma) + 1e-12


class TestBellmanContraction:
    def test_gamma_zero_ratio_zero(self):
        P, _ = two_state_chain()
        states = np.array([0, 1] * 50)
        ratio = bellman_contraction_check(P, np.eye(2), 0.0, states, n_pairs=20)
        assert ratio == 0.0

    def test_half_gamma_two_state_chain(self):
        P, emissions = two_state_chain()
        spec = ProcessSpec(("markov_chain", P, emissions), seed=9)
        _, states = sample_path(spec, 2000, return_states=True)
        ratio = bellman_contraction_check(P, np.eye(2), 0.5, states, n_pairs=100)
        assert ratio <= 0.55

    def test_deterministic_cycle_ratio_equals_gamma(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        states = np.array([0, 1] * 100)
        ratio = bellman_contraction_check(P, np.eye(2), 0.9, states, n_pairs=100)
        assert abs(ratio - 0.9) < 1e-9
