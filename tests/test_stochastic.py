import math

import numpy as np
import pytest

from echolab.dynsys import TimeSeries, circle_rotation
from echolab.errors import AdmissibilityError, NonErgodicError
from echolab.stochastic import (
    _draw_finite,
    ProcessSpec,
    RewardFunctional,
    bellman_contraction_check,
    bellman_residual,
    markov_value_oracle,
    sample_path,
    stationary_distribution,
    value_mc,
)
from echolab.training import Readout, solve_offline, value_targets

from oracles import draw_finite_reference, sample_path_reference, value_mc_reference


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
        # values pin the order of its draws for each kind.
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


class TestBatchedRolloutsMatchPerStepReference:
    """The batched sampler and rollouts equal the per-step `rng.choice`
    walk and per-rollout reward loop of `tests/oracles.py` bit for bit."""

    TABLE = np.array([[-1.0, 0.5], [0.5, 2.0], [2.0, -0.25]])
    ZERO_ROW = np.array([[0.0, 0.6, 0.4], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])

    def process(self, kind, d=1):
        table = self.TABLE[:, :d]
        if kind == "iid":
            return ProcessSpec(("iid_finite", table, [0.2, 0.5, 0.3]), seed=3)
        if kind == "markov":
            P = np.array([[0.7, 0.2, 0.1], [0.3, 0.3, 0.4], [0.25, 0.25, 0.5]])
            return ProcessSpec(("markov_chain", P, table), seed=4)
        if kind == "zero_row":
            return ProcessSpec(("markov_chain", self.ZERO_ROW, table), seed=5)
        t = np.arange(300.0)[:, None]
        series = TimeSeries(step=1.0, samples=np.hstack([np.sin(0.3 * t), np.cos(0.7 * t)])[:, :d])
        return ProcessSpec(("deterministic_wrap", series))

    @staticmethod
    def reward(window, d):
        weights = np.linspace(-1.0, 1.5, window * d).reshape(window, d)
        return RewardFunctional(
            window=window, fn=lambda recent: float(np.tanh(weights * recent).sum())
        )

    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "kind,current_state,n_rollouts",
        [
            ("iid", None, 30),
            ("markov", None, 30),
            ("markov", 2, 30),
            ("zero_row", 1, 30),
            ("wrap", 7, 4),
            ("markov", 0, 1),
        ],
    )
    def test_value_and_stderr(self, kind, current_state, n_rollouts, window, d):
        spec, reward = self.process(kind, d), self.reward(window, d)
        history = np.linspace(-0.5, 0.5, 4 * d).reshape(4, d)
        est = value_mc(
            spec, reward, 0.8, history, n_rollouts=n_rollouts, horizon=40,
            current_state=current_state, seed=17,
        )
        value, stderr, _ = value_mc_reference(
            spec, reward, 0.8, history, n_rollouts, 40, current_state, seed=17
        )
        assert (est.value, est.stderr) == (value, stderr)

    def test_default_horizon_value(self):
        spec, reward = self.process("zero_row"), self.reward(2, 1)
        est = value_mc(spec, reward, 0.9, np.zeros((2, 1)), n_rollouts=50, current_state=2, seed=8)
        ref = value_mc_reference(spec, reward, 0.9, np.zeros((2, 1)), 50, est.horizon, 2, seed=8)
        assert est.horizon == 197 and (est.value, est.stderr) == ref[:2]

    @pytest.mark.parametrize("kind", ["iid", "markov", "zero_row"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_sample_path_rows_and_states(self, kind, d):
        spec = self.process(kind, d)
        series, states = sample_path(spec, 3000, return_states=True)
        rows, ref_states = sample_path_reference(spec, 3000)
        assert series.samples.tobytes() == rows.tobytes()
        assert states.dtype == ref_states.dtype
        assert states.tobytes() == ref_states.tobytes()

    @pytest.mark.parametrize(
        "kind,start", [("iid", None), ("markov", None), ("markov", 1), ("zero_row", 0)]
    )
    def test_draw_block_leaves_generator_at_the_same_draw(self, kind, start):
        spec = self.process(kind, 2)
        rng = np.random.default_rng(23)
        rows, states = _draw_finite(spec, rng, (25, 60), start)
        ref_rng = np.random.default_rng(23)
        ref = [draw_finite_reference(spec, ref_rng, 60, start) for _ in range(25)]
        assert rows.tobytes() == np.stack([r for r, _ in ref]).tobytes()
        assert states.tobytes() == np.stack([s for _, s in ref]).tobytes()
        assert rng.random() == ref_rng.random()

    def test_zero_probability_transitions_never_taken(self):
        _, states = _draw_finite(self.process("zero_row"), np.random.default_rng(2), (40, 200), 0)
        pairs = np.stack([states[:, :-1].ravel(), states[:, 1:].ravel()])
        assert np.all(self.ZERO_ROW[pairs[0], pairs[1]] > 0)

    def test_signed_zeros_are_distinct_windows(self):
        # 0.0 and -0.0 compare equal but are different inputs to fn.
        spec = ProcessSpec(("iid_finite", [[0.0], [-0.0]], [0.5, 0.5]), seed=0)
        reward = RewardFunctional(window=1, fn=lambda recent: math.copysign(1.0, recent[-1, 0]))
        est = value_mc(spec, reward, 0.5, np.zeros((1, 1)), n_rollouts=20, horizon=10, seed=3)
        ref = value_mc_reference(spec, reward, 0.5, np.zeros((1, 1)), 20, 10, seed=3)
        assert est.stderr > 0 and (est.value, est.stderr) == ref[:2]

    def test_nan_in_a_late_rollout_raises(self):
        # State 1 is rare: the first rollout (the stream's first draws,
        # rollout-major) never emits it, a later one does.
        spec = ProcessSpec(("iid_finite", [[0.0], [1.0]], [0.99, 0.01]), seed=0)
        reward = RewardFunctional(
            window=1, fn=lambda recent: float("nan") if recent[-1, 0] == 1.0 else 1.0
        )
        first = value_mc(spec, reward, 0.5, np.zeros((1, 1)), n_rollouts=1, horizon=20, seed=6)
        assert first.value == 2.0 - 0.5**19
        with pytest.raises(AdmissibilityError, match="non-finite"):
            value_mc(spec, reward, 0.5, np.zeros((1, 1)), n_rollouts=200, horizon=20, seed=6)
        with pytest.raises(AdmissibilityError, match="non-finite"):
            value_mc_reference(spec, reward, 0.5, np.zeros((1, 1)), 200, 20, seed=6)

    def test_sup_bound_violation_raises(self):
        spec = ProcessSpec(("iid_finite", [[0.0], [1.0]], [0.99, 0.01]), seed=0)
        reward = RewardFunctional(window=1, fn=lambda recent: 2.0 * recent[-1, 0], sup_bound=1.0)
        value_mc(spec, reward, 0.5, np.zeros((1, 1)), n_rollouts=1, horizon=20, seed=6)
        with pytest.raises(AdmissibilityError, match="bound"):
            value_mc(spec, reward, 0.5, np.zeros((1, 1)), n_rollouts=200, horizon=20, seed=6)


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
