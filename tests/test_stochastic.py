import math

import numpy as np
import pytest

from echolab.errors import AdmissibilityError, NonErgodicError
from echolab.stochastic import (
    _draw_finite,
    ProcessSpec,
    RewardFunctional,
    bellman_contraction_check,
    markov_value_oracle,
    sample_path,
    stationary_distribution,
    value_mc,
)

from oracles import draw_finite_reference, sample_path_reference, value_mc_reference


def two_state_chain(p_stay=0.9):
    P = np.array([[p_stay, 1 - p_stay], [1 - p_stay, p_stay]])
    emissions = np.array([[0.0], [1.0]])
    return P, emissions


def iid_chain(support, probabilities, seed=0):
    """An i.i.d. draw from `support`: a chain whose rows all equal the law."""
    return ProcessSpec(np.tile(probabilities, (len(probabilities), 1)), support, seed=seed)


class TestSamplePath:
    def test_iid_sign_mean(self):
        path, _ = sample_path(iid_chain([[-1.0], [1.0]], [0.5, 0.5], seed=3), 100_000)
        # CLT oracle: 3 sigma / sqrt(n) < 0.01 for unit-variance signs.
        assert abs(path.samples.mean()) < 0.02

    def test_markov_occupancy_matches_stationary_solve(self):
        P, emissions = two_state_chain()
        pi = stationary_distribution(P)
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)
        spec = ProcessSpec(P, emissions, seed=5)
        path, states = sample_path(spec, 100_000)
        occupancy = np.bincount(states, minlength=2) / len(states)
        assert np.max(np.abs(occupancy - pi)) < 0.02

    def test_seeded_replay(self):
        spec = ProcessSpec(*two_state_chain(0.7), seed=11)
        (a, a_states), (b, b_states) = sample_path(spec, 500), sample_path(spec, 500)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a_states, b_states)

    def test_reducible_chain_rejected(self):
        P = np.eye(2)
        with pytest.raises(NonErgodicError):
            sample_path(ProcessSpec(P, [[0.0], [1.0]]), 10)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            ProcessSpec([[0.5, 0.6], [0.5, 0.5]], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            ProcessSpec([[1.5, -0.5], [0.5, 0.5]], [[0.0], [1.0]])

    def test_unbounded_emissions_rejected(self):
        P, _ = two_state_chain()
        with pytest.raises(AdmissibilityError):
            ProcessSpec(P, [[0.0], [np.inf]])

    def test_stationarity_of_marginals(self):
        P, emissions = two_state_chain(0.8)
        spec = ProcessSpec(P, emissions, seed=7)
        _, states = sample_path(spec, 60_000)
        early = np.bincount(states[:20_000], minlength=2) / 20_000
        late = np.bincount(states[40_000:], minlength=2) / 20_000
        assert np.max(np.abs(early - late)) < 3.0 / math.sqrt(20_000) * 3


class TestValueMc:
    def test_constant_reward_geometric_sum(self):
        spec = iid_chain([[0.0]], [1.0])
        reward = RewardFunctional(window=1, fn=lambda recent: 2.0)
        gamma = 0.9
        est = value_mc(spec, reward, gamma, history=np.zeros((1, 1)), n_rollouts=20)
        assert est.stderr < 1e-12
        assert abs(est.value - 2.0 / (1 - gamma)) < 1e-6

    def test_gamma_zero_returns_reward_of_history(self):
        spec = iid_chain([[0.0], [1.0]], [0.5, 0.5], seed=1)
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
        spec = ProcessSpec(P, emissions, seed=2)
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
        # values pin the order of its draws, from a given state and from
        # the stationary law.
        P, em = np.array([[0.9, 0.1], [0.3, 0.7]]), np.array([[0.0], [1.0]])
        r_table = np.array([1.0, -0.5])
        last = RewardFunctional(window=1, fn=lambda recent: r_table[int(recent[-1, 0])])
        pair = RewardFunctional(
            window=2, fn=lambda recent: recent[-1, 0] * recent[0, 0] - 0.25 * recent[-1, 0]
        )
        markov = value_mc(
            ProcessSpec(P, em), last, 0.9, history=em[1][None, :],
            n_rollouts=40, current_state=1, seed=11,
        )
        iid = value_mc(
            iid_chain([[-1.0], [0.5], [2.0]], [0.2, 0.5, 0.3]), pair, 0.8,
            history=np.array([[0.5], [2.0]]), n_rollouts=40, seed=12,
        )
        assert (markov.value, markov.stderr, markov.horizon) == (
            3.3685312725247534, 0.4632201411795544, 197
        )
        assert (iid.value, iid.stderr, iid.horizon) == (1.9191826437244526, 0.4012952688387449, 93)

    def test_unbounded_reward_flagged(self):
        spec = iid_chain([[1.0]], [1.0])
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
            return iid_chain(table, [0.2, 0.5, 0.3], seed=3)
        if kind == "markov":
            P = np.array([[0.7, 0.2, 0.1], [0.3, 0.3, 0.4], [0.25, 0.25, 0.5]])
            return ProcessSpec(P, table, seed=4)
        return ProcessSpec(self.ZERO_ROW, table, seed=5)

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
            ("iid", 2, 4),
            ("markov", 0, 1),
        ],
    )
    def test_value_and_stderr(self, kind, current_state, n_rollouts, window, d):
        spec, reward = self.process(kind, d), self.reward(window, d)
        history = np.linspace(-0.5, 0.5, 4 * d).reshape(4, d)
        est = value_mc(
            spec, reward, 0.8, history, n_rollouts=n_rollouts,
            current_state=current_state, seed=17,
        )
        value, stderr, _ = value_mc_reference(
            spec, reward, 0.8, history, n_rollouts, est.horizon, current_state, seed=17
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
        series, states = sample_path(spec, 3000)
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
        spec = iid_chain([[0.0], [-0.0]], [0.5, 0.5])
        reward = RewardFunctional(window=1, fn=lambda recent: math.copysign(1.0, recent[-1, 0]))
        est = value_mc(spec, reward, 0.5, np.zeros((1, 1)), n_rollouts=20, seed=3)
        ref = value_mc_reference(spec, reward, 0.5, np.zeros((1, 1)), 20, est.horizon, seed=3)
        assert est.stderr > 0 and (est.value, est.stderr) == ref[:2]

    def test_two_column_windows_with_signed_zeros(self):
        # Rows that differ only in the sign of a zero, in either column,
        # are different windows: one reward call each, and the estimate
        # of the per-rollout loop.
        table = [[0.0, -0.0], [-0.0, 0.0], [0.0, 1.0]]
        spec = ProcessSpec(np.array([[0.7, 0.2, 0.1], [0.3, 0.3, 0.4], [0.25, 0.25, 0.5]]), table)
        weights = np.array([[0.5, -1.0], [2.0, 0.25]])

        def counted(calls):
            def fn(recent):
                calls.append(recent.tobytes())
                return float((weights * np.copysign(1.0, recent)).sum() + recent.sum())
            return RewardFunctional(window=2, fn=fn)

        history = np.array([[-0.0, 0.0], [0.0, -0.0]])
        calls, ref_calls = [], []
        est = value_mc(spec, counted(calls), 0.8, history, n_rollouts=30, current_state=1, seed=9)
        value, stderr, _ = value_mc_reference(
            spec, counted(ref_calls), 0.8, history, 30, est.horizon, 1, seed=9
        )
        assert (est.value, est.stderr) == (value, stderr)
        assert sorted(calls) == sorted(set(ref_calls))
        assert len(calls) == 9  # every ordered pair of the three rows

    def test_nan_in_a_late_rollout_raises(self):
        # State 1 is rare: the first rollout (the stream's first draws,
        # rollout-major) never emits it, a later one does.
        spec = iid_chain([[0.0], [1.0]], [0.99, 0.01])
        reward = RewardFunctional(
            window=1, fn=lambda recent: float("nan") if recent[-1, 0] == 1.0 else 1.0
        )
        first = value_mc(spec, reward, 0.5, np.zeros((1, 1)), n_rollouts=1, seed=6)
        assert first.value == 2.0 - 0.5 ** (first.horizon - 1)
        with pytest.raises(AdmissibilityError, match="non-finite"):
            value_mc(spec, reward, 0.5, np.zeros((1, 1)), n_rollouts=200, seed=6)
        with pytest.raises(AdmissibilityError, match="non-finite"):
            value_mc_reference(spec, reward, 0.5, np.zeros((1, 1)), 200, first.horizon, seed=6)


class TestBellmanContraction:
    def test_gamma_zero_ratio_zero(self):
        P, _ = two_state_chain()
        states = np.array([0, 1] * 50)
        ratio = bellman_contraction_check(P, np.eye(2), 0.0, states, n_pairs=20)
        assert ratio == 0.0

    def test_half_gamma_two_state_chain(self):
        P, emissions = two_state_chain()
        spec = ProcessSpec(P, emissions, seed=9)
        _, states = sample_path(spec, 2000)
        ratio = bellman_contraction_check(P, np.eye(2), 0.5, states, n_pairs=100)
        assert ratio <= 0.55

    def test_deterministic_cycle_ratio_equals_gamma(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        states = np.array([0, 1] * 100)
        ratio = bellman_contraction_check(P, np.eye(2), 0.9, states, n_pairs=100)
        assert abs(ratio - 0.9) < 1e-9
