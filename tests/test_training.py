import numpy as np
import pytest

from echolab.cli import train_lorenz_readout
from echolab.dynsys import LorenzParams, integrate_lorenz
from echolab.errors import ContractionBoundError, SingularProblemError
from echolab.pde import build_feature_model, sample_disc, stacked_problem
from echolab.reservoir import make_rng
from echolab.stochastic import markov_value_oracle
from echolab.training import (
    RegressionProblem,
    normal_equation_residual,
    online_step,
    run_online,
    solve_offline,
    value_targets,
)

from oracles import moment_solution, solve_offline_reference


def rank_at_zero_ridge(problem):
    """The rank `solve_offline` finds at lam = 0: the column count when
    it solves, else the rank its SingularProblemError names."""
    try:
        solve_offline(problem, lam=0.0)
    except SingularProblemError as err:
        return int(str(err).split()[1])
    return problem.states.shape[1]


def tiny_esn_problem():
    trajectory = integrate_lorenz(LorenzParams(), 300)
    return train_lorenz_readout(trajectory, 20, 300, 1e-9, 1, target="zeta")[3]


def wide_problem():
    rng = make_rng(3)
    return RegressionProblem(rng.standard_normal((30, 80)), rng.standard_normal(30))


def tiny_pde_problem():
    model = build_feature_model(40, seed=1)
    return stacked_problem(model, sample_disc(40, 40, seed=2))[0]


class TestSolveOffline:
    def test_identity_design_unregularised(self):
        Y = np.array([3.0, -1.0, 4.0])
        out = solve_offline(RegressionProblem(np.eye(3), Y), lam=0.0)
        assert np.allclose(out.w, Y, atol=1e-12)

    def test_identity_design_lambda_one_halves(self):
        Y = np.array([2.0, 6.0])
        out = solve_offline(RegressionProblem(np.eye(2), Y), lam=1.0)
        assert np.allclose(out.w, Y / 2.0, atol=1e-12)

    def test_matches_normal_equation_oracle(self):
        rng = make_rng(0)
        X = rng.standard_normal((100, 10))
        Y = rng.standard_normal(100)
        lam = 1e-3
        out = solve_offline(RegressionProblem(X, Y), lam=lam)
        oracle = np.linalg.solve(X.T @ X + lam * np.eye(10), X.T @ Y)
        assert np.linalg.norm(out.w - oracle) < 1e-8 * np.linalg.norm(oracle)

    def test_rank_deficient_without_ridge_raises(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularProblemError):
            solve_offline(RegressionProblem(X, np.ones(3)), lam=0.0)

    def test_stationarity_identity(self):
        rng = make_rng(1)
        for lam in (1e-9, 1e-3, 1.0):
            X = rng.standard_normal((50, 8))
            Y = rng.standard_normal(50)
            prob = RegressionProblem(X, Y)
            out = solve_offline(prob, lam=lam)
            assert normal_equation_residual(prob, out) < 1e-8

    def test_monotone_regularisation(self):
        rng = make_rng(2)
        X = rng.standard_normal((60, 6))
        Y = rng.standard_normal(60)
        prob = RegressionProblem(X, Y)
        lams = [1e-6, 1e-4, 1e-2, 1.0, 100.0]
        norms = [np.linalg.norm(solve_offline(prob, lam=l).w) for l in lams]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


class TestSolveMatchesThinSvdReference:
    """The R-factor solve against the thin SVD of X, on predictions X w.

    Tolerances are relative, ||X (w - w_ref)|| / ||X w_ref||, set from
    measured gaps with margin: 3.0e-14 on the n=20 ESN states (cond
    8e10), 2.2e-15 on the wide problem and 2.3e-8 on the PDE stack (cond
    3e15, rank 32 of 40), whose truncated pseudo-inverse keeps singular
    values down to 1e-12 of the largest and so magnifies the rounding of
    either factorisation.
    """

    @pytest.mark.parametrize(
        "make, lam, truncate, tol",
        [
            (tiny_esn_problem, 1e-9, False, 1e-12),
            (wide_problem, 0.0, True, 1e-13),
            (wide_problem, 1e-6, True, 1e-13),
            (tiny_pde_problem, 0.0, True, 1e-6),
        ],
    )
    def test_predictions_within_tolerance(self, make, lam, truncate, tol):
        problem = make()
        X = problem.states
        w_ref, _ = solve_offline_reference(problem, lam=lam, truncate=truncate)
        w = solve_offline(problem, lam=lam, truncate=truncate).w
        assert np.linalg.norm(X @ (w - w_ref)) <= tol * np.linalg.norm(X @ w_ref)

    @pytest.mark.parametrize("make", [tiny_esn_problem, wide_problem, tiny_pde_problem])
    def test_same_rank_without_ridge(self, make):
        problem = make()
        assert rank_at_zero_ridge(problem) == solve_offline_reference(problem, truncate=True)[1]


class TestOnlineStep:
    def test_exact_solution_is_fixed_point(self):
        g = np.array([1.0, 2.0])
        w = np.array([0.2, 0.4])  # w @ g = 1.0
        out = online_step(w, g, 1.0, 0.3, 0.0)
        assert np.array_equal(out, w)

    def test_single_step_arithmetic(self):
        out = online_step(np.zeros(3), np.array([1.0, 0.0, 0.0]), 1.0, 0.5, 0.0)
        assert np.allclose(out, [0.5, 0.0, 0.0])

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            online_step(np.zeros(1), np.ones(1), 0.0, 0.0, 0.0)

    def test_rows_sum_their_single_row_updates(self):
        # Two rows at once: (1 - a lam) W - a (g1 (W.g1 - u1) + g2 (W.g2 - u2)).
        rng = make_rng(8)
        w, G, u = rng.standard_normal(4), rng.standard_normal((2, 4)), rng.standard_normal(2)
        alpha, lam = 0.1, 0.5
        expected = (1 - alpha * lam) * w - alpha * sum(g * (w @ g - t) for g, t in zip(G, u))
        assert np.allclose(online_step(w, G, u, alpha, lam), expected, atol=1e-14)


class TestRunOnline:
    def constant_stream(self, g, u, n):
        return ((g, u) for _ in range(n))

    def test_one_over_k_constant_features(self):
        # Rank-1 closed form: (g g^T + lam I)^{-1} g u = g u / (lam + ||g||^2).
        g = np.array([1.0, 2.0, -1.0])
        u, lam = 2.0, 0.5
        expected = g * u / (lam + g @ g)
        res = run_online(
            self.constant_stream(g, u, 100_000), ("one_over_k",), lam, np.zeros(3)
        )
        assert np.linalg.norm(res.readout.w - expected) < 1e-4
        assert res.readout.provenance == "online_1k"

    def test_const_schedule_geometric_convergence(self):
        g = np.array([0.6, -0.8])
        u, lam, alpha = 1.0, 0.25, 0.5
        assert alpha < 1.0 / (lam + g @ g)
        expected = g * u / (lam + g @ g)
        res = run_online(
            self.constant_stream(g, u, 200), ("const", alpha), lam, np.zeros(2),
            w_ref=expected, trace_every=10,
        )
        # On constant data the iteration is a fixed linear recurrence, so
        # the error contracts at least like (1 - alpha * lam)^k.
        assert np.linalg.norm(res.readout.w - expected) < (1 - alpha * lam) ** 150
        errs = res.trace[:, 1]
        assert np.all(np.diff(errs) <= 1e-12)

    def test_const_schedule_bound_enforced(self):
        g = np.array([2.0, 2.0])
        with pytest.raises(ContractionBoundError):
            run_online(self.constant_stream(g, 1.0, 10), ("const", 0.2), 0.0, np.zeros(2))

    def test_iid_finite_support_converges_to_moment_solution(self):
        # Features drawn from a 3-point support; the exact-moment oracle
        # is the closed-form ridge limit of the stream.
        support = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        targets = np.array([1.0, -1.0, 0.5])
        probs = np.array([0.5, 0.3, 0.2])
        lam = 0.1
        second = sum(p * np.outer(s, s) for p, s in zip(probs, support))
        cross = sum(p * s * t for p, s, t in zip(probs, support, targets))
        w_star = moment_solution(second, cross, lam)

        rng = make_rng(7)
        n = 200_000
        idx = rng.choice(3, size=n, p=probs)
        stream = ((support[i], targets[i]) for i in idx)
        res = run_online(stream, ("one_over_k",), lam, np.zeros(2), w_ref=w_star, trace_every=10_000)
        assert np.linalg.norm(res.readout.w - w_star) < 1e-2
        # Convergence trend: late error well below early error.
        early = res.trace[res.trace[:, 0] == 10_000, 1][0]
        late = res.trace[-1, 1]
        assert late < early

    def test_const_alpha_ergodic_mean_and_bound(self):
        support = np.array([[1.0, 0.2], [0.3, 1.0]])
        targets = np.array([0.8, -0.4])
        probs = np.array([0.5, 0.5])
        lam, alpha = 0.2, 0.3
        second = sum(p * np.outer(s, s) for p, s in zip(probs, support))
        cross = sum(p * s * t for p, s, t in zip(probs, support, targets))
        w_star = moment_solution(second, cross, lam)
        rng = make_rng(9)
        n = 100_000
        idx = rng.choice(2, size=n, p=probs)
        stream = ((support[i], targets[i]) for i in idx)
        res = run_online(stream, ("const", alpha), lam, np.zeros(2), w_ref=w_star, trace_every=100)
        # Long-run mean of the iterates sits near W* ...
        assert np.linalg.norm(res.mean_w - w_star) < 0.05
        # ... and the residual-over-lambda bound caps the excursion.
        residuals = [
            np.linalg.norm((np.outer(s, s) + lam * np.eye(2)) @ w_star - s * t)
            for s, t in zip(support, targets)
        ]
        bound = np.sqrt(np.mean([r**2 for r in residuals])) / lam
        tail = res.trace[res.trace[:, 0] > 1000, 1]
        assert np.max(tail) <= bound + 1e-9


class TestValueTargets:
    def test_gamma_zero_is_identity_transform(self):
        f = np.arange(8.0).reshape(4, 2)
        rewards = np.array([1.0, 2.0, 3.0])
        prob = value_targets(f, rewards, gamma=0.0)
        assert np.array_equal(prob.states, f[:-1])
        assert np.array_equal(prob.targets, rewards)

    def test_constant_reward_geometric_value(self):
        # Constant feature f and reward u: W^T f must equal u / (1 - gamma).
        gamma, u = 0.5, 2.0
        f = np.ones((50, 1))
        prob = value_targets(f, np.full(49, u), gamma)
        out = solve_offline(prob, lam=0.0)
        assert abs(out.w[0] * 1.0 - u / (1 - gamma)) < 1e-10

    def test_two_state_cycle_value(self):
        # Deterministic cycle with rewards (1, 0): V = (I - gamma P)^{-1} r.
        gamma = 0.5
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        r = np.array([1.0, 0.0])
        v_oracle = np.linalg.solve(np.eye(2) - gamma * P, r)
        assert np.allclose(v_oracle, [4.0 / 3.0, 2.0 / 3.0])

        n = 41
        states = np.array([k % 2 for k in range(n)])
        features = np.eye(2)[states]
        rewards = r[states[:-1]]
        prob = value_targets(features, rewards, gamma)
        out = solve_offline(prob, lam=0.0)
        learned = np.eye(2) @ out.w
        assert np.max(np.abs(learned - v_oracle)) < 1e-6

    def test_bellman_self_consistency(self):
        # With exact tabular features the learned value obeys
        # V = u + gamma V(next) at every visited state.
        gamma = 0.9
        n = 61
        states = np.array([k % 3 for k in range(n)])
        rewards_table = np.array([1.0, -0.5, 0.25])
        features = np.eye(3)[states]
        rewards = rewards_table[states[:-1]]
        prob = value_targets(features, rewards, gamma)
        out = solve_offline(prob, lam=0.0)
        V = out.w
        for k in range(n - 1):
            lhs = V[states[k]]
            rhs = rewards_table[states[k]] + gamma * V[states[k + 1]]
            assert abs(lhs - rhs) < 1e-8

    def test_rejects_bad_gamma_and_short_series(self):
        with pytest.raises(ValueError):
            value_targets(np.ones((3, 1)), np.ones(2), gamma=1.0)
        with pytest.raises(ValueError):
            value_targets(np.ones((1, 1)), np.ones(1), 0.5)


def bellman_residual(features, w, rewards, gamma):
    """Path average of (W^T (H_k - gamma H_{k+1}) - R_k)^2, the residual
    of the value-target problem that `value_learn` reports."""
    problem = value_targets(features, rewards, gamma)
    return float(np.mean((problem.states @ w - problem.targets) ** 2))


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
        prob = value_targets(features, rewards, gamma)
        w_star = solve_offline(prob, lam=0.0).w
        base = bellman_residual(features, w_star, rewards, gamma)
        rng = np.random.default_rng(5)
        for _ in range(50):
            delta = rng.standard_normal(2)
            delta *= 0.1 * np.linalg.norm(w_star) / np.linalg.norm(delta)
            assert base <= bellman_residual(features, w_star + delta, rewards, gamma) + 1e-12
