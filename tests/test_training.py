import tracemalloc

import numpy as np
import pytest

from echolab.cli import DEFAULT_BURN_IN, train_lorenz_readout
from echolab.dynsys import LorenzParams, TimeSeries, integrate_lorenz
from echolab.pde import build_feature_model, sample_disc, stacked_problem
from echolab.reservoir import drive, generate, make_rng
from echolab.stochastic import markov_value_oracle
from echolab.training import (
    Readout,
    RegressionProblem,
    solve_offline,
    value_targets,
)

from oracles import normal_equation_residual, solve_offline_reference


def esn_problem(n):
    """The seed-1 `zeta` design of an n-unit reservoir over 300 Lorenz
    samples: 200 rows after the burn-in."""
    trajectory = integrate_lorenz(LorenzParams(), 300)
    return train_lorenz_readout(trajectory, n, 300, 1e-9, 1, target="zeta")[3]


def tiny_esn_problem():
    return esn_problem(20)


def wide_esn_problem():
    return esn_problem(250)


def wide_problem():
    rng = make_rng(3)
    return RegressionProblem(rng.standard_normal((30, 80)), rng.standard_normal(30))


def tiny_pde_problem():
    model = build_feature_model(40, seed=1)
    return stacked_problem(model, sample_disc(40, 40, seed=2))


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

    def test_rank_deficient_without_ridge_is_the_pseudo_inverse(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([1.0, 0.0, 2.0])
        w = solve_offline(RegressionProblem(X, y), lam=0.0).w
        expected = np.linalg.pinv(X) @ y
        assert np.max(np.abs(w - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_stationarity_identity(self):
        rng = make_rng(1)
        for lam in (1e-9, 1e-3, 1.0):
            X = rng.standard_normal((50, 8))
            Y = rng.standard_normal(50)
            prob = RegressionProblem(X, Y)
            out = solve_offline(prob, lam=lam)
            assert normal_equation_residual(prob, out) < 1e-8

    def test_stationarity_check_rejects_another_ridge(self):
        # The 1e-8 bound above has power: the solve at a neighbouring
        # lambda, scored as if solved at lam, misses it by far.
        rng = make_rng(1)
        prob = RegressionProblem(rng.standard_normal((50, 8)), rng.standard_normal(50))
        for lam, other in ((1e-3, 1e-1), (1.0, 10.0)):
            w = solve_offline(prob, lam=other).w
            assert normal_equation_residual(prob, Readout(w=w, lam=lam)) > 1e-5

    def test_targets_orthogonal_to_features_give_zero_readout(self):
        # X^T Y = 0 exactly: the features live on the first six rows and
        # the targets on the last four, so the ridge solution is W = 0.
        rng = make_rng(4)
        X = np.vstack([rng.integers(-3, 4, (6, 3)).astype(float), np.zeros((4, 3))])
        Y = np.concatenate([np.zeros(6), rng.standard_normal(4)])
        prob = RegressionProblem(X, Y)
        for lam in (0.0, 1e-3, 1.0):
            out = solve_offline(prob, lam=lam)
            assert np.max(np.abs(out.w)) < 1e-12
            assert normal_equation_residual(prob, out) < 1e-8

    def test_monotone_regularisation(self):
        rng = make_rng(2)
        X = rng.standard_normal((60, 6))
        Y = rng.standard_normal(60)
        prob = RegressionProblem(X, Y)
        lams = [1e-6, 1e-4, 1e-2, 1.0, 100.0]
        norms = [np.linalg.norm(solve_offline(prob, lam=l).w) for l in lams]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def laid_out(X, Y):
    """The no-copy problem on [X | Y] written into a fresh design."""
    design = np.empty((X.shape[0], X.shape[1] + 1))
    design[:, :-1] = X
    design[:, -1] = Y
    return RegressionProblem.from_design(design)


class TestDesign:
    def test_constructor_copies_into_one_design(self):
        X, Y = np.arange(6.0).reshape(3, 2), np.array([7.0, 8.0, 9.0])
        problem = RegressionProblem(X, Y)
        assert np.array_equal(problem.design, np.column_stack([X, Y]))
        assert not np.shares_memory(problem.design, X)
        assert np.shares_memory(problem.states, problem.design)
        assert np.shares_memory(problem.targets, problem.design)

    def test_from_design_wraps_without_copy(self):
        wide = np.arange(20.0).reshape(5, 4)
        problem = RegressionProblem.from_design(wide[1:4])
        assert np.shares_memory(problem.design, wide)
        assert np.array_equal(problem.states, wide[1:4, :3])
        assert np.array_equal(problem.targets, wide[1:4, 3])

    # Each malformed design beside the constructor input that lays it out.
    @pytest.mark.parametrize(
        "design, states, targets",
        [
            (np.zeros((2, 3, 4)), np.zeros((2, 3, 3)), np.zeros(2)),
            (np.zeros(4), np.zeros((4, 0, 1)), np.zeros(4)),
            (np.zeros((5, 1)), np.zeros((5, 0)), np.zeros(5)),
            (np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0)),
        ],
    )
    def test_from_design_rejects_with_the_constructor_message(self, design, states, targets):
        with pytest.raises(ValueError) as wrapped:
            RegressionProblem.from_design(design)
        with pytest.raises(ValueError) as built:
            RegressionProblem(states, targets)
        assert str(wrapped.value) == str(built.value)

    def test_rows_must_match(self):
        with pytest.raises(ValueError, match="row count"):
            RegressionProblem(np.zeros((4, 2)), np.zeros(3))

    @pytest.mark.parametrize("lam", [1e-6, 0.0])
    def test_no_copy_solve_has_the_copied_bits(self, lam):
        # The lam = 0 case is rank deficient: columns 3..5 repeat 0..2.
        rng = make_rng(5)
        X = rng.standard_normal((200, 6))
        if lam == 0.0:
            X[:, 3:] = X[:, :3]
        Y = rng.standard_normal(200)
        copied = solve_offline(RegressionProblem(X, Y), lam=lam)
        wrapped = solve_offline(laid_out(X, Y), lam=lam)
        assert wrapped.w.tobytes() == copied.w.tobytes()

    def test_no_copy_solve_allocates_one_design_copy(self):
        # np.linalg.qr copies its input once (LAPACK's own buffer is not
        # traced); building [X | Y] in the solve would make it two.
        rng = make_rng(6)
        problem = laid_out(rng.standard_normal((4000, 50)), rng.standard_normal(4000))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve_offline(problem, lam=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.1 * problem.design.nbytes


def readout_from_fresh_states(trajectory, n, ell, lam, seed, target):
    """`train_lorenz_readout`'s readout with the states driven into an
    array of their own and copied into the problem."""
    spec = generate(n, seed)
    inputs = TimeSeries(step=trajectory.step, samples=trajectory.samples[:ell, :1])
    states = drive(spec, inputs, np.zeros(n)).samples
    targets = trajectory.samples[:ell, 2 if target == "zeta" else 0]
    problem = RegressionProblem(states[DEFAULT_BURN_IN:ell], targets[DEFAULT_BURN_IN:])
    return solve_offline(problem, lam=lam).w


class TestLorenzReadoutDesign:
    # n = 300 is the benchmark's reservoir size; its products may take
    # another BLAS path than n = 20.
    @pytest.mark.parametrize(
        "n, ell, seed, target",
        [(20, 300, 1, "zeta"), (20, 300, 7, "next_xi"), (300, 1000, 42, "next_xi")],
    )
    def test_readout_has_the_bits_of_fresh_states(self, n, ell, seed, target):
        trajectory = integrate_lorenz(LorenzParams(), ell + 1)
        readout = train_lorenz_readout(trajectory, n, ell, 1e-9, seed, target)[2]
        expected = readout_from_fresh_states(trajectory, n, ell, 1e-9, seed, target)
        assert readout.w.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("target", ["zeta", "next_xi"])
    def test_every_design_cell_is_written(self, monkeypatch, target):
        # Fresh float arrays start as NaN here, so a cell that is read
        # before it is written, or never written, shows up as NaN.
        empty = np.empty

        def nan_filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        trajectory = integrate_lorenz(LorenzParams(), 300)
        monkeypatch.setattr(np, "empty", nan_filled)
        _, states, readout, problem = train_lorenz_readout(trajectory, 20, 300, 1e-9, 1, target)
        monkeypatch.undo()
        design = problem.design.base
        assert design is states.samples.base and design.shape == (301, 21)
        assert np.all(np.isfinite(design)) and np.all(np.isfinite(readout.w))
        column = 2 if target == "zeta" else 0
        assert np.array_equal(design[:, 20], trajectory.samples[:301, column])

    def test_problem_design_is_the_driven_array(self):
        trajectory = integrate_lorenz(LorenzParams(), 300)
        _, states, _, problem = train_lorenz_readout(trajectory, 20, 300, 1e-9, 1, "zeta")
        assert np.shares_memory(problem.design, states.samples)
        assert np.shares_memory(problem.states, states.samples)
        assert np.array_equal(problem.states, states.samples[DEFAULT_BURN_IN:300])
        assert np.array_equal(problem.targets, trajectory.samples[DEFAULT_BURN_IN:300, 2])


class TestSolveMatchesThinSvdReference:
    """The R-factor solve against the thin SVD of X, on predictions X w.

    Tolerances are relative, ||X (w - w_ref)|| / ||X w_ref||, set from
    measured gaps with margin. On the n=20 ESN states (cond 8e10): 4.0e-15
    at lam = 1e-9 and 5.1e-13 at lam = 0, which is least squares at full
    rank (seeds 1-8 gave up to 3.4e-12). On the n=250 ESN states (rank 33
    of 250, cond 1e12 over the kept directions): 2.6e-12 at lam = 0
    (seeds 1-8: 3.3e-13 to 2.6e-12). 2.2e-15 on the wide problem, and
    2.3e-8 on the PDE stack (cond 3e15, rank 32 of 40). The pseudo-inverse
    keeps singular values down to 1e-12 of the largest and so magnifies
    the rounding of either factorisation.
    """

    @pytest.mark.parametrize(
        "make, lam, tol",
        [
            (tiny_esn_problem, 1e-9, 1e-12),
            (tiny_esn_problem, 0.0, 1e-11),
            (wide_esn_problem, 0.0, 3e-11),
            (wide_problem, 0.0, 1e-13),
            (wide_problem, 1e-6, 1e-13),
            (tiny_pde_problem, 0.0, 1e-6),
        ],
    )
    def test_predictions_within_tolerance(self, make, lam, tol):
        problem = make()
        X = problem.states
        w_ref = solve_offline_reference(problem, lam)
        w = solve_offline(problem, lam=lam).w
        assert np.linalg.norm(X @ (w - w_ref)) <= tol * np.linalg.norm(X @ w_ref)


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
