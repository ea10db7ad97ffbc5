"""Stationary ergodic input processes and value functionals.

The input process is a finite Markov chain started from its stationary
law and emitting one row per state. The module also holds Monte-Carlo
value estimation and an empirical contraction check for the one-step
expectation operator.

Every random step consumes exactly one double of its generator and maps
it through the cumulative law, as `Generator.choice(k, p=p)` does, so a
path is fixed by its seed however many paths are drawn together.
Monte-Carlo rollouts run as one batch: one draw block per call, and one
reward call per distinct window, found by one lexsort of the windows' bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynsys import TimeSeries
from .errors import AdmissibilityError, NonErgodicError
from .reservoir import make_rng


@dataclass
class ProcessSpec:
    """A finite Markov chain started from its stationary distribution.

    State k moves to state j with probability `transition[k, j]` and
    emits the row `emissions[k]`; `seed` fixes the sampled path.
    """

    transition: np.ndarray
    emissions: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=float)
        self.emissions = np.atleast_2d(np.asarray(self.emissions, dtype=float))
        P = self.transition
        if np.any(P < 0) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("transition rows must be stochastic")
        if not np.all(np.isfinite(self.emissions)):
            raise AdmissibilityError("emissions must be bounded")


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Unique stationary law of an ergodic chain, or NonErgodicError.

    Entries down to -1e-10 count as roundoff and are clipped to zero.
    """
    P = np.asarray(transition, dtype=float)
    vals, vecs = np.linalg.eig(P.T)
    close = np.where(np.abs(vals - 1.0) < 1e-9)[0]
    if len(close) != 1:
        raise NonErgodicError("transition matrix has no unique stationary distribution")
    pi = np.real(vecs[:, close[0]])
    pi = pi / pi.sum()
    if np.any(pi < -1e-10):
        raise NonErgodicError("stationary vector has negative mass")
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative law along the last axis, normalised as `Generator.choice` does."""
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _draw_finite(
    spec: ProcessSpec,
    rng: np.random.Generator,
    shape: Tuple[int, int],
    start: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Emitted rows and hidden states of `shape = (paths, length)` steps.

    Every step consumes exactly one `rng.random()` double, drawn in one
    block in C order (path-major), and maps it by inverse CDF: the state
    is the number of cumulative-law entries <= the draw, with the law
    normalised by its last entry. This is what `Generator.choice(k, p=p)`
    does with one double per draw, so a path drawn here equals the
    per-step `rng.choice` walk bit for bit and leaves `rng` in the same
    state. All paths advance together, one time step per loop pass, from
    state `start`; with no start the first state is drawn from the
    stationary law and is the first of the `length` states.
    """
    u = rng.random(shape)
    P = spec.transition
    cdf = _cdf(P)
    states = np.empty(shape, dtype=int)
    prev = None if start is None else np.full(shape[:-1], start)
    for k in range(shape[-1]):
        law = _cdf(stationary_distribution(P)) if prev is None else cdf[prev]
        prev = states[..., k] = (law <= u[..., k, None]).sum(axis=-1)
    return spec.emissions[states], states


def sample_path(spec: ProcessSpec, length: int) -> Tuple[TimeSeries, np.ndarray]:
    """Seeded, replayable sample of the chain and its hidden states.

    One path of `_draw_finite` from a generator seeded with `spec.seed`.
    The initial state is drawn from the stationary distribution, so the
    path is stationary from index 0.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rows, states = _draw_finite(spec, make_rng(spec.seed), (1, length))
    return TimeSeries(step=1.0, samples=rows[0]), states[0]


@dataclass
class RewardFunctional:
    """Causal reward depending on the last `window` inputs.

    fn receives a (window, d) array, newest input last, and must return
    a finite float; each call checks this and raises AdmissibilityError
    otherwise. fn must be a pure function of the window's values:
    `value_mc` calls it once per distinct window of a batch, not once
    per rollout step.
    """

    window: int
    fn: Callable[[np.ndarray], float]

    def __call__(self, recent: np.ndarray) -> float:
        value = float(self.fn(np.atleast_2d(recent)))
        if not math.isfinite(value):
            raise AdmissibilityError("reward functional produced a non-finite value")
        return value


@dataclass
class ValueEstimate:
    value: float
    stderr: float
    horizon: int
    n_rollouts: int


def value_mc(
    spec: ProcessSpec,
    reward: RewardFunctional,
    gamma: float,
    history: np.ndarray,
    n_rollouts: int = 200,
    current_state: Optional[int] = None,
    seed: int = 0,
) -> ValueEstimate:
    """Monte-Carlo estimate of the discounted value given a history.

    `history` holds at least `reward.window` recent inputs (newest
    last); rollouts condition on `current_state`, the hidden index
    behind the newest input, and start from the stationary law without
    one. The horizon is the smallest one with gamma**horizon <= 1e-9
    (1 when gamma is 0).

    All rollouts run as one batch: the `horizon - 1` future steps of
    every rollout come from one `_draw_finite` block seeded with `seed`
    (one double per step, rollout-major), and the reward is called once
    per distinct window, distinct meaning bitwise different: one
    `np.lexsort` over the windows' uint64 bit columns orders them, and
    a compare of adjacent sorted rows finds the distinct ones. Each
    rollout's return is accumulated step by step in time order, so the
    value and stderr are those of the per-rollout, per-step loop.
    """
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    history = np.atleast_2d(np.asarray(history, dtype=float))
    if len(history) < reward.window:
        raise ValueError("history shorter than the reward window")
    if gamma == 0.0:
        horizon = 1
    else:
        horizon = max(1, int(math.ceil(math.log(1e-9) / math.log(gamma))))
    future = _draw_finite(spec, make_rng(seed), (n_rollouts, horizon - 1), current_state)[0]
    recent = history[len(history) - reward.window :]
    paths = np.concatenate([np.broadcast_to(recent, (n_rollouts,) + recent.shape), future], axis=1)
    # Window k of a rollout is paths[:, k : k + window]. Windows are keyed
    # by their raw bits, so equal-comparing values such as 0.0 and -0.0
    # still get their own reward call.
    windows = sliding_window_view(paths, reward.window, axis=1).swapaxes(-1, -2)
    bits = np.ascontiguousarray(windows).view(np.uint64).reshape(n_rollouts * horizon, -1)
    # One lexsort over the key columns, first column most significant;
    # a sorted row starts a new distinct window where it differs from
    # the row before it.
    order = np.lexsort(bits.T[::-1])
    ranked = bits[order]
    starts = np.ones(len(ranked), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(ranked), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    values = np.array(
        [reward(row.view(np.float64).reshape(recent.shape)) for row in ranked[starts]]
    )
    rewards = values[inverse.reshape(n_rollouts, horizon)]
    # Summed in time order, as the per-step loop did; a pairwise sum or a
    # matrix product would round differently.
    totals = np.zeros(n_rollouts)
    for k in range(horizon):
        totals += gamma**k * rewards[:, k]
    stderr = float(totals.std(ddof=1) / math.sqrt(n_rollouts)) if n_rollouts > 1 else 0.0
    return ValueEstimate(
        value=float(totals.mean()), stderr=stderr, horizon=horizon, n_rollouts=n_rollouts
    )


def markov_value_oracle(transition: np.ndarray, rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Exact tabular value (I - gamma P)^{-1} r."""
    P = np.asarray(transition, dtype=float)
    r = np.asarray(rewards, dtype=float)
    return np.linalg.solve(np.eye(P.shape[0]) - gamma * P, r)


def bellman_contraction_check(
    transition: np.ndarray,
    feature_table: np.ndarray,
    gamma: float,
    path_states: np.ndarray,
    n_pairs: int = 100,
    seed: int = 0,
) -> float:
    """Empirical Lipschitz ratio of H -> gamma E[H(next)] + R.

    Draws random pairs of tabular functionals from the span of the
    feature table and measures ||Phi H1 - Phi H2|| / ||H1 - H2|| in the
    path's empirical norm, skipping coincident pairs. The reward term
    cancels in differences, so only the expectation part matters.
    """
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    P = np.asarray(transition, dtype=float)
    table = np.atleast_2d(np.asarray(feature_table, dtype=float))
    states = np.asarray(path_states, dtype=int)
    rng = make_rng(seed)
    max_ratio = 0.0
    for _ in range(n_pairs):
        w1 = rng.standard_normal(table.shape[1])
        w2 = rng.standard_normal(table.shape[1])
        h1, h2 = table @ w1, table @ w2
        diff = h1 - h2
        denom = math.sqrt(float(np.mean(diff[states] ** 2)))
        if denom < 1e-12:
            continue
        phi_diff = gamma * (P @ diff)
        numer = math.sqrt(float(np.mean(phi_diff[states] ** 2)))
        max_ratio = max(max_ratio, numer / denom)
    return max_ratio
