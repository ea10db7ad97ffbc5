"""Stationary ergodic input processes and value functionals.

Finite-state processes (i.i.d. draws, Markov chains started from their
stationary law, and wrapped deterministic series), Monte-Carlo value
estimation, the empirical Bellman residual, and an empirical
contraction check for the one-step expectation operator.

Every random step of a finite kind consumes exactly one double of its
generator and maps it through the cumulative law, as
`Generator.choice(k, p=p)` does, so a path is fixed by its seed however
many paths are drawn together. Monte-Carlo rollouts run as one batch:
one draw block per call, and one reward call per distinct window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynsys import TimeSeries
from .errors import AdmissibilityError, NonErgodicError
from .reservoir import make_rng
from .training import Readout


@dataclass
class ProcessSpec:
    """A finite-memory stationary process.

    kind selects the sampler:
      ('iid_finite', support, probabilities): rows of `support` drawn
          i.i.d. with the given probabilities.
      ('markov_chain', transition, emissions): a finite chain started
          from its stationary distribution, emitting `emissions[state]`.
      ('deterministic_wrap', series): replays a stored TimeSeries.
    """

    kind: Tuple
    seed: int = 0

    def __post_init__(self):
        tag = self.kind[0]
        if tag == "iid_finite":
            _, support, probs = self.kind
            probs = np.asarray(probs, dtype=float)
            if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
                raise ValueError("probabilities must be nonnegative and sum to 1")
            if not np.all(np.isfinite(np.asarray(support, dtype=float))):
                raise AdmissibilityError("support must be bounded")
        elif tag == "markov_chain":
            _, transition, emissions = self.kind
            P = np.asarray(transition, dtype=float)
            if np.any(P < 0) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError("transition rows must be stochastic")
            if not np.all(np.isfinite(np.asarray(emissions, dtype=float))):
                raise AdmissibilityError("emissions must be bounded")
        elif tag == "deterministic_wrap":
            if not isinstance(self.kind[1], TimeSeries):
                raise ValueError("deterministic_wrap expects a TimeSeries")
        else:
            raise ValueError(f"unknown process kind {tag!r}")

    @property
    def tag(self) -> str:
        return self.kind[0]


def stationary_distribution(transition: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Unique stationary law of an ergodic chain, or NonErgodicError."""
    P = np.asarray(transition, dtype=float)
    vals, vecs = np.linalg.eig(P.T)
    close = np.where(np.abs(vals - 1.0) < 1e-9)[0]
    if len(close) != 1:
        raise NonErgodicError("transition matrix has no unique stationary distribution")
    pi = np.real(vecs[:, close[0]])
    pi = pi / pi.sum()
    if np.any(pi < -tol):
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
    state. i.i.d. kinds map the whole block at once. Markov paths all
    advance together, one time step per loop pass, from state `start`;
    with no start the first state is drawn from the stationary law and
    is the first of the `length` states.
    """
    u = rng.random(shape)
    if spec.tag == "iid_finite":
        _, table, probs = spec.kind
        states = _cdf(np.asarray(probs, dtype=float)).searchsorted(u, side="right")
    else:
        _, transition, table = spec.kind
        P = np.asarray(transition, dtype=float)
        cdf = _cdf(P)
        states = np.empty(shape, dtype=int)
        prev = None if start is None else np.full(shape[:-1], start)
        for k in range(shape[-1]):
            law = _cdf(stationary_distribution(P)) if prev is None else cdf[prev]
            prev = states[..., k] = (law <= u[..., k, None]).sum(axis=-1)
    return np.atleast_2d(np.asarray(table, dtype=float))[states], states


def sample_path(
    spec: ProcessSpec, length: int, return_states: bool = False
) -> Union[TimeSeries, Tuple[TimeSeries, np.ndarray]]:
    """Seeded, replayable sample of the process.

    Finite kinds are one path of `_draw_finite` from a generator seeded
    with `spec.seed`. Markov paths draw their initial state from the
    stationary distribution so the path is stationary from index 0; the
    optional second return value carries the hidden state indices.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if spec.tag != "deterministic_wrap":
        rows, states = _draw_finite(spec, make_rng(spec.seed), (1, length))
        series = TimeSeries(step=1.0, samples=rows[0])
        return (series, states[0]) if return_states else series
    series = spec.kind[1]
    out = TimeSeries(
        step=series.step,
        samples=series.samples[:length].copy(),
        origin_index=series.origin_index,
    )
    if return_states:
        return out, np.arange(min(length, len(series)))
    return out


@dataclass
class RewardFunctional:
    """Causal reward depending on the last `window` inputs.

    fn receives a (window, d) array, newest input last, and must return
    a finite float, within `sup_bound` in magnitude when one is set;
    each call checks both and raises AdmissibilityError otherwise. fn
    must be a pure function of the window's values: `value_mc` calls it
    once per distinct window of a batch, not once per rollout step.
    """

    window: int
    fn: Callable[[np.ndarray], float]
    sup_bound: Optional[float] = None

    def __call__(self, recent: np.ndarray) -> float:
        value = float(self.fn(np.atleast_2d(recent)))
        if not math.isfinite(value):
            raise AdmissibilityError("reward functional produced a non-finite value")
        if self.sup_bound is not None and abs(value) > self.sup_bound + 1e-12:
            raise AdmissibilityError("reward exceeded its declared bound")
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
    horizon: Optional[int] = None,
    tail_tol: float = 1e-9,
    current_state: Optional[int] = None,
    seed: int = 0,
) -> ValueEstimate:
    """Monte-Carlo estimate of the discounted value given a history.

    `history` holds at least `reward.window` recent inputs (newest
    last); Markov and wrapped kinds condition on `current_state`, the
    hidden index behind the newest input (a Markov rollout without one
    starts from the stationary law), while i.i.d. kinds ignore it.
    The horizon defaults to the smallest one with gamma**horizon <=
    tail_tol (1 when gamma is 0).

    All rollouts run as one batch: the `horizon - 1` future steps of
    every rollout come from one `_draw_finite` block seeded with `seed`
    (one double per step, rollout-major), and the reward is called once
    per distinct window, distinct meaning bitwise different. Each
    rollout's return is accumulated step by step in time order, so the
    value and stderr are those of the per-rollout, per-step loop.
    """
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    history = np.atleast_2d(np.asarray(history, dtype=float))
    if len(history) < reward.window:
        raise ValueError("history shorter than the reward window")
    if horizon is None:
        if gamma == 0.0:
            horizon = 1
        else:
            horizon = max(1, int(math.ceil(math.log(tail_tol) / math.log(gamma))))
    if spec.tag == "deterministic_wrap":
        series = spec.kind[1]
        start = 0 if current_state is None else current_state + 1
        if start + horizon - 1 > len(series):
            raise ValueError("wrapped series too short for the requested horizon")
        wrapped = series.samples[start : start + horizon - 1]
        future = np.broadcast_to(wrapped, (n_rollouts,) + wrapped.shape)
    else:
        future = _draw_finite(spec, make_rng(seed), (n_rollouts, horizon - 1), current_state)[0]
    recent = history[len(history) - reward.window :]
    paths = np.concatenate([np.broadcast_to(recent, (n_rollouts,) + recent.shape), future], axis=1)
    # Window k of a rollout is paths[:, k : k + window]. Windows are keyed
    # by their raw bits, so equal-comparing values such as 0.0 and -0.0
    # still get their own reward call.
    windows = sliding_window_view(paths, reward.window, axis=1).swapaxes(-1, -2)
    bits = np.ascontiguousarray(windows).view(np.uint64).reshape(n_rollouts * horizon, -1)
    distinct, inverse = np.unique(bits, axis=0, return_inverse=True)
    values = np.array([reward(row.view(np.float64).reshape(recent.shape)) for row in distinct])
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


def bellman_residual(
    features: np.ndarray,
    w: Union[Readout, np.ndarray],
    rewards: np.ndarray,
    gamma: float,
    burn_in: int = 0,
) -> float:
    """Path average of (W^T (H_k - gamma H_{k+1}) - R_k)^2.

    This is the empirical objective that the value-target transform
    plus offline training minimises; features are rows H_k along the
    path and rewards align with the transition leaving step k.
    """
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    H = np.atleast_2d(np.asarray(features, dtype=float))
    if len(H) < burn_in + 2:
        raise ValueError("path must be longer than burn_in + 2")
    weights = w.w if isinstance(w, Readout) else np.asarray(w, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    diffs = H[burn_in:-1] - gamma * H[burn_in + 1 :]
    preds = diffs @ weights
    r = rewards[burn_in : burn_in + len(preds)]
    return float(np.mean((preds - r) ** 2))


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
