"""Readout learning.

Offline Tikhonov least squares through the SVD of the R factor of the
feature matrix (taken from the QR of [X | Y], so neither Q nor the
left singular vectors of X are formed), the two online
stochastic iterations (constant step and 1/k step), and the feature
transform that turns value estimation into ordinary regression.

The online iterations of `run_online` apply the one update
`online_step`, W <- (1 - alpha lam) W - alpha G^T (G W - u), whose
fixed point in the mean is the ridge solution of the feature moments,
(E[g g^T] + lam I)^{-1} E[g u].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import ContractionBoundError, SingularProblemError

SVD_TRUNCATION = 1e-12
DEFAULT_BURN_IN = 100


@dataclass
class Readout:
    """Trained linear readout with its regularisation record."""

    w: np.ndarray
    lam: float = 0.0
    provenance: str = "offline_svd"

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float).reshape(-1)
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("readout weights must be finite")


@dataclass
class RegressionProblem:
    """Feature rows X (ell x P) with scalar targets Y (ell)."""

    states: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.targets = np.asarray(self.targets, dtype=float).reshape(-1)
        if self.states.shape[0] != self.targets.shape[0]:
            raise ValueError("row count of states must match targets")
        if self.states.shape[0] < 1:
            raise ValueError("need at least one sample")


def problem_from_series(states: np.ndarray, targets: np.ndarray) -> RegressionProblem:
    """Pair reservoir state rows with targets, dropping the first
    DEFAULT_BURN_IN rows as transient."""
    targets = np.asarray(targets, dtype=float).reshape(-1)
    n = min(len(states), targets.shape[0])
    return RegressionProblem(states[DEFAULT_BURN_IN:n], targets[DEFAULT_BURN_IN:n])


def solve_offline(
    problem: RegressionProblem,
    lam: float = 0.0,
    truncate: bool = False,
) -> Readout:
    """Ridge solution W* = sum_k sigma_k (U_k^T Q^T Y) / (sigma_k^2 + lam) V_k.

    X = Q R with R the first k = min(ell, P) rows of the R factor of
    [X | Y]; the same rows of that factor's last column hold Q^T Y. The
    SVD R = U S V^T of the k x P factor has the singular values and
    right vectors of X, so the solve never forms Q or an ell-row U.
    With lam = 0 the problem must have full column rank (singular values
    below 1e-12 of the largest count as zero) or SingularProblemError is
    raised; truncate=True takes the pseudo-inverse over the surviving
    directions instead, which rank-deficient feature stacks need.
    """
    X, Y = problem.states, problem.targets
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    k = min(X.shape)
    R_aug = np.linalg.qr(np.column_stack([X, Y]), mode="r")[:k]
    U, sv, Vt = np.linalg.svd(R_aug[:, :-1], full_matrices=False)
    qty = R_aug[:, -1]
    keep = slice(None)
    if lam == 0.0:
        rank = int(np.sum(sv > SVD_TRUNCATION * sv[0])) if sv.size and sv[0] > 0 else 0
        if rank < X.shape[1]:
            if not truncate:
                raise SingularProblemError(
                    f"rank {rank} < {X.shape[1]} columns with lambda = 0"
                )
            keep = slice(0, rank)
    sv, U, Vt = sv[keep], U[:, keep], Vt[keep]
    coeffs = sv * (U.T @ qty) / (sv**2 + lam)
    w = Vt.T @ coeffs
    return Readout(w=w, lam=lam, provenance="offline_svd")


def normal_equation_residual(problem: RegressionProblem, readout: Readout) -> float:
    """Relative residual of (X^T X + lam I) W - X^T Y."""
    X, Y = problem.states, problem.targets
    rhs = X.T @ Y
    lhs = X.T @ (X @ readout.w) + readout.lam * readout.w
    denom = np.linalg.norm(rhs)
    return float(np.linalg.norm(lhs - rhs) / denom) if denom > 0 else float(
        np.linalg.norm(lhs)
    )


def online_step(
    w: np.ndarray, G: np.ndarray, u, alpha: float, lam: float
) -> np.ndarray:
    """One stochastic ridge update (1 - alpha lam) W - alpha G^T (G W - u).

    G holds one feature row per target in u: a (P,) row with a scalar
    target is the single-sample update (1 - alpha lam) W - alpha g (W^T g - u).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    G = np.atleast_2d(G)
    return (1.0 - alpha * lam) * w - alpha * (G.T @ (G @ w - u))


@dataclass
class OnlineResult:
    readout: Readout
    trace: np.ndarray  # (step, ||W_k - W_ref||) rows
    mean_w: np.ndarray


def run_online(
    features: Iterable[Tuple[np.ndarray, float]],
    schedule,
    lam: float,
    w0: np.ndarray,
    w_ref: Optional[np.ndarray] = None,
    trace_every: int = 1000,
) -> OnlineResult:
    """Run the online iteration over a stream of (g_k, u_k) pairs.

    schedule is ('const', alpha) or ('one_over_k',); the constant
    schedule enforces alpha < 1 / (lam + ||g_k||^2) on every sample and
    rejects violations with ContractionBoundError. The 1/k schedule
    starts at k = 1 (alpha_1 = 1). Returns the final readout, a sparse
    trace of ||W_k - w_ref|| (or ||W_k|| when no reference is given),
    and the running mean of the iterates.
    """
    kind = schedule[0]
    if kind not in ("const", "one_over_k"):
        raise ValueError(f"unknown schedule {kind!r}")
    w = np.asarray(w0, dtype=float).reshape(-1).copy()
    mean_w = np.zeros_like(w)
    trace = []
    k = 0
    for g_k, u_k in features:
        k += 1
        g_k = np.asarray(g_k, dtype=float).reshape(-1)
        if kind == "const":
            alpha = schedule[1]
            if alpha >= 1.0 / (lam + g_k @ g_k):
                raise ContractionBoundError(
                    f"alpha = {alpha} >= 1/(lambda + ||g||^2) at step {k}"
                )
        else:
            alpha = 1.0 / k
        w = online_step(w, g_k, u_k, alpha, lam)
        mean_w += (w - mean_w) / k
        if k % trace_every == 0 or k == 1:
            ref = w_ref if w_ref is not None else np.zeros_like(w)
            trace.append((k, float(np.linalg.norm(w - ref))))
    provenance = "online_const" if kind == "const" else "online_1k"
    return OnlineResult(
        readout=Readout(w=w, lam=lam, provenance=provenance),
        trace=np.array(trace) if trace else np.zeros((0, 2)),
        mean_w=mean_w,
    )


def value_targets(
    features: np.ndarray, rewards: np.ndarray, gamma: float
) -> RegressionProblem:
    """Rows g_k = f_k - gamma f_{k+1} of the feature rows f_k, paired
    with the reward at step k.

    Training on the result approximates the discounted value: a weight
    vector with W^T g close to the rewards makes W^T f satisfy the
    one-step recursion V = u + gamma V after phi. Rewards pair with the
    transition leaving step k.
    """
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    if len(features) < 2:
        raise ValueError("need at least 2 samples")
    rows = features[:-1] - gamma * features[1:]
    rewards = np.asarray(rewards, dtype=float).reshape(-1)[: rows.shape[0]]
    if rewards.shape[0] != rows.shape[0]:
        raise ValueError("need a reward for every transition")
    return RegressionProblem(rows, rewards)
