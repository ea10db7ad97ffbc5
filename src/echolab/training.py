"""Readout learning.

Offline Tikhonov least squares through the SVD of the R factor of the
feature matrix (taken from the QR of [X | Y], so neither Q nor the
left singular vectors of X are formed), and the feature transform that
turns value estimation into ordinary regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularProblemError

SVD_TRUNCATION = 1e-12


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
