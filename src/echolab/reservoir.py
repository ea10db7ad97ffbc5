"""Reservoir construction and iteration.

Covers random ESN generation (one recipe: uniform A rescaled to a target
2-norm, uniform C and b), driven and readout-fed autonomous iteration,
the explicit series form of the linear generalised synchronisation, and
the two linear-independence predicates behind the embedding result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynsys import TimeSeries, iterate_map
from .errors import (
    DegenerateMatrixError,
    DimensionMismatchError,
    SeriesDivergentError,
    SpectrumCollisionError,
)

RANK_TOLERANCE = 1e-10


@dataclass
class ReservoirSpec:
    """A fixed reservoir: state map x -> activation(A x + C z + b).

    activation is 'tanh' or 'identity'; seed records provenance only.
    """

    n: int
    d: int
    A: np.ndarray
    C: np.ndarray
    b: np.ndarray
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.C = np.asarray(self.C, dtype=float).reshape(self.n, self.d)
        self.b = np.asarray(self.b, dtype=float).reshape(self.n)
        if self.A.shape != (self.n, self.n):
            raise DimensionMismatchError("A must be n x n")
        if self.activation not in ("tanh", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        for arr in (self.A, self.C, self.b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("reservoir entries must be finite")

    def apply_activation(self, pre: np.ndarray) -> np.ndarray:
        return np.tanh(pre) if self.activation == "tanh" else pre

    def step(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.apply_activation(self.A @ x + self.C @ z + self.b)


@dataclass
class ReservoirGenConfig:
    """Recipe for a random reservoir.

    A has entries U[-1, 1] rescaled to matrix 2-norm `a_norm`; C (n x d)
    and b have entries U[-c_scale, c_scale] and U[-b_scale, b_scale].
    `activation` is 'tanh' or 'identity' (the linear reservoir).
    """

    n: int
    d: int
    a_norm: float
    c_scale: float
    b_scale: float
    seed: int = 0
    activation: str = "tanh"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so every draw is replayable bit-exactly."""
    return np.random.Generator(np.random.Philox(seed))


def spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def matrix_2norm(A: np.ndarray) -> float:
    """2-norm by power iteration on A^T A, with a dense fallback.

    Stops once the estimate of ||A||_2^2 moves by at most 1e-10
    relative, or after 1000 iterations falls back to the dense norm.
    """
    AtA = A.T @ A
    v = np.ones(A.shape[1]) / np.sqrt(A.shape[1])
    prev = 0.0
    for _ in range(1000):
        w = AtA @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - prev) <= 1e-10 * norm:
            return float(np.sqrt(norm))
        prev = norm
    return float(np.linalg.norm(A, 2))


def generate(config: ReservoirGenConfig) -> ReservoirSpec:
    """Draw a ReservoirSpec deterministically from the config seed.

    A, then C, then b come from one generator, in that order.
    """
    rng = make_rng(config.seed)
    n = config.n
    A = rng.uniform(-1.0, 1.0, (n, n))
    norm = matrix_2norm(A)
    if norm == 0.0:
        raise DegenerateMatrixError("zero matrix cannot be rescaled")
    A *= config.a_norm / norm
    C = rng.uniform(-config.c_scale, config.c_scale, (n, config.d))
    b = rng.uniform(-config.b_scale, config.b_scale, n)
    return ReservoirSpec(
        n=n, d=config.d, A=A, C=C, b=b, activation=config.activation, seed=config.seed
    )


def drive(spec: ReservoirSpec, input_series: TimeSeries, x0: np.ndarray) -> TimeSeries:
    """Iterate x_{k+1} = activation(A x_k + C z_k + b) over the inputs.

    Output has len(input) + 1 samples and starts at x0. Raises
    IntegrationDivergedError (naming the step) if the state leaves the
    finite range, as an unstable identity reservoir does.
    """
    if input_series.dim != spec.d:
        raise DimensionMismatchError(
            f"input dim {input_series.dim} != reservoir input dim {spec.d}"
        )
    x0 = np.asarray(x0, dtype=float).reshape(spec.n)
    out = iterate_map(spec.step, x0, input_series.samples)
    return TimeSeries(step=input_series.step, samples=out)


def autonomous_map(spec: ReservoirSpec, w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The readout-fed map psi(x) = activation(A x + C (W^T x) + b)."""
    W = np.asarray(w, dtype=float).reshape(spec.n, spec.d)
    return lambda x: spec.step(x, W.T @ x)


def autonomous_drive(
    spec: ReservoirSpec, w: np.ndarray, x0: np.ndarray, n_steps: int
) -> TimeSeries:
    """Run the autonomous phase for n_steps.

    Raises IntegrationDivergedError, naming the first step out of range,
    if the state leaves the finite range.
    """
    psi = autonomous_map(spec, w)
    x0 = np.asarray(x0, dtype=float).reshape(spec.n)
    out = iterate_map(lambda x, _: psi(x), x0, range(n_steps))
    return TimeSeries(step=1.0, samples=out)


@dataclass
class GsSeriesResult:
    value: np.ndarray
    tail_bound: float


def linear_gs_series(
    spec: ReservoirSpec,
    past_obs: np.ndarray,
    truncation: int,
) -> GsSeriesResult:
    """Truncated series sum_{k=0}^{K} A^k C w_k for a linear reservoir.

    `past_obs` holds w_k = omega(phi^{-k}(m)) for k = 0..K, one row
    each. Requires identity activation, zero bias, and spectral radius
    strictly below one; reports the geometric tail bound
    ||A||_2^(K+1) sup|omega| ||C|| / (1 - ||A||_2), with sup|omega| taken
    over the supplied observations.
    """
    if spec.activation != "identity" or np.any(spec.b != 0.0):
        raise ValueError("series form requires identity activation and zero bias")
    if spectral_radius(spec.A) >= 1.0:
        raise SeriesDivergentError("spectral radius of A must be < 1")
    obs = np.atleast_2d(np.asarray(past_obs, dtype=float).reshape(truncation + 1, -1))
    value = np.zeros(spec.n)
    power_times_c = spec.C.copy()
    for k in range(truncation + 1):
        value = value + power_times_c @ obs[k]
        power_times_c = spec.A @ power_times_c
    norm_a = matrix_2norm(spec.A)
    sup = float(np.max(np.abs(obs)))
    if norm_a < 1.0:
        tail = norm_a ** (truncation + 1) * sup * matrix_2norm(spec.C) / (1.0 - norm_a)
    else:
        tail = float("inf")
    return GsSeriesResult(value=value, tail_bound=tail)


def trajectory_past_obs(series: TimeSeries, index: int, truncation: int) -> np.ndarray:
    """Backward window of a stored trajectory, treated as two-sided.

    Requires index >= truncation so k steps of history exist; intended
    for post-burn-in indices where the stored orbit approximates a
    bi-infinite one.
    """
    if index < truncation:
        raise ValueError("need at least `truncation` samples of history")
    rows = series.samples[index - truncation : index + 1]
    return rows[::-1].copy()


def _matrix_rank(M: np.ndarray) -> int:
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOLERANCE * sv[0]))


def krylov_matrix(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    cols = [C.reshape(n)]
    for _ in range(n - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def check_condition_D(A: np.ndarray, C: np.ndarray) -> bool:
    """True iff {C, AC, ..., A^(N-1) C} spans R^N.

    Rank uses the shared tolerance: singular values below 1e-10 times
    the largest count as zero.
    """
    return _matrix_rank(krylov_matrix(A, C)) == A.shape[0]


def check_condition_C(
    A: np.ndarray,
    C: np.ndarray,
    eigenvalues: Sequence[complex],
    period: int,
) -> bool:
    """Linear independence of the resolvent-transformed input directions.

    Builds (I - lambda_j A^n)^{-1} (I - A)^{-1} (I - A^n) C for each
    eigenvalue and checks that the collection has full column rank.
    Implements the (I - A^n) factor from the supporting lemma rather
    than the (I - A)^n appearing in the theorem display.
    """
    n_dim = A.shape[0]
    eigs_a = np.linalg.eigvals(A)
    eye = np.eye(n_dim)
    a_pow = np.linalg.matrix_power(A, period)
    rho_a_pow = float(np.max(np.abs(np.linalg.eigvals(a_pow))))
    if np.min(np.abs(eigs_a - 1.0)) < 1e-12:
        raise SpectrumCollisionError("1 is in the spectrum of A")
    base = np.linalg.solve(eye - A, (eye - a_pow) @ C.reshape(n_dim))
    vecs = []
    for lam in eigenvalues:
        if abs(lam) * rho_a_pow >= 1.0:
            raise SpectrumCollisionError(
                f"rho(lambda A^n) = {abs(lam) * rho_a_pow:.3f} >= 1"
            )
        M = np.eye(n_dim, dtype=complex) - lam * a_pow
        try:
            vecs.append(np.linalg.solve(M, base.astype(complex)))
        except np.linalg.LinAlgError as exc:
            raise SpectrumCollisionError(str(exc)) from exc
    stacked = np.column_stack(vecs)
    return _matrix_rank(stacked) == len(eigenvalues)

