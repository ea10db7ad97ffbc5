"""Reservoir construction and iteration.

Covers random ESN generation (one recipe: uniform A rescaled to a target
2-norm, uniform C and b), driven and readout-fed autonomous iteration, and
the two linear-independence predicates behind the embedding result.
The scalar example x -> tanh(2x + z), whose two stable branches show
that generalised synchronisation need not be unique, is the ESN with
A = 2, C = 1 and b = 0, driven like any other.

`spectral_radius` and the predicates `check_condition_D` and
`check_condition_C` also take stacks: A (..., N, N), C (..., N) and
eigenvalues (..., k) give one result per member, each member checked by
the same LAPACK routine a single matrix gets, so a batch of trials is
one call. A single matrix still gives a plain float or bool.
`check_condition_C` takes rho(A^n) as rho(A)^n, from the eigenvalues of
A it already has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .dynsys import TimeSeries, iterate_map
from .errors import (
    DegenerateMatrixError,
    DimensionMismatchError,
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

    def advance(self, x: np.ndarray, input_term: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write activation((A x + input_term) + b) into `out` and return it.

        `input_term` is C z. The sums run in that order, so `out` holds
        the bits of `activation(A @ x + C @ z + b)`; `out` must not
        share memory with x.
        """
        np.matmul(self.A, x, out=out)
        out += input_term
        out += self.b
        if self.activation == "tanh":
            np.tanh(out, out=out)
        return out

    def step(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.advance(x, self.C @ z, np.empty(self.n))


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


def spectral_radius(A: np.ndarray) -> Union[float, np.ndarray]:
    """Largest eigenvalue modulus of A (N, N), or of each member of a
    (..., N, N) stack."""
    rho = np.max(np.abs(np.linalg.eigvals(A)), axis=-1)
    return float(rho) if rho.ndim == 0 else rho


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

    Output has len(input) + 1 samples and starts at x0. The input terms
    C z_k come from one product over the whole series; for scalar input
    each is a single multiplication, so the states carry the bits of
    `ReservoirSpec.step`. Raises IntegrationDivergedError (naming the
    step) if the state leaves the finite range, as an unstable identity
    reservoir does.
    """
    if input_series.dim != spec.d:
        raise DimensionMismatchError(
            f"input dim {input_series.dim} != reservoir input dim {spec.d}"
        )
    x0 = np.asarray(x0, dtype=float).reshape(spec.n)
    out = iterate_map(spec.advance, x0, input_series.samples @ spec.C.T)
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
    W = np.asarray(w, dtype=float).reshape(spec.n, spec.d)
    x0 = np.asarray(x0, dtype=float).reshape(spec.n)
    out = iterate_map(
        lambda x, _, nxt: spec.advance(x, spec.C @ (W.T @ x), nxt), x0, range(n_steps)
    )
    return TimeSeries(step=1.0, samples=out)


def _per_member(result: np.ndarray) -> Union[bool, np.ndarray]:
    """A plain bool for a single matrix, the bool array of a stack."""
    return bool(result) if result.ndim == 0 else result


def _matrix_rank(M: np.ndarray) -> np.ndarray:
    """Rank of M, or of each member of a (..., rows, cols) stack.

    Singular values at or below RANK_TOLERANCE times the largest count
    as zero.
    """
    sv = np.linalg.svd(M, compute_uv=False)
    return np.sum(sv > RANK_TOLERANCE * sv[..., :1], axis=-1)


def krylov_matrix(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Columns C, AC, ..., A^(N-1) C for A (..., N, N) and C (..., N)."""
    A = np.asarray(A, dtype=float)
    cols = [np.asarray(C, dtype=float).reshape(A.shape[:-1])]
    for _ in range(A.shape[-1] - 1):
        cols.append((A @ cols[-1][..., None])[..., 0])
    return np.stack(cols, axis=-1)


def check_condition_D(A: np.ndarray, C: np.ndarray) -> Union[bool, np.ndarray]:
    """True iff {C, AC, ..., A^(N-1) C} spans R^N.

    A is (N, N) and C holds N entries, or A is a (..., N, N) stack and C
    a (..., N) stack, which gives one bool per member. Rank uses the
    shared tolerance: singular values below 1e-10 times the largest
    count as zero.
    """
    A = np.asarray(A, dtype=float)
    return _per_member(_matrix_rank(krylov_matrix(A, C)) == A.shape[-1])


def _in_member(index: np.ndarray, message: str) -> str:
    """`message` prefixed with the stack index it concerns, if any."""
    if len(index) == 0:
        return message
    member = int(index[0]) if len(index) == 1 else tuple(int(i) for i in index)
    return f"member {member}: {message}"


def check_condition_C(
    A: np.ndarray,
    C: np.ndarray,
    eigenvalues: Sequence[complex],
    period: int,
) -> Union[bool, np.ndarray]:
    """Linear independence of the resolvent-transformed input directions.

    Builds (I - lambda_j A^n)^{-1} (I - A)^{-1} (I - A^n) C for each
    eigenvalue and checks that the collection has full column rank.
    Implements the (I - A^n) factor from the supporting lemma rather
    than the (I - A)^n appearing in the theorem display.

    A is (N, N), C holds N entries and `eigenvalues` k values; or A is
    a (..., N, N) stack with C (..., N) and eigenvalues (..., k), which
    gives one bool per member. rho(A^n) is taken as rho(A)^n from the
    eigenvalues of A. Raises SpectrumCollisionError, naming the first
    offending member of a stack, if 1 is an eigenvalue of A or some
    |lambda_j| rho(A^n) >= 1.
    """
    A = np.asarray(A, dtype=float)
    n_dim = A.shape[-1]
    lams = np.asarray(eigenvalues)
    eigs_a = np.linalg.eigvals(A)
    on_one = np.min(np.abs(eigs_a - 1.0), axis=-1) < 1e-12
    if np.any(on_one):
        raise SpectrumCollisionError(
            _in_member(np.argwhere(on_one)[0], "1 is in the spectrum of A")
        )
    rho_a_pow = np.max(np.abs(eigs_a), axis=-1)[..., None] ** period
    growth = np.abs(lams) * rho_a_pow
    if np.any(growth >= 1.0):
        first = np.argwhere(growth >= 1.0)[0]
        raise SpectrumCollisionError(
            _in_member(first[:-1], f"rho(lambda A^n) = {growth[tuple(first)]:.3f} >= 1")
        )
    eye = np.eye(n_dim)
    a_pow = np.linalg.matrix_power(A, period)
    c = np.asarray(C, dtype=float).reshape(A.shape[:-1] + (1,))
    base = np.linalg.solve(eye - A, (eye - a_pow) @ c)
    # One system I - lambda_j A^n per eigenvalue: (..., k, N, N).
    M = np.eye(n_dim, dtype=complex) - lams[..., None, None] * a_pow[..., None, :, :]
    try:
        vecs = np.linalg.solve(M, base[..., None, :, :].astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SpectrumCollisionError(str(exc)) from exc
    stacked = vecs[..., 0].swapaxes(-1, -2)
    return _per_member(_matrix_rank(stacked) == lams.shape[-1])
