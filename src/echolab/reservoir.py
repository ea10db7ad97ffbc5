"""Reservoir construction and iteration.

Covers random ESN generation, the paired-block construction for
admissible stochastic inputs, driven and readout-fed autonomous
iteration, global and local state-contraction checks, the explicit
series form of the linear generalised synchronisation, the two
linear-independence predicates behind the embedding result, and a
system-isomorphism verifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .dynsys import TWO_PI, TimeSeries, iterate_map
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
        return self.apply_activation(self.A @ x + self.C @ np.atleast_1d(z) + self.b)

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "d": self.d,
            "activation": self.activation,
            "seed": self.seed,
            "a": self.A.flatten().tolist(),
            "c": self.C.flatten().tolist(),
            "b": self.b.tolist(),
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "ReservoirSpec":
        doc = json.loads(text)
        n, d = doc["n"], doc["d"]
        return ReservoirSpec(
            n=n,
            d=d,
            A=np.array(doc["a"]).reshape(n, n),
            C=np.array(doc["c"]).reshape(n, d),
            b=np.array(doc["b"]),
            activation=doc["activation"],
            seed=doc["seed"],
        )


Scheme = Tuple


@dataclass
class ReservoirGenConfig:
    """Recipe for a random reservoir.

    Schemes are tagged tuples:
      a_scheme: ('uniform_rescaled_2norm', target) | ('gaussian_erdos_renyi',
                mean_degree, spectral_radius) | ('lower_shift',) |
                ('explicit', matrix)
      c_scheme / b_scheme: ('uniform', lo, hi) | ('gaussian', sd) |
                ('unit_e1',) | ('zero',) | ('explicit', array)
    """

    n: int
    d: int
    a_scheme: Scheme
    c_scheme: Scheme
    b_scheme: Scheme
    seed: int = 0
    activation: str = "tanh"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so every draw is replayable bit-exactly."""
    return np.random.Generator(np.random.Philox(seed))


def spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def matrix_2norm(A: np.ndarray, n_iter: int = 1000, tol: float = 1e-10) -> float:
    """2-norm by power iteration on A^T A, with a dense fallback."""
    AtA = A.T @ A
    v = np.ones(A.shape[1]) / np.sqrt(A.shape[1])
    prev = 0.0
    for _ in range(n_iter):
        w = AtA @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - prev) <= tol * norm:
            return float(np.sqrt(norm))
        prev = norm
    return float(np.linalg.norm(A, 2))


def lower_shift_matrix(n: int) -> np.ndarray:
    A = np.zeros((n, n))
    A[np.arange(1, n), np.arange(n - 1)] = 1.0
    return A


def _draw_vector_scheme(scheme: Scheme, shape, rng: np.random.Generator) -> np.ndarray:
    tag = scheme[0]
    if tag == "uniform":
        _, lo, hi = scheme
        return rng.uniform(lo, hi, shape)
    if tag == "gaussian":
        return scheme[1] * rng.standard_normal(shape)
    if tag == "unit_e1":
        out = np.zeros(shape)
        out.flat[0] = 1.0
        return out
    if tag == "zero":
        return np.zeros(shape)
    if tag == "explicit":
        return np.asarray(scheme[1], dtype=float).reshape(shape)
    raise ValueError(f"unknown scheme {tag!r}")


def generate(config: ReservoirGenConfig) -> ReservoirSpec:
    """Draw a ReservoirSpec deterministically from the config seed.

    'uniform_rescaled_2norm' draws entries U[-1, 1] and rescales so the
    matrix 2-norm hits the target; 'gaussian_erdos_renyi' keeps each
    entry with probability mean_degree / n, fills survivors with unit
    Gaussians, and rescales to the target spectral radius.
    """
    rng = make_rng(config.seed)
    n = config.n
    tag = config.a_scheme[0]
    if tag == "uniform_rescaled_2norm":
        target = config.a_scheme[1]
        A = rng.uniform(-1.0, 1.0, (n, n))
        norm = matrix_2norm(A)
        if norm == 0.0:
            raise DegenerateMatrixError("zero matrix cannot be rescaled")
        A *= target / norm
    elif tag == "gaussian_erdos_renyi":
        _, mean_degree, target = config.a_scheme
        mask = rng.uniform(0.0, 1.0, (n, n)) < mean_degree / n
        A = np.where(mask, rng.standard_normal((n, n)), 0.0)
        rho = spectral_radius(A)
        if rho == 0.0:
            raise DegenerateMatrixError("zero spectral radius cannot be rescaled")
        A *= target / rho
    elif tag == "lower_shift":
        A = lower_shift_matrix(n)
    elif tag == "explicit":
        A = np.asarray(config.a_scheme[1], dtype=float)
    else:
        raise ValueError(f"unknown a_scheme {tag!r}")

    C = _draw_vector_scheme(config.c_scheme, (n, config.d), rng)
    b = _draw_vector_scheme(config.b_scheme, (n,), rng)
    return ReservoirSpec(
        n=n, d=config.d, A=A, C=C, b=b, activation=config.activation, seed=config.seed
    )


@dataclass
class GononConfig:
    """Inputs for the paired-block reservoir construction.

    n internal neurons, a length-(T0+1) input window, draw radius R for
    the random rows, input dim d, and the input bound M_T0 that sets
    the bias range.
    """

    n: int
    T0: int
    R: float
    d: int = 1
    M_T0: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.T0 < 1 or self.R <= 0:
            raise ValueError("require n, T0 >= 1 and R > 0")


def gonon_shift_blocks(d: int, T0: int) -> Tuple[np.ndarray, np.ndarray]:
    """Shift matrix S (nilpotent of index T0+1) and injection block c."""
    m = d * (T0 + 1)
    S = np.zeros((m, m))
    S[d:, : d * T0] = np.eye(d * T0)
    c = np.zeros((m, d))
    c[:d, :] = np.eye(d)
    return S, c


def build_gonon(config: GononConfig) -> ReservoirSpec:
    """Construct the 2(d(T0+1)+n)-dimensional paired-sign tanh reservoir.

    The upper-left block holds a delay line of the last T0+1 inputs
    feeding n random neurons; the full matrix repeats that block in the
    sign pattern [[B, -B], [-B, B]] so the pair of half-states stays
    antisymmetric under iteration.
    """
    d, T0, n = config.d, config.T0, config.n
    rng = make_rng(config.seed)
    m = d * (T0 + 1)
    # Uniform draws from the radius-R ball: scaled directions.
    directions = rng.standard_normal((n, m))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = config.R * rng.uniform(0.0, 1.0, n) ** (1.0 / m)
    a = directions * radii[:, None]
    bound = max(config.M_T0 * config.R, 1.0)
    biases = rng.uniform(-bound, bound, n)

    S, c = gonon_shift_blocks(d, T0)
    half = m + n
    A_bar = np.zeros((half, half))
    A_bar[:m, :m] = S
    A_bar[m:, :m] = a @ S
    C_bar = np.vstack([c, a @ c])
    b_bar = np.concatenate([np.zeros(m), biases])

    A = np.block([[A_bar, -A_bar], [-A_bar, A_bar]])
    C = np.vstack([C_bar, -C_bar])
    b = np.concatenate([b_bar, -b_bar])
    return ReservoirSpec(
        n=2 * half, d=d, A=A, C=C, b=b, activation="tanh", seed=config.seed
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
    return TimeSeries(
        step=input_series.step, samples=out, origin_index=input_series.origin_index
    )


def autonomous_map(spec: ReservoirSpec, w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The readout-fed map psi(x) = activation(A x + C (W^T x) + b)."""
    W = np.asarray(w, dtype=float).reshape(spec.n, spec.d)

    def psi(x: np.ndarray) -> np.ndarray:
        return spec.apply_activation(spec.A @ x + spec.C @ (W.T @ x) + spec.b)

    return psi


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
class ContractionResult:
    is_contracting: bool
    c: float


def check_global_contraction(spec: ReservoirSpec) -> ContractionResult:
    """Upper bound on the state-contraction factor.

    tanh and identity are 1-Lipschitz, so ||A||_2 bounds the Lipschitz
    constant of x -> F(x, z) uniformly in z.
    """
    c = matrix_2norm(spec.A)
    return ContractionResult(is_contracting=c < 1.0, c=c)


@dataclass
class LocalContractionResult:
    invariant: bool
    c_est: float
    n_escapes: int


def check_local_contraction(
    fmap: Union[ReservoirSpec, Callable[[np.ndarray, float], np.ndarray]],
    box: Tuple[np.ndarray, np.ndarray],
    input_range: Tuple[float, float],
    n_probes: int = 10_000,
    seed: int = 0,
) -> LocalContractionResult:
    """Monte-Carlo check of box invariance and pairwise contraction.

    Samples x, y in the box and z in the input range; records whether
    every image stays in the box and the largest observed ratio
    ||F(x,z) - F(y,z)|| / ||x - y||. A failed check is a false result,
    not an error.
    """
    if isinstance(fmap, ReservoirSpec):
        spec = fmap
        f = lambda x, z: spec.step(x, np.atleast_1d(z))
    else:
        f = fmap
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if np.any(hi < lo):
        raise ValueError("box is empty")
    rng = make_rng(seed)
    dim = lo.shape[0]
    c_est = 0.0
    escapes = 0
    for _ in range(n_probes):
        x = rng.uniform(lo, hi, dim)
        y = rng.uniform(lo, hi, dim)
        z = rng.uniform(input_range[0], input_range[1])
        fx, fy = f(x, z), f(y, z)
        for img in (fx, fy):
            if np.any(img < lo - 1e-12) or np.any(img > hi + 1e-12):
                escapes += 1
        dxy = np.linalg.norm(x - y)
        if dxy > 0:
            c_est = max(c_est, float(np.linalg.norm(fx - fy) / dxy))
    return LocalContractionResult(
        invariant=(escapes == 0) and c_est < 1.0, c_est=c_est, n_escapes=escapes
    )


@dataclass
class GsSeriesResult:
    value: np.ndarray
    tail_bound: float


def linear_gs_series(
    spec: ReservoirSpec,
    past_obs: Union[np.ndarray, Callable[[int], float]],
    truncation: int,
    sup_obs: Optional[float] = None,
) -> GsSeriesResult:
    """Truncated series sum_{k=0}^{K} A^k C w_k for a linear reservoir.

    `past_obs` supplies w_k = omega(phi^{-k}(m)) for k = 0..K, either
    as an array or a callable on k. Requires identity activation, zero
    bias, and spectral radius strictly below one; reports the geometric
    tail bound ||A||_2^(K+1) sup|omega| ||C|| / (1 - ||A||_2).
    """
    if spec.activation != "identity" or np.any(spec.b != 0.0):
        raise ValueError("series form requires identity activation and zero bias")
    if spectral_radius(spec.A) >= 1.0:
        raise SeriesDivergentError("spectral radius of A must be < 1")
    if callable(past_obs):
        obs = np.array([np.atleast_1d(past_obs(k)) for k in range(truncation + 1)], dtype=float)
    else:
        obs = np.atleast_2d(np.asarray(past_obs, dtype=float).reshape(truncation + 1, -1))
    value = np.zeros(spec.n)
    power_times_c = spec.C.copy()
    for k in range(truncation + 1):
        value = value + power_times_c @ obs[k]
        power_times_c = spec.A @ power_times_c
    norm_a = matrix_2norm(spec.A)
    sup = float(np.max(np.abs(obs))) if sup_obs is None else sup_obs
    if norm_a < 1.0:
        tail = norm_a ** (truncation + 1) * sup * matrix_2norm(spec.C) / (1.0 - norm_a)
    else:
        tail = float("inf")
    return GsSeriesResult(value=value, tail_bound=tail)


def circle_past_obs(
    epsilon: float, m: float, omega: Callable[[float], float], truncation: int
) -> np.ndarray:
    """Backward observations w_k = omega(m - k*epsilon) for a rotation."""
    ks = np.arange(truncation + 1)
    return np.array([omega(np.mod(m - k * epsilon, TWO_PI)) for k in ks])


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


def check_system_isomorphism(
    spec_a: ReservoirSpec,
    spec_b: ReservoirSpec,
    P: np.ndarray,
    input_series: TimeSeries,
    w: np.ndarray,
    x0_bar: Optional[np.ndarray] = None,
    burn_in: int = 0,
) -> float:
    """Max output deviation between similarity-related linear systems.

    System A uses readout h(x) = w^T x; system B uses h(P x_bar), the
    pullback of h through the similarity. Initial states are P-related
    (x0 = P x0_bar), so when A = P A_bar P^{-1} and C = P C_bar the two
    outputs agree up to roundoff; `burn_in` discards a transient for
    non-related starts.
    """
    for s in (spec_a, spec_b):
        if s.activation != "identity" or np.any(s.b != 0.0):
            raise ValueError("isomorphism check requires identity activation, zero bias")
    P = np.asarray(P, dtype=float)
    if abs(np.linalg.det(P)) < 1e-300:
        raise DegenerateMatrixError("P is singular")
    x0_bar = np.zeros(spec_b.n) if x0_bar is None else np.asarray(x0_bar, dtype=float)
    x0 = P @ x0_bar
    states_a = drive(spec_a, input_series, x0).samples
    states_b = drive(spec_b, input_series, x0_bar).samples
    w = np.asarray(w, dtype=float).reshape(spec_a.n)
    out_a = states_a @ w
    out_b = states_b @ (P.T @ w)
    return float(np.max(np.abs(out_a[burn_in:] - out_b[burn_in:])))
