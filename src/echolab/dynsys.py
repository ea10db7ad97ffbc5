"""Deterministic drive systems.

Lorenz integration with a classical fixed-step RK4 scheme, circle
rotations, pointwise observation functions, and the small bespoke
reservoir maps used as worked examples elsewhere in the library
(a scalar tanh map, a signed-power contraction with trigonometric
forcing, and two polar-coordinate maps).

The Lorenz kernel has two halves. Orbits (`integrate_lorenz`,
`lorenz_step`) run the RK4 stages on plain Python floats in the same
operation order as the vectorised scheme, so their samples are
bit-identical to stepping with numpy 3-vectors at a fraction of the
call overhead. Tangent maps are vectorised instead: `lorenz_rhs`,
`lorenz_jacobian` and `lorenz_step_jacobian` take one (3,) state or a
(k, 3) batch, and `lorenz_tangent_maps` streams the step Jacobians along
an orbit in chunks of TANGENT_CHUNK states, so a Lyapunov run of any
length holds one chunk in memory.

Every map iteration (`example_drive` here, `drive` and
`autonomous_drive` in `reservoir`) runs through `iterate_map`, and every
iteration, the Lorenz orbit included, shares one divergence policy:
loops run to the end with overflow warnings silenced, and
`check_divergence` raises IntegrationDivergedError at the first step
whose state is non-finite or beyond DIVERGENCE_THRESHOLD.

Every numeric CSV artifact is written by `csv_text`, one `.17g` value
per cell, so each float reads back to the same bits.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, IntegrationDivergedError

DIVERGENCE_THRESHOLD = 1e12

# States per batched Jacobian call in `lorenz_tangent_maps`.
TANGENT_CHUNK = 1024

TWO_PI = 2.0 * np.pi


@dataclass
class TimeSeries:
    """Uniformly sampled d-dimensional real time series.

    Attributes:
        step: sampling interval in time units, strictly positive.
        samples: (n_samples, dim) float array, finite entries only.
        origin_index: time index of the first sample, so row k sits at
            time (origin_index + k) * step.
    """

    step: float
    samples: np.ndarray
    origin_index: int = 0

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def __len__(self) -> int:
        return self.samples.shape[0]

    def to_csv(self) -> str:
        """Serialize as `t,x0,...,x{d-1}` rows at full precision."""
        times = (self.origin_index + np.arange(len(self))) * self.step
        header = ["t"] + [f"x{i}" for i in range(self.dim)]
        return csv_text(header, [times, *self.samples.T])

    @staticmethod
    def from_csv(text: str) -> "TimeSeries":
        rows = list(csv.reader(io.StringIO(text)))
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        times, samples = data[:, 0], data[:, 1:]
        if len(times) > 1:
            step = times[1] - times[0]
        else:
            step = 1.0
        origin = int(round(times[0] / step)) if step != 0 else 0
        return TimeSeries(step=step, samples=samples, origin_index=origin)


@dataclass
class LorenzParams:
    """Lorenz system parameters, defaulting to the classical values."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    tau: float = 0.01
    initial: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 1.05]))

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        if self.tau <= 0:
            raise ValueError("tau must be positive")


# Wing equilibrium used by the fixed-point diagnostics.
WING_FIXED_POINT = np.array([6.0 * np.sqrt(2.0), 6.0 * np.sqrt(2.0), 27.0])


def lorenz_rhs(state: np.ndarray, params: LorenzParams) -> np.ndarray:
    """Lorenz vector field at a (3,) state or at each row of a (k, 3) batch."""
    x, y, z = np.asarray(state, dtype=float).T
    return np.stack(
        [
            params.sigma * (y - x),
            x * (params.rho - z) - y,
            x * y - params.beta * z,
        ],
        axis=-1,
    )


def lorenz_jacobian(state: np.ndarray, params: LorenzParams) -> np.ndarray:
    """Jacobian of the Lorenz vector field: (3, 3), or (k, 3, 3) for a batch."""
    x, y, z = np.asarray(state, dtype=float).T
    one = np.ones_like(x)
    sigma, beta = params.sigma * one, params.beta * one
    return np.stack(
        [
            np.stack([-sigma, sigma, 0.0 * one], axis=-1),
            np.stack([params.rho - z, -one, -x], axis=-1),
            np.stack([y, x, -beta], axis=-1),
        ],
        axis=-2,
    )


def _lorenz_orbit(params: LorenzParams, start: np.ndarray, n_steps: int) -> np.ndarray:
    """RK4 orbit from `start` as an (n_steps + 1, 3) array, unchecked.

    The stages run on Python floats in the operation order of the
    vectorised scheme (`state + 0.5 * h * k1`, ...,
    `state + h / 6 * (k1 + 2 k2 + 2 k3 + k4)`), so every sample is
    bit-identical to stepping with numpy 3-vectors, at a fraction of the
    per-step call overhead. Overflow yields inf/nan rows, never an
    exception; callers check the result with `check_divergence`.
    """
    sigma, rho, beta = float(params.sigma), float(params.rho), float(params.beta)
    h = float(params.tau)
    half, sixth = 0.5 * h, h / 6.0
    out = np.empty((n_steps + 1, 3))
    out[0] = start
    x, y, z = out[0].tolist()
    flat = memoryview(out.reshape(-1))
    for i in range(3, 3 * n_steps + 3, 3):
        a1 = sigma * (y - x)
        b1 = x * (rho - z) - y
        c1 = x * y - beta * z
        x2, y2, z2 = x + half * a1, y + half * b1, z + half * c1
        a2 = sigma * (y2 - x2)
        b2 = x2 * (rho - z2) - y2
        c2 = x2 * y2 - beta * z2
        x3, y3, z3 = x + half * a2, y + half * b2, z + half * c2
        a3 = sigma * (y3 - x3)
        b3 = x3 * (rho - z3) - y3
        c3 = x3 * y3 - beta * z3
        x4, y4, z4 = x + h * a3, y + h * b3, z + h * c3
        a4 = sigma * (y4 - x4)
        b4 = x4 * (rho - z4) - y4
        c4 = x4 * y4 - beta * z4
        x = x + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y = y + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        z = z + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        flat[i] = x
        flat[i + 1] = y
        flat[i + 2] = z
    return out


def lorenz_step(state: np.ndarray, params: LorenzParams) -> np.ndarray:
    """One RK4 step of the Lorenz flow over the sampling interval tau."""
    return _lorenz_orbit(params, state, 1)[1]


def lorenz_step_jacobian(state: np.ndarray, params: LorenzParams) -> np.ndarray:
    """Derivative of the discrete RK4 step map at a state or a batch of states.

    Propagates the variational equation through the same four stages as
    the state update, so the result is the exact Jacobian of
    `lorenz_step` rather than a finite-difference estimate. A (3,) state
    gives a (3, 3) matrix and a (k, 3) batch gives (k, 3, 3): the stage
    arithmetic is elementwise and the stage products are one batched
    matmul, so each matrix of a batch equals the one computed alone.
    """
    state = np.asarray(state, dtype=float)
    h = params.tau
    eye = np.eye(3)
    k1 = lorenz_rhs(state, params)
    d1 = lorenz_jacobian(state, params)
    s2 = state + 0.5 * h * k1
    k2 = lorenz_rhs(s2, params)
    d2 = lorenz_jacobian(s2, params) @ (eye + 0.5 * h * d1)
    s3 = state + 0.5 * h * k2
    k3 = lorenz_rhs(s3, params)
    d3 = lorenz_jacobian(s3, params) @ (eye + 0.5 * h * d2)
    s4 = state + h * k3
    d4 = lorenz_jacobian(s4, params) @ (eye + h * d3)
    return eye + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)


def csv_text(header: Sequence[str], columns: Sequence[Iterable]) -> str:
    """CSV text of equal-length columns, every value written as `.17g`.

    `.17g` reads every float64 back to the same bits, writes integral
    values as integers and infinities as `inf`. An empty header writes no
    header line. Rows end in a newline, the last one included.
    """
    lines = [",".join(header)] if header else []
    row = ",".join(["%.17g"] * len(columns))
    lines += [row % values for values in zip(*(np.asarray(c).tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def check_divergence(states: np.ndarray) -> None:
    """Raise IntegrationDivergedError at the first step that left the range.

    `states` holds one state per row, row k being the state after k
    steps; row 0 is the given start and is not checked. A row diverged
    if an entry is non-finite or exceeds DIVERGENCE_THRESHOLD in
    absolute value. Iterations run to the end under
    `np.errstate(over="ignore", invalid="ignore")` and call this once on
    the finished array, which reports the same step as a per-step check.
    """
    with np.errstate(invalid="ignore"):
        rest = states[1:]
        ok = (rest.max(axis=1) <= DIVERGENCE_THRESHOLD) & (
            rest.min(axis=1) >= -DIVERGENCE_THRESHOLD
        )
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise IntegrationDivergedError(int(bad[0]) + 1)


def iterate_map(
    fmap: Callable[[np.ndarray, object], np.ndarray], x0: np.ndarray, inputs: Iterable
) -> np.ndarray:
    """States x_0 = x0, x_{k+1} = fmap(x_k, z_k) over `inputs`, one per row.

    `inputs` must have a length; the result has len(inputs) + 1 rows of
    x0's size. The loop runs to the end with overflow warnings silenced,
    then `check_divergence` raises IntegrationDivergedError at the first
    step out of range.
    """
    out = np.empty((len(inputs) + 1, x0.shape[0]))
    out[0] = x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, z in enumerate(inputs, start=1):
            x = fmap(x, z)
            out[k] = x
    check_divergence(out)
    return out


def integrate_lorenz(params: LorenzParams, n_steps: int) -> TimeSeries:
    """Integrate the Lorenz system for n_steps fixed RK4 steps of size tau.

    Returns n_steps + 1 samples whose first row equals the initial
    condition. The loop runs on Python floats (see `_lorenz_orbit`) and
    gives the same bits as stepping with numpy 3-vectors. Raises
    IntegrationDivergedError (naming the step) if the state leaves the
    finite range.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    out = _lorenz_orbit(params, params.initial, n_steps)
    check_divergence(out)
    return TimeSeries(step=params.tau, samples=out)


def lorenz_tangent_maps(params: LorenzParams, n_steps: int) -> Iterator[np.ndarray]:
    """Step Jacobians along the orbit from params.initial, one per step.

    Yields the (3, 3) Jacobian of `lorenz_step` at x_0, ..., x_{n_steps-1},
    where x_k is the state after k steps. The orbit is integrated
    TANGENT_CHUNK states at a time, each chunk starting where the last
    one ended, and each chunk's Jacobians come from one batched
    `lorenz_step_jacobian` call, so memory stays O(TANGENT_CHUNK) for
    any n_steps.
    """
    start = params.initial
    remaining = n_steps
    while remaining > 0:
        k = min(TANGENT_CHUNK, remaining)
        orbit = integrate_lorenz(replace(params, initial=start), k).samples
        yield from lorenz_step_jacobian(orbit[:k], params)
        start = orbit[k]
        remaining -= k


def circle_rotation(epsilon: float, m0: float, n_steps: int) -> TimeSeries:
    """Rigid rotation m -> m + epsilon on the circle, angles reduced mod 2*pi."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    angles = np.mod(m0 + epsilon * np.arange(n_steps + 1), TWO_PI)
    return TimeSeries(step=1.0, samples=angles[:, None])


def circular_distance(a: float, b: float) -> float:
    """Shortest angular distance between two angles."""
    d = np.mod(a - b, TWO_PI)
    return float(np.minimum(d, TWO_PI - d))


@dataclass
class ObservationFn:
    """Pointwise observation applied to every sample of a series.

    kind: 'coord' selects component `index`; 'scaled_sin' maps a scalar
    sample m to amplitude * sin(m); 'custom' applies `fn` rowwise.
    """

    kind: str
    index: int = 0
    amplitude: float = 1.0
    fn: Optional[Callable[[np.ndarray], float]] = None

    def __call__(self, sample: np.ndarray) -> np.ndarray:
        if self.kind == "coord":
            return np.atleast_1d(sample[self.index])
        if self.kind == "scaled_sin":
            return np.atleast_1d(self.amplitude * np.sin(sample[0]))
        if self.kind == "custom":
            return np.atleast_1d(self.fn(sample))
        raise ValueError(f"unknown observation kind {self.kind!r}")


def observe(series: TimeSeries, fn: ObservationFn) -> TimeSeries:
    """Apply an observation function to every sample, preserving timing."""
    if fn.kind == "coord" and fn.index >= series.dim:
        raise DimensionMismatchError(
            f"coord index {fn.index} out of range for dim {series.dim}"
        )
    rows = [fn(s) for s in series.samples]
    return TimeSeries(
        step=series.step, samples=np.array(rows), origin_index=series.origin_index
    )


def _tanh2x_map(x: np.ndarray, z: float) -> np.ndarray:
    return np.tanh(2.0 * x + z)


def _signed_power_map(x: np.ndarray, z: float, alpha: float, lam: float, k: float) -> np.ndarray:
    base = np.sign(x) * np.abs(x) ** alpha
    forcing = lam * np.array([np.sin(k * z), np.cos(k * z), np.sin(k * z) ** 2])
    return base + forcing


def _polar_sqrt_map(x: np.ndarray, z: float, delta: float) -> np.ndarray:
    rho, theta = x
    return np.array([np.sqrt(rho) + z, theta + delta])


def _polar_square_map(x: np.ndarray, z: float, delta: float) -> np.ndarray:
    rho, theta = x
    return np.array([rho * rho + z, theta + delta])


EXAMPLE_DRIVE_DIMS = {
    "tanh2x": 1,
    "signed_power": 3,
    "polar_sqrt": 2,
    "polar_square": 2,
}


def example_drive_map(kind: str, **params) -> Callable[[np.ndarray, float], np.ndarray]:
    """Return the one-step reservoir map for a named example drive.

    Kinds: 'tanh2x' (scalar x -> tanh(2x + z)); 'signed_power'
    (componentwise sgn(x)|x|^alpha plus lam*(sin kz, cos kz, sin^2 kz));
    'polar_sqrt' ((rho, theta) -> (sqrt(rho) + z, theta + delta));
    'polar_square' ((rho, theta) -> (rho^2 + z, theta + delta)).
    """
    if kind == "tanh2x":
        return _tanh2x_map
    if kind == "signed_power":
        alpha = params.get("alpha", 0.9)
        lam = params.get("lam", 0.009)
        k = params.get("k", 0.1)
        return lambda x, z: _signed_power_map(x, z, alpha, lam, k)
    if kind == "polar_sqrt":
        delta = params.get("delta", 0.1)
        return lambda x, z: _polar_sqrt_map(x, z, delta)
    if kind == "polar_square":
        delta = params.get("delta", 0.1)
        return lambda x, z: _polar_square_map(x, z, delta)
    raise ValueError(f"unknown example drive kind {kind!r}")


def example_drive(kind: str, input_series: TimeSeries, x0: np.ndarray, **params) -> TimeSeries:
    """Iterate a named example reservoir map over a scalar input series.

    Returns the state sequence x_0, ..., x_n with n = len(input_series),
    where x_{k+1} = F(x_k, z_k). The polar maps treat the state as
    (radius, angle). Raises IntegrationDivergedError, naming the first
    step out of range, if the state leaves the finite range (expected
    for 'polar_square' started at radius > 2).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    expected = EXAMPLE_DRIVE_DIMS[kind] if kind in EXAMPLE_DRIVE_DIMS else None
    if expected is not None and x0.shape[0] != expected:
        raise DimensionMismatchError(
            f"{kind} expects a state of dim {expected}, got {x0.shape[0]}"
        )
    if input_series.dim != 1:
        raise DimensionMismatchError("example drives take scalar input")
    fmap = example_drive_map(kind, **params)
    states = iterate_map(fmap, x0, input_series.samples[:, 0].tolist())
    return TimeSeries(
        step=input_series.step, samples=states, origin_index=input_series.origin_index
    )
