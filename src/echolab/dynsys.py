"""Deterministic drive systems.

Lorenz integration with a classical fixed-step RK4 scheme and circle
rotations. Every iteration returns a `TimeSeries`; an observation of one
is a slice or a ufunc of its `samples`.

The Lorenz kernel has two halves. Orbits (`integrate_lorenz`) run the
RK4 stages on plain Python floats in the same operation order as the
vectorised scheme, so their samples are bit-identical to stepping with
numpy 3-vectors at a fraction of the call overhead. Tangent maps are vectorised instead: `lorenz_rhs`,
`lorenz_jacobian` and `lorenz_step_jacobian` take one (3,) state or a
(k, 3) batch, and `lorenz_tangent_maps` streams the step Jacobians along
an orbit as (k, 3, 3) stacks of TANGENT_CHUNK states, so a Lyapunov run
of any length holds one stack in memory.

Every map iteration (`drive` and `autonomous_drive` in `reservoir`) runs
through `iterate_map`, the one iteration kernel: it allocates the state
array once, or takes the caller's, and the map writes each new state
into its row. Every iteration, the Lorenz orbit included, shares one
divergence policy: loops run to the end with overflow warnings
silenced, and `check_divergence` raises IntegrationDivergedError at the
first step whose state is non-finite or beyond DIVERGENCE_THRESHOLD.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import DimensionMismatchError, IntegrationDivergedError

DIVERGENCE_THRESHOLD = 1e12

# States per batched Jacobian call and per stack in `lorenz_tangent_maps`:
# the memory a tangent stream holds at once, whatever its length.
TANGENT_CHUNK = 1000

TWO_PI = 2.0 * np.pi


@dataclass
class TimeSeries:
    """Uniformly sampled d-dimensional real time series.

    Attributes:
        step: sampling interval in time units, strictly positive.
        samples: (n_samples, dim) float array, finite entries only.
    """

    step: float
    samples: np.ndarray

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

# Largest Lyapunov exponent of the classical Lorenz system, per unit time
# (Sprott, Chaos and Time-Series Analysis, 2003); `lyapunov` reproduces it.
LORENZ_MAX_EXPONENT = 0.9056


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
    out = np.empty(np.shape(x) + (3, 3))
    out[..., 0, :] = -params.sigma, params.sigma, 0.0
    out[..., 1, 0] = params.rho - z
    out[..., 1, 1] = -1.0
    out[..., 1, 2] = -x
    out[..., 2, 0] = y
    out[..., 2, 1] = x
    out[..., 2, 2] = -params.beta
    return out


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


def lorenz_step_jacobian(state: np.ndarray, params: LorenzParams) -> np.ndarray:
    """Derivative of the discrete RK4 step map at a state or a batch of states.

    Propagates the variational equation through the same four stages as
    the state update, so the result is the exact Jacobian of one RK4
    step of size tau rather than a finite-difference estimate. A (3,) state
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
    fmap: Callable[[np.ndarray, object, np.ndarray], object],
    x0: np.ndarray,
    inputs: Iterable,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """States x_0 = x0, x_{k+1} = f(x_k, z_k) over `inputs`, one per row.

    `fmap(x, z, nxt)` writes x_{k+1} into `nxt`, which is row k + 1 of
    the result; `x` is row k and must not be written. `inputs` must have
    a length; the result has len(inputs) + 1 rows of x0's size. It is
    written into `out` when given, which is then returned: a float64
    array of exactly that shape whose rows are contiguous (unit column
    stride), such as the leading columns of a wider array; otherwise
    DimensionMismatchError is raised before any step. The loop runs to
    the end with overflow warnings silenced, then `check_divergence`
    raises IntegrationDivergedError at the first step out of range.
    """
    shape = (len(inputs) + 1, x0.shape[0])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or out.strides[1] != out.itemsize:
        raise DimensionMismatchError(
            f"out must be a float64 array of shape {shape} with contiguous rows"
        )
    out[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for x, z, nxt in zip(out, inputs, out[1:]):
            fmap(x, z, nxt)
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
    """Step Jacobians along the orbit from params.initial, in stacks.

    Yields (k, 3, 3) arrays that together hold the Jacobian of the RK4
    step map at x_0, ..., x_{n_steps-1} in order, where x_k is the state
    after k steps. The orbit is integrated TANGENT_CHUNK states at a
    time, each chunk starting where the last one ended, and each chunk's
    Jacobians are one batched `lorenz_step_jacobian` call yielded as one
    stack, so memory stays O(TANGENT_CHUNK) for any n_steps. Every stack
    but the last holds TANGENT_CHUNK Jacobians.
    """
    start = params.initial
    remaining = n_steps
    while remaining > 0:
        k = min(TANGENT_CHUNK, remaining)
        orbit = integrate_lorenz(replace(params, initial=start), k).samples
        yield lorenz_step_jacobian(orbit[:k], params)
        start = orbit[k]
        remaining -= k


def circle_rotation(epsilon: float, m0: float, n_steps: int) -> TimeSeries:
    """Rigid rotation m -> m + epsilon on the circle, angles reduced mod 2*pi."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    angles = np.mod(m0 + epsilon * np.arange(n_steps + 1), TWO_PI)
    return TimeSeries(step=1.0, samples=angles[:, None])
