"""Deterministic drive systems.

Lorenz integration with a classical fixed-step RK4 scheme, circle
rotations, and the scalar example reservoir x -> tanh(2x + z), whose two
stable branches show that generalised synchronisation need not be
unique. Every iteration returns a `TimeSeries`; an observation of one is
a slice or a ufunc of its `samples`.

The Lorenz kernel has two halves. Orbits (`integrate_lorenz`) run the
RK4 stages on plain Python floats in the same operation order as the
vectorised scheme, so their samples are bit-identical to stepping with
numpy 3-vectors at a fraction of the call overhead. Tangent maps are vectorised instead: `lorenz_rhs`,
`lorenz_jacobian` and `lorenz_step_jacobian` take one (3,) state or a
(k, 3) batch, and `lorenz_tangent_maps` streams the step Jacobians along
an orbit as (k, 3, 3) stacks of TANGENT_CHUNK states, so a Lyapunov run
of any length holds one stack in memory. TANGENT_CHUNK is a multiple of
the Lyapunov RECORD_EVERY, so the QR blocks of `diagnostics.lyapunov_qr`
never straddle two stacks.

Every map iteration (`example_drive` here, `drive` and
`autonomous_drive` in `reservoir`) runs through `iterate_map`, the one
iteration kernel: it allocates the state array once and the map writes
each new state into its row. Every iteration, the Lorenz orbit
included, shares one divergence policy: loops run to the end with
overflow warnings silenced, and `check_divergence` raises
IntegrationDivergedError at the first step whose state is non-finite or
beyond DIVERGENCE_THRESHOLD.

Every numeric CSV artifact is written by `csv_text`, one `.17g` value
per cell, so each float reads back to the same bits. A column that
repeats its values (at most half as many distinct values as rows, as the
`degree` and `death` columns of a persistence diagram or the grid
coordinates of `pde.grid_solution`) is formatted once per distinct bit
pattern and its rows reuse those strings; since equal bits format to
equal text, the bytes are the same as formatting every cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, IntegrationDivergedError

DIVERGENCE_THRESHOLD = 1e12

# States per batched Jacobian call and per stack in `lorenz_tangent_maps`;
# a multiple of diagnostics.RECORD_EVERY and so of every legal Lyapunov
# `reorth_every`, so no QR block straddles two stacks.
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


def csv_text(header: Sequence[str], columns: Sequence[Iterable]) -> str:
    """CSV text of equal-length columns, every value written as `.17g`.

    `.17g` reads every float64 back to the same bits, writes integral
    values as integers and infinities as `inf`. An empty header writes no
    header line. Rows end in a newline, the last one included.

    A column whose distinct values number at most half its rows is
    formatted once per distinct value, and its rows take those strings
    through the `np.unique` inverse index. Values are told apart by
    their bit pattern, so `-0.0` and `0.0` stay distinct and each string
    is the `.17g` text of exactly the values it stands for: the bytes are
    those of formatting every cell. Every other column is formatted cell
    by cell in the row template.
    """
    formats, values = [], []
    for column in columns:
        column = np.asarray(column)
        texts = _distinct_texts(column)
        if texts is None:
            formats.append("%.17g")
            values.append(column.tolist())
        else:
            formats.append("%s")
            values.append(texts)
    lines = [",".join(header)] if header else []
    row = ",".join(formats)
    lines += [row % cells for cells in zip(*values)]
    return "\n".join(lines) + "\n"


def _distinct_texts(column: np.ndarray) -> Optional[list]:
    """The `.17g` text of each entry of a 1-D column, formatted once per
    distinct bit pattern; None unless the column has at most half as
    many distinct values as rows (or holds no fixed-width numbers)."""
    if column.ndim != 1 or column.dtype.kind not in "biuf" or column.itemsize not in (1, 2, 4, 8):
        return None
    bits = column.view(f"u{column.itemsize}")
    distinct, inverse = np.unique(bits, return_inverse=True)
    if 2 * len(distinct) > len(column):
        return None
    texts = np.array(["%.17g" % v for v in distinct.view(column.dtype).tolist()], dtype=object)
    return texts[inverse].tolist()


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
) -> np.ndarray:
    """States x_0 = x0, x_{k+1} = f(x_k, z_k) over `inputs`, one per row.

    `fmap(x, z, out)` writes x_{k+1} into `out`, which is row k + 1 of
    the result; `x` is row k and must not be written. `inputs` must have
    a length; the result has len(inputs) + 1 rows of x0's size. The loop
    runs to the end with overflow warnings silenced, then
    `check_divergence` raises IntegrationDivergedError at the first step
    out of range.
    """
    out = np.empty((len(inputs) + 1, x0.shape[0]))
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


def example_drive(input_series: TimeSeries, x0: np.ndarray) -> TimeSeries:
    """Iterate the scalar example reservoir x_{k+1} = tanh(2 x_k + z_k).

    Returns the state sequence x_0, ..., x_n with n = len(input_series),
    from a one-entry state x0 and a scalar input series.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape[0] != 1:
        raise DimensionMismatchError(f"the example drive has a scalar state, got {x0.shape[0]}")
    if input_series.dim != 1:
        raise DimensionMismatchError("example drives take scalar input")
    states = iterate_map(
        lambda x, z, out: np.tanh(2.0 * x + z, out=out), x0, input_series.samples[:, 0].tolist()
    )
    return TimeSeries(step=input_series.step, samples=states)
