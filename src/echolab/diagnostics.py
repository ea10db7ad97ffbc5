"""Dynamical verification of trained autonomous reservoirs.

Newton search for fixed points of the readout-fed map, analytic ESN
Jacobians, eigenvalues of the discretised drive linearisation, the
discrete-QR Lyapunov spectrum, and the principal-component variances of
state clouds.

Newton stops at a residual |psi(x) - x| below NEWTON_TOL, gives up
after NEWTON_MAX_ITER steps, and retries NEWTON_RETRIES times from
perturbed starts. The Lyapunov running means are recorded every
RECORD_EVERY steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .dynsys import WING_FIXED_POINT, LorenzParams, lorenz_jacobian
from .errors import (
    DegenerateJacobianError,
    NearNeutralFixedPointError,
    NewtonConvergenceError,
)
from .reservoir import ReservoirSpec, make_rng

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
NEWTON_RETRIES = 3
RECORD_EVERY = 100


@dataclass
class FixedPointResult:
    x_star: np.ndarray
    residual: float
    iterations: int
    jacobian_eigs: np.ndarray


def _newton_once(psi, jac, x0):
    x = np.asarray(x0, dtype=float).copy()
    eye = np.eye(x.shape[0])
    for it in range(1, NEWTON_MAX_ITER + 1):
        fx = psi(x)
        residual = float(np.linalg.norm(fx - x))
        if residual < NEWTON_TOL:
            return x, residual, it - 1
        J = jac(x)
        lhs = J - eye
        if abs(np.linalg.det(lhs)) < 1e-300:
            raise NearNeutralFixedPointError("J - I is singular at the iterate")
        delta = np.linalg.solve(lhs, -(fx - x))
        x = x + delta
    fx = psi(x)
    residual = float(np.linalg.norm(fx - x))
    if residual < NEWTON_TOL:
        return x, residual, NEWTON_MAX_ITER
    raise NewtonConvergenceError(residual, NEWTON_MAX_ITER)


def newton_fixed_point(
    psi: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> FixedPointResult:
    """Newton iteration x <- x - (J - I)^{-1} (psi(x) - x).

    Solves the linear system rather than forming the inverse. On
    failure, retries NEWTON_RETRIES times from starts perturbed by 0.01
    times a standard normal draw (seed 0) before raising; the returned
    result carries the eigenvalues of the Jacobian at the fixed point.
    """
    rng = make_rng(0)
    x0 = np.asarray(x0, dtype=float)
    last_error: Optional[Exception] = None
    for attempt in range(NEWTON_RETRIES + 1):
        start = x0 if attempt == 0 else x0 + 0.01 * rng.standard_normal(x0.shape)
        try:
            x, residual, iters = _newton_once(psi, jac, start)
            eigs = np.linalg.eigvals(jac(x))
            return FixedPointResult(
                x_star=x, residual=residual, iterations=iters, jacobian_eigs=eigs
            )
        except (NewtonConvergenceError, NearNeutralFixedPointError) as exc:
            last_error = exc
    raise last_error


def esn_jacobian(spec: ReservoirSpec, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Jacobian of the autonomous map psi(x) = sigma(Ax + C W^T x + b).

    For tanh this is diag(1 - tanh^2(pre)) (A + C W^T); the identity
    activation drops the diagonal factor.
    """
    w = np.asarray(w, dtype=float).reshape(spec.n, spec.d)
    x = np.asarray(x, dtype=float).reshape(spec.n)
    linear = spec.A + spec.C @ w.T
    if spec.activation == "identity":
        return linear
    return (1.0 - spec.step(x, w.T @ x) ** 2)[:, None] * linear


def lorenz_linearization_eigs(tau: float = 0.01) -> np.ndarray:
    """Eigenvalues of exp(J tau) at the wing equilibrium, exp(tau * eig J)."""
    jacobian = lorenz_jacobian(WING_FIXED_POINT, LorenzParams())
    return np.exp(tau * np.linalg.eigvals(jacobian))


@dataclass
class LyapunovResult:
    exponents: np.ndarray
    n_iterations: int
    running_means: np.ndarray  # rows (iteration, lambda_1, ..., lambda_k)


def lyapunov_qr(
    jacobians: Iterable[np.ndarray],
    tau: float = 1.0,
    reorth_every: int = 1,
) -> LyapunovResult:
    """Discrete-QR Lyapunov spectrum from the Jacobians along an orbit.

    `jacobians` yields the map's Jacobian at x_0, x_1, ... in orbit
    order (for Lorenz, `dynsys.lorenz_tangent_maps`); the dimension is
    taken from the first one. A frame Z, started at the identity, is
    propagated as Z <- J Z and re-factored with QR every `reorth_every`
    steps (Geist, Parlitz & Lauterborn, Prog. Theor. Phys. 83, 875,
    1990), and once more after the last step if a partial block
    remains; R diagonals are sign-normalised positive before the log.
    The accumulated means are divided by tau to give per-unit-time
    exponents, with running means recorded every RECORD_EVERY steps;
    `reorth_every` must divide RECORD_EVERY.

    Between two factorisations the columns of Z separate by about
    exp((lambda_1 - lambda_n) * reorth_every * tau), and the QR of Z
    loses the directions of the smaller exponents once that growth nears
    1/eps. reorth_every=1 is safe for any map and is the default; a
    larger interval is for maps whose spread is known to keep that
    factor small.
    """
    if reorth_every < 1 or RECORD_EVERY % reorth_every != 0:
        raise ValueError(f"reorth_every must divide {RECORD_EVERY}")
    Z = sums = None
    traces = []
    j = 0
    for j, J in enumerate(jacobians, start=1):
        if Z is None:
            Z = np.eye(J.shape[1])
            sums = np.zeros(J.shape[1])
        Z = J @ Z
        if j % reorth_every == 0:
            Z = _absorb_qr(Z, sums, j)
            if j % RECORD_EVERY == 0:
                traces.append(np.concatenate([[j], np.sort(sums / j / tau)[::-1]]))
    if j < 100:
        raise ValueError("need at least 100 Jacobians")
    if j % reorth_every:
        _absorb_qr(Z, sums, j)
    n = sums.shape[0]
    return LyapunovResult(
        exponents=np.sort(sums / j / tau)[::-1],
        n_iterations=j,
        running_means=np.array(traces) if traces else np.zeros((0, n + 1)),
    )


def _absorb_qr(Z: np.ndarray, sums: np.ndarray, j: int) -> np.ndarray:
    """Add log|diag R| of Z = QR to `sums` in place; return the signed Q."""
    Q, R = np.linalg.qr(Z)
    diag = np.diag(R).copy()
    if np.any(diag == 0.0) or not np.all(np.isfinite(diag)):
        raise DegenerateJacobianError(f"zero R diagonal at iteration {j}")
    sums += np.log(np.abs(diag))
    return Q * np.sign(diag)[None, :]


def explained_variances(samples: np.ndarray, k: int) -> np.ndarray:
    """Variances of the state cloud along its top-k principal directions.

    The squared leading singular values of the centred samples over
    (rows - 1); only the singular values are computed, not the
    directions.
    """
    if k > min(samples.shape):
        raise ValueError("k must not exceed the sample count or the state dimension")
    sv = np.linalg.svd(samples - samples.mean(axis=0), compute_uv=False)
    return sv[:k] ** 2 / max(samples.shape[0] - 1, 1)
