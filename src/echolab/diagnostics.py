"""Dynamical verification of trained autonomous reservoirs.

Newton search for fixed points of the readout-fed map, analytic ESN
Jacobians, eigenvalues of the discretised drive linearisation, the
discrete-QR Lyapunov spectrum, and PCA projection of state clouds.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .dynsys import TimeSeries, WING_FIXED_POINT, LorenzParams, csv_text, lorenz_jacobian
from .errors import (
    DegenerateJacobianError,
    NearNeutralFixedPointError,
    NewtonConvergenceError,
)
from .reservoir import ReservoirSpec, make_rng


@dataclass
class FixedPointResult:
    x_star: np.ndarray
    residual: float
    iterations: int
    jacobian_eigs: np.ndarray
    residual_history: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "x_star": self.x_star.tolist(),
                "residual": self.residual,
                "iterations": self.iterations,
                "jacobian_eigs_real": self.jacobian_eigs.real.tolist(),
                "jacobian_eigs_imag": self.jacobian_eigs.imag.tolist(),
            }
        )


def _newton_once(psi, jac, x0, tol, max_iter):
    x = np.asarray(x0, dtype=float).copy()
    history = []
    eye = np.eye(x.shape[0])
    for it in range(1, max_iter + 1):
        fx = psi(x)
        residual = float(np.linalg.norm(fx - x))
        history.append(residual)
        if residual < tol:
            return x, residual, it - 1, history
        J = jac(x)
        lhs = J - eye
        if abs(np.linalg.det(lhs)) < 1e-300:
            raise NearNeutralFixedPointError("J - I is singular at the iterate")
        delta = np.linalg.solve(lhs, -(fx - x))
        x = x + delta
    fx = psi(x)
    residual = float(np.linalg.norm(fx - x))
    history.append(residual)
    if residual < tol:
        return x, residual, max_iter, history
    raise NewtonConvergenceError(residual, max_iter)


def newton_fixed_point(
    psi: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100,
    n_retries: int = 3,
    retry_magnitude: float = 0.01,
    seed: int = 0,
) -> FixedPointResult:
    """Newton iteration x <- x - (J - I)^{-1} (psi(x) - x).

    Solves the linear system rather than forming the inverse. On
    failure, retries from a few slightly perturbed starts before
    raising; the returned result carries the eigenvalues of the
    Jacobian at the fixed point and the residual history.
    """
    rng = make_rng(seed)
    x0 = np.asarray(x0, dtype=float)
    last_error: Optional[Exception] = None
    for attempt in range(n_retries + 1):
        start = x0 if attempt == 0 else x0 + retry_magnitude * rng.standard_normal(x0.shape)
        try:
            x, residual, iters, history = _newton_once(psi, jac, start, tol, max_iter)
            eigs = np.linalg.eigvals(jac(x))
            return FixedPointResult(
                x_star=x,
                residual=residual,
                iterations=iters,
                jacobian_eigs=eigs,
                residual_history=np.array(history),
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
    pre = spec.A @ x + spec.C @ (w.T @ x) + spec.b
    return (1.0 - np.tanh(pre) ** 2)[:, None] * linear


def lorenz_wing_jacobian() -> np.ndarray:
    """Continuous-time Lorenz Jacobian at the wing equilibrium."""
    return lorenz_jacobian(WING_FIXED_POINT, LorenzParams())


def lorenz_linearization_eigs(
    m_star: Optional[np.ndarray] = None,
    tau: float = 0.01,
    jacobian: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eigenvalues of exp(J tau) at a Lorenz fixed point, exp(tau * eig J).

    Defaults to the wing equilibrium; a user-supplied continuous-time
    Jacobian overrides the analytic one.
    """
    if jacobian is None:
        point = WING_FIXED_POINT if m_star is None else np.asarray(m_star, dtype=float)
        jacobian = lorenz_jacobian(point, LorenzParams())
    return np.exp(tau * np.linalg.eigvals(jacobian))


@dataclass
class LyapunovResult:
    exponents: np.ndarray
    n_iterations: int
    running_means: np.ndarray  # rows (iteration, lambda_1, ..., lambda_k)

    def to_json(self) -> str:
        return json.dumps(
            {"exponents": self.exponents.tolist(), "n_iterations": self.n_iterations}
        )

    def trace_csv(self) -> str:
        k = self.exponents.shape[0]
        header = ["iter"] + [f"lambda_{i+1}" for i in range(k)]
        return csv_text(header, self.running_means.T)


def lyapunov_qr(
    jacobians: Iterable[np.ndarray],
    tau: float = 1.0,
    record_every: int = 100,
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
    exponents, with running means recorded every `record_every` steps,
    which must be a multiple of `reorth_every`.

    Between two factorisations the columns of Z separate by about
    exp((lambda_1 - lambda_n) * reorth_every * tau), and the QR of Z
    loses the directions of the smaller exponents once that growth nears
    1/eps. reorth_every=1 is safe for any map and is the default; a
    larger interval is for maps whose spread is known to keep that
    factor small.
    """
    if reorth_every < 1 or record_every % reorth_every != 0:
        raise ValueError("record_every must be a positive multiple of reorth_every")
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
            if j % record_every == 0:
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


@dataclass
class PcaResult:
    projected: TimeSeries
    components: np.ndarray  # (n, k) orthonormal columns
    explained_variance: np.ndarray
    mean: np.ndarray


def pca_project(states: TimeSeries, k: int) -> PcaResult:
    """Project centered states onto their top-k principal directions.

    Components are the leading right singular vectors of the centered
    state matrix. Asking for more components than the data's rank emits
    a warning and zero-pads the basis.
    """
    X = states.samples
    if k > X.shape[1]:
        raise ValueError("k must not exceed the state dimension")
    if k > X.shape[0]:
        raise ValueError("need at least k samples")
    mean = X.mean(axis=0)
    centered = X - mean
    U, sv, Vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(X.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    comps = Vt[:k].T.copy()
    if rank < k:
        warnings.warn(
            f"requested {k} components but data rank is {rank}; zero-padding",
            RuntimeWarning,
        )
        comps[:, rank:] = 0.0
    projected = centered @ comps
    var = (sv[:k] ** 2) / max(X.shape[0] - 1, 1)
    return PcaResult(
        projected=TimeSeries(
            step=states.step, samples=projected, origin_index=states.origin_index
        ),
        components=comps,
        explained_variance=var,
        mean=mean,
    )
