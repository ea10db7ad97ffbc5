"""Dynamical verification of trained autonomous reservoirs.

Newton search for fixed points of the readout-fed map, analytic ESN
Jacobians, eigenvalues of the discretised drive linearisation, the
discrete-QR Lyapunov spectrum, and the principal-component variances of
state clouds.

Newton stops at a residual |psi(x) - x| below NEWTON_TOL, gives up
after NEWTON_MAX_ITER steps, and retries NEWTON_RETRIES times from
perturbed starts. The Lyapunov running means are recorded every
RECORD_EVERY steps, and a Lorenz tangent frame is re-factored each time
its columns may have spread by up to REORTH_GROWTH_BOUND. The
principal-component variances take a Rayleigh-Ritz step on the top
k + PCA_OVERSAMPLE eigenvectors of the state cloud's Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, hypot, inf, log
from operator import mul
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .dynsys import LORENZ_MAX_EXPONENT, WING_FIXED_POINT, LorenzParams, lorenz_jacobian
from .errors import (
    DegenerateJacobianError,
    NearNeutralFixedPointError,
    NewtonConvergenceError,
)
from .reservoir import ReservoirSpec, autonomous_map, make_rng

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
NEWTON_RETRIES = 3
RECORD_EVERY = 100
# Largest spread exp((lambda_1 - lambda_d) * m * tau) the columns of a
# Lyapunov frame may reach between two QR factorisations. Up to 4e3 the
# Lorenz exponents match one QR per step to 6e-12 and the running means
# to 7e-11 over 20k steps (intervals 4 to 50, two or three orbit starts);
# at 1e4 the running means are off by 5e-10.
REORTH_GROWTH_BOUND = 4e3
# lambda_1 - lambda_3 of the classical Lorenz system: lambda_2 = 0 and the
# exponents sum to the trace -(sigma + 1 + beta), so the spread is
# 2 * LORENZ_MAX_EXPONENT + sigma + 1 + beta, about 15.48.
LORENZ_EXPONENT_SPREAD = (
    2.0 * LORENZ_MAX_EXPONENT + LorenzParams().sigma + 1.0 + LorenzParams().beta
)
# Trial directions beyond k in explained_variances' Rayleigh-Ritz step.
# The top-k Ritz values then lean on the gap after eigenvalue
# k + PCA_OVERSAMPLE of the Gram matrix, not on the gap right after the k-th.
PCA_OVERSAMPLE = 8


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
        try:
            delta = np.linalg.solve(jac(x) - eye, -(fx - x))
        except np.linalg.LinAlgError as exc:
            raise NearNeutralFixedPointError("J - I is singular at the iterate") from exc
        if not np.all(np.isfinite(delta)):
            raise NearNeutralFixedPointError("Newton step is not finite")
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

    Solves the linear system rather than forming the inverse; a
    singular J - I (the solve's LinAlgError) or a non-finite step raises
    NearNeutralFixedPointError. On failure, retries NEWTON_RETRIES times
    from starts perturbed by 0.01 times a standard normal draw (seed 0)
    before raising; the returned result carries the eigenvalues of the
    Jacobian at the fixed point.
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
    linear = spec.A + spec.C @ np.asarray(w, dtype=float).reshape(spec.n, spec.d).T
    if spec.activation == "identity":
        return linear
    x = np.asarray(x, dtype=float).reshape(spec.n)
    return (1.0 - autonomous_map(spec, w)(x) ** 2)[:, None] * linear


def lorenz_linearization_eigs(tau: float = 0.01) -> np.ndarray:
    """Eigenvalues of exp(J tau) at the wing equilibrium, exp(tau * eig J)."""
    jacobian = lorenz_jacobian(WING_FIXED_POINT, LorenzParams())
    return np.exp(tau * np.linalg.eigvals(jacobian))


@dataclass
class LyapunovResult:
    exponents: np.ndarray
    n_iterations: int
    running_means: np.ndarray  # rows (iteration, lambda_1, ..., lambda_k)

    @property
    def running_mean_drift(self) -> Optional[float]:
        """Largest change of any running mean over the last tenth of the trace.

        The final row against the row a tenth of the rows (at least one)
        before it; None for a trace of fewer than two rows.
        """
        rows = self.running_means.shape[0]
        if rows < 2:
            return None
        before = self.running_means[rows - 1 - max(1, rows // 10), 1:]
        return float(np.max(np.abs(self.running_means[-1, 1:] - before)))


def lyapunov_qr(
    jacobian_stacks: Iterable[np.ndarray],
    tau: float = 1.0,
    reorth_every: int = 1,
) -> LyapunovResult:
    """Discrete-QR Lyapunov spectrum from the Jacobians along an orbit.

    `jacobian_stacks` yields (k, d, d) arrays holding the map's Jacobians
    at x_0, x_1, ... in orbit order (for Lorenz,
    `dynsys.lorenz_tangent_maps`); a 2-D item raises ValueError. A
    frame Z, started at the identity, is propagated as Z <- J Z and
    re-factored with QR every `reorth_every` steps (Geist, Parlitz &
    Lauterborn, Prog. Theor. Phys. 83, 875, 1990), and once more after
    the last step if a partial block remains; the R diagonals are
    positive. The accumulated means are divided by tau to give
    per-unit-time exponents, with running means recorded every
    RECORD_EVERY steps; `reorth_every` must divide RECORD_EVERY.

    Blocks of `reorth_every` Jacobians are aligned to the global step
    index, a partial block at the end of a stack being carried into the
    next one, so how the sequence is split into stacks does not change
    a bit of the result. Each block's product J_{m-1} ... J_0 comes from
    m - 1 batched matmuls over the stack; the sequential part is one
    product with Z and one QR per block, done on Python floats by
    Gram-Schmidt twice (`_gram_schmidt`).

    Between two factorisations the columns of Z separate by about
    exp((lambda_1 - lambda_d) * reorth_every * tau). The second
    Gram-Schmidt pass keeps Q orthonormal to working precision however
    ill-conditioned Z is, but the small R diagonals lose relative
    accuracy as that growth nears 1/eps (Dieci, Russell & Van Vleck,
    SIAM J. Numer. Anal. 34, 402, 1997). reorth_every=1 is safe for any
    map and is the default. For Lorenz, `lorenz_reorth_interval(tau)`
    gives the longest interval whose growth stays within
    REORTH_GROWTH_BOUND: 50 steps at tau = 0.01, where the exponents
    match one QR per step to 2.4e-13 over 20k steps, and to 6e-12 where
    the growth nears the bound.
    """
    if reorth_every < 1 or RECORD_EVERY % reorth_every != 0:
        raise ValueError(f"reorth_every must divide {RECORD_EVERY}")
    frame = sums = carry = None
    traces = []
    j = 0
    for stack in jacobian_stacks:
        stack = np.asarray(stack, dtype=float)
        if stack.ndim != 3:
            raise ValueError("jacobian_stacks must yield (k, d, d) arrays")
        if frame is None:
            frame = np.eye(stack.shape[1]).tolist()
            sums = [0.0] * stack.shape[1]
        elif carry.shape[0]:
            stack = np.concatenate([carry, stack])
        cut = stack.shape[0] - stack.shape[0] % reorth_every
        carry = stack[cut:]
        for product in _block_products(stack[:cut], reorth_every).tolist():
            j += reorth_every
            frame = _absorb_block(product, frame, sums, j)
            if j % RECORD_EVERY == 0:
                traces.append([j] + sorted((s / j / tau for s in sums), reverse=True))
    if frame is None or j + carry.shape[0] < 100:
        raise ValueError("need at least 100 Jacobians")
    if carry.shape[0]:
        j += carry.shape[0]
        _absorb_block(_block_products(carry, carry.shape[0])[0].tolist(), frame, sums, j)
    return LyapunovResult(
        exponents=np.sort(np.array(sums) / j / tau)[::-1],
        n_iterations=j,
        running_means=np.array(traces) if traces else np.zeros((0, len(sums) + 1)),
    )


def lorenz_reorth_interval(tau: float) -> Tuple[int, float]:
    """(m, growth): the largest divisor m of RECORD_EVERY whose growth
    exp(LORENZ_EXPONENT_SPREAD * m * tau) is at most REORTH_GROWTH_BOUND,
    or 1 if no divisor passes.

    m is 100 at tau = 0.001, 50 at 0.01, 10 at 0.05, 5 at 0.1, and 1 from
    tau of about 0.27 on; from about 0.54 on even one step exceeds the
    bound.
    """
    longest = log(REORTH_GROWTH_BOUND) / (LORENZ_EXPONENT_SPREAD * tau)
    divisors = (m for m in range(1, RECORD_EVERY + 1) if RECORD_EVERY % m == 0)
    m = max((m for m in divisors if m <= longest), default=1)
    return m, exp(LORENZ_EXPONENT_SPREAD * m * tau)


def _block_products(stack: np.ndarray, m: int) -> np.ndarray:
    """Products J_{m-1} ... J_0 of each block of m consecutive Jacobians."""
    blocks = stack.reshape(-1, m, *stack.shape[1:])
    product = blocks[:, 0]
    for i in range(1, m):
        product = blocks[:, i] @ product
    return product


def _absorb_block(product: list, frame: list, sums: list, j: int) -> list:
    """Factor product @ frame = QR, add log diag R to `sums`; return Q.

    `product` is a list of rows and `frame` a list of columns, both of
    Python floats; Q is returned as a list of columns.
    """
    factors = _gram_schmidt([[sum(map(mul, row, col)) for row in product] for col in frame])
    if factors is None:
        raise DegenerateJacobianError(f"zero or non-finite R diagonal at iteration {j}")
    q, diag = factors
    for i, r in enumerate(diag):
        sums[i] += log(r)
    return q


def _gram_schmidt(columns: list) -> Optional[tuple]:
    """Q and diag R of the d x k frame given as k columns of Python floats.

    Modified Gram-Schmidt with one re-orthogonalisation pass ("twice is
    enough"), so Q is orthonormal to working precision whatever the
    frame's condition. Q is a list of columns and R's diagonal, the norm
    left after both passes, is positive; None if an entry of that
    diagonal is zero or non-finite.
    """
    q, diag = [], []
    for v in columns:
        for _ in range(2):
            for u in q:
                c = sum(map(mul, u, v))
                v = [vi - c * ui for vi, ui in zip(v, u)]
        r = hypot(*v)
        if not 0.0 < r < inf:
            return None
        q.append([vi / r for vi in v])
        diag.append(r)
    return q, diag


def explained_variances(samples: np.ndarray, k: int) -> np.ndarray:
    """Variances of the state cloud along its top-k principal directions.

    The squared leading singular values of the centred samples over
    (rows - 1), by one Rayleigh-Ritz step: the eigenvectors of the top
    k + PCA_OVERSAMPLE eigenvalues of the n x n Gram matrix span the
    trial space (all n columns when n is smaller), and the variances are
    the squared singular values of the centred samples projected onto
    it. Read off the samples, not the Gram, a direction without variance
    projects to about eps * sigma_1, so zero variances stay near eps**2
    of the largest. On measured panels of reservoir states and Gaussian
    clouds the variances lie within 8 eps of the largest variance of the
    exact ones, as close as LAPACK's SVD of the whole centred samples.
    """
    if k > min(samples.shape):
        raise ValueError("k must not exceed the sample count or the state dimension")
    centred = samples - samples.mean(axis=0)
    n = centred.shape[1]
    top = np.linalg.eigh(centred.T @ centred)[1][:, -min(k + PCA_OVERSAMPLE, n) :]
    # eigh's columns can be off unit length by 8 ulps, Householder's Q by
    # 2-4; a column norm off by delta moves its Ritz value by 2 delta.
    top = np.linalg.qr(top)[0]
    # The wide product: the tall centred @ top touches more BLAS buffer
    # and raises the peak memory of a forecast run.
    sv = np.linalg.svd(top.T @ centred.T, compute_uv=False)
    return sv[:k] ** 2 / max(samples.shape[0] - 1, 1)
