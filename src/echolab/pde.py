"""Random-feature solver for the Dirichlet problem on the unit disc.

Frozen random tanh features, their Laplacian, area-uniform interior
and uniform boundary sampling, the offline stacked ridge solve, the
online 1/k iteration, and the closed-form reference solution for the
cos(4 theta) boundary condition.

The online solver applies `training.online_step` with unit ridge
(lam = 1, the regulariser L = I): each step updates W on the two rows
[Lap f(z); f(z')] with targets [0, h(z')]. A general regulariser L
stays available offline, through `solve_offline(regularizer=L)`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .dynsys import csv_text
from .errors import IntegrationDivergedError
from .reservoir import make_rng
from .training import (
    Readout,
    RegressionProblem,
    moment_solution,
    online_step,
    solve_offline,
)

ONLINE_DIVERGENCE_GUARD = 1e9


@dataclass
class RandomFeatureModel:
    """Feature map z -> tanh(C z + b) with frozen random weights."""

    n: int
    d: int
    C: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float).reshape(self.n, self.d)
        self.b = np.asarray(self.b, dtype=float).reshape(self.n)


def build_feature_model(
    n: int,
    d: int = 2,
    weight_range: Tuple[float, float] = (-0.05, 0.05),
    seed: int = 0,
) -> RandomFeatureModel:
    """Draw C and b i.i.d. uniform on the given range."""
    rng = make_rng(seed)
    C = rng.uniform(weight_range[0], weight_range[1], (n, d))
    b = rng.uniform(weight_range[0], weight_range[1], n)
    return RandomFeatureModel(n=n, d=d, C=C, b=b)


def eval_features(model: RandomFeatureModel, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        return np.tanh(model.C @ z + model.b)
    return np.tanh(z @ model.C.T + model.b)


def eval_feature_laplacian(model: RandomFeatureModel, z: np.ndarray) -> np.ndarray:
    """Componentwise Laplacian of the feature map.

    Each feature tanh(a_i) with a_i = C_i . z + b_i has Laplacian
    ||C_i||^2 * (-2 tanh(a_i) sech^2(a_i)).
    """
    z = np.asarray(z, dtype=float)
    a = (model.C @ z + model.b) if z.ndim == 1 else (z @ model.C.T + model.b)
    t = np.tanh(a)
    return -2.0 * t * (1.0 - t**2) * np.sum(model.C**2, axis=1)


@dataclass
class DirichletSample:
    interior: np.ndarray  # (ell, d) strictly inside the disc
    boundary: np.ndarray  # (ell', d) on the unit circle
    boundary_values: np.ndarray

    def __post_init__(self):
        self.interior = np.atleast_2d(np.asarray(self.interior, dtype=float))
        self.boundary = np.atleast_2d(np.asarray(self.boundary, dtype=float))
        self.boundary_values = np.asarray(self.boundary_values, dtype=float).reshape(-1)
        if np.any(np.linalg.norm(self.interior, axis=1) >= 1.0):
            raise ValueError("interior points must satisfy |z| < 1")
        if np.max(np.abs(np.linalg.norm(self.boundary, axis=1) - 1.0)) > 1e-12:
            raise ValueError("boundary points must satisfy |z| = 1")


def default_boundary_data(theta: np.ndarray) -> np.ndarray:
    return np.cos(4.0 * theta)


def sample_disc(
    ell: int,
    ell_prime: int,
    seed: int = 0,
    boundary_fn: Callable[[np.ndarray], np.ndarray] = default_boundary_data,
) -> DirichletSample:
    """Area-uniform interior points and uniform boundary points.

    Interior radii are sqrt of uniform draws so density is uniform in
    area; boundary angles are uniform on the circle and evaluated
    through the boundary data function.
    """
    if ell < 1 or ell_prime < 1:
        raise ValueError("need at least one point per region")
    rng = make_rng(seed)
    radii = np.sqrt(rng.uniform(0.0, 1.0, ell))
    radii = np.minimum(radii, 1.0 - 1e-12)
    angles = rng.uniform(0.0, 2.0 * np.pi, ell)
    interior = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    theta = rng.uniform(0.0, 2.0 * np.pi, ell_prime)
    boundary = np.column_stack([np.cos(theta), np.sin(theta)])
    return DirichletSample(
        interior=interior, boundary=boundary, boundary_values=boundary_fn(theta)
    )


def analytic_disc_solution(r, theta):
    """Harmonic reference solution r^4 cos(4 theta)."""
    return np.asarray(r, dtype=float) ** 4 * np.cos(4.0 * np.asarray(theta, dtype=float))


@dataclass
class DirichletSolution:
    readout: Readout
    interior_rms: float
    boundary_rms: float

    def report_json(self, grid_rms: Optional[float] = None, config: Optional[dict] = None) -> str:
        return json.dumps(
            {
                "interior_rms": self.interior_rms,
                "boundary_rms": self.boundary_rms,
                "grid_rms": grid_rms,
                "config": config or {},
            }
        )


def stacked_problem(
    model: RandomFeatureModel, sample: DirichletSample
) -> Tuple[RegressionProblem, float, float]:
    """Stacked design with the balanced 1/sqrt(ell) block weighting.

    Interior rows hold the feature Laplacian with zero targets and
    boundary rows the features with the boundary data; scaling blocks
    by 1/sqrt(ell) and 1/sqrt(ell') makes the squared loss equal the
    per-region means, so a ridge penalty of 2*lambda/(ell+ell')
    reproduces the weighted objective exactly. With ell = ell' this
    minimiser coincides with the unweighted stacking at penalty lambda.
    """
    ell, ell_prime = len(sample.interior), len(sample.boundary)
    lap_rows = eval_feature_laplacian(model, sample.interior) / math.sqrt(ell)
    feat_rows = eval_features(model, sample.boundary) / math.sqrt(ell_prime)
    X = np.vstack([lap_rows, feat_rows])
    Y = np.concatenate(
        [np.zeros(ell), sample.boundary_values / math.sqrt(ell_prime)]
    )
    return RegressionProblem(X, Y), ell, ell_prime


def solve_dirichlet_offline(
    model: RandomFeatureModel, sample: DirichletSample, lam: float
) -> DirichletSolution:
    """Offline SVD solve of the stacked interior/boundary problem."""
    problem, ell, ell_prime = stacked_problem(model, sample)
    lam_eff = 2.0 * lam / (ell + ell_prime)
    readout = solve_offline(problem, lam=lam_eff, truncate=True)
    w = readout.w
    interior_residual = eval_feature_laplacian(model, sample.interior) @ w
    boundary_residual = eval_features(model, sample.boundary) @ w - sample.boundary_values
    return DirichletSolution(
        readout=readout,
        interior_rms=float(np.sqrt(np.mean(interior_residual**2))),
        boundary_rms=float(np.sqrt(np.mean(boundary_residual**2))),
    )


def solve_dirichlet_online(
    model: RandomFeatureModel,
    sample: DirichletSample,
    n_steps: int,
    w0: Optional[np.ndarray] = None,
) -> Readout:
    """Online 1/k iteration over interleaved interior/boundary samples.

    Each step consumes one interior and one boundary point (cycling
    the finite sample) and applies `online_step` with lam = 1 to the
    rows [Lap f; f] and targets [0, h]:
    W' = (1 - a) W - a (Lap_f (W . Lap_f) + f (W . f - h)).
    Diverging iterates (norm above 1e9) abort.
    """
    w = np.zeros(model.n) if w0 is None else np.asarray(w0, dtype=float).copy()
    lap_all = eval_feature_laplacian(model, sample.interior)
    feat_all = eval_features(model, sample.boundary)
    h_all = sample.boundary_values
    ell, ell_prime = len(lap_all), len(feat_all)
    for k in range(1, n_steps + 1):
        i, j = (k - 1) % ell, (k - 1) % ell_prime
        rows = np.stack((lap_all[i], feat_all[j]))
        w = online_step(w, rows, (0.0, h_all[j]), 1.0 / k, 1.0)
        if not np.all(np.isfinite(w)) or np.linalg.norm(w) > ONLINE_DIVERGENCE_GUARD:
            raise IntegrationDivergedError(k, f"online weights diverged at step {k}")
    return Readout(w=w, lam=1.0, provenance="online_1k")


def online_moment_solution(model: RandomFeatureModel, sample: DirichletSample) -> np.ndarray:
    """Limit of the online iteration on the cycled finite sample.

    `moment_solution` of the sample-mean moments at unit ridge, the
    oracle the 1/k iteration converges to.
    """
    lap = eval_feature_laplacian(model, sample.interior)
    feat = eval_features(model, sample.boundary)
    second = lap.T @ lap / len(lap) + feat.T @ feat / len(feat)
    cross = feat.T @ sample.boundary_values / len(feat)
    return moment_solution(second, cross, 1.0)


def evaluation_grid(n_r: int = 50, n_theta: int = 200) -> Tuple[np.ndarray, np.ndarray]:
    """Polar evaluation grid over the open disc."""
    radii = np.linspace(0.0, 1.0, n_r, endpoint=False)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    R, T = np.meshgrid(radii, thetas, indexing="ij")
    return R.ravel(), T.ravel()


def grid_rms_error(
    model: RandomFeatureModel,
    readout: Readout,
    n_r: int = 50,
    n_theta: int = 200,
) -> float:
    """RMS difference to the closed-form solution on the polar grid."""
    r, theta = evaluation_grid(n_r, n_theta)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    approx = eval_features(model, pts) @ readout.w
    exact = analytic_disc_solution(r, theta)
    return float(np.sqrt(np.mean((approx - exact) ** 2)))


def solution_field_csv(
    model: RandomFeatureModel, readout: Readout, n_r: int = 50, n_theta: int = 200
) -> str:
    """Export `r,theta,phi_hat,phi_exact,abs_err` rows for the grid."""
    r, theta = evaluation_grid(n_r, n_theta)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    approx = eval_features(model, pts) @ readout.w
    exact = analytic_disc_solution(r, theta)
    return csv_text(
        ["r", "theta", "phi_hat", "phi_exact", "abs_err"],
        [r, theta, approx, exact, np.abs(approx - exact)],
    )
