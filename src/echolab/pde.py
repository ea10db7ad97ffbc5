"""Random-feature solver for the Dirichlet problem on the unit disc.

The problem is Laplace's equation on the unit disc with boundary data
cos(4 theta). The module holds frozen random tanh features on the plane
with weights U[-0.05, 0.05], their Laplacian, area-uniform interior and
uniform boundary sampling, the offline stacked ridge solve, and the
closed-form solution r^4 cos(4 theta), against which the learned
solution is scored on a 50 x 200 polar grid.

The learned solution on the grid is evaluated GRID_BLOCK rows at a
time into one preallocated field, so the grid's feature matrix is never
held whole and the working set is O(GRID_BLOCK * n) for any n. Each
block's product is its own BLAS call, so the field's bits depend on
GRID_BLOCK; against the one-shot product they differ by rounding only,
within the summation-order bound 2 n eps (|F| @ |w|) per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .reservoir import make_rng
from .training import Readout, RegressionProblem, solve_offline


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


def build_feature_model(n: int, seed: int = 0) -> RandomFeatureModel:
    """Draw C (n x 2) and b i.i.d. uniform on [-0.05, 0.05]."""
    rng = make_rng(seed)
    C = rng.uniform(-0.05, 0.05, (n, 2))
    b = rng.uniform(-0.05, 0.05, n)
    return RandomFeatureModel(n=n, d=2, C=C, b=b)


def eval_features(model: RandomFeatureModel, z: np.ndarray) -> np.ndarray:
    """Features of a (2,) point or of each row of an (m, 2) batch.

    tanh(z C^T + b), evaluated in place in one array of the output's size.
    """
    out = np.asarray(z, dtype=float) @ model.C.T
    out += model.b
    return np.tanh(out, out=out)


def eval_feature_laplacian(model: RandomFeatureModel, z: np.ndarray) -> np.ndarray:
    """Componentwise Laplacian of the feature map.

    Each feature tanh(a_i) with a_i = C_i . z + b_i has Laplacian
    ||C_i||^2 * (-2 tanh(a_i) sech^2(a_i)).
    """
    t = eval_features(model, z)
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


def sample_disc(ell: int, ell_prime: int, seed: int = 0) -> DirichletSample:
    """Area-uniform interior points and uniform boundary points.

    Interior radii are sqrt of uniform draws so density is uniform in
    area; boundary angles are uniform on the circle and carry the
    boundary data cos(4 theta).
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
        interior=interior, boundary=boundary, boundary_values=np.cos(4.0 * theta)
    )


def analytic_disc_solution(r, theta):
    """Harmonic reference solution r^4 cos(4 theta)."""
    return np.asarray(r, dtype=float) ** 4 * np.cos(4.0 * np.asarray(theta, dtype=float))


@dataclass
class DirichletSolution:
    readout: Readout
    interior_rms: float
    boundary_rms: float


def stacked_problem(model: RandomFeatureModel, sample: DirichletSample) -> RegressionProblem:
    """Stacked design with the balanced 1/sqrt(ell) block weighting.

    Interior rows hold the feature Laplacian with zero targets and
    boundary rows the features with the boundary data; scaling blocks
    by 1/sqrt(ell) and 1/sqrt(ell') makes the squared loss equal the
    per-region means, so a ridge penalty of 2*lambda/(ell+ell')
    reproduces the weighted objective exactly. With ell = ell' this
    minimiser coincides with the unweighted stacking at penalty lambda.
    The weighted blocks and targets are written straight into the
    problem's (ell + ell', n + 1) design, which is wrapped without a copy.
    """
    ell, ell_prime = len(sample.interior), len(sample.boundary)
    design = np.empty((ell + ell_prime, model.n + 1))
    np.divide(eval_feature_laplacian(model, sample.interior), math.sqrt(ell), out=design[:ell, :-1])
    np.divide(eval_features(model, sample.boundary), math.sqrt(ell_prime), out=design[ell:, :-1])
    design[:ell, -1] = 0.0
    np.divide(sample.boundary_values, math.sqrt(ell_prime), out=design[ell:, -1])
    return RegressionProblem.from_design(design)


def solve_dirichlet_offline(
    model: RandomFeatureModel, sample: DirichletSample, lam: float
) -> DirichletSolution:
    """Offline SVD solve of the stacked interior/boundary problem; each
    region's residual RMS is the 2-norm of its block of the weighted
    residual, whose rows carry the weights 1/sqrt(ell) and 1/sqrt(ell')."""
    problem = stacked_problem(model, sample)
    ell = len(sample.interior)
    readout = solve_offline(problem, lam=2.0 * lam / len(problem.design), truncate=True)
    residual = problem.states @ readout.w - problem.targets
    return DirichletSolution(
        readout=readout,
        interior_rms=float(np.linalg.norm(residual[:ell])),
        boundary_rms=float(np.linalg.norm(residual[ell:])),
    )


# Rows of the evaluation grid whose features `grid_solution` holds at once.
GRID_BLOCK = 1000


def evaluation_grid() -> Tuple[np.ndarray, np.ndarray]:
    """Polar evaluation grid over the open disc: 50 radii by 200 angles."""
    radii = np.linspace(0.0, 1.0, 50, endpoint=False)
    thetas = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    R, T = np.meshgrid(radii, thetas, indexing="ij")
    return R.ravel(), T.ravel()


def grid_solution(
    model: RandomFeatureModel, readout: Readout
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The learned solution on the polar grid, against the closed form.

    Returns the grid's radii and angles (`evaluation_grid`), the learned
    solution and the closed form r^4 cos(4 theta) at each grid point.
    The learned solution is eval_features(model, pts[i:i + GRID_BLOCK]) @ w
    for each block of GRID_BLOCK grid rows (the last block may be
    shorter), so GRID_BLOCK is part of the field's definition: its bits
    differ from the one-shot product by rounding alone, at most
    2 n eps (|F| @ |w|) at each point.
    """
    r, theta = evaluation_grid()
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    field = np.empty(len(pts))
    for i in range(0, len(pts), GRID_BLOCK):
        field[i : i + GRID_BLOCK] = eval_features(model, pts[i : i + GRID_BLOCK]) @ readout.w
    return r, theta, field, analytic_disc_solution(r, theta)
