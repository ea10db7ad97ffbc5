"""echolab: an echo state network laboratory.

Drive systems, reservoir construction and training, dynamical
diagnostics (fixed points, Lyapunov spectra, PCA), persistent homology
over F2, stationary-process value learning, and a random-feature
Dirichlet solver, wired together by a config-driven experiment runner.
Stages hand each other numpy arrays: orbits, observations and reservoir
states as the `samples` of a `TimeSeries`, point clouds as (m, d) arrays.
A reservoir is its arrays, `ReservoirSpec(A, C, b)`, and `generate(n,
seed)` draws the forecasting one; `solve_offline(problem, lam)` fits a
ridge readout, the pseudo-inverse one at lam = 0.
"""

__version__ = "0.1.0"

from .dynsys import LorenzParams, TimeSeries, integrate_lorenz
from .reservoir import ReservoirSpec, drive, generate
from .training import Readout, RegressionProblem, solve_offline

__all__ = [
    "__version__",
    "LorenzParams",
    "TimeSeries",
    "integrate_lorenz",
    "ReservoirSpec",
    "drive",
    "generate",
    "Readout",
    "RegressionProblem",
    "solve_offline",
]
