"""The benchmark's size hooks read what the library returns.

`benchmarks/layers.py` maps traced functions to `HOOKS`, each reading
work counts (steps, rows, simplices) off a call's arguments and result
when `benchmarks/run.py --trace 1` runs. Each hook runs here on its
function's real output at a tiny size, so a change to a result type or
argument name that would break a traced run fails this suite.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from echolab.diagnostics import lyapunov_qr, newton_fixed_point
from echolab.dynsys import LorenzParams, TimeSeries, integrate_lorenz, lorenz_tangent_maps
from echolab.reservoir import drive, generate
from echolab.stochastic import ProcessSpec, RewardFunctional, value_mc
from echolab.topology import persistence, rips_filtration
from echolab.training import RegressionProblem, solve_offline

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _benchmark_module(name):
    """benchmarks/<name>.py, loaded under its own name, as `run.py` imports it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


_benchmark_module("tracer")  # layers.py imports it by this name
HOOKS = _benchmark_module("layers").HOOKS


def hexagon_points():
    angles = np.arange(6) * np.pi / 3
    return np.column_stack([np.cos(angles), np.sin(angles)])


# Each case calls the hooked function as the experiments do and returns
# (args, kwargs, result, the counts the hook must report).
def integrate_lorenz_case():
    result = integrate_lorenz(LorenzParams(), 40)
    return (LorenzParams(), 40), {}, result, {"steps": 40}


def drive_case():
    spec = generate(8, 1)
    inputs = TimeSeries(step=1.0, samples=np.linspace(-1.0, 1.0, 30)[:, None])
    args = (spec, inputs, np.zeros(8))
    return args, {}, drive(*args), {"steps": 30}


def solve_offline_case():
    rng = np.random.default_rng(0)
    problem = RegressionProblem(rng.standard_normal((12, 5)), rng.standard_normal(12))
    return (problem,), {"lam": 0.0}, solve_offline(problem, lam=0.0), {"rows": 12, "cols": 5}


def lyapunov_qr_case():
    kwargs = {"tau": 0.01, "reorth_every": 10}
    maps = lorenz_tangent_maps(LorenzParams(), 100)
    return (maps,), kwargs, lyapunov_qr(maps, **kwargs), {"iterations": 100}


def newton_fixed_point_case():
    args = (lambda x: 0.5 * x + 1.0, lambda x: 0.5 * np.eye(1), np.zeros(1))
    result = newton_fixed_point(*args)
    return args, {}, result, {"iterations": result.iterations}


def rips_filtration_case():
    filt = rips_filtration(hexagon_points(), 2, max_eps=1.8)
    counts = {"dim1": len(filt.values[1]), "dim2": len(filt.values[2])}
    return (hexagon_points(), 2), {"max_eps": 1.8}, filt, counts


def persistence_case():
    filt = rips_filtration(hexagon_points(), 2, max_eps=1.8)
    diagram = persistence(filt)
    finite_h1 = np.count_nonzero((diagram.degree == 1) & np.isfinite(diagram.death))
    counts = {
        "simplices": sum(len(v) for v in filt.values),
        "triangles": len(filt.values[2]),
        "finite_h1": int(finite_h1),
    }
    return (filt,), {}, diagram, counts


def value_mc_case():
    spec = ProcessSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0], [1.0]]))
    reward = RewardFunctional(window=1, fn=lambda w: w[:, -1, 0])
    args = (spec, reward, 0.5)
    kwargs = {"history": np.zeros((1, 1)), "n_rollouts": 3, "current_state": 0, "seed": 1}
    result = value_mc(*args, **kwargs)
    # The horizon is the smallest with 0.5 ** horizon <= 1e-9.
    horizon = math.ceil(math.log(1e-9) / math.log(0.5))
    return args, kwargs, result, {"rollout_steps": 3 * horizon}


CASES = {
    "dynsys.integrate_lorenz": integrate_lorenz_case,
    "reservoir.drive": drive_case,
    "training.solve_offline": solve_offline_case,
    "diagnostics.lyapunov_qr": lyapunov_qr_case,
    "diagnostics.newton_fixed_point": newton_fixed_point_case,
    "topology.rips_filtration": rips_filtration_case,
    "topology.persistence": persistence_case,
    "stochastic.value_mc": value_mc_case,
}


def test_every_hook_has_a_case():
    assert set(CASES) == set(HOOKS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_hook_reads_the_real_output(name):
    args, kwargs, result, expected = CASES[name]()
    assert HOOKS[name](args, kwargs, result) == expected
