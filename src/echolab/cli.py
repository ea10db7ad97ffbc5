"""Experiment orchestration.

Loads flat key-value config files (dotted namespaces), validates their
parameters against `PARAMETERS`, the one table of each experiment's
keys, defaults and rules, and runs the named experiment pipelines.
Each runner returns its artifacts, CSV text or JSON documents by file
name, and this module is the only one that chooses their schema,
formats them and writes files. `run` writes a manifest before any heavy
computation and the artifacts only after the runner returns, so a
failed run leaves only its manifest, which records the exception's type
and message, and every parameter the run used, defaults included.
Identical config and seed give byte-identical numeric outputs. JSON
artifacts are strict (RFC 8259): a figure with no finite value is null.

Every numeric CSV artifact is written by `csv_text`, one `.17g` value
per cell, so each float reads back to the same bits. A column that
repeats its values (at most half as many distinct values as rows, as the
`degree` and `birth` columns of the attractor's persistence diagram, the
grid coordinates of the Dirichlet solution field, the columns of
`gs_branches.csv` and those of every hexagon CSV) is formatted once per
distinct bit pattern and its rows reuse those strings; since equal bits
format to equal text, the bytes are the same as formatting every cell.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import __version__
from .dynsys import (
    LORENZ_MAX_EXPONENT,
    LorenzParams,
    TimeSeries,
    WING_FIXED_POINT,
    circle_rotation,
    integrate_lorenz,
    lorenz_tangent_maps,
)
from .diagnostics import (
    esn_jacobian,
    lorenz_linearization_eigs,
    lorenz_reorth_interval,
    lyapunov_qr,
    explained_variances,
    newton_fixed_point,
)
from .pde import build_feature_model, grid_solution, sample_disc, solve_dirichlet_offline
from .reservoir import (
    ReservoirSpec,
    autonomous_drive,
    autonomous_map,
    check_condition_C,
    check_condition_D,
    drive,
    generate,
    make_rng,
    spectral_radius,
)
from .stochastic import (
    ProcessSpec,
    RewardFunctional,
    bellman_contraction_check,
    markov_value_oracle,
    sample_path,
    value_mc,
)
from .topology import (
    PersistenceDiagram,
    attractor_h1_experiment,
    boundary_matrix,
    hexagon_example_filtration,
    persistence,
)
from .training import RegressionProblem, solve_offline, value_targets

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

# Reservoir states dropped as transient before a Lorenz readout is fitted.
DEFAULT_BURN_IN = 100

# A forecast is valid while its error, normalised by the RMS of the
# training inputs, stays at or below this (Pathak et al. 2018, with the
# valid time in Lyapunov times lambda_1 * t).
VALID_ERROR = 0.4


class Param(NamedTuple):
    """One experiment parameter: its default and the rule a value must pass.

    `ok(value, valid)` may read another key of the same experiment from
    `valid`, which holds the keys earlier in the table whose values
    passed; while that key is invalid, the bound it sets is lifted, so
    one bad value is reported once.
    """

    default: object
    ok: Callable[[object, Dict[str, object]], bool]
    message: str


def integer(default: int, low: int = 1) -> Param:
    message = "must be a positive integer" if low == 1 else f"must be an integer >= {low}"
    return Param(default, lambda v, valid: isinstance(v, int) and v >= low, message)


def finite(default: float, ok: Callable[[float], bool], message: str) -> Param:
    """A finite int or float passing `ok`; the parser reads `inf` and `nan` as floats."""
    return Param(
        default,
        lambda v, valid: isinstance(v, (int, float)) and math.isfinite(v) and ok(v),
        message,
    )


def nonnegative(default: float) -> Param:
    return finite(default, lambda v: v >= 0, "must be a finite number >= 0")


def positive(default: float) -> Param:
    return finite(default, lambda v: v > 0, "must be a finite number > 0")


def esn_parameters(n_min: int = 1) -> Dict[str, Param]:
    """Reservoir size, training length and ridge of the Lorenz readout;
    lam = 0 takes the pseudo-inverse readout, at any rank of the states."""
    return {"n": integer(300, n_min), "ell": integer(20000, 200), "lam": nonnegative(1e-9)}


def subsample_ok(value, valid) -> bool:
    # The landmarks come from the orbit's last ell - ell//2 + 1 samples.
    ell = valid.get("ell")
    top = ell - ell // 2 + 1 if ell is not None else math.inf
    return isinstance(value, int) and 50 <= value <= top


def burn_in_ok(value, valid) -> bool:
    return isinstance(value, int) and 1 <= value < valid.get("n_steps", math.inf)


# Every knob of every experiment, in the order `validate` reports them.
# Each runner takes exactly its experiment's keys as keyword arguments.
PARAMETERS: Dict[str, Dict[str, Param]] = {
    "lorenz_train": esn_parameters(),
    # The summary reports the explained variance of three principal components.
    "lorenz_forecast": {**esn_parameters(n_min=3), "horizon": integer(4000)},
    "fixed_point": esn_parameters(),
    "lyapunov": {"n_iter": integer(200_000, 100), "tau": positive(0.01)},
    # ell, subsample and max_eps are read only when source is lorenz but
    # checked whatever the source.
    "homology": {
        "source": Param(
            "hexagon", lambda v, valid: v in ("hexagon", "lorenz"), "must be hexagon or lorenz"
        ),
        "ell": integer(8000),
        "subsample": Param(400, subsample_ok, "must be an integer in [50, ell - ell//2 + 1]"),
        "max_eps": positive(10.0),
    },
    "gs_examples": {
        "n_steps": integer(2000, 2),
        "burn_in": Param(500, burn_in_ok, "must be an integer in [1, n_steps)"),
    },
    "embedding_check": {"n": integer(10), "trials": integer(200), "period": integer(3)},
    # value_mc draws 200 rollouts of ceil(ln 1e-9 / ln gamma) steps: at
    # gamma = 0.999 that is 20,713 steps, about 33 MB per rollout-sized array.
    # The unregularised two-weight readout needs two transitions, so three samples.
    "value_learn": {
        "gamma": finite(0.9, lambda v: 0 <= v <= 0.999, "must lie in [0, 0.999]"),
        "length": integer(400, 3),
    },
    "pde_dirichlet": {
        "n": integer(500),
        "ell": integer(500),
        "ell_prime": integer(500),
        "lam": nonnegative(0.0),
    },
}

EXPERIMENTS = tuple(PARAMETERS)


CONFIG_KEYS = ("experiment", "seed", "output_dir")


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    output_dir: str
    parameters: Dict[str, object] = field(default_factory=dict)


def _coerce(value: str):
    text = value.strip()
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def parse_config_text(text: str) -> Dict[str, object]:
    """Flat `key = value` lines; '#' starts a comment; dots namespace."""
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key}")
        out[key] = _coerce(value)
    return out


def load_config(path: str) -> ExperimentConfig:
    """The config at `path`; ValueError names each key other than
    CONFIG_KEYS and params.<name>, which `run` would never read."""
    flat = parse_config_text(Path(path).read_text())
    unknown = [k for k in flat if k not in CONFIG_KEYS and not k.startswith("params.")]
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(unknown)}; expected {', '.join(CONFIG_KEYS)} or params.*"
        )
    parameters = {
        k.split(".", 1)[1]: v for k, v in flat.items() if k.startswith("params.")
    }
    seed = flat.get("seed")
    return ExperimentConfig(
        experiment=str(flat.get("experiment", "")),
        seed=seed if seed is not None else -1,
        output_dir=str(flat.get("output_dir", "")),
        parameters=parameters,
    )


def _output_dir_problem(outdir: Path) -> Optional[str]:
    """The diagnostic for an outdir that `run` could not create, judged
    without creating anything: its nearest existing ancestor, or outdir
    itself, is not a directory. None when nothing is in the way."""
    existing = next(path for path in (outdir, *outdir.parents) if os.path.exists(path))
    if os.path.isdir(existing):
        return None
    reason = os.strerror(errno.EEXIST if existing == outdir else errno.ENOTDIR)
    return f"output_dir: cannot create {outdir}: {reason}"


def validate(config: ExperimentConfig) -> List[str]:
    """All violations at once, parameters in table order then unknown
    keys; an empty list means runnable."""
    diagnostics = []
    table = PARAMETERS.get(config.experiment)
    if table is None:
        diagnostics.append(
            f"experiment: unknown {config.experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
        )
    if not isinstance(config.seed, int) or config.seed < 0:
        diagnostics.append("seed: required nonnegative integer")
    if not config.output_dir:
        diagnostics.append("output_dir: required")
    elif (problem := _output_dir_problem(Path(config.output_dir))) is not None:
        diagnostics.append(problem)
    if table is None:
        return diagnostics
    valid: Dict[str, object] = {}
    for key, param in table.items():
        value = config.parameters.get(key, param.default)
        if param.ok(value, valid):
            valid[key] = value
        else:
            diagnostics.append(f"params.{key}: {param.message}")
    for key in config.parameters:
        if key not in table:
            diagnostics.append(f"params.{key}: unknown; expected one of {', '.join(table)}")
    return diagnostics


def _write_manifest(
    outdir: Path,
    config: ExperimentConfig,
    status: str,
    wall_time: Optional[float] = None,
    error: Optional[BaseException] = None,
) -> None:
    doc = {
        "experiment": config.experiment,
        "seed": config.seed,
        "output_dir": config.output_dir,
        "parameters": config.parameters,
        "version": __version__,
        "status": status,
    }
    if wall_time is not None:
        doc["wall_time_s"] = wall_time
    if error is not None:
        doc["error"] = {"type": type(error).__name__, "message": str(error)}
    (outdir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


# A file name maps to CSV text, or to a dict written as JSON.
Artifacts = Dict[str, Union[str, dict]]


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


def diagram_csv(diagram: PersistenceDiagram) -> str:
    """One `degree,birth,death` row per pair of a `persistence` diagram."""
    return csv_text(["degree", "birth", "death"], [diagram.degree, diagram.birth, diagram.death])


def train_lorenz_readout(
    trajectory: TimeSeries, n: int, ell: int, lam: float, seed: int, target: str
):
    """Shared pipeline: drive a reservoir with a Lorenz orbit and fit a readout.

    `trajectory` holds at least ell + 1 samples; its first coordinate
    xi_0, ..., xi_{ell-1} drives the reservoir, so state x_k has seen
    xi_0, ..., xi_{k-1}. State x_k pairs with sample k of the target:
    target 'zeta' learns the third coordinate zeta_k; 'next_xi' learns
    xi_k, the input x_k has not yet seen, which is the map
    `autonomous_drive` runs when it feeds the readout back as the next
    input. The first DEFAULT_BURN_IN (100) pairs are dropped as
    transient.

    The reservoir is driven into the first n columns of one
    (ell + 1, n + 1) array and the targets fill its last column, so the
    returned states are a view of the design's first n columns and the
    problem's design is rows DEFAULT_BURN_IN..ell-1 of that array,
    wrapped without a copy. Every cell is written: row ell, the state
    after the last input, holds target sample ell, which the fit does
    not read.
    """
    spec = generate(n, seed)
    inputs = TimeSeries(step=trajectory.step, samples=trajectory.samples[:ell, :1])
    design = np.empty((ell + 1, n + 1))
    states = drive(spec, inputs, np.zeros(n), out=design[:, :n])
    design[:, n] = trajectory.samples[: ell + 1, 2 if target == "zeta" else 0]
    problem = RegressionProblem.from_design(design[DEFAULT_BURN_IN:ell])
    readout = solve_offline(problem, lam=lam)
    return spec, states, readout, problem


def run_lorenz_train(seed: int, *, n: int, ell: int, lam: float) -> Artifacts:
    trajectory = integrate_lorenz(LorenzParams(), ell)
    spec, states, readout, problem = train_lorenz_readout(
        trajectory, n, ell, lam, seed, target="zeta"
    )
    preds = problem.states @ readout.w
    times = np.arange(ell - len(preds), ell) * trajectory.step
    rms = float(np.sqrt(np.mean((preds - problem.targets) ** 2)))
    return {
        "zeta_prediction.csv": csv_text(
            ["t", "target", "prediction"], [times, problem.targets, preds]
        ),
        "readout.json": {
            "w": readout.w.tolist(),
            "lambda": readout.lam,
            "burn_in": DEFAULT_BURN_IN,
        },
        "reservoir.json": {
            "n": spec.n,
            "d": spec.d,
            "activation": spec.activation,
            "seed": seed,
            "a": spec.A.flatten().tolist(),
            "c": spec.C.flatten().tolist(),
            "b": spec.b.tolist(),
        },
        "fit.json": {"rms": rms, "n_samples": len(preds)},
    }


def run_lorenz_forecast(seed: int, *, n: int, ell: int, lam: float, horizon: int) -> Artifacts:
    trajectory = integrate_lorenz(LorenzParams(), ell + horizon)
    spec, states, readout, _ = train_lorenz_readout(
        trajectory, n, ell, lam, seed, target="next_xi"
    )
    # Before the autonomous orbit exists, so the centred copy of the
    # states, the Gram matrix and the projection are never held with the orbit.
    variances = explained_variances(states.samples[DEFAULT_BURN_IN:], 3)
    # x_ell has seen xi_0..xi_{ell-1}, so x_{ell+j} . w forecasts xi_{ell+j}.
    auto = autonomous_drive(spec, readout.w, states.samples[ell], horizon)
    forecast = auto.samples[:-1] @ readout.w
    truth = trajectory.samples[ell : ell + horizon, 0]
    times = np.arange(ell, ell + horizon) * trajectory.step
    scale = float(np.sqrt(np.mean(trajectory.samples[:ell, 0] ** 2)))
    # Steps before the normalised error first exceeds VALID_ERROR; `not <=`
    # also ends the window at a non-finite forecast.
    over = np.flatnonzero(~(np.abs(forecast - truth) <= VALID_ERROR * scale))
    steps = int(over[0]) if over.size else horizon
    return {
        "forecast.csv": csv_text(["t", "true_xi", "forecast_xi"], [times, truth, forecast]),
        "forecast_summary.json": {
            "horizon": horizon,
            "bounded": bool(np.max(np.abs(auto.samples)) < 1e6),
            "explained_variance": variances.tolist(),
            "valid_steps": steps,
            "valid_lyapunov_times": steps * trajectory.step * LORENZ_MAX_EXPONENT,
            "valid_error_threshold": VALID_ERROR,
            "error_scale": scale,
            "lyapunov_exponent": LORENZ_MAX_EXPONENT,
        },
    }


def wing_start_state(spec) -> np.ndarray:
    """Reservoir state after 2000 steps of the constant wing observation."""
    const = TimeSeries(step=1.0, samples=np.full((2000, 1), WING_FIXED_POINT[0]))
    return drive(spec, const, np.zeros(spec.n)).samples[-1]


def run_fixed_point(seed: int, *, n: int, ell: int, lam: float) -> Artifacts:
    trajectory = integrate_lorenz(LorenzParams(), ell)
    spec, _, readout, _ = train_lorenz_readout(
        trajectory, n, ell, lam, seed, target="next_xi"
    )
    psi = autonomous_map(spec, readout.w)
    start = wing_start_state(spec)
    result = newton_fixed_point(psi, lambda x: esn_jacobian(spec, readout.w, x), start)
    reference = lorenz_linearization_eigs(tau=trajectory.step)
    # By increasing modulus, then angle: the order `eigvals` returns can
    # change under a rounding-level move of x*.
    esn_eigs = result.jacobian_eigs
    esn_eigs = esn_eigs[np.lexsort((np.angle(esn_eigs), np.abs(esn_eigs)))]
    dists = [np.min(np.abs(esn_eigs - ref)) for ref in reference]
    matched = [int(np.argmin(np.abs(esn_eigs - ref))) for ref in reference]
    rest = np.delete(np.abs(esn_eigs), matched)
    return {
        "fixed_point.json": {
            "x_star": result.x_star.tolist(),
            "residual": result.residual,
            "iterations": result.iterations,
            "jacobian_eigs_real": esn_eigs.real.tolist(),
            "jacobian_eigs_imag": esn_eigs.imag.tolist(),
        },
        "eigenvalue_match.json": {
            "reference_real": reference.real.tolist(),
            "reference_imag": reference.imag.tolist(),
            "match_distances": [float(d) for d in dists],
            "max_other_modulus": float(np.max(rest)) if rest.size else 0.0,
            "residual": result.residual,
        },
        "esn_eigenvalues.csv": csv_text(["re", "im"], [esn_eigs.real, esn_eigs.imag]),
    }


def run_lyapunov(seed: int, *, n_iter: int, tau: float) -> Artifacts:
    settle = integrate_lorenz(LorenzParams(tau=tau), 1000)
    # The longest QR interval whose frame growth stays within
    # REORTH_GROWTH_BOUND = 4e3: 50 steps at the default tau = 0.01, a
    # growth of exp(15.48 * 0.5) ~ 2.3e3, where the exponents match one QR
    # per step to 2.4e-13 over 20k steps (one QR per 100 steps: 1.4e-7).
    reorth_every, reorth_growth = lorenz_reorth_interval(tau)
    result = lyapunov_qr(
        lorenz_tangent_maps(LorenzParams(tau=tau, initial=settle.samples[-1]), n_iter),
        tau=tau,
        reorth_every=reorth_every,
    )
    header = ["iter"] + [f"lambda_{i+1}" for i in range(result.exponents.shape[0])]
    return {
        "lyapunov.json": {
            "exponents": result.exponents.tolist(),
            "n_iterations": result.n_iterations,
            "running_mean_drift": result.running_mean_drift,
            "reorth_every": reorth_every,
            "reorth_growth": reorth_growth,
        },
        "lyapunov_trace.csv": csv_text(header, result.running_means.T),
    }


def run_homology(seed: int, *, source: str, ell: int, subsample: int, max_eps: float) -> Artifacts:
    """The hexagon's boundary matrices, Betti profiles and diagram, or
    the Lorenz landmark diagram and its H1 summary, whose `gap_ratio` is
    null without a third H1 class of positive lifetime to divide by.

    The hexagon's profiles count its diagram's pairs in every degree
    below its skeleton dimension.
    """
    if source == "hexagon":
        filt = hexagon_example_filtration()
        top = len(filt.values) - 1
        diagram = persistence(filt)
        profile = {}
        for key, eps in (("at_1", 1.0), ("at_sqrt3", float(np.sqrt(3))), ("at_2", 2.0)):
            curve = diagram.betti_at(eps)
            profile[key] = [curve.get(k, 0) for k in range(top)]
        return {
            "boundary_1.csv": csv_text([], boundary_matrix(filt, 1, eps=1.9).T),
            "boundary_2.csv": csv_text([], boundary_matrix(filt, 2, eps=1.9).T),
            "betti.json": profile,
            "diagram.csv": diagram_csv(diagram),
        }
    trajectory = integrate_lorenz(LorenzParams(), ell)
    res = attractor_h1_experiment(
        trajectory.samples[ell // 2 :], subsample=subsample, max_eps=max_eps
    )
    return {
        "diagram.csv": diagram_csv(res.diagram),
        "h1_summary.json": {
            "gap_ratio": res.gap_ratio if math.isfinite(res.gap_ratio) else None,
            "top_persistences": res.top_persistences,
        },
    }


def run_gs_examples(seed: int, *, n_steps: int, burn_in: int) -> Artifacts:
    epsilon = 2 * np.pi / 100
    angles = circle_rotation(epsilon, 0.0, n_steps - 1)
    z = TimeSeries(step=angles.step, samples=0.5 * np.sin(angles.samples))
    # The scalar example x -> tanh(2x + z) is the ESN with A = 2, C = 1,
    # b = 0; two uncoupled copies run the branches from -0.9 and 0.9.
    spec = ReservoirSpec(A=2.0 * np.eye(2), C=np.ones(2), b=np.zeros(2))
    minus, plus = drive(spec, z, np.array([-0.9, 0.9])).samples.T
    gap = np.abs(plus[burn_in:] - minus[burn_in:])
    # Row k pairs x_k with the angle of the input z_{k-1} that produced it.
    rows = np.arange(burn_in, n_steps)
    columns = [angles.samples[rows - 1, 0], minus[rows], plus[rows]]
    return {
        "gs_branches.csv": csv_text(["angle", "x_minus", "x_plus"], columns),
        "gs_summary.json": {"min_gap": float(gap.min()), "max_gap": float(gap.max())},
    }


def run_embedding_check(seed: int, *, n: int, trials: int, period: int) -> Artifacts:
    # Trial t draws A, C and three distinct lambdas from its own generator,
    # seeded seed + t; the trials are then checked as one stack.
    A = np.empty((trials, n, n))
    C = np.empty((trials, n))
    lams = np.empty((trials, 3))
    for t in range(trials):
        rng = make_rng(seed + t)
        A[t] = rng.standard_normal((n, n))
        C[t] = rng.standard_normal(n)
        lams[t] = rng.uniform(0.1, 0.9, 3)
        while len(np.unique(np.round(lams[t], 8))) < 3:
            lams[t] = rng.uniform(0.1, 0.9, 3)
    A *= (0.8 / spectral_radius(A))[:, None, None]
    ok_d = int(np.count_nonzero(check_condition_D(A, C)))
    ok_c = int(np.count_nonzero(check_condition_C(A, C, lams, period=period)))
    return {
        "embedding_check.json": {
            "trials": trials, "condition_D_pass": ok_d, "condition_C_pass": ok_c
        }
    }


def run_value_learn(seed: int, *, gamma: float, length: int) -> Artifacts:
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    emissions = np.array([[0.0], [1.0]])
    r_table = np.array([1.0, 0.0])
    oracle = markov_value_oracle(P, r_table, gamma)
    spec = ProcessSpec(P, emissions)
    series, states = sample_path(spec, length, seed)
    features = np.eye(2)[states]
    rewards = r_table[states[:-1]]
    problem = value_targets(features, rewards, gamma)
    readout = solve_offline(problem, lam=0.0)
    residual = float(np.mean((problem.states @ readout.w - problem.targets) ** 2))
    reward_fn = RewardFunctional(window=1, fn=lambda w: r_table[w[:, -1, 0].astype(int)])
    mc = value_mc(
        spec, reward_fn, gamma, history=series.samples[-1:],
        n_rollouts=200, current_state=int(states[-1]), seed=seed,
    )
    ratio = bellman_contraction_check(P, np.eye(2), gamma, states, n_pairs=100, seed=seed)
    return {
        "value_learn.json": {
            "oracle_value": oracle.tolist(),
            "learned_value": readout.w.tolist(),
            "bellman_residual": residual,
            "mc_value_at_last_state": mc.value,
            "mc_stderr": mc.stderr,
            "contraction_ratio": ratio,
        }
    }


def run_pde_dirichlet(seed: int, *, n: int, ell: int, ell_prime: int, lam: float) -> Artifacts:
    model = build_feature_model(n, seed=seed)
    sample = sample_disc(ell, ell_prime, seed=seed + 1)
    sol = solve_dirichlet_offline(model, sample, lam=lam)
    r, theta, approx, exact = grid_solution(model, sol.readout)
    err = approx - exact
    columns = [r, theta, approx, exact, np.abs(err)]
    return {
        "solution_field.csv": csv_text(["r", "theta", "phi_hat", "phi_exact", "abs_err"], columns),
        "report.json": {
            "interior_rms": sol.interior_rms,
            "boundary_rms": sol.boundary_rms,
            "grid_rms": float(np.sqrt(np.mean(err**2))),
            "config": {"n": n, "ell": ell, "ell_prime": ell_prime, "lam": lam},
        },
    }


RUNNERS = {
    "lorenz_train": run_lorenz_train,
    "lorenz_forecast": run_lorenz_forecast,
    "fixed_point": run_fixed_point,
    "lyapunov": run_lyapunov,
    "homology": run_homology,
    "gs_examples": run_gs_examples,
    "embedding_check": run_embedding_check,
    "value_learn": run_value_learn,
    "pde_dirichlet": run_pde_dirichlet,
}


def run(config: ExperimentConfig) -> int:
    problems = validate(config)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_VALIDATION
    table = PARAMETERS[config.experiment]
    params = {key: config.parameters.get(key, param.default) for key, param in table.items()}
    config = replace(config, parameters=params)  # the manifest records the defaults too
    outdir = Path(config.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output_dir: cannot create {outdir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _write_manifest(outdir, config, status="running")
    start = time.time()
    try:
        artifacts = RUNNERS[config.experiment](config.seed, **params)
        for name, content in artifacts.items():
            (outdir / name).write_text(
                content if isinstance(content, str) else json.dumps(content, allow_nan=False)
            )
    except Exception as exc:  # runtime failure -> exit 3 with diagnostic
        print(f"{config.experiment}: {exc}", file=sys.stderr)
        _write_manifest(outdir, config, status="failed", wall_time=time.time() - start, error=exc)
        return EXIT_RUNTIME
    _write_manifest(outdir, config, status="complete", wall_time=time.time() - start)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="echolab", description="Reservoir computing experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config")
    val_p = sub.add_parser("validate", help="validate a config file")
    val_p.add_argument("config")
    sub.add_parser("list-experiments", help="list available experiments")
    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return EXIT_OK
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.command == "validate":
        problems = validate(config)
        for p in problems:
            print(p)
        return EXIT_OK if not problems else EXIT_VALIDATION
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
