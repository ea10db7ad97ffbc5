"""Experiment orchestration.

Loads flat key-value config files (dotted namespaces), validates them,
and runs the named experiment pipelines, writing a manifest before any
heavy computation plus per-experiment CSV/JSON artifacts. Identical
config and seed give byte-identical numeric outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .dynsys import (
    LorenzParams,
    ObservationFn,
    TimeSeries,
    WING_FIXED_POINT,
    circle_rotation,
    csv_text,
    example_drive,
    integrate_lorenz,
    lorenz_tangent_maps,
    observe,
)
from .diagnostics import (
    esn_jacobian,
    lorenz_linearization_eigs,
    lyapunov_qr,
    explained_variances,
    newton_fixed_point,
)
from .pde import build_feature_model, grid_solution, sample_disc, solve_dirichlet_offline
from .reservoir import (
    ReservoirGenConfig,
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
    bellman_residual,
    markov_value_oracle,
    sample_path,
    value_mc,
)
from .topology import (
    attractor_h1_experiment,
    boundary_matrix,
    hexagon_example_filtration,
    persistence,
)
from .training import DEFAULT_BURN_IN, problem_from_series, solve_offline, value_targets

EXPERIMENTS = (
    "lorenz_train",
    "lorenz_forecast",
    "fixed_point",
    "lyapunov",
    "homology",
    "gs_examples",
    "embedding_check",
    "value_learn",
    "pde_dirichlet",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    output_dir: str
    parameters: Dict[str, object] = field(default_factory=dict)

    def param(self, key: str, default=None):
        return self.parameters.get(key, default)


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
        key, value = line.split("=", 1)
        out[key.strip()] = _coerce(value)
    return out


def load_config(path: str) -> ExperimentConfig:
    flat = parse_config_text(Path(path).read_text())
    parameters = {
        k.split(".", 1)[1]: v for k, v in flat.items() if k.startswith("params.")
    }
    seed = flat.get("seed")
    env_seed = os.environ.get("ECHOLAB_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    return ExperimentConfig(
        experiment=str(flat.get("experiment", "")),
        seed=seed if seed is not None else -1,
        output_dir=str(flat.get("output_dir", ".")),
        parameters=parameters,
    )


def validate(config: ExperimentConfig) -> List[str]:
    """All violations at once; an empty list means runnable."""
    diagnostics = []
    if config.experiment not in EXPERIMENTS:
        diagnostics.append(
            f"experiment: unknown {config.experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
        )
    if not isinstance(config.seed, int) or config.seed < 0:
        diagnostics.append("seed: required nonnegative integer")
    if not config.output_dir:
        diagnostics.append("output_dir: required")
    if config.experiment == "value_learn":
        gamma = config.param("gamma", 0.9)
        if not (isinstance(gamma, (int, float)) and 0 <= gamma < 1):
            diagnostics.append("params.gamma: must lie in [0, 1)")
        length = config.param("length", 400)
        if not (isinstance(length, int) and length >= 2):
            diagnostics.append("params.length: must be an integer >= 2")
    if config.experiment in ("lorenz_train", "lorenz_forecast", "fixed_point"):
        n = config.param("n", 300)
        if not (isinstance(n, int) and n >= 1):
            diagnostics.append("params.n: must be a positive integer")
        elif config.experiment == "lorenz_forecast" and n < 3:
            # The summary reports the explained variance of three principal components.
            diagnostics.append("params.n: must be >= 3 for lorenz_forecast")
        ell = config.param("ell", 20000)
        if not (isinstance(ell, int) and ell >= 200):
            diagnostics.append("params.ell: must be an integer >= 200")
        lam = config.param("lam", 1e-9)
        if not (isinstance(lam, (int, float)) and lam >= 0):
            diagnostics.append("params.lam: must be >= 0")
    if config.experiment == "lorenz_forecast":
        horizon = config.param("horizon", 4000)
        if not (isinstance(horizon, int) and horizon >= 1):
            diagnostics.append("params.horizon: must be a positive integer")
    if config.experiment in ("fixed_point", "lyapunov"):
        tau = config.param("tau", 0.01)
        if not (isinstance(tau, (int, float)) and tau > 0):
            diagnostics.append("params.tau: must be > 0")
    if config.experiment == "lyapunov":
        n_iter = config.param("n_iter", 200_000)
        if not (isinstance(n_iter, int) and n_iter >= 100):
            diagnostics.append("params.n_iter: must be an integer >= 100")
    if config.experiment == "homology":
        source = config.param("source", "hexagon")
        if source not in ("hexagon", "lorenz"):
            diagnostics.append(f"params.source: unknown {source!r}; expected hexagon or lorenz")
        if source == "lorenz":
            ell = config.param("ell", 8000)
            if not isinstance(ell, int):
                diagnostics.append("params.ell: must be an integer")
            subsample = config.param("subsample", 400)
            # The landmarks come from the orbit's last ell - ell//2 + 1 samples.
            top = ell - ell // 2 + 1 if isinstance(ell, int) else float("inf")
            if not (isinstance(subsample, int) and 50 <= subsample <= top):
                diagnostics.append(
                    "params.subsample: must be an integer in [50, ell - ell//2 + 1]"
                )
            max_eps = config.param("max_eps", 10.0)
            if not (isinstance(max_eps, (int, float)) and max_eps > 0):
                diagnostics.append("params.max_eps: must be > 0")
    if config.experiment == "gs_examples":
        n_steps = config.param("n_steps", 2000)
        if not (isinstance(n_steps, int) and n_steps >= 2):
            diagnostics.append("params.n_steps: must be an integer >= 2")
        burn_in = config.param("burn_in", 500)
        top = n_steps if isinstance(n_steps, int) and n_steps >= 2 else float("inf")
        if not (isinstance(burn_in, int) and 1 <= burn_in < top):
            diagnostics.append("params.burn_in: must be an integer in [1, n_steps)")
    if config.experiment == "embedding_check":
        for key, default in (("n", 10), ("trials", 200), ("period", 3)):
            v = config.param(key, default)
            if not (isinstance(v, int) and v >= 1):
                diagnostics.append(f"params.{key}: must be a positive integer")
    if config.experiment == "pde_dirichlet":
        for key, default in (("n", 500), ("ell", 500), ("ell_prime", 500)):
            v = config.param(key, default)
            if not (isinstance(v, int) and v >= 1):
                diagnostics.append(f"params.{key}: must be a positive integer")
        lam = config.param("lam", 0.0)
        if not (isinstance(lam, (int, float)) and lam >= 0):
            diagnostics.append("params.lam: must be >= 0")
    return diagnostics


def _write(outdir: Path, name: str, text: str) -> None:
    (outdir / name).write_text(text)


def _write_manifest(outdir: Path, config: ExperimentConfig, status: str, wall_time: Optional[float] = None) -> None:
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
    _write(outdir, "manifest.json", json.dumps(doc, indent=2, sort_keys=True))


def standard_esn(n: int, seed: int) -> ReservoirGenConfig:
    """The hand-tuned forecasting reservoir: unit 2-norm, small uniforms."""
    return ReservoirGenConfig(
        n=n,
        d=1,
        a_scheme=("uniform_rescaled_2norm", 1.0),
        c_scheme=("uniform", -0.05, 0.05),
        b_scheme=("uniform", -0.05, 0.05),
        seed=seed,
    )


def train_lorenz_readout(n: int, ell: int, lam: float, seed: int, target: str = "zeta"):
    """Shared pipeline: integrate, drive, and fit a readout.

    target 'zeta' learns the third coordinate from the first; 'next_xi'
    learns the one-step-ahead first coordinate for forecasting. The
    first DEFAULT_BURN_IN (100) states are dropped as transient, and the
    readout records that burn-in.
    """
    trajectory = integrate_lorenz(LorenzParams(), ell)
    xi = observe(trajectory, ObservationFn("coord", index=0))
    spec = generate(standard_esn(n, seed))
    inputs = TimeSeries(step=xi.step, samples=xi.samples[:ell])
    states = drive(spec, inputs, np.zeros(n))
    if target == "zeta":
        targets = trajectory.samples[:ell, 2]
    else:
        targets = trajectory.samples[1 : ell + 1, 0]
    aligned = TimeSeries(step=xi.step, samples=states.samples[:ell])
    problem = problem_from_series(aligned, targets, DEFAULT_BURN_IN)
    readout = solve_offline(problem, lam=lam)
    readout.burn_in = DEFAULT_BURN_IN
    return trajectory, spec, states, readout, problem


def run_lorenz_train(config: ExperimentConfig, outdir: Path) -> None:
    n = config.param("n", 300)
    ell = config.param("ell", 20000)
    lam = config.param("lam", 1e-9)
    trajectory, spec, states, readout, problem = train_lorenz_readout(
        n, ell, lam, config.seed, target="zeta"
    )
    preds = problem.states @ readout.w
    times = np.arange(ell - len(preds), ell) * trajectory.step
    _write(
        outdir,
        "zeta_prediction.csv",
        csv_text(["t", "target", "prediction"], [times, problem.targets, preds]),
    )
    _write(outdir, "readout.json", readout.to_json())
    _write(outdir, "reservoir.json", spec.to_json())
    rms = float(np.sqrt(np.mean((preds - problem.targets) ** 2)))
    _write(outdir, "fit.json", json.dumps({"rms": rms, "n_samples": len(preds)}))


def run_lorenz_forecast(config: ExperimentConfig, outdir: Path) -> None:
    n = config.param("n", 300)
    ell = config.param("ell", 20000)
    lam = config.param("lam", 1e-9)
    horizon = config.param("horizon", 4000)
    trajectory, spec, states, readout, _ = train_lorenz_readout(
        n, ell, lam, config.seed, target="next_xi"
    )
    extended = integrate_lorenz(LorenzParams(), ell + horizon)
    auto = autonomous_drive(spec, readout.w, states.samples[ell], horizon)
    forecast = auto.samples[:-1] @ readout.w
    truth = extended.samples[ell + 1 : ell + horizon + 1, 0]
    times = np.arange(ell + 1, ell + horizon + 1) * trajectory.step
    _write(
        outdir,
        "forecast.csv",
        csv_text(["t", "true_xi", "forecast_xi"], [times, truth, forecast]),
    )
    variances = explained_variances(states.samples[readout.burn_in :], 3)
    _write(
        outdir,
        "forecast_summary.json",
        json.dumps(
            {
                "horizon": horizon,
                "bounded": bool(np.max(np.abs(auto.samples)) < 1e6),
                "explained_variance": variances.tolist(),
            }
        ),
    )


def wing_start_state(spec) -> np.ndarray:
    """Reservoir state after 2000 steps of the constant wing observation."""
    const = TimeSeries(step=1.0, samples=np.full((2000, 1), WING_FIXED_POINT[0]))
    return drive(spec, const, np.zeros(spec.n)).samples[-1]


def run_fixed_point(config: ExperimentConfig, outdir: Path) -> None:
    n = config.param("n", 300)
    ell = config.param("ell", 20000)
    lam = config.param("lam", 1e-9)
    tau = config.param("tau", 0.01)
    _, spec, states, readout, _ = train_lorenz_readout(
        n, ell, lam, config.seed, target="next_xi"
    )
    psi = autonomous_map(spec, readout.w)
    start = wing_start_state(spec)
    result = newton_fixed_point(
        psi, lambda x: esn_jacobian(spec, readout.w, x), start, tol=1e-10
    )
    reference = lorenz_linearization_eigs(tau=tau)
    esn_eigs = result.jacobian_eigs
    dists = [np.min(np.abs(esn_eigs - ref)) for ref in reference]
    matched = [int(np.argmin(np.abs(esn_eigs - ref))) for ref in reference]
    rest = np.delete(np.abs(esn_eigs), matched)
    _write(outdir, "fixed_point.json", result.to_json())
    _write(
        outdir,
        "eigenvalue_match.json",
        json.dumps(
            {
                "reference_real": reference.real.tolist(),
                "reference_imag": reference.imag.tolist(),
                "match_distances": [float(d) for d in dists],
                "max_other_modulus": float(np.max(rest)) if rest.size else 0.0,
                "residual": result.residual,
            }
        ),
    )
    _write(outdir, "esn_eigenvalues.csv", csv_text(["re", "im"], [esn_eigs.real, esn_eigs.imag]))


def run_lyapunov(config: ExperimentConfig, outdir: Path) -> None:
    n_iter = config.param("n_iter", 200_000)
    tau = config.param("tau", 0.01)
    settle = integrate_lorenz(LorenzParams(tau=tau), 1000)
    # At the default tau = 0.01 the frame's columns separate by about
    # exp((lambda_1 - lambda_3) * 10 * tau) = exp(15.5 * 0.1) ~ 4.7 over
    # 10 steps, far from ill-conditioned, so one QR per 10 steps gives the
    # exponents of a QR per step to ~1e-13 at a tenth of the factorisations.
    result = lyapunov_qr(
        lorenz_tangent_maps(LorenzParams(tau=tau, initial=settle.samples[-1]), n_iter),
        tau=tau,
        reorth_every=10,
    )
    _write(outdir, "lyapunov.json", result.to_json())
    _write(outdir, "lyapunov_trace.csv", result.trace_csv())


def run_homology(config: ExperimentConfig, outdir: Path) -> None:
    source = config.param("source", "hexagon")
    if source == "hexagon":
        filt = hexagon_example_filtration()
        d1 = boundary_matrix(filt, 1, eps=1.9)
        d2 = boundary_matrix(filt, 2, eps=1.9)
        for name, M in (("boundary_1.csv", d1), ("boundary_2.csv", d2)):
            _write(outdir, name, csv_text([], M.T))
        diagram = persistence(filt)
        dims = range(filt.max_dimension() + 1)
        profile = {}
        for key, eps in (("at_1", 1.0), ("at_sqrt3", float(np.sqrt(3))), ("at_2", 2.0)):
            curve = diagram.betti_at(eps)
            profile[key] = [curve.get(k, 0) for k in dims]
        _write(outdir, "betti.json", json.dumps(profile))
        _write(outdir, "diagram.csv", diagram.to_csv())
    else:
        ell = config.param("ell", 8000)
        subsample = config.param("subsample", 400)
        trajectory = integrate_lorenz(LorenzParams(), ell)
        res = attractor_h1_experiment(
            trajectory.samples[ell // 2 :],
            subsample=subsample,
            max_eps=config.param("max_eps", 10.0),
        )
        _write(outdir, "diagram.csv", res.diagram.to_csv())
        _write(
            outdir,
            "h1_summary.json",
            json.dumps(
                {
                    "gap_ratio": res.gap_ratio,
                    "top_persistences": [
                        min(p.death, res.max_eps) - p.birth for p in res.top_pairs
                    ],
                }
            ),
        )


def run_gs_examples(config: ExperimentConfig, outdir: Path) -> None:
    epsilon = 2 * np.pi / 100
    n_steps = config.param("n_steps", 2000)
    burn_in = config.param("burn_in", 500)
    angles = circle_rotation(epsilon, 0.0, n_steps - 1)
    z = observe(angles, ObservationFn("scaled_sin", amplitude=0.5))
    branches = {}
    for label, x0 in (("minus", -0.9), ("plus", 0.9)):
        branches[label] = example_drive("tanh2x", z, np.array([x0])).samples[:, 0]
    gap = np.abs(branches["plus"][burn_in:] - branches["minus"][burn_in:])
    # Row k pairs x_k with the angle of the input z_{k-1} that produced it.
    rows = np.arange(burn_in, n_steps)
    columns = [angles.samples[rows - 1, 0], branches["minus"][rows], branches["plus"][rows]]
    _write(outdir, "gs_branches.csv", csv_text(["angle", "x_minus", "x_plus"], columns))
    _write(
        outdir,
        "gs_summary.json",
        json.dumps({"min_gap": float(gap.min()), "max_gap": float(gap.max())}),
    )


def run_embedding_check(config: ExperimentConfig, outdir: Path) -> None:
    n = config.param("n", 10)
    trials = config.param("trials", 200)
    period = config.param("period", 3)
    ok_d = ok_c = 0
    for t in range(trials):
        rng = make_rng(config.seed + t)
        A = rng.standard_normal((n, n))
        A *= 0.8 / spectral_radius(A)
        C = rng.standard_normal(n)
        lams = rng.uniform(0.1, 0.9, 3)
        while len(np.unique(np.round(lams, 8))) < 3:
            lams = rng.uniform(0.1, 0.9, 3)
        ok_d += int(check_condition_D(A, C))
        ok_c += int(check_condition_C(A, C, list(lams), period=period))
    _write(
        outdir,
        "embedding_check.json",
        json.dumps({"trials": trials, "condition_D_pass": ok_d, "condition_C_pass": ok_c}),
    )


def run_value_learn(config: ExperimentConfig, outdir: Path) -> None:
    gamma = config.param("gamma", 0.9)
    length = config.param("length", 400)
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    emissions = np.array([[0.0], [1.0]])
    r_table = np.array([1.0, 0.0])
    oracle = markov_value_oracle(P, r_table, gamma)
    spec = ProcessSpec(("markov_chain", P, emissions), seed=config.seed)
    path, states = sample_path(spec, length, return_states=True)
    features = np.eye(2)[states]
    rewards = r_table[states[:-1]]
    problem = value_targets(TimeSeries(step=1.0, samples=features), rewards, gamma)
    readout = solve_offline(problem, lam=0.0)
    residual = bellman_residual(features, readout.w, rewards, gamma)
    reward_fn = RewardFunctional(window=1, fn=lambda recent: r_table[int(recent[-1, 0])])
    mc = value_mc(
        spec, reward_fn, gamma, history=emissions[states[-1]][None, :],
        n_rollouts=200, current_state=int(states[-1]), seed=config.seed,
    )
    ratio = bellman_contraction_check(P, np.eye(2), gamma, states, n_pairs=100, seed=config.seed)
    _write(
        outdir,
        "value_learn.json",
        json.dumps(
            {
                "oracle_value": oracle.tolist(),
                "learned_value": readout.w.tolist(),
                "bellman_residual": residual,
                "mc_value_at_last_state": mc.value,
                "mc_stderr": mc.stderr,
                "contraction_ratio": ratio,
            }
        ),
    )


def run_pde_dirichlet(config: ExperimentConfig, outdir: Path) -> None:
    n = config.param("n", 500)
    ell = config.param("ell", 500)
    ell_prime = config.param("ell_prime", 500)
    lam = config.param("lam", 0.0)
    model = build_feature_model(n, seed=config.seed)
    sample = sample_disc(ell, ell_prime, seed=config.seed + 1)
    sol = solve_dirichlet_offline(model, sample, lam=lam)
    field_csv, grid_rms = grid_solution(model, sol.readout)
    _write(outdir, "solution_field.csv", field_csv)
    _write(
        outdir,
        "report.json",
        sol.report_json(
            grid_rms=grid_rms,
            config={"n": n, "ell": ell, "ell_prime": ell_prime, "lam": lam},
        ),
    )


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
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outdir, config, status="running")
    start = time.time()
    try:
        RUNNERS[config.experiment](config, outdir)
    except Exception as exc:  # runtime failure -> exit 3 with diagnostic
        print(f"{config.experiment}: {exc}", file=sys.stderr)
        _write_manifest(outdir, config, status="failed", wall_time=time.time() - start)
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
