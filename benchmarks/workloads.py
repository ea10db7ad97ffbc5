"""Workload definitions: the experiment configs each pass runs, and the
checks and quality figures read back from their artifacts.

A workload pass is a list of `Step`s, each one `echolab run` config. The
configs are derived from the workload seed only. `tiny=True` gives the
same experiments at toy sizes; the benchmark runs it once as a warm-up
and the tests use it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

# Lorenz reference values (sigma=10, rho=28, beta=8/3).
LORENZ_EXPONENTS = (0.9056, 0.0, -14.5723)
LORENZ_TRACE = -(10.0 + 1.0 + 8.0 / 3.0)
FORECAST_THRESHOLD = 5.0  # |forecast - truth| that ends the valid window

# Stated tolerances of the output checks.
ZETA_RMS_MAX = 2.0
EIG_MATCH_MAX = 0.5
LYAP_SUM_TOL = 1e-3
LYAP_ZERO_TOL = 0.02
LYAP_ERR_MAX = 0.05
H1_GAP_MIN = 2.0
VALUE_TOL = 1e-6
PDE_GRID_RMS_MAX = 1e-4
GS_MIN_GAP = 0.5
HEXAGON_BETTI = {"at_1": [1, 1], "at_sqrt3": [1, 1, 0], "at_2": [1, 0, 0]}

SMALL_SUITE_SEEDS = 2  # config seeds looped per small_suite pass


@dataclass
class Step:
    """One experiment run of a pass."""

    label: str  # unique within the pass; names the output directory
    experiment: str
    seed: int
    params: Dict[str, object] = field(default_factory=dict)

    def config_text(self, output_dir: str) -> str:
        lines = [
            f"experiment = {self.experiment}",
            f"seed = {self.seed}",
            f"output_dir = {output_dir}",
        ]
        lines += [f"params.{k} = {v}" for k, v in sorted(self.params.items())]
        return "\n".join(lines) + "\n"


def esn_pipeline(seed: int, tiny: bool) -> List[Step]:
    size = {"n": 20, "ell": 300, "horizon": 50} if tiny else {"n": 300, "ell": 10_000}
    train = {k: v for k, v in size.items() if k != "horizon"}
    return [
        Step("lorenz_train", "lorenz_train", seed, dict(train)),
        Step("lorenz_forecast", "lorenz_forecast", seed, dict(size)),
        Step("fixed_point", "fixed_point", seed, dict(train)),
    ]


def lyapunov(seed: int, tiny: bool) -> List[Step]:
    return [Step("lyapunov", "lyapunov", seed, {"n_iter": 300 if tiny else 20_000})]


def attractor_h1(seed: int, tiny: bool) -> List[Step]:
    params = {"source": "lorenz", "ell": 8000, "subsample": 300, "max_eps": 10.0}
    if tiny:
        params.update(ell=1000, subsample=60, max_eps=8.0)
    return [Step("homology_lorenz", "homology", seed, params)]


def small_suite(seed: int, tiny: bool) -> List[Step]:
    steps = []
    for k in range(1 if tiny else SMALL_SUITE_SEEDS):
        s = seed * SMALL_SUITE_SEEDS + k
        small = {
            "value_learn": {"length": 40} if tiny else {},
            "pde_dirichlet": {"n": 40, "ell": 40, "ell_prime": 40} if tiny else {},
            "gs_examples": {"n_steps": 200, "burn_in": 50} if tiny else {},
            "embedding_check": {"trials": 5} if tiny else {},
        }
        for experiment, params in small.items():
            steps.append(Step(f"{experiment}-{s}", experiment, s, params))
        steps.append(Step(f"homology_hexagon-{s}", "homology", s, {"source": "hexagon"}))
    return steps


WORKLOADS: Dict[str, Callable[[int, bool], List[Step]]] = {
    "esn_pipeline": esn_pipeline,
    "lyapunov": lyapunov,
    "attractor_h1": attractor_h1,
    "small_suite": small_suite,
}


# -- reading artifacts back -----------------------------------------------------


def _json(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())


def forecast_valid_steps(outdir: Path) -> int:
    """Steps until |forecast - truth| first exceeds FORECAST_THRESHOLD."""
    lines = (outdir / "forecast.csv").read_text().splitlines()[1:]
    for k, line in enumerate(lines):
        _, truth, forecast = (float(v) for v in line.split(","))
        if not abs(forecast - truth) <= FORECAST_THRESHOLD:
            return k
    return len(lines)


def _check_lorenz_train(outdir: Path, tiny: bool) -> Tuple[Dict[str, float], List[str]]:
    rms = float(_json(outdir, "fit.json")["rms"])
    bad = [] if tiny or rms <= ZETA_RMS_MAX else [f"fit rms {rms:.4g} > {ZETA_RMS_MAX}"]
    return {"zeta_fit_rms": rms}, bad


def _check_lorenz_forecast(outdir: Path, tiny: bool) -> Tuple[Dict[str, float], List[str]]:
    summary = _json(outdir, "forecast_summary.json")
    bad = [] if summary["bounded"] else ["autonomous run is unbounded"]
    return {"forecast_valid_steps": forecast_valid_steps(outdir)}, bad


def _check_fixed_point(outdir: Path, tiny: bool) -> Tuple[Dict[str, float], List[str]]:
    match = _json(outdir, "eigenvalue_match.json")
    err = max(match["match_distances"])
    bad = [] if tiny or err <= EIG_MATCH_MAX else [f"eigenvalue match {err:.4g} > {EIG_MATCH_MAX}"]
    return {"eig_match_err": err}, bad


def _check_lyapunov(outdir: Path, tiny: bool) -> Tuple[Dict[str, float], List[str]]:
    exps = _json(outdir, "lyapunov.json")["exponents"]
    err = max(abs(a - b) for a, b in zip(exps, LORENZ_EXPONENTS))
    bad = []
    if abs(sum(exps) - LORENZ_TRACE) > LYAP_SUM_TOL:
        bad.append(f"exponent sum {sum(exps):.6g} != {LORENZ_TRACE:.6g}")
    if not tiny:
        if abs(exps[1]) > LYAP_ZERO_TOL:
            bad.append(f"second exponent {exps[1]:.4g} not ~0")
        if err > LYAP_ERR_MAX:
            bad.append(f"exponent error {err:.4g} > {LYAP_ERR_MAX}")
    return {"lyapunov_err": err}, bad


def _check_homology(outdir: Path, tiny: bool) -> Tuple[Dict[str, float], List[str]]:
    if (outdir / "betti.json").exists():
        profile = _json(outdir, "betti.json")
        bad = [
            f"hexagon betti {key} {profile[key]} != {want}"
            for key, want in HEXAGON_BETTI.items()
            if profile[key][: len(want)] != want
        ]
        return {}, bad
    summary = _json(outdir, "h1_summary.json")
    gap = float(summary["gap_ratio"])
    bad = []
    if not tiny and (len(summary["top_persistences"]) != 2 or not gap >= H1_GAP_MIN):
        bad.append(f"no two dominant H1 loops (gap ratio {gap:.4g} < {H1_GAP_MIN})")
    return {"h1_gap_ratio": gap}, bad


def _check_value_learn(outdir: Path, tiny: bool) -> Tuple[Dict[str, float], List[str]]:
    doc = _json(outdir, "value_learn.json")
    oracle, learned = doc["oracle_value"], doc["learned_value"]
    bad = []
    if max(abs(a - b) for a, b in zip(oracle, learned)) > VALUE_TOL:
        bad.append(f"learned value {learned} != oracle {oracle}")
    # The artifact does not record the rollout's start state, so the MC
    # estimate must match the oracle value of one of the chain's states.
    mc, tol = doc["mc_value_at_last_state"], VALUE_TOL + 4 * doc["mc_stderr"]
    if min(abs(mc - v) for v in oracle) > tol:
        bad.append(f"MC value {mc} matches no oracle value {oracle}")
    return {}, bad


def _check_pde(outdir: Path, tiny: bool) -> Tuple[Dict[str, float], List[str]]:
    grid_rms = _json(outdir, "report.json")["grid_rms"]
    ok = tiny or grid_rms <= PDE_GRID_RMS_MAX
    return {}, [] if ok else [f"grid rms {grid_rms:.4g} > {PDE_GRID_RMS_MAX}"]


def _check_gs(outdir: Path, tiny: bool) -> Tuple[Dict[str, float], List[str]]:
    gap = _json(outdir, "gs_summary.json")["min_gap"]
    return {}, [] if gap > GS_MIN_GAP else [f"branch gap {gap:.4g} <= {GS_MIN_GAP}"]


def _check_embedding(outdir: Path, tiny: bool) -> Tuple[Dict[str, float], List[str]]:
    doc = _json(outdir, "embedding_check.json")
    return {}, [
        f"{key} {doc[key]} of {doc['trials']}"
        for key in ("condition_D_pass", "condition_C_pass")
        if doc[key] != doc["trials"]
    ]


CHECKS = {
    "lorenz_train": _check_lorenz_train,
    "lorenz_forecast": _check_lorenz_forecast,
    "fixed_point": _check_fixed_point,
    "lyapunov": _check_lyapunov,
    "homology": _check_homology,
    "value_learn": _check_value_learn,
    "pde_dirichlet": _check_pde,
    "gs_examples": _check_gs,
    "embedding_check": _check_embedding,
}


def check_step(step: Step, outdir: Path, exit_code: int, tiny: bool = False):
    """Quality figures and a list of failed checks for one experiment run."""
    if exit_code != 0:
        return {}, [f"exit code {exit_code}"]
    try:
        status = _json(outdir, "manifest.json").get("status")
        if status != "complete":
            return {}, [f"manifest status {status!r}"]
        return CHECKS[step.experiment](outdir, tiny)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return {}, [f"unreadable artifacts: {type(exc).__name__}: {exc}"]


def artifact_digest(outdir: Path) -> Tuple[str, int]:
    """SHA-256 over every artifact, and their total size in bytes.

    The manifest's wall time and output directory legitimately differ
    between identical runs, so they are left out of the digest.
    """
    digest = hashlib.sha256()
    size = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        size += len(data)
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("wall_time_s", None)
            doc.pop("output_dir", None)
            data = json.dumps(doc, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest(), size

