"""Per-layer metrics derived from a traced run.

`HOOKS` add work counters (steps, rows, simplices) to the spans of the
functions whose sizes the per-layer metrics need. `per_layer_metrics`
turns the tracer's totals over the traced passes into per-pass figures;
the names are the `per_layer` entries of BENCHMARK.json.
"""

from __future__ import annotations

import math
from typing import Dict, List

from tracer import TRACED_MODULES, Tracer

EXPERIMENT_NAMES = (
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


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _series_steps(args, kwargs, result) -> Dict[str, float]:
    return {"steps": len(result.samples) - 1}


def _solve_shape(args, kwargs, result) -> Dict[str, float]:
    rows, cols = _arg(args, kwargs, 0, "problem").states.shape
    return {"rows": rows, "cols": cols}


def _lyapunov_iters(args, kwargs, result) -> Dict[str, float]:
    return {"iterations": result.n_iterations}


def _newton_iters(args, kwargs, result) -> Dict[str, float]:
    return {"iterations": result.iterations}


def _rips_sizes(args, kwargs, result) -> Dict[str, float]:
    counts = {"dim1": 0, "dim2": 0}
    for _, dim, _ in result.simplices:
        if dim in (1, 2):
            counts[f"dim{dim}"] += 1
    return counts


def _persistence_sizes(args, kwargs, result) -> Dict[str, float]:
    simplices = _arg(args, kwargs, 0, "filtration").simplices
    triangles = sum(1 for _, dim, _ in simplices if dim == 2)
    finite_h1 = sum(1 for p in result.pairs if p.degree == 1 and not math.isinf(p.death))
    return {"simplices": len(simplices), "triangles": triangles, "finite_h1": finite_h1}


def _rollout_steps(args, kwargs, result) -> Dict[str, float]:
    return {"rollout_steps": result.n_rollouts * result.horizon}


HOOKS = {
    "dynsys.integrate_lorenz": _series_steps,
    "reservoir.drive": _series_steps,
    "training.solve_offline": _solve_shape,
    "diagnostics.lyapunov_qr": _lyapunov_iters,
    "diagnostics.newton_fixed_point": _newton_iters,
    "topology.rips_filtration": _rips_sizes,
    "topology.persistence": _persistence_sizes,
    "stochastic.value_mc": _rollout_steps,
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer_metrics(
    tracer: Tracer,
    passes: int,
    traced_run_s: float,
    untraced_run_s: float,
    artifact_bytes: int,
) -> Dict[str, float]:
    """Per-pass per-layer figures from `passes` traced workload passes."""
    out: Dict[str, float] = {}
    fn = tracer.get

    def put(key: str, value: float) -> None:
        out[key] = value / passes

    lorenz = fn("dynsys.integrate_lorenz")
    put("dynsys.integrate_lorenz.calls", lorenz.calls)
    put("dynsys.integrate_lorenz.steps", lorenz.counters.get("steps", 0))
    put("dynsys.integrate_lorenz.s", lorenz.busy_s)
    out["dynsys.integrate_lorenz.steps_per_s"] = _rate(lorenz.counters.get("steps", 0), lorenz.busy_s)
    put("dynsys.lorenz_step.calls", fn("dynsys.lorenz_step").calls)
    put("dynsys.lorenz_step_jacobian.calls", fn("dynsys.lorenz_step_jacobian").calls)
    put("dynsys.lorenz_step_jacobian.s", fn("dynsys.lorenz_step_jacobian").busy_s)
    put("dynsys.lorenz_rhs.calls", fn("dynsys.lorenz_rhs").calls)
    put("dynsys.example_drive.s", fn("dynsys.example_drive").busy_s)

    drive = fn("reservoir.drive")
    put("reservoir.drive.calls", drive.calls)
    put("reservoir.drive.steps", drive.counters.get("steps", 0))
    put("reservoir.drive.s", drive.busy_s)
    out["reservoir.drive.steps_per_s"] = _rate(drive.counters.get("steps", 0), drive.busy_s)
    for name in ("autonomous_drive", "generate", "check_condition_C"):
        put(f"reservoir.{name}.s", fn(f"reservoir.{name}").busy_s)

    solve = fn("training.solve_offline")
    put("training.solve_offline.calls", solve.calls)
    put("training.solve_offline.s", solve.busy_s)
    put("training.solve_offline.rows", solve.counters.get("rows", 0))
    put("training.solve_offline.cols", solve.counters.get("cols", 0))

    lyap = fn("diagnostics.lyapunov_qr")
    put("diagnostics.lyapunov_qr.self_s", lyap.self_s)
    out["diagnostics.lyapunov_qr.iter_per_s"] = _rate(lyap.counters.get("iterations", 0), lyap.busy_s)
    newton = fn("diagnostics.newton_fixed_point")
    put("diagnostics.newton_fixed_point.s", newton.busy_s)
    put("diagnostics.newton_fixed_point.iterations", newton.counters.get("iterations", 0))
    put("diagnostics.pca_project.s", fn("diagnostics.pca_project").busy_s)

    put("topology.maxmin_subsample.s", fn("topology.maxmin_subsample").busy_s)
    rips = fn("topology.rips_filtration")
    put("topology.rips_filtration.s", rips.busy_s)
    put("topology.simplices.dim1", rips.counters.get("dim1", 0))
    put("topology.simplices.dim2", rips.counters.get("dim2", 0))
    pers = fn("topology.persistence")
    put("topology.persistence.s", pers.busy_s)
    out["topology.persistence.simplices_per_s"] = _rate(pers.counters.get("simplices", 0), pers.busy_s)
    triangles = pers.counters.get("triangles", 0)
    out["topology.persistence.paired_ratio"] = (
        pers.counters.get("finite_h1", 0) / triangles if triangles else 0.0
    )

    mc = fn("stochastic.value_mc")
    put("stochastic.value_mc.s", mc.busy_s)
    put("stochastic.rollout_steps", mc.counters.get("rollout_steps", 0))
    out["stochastic.rollout_steps_per_s"] = _rate(mc.counters.get("rollout_steps", 0), mc.busy_s)
    put("stochastic.sample_path.s", fn("stochastic.sample_path").busy_s)

    for name in ("eval_features", "eval_feature_laplacian", "solve_dirichlet_offline",
                 "grid_rms_error", "solution_field_csv"):
        put(f"pde.{name}.s", fn(f"pde.{name}").busy_s)

    for layer in TRACED_MODULES:
        put(f"{layer}.self_s", tracer.self_by_prefix(layer))
    for name in EXPERIMENT_NAMES:
        put(f"cli.experiment.{name}.s", fn(f"cli.experiment.{name}").busy_s)
    put("cli.runner.self_s", tracer.self_by_prefix("cli.experiment"))
    put("cli.artifact_bytes", artifact_bytes)

    accounted = sum(out[f"{layer}.self_s"] for layer in TRACED_MODULES) + out["cli.runner.self_s"]
    out["trace.run_s"] = traced_run_s
    out["trace.overhead_s"] = traced_run_s - untraced_run_s
    out["trace.accounted_ratio"] = accounted / traced_run_s if traced_run_s > 0 else 0.0
    return out


COUNT_SUFFIXES = (".calls", ".steps", ".rows", ".cols", ".iterations", ".dim1", ".dim2", "rollout_steps")


def layer_unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio"


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    return list(per_layer_metrics(Tracer(), 1, 1.0, 1.0, 0))

