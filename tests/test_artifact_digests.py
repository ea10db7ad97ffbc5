"""Every experiment's artifacts stay byte-identical to committed digests.

`artifact_digests.json` holds the sha256 of every artifact (the manifest
excluded: it records a wall time and an output directory) that each
config of CONFIGS writes at each of SEEDS, and the environment that
wrote them. The test reruns the configs and compares. Equal bytes pass
on any environment; differing bytes fail, and the message names the
changed artifacts and both environments, because the same code can
round differently under another numpy, BLAS or CPU.

A change that moves artifacts by design rewrites the file with
`python tests/update_artifact_digests.py`, so the moved artifacts show
in its diff.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path
from typing import Dict

import numpy as np

from echolab.cli import EXIT_OK, EXPERIMENTS, ExperimentConfig, run
from oracles import strict_json

DIGESTS = Path(__file__).with_name("artifact_digests.json")
SEEDS = (7, 42)
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)

# Label -> (experiment, parameters): every experiment, both homology
# sources, at sizes that run in well under a second.
CONFIGS = {
    "lorenz_train": ("lorenz_train", {"n": 20, "ell": 300}),
    "lorenz_forecast": ("lorenz_forecast", {"n": 20, "ell": 300, "horizon": 50}),
    "fixed_point": ("fixed_point", {"n": 20, "ell": 300}),
    "lyapunov": ("lyapunov", {"n_iter": 1000}),
    "homology_hexagon": ("homology", {"source": "hexagon"}),
    "homology_lorenz": (
        "homology",
        {"source": "lorenz", "ell": 1000, "subsample": 60, "max_eps": 8.0},
    ),
    "gs_examples": ("gs_examples", {"n_steps": 200, "burn_in": 50}),
    "embedding_check": ("embedding_check", {"trials": 5}),
    "value_learn": ("value_learn", {"length": 40}),
    "pde_dirichlet": ("pde_dirichlet", {"n": 40, "ell": 40, "ell_prime": 40}),
}


def environment() -> Dict[str, object]:
    """numpy, its BLAS, the CPU model and the BLAS thread variables."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            names = (line for line in info if line.startswith("model name"))
            cpu = next(names).split(":", 1)[1].strip()
    except (OSError, StopIteration):
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def artifact_digests(workdir: Path) -> Dict[str, str]:
    """sha256 of every artifact, keyed 'label/seed/file', each config run
    through `cli.run` into its own directory under `workdir`. Every JSON
    artifact must parse as strict JSON."""
    digests = {}
    for label, (experiment, params) in CONFIGS.items():
        for seed in SEEDS:
            outdir = workdir / label / str(seed)
            if run(ExperimentConfig(experiment, seed, str(outdir), dict(params))) != EXIT_OK:
                raise RuntimeError(f"{label} failed at seed {seed}")
            for path in sorted(outdir.iterdir()):
                if path.name != "manifest.json":
                    if path.suffix == ".json":
                        strict_json(path.read_text())
                    key = f"{label}/{seed}/{path.name}"
                    digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_configs_cover_every_experiment():
    assert {experiment for experiment, _ in CONFIGS.values()} == set(EXPERIMENTS)
    assert {"hexagon", "lorenz"} <= {params.get("source") for _, params in CONFIGS.values()}


def test_artifacts_match_the_committed_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    got = artifact_digests(tmp_path)
    want = recorded["digests"]
    changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    here = environment()
    same = "the same environment" if here == recorded["environment"] else "a different environment"
    assert not changed, (
        f"{len(changed)} artifact(s) differ from {DIGESTS.name} on {same}: {changed}; "
        f"recorded on {recorded['environment']}, run on {here}. If the change is by "
        f"design, run tests/update_artifact_digests.py and name the artifacts in CHANGES.md."
    )
