"""echolab benchmark: runs `echolab run` experiment pipelines in one process.

    python3 benchmarks/run.py --workload esn_pipeline --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload is a closed loop: one caller runs its experiment configs
back to back through `echolab.cli.run`, pass after pass, until the run
time is spent. With `--trace 0` it reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of traced passes alternated with
untraced ones. Every experiment's artifacts are checked and hashed;
a failed check or a hash that differs from the first pass (or from an
earlier run of the same source, workload and seed) counts as a failed
operation. The last line of standard output is one JSON object. See
benchmarks/README.md for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from layers import HOOKS, layer_unit, per_layer_metrics
from tracer import Tracer
from workloads import WORKLOADS, Step, artifact_digest, check_step

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
OUT = Path(ROOT) / ".bench_out"
SETUP_REPEATS = 9

# Imports the CLI and loads and validates each config named on the command
# line, in a fresh interpreter, exactly as `echolab run` would before running.
SETUP_PROGRAM = """
import sys
sys.path.insert(0, sys.argv[1])
from echolab import cli
for path in sys.argv[2:]:
    problems = cli.validate(cli.load_config(path))
    if problems:
        sys.exit("invalid config %s: %s" % (path, problems))
"""

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(SRC, "echolab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    head = Path(ROOT, ".git", "HEAD")
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return Path(ROOT, ".git", ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_environment() -> None:
    """Pin every BLAS thread pool to the usable CPU count (before numpy
    loads; subprocesses inherit it) and drop the CLI's seed override."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("ECHOLAB_SEED", None)


def machine_facts(np) -> Dict[str, object]:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


class Runner:
    """Runs the passes of one workload and collects checks and hashes."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path, tiny: bool = False):
        self.cli = cli
        self.tiny = tiny
        self.steps: List[Step] = WORKLOADS[workload](seed, tiny)
        self.config_paths: List[Path] = []
        workdir.mkdir(parents=True, exist_ok=True)
        for i, step in enumerate(self.steps):
            path = workdir / f"{i:02d}-{step.label}.cfg"
            path.write_text(step.config_text(str(workdir / f"{i:02d}-{step.label}")))
            self.config_paths.append(path)
        self.configs = [cli.load_config(str(p)) for p in self.config_paths]
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.quality: Dict[str, List[float]] = {}
        self.first_digests: List[str] = []
        self.artifact_bytes = 0

    def one_pass(self, tracer=None) -> float:
        """Run every step once; returns the time spent inside `cli.run`."""
        elapsed = 0.0
        codes = []
        for step, config in zip(self.steps, self.configs):
            start = time.perf_counter()
            if tracer is None:
                code = self.cli.run(config)
            else:
                code = tracer.span(f"cli.experiment.{step.experiment}", self.cli.run, config)
            elapsed += time.perf_counter() - start
            codes.append(code)
        self._check(codes)
        return elapsed

    def _check(self, codes: List[int]) -> None:
        digests = []
        self.artifact_bytes = 0
        for i, (step, config, code) in enumerate(zip(self.steps, self.configs, codes)):
            self.attempted += 1
            outdir = Path(config.output_dir)
            quality, bad = check_step(step, outdir, code, tiny=self.tiny)
            digest, nbytes = artifact_digest(outdir) if outdir.is_dir() else ("", 0)
            digests.append(digest)
            self.artifact_bytes += nbytes
            if not bad and self.first_digests and digest != self.first_digests[i]:
                bad = ["artifacts differ from the first pass"]
            for key, value in quality.items():
                self.quality.setdefault(key, []).append(value)
            self._fail(step, bad)
        if not self.first_digests:
            self.first_digests = digests

    def _fail(self, step: Step, messages: List[str]) -> None:
        if messages:
            self.failed += 1
            self.failures += [f"{step.label}: {msg}" for msg in messages]

    def compare_record(self, record: Path) -> None:
        """Compare the first pass's hashes with an earlier run of the same
        source, workload and seed; the first clean run writes the record."""
        if self.failed:
            return
        if record.exists():
            earlier = json.loads(record.read_text())
            for step, old, new in zip(self.steps, earlier, self.first_digests):
                if old != new:
                    self._fail(step, ["artifacts differ from an earlier run"])
            return
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.first_digests))
        os.replace(tmp, record)


def measure_setup(config_paths: List[Path]) -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    loading and validating this workload's configs."""
    times = []
    args = [sys.executable, "-c", SETUP_PROGRAM, SRC] + [str(p) for p in config_paths]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr.decode(errors='replace').strip()}")
    return statistics.median(times)


def run_workload(args) -> Tuple[dict, dict]:
    """One benchmark run: the contract's result object and a fuller report."""
    if not Path(SRC, "echolab", "cli.py").is_file():
        raise SystemExit(f"echolab sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import numpy as np
    from echolab import cli

    workdir = OUT / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    untraced: List[float] = []
    traced: List[float] = []
    tracer = Tracer(hooks=HOOKS)
    try:
        warm = Runner(cli, args.workload, args.seed, workdir / "warmup", tiny=True)
        runner = Runner(cli, args.workload, args.seed, workdir / "run")
        setup_s = None if args.trace else measure_setup(runner.config_paths)
        warm.one_pass()  # fills lazy imports, BLAS pools and allocator caches
        for failure in warm.failures:
            print(f"warm-up: {failure}", file=sys.stderr)
        start = time.perf_counter()
        while True:
            untraced.append(runner.one_pass())
            if args.trace:
                with tracer:
                    traced.append(runner.one_pass(tracer))
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Artifacts are byte-identical for one source, numpy build and BLAS
        # thread count; a different thread count may change the last bits.
        build = f"{source_digest()}-np{np.__version__}-t{os.environ['OPENBLAS_NUM_THREADS']}"
        runner.compare_record(OUT / "digests" / build / f"{args.workload}-s{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(
            tracer,
            len(traced),
            traced_run_s=statistics.fmean(traced),
            untraced_run_s=statistics.fmean(untraced),
            artifact_bytes=runner.artifact_bytes,
        )
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "run_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END_UNITS)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_times_s": untraced,
        "traced_pass_times_s": traced,
        "failed_ratio": runner.failed / runner.attempted,
        "quality": {k: statistics.median(v) for k, v in runner.quality.items()},
        "failures": runner.failures,
        "machine": machine_facts(np),
    }
    return result, report


QUALITY_UNITS = {
    "zeta_fit_rms": "1",
    "forecast_valid_steps": "steps",
    "eig_match_err": "1",
    "lyapunov_err": "1/time",
    "h1_gap_ratio": "ratio",
}


def print_report(result: dict, report: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"passes {len(report['pass_times_s'])} untraced, {len(report['traced_pass_times_s'])} traced")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:<14.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<44} {report['failed_ratio']:<14.6g} "
          f"({result['failed']} of {result['attempted']} experiment runs)")
    for name, value in report["quality"].items():
        print(f"  {name:<44} {value:<14.6g} {QUALITY_UNITS[name]}")
    for key in ("pass_times_s", "traced_pass_times_s"):
        if report[key]:
            print(f"  {key} " + " ".join(f"{t:.4f}" for t in report[key]))
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("  machine " + json.dumps(report["machine"], sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own fresh process; prints each one's report."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="echolab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    result, report = run_workload(args)
    print_report(result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
