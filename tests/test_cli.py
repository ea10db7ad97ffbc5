import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from echolab.cli import (
    DEFAULT_BURN_IN,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    EXPERIMENTS,
    PARAMETERS,
    RUNNERS,
    ExperimentConfig,
    _distinct_texts,
    csv_text,
    load_config,
    main,
    parse_config_text,
    run,
    train_lorenz_readout,
    validate,
    wing_start_state,
)
from echolab.diagnostics import esn_jacobian, lorenz_linearization_eigs, newton_fixed_point
from echolab.dynsys import LorenzParams, TimeSeries, circle_rotation, integrate_lorenz
from echolab.reservoir import ReservoirSpec, autonomous_drive, autonomous_map, drive
from echolab.topology import attractor_h1_experiment, hexagon_example_filtration, persistence
from oracles import csv_text_reference, iterate_with_step_check


def _benchmark_workloads():
    """The benchmark's workload table, read from its file in this checkout."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCHMARK_WORKLOADS = _benchmark_workloads()
# Every experiment the benchmark runs, Lorenz `homology` included, at its warm-up sizes.
TINY_STEPS = [step for name in sorted(BENCHMARK_WORKLOADS) for step in BENCHMARK_WORKLOADS[name](1, True)]


def homology_diagram(source):
    """The persistence diagram and config parameters of a `homology`
    source: the hexagon, or the tiny Lorenz config."""
    if source == "hexagon":
        return persistence(hexagon_example_filtration()), {}
    (step,) = BENCHMARK_WORKLOADS["attractor_h1"](1, True)
    ell = step.params["ell"]
    points = integrate_lorenz(LorenzParams(), ell).samples[ell // 2 :]
    diagram = attractor_h1_experiment(
        points, subsample=step.params["subsample"], max_eps=step.params["max_eps"]
    ).diagram
    return diagram, step.params


def write_config(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_flat_keys_and_namespaces(self):
        flat = parse_config_text(
            """
            experiment = value_learn   # trailing comment
            seed = 7
            output_dir = out
            params.gamma = 0.9
            params.length = 200
            """
        )
        assert flat["experiment"] == "value_learn"
        assert flat["seed"] == 7
        assert flat["params.gamma"] == 0.9

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("just some words")

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        text = "experiment = homology\nseed = 1\n# seed = 3\n seed=2\noutput_dir = out\n"
        with pytest.raises(ValueError, match="^line 4: duplicate key seed$"):
            parse_config_text(text)
        assert main(["validate", write_config(tmp_path, text)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "config error: line 4: duplicate key seed\n"


class TestValidate:
    def test_missing_seed_named(self):
        config = ExperimentConfig(experiment="homology", seed=-1, output_dir="out")
        problems = validate(config)
        assert any(p.startswith("seed") for p in problems)

    def test_gamma_range_diagnostic(self):
        config = ExperimentConfig(
            experiment="value_learn", seed=1, output_dir="out",
            parameters={"gamma": 1.0},
        )
        problems = validate(config)
        assert any("gamma" in p for p in problems)

    def test_valid_config_empty_list(self):
        config = ExperimentConfig(
            experiment="value_learn", seed=1, output_dir="out",
            parameters={"gamma": 0.9},
        )
        assert validate(config) == []

    def test_all_violations_reported(self):
        config = ExperimentConfig(experiment="nope", seed=-1, output_dir="")
        assert len(validate(config)) == 3

    @pytest.mark.parametrize(
        "experiment,key,bad,good",
        [
            ("homology", "source", "lorenzz", "lorenz"),
            ("lyapunov", "tau", 0, 0.01),
            ("lorenz_train", "lam", -1e-9, 0),
            ("lorenz_train", "n", 0, 1),
            ("lorenz_train", "ell", 199, 200),
            ("lyapunov", "n_iter", 99, 100),
            ("value_learn", "gamma", -0.1, 0),
            ("value_learn", "gamma", float("nan"), 0.5),
            ("lorenz_forecast", "horizon", -1, 1),
            ("lorenz_forecast", "n", 2, 3),
            ("value_learn", "length", 2, 3),
            ("gs_examples", "n_steps", 1, 2),
            ("gs_examples", "burn_in", 0, 1),
            ("gs_examples", "burn_in", 200, 199),
            ("homology", "ell", 1000.5, 1000),
            ("homology", "subsample", 49, 50),
            ("homology", "subsample", 502, 501),
            ("homology", "max_eps", 0, 0.5),
            ("homology", "max_eps", float("inf"), 0.5),
            ("homology", "max_eps", float("nan"), 0.5),
            ("lorenz_train", "lam", float("inf"), 1e-9),
            ("embedding_check", "n", 0, 1),
            ("embedding_check", "n", -1, 1),
            ("embedding_check", "n", 2.5, 2),
            ("embedding_check", "trials", 0, 1),
            ("embedding_check", "trials", -1, 1),
            ("embedding_check", "trials", 2.5, 3),
            ("embedding_check", "period", 0, 1),
            ("embedding_check", "period", -1, 1),
            ("embedding_check", "period", 2.5, 2),
            ("pde_dirichlet", "n", 0, 1),
            ("pde_dirichlet", "ell", 0, 1),
            ("pde_dirichlet", "ell_prime", 0, 1),
            ("pde_dirichlet", "lam", -1.0, 0.0),
        ],
    )
    def test_parameter_rule(self, tmp_path, experiment, key, bad, good):
        # Valid surroundings for rules that involve other keys.
        base = {
            "gs_examples": {"n_steps": 200, "burn_in": 1},
            "homology": {"source": "lorenz", "ell": 1000, "subsample": 60},
        }.get(experiment, {})
        out = tmp_path / "out"
        config = ExperimentConfig(
            experiment, seed=1, output_dir=str(out), parameters={**base, key: bad}
        )
        problems = validate(config)
        assert len(problems) == 1 and problems[0].startswith(f"params.{key}:")
        assert run(config) == EXIT_VALIDATION
        assert not out.exists()
        config.parameters[key] = good
        assert validate(config) == []

    def test_default_parameters_valid(self):
        # With no parameters, every table default meets its own rule.
        for experiment in EXPERIMENTS:
            assert validate(ExperimentConfig(experiment, seed=1, output_dir="out")) == []
        lorenz = {"source": "lorenz"}
        assert validate(ExperimentConfig("homology", 1, "out", parameters=lorenz)) == []

    def test_runners_take_exactly_their_table_keys(self):
        # The table is the one list of each experiment's knobs: a runner
        # may not read a key it does not declare, nor declare one it lacks.
        # The seed is its one positional parameter.
        assert list(RUNNERS) == list(PARAMETERS) == list(EXPERIMENTS)
        for experiment, runner in RUNNERS.items():
            parameters = inspect.signature(runner).parameters.values()
            positional = [p.name for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD]
            keyword_only = [p.name for p in parameters if p.kind is p.KEYWORD_ONLY]
            assert positional == ["seed"], experiment
            assert keyword_only == list(PARAMETERS[experiment]), experiment
            assert len(positional) + len(keyword_only) == len(parameters), experiment
            assert all(p.default is p.empty for p in parameters), experiment

    def test_unknown_parameter_rejected(self, tmp_path):
        # A misspelt key is reported, not silently replaced by the default.
        out = tmp_path / "out"
        config = ExperimentConfig("lyapunov", 1, str(out), parameters={"n_iters": 300})
        assert validate(config) == ["params.n_iters: unknown; expected one of n_iter, tau"]
        assert run(config) == EXIT_VALIDATION
        assert not out.exists()

    def test_fixed_point_takes_no_tau(self):
        # The reference eigenvalues use the step of the integrated orbit,
        # so a tau key would move the reference alone.
        config = ExperimentConfig("fixed_point", 1, "out", parameters={"tau": 0.02})
        assert validate(config) == ["params.tau: unknown; expected one of n, ell, lam"]

    def test_lorenz_keys_checked_for_hexagon(self):
        # The table checks every key of an experiment, including those
        # its chosen source does not read.
        config = ExperimentConfig("homology", 1, "out", parameters={"ell": 0, "max_eps": -1})
        assert [p.split(":")[0] for p in validate(config)] == ["params.ell", "params.max_eps"]

    def test_shortest_value_learn_runs(self, tmp_path):
        # length 3 gives two transitions, enough for the two-weight readout.
        config = ExperimentConfig("value_learn", 1, str(tmp_path), parameters={"length": 3})
        assert run(config) == EXIT_OK

    @pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
    @pytest.mark.parametrize("workload", sorted(BENCHMARK_WORKLOADS))
    def test_benchmark_configs_valid(self, tmp_path, workload, tiny):
        # Every config the benchmark writes, at its seeds 1-3, passes
        # `validate` once it has gone through the config file parser.
        for seed in (1, 2, 3):
            for step in BENCHMARK_WORKLOADS[workload](seed, tiny):
                path = write_config(tmp_path, step.config_text(str(tmp_path / step.label)))
                config = load_config(path)
                assert (config.experiment, config.seed) == (step.experiment, step.seed)
                assert validate(config) == []

    def test_parameter_rules_reported_together(self):
        config = ExperimentConfig(
            "lorenz_forecast", seed=1, output_dir="out", parameters={"lam": -1.0, "horizon": 0}
        )
        assert [p.split(":")[0] for p in validate(config)] == ["params.lam", "params.horizon"]


class TestRun:
    def test_unknown_experiment_exit_code(self, tmp_path):
        config = ExperimentConfig(experiment="nope", seed=1, output_dir=str(tmp_path))
        assert run(config) == EXIT_VALIDATION

    def test_homology_hexagon_artifacts(self, tmp_path):
        config = ExperimentConfig(
            experiment="homology", seed=1, output_dir=str(tmp_path / "out")
        )
        assert run(config) == EXIT_OK
        outdir = tmp_path / "out"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["version"]
        assert "error" not in manifest
        betti = json.loads((outdir / "betti.json").read_text())
        # One entry per degree below the skeleton dimension, 3.
        assert betti == {"at_1": [1, 1, 0], "at_sqrt3": [1, 1, 0], "at_2": [1, 0, 0]}
        assert (outdir / "boundary_2.csv").exists()
        assert (outdir / "diagram.csv").exists()

    @pytest.mark.parametrize("source", ["hexagon", "lorenz"])
    def test_diagram_csv_holds_the_persistence_rows(self, tmp_path, source):
        # diagram.csv holds the rows of `persistence`'s diagram as a
        # cell-by-cell writer formats them.
        diagram, params = homology_diagram(source)
        config = ExperimentConfig("homology", 1, str(tmp_path), parameters=params)
        assert run(config) == EXIT_OK
        columns = [diagram.degree, diagram.birth, diagram.death]
        want = csv_text_reference(["degree", "birth", "death"], columns)
        assert (tmp_path / "diagram.csv").read_text() == want

    @pytest.mark.parametrize("step", TINY_STEPS, ids=lambda step: step.label)
    def test_reproducible_bytes(self, tmp_path, step):
        # Two runs of one config write the same artifacts byte for byte;
        # only the manifest's wall time and output directory may differ.
        outputs = []
        for run_dir in ("a", "b"):
            outdir = tmp_path / run_dir
            config = ExperimentConfig(step.experiment, step.seed, str(outdir), dict(step.params))
            assert run(config) == EXIT_OK
            files = {path.name: path.read_bytes() for path in outdir.iterdir()}
            manifest = json.loads(files.pop("manifest.json"))
            assert manifest.pop("output_dir") == str(outdir)
            assert manifest.pop("wall_time_s") >= 0
            outputs.append((files, manifest))
        assert outputs[0] == outputs[1]
        assert outputs[0][0]

    @pytest.mark.parametrize("step", TINY_STEPS, ids=lambda step: step.label)
    def test_writes_what_the_runner_returns(self, tmp_path, step):
        # One file per artifact beside the manifest: CSV text as it is,
        # a dict as its json.dumps.
        config = ExperimentConfig(step.experiment, step.seed, str(tmp_path), dict(step.params))
        assert run(config) == EXIT_OK
        table = PARAMETERS[step.experiment]
        params = {key: step.params.get(key, param.default) for key, param in table.items()}
        artifacts = RUNNERS[step.experiment](step.seed, **params)
        files = {path.name: path.read_text() for path in tmp_path.iterdir()}
        assert files.pop("manifest.json")
        assert files == {
            name: content if isinstance(content, str) else json.dumps(content)
            for name, content in artifacts.items()
        }

    def test_tiny_steps_cover_every_experiment(self):
        assert {step.experiment for step in TINY_STEPS} == set(EXPERIMENTS)
        assert {"hexagon", "lorenz"} <= {step.params.get("source") for step in TINY_STEPS}

    def test_gs_examples_artifacts(self, tmp_path):
        config = ExperimentConfig(
            experiment="gs_examples", seed=0, output_dir=str(tmp_path),
            parameters={"n_steps": 800, "burn_in": 200},
        )
        assert run(config) == EXIT_OK
        summary = json.loads((tmp_path / "gs_summary.json").read_text())
        assert summary["min_gap"] > 0.5

    def test_gs_branches_match_the_per_branch_iteration(self):
        # Each branch of the one two-unit drive carries the bits of the
        # scalar map x -> tanh(2x + z) iterated alone from its start.
        n_steps, burn_in = 300, 50
        angles = circle_rotation(2 * np.pi / 100, 0.0, n_steps - 1)
        z = TimeSeries(step=1.0, samples=0.5 * np.sin(angles.samples))
        fmap = lambda x, z: np.tanh(2.0 * x + z)
        minus, plus = (iterate_with_step_check(fmap, z, np.array([x0]))[:, 0] for x0 in (-0.9, 0.9))
        rows = np.arange(burn_in, n_steps)
        want = csv_text_reference(
            ["angle", "x_minus", "x_plus"], [angles.samples[rows - 1, 0], minus[rows], plus[rows]]
        )
        artifacts = RUNNERS["gs_examples"](0, n_steps=n_steps, burn_in=burn_in)
        assert artifacts["gs_branches.csv"] == want

    def test_embedding_check_all_pass(self, tmp_path):
        config = ExperimentConfig(
            experiment="embedding_check", seed=3, output_dir=str(tmp_path),
            parameters={"trials": 10, "n": 6},
        )
        assert run(config) == EXIT_OK
        doc = json.loads((tmp_path / "embedding_check.json").read_text())
        assert doc["condition_D_pass"] == 10
        assert doc["condition_C_pass"] == 10

    @pytest.mark.parametrize("seed", [14, 15])
    def test_embedding_check_matches_the_per_trial_loop(self, seed):
        from oracles import embedding_check_reference

        params = {key: param.default for key, param in PARAMETERS["embedding_check"].items()}
        assert params["trials"] == 200
        artifacts = RUNNERS["embedding_check"](seed, **params)
        assert artifacts == {"embedding_check.json": embedding_check_reference(seed, **params)}

    def test_pde_dirichlet_small(self, tmp_path):
        config = ExperimentConfig(
            experiment="pde_dirichlet", seed=2, output_dir=str(tmp_path),
            parameters={"n": 40, "ell": 40, "ell_prime": 40, "lam": 1e-6},
        )
        assert run(config) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"interior_rms", "boundary_rms", "grid_rms", "config"}
        assert report["config"] == {"n": 40, "ell": 40, "ell_prime": 40, "lam": 1e-6}
        assert report["grid_rms"] < 1.0
        field = (tmp_path / "solution_field.csv").read_text().splitlines()
        assert field[0] == "r,theta,phi_hat,phi_exact,abs_err"
        assert len(field) == 1 + 50 * 200
        # The grid RMS is that of the exported errors, to the bit.
        abs_err = np.array([float(line.split(",")[4]) for line in field[1:]])
        assert report["grid_rms"] == float(np.sqrt(np.mean(abs_err**2)))

    def test_lyapunov_small_run(self, tmp_path):
        # The Lorenz spectrum (0.9056, 0, -14.5723) to 0.05 each, a zero
        # exponent to 0.02 and the sum -(sigma + 1 + beta) to 1e-3.
        config = ExperimentConfig(
            experiment="lyapunov", seed=0, output_dir=str(tmp_path),
            parameters={"n_iter": 20000},
        )
        assert run(config) == EXIT_OK
        doc = json.loads((tmp_path / "lyapunov.json").read_text())
        assert doc["n_iterations"] == 20000
        exponents = np.array(doc["exponents"])
        assert exponents.shape == (3,)
        assert np.max(np.abs(exponents - [0.9056, 0.0, -14.5723])) < 0.05
        assert abs(exponents[1]) <= 0.02
        assert abs(exponents.sum() + (10.0 + 1.0 + 8.0 / 3.0)) < 1e-3
        # The running means settle: over the last 2000 of the 20000 steps
        # none moves by more than 0.05 (0.013 here; 2.0e-4 at 200k steps).
        assert 0.0 < doc["running_mean_drift"] < 0.05
        # One QR per 50 steps, over which the frame spreads by
        # exp(15.48 * 0.5) ~ 2.3e3, within the 4e3 bound.
        assert doc["reorth_every"] == 50
        assert 2.2e3 < doc["reorth_growth"] < 2.4e3
        trace = (tmp_path / "lyapunov_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,lambda_1,lambda_2,lambda_3"
        assert len(trace) == 1 + 20000 // 100

    def test_manifest_written_before_failure(self, tmp_path, monkeypatch):
        # Force a runtime failure and confirm the crash-forensics
        # manifest landed first.
        import echolab.cli as cli_mod

        def boom(seed, **params):
            raise RuntimeError("deliberate failure")

        monkeypatch.setitem(cli_mod.RUNNERS, "homology", boom)
        config = ExperimentConfig(experiment="homology", seed=1, output_dir=str(tmp_path))
        assert run(config) == EXIT_RUNTIME
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"type": "RuntimeError", "message": "deliberate failure"}

    def test_uncreatable_output_dir_is_a_validation_error(self, tmp_path, capsys):
        # An output_dir below a regular file cannot be made: the run stops
        # with a diagnostic, before any manifest, and no traceback.
        blocker = tmp_path / "file"
        blocker.write_text("")
        config = ExperimentConfig("homology", seed=1, output_dir=str(blocker / "out"))
        assert run(config) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"output_dir: cannot create {blocker / 'out'}: ")
        assert [path.name for path in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("below,reason", [("out", "Not a directory"), ("", "File exists")])
    def test_validate_refuses_an_uncreatable_output_dir(self, tmp_path, capsys, below, reason):
        # What `run` cannot create, `validate` refuses, creating nothing.
        blocker = tmp_path / "file"
        blocker.write_text("")
        outdir = blocker / below if below else blocker
        path = write_config(tmp_path, f"experiment = homology\nseed = 1\noutput_dir = {outdir}\n")
        assert main(["validate", path]) == EXIT_VALIDATION
        assert capsys.readouterr().out == f"output_dir: cannot create {outdir}: {reason}\n"
        assert main(["run", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"output_dir: cannot create {outdir}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt", "file"]

    def test_write_error_fails_the_run(self, tmp_path, monkeypatch):
        # An artifact that cannot be written fails the run like a runner error.
        import echolab.cli as cli_mod

        def unwritable(seed, **params):
            return {"no/such.csv": ""}

        monkeypatch.setitem(cli_mod.RUNNERS, "homology", unwritable)
        config = ExperimentConfig(experiment="homology", seed=1, output_dir=str(tmp_path))
        assert run(config) == EXIT_RUNTIME
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_failed_run_leaves_only_manifest(self, tmp_path, monkeypatch, capsys):
        # Artifacts are written only once the runner returns: a forecast
        # that fails after its orbit and forecast are computed writes none.
        import echolab.cli as cli_mod

        def fail(samples, k):
            raise RuntimeError("deliberate failure")

        monkeypatch.setattr(cli_mod, "explained_variances", fail)
        config = ExperimentConfig(
            "lorenz_forecast", seed=1, output_dir=str(tmp_path),
            parameters={"n": 20, "ell": 300, "horizon": 50},
        )
        assert run(config) == EXIT_RUNTIME
        assert [path.name for path in tmp_path.iterdir()] == ["manifest.json"]
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"
        assert "deliberate failure" in capsys.readouterr().err


class TestCsvText:
    def test_values_keep_the_artifact_formats(self):
        # Integers as integers, -0.0 as -0, inf as inf, floats at .17g:
        # the formats of str(int(v)), "inf" and f"{v:.17g}" they replace.
        col = [3, -0.0, math.inf, 1.0 / 3.0, 100.0]
        lines = csv_text(["v", "w"], [col, np.array(col)]).splitlines()
        old = [f"{v:.17g}" for v in col]
        assert old == ["3", "-0", "inf", "0.33333333333333331", "100"]
        assert lines == ["v,w"] + [f"{v},{v}" for v in old]

    def test_uint8_matrix_without_header(self):
        M = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]], dtype=np.uint8)
        old = "\n".join(",".join(str(int(v)) for v in row) for row in M) + "\n"
        assert csv_text([], M.T) == old

    def test_floats_parse_back_exactly(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        rows = csv_text(["x"], [x]).splitlines()[1:]
        assert np.array_equal(np.array([float(r) for r in rows]), x)

    def test_repeated_values_match_the_cell_by_cell_writer(self):
        # Each column repeats its values, so each is formatted once per
        # distinct bit pattern; the bytes are the row template's.
        n = 40
        columns = {
            "signed_zero": np.tile([0.0, -0.0, 0.0, 1.5], n // 4),
            "extremes": np.tile([math.inf, -math.inf, 5e-324, -5e-324], n // 4),
            "int64": np.tile(np.array([-(2**62), 0, 7, 2**62 + 1], dtype=np.int64), n // 4),
            "uint8": np.tile(np.array([0, 1, 255, 128], dtype=np.uint8), n // 4),
            "bool": np.tile([True, False, False, True], n // 4),
            "constant": np.full(n, 1.0 / 3.0),
        }
        for name, col in columns.items():
            assert _distinct_texts(col) is not None, name
            assert csv_text([name], [col]) == csv_text_reference([name], [col]), name
        header, cols = list(columns), list(columns.values())
        assert csv_text(header, cols) == csv_text_reference(header, cols)
        assert csv_text([], cols) == csv_text_reference([], cols)

    def test_zero_rows(self):
        empty = [np.zeros(0), np.zeros(0, dtype=np.int64)]
        assert csv_text(["a", "b"], empty) == csv_text_reference(["a", "b"], empty) == "a,b\n"
        assert csv_text([], empty) == csv_text_reference([], empty) == "\n"

    def test_both_sides_of_the_half_rule(self):
        # 10 distinct values in 20 rows are formatted once each; 11 are
        # formatted cell by cell. Both write the reference bytes.
        rng = np.random.default_rng(9)
        values = rng.standard_normal(11) * 10.0 ** rng.integers(-300, 300, 11)
        at_half = np.concatenate([values[:10], values[:10]])
        over_half = np.concatenate([values, values[:9]])
        assert _distinct_texts(at_half) is not None
        assert _distinct_texts(over_half) is None
        cols = [at_half, over_half, np.arange(20)]
        assert csv_text(["a", "b", "c"], cols) == csv_text_reference(["a", "b", "c"], cols)


def read_csv(path):
    """Header line and the values of every later row, parsed as floats."""
    lines = path.read_text().splitlines()
    return lines[0], np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


class TestEsnPipelines:
    # n=20, ell=300, horizon=50: the benchmark's warm-up sizes.
    SIZE = {"n": 20, "ell": 300}

    def run_experiment(self, tmp_path, experiment, **params):
        config = ExperimentConfig(
            experiment, seed=1, output_dir=str(tmp_path), parameters={**self.SIZE, **params}
        )
        assert run(config) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert set(manifest) == {
            "experiment", "seed", "output_dir", "parameters", "version", "status", "wall_time_s",
        }
        assert manifest["parameters"] == config.parameters

    def test_lorenz_train(self, tmp_path):
        self.run_experiment(tmp_path, "lorenz_train")
        trajectory = integrate_lorenz(LorenzParams(), 300)
        spec, _, readout, problem = train_lorenz_readout(trajectory, 20, 300, 1e-9, 1, target="zeta")
        header, values = read_csv(tmp_path / "zeta_prediction.csv")
        assert header == "t,target,prediction"
        assert values.shape == (200, 3)
        assert np.array_equal(values[:, 0], np.arange(100, 300) * trajectory.step)
        assert np.array_equal(values[:, 1], problem.targets)
        assert np.array_equal(values[:, 2], problem.states @ readout.w)
        assert json.loads((tmp_path / "fit.json").read_text())["n_samples"] == 200
        # The JSON artifacts carry the exact bits of the readout and the reservoir.
        doc = json.loads((tmp_path / "readout.json").read_text())
        assert np.array(doc["w"]).tobytes() == readout.w.tobytes()
        assert set(doc) == {"w", "lambda", "burn_in"}
        assert doc["lambda"] == 1e-9
        doc = json.loads((tmp_path / "reservoir.json").read_text())
        assert (doc["n"], doc["d"], doc["activation"], doc["seed"]) == (20, 1, "tanh", 1)
        for key, array in (("a", spec.A), ("c", spec.C), ("b", spec.b)):
            assert np.array(doc[key]).tobytes() == array.reshape(-1).tobytes()
        # A reservoir rebuilt from reservoir.json drives like the original.
        clone = ReservoirSpec(
            n=20, d=1, A=np.reshape(doc["a"], (20, 20)), C=doc["c"], b=doc["b"], seed=1
        )
        z = TimeSeries(step=1.0, samples=np.sin(np.arange(30.0))[:, None])
        x0 = np.zeros(20)
        assert np.array_equal(drive(spec, z, x0).samples, drive(clone, z, x0).samples)

    def test_readout_records_burn_in(self, tmp_path):
        self.run_experiment(tmp_path, "lorenz_train")
        burn_in = json.loads((tmp_path / "readout.json").read_text())["burn_in"]
        assert burn_in == 100
        n_samples = json.loads((tmp_path / "fit.json").read_text())["n_samples"]
        assert n_samples == self.SIZE["ell"] - burn_in

    def test_lorenz_forecast(self, tmp_path):
        self.run_experiment(tmp_path, "lorenz_forecast", horizon=50)
        trajectory = integrate_lorenz(LorenzParams(), 350)
        spec, states, readout, _ = train_lorenz_readout(
            trajectory, 20, 300, 1e-9, 1, target="next_xi"
        )
        # x_300 has seen xi_0..xi_299, so the first forecast is of xi_300.
        auto = autonomous_drive(spec, readout.w, states.samples[300], 50)
        header, values = read_csv(tmp_path / "forecast.csv")
        assert header == "t,true_xi,forecast_xi"
        assert values.shape == (50, 3)
        assert np.array_equal(values[:, 0], np.arange(300, 350) * trajectory.step)
        assert np.array_equal(values[:, 1], trajectory.samples[300:350, 0])
        # The one orbit's training prefix is the orbit lorenz_train integrates.
        short = integrate_lorenz(LorenzParams(), 300).samples
        assert trajectory.samples[:301].tobytes() == short.tobytes()
        assert np.array_equal(values[:, 2], auto.samples[:-1] @ readout.w)
        summary = json.loads((tmp_path / "forecast_summary.json").read_text())
        assert summary["horizon"] == 50 and len(summary["explained_variance"]) == 3
        scale = np.sqrt(np.mean(trajectory.samples[:300, 0] ** 2))
        assert summary["error_scale"] == scale
        assert (summary["valid_error_threshold"], summary["lyapunov_exponent"]) == (0.4, 0.9056)
        error = np.abs(values[:, 2] - values[:, 1]) / scale
        steps = summary["valid_steps"]
        assert np.all(error[:steps] <= 0.4) and (steps == 50 or error[steps] > 0.4)
        assert summary["valid_lyapunov_times"] == steps * 0.01 * 0.9056

    def test_forecast_variances_are_those_of_the_driven_states(self, tmp_path):
        # The summary's variances are those of the driven states after the
        # burn-in, rows 100..ell: a thin SVD of those rows agrees to 8 eps
        # of the largest variance.
        self.run_experiment(tmp_path, "lorenz_forecast", horizon=50)
        trajectory = integrate_lorenz(LorenzParams(), 350)
        _, states, _, _ = train_lorenz_readout(trajectory, 20, 300, 1e-9, 1, target="next_xi")
        X = states.samples[DEFAULT_BURN_IN:]
        assert X.shape == (201, 20)
        sv = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)[1]
        full = sv[:3] ** 2 / (X.shape[0] - 1)
        summary = json.loads((tmp_path / "forecast_summary.json").read_text())
        err = np.abs(np.array(summary["explained_variance"]) - full)
        assert np.max(err) <= 8 * np.finfo(float).eps * full[0]

    def test_forecast_stays_valid_for_tens_of_steps(self, tmp_path):
        # n = 100, ell = 3000 stays valid for 44-79 steps at seeds 0-11
        # (60 at seed 42); a readout trained one step further ahead than
        # the map it drives is off after 1 or 2.
        config = ExperimentConfig(
            "lorenz_forecast", seed=42, output_dir=str(tmp_path),
            parameters={"n": 100, "ell": 3000, "horizon": 200},
        )
        assert run(config) == EXIT_OK
        summary = json.loads((tmp_path / "forecast_summary.json").read_text())
        assert summary["bounded"]
        assert summary["valid_steps"] >= 30
        _, values = read_csv(tmp_path / "forecast.csv")
        assert np.all(np.abs(values[:30, 2] - values[:30, 1]) <= 5.0)

    def test_fixed_point(self, tmp_path):
        self.run_experiment(tmp_path, "fixed_point")
        result = json.loads((tmp_path / "fixed_point.json").read_text())
        header, values = read_csv(tmp_path / "esn_eigenvalues.csv")
        assert header == "re,im"
        assert values.shape == (20, 2)
        assert np.array_equal(values[:, 0], result["jacobian_eigs_real"])
        assert np.array_equal(values[:, 1], result["jacobian_eigs_imag"])
        # Rows by increasing modulus, then angle.
        eigs = values[:, 0] + 1j * values[:, 1]
        assert np.array_equal(np.lexsort((np.angle(eigs), np.abs(eigs))), np.arange(20))
        # The same eigenvalues as the unsorted ones, and the same matches.
        trajectory = integrate_lorenz(LorenzParams(), 300)
        spec, _, readout, _ = train_lorenz_readout(trajectory, 20, 300, 1e-9, 1, "next_xi")
        unsorted = newton_fixed_point(
            autonomous_map(spec, readout.w),
            lambda x: esn_jacobian(spec, readout.w, x),
            wing_start_state(spec),
        ).jacobian_eigs
        assert np.array_equal(np.sort_complex(unsorted), np.sort_complex(eigs))
        match = json.loads((tmp_path / "eigenvalue_match.json").read_text())
        reference = lorenz_linearization_eigs(tau=0.01)
        assert match["match_distances"] == [float(np.min(np.abs(unsorted - r))) for r in reference]


class TestMain:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert set(out) == set(EXPERIMENTS)

    def test_validate_subcommand(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "experiment = value_learn\nseed = 1\noutput_dir = out\nparams.gamma = 2.0\n"
        )
        assert main(["validate", path]) == EXIT_VALIDATION
        assert "gamma" in capsys.readouterr().out

    def test_misspelt_top_level_keys_rejected(self, tmp_path, monkeypatch, capsys):
        # Keys `run` never reads are reported, not dropped: without the
        # check this config would run into the working directory with
        # gamma at its default.
        monkeypatch.chdir(tmp_path)
        path = write_config(
            tmp_path,
            "experiment = value_learn\nseed = 1\noutptu_dir = out\nparam.gamma = 0.5\n",
        )
        expected = (
            "config error: unknown key(s) outptu_dir, param.gamma; "
            "expected experiment, seed, output_dir or params.*\n"
        )
        for command in ("validate", "run"):
            assert main([command, path]) == EXIT_VALIDATION
            assert capsys.readouterr().err == expected
        assert [p.name for p in tmp_path.iterdir()] == ["config.txt"]

    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "artifacts"
        path = write_config(
            tmp_path,
            f"experiment = homology\nseed = 4\noutput_dir = {out}\n",
        )
        assert main(["run", path]) == EXIT_OK
        assert (out / "manifest.json").exists()

    def test_missing_config_file(self, capsys):
        assert main(["validate", "/nonexistent/config.txt"]) == EXIT_VALIDATION
