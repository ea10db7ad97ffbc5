import json

import numpy as np
import pytest

from echolab.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    EXPERIMENTS,
    ExperimentConfig,
    load_config,
    main,
    parse_config_text,
    run,
    train_lorenz_readout,
    validate,
)
from echolab.dynsys import LorenzParams, integrate_lorenz
from echolab.reservoir import autonomous_drive


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

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "experiment = homology\nseed = 1\noutput_dir = out\n")
        monkeypatch.setenv("ECHOLAB_SEED", "99")
        config = load_config(path)
        assert config.seed == 99


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
            ("fixed_point", "tau", -0.01, 0.01),
            ("lyapunov", "tau", 0, 0.01),
            ("lorenz_train", "lam", -1e-9, 0),
            ("lorenz_forecast", "horizon", -1, 1),
            ("value_learn", "length", 1, 2),
            ("gs_examples", "n_steps", 1, 2),
            ("gs_examples", "burn_in", 0, 1),
            ("gs_examples", "burn_in", 200, 199),
            ("homology", "ell", 1000.5, 1000),
            ("homology", "subsample", 49, 50),
            ("homology", "subsample", 502, 501),
            ("homology", "max_eps", 0, 0.5),
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
        for experiment in EXPERIMENTS:
            assert validate(ExperimentConfig(experiment, seed=1, output_dir="out")) == []
        lorenz = {"source": "lorenz"}
        assert validate(ExperimentConfig("homology", 1, "out", parameters=lorenz)) == []

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
        betti = json.loads((outdir / "betti.json").read_text())
        assert betti["at_1"][:2] == [1, 1]
        assert betti["at_sqrt3"][:3] == [1, 1, 0]
        assert betti["at_2"][:3] == [1, 0, 0]
        assert (outdir / "boundary_2.csv").exists()
        assert (outdir / "diagram.csv").exists()

    def test_homology_hexagon_profiles_come_from_one_diagram(self, tmp_path):
        # betti.json and diagram.csv read the same bytes as separate
        # betti_numbers and persistence calls.
        from echolab.topology import betti_numbers, hexagon_example_filtration, persistence

        config = ExperimentConfig(experiment="homology", seed=1, output_dir=str(tmp_path))
        assert run(config) == EXIT_OK
        filt = hexagon_example_filtration()
        expected = {
            "at_1": betti_numbers(filt, 1.0),
            "at_sqrt3": betti_numbers(filt, float(np.sqrt(3))),
            "at_2": betti_numbers(filt, 2.0),
        }
        assert (tmp_path / "betti.json").read_text() == json.dumps(expected)
        assert (tmp_path / "diagram.csv").read_text() == persistence(filt).to_csv()

    def test_value_learn_reproducible_bytes(self, tmp_path):
        outputs = []
        for run_dir in ("a", "b"):
            config = ExperimentConfig(
                experiment="value_learn", seed=5, output_dir=str(tmp_path / run_dir),
                parameters={"gamma": 0.9, "length": 120},
            )
            assert run(config) == EXIT_OK
            outputs.append((tmp_path / run_dir / "value_learn.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_gs_examples_artifacts(self, tmp_path):
        config = ExperimentConfig(
            experiment="gs_examples", seed=0, output_dir=str(tmp_path),
            parameters={"n_steps": 800, "burn_in": 200},
        )
        assert run(config) == EXIT_OK
        summary = json.loads((tmp_path / "gs_summary.json").read_text())
        assert summary["min_gap"] > 0.5

    def test_embedding_check_all_pass(self, tmp_path):
        config = ExperimentConfig(
            experiment="embedding_check", seed=3, output_dir=str(tmp_path),
            parameters={"trials": 10, "n": 6},
        )
        assert run(config) == EXIT_OK
        doc = json.loads((tmp_path / "embedding_check.json").read_text())
        assert doc["condition_D_pass"] == 10
        assert doc["condition_C_pass"] == 10

    def test_pde_dirichlet_small(self, tmp_path):
        config = ExperimentConfig(
            experiment="pde_dirichlet", seed=2, output_dir=str(tmp_path),
            parameters={"n": 40, "ell": 40, "ell_prime": 40, "lam": 1e-6},
        )
        assert run(config) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["grid_rms"] < 1.0
        field = (tmp_path / "solution_field.csv").read_text().splitlines()
        assert field[0] == "r,theta,phi_hat,phi_exact,abs_err"

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
        trace = (tmp_path / "lyapunov_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,lambda_1,lambda_2,lambda_3"
        assert len(trace) == 1 + 20000 // 100

    def test_manifest_written_before_failure(self, tmp_path, monkeypatch):
        # Force a runtime failure and confirm the crash-forensics
        # manifest landed first.
        import echolab.cli as cli_mod

        def boom(config, outdir):
            raise RuntimeError("deliberate failure")

        monkeypatch.setitem(cli_mod.RUNNERS, "homology", boom)
        config = ExperimentConfig(experiment="homology", seed=1, output_dir=str(tmp_path))
        assert run(config) == EXIT_RUNTIME
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"


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
        trajectory, _, _, readout, problem = train_lorenz_readout(20, 300, 1e-9, 1, target="zeta")
        header, values = read_csv(tmp_path / "zeta_prediction.csv")
        assert header == "t,target,prediction"
        assert values.shape == (200, 3)
        assert np.array_equal(values[:, 0], np.arange(100, 300) * trajectory.step)
        assert np.array_equal(values[:, 1], problem.targets)
        assert np.array_equal(values[:, 2], problem.states @ readout.w)
        assert json.loads((tmp_path / "fit.json").read_text())["n_samples"] == 200

    def test_lorenz_forecast(self, tmp_path):
        self.run_experiment(tmp_path, "lorenz_forecast", horizon=50)
        trajectory, spec, states, readout, _ = train_lorenz_readout(
            20, 300, 1e-9, 1, target="next_xi"
        )
        auto = autonomous_drive(spec, readout.w, states.samples[300], 50)
        header, values = read_csv(tmp_path / "forecast.csv")
        assert header == "t,true_xi,forecast_xi"
        assert values.shape == (50, 3)
        assert np.array_equal(values[:, 0], np.arange(301, 351) * trajectory.step)
        truth = integrate_lorenz(LorenzParams(), 350).samples[301:, 0]
        assert np.array_equal(values[:, 1], truth)
        assert np.array_equal(values[:, 2], auto.samples[:-1] @ readout.w)
        summary = json.loads((tmp_path / "forecast_summary.json").read_text())
        assert summary["horizon"] == 50 and len(summary["explained_variance"]) == 3

    def test_fixed_point(self, tmp_path):
        self.run_experiment(tmp_path, "fixed_point")
        result = json.loads((tmp_path / "fixed_point.json").read_text())
        header, values = read_csv(tmp_path / "esn_eigenvalues.csv")
        assert header == "re,im"
        assert values.shape == (20, 2)
        assert np.array_equal(values[:, 0], result["jacobian_eigs_real"])
        assert np.array_equal(values[:, 1], result["jacobian_eigs_imag"])
        match = json.loads((tmp_path / "eigenvalue_match.json").read_text())
        assert len(match["match_distances"]) == 3


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
