"""Command-line interface: subcommands, exit codes, manifests."""

import json
import os

import numpy as np
import pytest

from spatialconfound import (
    IidSpec,
    ScenarioConfig,
    SpectralSpec,
    config_to_dict,
    save_config,
)
from spatialconfound.cli import build_parser, main


def write_config(tmp_path, name="config.json", **overrides):
    defaults = dict(
        beta=(0.0, 2.0, 1.0, 0.5, 0.5, 0.0),
        loadings=(0.7, 0.5, 0.3),
        nu_sd=1.0,
        sigma=0.5,
        spec_S1=SpectralSpec(1, 2, 0.0, 1.0),
        spec_S2=SpectralSpec(3, 4, 0.0, 1.0),
        spec_C=IidSpec(1.0),
        e_sd=0.4,
        u_sd=0.0,
        m=8,
    )
    defaults.update(overrides)
    config = ScenarioConfig(**defaults)
    path = tmp_path / name
    save_config(config, path)
    return path, config


class TestSimulate:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        config_path, config = write_config(tmp_path)
        out = tmp_path / "data.csv"
        code = main(["simulate", "--config", str(config_path), "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,Z,C,Y"
        assert len(lines) == 1 + config.m**2
        manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["master_seed"] == 5
        assert manifest["config"] == config_to_dict(config)
        assert str(out) in manifest["outputs"]

    def test_manifest_records_numpy_and_thread_setup(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        config_path, _ = write_config(tmp_path)
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        assert manifest["numpy_version"] == np.__version__
        assert manifest["thread_env"] == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "MKL_NUM_THREADS": None,
        }

    def test_latent_flag_adds_columns(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        out = tmp_path / "latent.csv"
        assert main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--latent"]) == 0
        assert out.read_text().splitlines()[0] == "x,y,Z,C,Y,S1,S2,E,U,nu,eps"

    def test_byte_identical_reruns(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["simulate", "--config", str(config_path), "--seed", "9", "--out", str(out1)])
        main(["simulate", "--config", str(config_path), "--seed", "9", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_rerun_from_manifest_reproduces_output(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        out = tmp_path / "data.csv"
        main(["simulate", "--config", str(config_path), "--seed", "5", "--out", str(out)])
        first = out.read_bytes()
        manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        out.unlink()
        assert main(manifest["argv"]) == 0
        assert out.read_bytes() == first

    def test_missing_config_field_exit_2(self, tmp_path, capsys):
        doc = config_to_dict(write_config(tmp_path)[1])
        del doc["beta"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "beta" in capsys.readouterr().err

    def test_unreadable_config_exit_3(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_unwritable_output_exit_3(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        code = main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
        assert code == 3


class TestFit:
    @pytest.fixture()
    def data_csv(self, tmp_path):
        config_path, config = write_config(tmp_path, m=16,
                                           spec_S2=SpectralSpec(3, 5, 0.0, 1.0))
        out = tmp_path / "data.csv"
        main(["simulate", "--config", str(config_path), "--seed", "3", "--out", str(out)])
        return out, config

    def test_nonspatial_sanity(self, tmp_path, capsys):
        config_path, config = write_config(
            tmp_path, beta=(0.0, 2.0, 1.0, 0.0, 0.0, 0.0), loadings=(0.0, 0.0, 0.3), m=16
        )
        out = tmp_path / "data.csv"
        main(["simulate", "--config", str(config_path), "--seed", "4", "--out", str(out)])
        capsys.readouterr()
        code = main(["fit", "--data", str(out), "--estimator", "nonspatial"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "nonspatial"
        assert abs(record["beta1_hat"] - 2.0) < 3 * record["se"]

    def test_each_estimator_runs(self, data_csv, capsys):
        out, _ = data_csv
        for name, extra in (
            ("nonspatial", []),
            ("rsr", ["--max-freq", "5"]),
            ("spatial", ["--max-freq", "5", "--lam", "1.0"]),
            ("spatial-plus", ["--max-freq", "5", "--lam", "0.0"]),
            ("gsem", ["--max-freq", "5"]),
            ("spatial-plus-lowfreq", ["--max-freq", "5", "--cutoff", "2"]),
        ):
            capsys.readouterr()
            code = main(["fit", "--data", str(out), "--estimator", name] + extra)
            assert code == 0, name
            record = json.loads(capsys.readouterr().out)
            assert record["kind"] == name
            assert np.isfinite(record["beta1_hat"])
        # The last, spatial-plus-lowfreq without --lam, fits lambda = 0, not GCV.
        assert record["lambdas"] == {"exposure": 0.0, "outcome": 0.0}

    def test_fully_spatial_exposure_exit_4(self, tmp_path, capsys):
        config_path, _ = write_config(
            tmp_path, nu_sd=1e-13, e_sd=0.0, m=16, spec_S2=SpectralSpec(3, 5, 0.0, 1.0)
        )
        out = tmp_path / "degenerate.csv"
        main(["simulate", "--config", str(config_path), "--seed", "6", "--out", str(out)])
        capsys.readouterr()
        code = main(["fit", "--data", str(out), "--estimator", "spatial",
                     "--max-freq", "5", "--lam", "0.0"])
        assert code == 4
        assert "collinear" in capsys.readouterr().err

    def test_unknown_estimator_exit_2_lists_names(self, data_csv, capsys):
        out, _ = data_csv
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(out), "--estimator", "mystery"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "nonspatial" in err and "spatial-plus" in err

    def test_lam_and_lambda_grid_exclusive_exit_2(self, data_csv, capsys):
        # Two smoothings for one fit are a usage error, not a silent choice.
        out, _ = data_csv
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(out), "--estimator", "spatial", "--max-freq", "5",
                  "--lam", "1", "--lambda-grid", "0,1"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_missing_column_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,Z,C\n0.25,0.25,1,2\n")
        code = main(["fit", "--data", str(bad), "--estimator", "nonspatial"])
        assert code == 2
        assert "Y" in capsys.readouterr().err

    def test_nonfinite_observation_exit_2(self, data_csv, capsys):
        out, _ = data_csv
        lines = out.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:4] + ["nan"])
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["fit", "--data", str(out), "--estimator", "spatial", "--max-freq", "5"])
        assert code == 2
        assert "Y has non-finite values" in capsys.readouterr().err

    def test_short_row_exit_2_names_line(self, data_csv, capsys):
        out, _ = data_csv
        lines = out.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["fit", "--data", str(out), "--estimator", "nonspatial"])
        assert code == 2
        assert "line 4 has 4 fields for 5 columns" in capsys.readouterr().err


    def test_non_numeric_field_exit_2_names_line_and_column(self, data_csv, capsys):
        out, _ = data_csv
        lines = out.read_text().splitlines()
        fields = lines[3].split(",")
        fields[3] = "abc"
        lines[3] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["fit", "--data", str(out), "--estimator", "nonspatial"])
        assert code == 2
        assert "line 4 has a non-numeric C value 'abc'" in capsys.readouterr().err


class TestTargets:
    def test_no_confounding_targets_equal_beta1(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, loadings=(0.0, 0.0, 0.3))
        code = main(["targets", "--config", str(config_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["beta_structural"] == 2.0
        for key in ("beta_uncond", "beta_cond_achieved", "beta_cond_S1"):
            assert doc[key] == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_exit_4(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, nu_sd=0.0, e_sd=0.0)
        code = main(["targets", "--config", str(config_path)])
        assert code == 4
        assert "singular" in capsys.readouterr().err


class TestMcCommand:
    def test_summary_files_written(self, tmp_path):
        config_path, _ = write_config(tmp_path, m=12, spec_S2=SpectralSpec(3, 5, 0.0, 1.0))
        out = tmp_path / "mc_out"
        code = main(["mc", "--config", str(config_path), "--reps", "2",
                     "--estimators", "nonspatial,spatial", "--max-freq", "4",
                     "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "mc_out.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 4  # two estimators x four targets
        doc = json.loads((tmp_path / "mc_out.json").read_text())
        assert doc["provenance"]["R"] == 2
        manifest = json.loads((tmp_path / "mc_out.manifest.json").read_text())
        assert manifest["subcommand"] == "mc"

    def test_lam_goes_only_to_the_kinds_that_read_it(self, tmp_path):
        config_path, _ = write_config(tmp_path, m=12, spec_S2=SpectralSpec(3, 5, 0.0, 1.0))
        out = tmp_path / "mc_lam"
        code = main(["mc", "--config", str(config_path), "--reps", "2", "--lam", "1.0",
                     "--estimators", "nonspatial,rsr,spatial", "--max-freq", "4",
                     "--out", str(out)])
        assert code == 0
        assert set(json.loads((tmp_path / "mc_lam.json").read_text())["cells"]) == {
            "nonspatial", "rsr", "spatial"
        }

    def test_zero_threads_exit_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        code = main(["mc", "--config", str(config_path), "--reps", "2", "--threads", "0",
                     "--out", str(tmp_path / "mc")])
        assert code == 2
        assert "n_jobs must be at least 1" in capsys.readouterr().err

    def test_unknown_estimator_name_exit_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        code = main(["mc", "--config", str(config_path), "--estimators", "nope",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "valid names" in capsys.readouterr().err


class TestScenarioAndAic:
    def test_scenario_smoke(self, tmp_path):
        out = tmp_path / "scen"
        code = main(["scenario", "--kind", "strong-exposure-weak-outcome",
                     "--reps", "2", "--seed", "1", "--max-freq", "6",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((tmp_path / "scen.json").read_text())
        assert doc["verdict"]["expected_winner"] == "spatial-plus"
        assert (tmp_path / "scen.csv").exists()
        assert (tmp_path / "scen.manifest.json").exists()

    def test_aic_bias_smoke(self, tmp_path):
        out = tmp_path / "aic"
        code = main(["aic-bias", "--reps", "2", "--seed", "1", "--max-freq", "6",
                     "--lambdas", "0,1,100", "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "aic.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        doc = json.loads((tmp_path / "aic.json").read_text())
        assert len(doc["rows"]) == 3

    def test_json_is_strict_with_undefined_values(self, tmp_path):
        # At one replication every MC-SE is undefined; strict JSON has no NaN
        # token, so those values are written as null.
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        runs = {
            "scen": ["scenario", "--kind", "weak-exposure-strong-outcome"],
            "aic": ["aic-bias", "--lambdas", "0,1,100"],
        }
        for name, argv in runs.items():
            out = tmp_path / name
            assert main(argv + ["--reps", "1", "--seed", "3", "--max-freq", "6",
                                "--out", str(out)]) == 0
            text = (tmp_path / f"{name}.json").read_text()
            json.loads(text, parse_constant=reject)
            assert "null" in text

    @pytest.mark.parametrize("lambdas", ["0,1,inf", "0,nan,1"])
    def test_nonfinite_lambda_table_exit_2(self, tmp_path, capsys, lambdas):
        # An infinite lambda would be written to JSON as null, the undefined
        # value, and its row could not be matched to its lambda.
        code = main(["aic-bias", "--reps", "1", "--seed", "3", "--max-freq", "6",
                     "--lambdas", lambdas, "--out", str(tmp_path / "aic")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "aic.json").exists()

    def test_repeated_lambda_table_exit_2(self, tmp_path, capsys):
        code = main(["aic-bias", "--reps", "1", "--seed", "3", "--max-freq", "6",
                     "--lambdas", "0,1,1", "--out", str(tmp_path / "aic")])
        assert code == 2
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "aic.json").exists()

    @pytest.mark.parametrize("command", ["fit", "mc"])
    def test_nonfinite_fixed_lambda_exit_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--lam", "inf"])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,max_freq",
        [
            ("scenario", ["--max-freq", "5"]),
            ("aic-bias", ["--max-freq", "5"]),
            ("scenario", []),
            ("aic-bias", []),
        ],
        ids=["scenario", "aic-bias", "scenario-default", "aic-bias-default"],
    )
    def test_max_freq_honoured_with_config(self, tmp_path, command, max_freq):
        # max_freq 10 is too high for an m=16 grid; --max-freq 5 fits, and so
        # does the default, which follows the grid side as in fit and mc.
        config_path, _ = write_config(tmp_path, m=16, spec_S2=SpectralSpec(3, 5, 0.0, 1.0))
        out = tmp_path / "run"
        extra = ["--kind", "strong-exposure-weak-outcome"] if command == "scenario" else []
        code = main([command, "--config", str(config_path), "--reps", "2", "--seed", "1",
                     "--out", str(out)] + max_freq + extra)
        assert code == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["config"]["m"] == 16


@pytest.mark.parametrize("command", ["fit", "mc", "scenario", "aic-bias"])
def test_max_freq_zero_rejected(tmp_path, capsys, command):
    # 0 is an explicit (invalid) basis size, not "use the default".
    config_path, config = write_config(tmp_path, m=16, spec_S2=SpectralSpec(3, 5, 0.0, 1.0))
    out = str(tmp_path / "run")
    if command == "fit":
        data = str(tmp_path / "data.csv")
        assert main(["simulate", "--config", str(config_path), "--out", data]) == 0
        argv = ["fit", "--data", data, "--estimator", "spatial", "--lam", "1"]
    else:
        argv = [command, "--config", str(config_path), "--reps", "2", "--out", out]
        if command == "scenario":
            argv += ["--kind", "strong-exposure-weak-outcome"]
    assert main(argv + ["--max-freq", "0"]) == 2
    assert "max_freq" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mc", "scenario", "aic-bias"])
def test_out_help_says_it_is_a_stem(command):
    sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
    out = next(a for a in sub.choices[command]._actions if a.dest == "out")
    assert out.help == "output path stem (.csv/.json appended)"


def test_mc_threads_default_one():
    args = build_parser().parse_args(["mc", "--config", "c.json", "--out", "x"])
    assert args.threads == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
