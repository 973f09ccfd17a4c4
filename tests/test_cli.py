import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from neighbornorm import cli, harness
from neighbornorm.cli import main
from neighbornorm.harness import SWEEP_BATCH_SIZES
from neighbornorm.normalization import MODES

from conftest import SMALL_CONFIG


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file plus a trained model, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["model_path"] = str(root / "model.nnm")
    cfg["out"] = str(root / "out" / "run")
    (root / "out").mkdir()
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return root, cfg_path


class TestTrain:
    def test_writes_model_file(self, workspace):
        root, _ = workspace
        assert (root / "model.nnm").exists()

    def test_model_directory_is_created(self, workspace, tmp_path):
        root, cfg_path = workspace
        path = tmp_path / "nodir" / "model.nnm"
        assert main(["train", "--config", str(cfg_path), "--out", str(path)]) == 0
        assert path.read_bytes() == (root / "model.nnm").read_bytes()

    def test_train_to_alternate_path(self, workspace, capsys):
        root, cfg_path = workspace
        alt = root / "alt.nnm"
        assert main(["train", "--config", str(cfg_path), "--out", str(alt)]) == 0
        assert alt.exists()
        assert "clean test accuracy" in capsys.readouterr().out


class TestRun:
    def test_run_writes_metrics(self, workspace, capsys):
        root, cfg_path = workspace
        code = main(["run", "--config", str(cfg_path), "--mode", "find", "--out", str(root / "out" / "find")])
        assert code == 0
        assert (root / "out" / "find.json").exists()
        assert (root / "out" / "find.csv").exists()
        assert (root / "out" / "find.timing.json").exists()
        assert "mean accuracy" in capsys.readouterr().out

    def test_repeat_runs_byte_identical(self, workspace):
        root, cfg_path = workspace
        main(["run", "--config", str(cfg_path), "--out", str(root / "out" / "d1")])
        main(["run", "--config", str(cfg_path), "--out", str(root / "out" / "d2")])
        assert (root / "out" / "d1.json").read_bytes() == (root / "out" / "d2.json").read_bytes()
        assert (root / "out" / "d1.csv").read_bytes() == (root / "out" / "d2.csv").read_bytes()

    def test_missing_model_is_config_error(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["model_path"] = str(tmp_path / "absent.nnm")
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad)]) == 1
        assert "model file not found" in capsys.readouterr().err

    def test_malformed_model_is_config_error(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        truncated = tmp_path / "truncated.nnm"
        truncated.write_bytes((root / "model.nnm").read_bytes()[:-3])
        cfg["model_path"] = str(truncated)
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad)]) == 1
        assert "malformed model file" in capsys.readouterr().err

    def test_model_header_without_eps_is_config_error(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        raw = (root / "model.nnm").read_bytes()
        cut = raw.index(b"\n")
        header = json.loads(raw[:cut])
        del header["eps"]
        edited = tmp_path / "edited.nnm"
        edited.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[cut:])
        cfg = json.loads(cfg_path.read_text())
        cfg["model_path"] = str(edited)
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "malformed model file" in err and "header lacks eps" in err

    @pytest.mark.parametrize("section", ["data", "train"])
    def test_model_meta_section_not_an_object_is_config_error(self, workspace, tmp_path, capsys, section):
        root, cfg_path = workspace
        raw = (root / "model.nnm").read_bytes()
        cut = raw.index(b"\n")
        header = json.loads(raw[:cut])
        header["meta"][section] = [1, 2]
        edited = tmp_path / "edited.nnm"
        edited.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[cut:])
        cfg = json.loads(cfg_path.read_text())
        cfg["model_path"] = str(edited)
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "malformed model file" in err and f"meta.{section} must be an object" in err

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_empty_out_is_config_error(self, workspace, tmp_path, capsys, monkeypatch, command):
        # an empty path is rejected at load, before training or any batch, and no hidden `.json` is written
        _, cfg_path = workspace
        monkeypatch.setattr(cli, "train_model", lambda cfg: pytest.fail("trained the model"))
        monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("ran a batch"))
        monkeypatch.chdir(tmp_path)
        written = "model_path" if command == "train" else "out"
        assert main([command, "--config", str(cfg_path), "--out", ""]) == 1
        assert f"{written} must be a nonempty path" in capsys.readouterr().err
        cfg = json.loads(cfg_path.read_text())
        cfg[written] = ""
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main([command, "--config", "cfg.json"]) == 1
        assert f"{written} must be a nonempty path" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_bad_mode_is_config_error(self, workspace, capsys):
        _, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path), "--mode", "nope"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "mode" in err

    def test_fractional_batch_size_is_config_error(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["scenario"]["batch_size"] = 2.5
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad)]) == 1
        assert "scenario.batch_size" in capsys.readouterr().err

    def test_nan_gamma_is_config_error(self, workspace, capsys):
        _, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path), "--gamma", "nan"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "gamma_threshold" in err

    def test_bad_config_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 1

    def test_missing_output_directory_is_created(self, workspace, tmp_path):
        _, cfg_path = workspace
        out = tmp_path / "no" / "such" / "dir" / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out.parent / "run.json").exists() and (out.parent / "run.csv").exists()

    def test_default_output_directory_is_created(self, workspace, tmp_path, monkeypatch):
        # the stock `out`, results/run, from a working directory that has no results/
        _, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        del cfg["out"]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "cfg.json"]) == 0
        assert (tmp_path / "results" / "run.json").exists()

    def test_uncreatable_output_is_config_error(self, workspace, tmp_path, capsys, monkeypatch):
        # an output directory under a regular file cannot be made: exit 1 before the model loads or a batch runs
        _, cfg_path = workspace
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(cli, "load_model", lambda path: pytest.fail("loaded the model"))
        monkeypatch.setattr(cli, "train_model", lambda cfg: pytest.fail("trained the model"))
        for command in ("run", "compare", "diagnose", "sweep-batch", "train"):
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "file" / "run")]) == 1, command
            assert "cannot create the directory" in capsys.readouterr().err, command
        assert not (tmp_path / "file" / "run").exists()

    def test_missing_model_leaves_no_directory(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["model_path"] = str(tmp_path / "absent.nnm")
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "d1" / "run")]) == 1
        assert "model file not found" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_conflicting_data_section_rejected(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["data"]["num_classes"] = 9  # model was built with 6
        bad = tmp_path / "conflict.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad)]) == 1
        assert "num_classes" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("seed", 99), ("eps", 0.5), ("channels", [16, 32]), ("head_lambda", 7),
                                              ("train_batches", 9), ("train_batch_size", 16), ("train_seed", 5)])
    def test_conflicting_model_field_rejected(self, workspace, tmp_path, capsys, field, value):
        # every model-section field the model file records must match it; a run on other settings exits 1
        _, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["model"][field] = value
        bad = tmp_path / "conflict.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad)]) == 1
        assert f"model.{field}=" in capsys.readouterr().err

    def test_unrecorded_clean_eval_batches_runs(self, workspace, tmp_path):
        _, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["model"]["clean_eval_batches"] = 3  # the model file does not record it
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run")]) == 0

    def test_runtime_error_exits_2(self, workspace, capsys, monkeypatch):
        _, cfg_path = workspace

        def overflow(*args):
            raise ArithmeticError("overflow")

        monkeypatch.setattr(cli, "run_experiment", overflow)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "error: ArithmeticError: overflow" in capsys.readouterr().err

    def test_find_star_prints_gate_lines(self, workspace, capsys):
        root, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path), "--mode", "find_star", "--out", str(root / "out" / "star")]) == 0
        out = capsys.readouterr().out
        assert "layer 0:" in out and "layer 1:" in out


class TestCompare:
    def test_bad_modes_flag_is_config_error(self, workspace, capsys):
        root, cfg_path = workspace
        assert main(["compare", "--config", str(cfg_path), "--modes", "sbn,bogus"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_bad_modes_flag_leaves_no_directory(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        assert main(["compare", "--config", str(cfg_path), "--modes", "bogus", "--out", str(tmp_path / "d2" / "c")]) == 1
        assert "bogus" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_compare_writes_table(self, workspace, capsys):
        root, cfg_path = workspace
        out = root / "out" / "cmp"
        code = main(["compare", "--config", str(cfg_path), "--modes", "sbn,tbn,find", "--out", str(out)])
        assert code == 0
        doc = json.loads((root / "out" / "cmp.json").read_text())
        assert [r["mode"] for r in doc["rows"]] == ["sbn", "tbn", "find"]
        lines = (root / "out" / "cmp.csv").read_text().strip().splitlines()
        assert lines[0] == "mode,mean_accuracy,std_accuracy"
        assert len(lines) == 4

    def test_compare_defaults_to_every_mode(self, workspace):
        root, cfg_path = workspace
        assert main(["compare", "--config", str(cfg_path), "--out", str(root / "out" / "all")]) == 0
        doc = json.loads((root / "out" / "all.json").read_text())
        assert [r["mode"] for r in doc["rows"]] == list(MODES)


class TestDiagnose:
    def test_diagnose_dumps(self, workspace, capsys):
        root, cfg_path = workspace
        out = root / "out" / "diag"
        code = main(["diagnose", "--config", str(cfg_path), "--mode", "find_star", "--out", str(out)])
        assert code == 0
        doc = json.loads((root / "out" / "diag.diagnostics.json").read_text())
        assert doc["sensitivity"] is not None
        assert "normalized_score" in doc["sensitivity"][0]
        assert "layer 0" in capsys.readouterr().out


class TestSweep:
    def test_bad_sizes_flag_is_config_error(self, workspace, capsys):
        _, cfg_path = workspace
        assert main(["sweep-batch", "--config", str(cfg_path), "--sizes", "4,huge"]) == 1
        assert main(["sweep-batch", "--config", str(cfg_path), "--sizes", "0,4"]) == 1

    def test_batch_sweep(self, workspace, capsys):
        root, cfg_path = workspace
        out = root / "out" / "sweep"
        code = main(["sweep-batch", "--config", str(cfg_path), "--sizes", "4,16", "--out", str(out)])
        assert code == 0
        doc = json.loads((root / "out" / "sweep.batch_sweep.json").read_text())
        assert [r["batch_size"] for r in doc["rows"]] == [4, 16]

    def test_size_above_the_sample_budget_is_config_error(self, workspace, tmp_path, capsys, monkeypatch):
        # SMALL_CONFIG's budget is 12 batches of 32: a 1000-sample batch would run past it
        _, cfg_path = workspace
        monkeypatch.setattr(harness, "run_experiment", lambda *args: pytest.fail("ran a batch"))
        assert main(["sweep-batch", "--config", str(cfg_path), "--sizes", "4,1000", "--out", str(tmp_path / "s")]) == 1
        assert "batch size 1000 exceeds the sample budget of 384" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_size_above_the_sample_budget_leaves_no_directory(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        assert main(["sweep-batch", "--config", str(cfg_path), "--sizes", "999999", "--out", str(tmp_path / "d3" / "s")]) == 1
        assert "batch size 999999 exceeds the sample budget" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_sweep_defaults_to_stock_sizes(self, workspace):
        root, cfg_path = workspace
        assert main(["sweep-batch", "--config", str(cfg_path), "--out", str(root / "out" / "stock")]) == 0
        doc = json.loads((root / "out" / "stock.batch_sweep.json").read_text())
        assert [r["batch_size"] for r in doc["rows"]] == list(SWEEP_BATCH_SIZES)


# The flags each command takes, and a value for each flag
COMMAND_FLAGS = {
    "train": {"--config", "--out"},
    "compare": {"--config", "--alpha", "--gamma", "--seed", "--out", "--modes"},
    "run": {"--config", "--mode", "--alpha", "--gamma", "--seed", "--out"},
    "diagnose": {"--config", "--mode", "--alpha", "--gamma", "--seed", "--out"},
    "sweep-batch": {"--config", "--mode", "--alpha", "--gamma", "--seed", "--out", "--sizes"},
}
FLAG_VALUES = {"--config": "c.json", "--mode": "tbn", "--alpha": "0.3", "--gamma": "5", "--seed": "4", "--out": "o/x",
               "--modes": "sbn", "--sizes": "4"}


class TestFlags:
    def test_the_flag_table_is_the_one_tried(self):
        assert {flag for flag in cli._FLAGS if isinstance(flag, str)} == set(FLAG_VALUES)
        assert set(cli._COMMANDS) == set(COMMAND_FLAGS)

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    def test_a_command_parses_exactly_its_flags(self, command, flag, capsys):
        argv = [command, flag, FLAG_VALUES[flag]]
        if flag in COMMAND_FLAGS[command]:
            assert getattr(cli.build_parser().parse_args(argv), flag[2:]) is not None
        else:
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2 and f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_each_flag_lands_in_its_config_field(self, workspace, tmp_path, monkeypatch, command):
        _, cfg_path = workspace
        monkeypatch.chdir(tmp_path)
        argv = [command] + [arg for flag in sorted(COMMAND_FLAGS[command])
                            for arg in (flag, str(cfg_path) if flag == "--config" else FLAG_VALUES[flag])]
        cfg = cli._load_cfg(cli.build_parser().parse_args(argv))
        landed = {"--mode": cfg.normalizer.mode, "--alpha": cfg.normalizer.alpha, "--gamma": cfg.normalizer.gamma_threshold,
                  "--seed": cfg.scenario.seed, "--out": cfg.model_path if command == "train" else cfg.out}
        expected = {"--mode": "tbn", "--alpha": 0.3, "--gamma": 5.0, "--seed": 4, "--out": "o/x"}
        for flag in COMMAND_FLAGS[command] & set(expected):
            assert landed[flag] == expected[flag], flag
        other = "out" if command == "train" else "model_path"  # the path `--out` does not set keeps the config's
        assert getattr(cfg, other) == json.loads(cfg_path.read_text())[other]
        assert os.listdir(tmp_path) == []  # the checks make nothing: the command makes the directory once they pass

    @pytest.mark.parametrize("argv", [["train", "--mode", "find"], ["train", "--alpha", "0.3"], ["train", "--gamma", "5"],
                                      ["train", "--seed", "4"], ["compare", "--mode", "tbn"]])
    def test_a_flag_the_command_ignores_is_a_usage_error(self, workspace, tmp_path, monkeypatch, capsys, argv):
        # none of these changes the command's files, so each stops before the config is read or anything written
        _, cfg_path = workspace
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "load_experiment_config", lambda *args: pytest.fail("read the config"))
        monkeypatch.setattr(cli, "train_model", lambda cfg: pytest.fail("trained the model"))
        monkeypatch.setattr(cli, "compare_modes", lambda *args, **kwargs: pytest.fail("ran a batch"))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg_path), "--out", "written"])
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestUnreadableInput:
    def test_config_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        assert f"cannot read config file {tmp_path}: Is a directory" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"out": "résultats/run"}'.encode("latin-1"))
        assert main(["run", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"config file {bad} is not valid JSON" in err and "utf-8" in err

    def test_model_path_that_is_a_directory_is_config_error(self, workspace, tmp_path, capsys, monkeypatch):
        _, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["model_path"] = str(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("ran a batch"))
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 1
        assert f"cannot read model file {tmp_path}: Is a directory" in capsys.readouterr().err

    def test_train_out_that_is_a_directory_is_config_error(self, workspace, tmp_path, capsys, monkeypatch):
        _, cfg_path = workspace
        (tmp_path / "m.nnm").mkdir()
        monkeypatch.setattr(cli, "train_model", lambda cfg: pytest.fail("trained the model"))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "m.nnm")]) == 1
        assert f"cannot write {tmp_path / 'm.nnm'}: it is a directory" in capsys.readouterr().err

    def test_run_file_that_is_a_directory_is_config_error(self, workspace, tmp_path, capsys, monkeypatch):
        # the `out` prefix names no directory; one of the files the run writes from it does
        _, cfg_path = workspace
        (tmp_path / "run.json").mkdir()
        monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("ran a batch"))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert f"cannot write {tmp_path / 'run.json'}: it is a directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.json"]


class TestBlasThreads:
    STREAMS = {"static256": {"kind": "static", "batch_size": 256}, "b1": {"batch_size": 1, "num_batches": 24},
               "b4": {"kind": "cross_mix", "batch_size": 4, "num_batches": 24}}

    def test_run_files_hold_across_blas_threads_and_kernels_but_for_scores(self, tmp_path):
        # Train, then find_star runs on a B=256 stream (conv, moments and similarity in 64-row blocks, the head row
        # by row), a B=1 stream and a B=4 stream (one masked similarity and one merge per stack of 16 batches, the
        # cold start ending inside the first): their metrics files must be the same bytes under 1 and 2 BLAS
        # threads. Under OpenBLAS's Sandybridge kernel, at the default thread count, the model file differs, and so
        # do find_star's raw layer scores, which follow the source statistics; everything else must be the same
        # bytes. A BLAS that ignores OPENBLAS_CORETYPE runs its own kernel there, and that comparison holds trivially.
        nproc = len(os.sched_getaffinity(0))
        if nproc < 2:
            pytest.skip("needs two cores to run two BLAS threads")
        src = str(Path(__file__).resolve().parents[1] / "src")
        thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        envs = {f"threads{n}": {var: str(n) for var in thread_vars} for n in (1, min(2, nproc))}
        envs["sandybridge"] = {"OPENBLAS_CORETYPE": "Sandybridge"}
        outputs = {}
        for env_name, env_vars in envs.items():
            root = tmp_path / env_name
            root.mkdir()
            env = {**os.environ, "PYTHONPATH": src, **env_vars}
            commands = []
            for name, stream in self.STREAMS.items():
                cfg = json.loads(json.dumps(SMALL_CONFIG))
                cfg["scenario"].update(stream)
                cfg["model_path"] = str(root / "model.nnm")
                (root / f"{name}.config.json").write_text(json.dumps(cfg))
                commands.append(["run", "--config", str(root / f"{name}.config.json"), "--mode", "find_star", "--out", str(root / name)])
            for argv in [["train", "--config", str(root / "b1.config.json")], *commands]:
                subprocess.run([sys.executable, "-m", "neighbornorm.cli", *argv], env=env, check=True, capture_output=True)
            files = [f"{name}{ext}" for name in self.STREAMS for ext in (".json", ".csv")]
            outputs[env_name] = {name: (root / name).read_bytes() for name in files}
        base, threads, kernel = outputs.values()
        assert [name for name in files if threads[name] != base[name]] == []
        for name in files:
            if name.endswith(".csv"):
                assert kernel[name] == base[name], name
                continue
            ours, theirs = json.loads(kernel[name]), json.loads(base[name])
            scores = [[record.pop("raw_average") for record in run["sensitivity"]] for run in (ours, theirs)]
            assert ours == theirs and scores[0] == pytest.approx(scores[1], rel=1e-6), name
