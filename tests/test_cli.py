import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from neighbornorm import cli
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

    def test_sweep_defaults_to_stock_sizes(self, workspace):
        root, cfg_path = workspace
        assert main(["sweep-batch", "--config", str(cfg_path), "--out", str(root / "out" / "stock")]) == 0
        doc = json.loads((root / "out" / "stock.batch_sweep.json").read_text())
        assert [r["batch_size"] for r in doc["rows"]] == list(SWEEP_BATCH_SIZES)


class TestBlasThreads:
    STREAMS = {"static256": {"kind": "static", "batch_size": 256}, "b1": {"batch_size": 1, "num_batches": 24}}

    def test_run_files_do_not_depend_on_blas_threads(self, tmp_path):
        # Train, then find_star runs on a B=256 stream (conv, moments, similarity and head in 64-row blocks)
        # and a B=1 stream: their metrics files must be the same bytes under 1 and 2 BLAS threads.
        nproc = len(os.sched_getaffinity(0))
        if nproc < 2:
            pytest.skip("needs two cores to run two BLAS threads")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = {}
        for threads in (1, min(2, nproc)):
            root = tmp_path / f"threads{threads}"
            root.mkdir()
            env = {**os.environ, "PYTHONPATH": src}
            env.update({var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
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
            outputs[threads] = {name: (root / name).read_bytes() for name in files}
        one, two = outputs.values()
        assert [name for name in one if one[name] != two[name]] == []
