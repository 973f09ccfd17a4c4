import json

import pytest

from neighbornorm.cli import main

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

    def test_bad_mode_is_config_error(self, workspace, capsys):
        _, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path), "--mode", "nope"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "mode" in err

    def test_nan_gamma_is_config_error(self, workspace, capsys):
        _, cfg_path = workspace
        assert main(["run", "--config", str(cfg_path), "--gamma", "nan"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "gamma_threshold" in err

    def test_bad_config_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 1

    def test_unwritable_output_is_runtime_error(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        out = tmp_path / "no" / "such" / "dir" / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err

    def test_conflicting_data_section_rejected(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["data"]["num_classes"] = 9  # model was built with 6
        bad = tmp_path / "conflict.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad)]) == 1
        assert "num_classes" in capsys.readouterr().err


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
