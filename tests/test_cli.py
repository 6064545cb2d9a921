import json
import struct
import warnings

import numpy as np
import pytest

from slvq.archive import write_model
from slvq.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from slvq.labels import SoftLabelMatrix, read_slab, write_slab

from conftest import random_labels
from test_archive import HEADER_EDITS, MALFORMED_BODIES, f32_model, vqae_slar_with_header


@pytest.fixture
def label_file(rng, tmp_path):
    labels = random_labels(rng, 64, 10)
    path = tmp_path / "labels.slab"
    write_slab(labels, path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPipeline:
    def test_fit_compress_decompress(self, capsys, label_file, tmp_path):
        model_path = tmp_path / "model.slvq"
        archive_path = tmp_path / "labels.slar"
        out_path = tmp_path / "restored.slab"

        code, out, _ = run(capsys, "fit", "--labels", str(label_file),
                           "--out", str(model_path), "--d-h", "8", "--d-c", "4",
                           "--k", "8", "--steps", "50", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["steps"] == 50

        code, out, _ = run(capsys, "compress", "--labels", str(label_file),
                           "--model", str(model_path), "--out", str(archive_path),
                           "--json")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 64

        code, out, _ = run(capsys, "decompress", "--archive", str(archive_path),
                           "--out", str(out_path), "--json")
        assert code == EXIT_OK
        restored = read_slab(out_path)
        assert restored.data.shape == (64, 10)
        np.testing.assert_allclose(restored.data.sum(axis=1), 1.0, atol=1e-9)

    def test_fit_deterministic_across_runs(self, capsys, label_file, tmp_path):
        p1, p2 = tmp_path / "m1.slvq", tmp_path / "m2.slvq"
        for p in (p1, p2):
            code, _, _ = run(capsys, "fit", "--labels", str(label_file), "--out",
                             str(p), "--d-h", "4", "--d-c", "2", "--k", "4",
                             "--steps", "20", "--seed", "7")
            assert code == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()


class TestBudgetCommands:
    def test_budget_raw_only(self, capsys):
        code, out, _ = run(capsys, "budget", "--ipc", "10", "--classes", "1000",
                           "--epochs", "300", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["raw_gb"] == 5.588

    def test_budget_vq(self, capsys):
        code, out, _ = run(capsys, "budget", "--ipc", "10", "--classes", "1000",
                           "--epochs", "300", "--d-h", "795", "--d-c", "5",
                           "--k", "1024", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["compressed_gb"] == 0.558

    def test_solve(self, capsys):
        code, out, _ = run(capsys, "solve", "--target", "40", "--ipc", "10",
                           "--classes", "100", "--epochs", "300", "--json")
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["ratio"] >= 40.0

    def test_tables(self, capsys):
        code, out, _ = run(capsys, "tables", "--json")
        assert code == EXIT_OK
        tables = json.loads(out)
        assert tables["raw_gb"]["10"] == 5.588
        assert tables["ours_gb"]["10"]["10"] == 0.558
        assert tables["ours_gb"]["40"]["10"] == 0.130


class TestErrorPaths:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "fit", "--labels", "x.slab")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_missing_label_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", "--labels", str(tmp_path / "none.slab"),
                           "--out", str(tmp_path / "m.slvq"), "--d-h", "4",
                           "--d-c", "2", "--k", "4")
        assert code == EXIT_DATA
        assert "error" in err

    def test_corrupt_archive(self, capsys, tmp_path):
        bad = tmp_path / "bad.slar"
        bad.write_bytes(b"SLAR" + b"\x00" * 40)
        code, _, _ = run(capsys, "decompress", "--archive", str(bad),
                         "--out", str(tmp_path / "o.slab"))
        assert code == EXIT_DATA

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _ = run(capsys, "--config", str(cfg), "tables")
        assert code == EXIT_DATA

    @pytest.mark.parametrize("content", [b"[1, 2]", b"\xff\xfe"], ids=["not an object", "not utf-8"])
    def test_config_file_not_a_json_object(self, capsys, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code, _, err = run(capsys, "--config", str(cfg), "tables")
        assert code == EXIT_DATA
        assert err.startswith("error:")

    def test_config_without_value(self, capsys):
        code, _, err = run(capsys, "tables", "--config")
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    @pytest.mark.parametrize("edit", [None, HEADER_EDITS["mismatched d_h"], HEADER_EDITS["missing k"]],
                             ids=["bad json header", "mismatched d_h", "missing k"])
    def test_crafted_archive(self, capsys, rng, tmp_path, edit):
        bad = tmp_path / "bad.slar"
        bad.write_bytes(MALFORMED_BODIES["bad json"] if edit is None
                        else vqae_slar_with_header(rng, edit))
        code, _, err = run(capsys, "decompress", "--archive", str(bad),
                           "--out", str(tmp_path / "o.slab"))
        assert code == EXIT_DATA
        assert err.startswith("error:")

    @pytest.mark.parametrize("short", ["labels", "model"])
    def test_file_shorter_than_header(self, capsys, rng, tmp_path, label_file, short):
        paths = {"labels": label_file, "model": tmp_path / "m.slvq"}
        write_model(f32_model(rng, c=10, d_h=4, d_c=2, k=4), paths["model"])
        magic = {"labels": b"SLAB", "model": b"SLVQ"}[short]
        paths[short] = tmp_path / f"short.{short}"
        paths[short].write_bytes(magic + b"\x01" * 6)
        code, _, err = run(capsys, "compress", "--labels", str(paths["labels"]),
                           "--model", str(paths["model"]), "--out", str(tmp_path / "o.slar"))
        assert code == EXIT_DATA
        assert err.startswith("error:")

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [0.5, np.nan, 0.5], [0.5, np.inf, 0.5],
                                     [0.5, -0.25, 0.75]],
                             ids=["all-zero row", "NaN cell", "inf cell", "negative cell"])
    def test_slab_bad_row_rejected_before_renormalizing(self, capsys, tmp_path, row):
        bad = tmp_path / "bad.slab"
        data = np.array([[0.25, 0.25, 0.5], row], dtype="<f4")
        bad.write_bytes(b"SLAB" + struct.pack("<HIIB", 1, 3, 2, 1) + data.tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "fit", "--labels", str(bad), "--out",
                               str(tmp_path / "m.slvq"), "--d-h", "4", "--d-c", "2", "--k", "4")
        assert code == EXIT_DATA
        assert err.startswith(f"error: {bad}: row 1")

    def test_csv_non_numeric_cell(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\n0.5,abc\n")
        code, _, err = run(capsys, "fit", "--labels", str(bad), "--out", str(tmp_path / "m.slvq"),
                           "--d-h", "4", "--d-c", "2", "--k", "4")
        assert code == EXIT_DATA
        assert err.startswith("error:")
        assert "bad.csv:2" in err

    @pytest.mark.parametrize("command", ["compress", "decompress"])
    def test_file_of_the_other_kind(self, capsys, rng, tmp_path, label_file, command):
        """Model files and label archives share the SLAR container; each
        command still rejects the other kind."""
        model_path, archive_path = tmp_path / "m.slvq", tmp_path / "a.slar"
        write_model(f32_model(rng, c=10, d_h=4, d_c=2, k=4), model_path)
        assert run(capsys, "compress", "--labels", str(label_file), "--model", str(model_path),
                   "--out", str(archive_path))[0] == EXIT_OK
        if command == "compress":
            argv = ["--labels", str(label_file), "--model", str(archive_path)]
        else:
            argv = ["--archive", str(model_path)]
        code, _, err = run(capsys, command, *argv, "--out", str(tmp_path / "o"))
        assert code == EXIT_DATA
        assert err.startswith("error:")


class TestConfigAndSeed:
    def test_config_file_sets_defaults(self, capsys, label_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 25}))
        code, out, _ = run(capsys, "--config", str(cfg), "fit", "--labels",
                           str(label_file), "--out", str(tmp_path / "m.slvq"),
                           "--d-h", "4", "--d-c", "2", "--k", "4", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["steps"] == 25

    def test_config_equals_form(self, capsys, label_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 25}))
        code, out, _ = run(capsys, f"--config={cfg}", "fit", "--labels",
                           str(label_file), "--out", str(tmp_path / "m.slvq"),
                           "--d-h", "4", "--d-c", "2", "--k", "4", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["steps"] == 25

    def test_seed_env_fallback(self, capsys, label_file, tmp_path, monkeypatch):
        monkeypatch.setenv("SLVQ_SEED", "9")
        p1 = tmp_path / "env.slvq"
        code, _, _ = run(capsys, "fit", "--labels", str(label_file), "--out",
                         str(p1), "--d-h", "4", "--d-c", "2", "--k", "4",
                         "--steps", "10")
        assert code == EXIT_OK
        monkeypatch.delenv("SLVQ_SEED")
        p2 = tmp_path / "flag.slvq"
        code, _, _ = run(capsys, "fit", "--labels", str(label_file), "--out",
                         str(p2), "--d-h", "4", "--d-c", "2", "--k", "4",
                         "--steps", "10", "--seed", "9")
        assert code == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()
