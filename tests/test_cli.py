import csv
import json
import struct
import warnings

import numpy as np
import pytest

from slvq import harness
from slvq.archive import (
    CODEC_VQAE,
    CompressedArchive,
    _encode_archive,
    decompress_vqae_archive,
    read_archive,
    vqae_archive,
    write_model,
)
from slvq.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from slvq.labels import SoftLabelMatrix, read_labels_csv, read_slab, write_slab

from conftest import random_labels
from test_archive import (
    HEADER_EDITS,
    MALFORMED_BODIES,
    f32_model,
    vqae_slar_with_header,
    with_packed_section,
)


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

    # one or two of the three used to print the raw cost and exit 0
    @pytest.mark.parametrize("dims", [["--d-c", "5"], ["--k", "4"], ["--d-c", "5", "--k", "4"]],
                             ids=" ".join)
    def test_budget_wants_all_three_vq_dimensions_or_none(self, capsys, dims):
        code, out, err = run(capsys, "budget", "--ipc", "1", "--classes", "10", "--epochs", "1",
                             *dims)
        assert code == EXIT_DATA and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

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

    @pytest.mark.parametrize("bits", [0, 33, 64])
    def test_archive_with_bits_outside_range(self, capsys, rng, tmp_path, bits):
        model = f32_model(rng)
        archive = vqae_archive(model, np.zeros((3, model.m), dtype=np.int64))
        bad = tmp_path / "bad.slar"
        bad.write_bytes(with_packed_section(
            _encode_archive(CompressedArchive(CODEC_VQAE, archive.header, archive.arrays)),
            3, model.m, bits))
        code, _, err = run(capsys, "decompress", "--archive", str(bad),
                           "--out", str(tmp_path / "o.slab"))
        assert code == EXIT_DATA
        assert err.startswith("error:") and err.count("\n") == 1
        assert "bits must be in 1..32" in err

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

    @pytest.mark.parametrize("row", ["1e308,1e308", "inf,-inf"], ids=["sum overflows", "inf and -inf"])
    def test_csv_bad_row_sum_exits_without_warning(self, capsys, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"0,1\n0,1\n{row}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "fit", "--labels", str(bad), "--out",
                               str(tmp_path / "m.slvq"), "--d-h", "4", "--d-c", "2", "--k", "4")
        assert code == EXIT_DATA
        assert err.startswith("error:") and err.count("\n") == 1
        assert "row 1" in err

    def test_csv_that_is_not_utf8(self, capsys, tmp_path, label_file):
        bad = tmp_path / "back.csv"
        bad.write_bytes(label_file.read_bytes())   # SLAB bytes under a .csv name
        code, out, err = run(capsys, "fit", "--labels", str(bad), "--out", str(tmp_path / "m.slvq"),
                             "--d-h", "4", "--d-c", "2", "--k", "4")
        assert code == EXIT_DATA and out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

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


class TestFitAndEvalArguments:
    """Every bad fit or eval ends in one line: ``error:`` (exit 2) or
    ``numeric failure:`` (exit 3), with no traceback and no RuntimeWarning."""

    def fit(self, capsys, label_file, out, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(capsys, "fit", "--labels", str(label_file), "--out", str(out),
                       "--d-h", "4", "--d-c", "2", "--k", "4", *argv)

    @pytest.mark.parametrize("argv", [["--d-c", "0"], ["--d-h", "0"], ["--d-h", "5"],
                                      ["--k", "-1"], ["--batch-size", "0"], ["--steps", "-1"]],
                             ids=" ".join)
    def test_bad_fit_argument(self, capsys, label_file, tmp_path, argv):
        code, _, err = self.fit(capsys, label_file, tmp_path / "m.slvq", *argv)
        assert code == EXIT_DATA
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "m.slvq").exists()

    # nan used to train NaN weights and stop on the latent, inf to overflow a
    # step, and -1 to train with weights that grow
    @pytest.mark.parametrize("decay", ["nan", "inf", "-1"])
    def test_bad_weight_decay_is_named(self, capsys, label_file, tmp_path, decay):
        code, _, err = self.fit(capsys, label_file, tmp_path / "m.slvq",
                                "--weight-decay", decay)
        assert code == EXIT_DATA
        assert err.startswith("error:") and err.count("\n") == 1
        assert "weight_decay" in err
        assert not (tmp_path / "m.slvq").exists()

    # nan or inf alpha, beta and lr used to fail the first step (exit 3), and
    # epsilon inf wrote a model whose archives could not be decoded
    @pytest.mark.parametrize("argv", [["--alpha", "nan"], ["--alpha", "inf"], ["--beta", "nan"],
                                      ["--lr", "inf"], ["--epsilon", "inf"]], ids=" ".join)
    def test_bad_training_value_is_named(self, capsys, label_file, tmp_path, argv):
        code, _, err = self.fit(capsys, label_file, tmp_path / "m.slvq", *argv)
        assert code == EXIT_DATA
        assert err.startswith("error:") and err.count("\n") == 1
        assert argv[0].removeprefix("--") in err
        assert not (tmp_path / "m.slvq").exists()

    # lr 1e160 overflows the first update; weight decay 1e308 leaves finite
    # weights near 1e304 that overflow the second step's distance products
    @pytest.mark.parametrize("argv", [["--lr", "1e160"], ["--weight-decay", "1e308"]],
                             ids=" ".join)
    def test_diverging_fit_is_a_numeric_failure(self, capsys, label_file, tmp_path, argv):
        code, _, err = self.fit(capsys, label_file, tmp_path / "m.slvq", *argv)
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric failure: step") and err.count("\n") == 1
        assert not (tmp_path / "m.slvq").exists()

    def test_weights_float32_cannot_hold_are_not_written(self, capsys, label_file, tmp_path):
        # four steps at lr 1e10 leave weights finite in float64 but beyond float32
        code, _, err = self.fit(capsys, label_file, tmp_path / "m.slvq",
                                "--lr", "1e10", "--steps", "4")
        assert code == EXIT_DATA
        assert err.startswith("error:") and err.count("\n") == 1
        assert "float32" in err
        assert not (tmp_path / "m.slvq").exists()

    @pytest.mark.parametrize("argv", [["--classes", "1"], ["--n-per-class", "0"], ["--tau", "0"],
                                      ["--d-c", "0"]], ids=" ".join)
    def test_bad_eval_argument(self, capsys, argv):
        # 4 classes x 4 rows x 4 views fill one 64-row batch, so fit checks d_c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "eval", "--classes", "4", "--n-per-class", "4",
                               "--views", "4", "--steps", "1", "--student-epochs", "1", *argv)
        assert code == EXIT_DATA
        assert err.startswith("error:") and err.count("\n") == 1

    # numpy or Python refuses each count before allocating anything: a float
    # cannot hold 10**320 bytes, a C long cannot hold 10**20, and 2**62 codes
    # of 8 bytes pass np.intp's maximum
    @pytest.mark.parametrize("argv", [
        ["budget", "--ipc", "1" + "0" * 320, "--classes", "10", "--epochs", "1"],
        ["budget", "--ipc", "1", "--classes", "10", "--epochs", "1", "--d-h", "10", "--d-c", "5",
         "--k", "4", "--aug", "1" + "0" * 320, "--json"],
        ["eval", "--classes", "100000000000000000000", "--steps", "1"],
        ["eval", "--n-per-class", "100000000000000000000", "--steps", "1"],
        ["eval", "--k", str(2 ** 62), "--classes", "4", "--n-per-class", "2", "--views", "1",
         "--steps", "1", "--student-epochs", "1"],
    ], ids=["budget ipc", "budget aug", "eval classes", "eval n-per-class", "eval k"])
    def test_oversized_count_is_a_data_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DATA and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_memory_error_is_a_data_error(self, capsys, monkeypatch):
        def refuse(spec):
            raise MemoryError("cannot allocate")
        monkeypatch.setattr("slvq.budget.raw_label_bytes", refuse)
        code, _, err = run(capsys, "budget", "--ipc", "1", "--classes", "2", "--epochs", "1")
        assert code == EXIT_DATA
        assert err == "error: cannot allocate\n"

    def test_eval_checks_its_fit_config_before_training(self, capsys, monkeypatch):
        calls, train_teacher = [], harness.train_teacher

        def record(*args, **kwargs):
            calls.append(args)
            return train_teacher(*args, **kwargs)
        monkeypatch.setattr(harness, "train_teacher", record)
        code, out, err = run(capsys, "eval", "--steps", "-1", "--classes", "4", "--n-per-class", "2",
                             "--views", "1")
        assert code == EXIT_DATA and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert calls == []

    # an archive stores at most 32-bit codes, so k above 2**32 is refused before any work
    def test_budget_k_beyond_the_widest_code(self, capsys):
        code, out, err = run(capsys, "budget", "--ipc", "1", "--classes", "10", "--epochs", "1",
                             "--d-h", "40", "--d-c", "1", "--k", str(2 ** 40))
        assert code == EXIT_DATA and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_eval_k_beyond_the_widest_code_trains_nothing(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "train_teacher", lambda *args, **kwargs: calls.append(args))
        code, out, err = run(capsys, "eval", "--k", str(2 ** 62), "--steps", "1")
        assert code == EXIT_DATA and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert calls == []

    def test_overflowing_task_draw_is_one_numeric_failure(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "eval", "--spread", "1e308", "--classes", "4",
                               "--n-per-class", "2", "--views", "1", "--steps", "1",
                               "--student-epochs", "1")
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric failure:") and err.count("\n") == 1


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

    # --config after the subcommand is read as before it: one rule for every position
    @pytest.mark.parametrize("flag", ["--config", "--conf"])
    def test_config_after_the_subcommand(self, capsys, tmp_path, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"json": True}))
        code, out, _ = run(capsys, "tables", flag, str(cfg))
        assert code == EXIT_OK
        assert "raw_gb" in json.loads(out)

    @pytest.mark.parametrize("flag", ["--config", "--conf"])
    def test_bad_config_after_the_subcommand(self, capsys, tmp_path, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, out, err = run(capsys, "tables", flag, str(cfg))
        assert code == EXIT_DATA and out == ""
        assert err.startswith("error: cannot read config") and err.count("\n") == 1

    # a key that is no flag's dest used to be ignored, and fit ran on its defaults
    @pytest.mark.parametrize("key", ["batch-size", "stepz"])
    def test_config_key_that_names_no_flag(self, capsys, label_file, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 7}))
        code, out, err = run(capsys, "--config", str(cfg), "fit", "--labels", str(label_file),
                             "--out", str(tmp_path / "m.slvq"), "--d-h", "4", "--d-c", "2",
                             "--k", "4", "--steps", "2")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(key) in err
        assert not (tmp_path / "m.slvq").exists()

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


class TestEvalBatchAndBudgetWarnings:
    def test_eval_caps_its_fit_batch_at_the_label_rows(self, capsys):
        # 4 classes x 2 rows x 1 view are 8 label rows, fewer than the default batch of 64
        code, out, err = run(capsys, "eval", "--classes", "4", "--n-per-class", "2",
                             "--views", "1", "--steps", "5", "--student-epochs", "1", "--json")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["codec"] == "vqae"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_inexact_k_is_reported_only_in_the_output(self, capsys, json_flag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "budget", "--ipc", "10", "--classes", "100",
                                 "--epochs", "300", "--d-h", "50", "--d-c", "5", "--k", "3",
                                 *json_flag)
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["exact"] is False if json_flag else "inexact" in out

    def test_eval_with_inexact_k_prints_no_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "eval", "--classes", "4", "--n-per-class", "2",
                               "--views", "1", "--steps", "2", "--student-epochs", "1", "--k", "3")
        assert code == EXIT_OK and err == ""

    def test_other_warnings_still_reach_the_user(self, capsys, monkeypatch):
        def warn(spec):
            warnings.warn("some other warning")
            return 0
        monkeypatch.setattr("slvq.budget.raw_label_bytes", warn)
        with pytest.warns(UserWarning, match="some other warning"):
            assert run(capsys, "budget", "--ipc", "1", "--classes", "2", "--epochs", "1")[0] == EXIT_OK


class TestLabelAndCurveFiles:
    def test_decompress_writes_csv_for_a_csv_path(self, capsys, label_file, tmp_path):
        model, archive, back = tmp_path / "m.slvq", tmp_path / "a.slar", tmp_path / "back.csv"
        assert run(capsys, "fit", "--labels", str(label_file), "--out", str(model), "--d-h", "8",
                   "--d-c", "4", "--k", "8", "--steps", "20")[0] == EXIT_OK
        assert run(capsys, "compress", "--labels", str(label_file), "--model", str(model),
                   "--out", str(archive))[0] == EXIT_OK
        assert run(capsys, "decompress", "--archive", str(archive), "--out", str(back))[0] == EXIT_OK
        expected = decompress_vqae_archive(read_archive(archive)).data
        assert read_labels_csv(back).data.tobytes() == expected.tobytes()
        assert run(capsys, "fit", "--labels", str(back), "--out", str(tmp_path / "m2.slvq"),
                   "--d-h", "8", "--d-c", "4", "--k", "8", "--steps", "5")[0] == EXIT_OK
        assert run(capsys, "compress", "--labels", str(back), "--model", str(model),
                   "--out", str(tmp_path / "a2.slar"))[0] == EXIT_OK

    def test_eval_csv_appends(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        for _ in range(2):
            code, _, err = run(capsys, "eval", "--classes", "4", "--n-per-class", "2", "--views", "1",
                               "--steps", "5", "--student-epochs", "1", "--csv", str(curve))
            assert code == EXIT_OK and err == ""
        with open(curve, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["codec", "storage_ratio", "retention"]
        assert len(rows) == 3 and rows[1] == rows[2] and rows[1][0] == "vqae"
