"""One count check: every dimension, count and seed slvq takes passes
``labels._is_count``, and the commands that read them keep the exit-code
contract."""

import json

import numpy as np
import pytest

from slvq import archive, baselines, budget, harness, vqae
from slvq.budget import BudgetError, BudgetSpec
from slvq.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE
from slvq.labels import LabelValidationError, _is_count
from slvq.vqae import ModelValidationError

from conftest import random_labels
from test_cli import label_file, run  # noqa: F401  (label_file is a fixture)

NOT_COUNTS = [0, -1, True, False, 1.0, 4.0, np.float64(2), np.bool_(True), "3", None]


class TestIsCount:
    @pytest.mark.parametrize("v", [1, 7, 2**70, np.int64(3), np.uint8(1), np.int32(1)], ids=repr)
    def test_accepts_integers(self, v):
        assert _is_count(v)

    @pytest.mark.parametrize("v", NOT_COUNTS, ids=repr)
    def test_rejects_the_rest(self, v):
        assert not _is_count(v)

    def test_least(self):
        assert _is_count(0, 0) and not _is_count(-1, 0)
        assert _is_count(2, 2) and not _is_count(1, 2) and not _is_count(True, 0)


def labels8():
    return random_labels(np.random.default_rng(0), 8, 6)


def mlp_kl(**kwargs):
    task = harness.make_task(0, d=3, c=3, n_per_class=2)
    args = {"epochs": 1, "batch_size": 4, **kwargs}
    return harness.train_mlp_kl(harness.init_mlp(3, 4, 3, seed=0), task.x_train,
                                np.eye(3)[task.y_train][None], tau=1.0, seed=0, **args)


SPEC = BudgetSpec(10, 100, 300)

# (call, error it must raise): each call passes one bad count
BAD_CALLS = {
    "topk_select k_top -1": (lambda: vqae.topk_select(labels8().data, -1), ModelValidationError),
    "topk_select k_top 0": (lambda: vqae.topk_select(labels8().data, 0), ModelValidationError),
    "topk_select k_top 2.0": (lambda: vqae.topk_select(labels8().data, 2.0), ModelValidationError),
    "vq_no_ae_fit d_c 0": (lambda: baselines.vq_no_ae_fit(labels8(), 0, 4), ModelValidationError),
    "vq_no_ae_fit k -1": (lambda: baselines.vq_no_ae_fit(labels8(), 2, -1), ModelValidationError),
    "pca_fit k_pc -1": (lambda: baselines.pca_fit(labels8(), -1), ModelValidationError),
    "pca_fit k_pc 0": (lambda: baselines.pca_fit(labels8(), 0), ModelValidationError),
    "scalar_quant_fit bits True": (lambda: baselines.scalar_quant_fit(labels8(), True),
                                   ModelValidationError),
    "ScalarQuantCodec no levels": (lambda: baselines.ScalarQuantCodec(np.array([])), ModelValidationError),
    "fit d_h 4.0": (lambda: vqae.fit(labels8(), 4.0, 2, 4, vqae.TrainConfig(batch_size=8)),
                    ModelValidationError),
    "fit k True": (lambda: vqae.fit(labels8(), 4, 2, True, vqae.TrainConfig(batch_size=8)),
                   ModelValidationError),
    "TrainConfig batch_size 1.5": (lambda: vqae.TrainConfig(batch_size=1.5), ModelValidationError),
    "TrainConfig max_steps 2.5": (lambda: vqae.TrainConfig(max_steps=2.5), ModelValidationError),
    "TrainConfig seed -1": (lambda: vqae.TrainConfig(seed=-1), ModelValidationError),
    "train_mlp_kl batch_size 0": (lambda: mlp_kl(batch_size=0), ModelValidationError),
    "train_mlp_kl epochs True": (lambda: mlp_kl(epochs=True), ModelValidationError),
    "make_task c 2.0": (lambda: harness.make_task(0, d=3, c=2.0, n_per_class=2),
                        LabelValidationError),
    "make_task n_per_class 1.0": (lambda: harness.make_task(0, d=3, c=3, n_per_class=1.0),
                                  LabelValidationError),
    "make_task n_test_per_class 0": (lambda: harness.make_task(0, 3, 3, 2, n_test_per_class=0),
                                     LabelValidationError),
    "topk_bytes k_top -1": (lambda: budget.topk_bytes(SPEC, -1), BudgetError),
    "pca_bytes k_pc 0": (lambda: budget.pca_bytes(SPEC, 0), BudgetError),
    "quant_bytes bits 2.0": (lambda: budget.quant_bytes(SPEC, 2.0), BudgetError),
    "BudgetSpec ipc True": (lambda: BudgetSpec(True, 100, 300), BudgetError),
    "bits_per_index k 4.0": (lambda: budget.bits_per_index(4.0), BudgetError),
    "asymptotic_ratio_class d_c 0": (lambda: budget.asymptotic_ratio_class(0, 16), BudgetError),
    "level_set steps -1": (lambda: budget.level_set(2, 4, -1), BudgetError),
    "llm_raw_bytes tokens 1.5": (lambda: budget.llm_raw_bytes(1.5, 10), BudgetError),
    "llm_raw_bytes bytes_per_scalar 0": (lambda: budget.llm_raw_bytes(10, 10, 0), BudgetError),
    "solve_hyperparams max_k 4.0": (lambda: budget.solve_hyperparams(10.0, BudgetSpec(1, 10, 1),
                                                                     max_k=4.0), BudgetError),
    "pack_indices bits 2.0": (lambda: archive.pack_indices(np.zeros((2, 2), int), 2.0),
                              archive.ArchiveError),
    "unpack_indices bits True": (lambda: archive.unpack_indices(b"\0\0", 2, 2, True),
                                 archive.ArchiveError),
}


@pytest.mark.parametrize("name", BAD_CALLS)
def test_bad_count_is_rejected(name):
    call, error = BAD_CALLS[name]
    with pytest.raises(error):
        call()


class TestNumpyIntegers:
    """A numpy integer is a count, and gives the same answer as the int."""

    def test_budget_spec(self):
        spec = BudgetSpec(np.int64(10), np.int64(100), np.int64(300), d_h=np.int64(1000),
                          d_c=np.int64(25), k=np.int64(512))
        assert spec == BudgetSpec(10, 100, 300, d_h=1000, d_c=25, k=512)
        assert all(type(getattr(spec, name)) is int for name in ("ipc", "num_classes", "k"))
        assert json.dumps(budget.vq_bytes(spec).as_dict())

    def test_level_set_and_bits(self):
        with pytest.warns(UserWarning, match="k=18446744073709551616 exceeds"):   # 2**64, exact
            assert budget.level_set(np.int64(2), np.int64(2**16), 2) == [(2**16, 2), (2**32, 4)]
        assert budget.bits_per_index(np.int64(9)) == 4
        assert budget.solve_hyperparams(20.0, SPEC, max_k=np.int64(256)) == \
            budget.solve_hyperparams(20.0, SPEC, max_k=256)

    def test_codec_counts(self):
        labels = labels8()
        values, classes = vqae.topk_select(labels.data, np.int64(3))
        assert values.shape == classes.shape == (8, 3)
        assert baselines.pca_fit(labels, np.int64(2)).k_pc == 2


def one_error_line(err):
    return err.startswith("error:") and err.count("\n") == 1


class TestCommandCounts:
    def fit_argv(self, label_file, tmp_path, *extra):
        return ("fit", "--labels", str(label_file), "--out", str(tmp_path / "m.slvq"),
                "--d-h", "4", "--d-c", "2", "--k", "4", *extra)

    @pytest.mark.parametrize("config", [{"steps": 2.5}, {"batch_size": 1.5}], ids=json.dumps)
    def test_fractional_count_in_config(self, capsys, label_file, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "--config", str(cfg), *self.fit_argv(label_file, tmp_path))
        assert code == EXIT_DATA and out == "" and one_error_line(err)
        assert not (tmp_path / "m.slvq").exists()

    @pytest.mark.parametrize("seed", [["--seed", "-1"], ["--seed=-2"]], ids=" ".join)
    def test_negative_seed_is_a_usage_error(self, capsys, label_file, tmp_path, seed):
        code, out, err = run(capsys, *self.fit_argv(label_file, tmp_path, *seed))
        assert code == EXIT_USAGE and out == "" and one_error_line(err)
        assert "--seed" in err

    def test_negative_eval_seed(self, capsys):
        code, out, err = run(capsys, "eval", "--seed", "-1")
        assert code == EXIT_USAGE and out == "" and one_error_line(err)

    @pytest.mark.parametrize("seed", ["abc", "-3", "1.5", ""])
    def test_bad_seed_environment(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("SLVQ_SEED", seed)
        code, out, err = run(capsys, "tables")
        assert code == EXIT_USAGE and out == "" and one_error_line(err)

    @pytest.mark.parametrize("seed", [1.5, -1, "x", True])
    def test_bad_seed_in_config(self, capsys, tmp_path, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        code, out, err = run(capsys, "--config", str(cfg), "tables")
        assert code == EXIT_USAGE and out == "" and one_error_line(err)

    def test_seed_from_config_reaches_fit(self, capsys, label_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        argv = self.fit_argv(label_file, tmp_path, "--steps", "10")
        assert run(capsys, "--config", str(cfg), *argv)[0] == EXIT_OK
        first = (tmp_path / "m.slvq").read_bytes()
        assert run(capsys, *argv, "--seed", "9")[0] == EXIT_OK
        assert (tmp_path / "m.slvq").read_bytes() == first
