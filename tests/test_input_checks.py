"""One home for each codec decision: the renormalization floor, the training
defaults and the range check on input numbers, and the exit-code contract of
the commands that read them."""

import inspect
import os

import numpy as np
import pytest

from slvq import archive, baselines, vqae
from slvq.budget import BudgetError, BudgetSpec, llm_compression_ratio, solve_hyperparams
from slvq.cli import EXIT_DATA, EXIT_NUMERIC, _build_parser
from slvq.harness import cache_teacher_labels, init_mlp, make_task, train_mlp_kl
from slvq.labels import (
    LabelValidationError,
    LogitMatrix,
    SoftLabelMatrix,
    _finite_positive,
    stable_softmax,
    write_slab,
)
from slvq.optim import AdamW

from conftest import random_labels
from test_cli import run   # pytest turns any RuntimeWarning into an error

BAD_FLOATS = [float("nan"), float("inf"), -float("inf"), -1.0]


class TestFinitePositive:
    @pytest.mark.parametrize("x", [1e-300, 1.0, 3, np.float64(2.5), np.finfo(float).max])
    def test_accepts_finite_positive(self, x):
        assert _finite_positive(x) and _finite_positive(x, zero_ok=True)

    @pytest.mark.parametrize("x", [*BAD_FLOATS, -3, np.float64("nan")])
    def test_rejects_the_rest(self, x):
        assert not _finite_positive(x) and not _finite_positive(x, zero_ok=True)

    @pytest.mark.parametrize("x", [0, 0.0, -0.0])
    def test_zero_only_if_allowed(self, x):
        assert not _finite_positive(x) and _finite_positive(x, zero_ok=True)


class TestRenormalizationFloor:
    @pytest.mark.parametrize("fn", [vqae.renormalize, vqae.decompress, vqae.TrainConfig,
                                    vqae.TopkVqModel, archive.vqae_archive, archive.write_model,
                                    baselines.topk_decompress, baselines.scalar_quant_invert,
                                    baselines.pca_decompress], ids=lambda fn: fn.__qualname__)
    def test_every_epsilon_default_is_the_floor(self, fn):
        assert inspect.signature(fn).parameters["epsilon"].default is vqae.RENORM_FLOOR


def fit_argv(labels="l.slab", out="m.slvq"):
    return ["fit", "--labels", str(labels), "--out", str(out), "--d-h", "4", "--d-c", "2", "--k", "4"]


class TestTrainingDefaults:
    def test_fit_flags_default_to_train_config(self):
        args = vars(_build_parser()[0].parse_args(fit_argv()))
        fields = {"steps": "max_steps", "batch_size": "batch_size", "alpha": "alpha", "beta": "beta",
                  "lr": "lr", "weight_decay": "weight_decay", "epsilon": "epsilon",
                  "gradient_mode": "gradient_mode"}   # argparse dest -> TrainConfig field
        assert {dest: args[dest] for dest in fields} == {
            dest: getattr(vqae.TrainConfig, field) for dest, field in fields.items()}

    def test_eval_steps_default_to_train_config(self):
        assert _build_parser()[0].parse_args(["eval"]).steps == vqae.TrainConfig.max_steps

    def test_fit_flags_reach_the_config(self, capsys, monkeypatch, tmp_path):
        seen = []

        def stop(labels, d_h, d_c, k, config):
            seen.append(config)
            raise vqae.TrainingError("stopped")
        monkeypatch.setattr(vqae, "fit", stop)
        write_slab(random_labels(np.random.default_rng(0), 8, 4), tmp_path / "l.slab")
        code, _, _ = run(capsys, *fit_argv(tmp_path / "l.slab", tmp_path / "m.slvq"),
                         "--steps", "7", "--batch-size", "30",
                         "--alpha", "0.5", "--beta", "0.1", "--lr", "0.02", "--weight-decay", "0",
                         "--epsilon", "1e-5", "--gradient-mode", "literal_stop_gradient",
                         "--seed", "9")
        assert code == EXIT_NUMERIC
        # the batch is capped at the 8 label rows
        assert seen == [vqae.TrainConfig(alpha=0.5, beta=0.1, lr=0.02, weight_decay=0.0,
                                         batch_size=8, max_steps=7, seed=9,
                                         gradient_mode="literal_stop_gradient", epsilon=1e-5)]


class TestAdamWRange:
    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_rejects_non_finite_lr(self, lr):
        with pytest.raises(ValueError, match="lr"):
            AdamW({"p": np.zeros(2)}, lr=lr)

    @pytest.mark.parametrize("decay", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_weight_decay(self, decay):
        with pytest.raises(ValueError, match="weight_decay"):
            AdamW({"p": np.zeros(2)}, weight_decay=decay)


class TestOtherRanges:
    @pytest.mark.parametrize("temperature", [float("inf"), -float("inf")])
    def test_infinite_temperature(self, temperature):
        with pytest.raises(LabelValidationError, match="temperature must be positive"):
            stable_softmax(np.array([[0.0, 5.0]]), temperature)
        with pytest.raises(LabelValidationError, match="temperature must be positive"):
            LogitMatrix(np.zeros((1, 2)), temperature=temperature)

    @pytest.mark.parametrize("target", [float("nan"), float("inf")])
    def test_solve_rejects_non_finite_target(self, target):
        with pytest.raises(BudgetError, match="target ratio"):
            solve_hyperparams(target, BudgetSpec(1, 10, 1))

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_llm_ratio_rejects_non_finite_archive(self, size):
        with pytest.raises(BudgetError, match="archive size"):
            llm_compression_ratio(10, 10, size)


def tiny_model():
    """c = 3, d_h = 4, d_c = 2, k = 2."""
    return vqae.VqaeModel(np.ones((3, 4)), np.ones((4, 3)), np.ones((2, 2)))


# (call, error, message): each call breaks one structural rule of its input
STRUCTURE_CHECKS = {
    "pack_indices 1-D": (lambda: archive.pack_indices(np.zeros(4, dtype=np.int64), 2),
                         archive.ArchiveError, "index matrix must be 2-D"),
    "pack_indices float": (lambda: archive.pack_indices(np.array([[1.7]]), 3),
                           archive.ArchiveError, "index matrix must be 2-D integers"),
    "write_model gradient mode": (lambda: archive.write_model(tiny_model(), os.devnull, "sideways"),
                                  vqae.ModelValidationError, "cannot write gradient mode 'sideways'"),
    "TrainConfig gradient mode": (lambda: vqae.TrainConfig(gradient_mode="sideways"),
                                  vqae.ModelValidationError, "unknown gradient mode 'sideways'"),
    "decode latent width": (lambda: vqae.decode(np.zeros((2, 3)), tiny_model()),
                            vqae.ModelValidationError, "expected latent dim 4, got 3"),
    "topk_scatter shapes": (lambda: vqae.topk_scatter(np.ones((2, 2)), np.zeros((2, 3), dtype=np.int64), 4),
                            vqae.ModelValidationError, "does not match values"),
    "VqaeModel 1-D codebook": (lambda: vqae.VqaeModel(np.ones((3, 4)), np.ones((4, 3)), np.ones(2)),
                               vqae.ModelValidationError, "codebook must be 2-D"),
    "SoftLabelMatrix 1-D": (lambda: SoftLabelMatrix(np.array([0.5, 0.5])),
                            LabelValidationError, "label data must be 2-D"),
    "LogitMatrix 3-D": (lambda: LogitMatrix(np.zeros((1, 2, 2))),
                        LabelValidationError, "logit data must be 2-D"),
}


@pytest.mark.parametrize("name", STRUCTURE_CHECKS)
def test_structure_check_rejects(name):
    call, error, message = STRUCTURE_CHECKS[name]
    with pytest.raises(error, match=message):
        call()


class TestHarnessRanges:
    @pytest.mark.parametrize("kwargs", [{"d": 0}, {"d": 0.5}, {"spread": -1.0}, {"spread": float("nan")},
                                        {"spread": float("inf")}], ids=str)
    def test_make_task(self, kwargs):
        with pytest.raises(LabelValidationError):
            make_task(**{"seed": 0, "d": 3, "c": 3, "n_per_class": 2, **kwargs})

    @pytest.mark.parametrize("kwargs", [{"views": 0}, {"views": 1.5}, {"jitter": -0.1}, {"jitter": float("nan")},
                                        {"jitter": float("inf")}], ids=str)
    def test_cache_teacher_labels(self, kwargs):
        task = make_task(0, d=3, c=3, n_per_class=2)
        with pytest.raises(LabelValidationError):
            cache_teacher_labels(init_mlp(3, 4, 3, seed=0), task, **kwargs)

    @pytest.mark.parametrize("epochs", [0, 1.5])
    def test_train_mlp_kl_needs_a_whole_epoch(self, epochs):
        task = make_task(0, d=3, c=3, n_per_class=2)
        with pytest.raises(vqae.ModelValidationError, match="epochs"):
            train_mlp_kl(init_mlp(3, 4, 3, seed=0), task.x_train, np.eye(3)[task.y_train][None],
                         tau=1.0, epochs=epochs, batch_size=4, seed=0)

    def test_train_mlp_kl_divergence_is_a_training_error(self):
        # at tau 1e-300 the KL gradients reach 1e300 and AdamW's second moment overflows
        task = make_task(0, d=3, c=3, n_per_class=2)
        with pytest.raises(vqae.TrainingError, match="epoch 0: overflow"):
            train_mlp_kl(init_mlp(3, 4, 3, seed=0), task.x_train, np.full((1, 6, 3), 1 / 3),
                         tau=1e-300, epochs=2, batch_size=4, seed=0)


class TestCommandRanges:
    def test_solve_nan_target(self, capsys):
        code, out, err = run(capsys, "solve", "--target", "nan", "--ipc", "10", "--classes", "100",
                             "--epochs", "300")
        assert code == EXIT_DATA and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # tiny shapes: 4 classes x 4 rows x 4 views fill one 64-row fit batch
    TINY = ("--classes", "4", "--n-per-class", "4", "--dim", "4", "--steps", "5",
            "--student-epochs", "2")

    @pytest.mark.parametrize("argv,expected", [
        (["--tau", "1e-300"], EXIT_NUMERIC),
        (["--tau", "1e-320"], EXIT_NUMERIC),
        (["--dim", "0"], EXIT_DATA),
        (["--student-epochs", "0"], EXIT_DATA),
        (["--jitter", "inf"], EXIT_DATA),
        (["--spread", "nan"], EXIT_DATA),
        (["--views", "0"], EXIT_DATA),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_eval_probe_ends_in_one_line(self, capsys, argv, expected):
        code, out, err = run(capsys, "eval", *self.TINY, *argv)
        assert code == expected and out == ""
        prefix = "numeric failure:" if expected == EXIT_NUMERIC else "error:"
        assert err.startswith(prefix) and err.count("\n") == 1
