import csv
import os

import numpy as np
import pytest

from slvq import harness
from slvq.harness import (
    DistillReport,
    MlpModel,
    cache_teacher_labels,
    compare,
    init_mlp,
    make_task,
    mean_entropy,
    mean_kl,
    train_mlp_kl,
    train_student_kl,
    train_teacher,
    write_retention_csv,
)
from slvq.labels import SoftLabelMatrix, stable_softmax
from slvq.optim import AdamW
from slvq.vqae import ModelValidationError, TrainingError


class TestMakeTask:
    def test_shapes_and_balance(self):
        task = make_task(seed=0, d=5, c=4, n_per_class=6, n_test_per_class=3)
        assert task.x_train.shape == (24, 5)
        assert task.x_test.shape == (12, 5)
        assert np.bincount(task.y_train).tolist() == [6] * 4
        assert task.dim == 5

    def test_deterministic(self):
        a = make_task(seed=3, d=4, c=3, n_per_class=5)
        b = make_task(seed=3, d=4, c=3, n_per_class=5)
        np.testing.assert_array_equal(a.x_train, b.x_train)

    def test_spread_controls_overlap(self):
        tight = make_task(seed=0, d=8, c=5, n_per_class=10, spread=0.1)
        loose = make_task(seed=0, d=8, c=5, n_per_class=10, spread=3.0)

        def within_class_var(task):
            return np.mean([task.x_train[task.y_train == k].var() for k in range(5)])

        assert within_class_var(loose) > within_class_var(tight)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            make_task(seed=0, d=4, c=1, n_per_class=5)


class TestMlpGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        model = init_mlp(d=3, hidden=4, c=3, seed=0)
        x = rng.standard_normal((6, 3))
        targets = rng.dirichlet(np.ones(3), size=6)
        tau = 1.7

        captured = {}

        class Recorder:
            def step(self, grads):
                captured.update(grads)

        from slvq import harness
        harness._kl_grad_step(model, x, targets, tau, Recorder())

        def loss(params):
            m = MlpModel(**params)
            q = stable_softmax(m.logits(x), tau)
            return float(-(targets * np.log(q)).sum() / x.shape[0])

        base = {k: v.copy() for k, v in model.params().items()}
        h = 1e-6
        for name in base:
            numeric = np.zeros_like(base[name])
            it = np.nditer(base[name], flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                up = {k: v.copy() for k, v in base.items()}
                dn = {k: v.copy() for k, v in base.items()}
                up[name][i] += h
                dn[name][i] -= h
                numeric[i] = (loss(up) - loss(dn)) / (2 * h)
            scale = max(np.abs(numeric).max(), 1e-12)
            assert np.abs(captured[name] - numeric).max() / scale < 1e-6, name


class TestTraining:
    def test_teacher_beats_chance(self):
        task = make_task(seed=0, d=16, c=5, n_per_class=20, spread=0.5)
        teacher = train_teacher(task, hidden=32, epochs=60, seed=0)
        assert teacher.accuracy(task.x_test, task.y_test) > 0.5

    def test_loss_history_decreases(self):
        task = make_task(seed=0, d=8, c=4, n_per_class=20, spread=0.5)
        model = init_mlp(8, 16, 4, seed=0)
        onehot = np.eye(4)[task.y_train]
        history = train_mlp_kl(model, task.x_train, onehot[None], tau=1.0,
                               epochs=40, batch_size=16, seed=0)
        assert history[-1] < history[0]

    def test_cached_labels_are_view_major(self):
        task = make_task(seed=0, d=6, c=4, n_per_class=5)
        teacher = init_mlp(6, 8, 4, seed=0)
        labels = cache_teacher_labels(teacher, task, views=3, jitter=0.0, seed=0)
        assert labels.n == 3 * 20
        # zero jitter: every view is identical
        np.testing.assert_allclose(labels.data[:20], labels.data[20:40])

    def test_jitter_changes_views(self):
        task = make_task(seed=0, d=6, c=4, n_per_class=5)
        teacher = init_mlp(6, 8, 4, seed=0)
        labels = cache_teacher_labels(teacher, task, views=2, jitter=0.5, seed=0)
        assert not np.allclose(labels.data[:20], labels.data[20:])

    def test_student_rejects_misaligned_labels(self):
        task = make_task(seed=0, d=6, c=4, n_per_class=5)
        labels = SoftLabelMatrix(np.full((21, 4), 0.25))
        with pytest.raises(ValueError):
            train_student_kl(task, labels)


class TestMetricsAndCompare:
    def test_mean_kl_properties(self, rng):
        p = SoftLabelMatrix(rng.dirichlet(np.ones(5), size=10))
        q = SoftLabelMatrix(rng.dirichlet(np.ones(5), size=10))
        assert mean_kl(p, p) == pytest.approx(0.0, abs=1e-12)
        assert mean_kl(p, q) > 0

    def test_mean_entropy_bounds(self, rng):
        uniform = SoftLabelMatrix(np.full((4, 8), 0.125))
        assert mean_entropy(uniform) == pytest.approx(np.log(8))
        peaked = SoftLabelMatrix(np.eye(8)[:4] * (1 - 1e-9) + 1e-9 / 8)
        assert mean_entropy(peaked) < 0.1

    def test_identical_labels_give_unit_retention(self):
        task = make_task(seed=0, d=6, c=4, n_per_class=8, spread=0.5)
        teacher = train_teacher(task, hidden=16, epochs=30, seed=0)
        labels = cache_teacher_labels(teacher, task, views=1, seed=0)
        report = compare(task, labels, labels, storage_ratio=1.0,
                         epochs=30, seed=0, codec_name="identity")
        assert report.retention == 1.0
        assert report.mean_kl == pytest.approx(0.0, abs=1e-12)

    def test_compare_rejects_shape_mismatch(self):
        task = make_task(seed=0, d=6, c=4, n_per_class=5)
        a = SoftLabelMatrix(np.full((20, 4), 0.25))
        b = SoftLabelMatrix(np.full((40, 4), 0.25))
        with pytest.raises(ValueError):
            compare(task, a, b, storage_ratio=1.0)

    def test_report_serialization(self):
        report = DistillReport(0.8, 0.72, 0.1, 40.0, codec_name="x")
        d = report.as_dict()
        assert d["retention"] == pytest.approx(0.9)
        assert "x" in report.to_json()

    def test_retention_csv(self, tmp_path):
        reports = [DistillReport(0.8, 0.72, 0.1, 40.0, codec_name="a"),
                   DistillReport(0.8, 0.4, 0.5, 100.0, codec_name="b")]
        path = tmp_path / "curve.csv"
        write_retention_csv(reports, path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["codec", "storage_ratio", "retention"]
        assert rows[1][0] == "a"
        assert float(rows[2][2]) == pytest.approx(0.5)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTwinStudents:
    """compare trains the reconstructed-label student in a forked child on Linux."""

    @pytest.fixture
    def twin_inputs(self):
        task = make_task(seed=0, d=6, c=4, n_per_class=8, spread=0.5)
        teacher = train_teacher(task, hidden=16, epochs=30, seed=0)
        labels = cache_teacher_labels(teacher, task, views=2, jitter=0.1, seed=0)
        mixed = 0.7 * labels.data + 0.3 * np.random.default_rng(5).dirichlet(np.ones(4), size=labels.n)
        return task, labels, SoftLabelMatrix(mixed)

    def fail_on(self, monkeypatch, target, fail):
        train = harness.train_student_kl

        def patched(task, labels, *args):
            if labels is target:
                fail()
            return train(task, labels, *args)
        monkeypatch.setattr(harness, "train_student_kl", patched)

    def test_forked_report_equals_sequential_and_direct(self, twin_inputs, monkeypatch):
        task, labels, reconstructed = twin_inputs
        twin = compare(task, labels, reconstructed, storage_ratio=40.0, epochs=20, seed=3)
        assert_no_child()
        monkeypatch.setattr(harness, "_FORK_TWIN", False)
        sequential = compare(task, labels, reconstructed, storage_ratio=40.0, epochs=20, seed=3)
        assert twin == sequential
        raw, cmp = (train_student_kl(task, y, epochs=20, seed=3) for y in (labels, reconstructed))
        assert (twin.raw_accuracy, twin.compressed_accuracy) == (
            raw.accuracy(task.x_test, task.y_test), cmp.accuracy(task.x_test, task.y_test))
        assert twin.raw_accuracy != twin.compressed_accuracy   # a swapped twin would show

    @pytest.mark.skipif(not harness._FORK_TWIN, reason="the twins fork only on Linux")
    def test_forked_students_are_the_same_bits(self, twin_inputs):
        task, labels, reconstructed = twin_inputs
        args = (1.0, 16, 20, 64, 3)
        twins = harness._twin_students(task, labels, reconstructed, *args)
        assert_no_child()
        for twin, y in zip(twins, (labels, reconstructed)):
            direct = train_student_kl(task, y, *args)
            for name, value in direct.params().items():
                assert twin.params()[name].tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("error", [TrainingError, ModelValidationError])
    def test_error_in_forked_twin_reaches_caller_with_its_type(self, twin_inputs, monkeypatch, error):
        task, labels, reconstructed = twin_inputs

        def fail():
            raise error("twin diverged")
        self.fail_on(monkeypatch, reconstructed, fail)
        with pytest.raises(error, match="twin diverged"):
            compare(task, labels, reconstructed, storage_ratio=40.0, epochs=20)
        assert_no_child()

    def test_error_in_callers_student_reaches_caller(self, twin_inputs, monkeypatch):
        task, labels, reconstructed = twin_inputs

        def fail():
            raise TrainingError("raw student diverged")
        self.fail_on(monkeypatch, labels, fail)
        with pytest.raises(TrainingError, match="raw student diverged"):
            compare(task, labels, reconstructed, storage_ratio=40.0, epochs=20)
        assert_no_child()

    @pytest.mark.skipif(not harness._FORK_TWIN, reason="the twins fork only on Linux")
    def test_twin_that_dies_without_a_result_is_a_training_error(self, twin_inputs, monkeypatch):
        task, labels, reconstructed = twin_inputs
        self.fail_on(monkeypatch, reconstructed, lambda: os._exit(5))
        with pytest.raises(TrainingError, match="exited with status 5"):
            compare(task, labels, reconstructed, storage_ratio=40.0, epochs=20)
        assert_no_child()
