"""Desk-scale distillation harness: synthetic Gaussian-cluster tasks, small
MLP teachers/students, soft-label caching with augmentation views, and
raw-vs-reconstructed student comparisons.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .labels import (LabelValidationError, SoftLabelMatrix, _finite_positive, _is_count, _row_blocks,
                     stable_softmax)
from .optim import AdamW
from .vqae import ModelValidationError, TrainingError


@dataclass(frozen=True)
class SyntheticTask:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    @property
    def dim(self) -> int:
        return self.x_train.shape[1]


def make_task(seed: int, d: int, c: int, n_per_class: int,
              n_test_per_class: int = 50, spread: float = 1.0) -> SyntheticTask:
    """Class-balanced Gaussian clusters; spread controls class overlap
    (0 -> point clusters, larger -> softer teacher labels)."""
    if not (_is_count(c, 2) and all(map(_is_count, (n_per_class, n_test_per_class, d)))):
        raise LabelValidationError(f"need integers c >= 2 and n_per_class, n_test_per_class, d >= 1, "
                                   f"got {c}, {n_per_class}, {n_test_per_class} and {d}")
    if not _is_count(seed, 0):
        raise LabelValidationError(f"need an integer seed >= 0, got {seed!r}")
    if not _finite_positive(spread, zero_ok=True):
        raise LabelValidationError(f"need a finite spread >= 0, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((c, d))

    def draw(per_class):
        ys = np.repeat(np.arange(c), per_class)
        xs = means[ys] + spread * rng.standard_normal((ys.size, d))
        return xs, ys

    with np.errstate(over="raise", invalid="raise"):   # a huge spread overflows the draw
        x_train, y_train = draw(n_per_class)
        x_test, y_test = draw(n_test_per_class)
    return SyntheticTask(x_train, y_train, x_test, y_test, c)


# ---------------------------------------------------------------------------
# One-hidden-layer MLP, trained with the same decoupled-weight-decay Adam
# regime as the codec.
# ---------------------------------------------------------------------------

@dataclass
class MlpModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def logits(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x @ self.w1 + self.b1) @ self.w2 + self.b2

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(x) == y).mean())

    def params(self) -> dict:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def init_mlp(d: int, hidden: int, c: int, seed: int) -> MlpModel:
    if not (_is_count(hidden) and _is_count(seed, 0)):
        raise ModelValidationError(f"need integers hidden >= 1 and seed >= 0, got {hidden!r} and {seed!r}")
    rng = np.random.default_rng(seed)
    return MlpModel(
        w1=rng.uniform(-1, 1, size=(d, hidden)) / np.sqrt(d),
        b1=np.zeros(hidden),
        w2=rng.uniform(-1, 1, size=(hidden, c)) / np.sqrt(hidden),
        b2=np.zeros(c),
    )


def _kl_grad_step(model: MlpModel, x, targets, tau, opt):
    """One AdamW step on mean KL(targets || softmax(logits / tau))."""
    z1 = x @ model.w1 + model.b1
    a1 = np.tanh(z1)
    logits = a1 @ model.w2 + model.b2
    q = stable_softmax(logits, tau)
    n = x.shape[0]
    dlogits = (q - targets) / (tau * n)
    dw2 = a1.T @ dlogits
    db2 = dlogits.sum(axis=0)
    da1 = dlogits @ model.w2.T
    dz1 = da1 * (1.0 - a1 * a1)
    dw1 = x.T @ dz1
    db1 = dz1.sum(axis=0)
    opt.step({"w1": dw1, "b1": db1, "w2": dw2, "b2": db2})
    # loss up to the constant entropy of the targets
    return float(-(targets * np.log(np.maximum(q, 1e-300))).sum() / n)


def train_mlp_kl(model: MlpModel, x: np.ndarray, targets_per_view, tau: float,
                 epochs: int, batch_size: int, seed: int):
    """Train on KL to soft targets; epoch e consumes view e mod a, cycling.

    targets_per_view: array of shape (a, n, c). Returns per-epoch mean loss.
    Raises TrainingError, as ``vqae.fit`` does, once a step overflows or goes NaN.
    """
    if not (_is_count(epochs) and _is_count(batch_size) and _is_count(seed, 0)):
        raise ModelValidationError(f"need integer epochs, batch_size >= 1 and seed >= 0, "
                                   f"got {epochs}, {batch_size}, {seed}")
    rng = np.random.default_rng(seed)
    opt = AdamW(model.params())
    views = targets_per_view.shape[0]
    n = x.shape[0]
    history = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(epochs):
                targets = targets_per_view[epoch % views]
                order = rng.permutation(n)
                losses = []
                for start in range(0, n, batch_size):
                    idx = order[start:start + batch_size]
                    losses.append(_kl_grad_step(model, x[idx], targets[idx], tau, opt))
                history.append(float(np.mean(losses)))
    except FloatingPointError as err:
        raise TrainingError(f"epoch {len(history)}: {err}") from None
    return history


def train_teacher(task: SyntheticTask, hidden: int = 128, epochs: int = 100, seed: int = 0) -> MlpModel:
    """Fit the teacher as a student of the one-hot ground truth (KL to one-hot = cross-entropy)."""
    onehot = SoftLabelMatrix(np.eye(task.num_classes)[task.y_train])
    return train_student_kl(task, onehot, 1.0, hidden, epochs, seed=seed)


def cache_teacher_labels(teacher: MlpModel, task: SyntheticTask, views: int = 1,
                         tau: float = 1.0, jitter: float = 0.0,
                         seed: int = 0) -> SoftLabelMatrix:
    """Teacher soft labels for ``views`` jittered copies of the training set.

    Rows are view-major: rows [v*n, (v+1)*n) hold view v for all samples.
    """
    if not (_is_count(views) and _finite_positive(jitter, zero_ok=True) and _is_count(seed, 0)):
        raise LabelValidationError(f"need integers views >= 1 and seed >= 0 and a finite jitter >= 0, "
                                   f"got {views}, {seed} and {jitter}")
    rng = np.random.default_rng(seed)
    n = task.x_train.shape[0]
    out = np.empty((views * n, teacher.b2.size))
    with np.errstate(over="raise", invalid="raise"):   # a tiny tau overflows the softmax
        for v in range(views):
            x = task.x_train + jitter * rng.standard_normal(task.x_train.shape)
            out[v * n:(v + 1) * n] = stable_softmax(teacher.logits(x), tau)
    return SoftLabelMatrix(out)


def train_student_kl(task: SyntheticTask, labels: SoftLabelMatrix, tau: float = 1.0,
                     hidden: int = 32, epochs: int = 100, batch_size: int = 64,
                     seed: int = 0) -> MlpModel:
    """Train a student on cached (possibly reconstructed) soft labels."""
    n = task.x_train.shape[0]
    if labels.n % n != 0:
        raise ValueError(f"{labels.n} label rows do not align with {n} samples")
    views = labels.n // n
    targets = labels.data.reshape(views, n, task.num_classes)
    student = init_mlp(task.dim, hidden, task.num_classes, seed)
    train_mlp_kl(student, task.x_train, targets, tau, epochs, batch_size, seed + 1)
    return student


# Whole-matrix reductions run over blocks of about this many elements, so
# their temporaries stay small; each row still reduces alone, in one piece.
_BLOCK_ELEMENTS = 2**16


def _mean_of_row_sums(row_terms, n: int, c: int) -> float:
    """Mean over n rows of the row sums of ``row_terms(rows)``, a c-wide block."""
    sums = np.empty(n)
    for rows in _row_blocks(n, c, _BLOCK_ELEMENTS):
        row_terms(rows).sum(axis=1, out=sums[rows])
    return float(sums.mean())


def mean_kl(p: SoftLabelMatrix, q: SoftLabelMatrix, floor: float = 1e-12) -> float:
    """Mean KL(p || q) over rows, in nats."""
    if p.data.shape != q.data.shape:
        raise ValueError(f"label shapes differ: {p.data.shape} vs {q.data.shape}")

    def terms(rows):
        pr = p.data[rows]
        t, u = np.maximum(pr, floor), np.maximum(q.data[rows], floor)
        np.log(t, out=t)
        t -= np.log(u, out=u)
        t *= pr
        return t
    return _mean_of_row_sums(terms, p.n, p.c)


def mean_entropy(labels: SoftLabelMatrix, floor: float = 1e-12) -> float:
    """Mean row entropy, in nats."""
    def terms(rows):
        d = labels.data[rows]
        t = np.maximum(d, floor)
        np.log(t, out=t)
        t *= d
        np.negative(t, out=t)
        return t
    return _mean_of_row_sums(terms, labels.n, labels.c)


@dataclass(frozen=True)
class DistillReport:
    raw_accuracy: float
    compressed_accuracy: float
    mean_kl: float
    storage_ratio: float
    codec_name: str = ""

    @property
    def retention(self) -> float:
        return self.compressed_accuracy / self.raw_accuracy

    def as_dict(self) -> dict:
        return {
            "codec": self.codec_name,
            "raw_accuracy": self.raw_accuracy,
            "compressed_accuracy": self.compressed_accuracy,
            "retention": self.retention,
            "mean_kl": self.mean_kl,
            "storage_ratio": self.storage_ratio,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


# The twin students train in two processes on Linux. Elsewhere (no fork on
# Windows, fork unsafe with macOS system frameworks) one after the other.
_FORK_TWIN = sys.platform.startswith("linux")


def _twin_students(task: SyntheticTask, labels: SoftLabelMatrix,
                   reconstructed: SoftLabelMatrix, *args) -> tuple[MlpModel, MlpModel]:
    """The raw-label student, trained here, and the reconstructed-label one,
    trained at the same time in a forked child, or here after it if there is
    no fork (``_FORK_TWIN`` off, SIGCHLD ignored so that no child can be
    waited for, or ``os.fork`` fails). The child inherits the inputs (nothing
    is pickled on the way in), pickles (ok, student or exception) into a pipe
    and leaves through ``os._exit``. It is reaped on every path, here or by a
    SIGCHLD handler, and one that exits without a result raises TrainingError."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork() if _FORK_TWIN and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN else -1
    except OSError:   # e.g. EAGAIN under a process limit
        pid = -1
    if pid < 0:
        os.close(read_fd)
        os.close(write_fd)
        return train_student_kl(task, labels, *args), train_student_kl(task, reconstructed, *args)
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = (True, train_student_kl(task, reconstructed, *args))
            except Exception as err:
                result = (False, err)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            raw_student = train_student_kl(task, labels, *args)
            payload = pipe.read()
        try:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except ChildProcessError:   # a SIGCHLD handler reaped it, so the pipe decides
            status = 0 if payload else "unknown"
        pid = 0
    finally:
        if pid:   # this process's student failed, so the twin is not needed
            with contextlib.suppress(ProcessLookupError, ChildProcessError):   # reaped by a handler
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if status != 0:
        raise TrainingError(f"the reconstructed-label student exited with status {status} and no result")
    ok, result = pickle.loads(payload)
    if not ok:
        raise result
    return raw_student, result


def compare(task: SyntheticTask, labels: SoftLabelMatrix, reconstructed: SoftLabelMatrix,
            storage_ratio: float, tau: float = 1.0, hidden: int = 32,
            epochs: int = 100, batch_size: int = 64, seed: int = 0,
            codec_name: str = "") -> DistillReport:
    """Train twin students (identical seed) on raw vs reconstructed labels.

    On Linux the reconstructed-label student trains in a forked child while
    this process trains the raw-label one; elsewhere, or if the fork fails,
    they train one after the other. Every way gives the same bits.
    """
    if reconstructed.data.shape != labels.data.shape:
        raise ValueError("reconstructed labels must match the raw label shape")
    raw, cmp = _twin_students(task, labels, reconstructed, tau, hidden, epochs, batch_size, seed)
    return DistillReport(
        raw_accuracy=raw.accuracy(task.x_test, task.y_test),
        compressed_accuracy=cmp.accuracy(task.x_test, task.y_test),
        mean_kl=mean_kl(labels, reconstructed),
        storage_ratio=storage_ratio,
        codec_name=codec_name,
    )


def write_retention_csv(reports, path) -> None:
    """Append (codec, ratio, retention) rows to a CSV; a new or empty file gets the header."""
    with open(path, "a", newline="") as f:
        writer = csv.writer(f)
        if f.tell() == 0:
            writer.writerow(["codec", "storage_ratio", "retention"])
        for report in reports:
            writer.writerow([report.codec_name, report.storage_ratio, report.retention])
