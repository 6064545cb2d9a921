"""The three benchmark workloads.

Each workload has a ``setup(seed, workdir)`` that builds its inputs from the
seed and a ``run_pass(state, ledger, pass_id)`` that runs the measured
operation once through slvq's public API and checks its outputs. A pass
returns its timings and measured values; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

from slvq import archive as ar
from slvq import baselines as bl
from slvq import budget as bd
from slvq import cli
from slvq import harness as hz
from slvq import labels as lb
from slvq import vqae

BATCH_ROWS = 256          # rows a distillation step reads per batch
SIMPLEX_TOL = 1e-9
MATCH_TOL = 1e-12


class Ledger:
    """Counts checked operations and the ones that failed a check.

    ``quiet()`` wraps work done only to check outputs, so that a traced pass
    records no spans for it; ``check_s`` sums the time spent inside it.
    """

    def __init__(self, paused=contextlib.nullcontext):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.check_s = 0.0
        self._paused = paused

    @contextlib.contextmanager
    def quiet(self):
        t0 = time.perf_counter()
        try:
            with self._paused():
                yield
        finally:
            self.check_s += time.perf_counter() - t0

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}")


def teacher_like_labels(rng, n, c, tau=2.0):
    """Soft labels shaped like a teacher's at temperature ``tau``.

    Each row has one dominant class whose logit margin is drawn per row, so
    the top probability spans roughly 0.1 to 0.9 (median about 0.5). The rest
    of the row follows a low-rank class-similarity profile of its dominant
    class plus per-sample noise, as a trained teacher's confusions do.
    Uniform Dirichlet rows would have neither the peak nor the structure,
    and code usage, renormalize clamping and top-k all depend on both.
    """
    rank = 16
    profile = (rng.standard_normal((c, rank)) @ rng.standard_normal((rank, c))) / np.sqrt(rank)
    dominant = rng.integers(0, c, n)
    logits = profile[dominant].astype(np.float32)
    logits += 0.5 * rng.standard_normal((n, c), dtype=np.float32)
    logits[np.arange(n), dominant] += rng.uniform(10.0, 18.0, n).astype(np.float32)
    return lb.SoftLabelMatrix(lb.stable_softmax(logits, tau))


def on_simplex(data):
    return bool(np.isfinite(data).all() and (data >= 0).all()
                and np.abs(data.sum(axis=1) - 1.0).max() <= SIMPLEX_TOL)


def serve_batches(indices, model, epsilon, order, ledger, reference=None, keep=None):
    """Decode ``order`` in full BATCH_ROWS-row batches through vqae.decompress.

    Returns the per-batch wall times. Each batch is checked for lying on the
    simplex and, when ``reference`` is given, against its rows there.
    ``(rows, decoded)`` pairs are appended to ``keep`` when it is a list.
    """
    times = []
    for start in range(0, order.size - BATCH_ROWS + 1, BATCH_ROWS):
        rows = order[start:start + BATCH_ROWS]
        t0 = time.perf_counter()
        out = vqae.decompress(indices[rows], model, epsilon)
        times.append(time.perf_counter() - t0)
        with ledger.quiet():
            ok = on_simplex(out.data)
            if reference is not None:
                ok = ok and float(np.abs(out.data - reference[rows]).max()) <= MATCH_TOL
        ledger.check("served batch", ok, f"rows {int(rows[0])}..")
        if keep is not None:
            keep.append((rows, out.data))
    return times


def serve_epochs(indices, model, epsilon, epochs, rng, ledger, reference=None, keep=None):
    """``epochs`` shuffled passes over all rows, as a distillation loop reads them."""
    times = []
    for _ in range(epochs):
        times += serve_batches(indices, model, epsilon, rng.permutation(indices.shape[0]),
                               ledger, reference, keep)
    return times


def codes_used(indices, k):
    return np.unique(indices).size / k


def compress_chunks(data, model, chunk, ledger):
    """``vqae.compress`` over ``data`` in ``chunk``-row calls, each timed.

    Returns the stacked indices and one ``(rows, seconds)`` sample per call:
    many short samples, so a run's median rate is robust to bursts of load.
    """
    parts, samples = [], []
    for start in range(0, data.shape[0], chunk):
        with ledger.quiet():
            rows = lb.SoftLabelMatrix(data[start:start + chunk])
        t0 = time.perf_counter()
        parts.append(vqae.compress(rows, model))
        samples.append((rows.n, time.perf_counter() - t0))
    return np.concatenate(parts), samples


# ---------------------------------------------------------------------------
# fit-paper: vqae.fit at the paper's 40x setting on 30,000 x 1000 labels.
# ---------------------------------------------------------------------------

class FitPaper:
    name = "fit-paper"
    n, c = 30_000, 1000
    d_h, d_c, k = 1000, 25, 512          # 40x: m = 40 codes of 9 bits
    steps = 60                           # per fit call; TrainConfig otherwise default
    eval_rows = 4096                     # compressed and served after each fit
    compress_chunk = 512
    serve_epochs = 2

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        labels = teacher_like_labels(rng, self.n, self.c)
        eval_labels = lb.SoftLabelMatrix(labels.data[rng.permutation(self.n)[:self.eval_rows]])
        return {"seed": seed, "labels": labels, "eval": eval_labels}

    def run_pass(self, state, ledger, pass_id):
        config = vqae.TrainConfig(max_steps=self.steps, seed=state["seed"])
        t0 = time.perf_counter()
        model, trace = vqae.fit(state["labels"], self.d_h, self.d_c, self.k, config)
        t_fit = time.perf_counter() - t0
        ledger.check("fit loss finite", len(trace) == self.steps
                     and bool(np.isfinite(trace.loss_total).all()), "non-finite loss")

        indices, compress_samples = compress_chunks(state["eval"].data, model,
                                                    self.compress_chunk, ledger)
        t_compress = sum(secs for _, secs in compress_samples)
        ledger.check("compress shape", indices.shape == (self.eval_rows, self.d_h // self.d_c))

        decoded = []
        rng = np.random.default_rng([state["seed"], pass_id])
        batch_times = serve_epochs(indices, model, config.epsilon, self.serve_epochs, rng,
                                   ledger, keep=decoded)
        with ledger.quiet():
            recon = np.empty_like(state["eval"].data)
            for rows, data in decoded[:self.eval_rows // BATCH_ROWS]:   # the first epoch
                recon[rows] = data
            recon_kl = hz.mean_kl(state["eval"], lb.SoftLabelMatrix(recon))
        ledger.check("recon_kl finite", np.isfinite(recon_kl), recon_kl)
        return {
            "pass_s": t_fit + t_compress + sum(batch_times),
            "fit_s": t_fit, "fit_steps": self.steps,
            "compress_samples": compress_samples,
            "batch_times": batch_times,
            "recon_kl": recon_kl,
            "codes_used_ratio": codes_used(indices, self.k),
        }


# ---------------------------------------------------------------------------
# archive-paper: the label-cache write path (cli compress, SLAB -> SLAR) and
# the distillation read path (open, then shuffled batches through decompress).
# ---------------------------------------------------------------------------

class ArchivePaper:
    name = "archive-paper"
    n, c = 20_000, 1000
    d_h, d_c, k = 1000, 25, 512
    shards = 4                           # the cache is written as 5,000-row shards
    fit_rows, fit_steps = 4096, 40       # the briefly fitted model
    serve_epochs = 2                     # read-path epochs per pass

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        labels = teacher_like_labels(rng, self.n, self.c)
        paths = {"slvq": os.path.join(workdir, "labels.slvq"),
                 "slab": [os.path.join(workdir, f"labels-{i}.slab") for i in range(self.shards)],
                 "slar": [os.path.join(workdir, f"labels-{i}.slar") for i in range(self.shards)]}
        for i, rows in enumerate(np.array_split(np.arange(self.n), self.shards)):
            lb.write_slab(lb.SoftLabelMatrix(labels.data[rows]), paths["slab"][i])
        subset = lb.SoftLabelMatrix(labels.data[rng.permutation(self.n)[:self.fit_rows]])
        config = vqae.TrainConfig(max_steps=self.fit_steps, seed=seed)
        t0 = time.perf_counter()
        model, trace = vqae.fit(subset, self.d_h, self.d_c, self.k, config)
        t_fit = time.perf_counter() - t0
        if not np.isfinite(trace.loss_total).all():
            raise RuntimeError("set-up fit diverged")
        ar.write_model(model, paths["slvq"], config.gradient_mode, config.epsilon)
        return {"seed": seed, "paths": paths, "setup_fit_s": t_fit,
                "setup_fit_steps": self.fit_steps}

    def prepare(self, state):
        """Reference outputs for the checks, computed once, outside timing."""
        file_model, _, _ = ar.read_model(state["paths"]["slvq"])
        shards = [lb.read_slab(path) for path in state["paths"]["slab"]]
        state["ref_indices"] = [vqae.compress(shard, file_model) for shard in shards]
        state["file_labels"] = lb.SoftLabelMatrix(np.concatenate([s.data for s in shards]))

    def run_pass(self, state, ledger, pass_id):
        paths = state["paths"]
        compress_samples = []
        for slab, slar in zip(paths["slab"], paths["slar"]):
            argv = ["compress", "--labels", slab, "--model", paths["slvq"], "--out", slar,
                    "--json"]
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            secs = time.perf_counter() - t0
            n = json.loads(out.getvalue())["n"] if rc == 0 else 0
            ledger.check("cli compress", rc == 0 and n == self.n // self.shards, f"exit {rc}")
            compress_samples.append((n, secs))
        archive_bytes = sum(os.path.getsize(path) for path in paths["slar"])

        t0 = time.perf_counter()
        model, _, epsilon = ar.read_model(paths["slvq"])
        archives = [ar.read_archive(path) for path in paths["slar"]]
        indices = np.concatenate([a.packed["indices"][0] for a in archives])
        t_open = time.perf_counter() - t0
        for i, a in enumerate(archives):
            ledger.check("indices read back", np.array_equal(a.packed["indices"][0],
                                                             state["ref_indices"][i]),
                         f"shard {i}: SLAR indices differ from compress output")

        with ledger.quiet():
            reference = np.concatenate([ar.decompress_vqae_archive(a).data for a in archives])
        rng = np.random.default_rng([state["seed"], pass_id])
        batch_times = serve_epochs(indices, model, epsilon, self.serve_epochs, rng, ledger,
                                   reference)
        result = {
            "pass_s": sum(secs for _, secs in compress_samples) + t_open + sum(batch_times),
            "compress_samples": compress_samples,
            "open_s": t_open,
            "batch_times": batch_times,
            "archive_bytes": archive_bytes,
            "archive_bytes_per_label": archive_bytes / self.n,
            "codes_used_ratio": codes_used(indices, self.k),
        }
        with ledger.quiet():
            # every shard is a self-contained SLAR: accounted as an archive of its own
            result["accounted_over_disk"] = self.shards * _accounted_bytes(
                self.n // self.shards, self.c, self.d_h, self.d_c, self.k) / archive_bytes
        if "recon_kl" not in state:
            with ledger.quiet():
                state["recon_kl"] = hz.mean_kl(state["file_labels"], lb.SoftLabelMatrix(reference))
            ledger.check("recon_kl finite", np.isfinite(state["recon_kl"]), state["recon_kl"])
        result["recon_kl"] = state["recon_kl"]
        return result


def _accounted_bytes(n, c, d_h, d_c, k):
    """budget.vq_bytes for an n-row archive (n label rows, one epoch)."""
    spec = bd.BudgetSpec(ipc=n // c, num_classes=c, epochs=1, d_h=d_h, d_c=d_c, k=k)
    return bd.vq_bytes(spec).compressed_bytes


# ---------------------------------------------------------------------------
# distill-desk: the acceptance suite's desk task, end to end.
# ---------------------------------------------------------------------------

class DistillDesk:
    name = "distill-desk"
    classes, dim, n_per_class, spread = 100, 32, 10, 2.0
    views, tau, jitter = 4, 2.0, 0.3
    d_h, d_c, k = 400, 40, 256
    fit_steps, fit_lr, fit_batch = 500, 0.003, 128
    compress_chunk = 500
    compress_rounds = 4                  # each call is ~5 ms: repeat for more samples
    serve_epochs = 80                    # batches the students' loop would read
    student_epochs = 150
    account_epochs = 300
    epsilon = 1e-4

    def setup(self, seed, workdir):
        task = hz.make_task(seed=seed, d=self.dim, c=self.classes,
                            n_per_class=self.n_per_class, spread=self.spread)
        teacher = hz.train_teacher(task, hidden=128, epochs=100, seed=seed)
        return {"seed": seed, "task": task, "teacher": teacher}

    def run_pass(self, state, ledger, pass_id):
        seed, task = state["seed"], state["task"]
        check_start = ledger.check_s
        t_start = time.perf_counter()
        labels = hz.cache_teacher_labels(state["teacher"], task, views=self.views,
                                         tau=self.tau, jitter=self.jitter, seed=seed)

        # storage accounting: a 40x solve, and the byte budget of the fitted setting
        base = bd.BudgetSpec(self.n_per_class, self.classes, self.account_epochs)
        (_, _, _), solved_ratio = bd.solve_hyperparams(40.0, base)
        ledger.check("40x solve", solved_ratio >= 40.0, solved_ratio)
        spec = bd.BudgetSpec(self.n_per_class, self.classes, self.account_epochs,
                             d_h=self.d_h, d_c=self.d_c, k=self.k)
        budget_bytes = bd.vq_bytes(spec).compressed_bytes

        config = vqae.TrainConfig(max_steps=self.fit_steps, lr=self.fit_lr,
                                  batch_size=self.fit_batch, dead_code_reinit=True, seed=seed)
        t0 = time.perf_counter()
        model, trace = vqae.fit(labels, self.d_h, self.d_c, self.k, config)
        t_fit = time.perf_counter() - t0
        ledger.check("fit loss finite", bool(np.isfinite(trace.loss_total).all()))
        model = vqae.refit_decoder(labels, model)

        indices, compress_samples = compress_chunks(labels.data, model, self.compress_chunk, ledger)
        for _ in range(self.compress_rounds - 1):
            again, samples = compress_chunks(labels.data, model, self.compress_chunk, ledger)
            ledger.check("compress repeats", np.array_equal(again, indices))
            compress_samples += samples
        t0 = time.perf_counter()
        recon = vqae.decompress(indices, model, self.epsilon)
        t_decompress = time.perf_counter() - t0
        with ledger.quiet():
            ledger.check("decompress on simplex", on_simplex(recon.data))
        rng = np.random.default_rng([seed, pass_id])
        batch_times = serve_epochs(indices, model, self.epsilon, self.serve_epochs, rng, ledger,
                                   recon.data)

        baseline_kl = self._baselines(labels, spec, budget_bytes, ledger)
        report = hz.compare(task, labels, recon, bd.compression_ratio(spec), tau=self.tau,
                            hidden=32, epochs=self.student_epochs, seed=seed,
                            codec_name="vqae")
        t_pass = time.perf_counter() - t_start - (ledger.check_s - check_start)
        ledger.check("retention finite", np.isfinite(report.retention), report.retention)
        ledger.check("recon_kl finite", np.isfinite(report.mean_kl), report.mean_kl)
        return {
            "pass_s": t_pass,
            "fit_s": t_fit, "fit_steps": self.fit_steps,
            "compress_samples": compress_samples,
            "decompress_s": t_decompress,
            "batch_times": batch_times,
            "recon_kl": report.mean_kl,
            "retention": report.retention,
            "codes_used_ratio": codes_used(indices, self.k),
            "baseline_kl": baseline_kl,
        }

    def _baselines(self, labels, spec, budget_bytes, ledger):
        """Top-k, PCA and scalar quantization at the largest setting within
        the codec's byte budget (scalar quantization at 1 bit when even that
        exceeds it)."""
        k_top = max([kt for kt in range(1, self.classes + 1)
                     if bd.topk_bytes(spec, kt).compressed_bytes <= budget_bytes] or [1])
        k_pc = max([kp for kp in range(1, self.classes + 1)
                    if bd.pca_bytes(spec, kp).compressed_bytes <= budget_bytes] or [1])
        bits = max([b for b in range(1, 9)
                    if bd.quant_bytes(spec, b).compressed_bytes <= budget_bytes] or [1])
        topk = bl.topk_decompress(bl.topk_compress(labels, k_top), self.epsilon)
        pca = bl.pca_fit(labels, k_pc)
        pca_rec = bl.pca_decompress(bl.pca_compress(labels, pca), pca, self.epsilon)
        quant = bl.scalar_quant_fit(labels, bits, seed=0)
        quant_rec = bl.scalar_quant_invert(quant, bl.scalar_quant_apply(quant, labels),
                                           self.epsilon)
        out = {}
        for name, rec in ((f"topk-{k_top}", topk), (f"pca-{k_pc}", pca_rec),
                          (f"quant-{bits}bit", quant_rec)):
            with ledger.quiet():
                out[name] = hz.mean_kl(labels, rec)
                ok = on_simplex(rec.data) and np.isfinite(out[name])
            ledger.check(f"{name} baseline", ok)
        return out


WORKLOADS = {w.name: w for w in (FitPaper(), ArchivePaper(), DistillDesk())}
