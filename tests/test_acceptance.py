"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantities, so a full run doubles as a results summary.
"""

import time

import numpy as np
import pytest

from slvq import budget as bd
from slvq import harness as hz
from slvq import vqae
from slvq.archive import _encode_archive, read_archive, vqae_archive, write_archive
from slvq.baselines import pca_compress, pca_decompress, pca_fit, topk_compress, topk_decompress
from slvq.labels import SoftLabelMatrix
from slvq.vqae import (
    LITERAL_STOP_GRADIENT,
    STRAIGHT_THROUGH,
    TrainConfig,
    VqaeModel,
    quantize_latent,
)

from test_vqae import fd_grad, rel_err, sg_aware_loss


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num} ({name}): {status} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared desk-scale setup: a 100-class Gaussian-cluster task with enough
# class overlap that the teacher produces genuinely soft labels.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk():
    task = hz.make_task(seed=0, d=32, c=100, n_per_class=10, spread=2.0)
    teacher = hz.train_teacher(task, hidden=128, epochs=100, seed=0)
    labels = hz.cache_teacher_labels(teacher, task, views=4, tau=2.0, jitter=0.3, seed=0)
    return task, labels


def _desk_retention(task, labels, reconstructed, name):
    report = hz.compare(task, labels, reconstructed, storage_ratio=0.0, tau=2.0,
                        hidden=32, epochs=150, seed=0, codec_name=name)
    return report


def _fit_and_reconstruct(labels, d_h, d_c, k, steps, lr):
    config = TrainConfig(max_steps=steps, lr=lr, batch_size=128,
                         dead_code_reinit=True, seed=0)
    model, trace = vqae.fit(labels, d_h, d_c, k, config)
    model = vqae.refit_decoder(labels, model)
    indices = vqae.compress(labels, model)
    return vqae.decompress(indices, model, epsilon=1e-4), trace


# ---------------------------------------------------------------------------
# 1. Storage-table reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_storage_tables():
    raw_expected = {10: 5.588, 20: 11.176, 50: 27.940, 100: 55.879}
    ours_expected = {
        (795, 5, 1024): {10: 0.558, 20: 1.114, 50: 2.779, 100: 5.556},
        (990, 15, 2048): {10: 0.257, 20: 0.511, 50: 1.272, 100: 2.539},
        (1000, 20, 1024): {10: 0.178, 20: 0.353, 50: 0.877, 100: 1.750},
        (1000, 25, 512): {10: 0.130, 20: 0.255, 50: 0.632, 100: 1.261},
        (1000, 50, 128): {10: 0.053, 20: 0.102},
        (1000, 100, 64): {10: 0.025, 20: 0.046},
    }
    mismatches = []
    for ipc, gb in raw_expected.items():
        got = round(bd.raw_label_bytes(bd.BudgetSpec(ipc, 1000, 300)) / bd.GIB, 3)
        if got != gb:
            mismatches.append(f"raw ipc={ipc}: {got} != {gb}")
    for (d_h, d_c, k), row in ours_expected.items():
        for ipc, gb in row.items():
            spec = bd.BudgetSpec(ipc, 1000, 300, d_h=d_h, d_c=d_c, k=k)
            got = bd.vq_bytes(spec).as_dict()["compressed_gb"]
            if got != gb:
                mismatches.append(f"vq {d_h}/{d_c}/{k} ipc={ipc}: {got} != {gb}")
    checked = len(raw_expected) + sum(len(r) for r in ours_expected.values())
    _report(1, "storage tables", not mismatches,
            f"{checked} table entries exact to 3 decimals"
            + (f"; mismatches: {mismatches}" if mismatches else ""))


# ---------------------------------------------------------------------------
# 2. Baseline-budget reproduction
# ---------------------------------------------------------------------------

def test_criterion_2_baseline_budgets():
    spec = bd.BudgetSpec(10, 1000, 300)
    q2 = bd.quant_bytes(spec, bits=2).ratio
    q3 = bd.quant_bytes(spec, bits=3).ratio
    t15 = bd.topk_bytes(spec, k_top=15).ratio
    ok = (abs(q2 - 7.98) / 7.98 < 0.01 and abs(q3 - 5.36) / 5.36 < 0.01
          and 38.0 <= t15 <= 44.0)
    _report(2, "baseline budgets", ok,
            f"2-bit {q2:.3f}x (target 7.98), 3-bit {q3:.3f}x (target 5.36), "
            f"top-15 {t15:.2f}x (target 38-44)")


# ---------------------------------------------------------------------------
# 3. LLM accounting
# ---------------------------------------------------------------------------

def test_criterion_3_llm_accounting():
    raw_gb = bd.llm_raw_bytes(1_200_000, 50_257) / bd.GIB
    ratio = bd.llm_compression_ratio(1_200_000, 50_257, archive_gb=0.2)
    ok = abs(raw_gb - 112.333) < 5e-4 and abs(ratio - 560.0) / 560.0 <= 0.02
    _report(3, "LLM accounting", ok,
            f"raw {raw_gb:.3f} GB (~112), ratio {ratio:.2f}x (560 +/- 2%)")


# ---------------------------------------------------------------------------
# 4. Gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_4_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(11)
    model = VqaeModel(rng.standard_normal((8, 12)), rng.standard_normal((12, 8)),
                      rng.standard_normal((6, 4)))
    Y = rng.dirichlet(np.ones(8), size=10)
    worst = 0.0
    for mode in (STRAIGHT_THROUGH, LITERAL_STOP_GRADIENT):
        config = TrainConfig(alpha=0.8, beta=0.4, gradient_mode=mode)
        _, grads = vqae.cache_loss_and_grads(Y, model, config)
        for name, f in {
            "encoder": lambda P: sg_aware_loss(Y, model, config, encoder=P),
            "decoder": lambda D: sg_aware_loss(Y, model, config, decoder=D),
            "codebook": lambda CB: sg_aware_loss(Y, model, config, codebook=CB),
        }.items():
            worst = max(worst, rel_err(grads[name], fd_grad(f, getattr(model, name))))
    literal0 = TrainConfig(alpha=0.0, gradient_mode=LITERAL_STOP_GRADIENT)
    _, g0 = vqae.cache_loss_and_grads(Y, model, literal0)
    enc_zero = bool(np.all(g0["encoder"] == 0.0))
    elapsed = time.time() - start
    ok = worst < 1e-6 and enc_zero and elapsed < 10.0
    _report(4, "gradient correctness", ok,
            f"max FD rel. error {worst:.2e} (< 1e-6), literal alpha=0 encoder grad "
            f"exactly zero: {enc_zero}, {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 5. Codec invariants
# ---------------------------------------------------------------------------

def test_criterion_5_codec_invariants(tmp_path):
    start = time.time()
    rng = np.random.default_rng(5)

    scan_ok = True
    for _ in range(1000):
        d_c = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 9))
        codebook = rng.standard_normal((k, d_c))
        d_h = m * d_c
        model = VqaeModel(rng.standard_normal((3, d_h)), rng.standard_normal((d_h, 3)),
                          codebook)
        h = rng.standard_normal(d_h)
        indices, _ = quantize_latent(h, model)
        d2 = ((h.reshape(m, 1, d_c) - codebook[None]) ** 2).sum(-1)
        if not np.array_equal(indices, np.argmin(d2, axis=1)):
            scan_ok = False
            break

    labels = SoftLabelMatrix(rng.dirichlet(np.full(20, 0.3), size=256))
    config = TrainConfig(max_steps=200, batch_size=32, seed=3)
    model, _ = vqae.fit(labels, 8, 4, 16, config)
    model2, _ = vqae.fit(labels, 8, 4, 16, config)
    deterministic = (np.array_equal(model.encoder, model2.encoder)
                     and np.array_equal(model.decoder, model2.decoder)
                     and np.array_equal(model.codebook, model2.codebook))
    indices = vqae.compress(labels, model)
    deterministic &= np.array_equal(indices, vqae.compress(labels, model))

    out = vqae.decompress(indices, model)
    simplex_ok = (np.all(out.data >= 0)
                  and np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-6)

    path = tmp_path / "labels.slar"
    write_archive(vqae_archive(model, indices), path)
    roundtrip_ok = _encode_archive(read_archive(path)) == path.read_bytes()

    elapsed = time.time() - start
    ok = scan_ok and simplex_ok and roundtrip_ok and deterministic and elapsed < 30.0
    _report(5, "codec invariants", ok,
            f"exhaustive nearest-code scan x1000: {scan_ok}, simplex-valid rows: "
            f"{simplex_ok}, byte-identical archive round trip: {roundtrip_ok}, "
            f"seeded determinism: {deterministic}, {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 6. Training effectiveness, cross-checked against an autodiff reference
# ---------------------------------------------------------------------------

def _autodiff_reference_loss(Y, model, config):
    """Independent loss implementation with explicit stop-gradients."""
    torch = pytest.importorskip("torch")
    P = torch.tensor(model.encoder)
    D = torch.tensor(model.decoder)
    CB = torch.tensor(model.codebook)
    Yt = torch.tensor(Y)
    n = Yt.shape[0]
    H = Yt @ P
    segs = H.reshape(n, model.m, 1, model.d_c)
    d2 = ((segs - CB.reshape(1, 1, model.k, model.d_c)) ** 2).sum(-1)
    idx = d2.argmin(-1)
    Hq = CB[idx].reshape(n, model.d_h)
    vq = ((H.detach() - Hq) ** 2).sum(-1).mean()
    commit = ((H - Hq.detach()) ** 2).sum(-1).mean()
    if config.gradient_mode == STRAIGHT_THROUGH:
        Hhat = H + (Hq - H).detach()
    else:
        Hhat = Hq.detach()
    rec = ((Hhat @ D - Yt) ** 2).sum(-1).mean()
    return float(config.alpha * (vq + config.beta * commit) + rec)


@pytest.fixture(scope="module")
def criterion_6_fit():
    start = time.time()
    rng = np.random.default_rng(0)
    labels = SoftLabelMatrix(rng.dirichlet(np.full(100, 0.1), size=512))
    config = TrainConfig(max_steps=2000, lr=0.01, batch_size=64, seed=0,
                         init_scale=10.0)
    model, trace = vqae.fit(labels, 32, 4, 64, config)
    return labels, config, model, trace, time.time() - start


def test_criterion_6_training_effectiveness(criterion_6_fit):
    _, _, _, trace, elapsed = criterion_6_fit
    initial, final = trace.loss_rec[0], trace.loss_rec[-1]
    ok = final < 0.2 * initial and elapsed < 120.0
    _report(6, "training effectiveness", ok,
            f"L_rec {initial:.3f} -> {final:.4f} ({final / initial:.4f}x, need < 0.2x), "
            f"{elapsed:.1f}s (< 2min)")


def test_criterion_6_autodiff_agreement(criterion_6_fit):
    # the reference autodiff implementation must agree on loss values at
    # identical parameters, before and after training
    labels, config, model, _, _ = criterion_6_fit
    agree = 0.0
    for m in (vqae._init_model(labels.data, 32, 4, 64,
                               np.random.default_rng(0), 10.0), model):
        ours, _ = vqae.cache_loss_and_grads(labels.data[:64], m, config)
        ref = _autodiff_reference_loss(labels.data[:64], m, config)
        agree = max(agree, abs(ours["total"] - ref) / max(abs(ref), 1.0))
    _report(6, "autodiff reference agreement", agree < 1e-6,
            f"autodiff reference agreement {agree:.2e} (< 1e-6)")


# ---------------------------------------------------------------------------
# 7. Desk-scale distillation: retention at a ~40x budget vs. baselines
# ---------------------------------------------------------------------------

def test_criterion_7_desk_scale_distillation(desk):
    start = time.time()
    task, labels = desk
    d_h, d_c, k = 200, 50, 256
    spec = bd.BudgetSpec(10, 100, 300, d_h=d_h, d_c=d_c, k=k)
    ratio = bd.compression_ratio(spec)
    budget_bytes = bd.vq_bytes(spec).compressed_bytes

    reconstructed, _ = _fit_and_reconstruct(labels, d_h, d_c, k, steps=3000, lr=0.01)
    vq_report = _desk_retention(task, labels, reconstructed, "vqae")

    # give each baseline the largest setting that fits the same byte budget
    k_top = max(kt for kt in range(1, 101)
                if bd.topk_bytes(spec, kt).compressed_bytes <= budget_bytes)
    topk_rec = topk_decompress(topk_compress(labels, k_top), epsilon=1e-4)
    topk_report = _desk_retention(task, labels, topk_rec, f"topk-{k_top}")

    k_pc = max(kp for kp in range(1, 101)
               if bd.pca_bytes(spec, kp).compressed_bytes <= budget_bytes)
    codec = pca_fit(labels, k_pc)
    pca_rec = pca_decompress(pca_compress(labels, codec), codec, epsilon=1e-4)
    pca_report = _desk_retention(task, labels, pca_rec, f"pca-{k_pc}")

    elapsed = time.time() - start
    ok = (vq_report.retention >= 0.95
          and vq_report.retention > topk_report.retention
          and vq_report.retention > pca_report.retention
          and elapsed < 600.0)
    _report(7, "desk-scale distillation", ok,
            f"budget {ratio:.1f}x: vqae retention {vq_report.retention:.3f} "
            f"(need >= 0.95) vs topk-{k_top} {topk_report.retention:.3f} vs "
            f"pca-{k_pc} {pca_report.retention:.3f}, {elapsed:.0f}s (< 10min)")


# ---------------------------------------------------------------------------
# 8. Level-set stability
# ---------------------------------------------------------------------------

def test_criterion_8_level_set_stability(desk):
    start = time.time()
    task, labels = desk
    settings = [(2, 5), (4, 10), (16, 20), (256, 40)]
    classes = {bd.asymptotic_ratio_class(d_c, k) for k, d_c in settings}
    retentions = {}
    for k, d_c in settings:
        reconstructed, _ = _fit_and_reconstruct(labels, 400, d_c, k,
                                                steps=10000, lr=0.003)
        report = _desk_retention(task, labels, reconstructed, f"k={k}")
        retentions[(k, d_c)] = report.retention
    band = max(retentions.values()) - min(retentions.values())
    elapsed = time.time() - start
    ok = classes == {5.0} and band <= 0.05
    detail = ", ".join(f"(k={k},d_c={d_c})={r:.3f}" for (k, d_c), r in retentions.items())
    _report(8, "level-set stability", ok,
            f"ratio classes {sorted(classes)}, retentions {detail}, "
            f"band {band:.3f} (need <= 0.05), {elapsed:.0f}s")
