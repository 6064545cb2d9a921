"""The whole-matrix label paths work in their output buffer.

Each rewritten helper is checked bit for bit against a reference copy of its
whole-array form, and its peak allocation is bounded with ``traced_peak``.
"""

import math

import numpy as np
import pytest

from slvq import baselines
from slvq.harness import cache_teacher_labels, init_mlp, make_task, mean_entropy, mean_kl
from slvq.labels import (SIMPLEX_ATOL, SimplexReport, SimplexViolation, _row_blocks, stable_softmax,
                         validate_simplex)
from slvq.vqae import (
    TopkVqModel,
    TrainConfig,
    VqaeModel,
    _reinit_dead_codes,
    _sample_segments,
    cache_loss_and_grads,
    decompress,
    quantize_latent,
    renormalize,
    topk_scatter,
    topk_then_vq_compress,
    topk_then_vq_decompress,
)

from conftest import random_labels, traced_peak
from test_row_blocks import paper_model, reference_decompress


# ---------------------------------------------------------------------------
# Reference copies of the whole-array forms, one temporary per operation.
# ---------------------------------------------------------------------------

def reference_stable_softmax(z, temperature=1.0):
    z = np.asarray(z, dtype=np.float64) / float(temperature)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_validate_simplex(data):
    data = np.asarray(data, dtype=np.float64)
    bad = ~np.isfinite(data)
    if bad.any():
        r, col = np.argwhere(bad)[0]
        return SimplexReport(False, SimplexViolation(int(r), "non_finite", int(col), float("nan")))
    neg = data < 0
    if neg.any():
        r, col = np.argwhere(neg)[0]
        return SimplexReport(False, SimplexViolation(int(r), "negative_entry", int(col), float(data[r, col])))
    sums = data.sum(axis=1)
    off = np.abs(sums - 1.0)
    if (off > SIMPLEX_ATOL).any():
        r = int(np.argmax(off > SIMPLEX_ATOL))
        return SimplexReport(False, SimplexViolation(r, "row_sum", None, float(sums[r] - 1.0)))
    return SimplexReport(True)


def reference_mean_kl(p, q, floor=1e-12):
    pd = np.maximum(p.data, floor)
    qd = np.maximum(q.data, floor)
    return float((p.data * (np.log(pd) - np.log(qd))).sum(axis=1).mean())


def reference_mean_entropy(labels, floor=1e-12):
    d = labels.data
    return float(-(d * np.log(np.maximum(d, floor))).sum(axis=1).mean())


def reference_renormalize(y_hat, epsilon=1e-8):
    clamped = np.maximum(np.asarray(y_hat, dtype=np.float64), epsilon)
    return clamped / clamped.sum(axis=-1, keepdims=True)


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def report_key(report):
    """A SimplexReport as a comparable tuple (a NaN magnitude compares equal)."""
    v = report.violation
    if v is None:
        return (report.ok,)
    magnitude = "nan" if math.isnan(v.magnitude) else v.magnitude
    return (report.ok, v.row, v.kind, v.column, magnitude)


# ---------------------------------------------------------------------------
# Bit identity
# ---------------------------------------------------------------------------

class TestSoftmaxBits:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("temperature", [0.25, 1.0, 2.0, 7.5])
    def test_matches_reference(self, rng, dtype, temperature):
        z = (rng.standard_normal((37, 129)) * 30).astype(dtype)
        out = stable_softmax(z, temperature)
        assert_same_bits(out, reference_stable_softmax(z, temperature))
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("temperature", [0.5, 1.0, 3.0])
    def test_one_dimensional_input(self, rng, temperature):
        z = rng.standard_normal(1000) * 10
        assert_same_bits(stable_softmax(z, temperature), reference_stable_softmax(z, temperature))

    def test_input_not_mutated(self, rng):
        z = rng.standard_normal((8, 5))
        copy = z.copy()
        stable_softmax(z, 1.0)
        assert_same_bits(z, copy)


class TestReductionBits:
    @pytest.mark.parametrize("c", [2, 7, 100, 1000])
    def test_mean_kl_and_entropy_match_reference(self, rng, c):
        block = 2**16 // c
        for n in (1, 2, block - 1, block, block + 1, 2 * block, 2 * block + 1):
            p = random_labels(rng, n, c, alpha=0.3)
            q = random_labels(rng, n, c, alpha=0.3)
            assert mean_kl(p, q) == reference_mean_kl(p, q)
            assert mean_kl(q, p, floor=1e-6) == reference_mean_kl(q, p, floor=1e-6)
            assert mean_entropy(p) == reference_mean_entropy(p)

    def test_mean_kl_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shapes differ"):
            mean_kl(random_labels(rng, 5, 4), random_labels(rng, 6, 4))


class TestValidateSimplexReports:
    CASES = {
        "valid": [[0.25, 0.75], [0.5, 0.5]],
        "nan": [[0.5, 0.5], [np.nan, 1.0]],
        "plus inf": [[0.5, 0.5], [0.0, np.inf]],
        "minus inf": [[0.5, 0.5], [-np.inf, 1.0]],
        "plus and minus inf": [[0.5, 0.5], [np.inf, -np.inf]],
        "negative": [[0.5, 0.5], [1.25, -0.25]],
        "row sum": [[0.5, 0.5], [0.5, 0.4]],
        "tiny sum error": [[0.5, 0.5 + 1e-7], [0.5, 0.5]],
        "overflow": [[0.0, 1.0], [1e308, 1e308]],
        "negative and bad sum": [[0.5, 0.4], [1.5, -0.5]],
        "non-finite after negative": [[0.5, -0.5], [np.nan, 0.0]],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_matches_reference(self, name):
        data = np.array(self.CASES[name])
        with np.errstate(over="ignore"):   # the reference warns on the overflow case
            expected = reference_validate_simplex(data)
        assert report_key(validate_simplex(data)) == report_key(expected)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
    def test_empty_matrices(self, shape):
        data = np.zeros(shape)
        assert report_key(validate_simplex(data)) == report_key(reference_validate_simplex(data))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_other_dtypes(self, dtype):
        data = np.array([[0, 1], [1, 0], [2, 0]]).astype(dtype)
        assert report_key(validate_simplex(data)) == report_key(reference_validate_simplex(data))

    def test_first_violation_found_in_large_matrix(self, rng):
        data = random_labels(rng, 500, 40).data.copy()
        data[321, 7] = -1e-3
        data[400, 0] = np.nan
        assert report_key(validate_simplex(data)) == report_key(reference_validate_simplex(data))


class TestRenormalizeBits:
    @pytest.mark.parametrize("epsilon", [1e-8, 1e-3])
    def test_matches_reference_and_leaves_input(self, rng, epsilon):
        for y_hat in (rng.standard_normal((300, 17)), rng.standard_normal(23).astype(np.float32),
                      rng.integers(-3, 4, size=(4, 6))):
            copy = y_hat.copy()
            assert_same_bits(renormalize(y_hat, epsilon), reference_renormalize(y_hat, epsilon))
            assert_same_bits(y_hat, copy)


class TestCodebookGradientBits:
    @pytest.mark.parametrize("n, c, d_h, d_c, k", [(64, 40, 1000, 25, 512), (32, 60, 320, 40, 256),
                                                   (20, 9, 15, 3, 7)])
    def test_matches_add_at(self, rng, n, c, d_h, d_c, k):
        Y = random_labels(rng, n, c).data
        encoder = rng.standard_normal((c, d_h))
        # codes drawn from the batch's own segments, so many segments share a code
        codebook = (Y @ encoder).reshape(-1, d_c)[rng.choice(n * d_h // d_c, size=k)]
        model = VqaeModel(encoder, rng.standard_normal((d_h, c)), codebook)
        config = TrainConfig(alpha=0.7, beta=0.3)
        _, grads = cache_loss_and_grads(Y, model, config)
        H = Y @ model.encoder
        indices, H_hat = quantize_latent(H, model)
        expected = np.zeros_like(model.codebook)
        diff = (-2.0 * config.alpha / n) * (H - H_hat).reshape(n, model.m, d_c)
        np.add.at(expected, indices.reshape(-1), diff.reshape(-1, d_c))
        assert_same_bits(grads["codebook"], expected)


class TestDeadCodeReinitBits:
    @pytest.mark.parametrize("dead", [[5], [0, 3, 9, 200], list(range(0, 256, 3))])
    def test_matches_full_product_sample(self, rng, dead):
        """At the desk shape (4,000 x 100, d_h 400, d_c 40, k 256)."""
        Y = random_labels(rng, 4000, 100).data
        encoder = rng.uniform(-1, 1, size=(100, 400)) / 10.0
        usage = np.ones(256, dtype=np.int64)
        usage[dead] = 0
        params = {"encoder": encoder, "codebook": rng.standard_normal((256, 40))}
        expected = params["codebook"].copy()
        ref_rng, new_rng = np.random.default_rng(9), np.random.default_rng(9)
        expected[dead] = _sample_segments((Y @ encoder).reshape(-1, 40), len(dead), ref_rng)
        _reinit_dead_codes(params, Y, usage, new_rng)
        assert_same_bits(params["codebook"], expected)
        assert ref_rng.random() == new_rng.random()   # same draws consumed


class TestCacheTeacherLabels:
    def test_matches_concatenated_views(self):
        task = make_task(0, d=6, c=5, n_per_class=8)
        teacher = init_mlp(task.dim, 16, task.num_classes, seed=1)
        labels = cache_teacher_labels(teacher, task, views=3, tau=2.0, jitter=0.5, seed=4)
        rng = np.random.default_rng(4)
        blocks = [reference_stable_softmax(
            teacher.logits(task.x_train + 0.5 * rng.standard_normal(task.x_train.shape)), 2.0)
            for _ in range(3)]
        assert_same_bits(labels.data, np.concatenate(blocks))


# ---------------------------------------------------------------------------
# Memory: M is the bytes of the n x c float64 matrix
# ---------------------------------------------------------------------------

N, C = 2000, 500
M = N * C * 8


@pytest.fixture(scope="module")
def matrices():
    rng = np.random.default_rng(77)
    return random_labels(rng, N, C), random_labels(rng, N, C)


class TestPeakAllocation:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stable_softmax_holds_only_its_output(self, dtype):
        z = np.random.default_rng(3).standard_normal((N, C)).astype(dtype)
        _, peak = traced_peak(stable_softmax, z, 2.0)
        assert peak <= 1.05 * M

    def test_validate_simplex_allocates_little(self, matrices):
        report, peak = traced_peak(validate_simplex, matrices[0].data)
        assert report.ok
        assert peak <= 0.05 * M

    def test_mean_kl_allocates_little(self, matrices):
        _, peak = traced_peak(mean_kl, *matrices)
        assert peak <= 0.25 * M

    def test_renormalize_holds_only_its_output(self, matrices):
        _, peak = traced_peak(renormalize, matrices[0].data - 1e-4)
        assert peak <= 1.05 * M


# ---------------------------------------------------------------------------
# Every label decoder fills one float64 n x c array, the one it returns
# ---------------------------------------------------------------------------

def raw_decode(indices, model):
    return model.codebook[indices].reshape(indices.shape[0], model.d_h) @ model.decoder


def decompress_case(decode_dtype):
    """5,000 x 1000 indices of a paper-shape model: five 2**20-element row blocks."""
    rng = np.random.default_rng(11)
    model = paper_model(rng)
    model = VqaeModel(None, model.decoder.astype(decode_dtype), model.codebook.astype(decode_dtype))
    indices = rng.integers(0, model.k, size=(5000, model.m))
    assert len(_row_blocks(indices.shape[0], model.d_h)) == 5
    expected = (reference_decompress(indices, model) if decode_dtype == np.float64
                else reference_renormalize(raw_decode(indices, model)))
    return decompress, (indices, model), expected, 1.25


def desk_labels(rng):
    """4,000 x 100 desk-shape labels."""
    return random_labels(rng, 4000, 100, alpha=0.3)


def topk_case():
    archive = baselines.topk_compress(desk_labels(np.random.default_rng(12)), 10)
    expected = reference_renormalize(topk_scatter(archive.values, archive.class_indices, 100))
    return baselines.topk_decompress, (archive,), expected, 1.15


def pca_case():
    labels = desk_labels(np.random.default_rng(13))
    codec = baselines.pca_fit(labels, 20)
    projections = baselines.pca_compress(labels, codec)
    expected = reference_renormalize(codec.mean + projections @ codec.components)
    return baselines.pca_decompress, (projections, codec), expected, 1.15


def scalar_quant_case():
    labels = desk_labels(np.random.default_rng(14))
    codec = baselines.scalar_quant_fit(labels, 4, iterations=10)
    indices = baselines.scalar_quant_apply(codec, labels)
    expected = reference_renormalize(codec.levels[indices])
    return baselines.scalar_quant_invert, (codec, indices), expected, 1.15


def topk_then_vq_case():
    rng = np.random.default_rng(15)
    vqae = VqaeModel(rng.uniform(-1, 1, size=(10, 20)), rng.uniform(-1, 1, size=(20, 10)) / 4,
                     rng.uniform(-1, 1, size=(16, 5)))
    model = TopkVqModel(10, 100, vqae)
    vq_indices, classes = topk_then_vq_compress(desk_labels(rng), model)
    expected = reference_renormalize(topk_scatter(raw_decode(vq_indices, vqae), classes, 100))
    return topk_then_vq_decompress, (vq_indices, classes, model), expected, 1.15


DECODERS = {
    "decompress_float64": lambda: decompress_case(np.float64),
    "decompress_float32": lambda: decompress_case(np.float32),
    "topk_decompress": topk_case,
    "pca_decompress": pca_case,
    "scalar_quant_invert": scalar_quant_case,
    "topk_then_vq_decompress": topk_then_vq_case,
}


@pytest.mark.parametrize("name", list(DECODERS))
def test_decoder_renormalizes_into_its_output(name):
    decoder, args, expected, bound = DECODERS[name]()
    labels, peak = traced_peak(decoder, *args)
    assert_same_bits(labels.data, expected)
    assert peak <= bound * labels.data.nbytes
