"""Every whole-matrix codec pass runs in row blocks from ``labels._row_blocks``.

The blocked nearest-code search, compress, decompress, pack and unpack are
checked bit for bit against reference copies of their whole-matrix forms, and
``traced_peak`` bounds what each holds beyond its output.
"""

import numpy as np
import pytest

from slvq.archive import pack_indices, packed_row_bytes, unpack_indices
from slvq.labels import _CODEC_BLOCK_ELEMENTS, _row_blocks
from slvq.vqae import VqaeModel, _nearest_codes, compress, decompress, refit_decoder

from conftest import random_labels, traced_peak

MB = 2**20


# ---------------------------------------------------------------------------
# Reference copies of the whole-matrix forms.
# ---------------------------------------------------------------------------

def reference_pack_indices(indices, bits):
    n, m = indices.shape
    if n == 0:
        return b""
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    bit_rows = ((indices.astype(np.uint64)[:, :, None] >> shifts) & 1).reshape(n, m * bits)
    pad = (-m * bits) % 8
    if pad:
        bit_rows = np.concatenate([bit_rows, np.zeros((n, pad), dtype=np.uint64)], axis=1)
    return np.packbits(bit_rows.astype(np.uint8), axis=1).tobytes()


def reference_unpack_indices(blob, n, m, bits):
    if n == 0:
        return np.zeros((0, m), dtype=np.int64)
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(n, packed_row_bytes(m, bits))
    bit_rows = np.unpackbits(raw, axis=1)[:, : m * bits].reshape(n, m, bits)
    weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.int64))
    return (bit_rows.astype(np.int64) * weights).sum(axis=2)


def reference_nearest_codes(rows, model):
    segs = rows.reshape(rows.shape[0] * model.m, model.d_c)
    cb = model.codebook
    scores = 0.5 * np.einsum("kd,kd->k", cb, cb) - segs @ cb.T
    return np.argmin(scores, axis=1).reshape(rows.shape[0], model.m)


def reference_compress(Y, model):
    return _nearest_codes(Y @ model.encoder, model)


def reference_decompress(indices, model, epsilon=1e-8):
    decoded = model.codebook[indices].reshape(indices.shape[0], model.d_h) @ model.decoder
    clamped = np.maximum(decoded, epsilon)
    return clamped / clamped.sum(axis=-1, keepdims=True)


def reference_refit_decoder(Y, model):
    H_hat = model.codebook[reference_compress(Y, model)].reshape(Y.shape[0], model.d_h)
    return np.linalg.lstsq(H_hat, Y, rcond=None)[0]


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def paper_model(rng, c=1000, d_h=1000, d_c=25, k=512):
    """A model at the paper's 40x setting (m = 40 codes of 9 bits)."""
    return VqaeModel(rng.standard_normal((c, d_h)) / np.sqrt(c),
                     rng.standard_normal((d_h, c)) / np.sqrt(d_h),
                     0.1 * rng.standard_normal((k, d_c)))


class TestRowBlocks:
    @pytest.mark.parametrize("n,row_elements,budget", [
        (0, 5, 16), (1, 5, 16), (3, 5, 16), (10, 5, 16), (100, 7, 64), (4096, 1000, 2**20),
        (5, 100, 16), (2049, 32 * 32, 2**20)])
    def test_split(self, n, row_elements, budget):
        blocks = _row_blocks(n, row_elements, budget)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [s.stop - s.start for s in blocks]
        assert max(sizes) - min(sizes) <= 1 and sizes[-1] == max(sizes)
        # within the budget unless one row alone exceeds it
        assert max(sizes) * row_elements <= max(budget, row_elements) + row_elements
        assert (n == 0) == (sizes == [0])
        if n and row_elements > budget:
            assert sizes == [1] * n


class TestPackBits:
    @pytest.mark.parametrize("bits", range(1, 33))
    def test_matches_reference(self, bits):
        rng = np.random.default_rng(bits)
        # m = 32 gives 1,024 rows a block: n on (1,024 and 2,048) and off a
        # block boundary; m = 3 leaves each row short of a byte at most bits
        for m, n in ((32, 0), (32, 1), (32, 1024), (32, 1025), (32, 2048), (32, 2049),
                     (3, 0), (3, 1), (3, 37)):
            indices = rng.integers(0, 2**bits, size=(n, m), dtype=np.int64)
            if n:
                indices[0, 0] = 2**bits - 1
            blob = pack_indices(indices, bits)
            assert blob == reference_pack_indices(indices, bits)
            assert_same_bits(unpack_indices(blob, n, m, bits),
                             reference_unpack_indices(blob, n, m, bits))

    def test_non_contiguous_input_and_memoryview_blob(self, rng):
        indices = rng.integers(0, 512, size=(40, 70)).T
        blob = pack_indices(indices, 9)
        assert blob == reference_pack_indices(indices, 9)
        np.testing.assert_array_equal(unpack_indices(memoryview(blob), 70, 40, 9), indices)


def latent_model(rng, d_h, d_c, k, c=100):
    """A model whose codes are drawn like the segments of ``latent_rows``."""
    return VqaeModel(rng.standard_normal((c, d_h)), rng.standard_normal((d_h, c)),
                     0.3 * rng.standard_normal((k, d_c)))


def latent_rows(rng, n, d_h):
    return 0.3 * rng.standard_normal((n, d_h))


# (rows, d_h, d_c, k): desk, criterion 8's three smallest codebooks, criterion 7
SEARCH_SHAPES = [(4000, 400, 40, 256), (4000, 400, 5, 2), (4000, 400, 10, 4),
                 (4000, 400, 20, 16), (4000, 200, 50, 256)]


class TestNearestCodeBits:
    """The one-GEMM search gives the indices of ``0.5 ||mu||^2 - s.mu``."""

    def test_paper_setting(self, rng):
        model = paper_model(rng)
        rows = random_labels(rng, 4096, model.c).data @ model.encoder
        assert_same_bits(_nearest_codes(rows, model), reference_nearest_codes(rows, model))

    @pytest.mark.parametrize("n,d_h,d_c,k", SEARCH_SHAPES)
    def test_setting(self, n, d_h, d_c, k):
        rng = np.random.default_rng(k * 1000 + d_c)
        model, rows = latent_model(rng, d_h, d_c, k), latent_rows(rng, n, d_h)
        assert_same_bits(_nearest_codes(rows, model), reference_nearest_codes(rows, model))

    def test_exact_ties_go_to_the_lowest_index(self, rng):
        # every code appears twice at shuffled places, so every segment ties
        # exactly; the search spans several blocks
        d_h, d_c, k = 400, 40, 256
        codebook = np.empty((k, d_c))
        codebook[rng.permutation(k)] = np.tile(0.3 * rng.standard_normal((k // 2, d_c)), (2, 1))
        model = VqaeModel(rng.standard_normal((100, d_h)), rng.standard_normal((d_h, 100)),
                          codebook)
        rows = latent_rows(rng, 4000, d_h)
        assert len(_row_blocks(4000 * model.m, k + d_c + 1, _CODEC_BLOCK_ELEMENTS)) > 1
        indices = _nearest_codes(rows, model)
        assert_same_bits(indices, reference_nearest_codes(rows, model))
        first = {tuple(code): j for j, code in reversed(list(enumerate(codebook)))}
        assert all(first[tuple(codebook[j])] == j for j in np.unique(indices))


class TestCodecBits:
    @pytest.mark.parametrize("n,blocks", [(1000, 1), (2000, 2), (3000, 3)])
    def test_compress_decompress_refit_match_reference(self, n, blocks):
        rng = np.random.default_rng(n)
        model = paper_model(rng)
        labels = random_labels(rng, n, model.c)
        assert len(_row_blocks(n, model.d_h, _CODEC_BLOCK_ELEMENTS)) == blocks
        indices = compress(labels, model)
        assert_same_bits(indices, reference_compress(labels.data, model))
        assert_same_bits(decompress(indices, model).data, reference_decompress(indices, model))
        assert_same_bits(refit_decoder(labels, model).decoder,
                         reference_refit_decoder(labels.data, model))


class TestCodecPeaks:
    def test_pack_holds_little_beyond_its_blob(self, rng):
        indices = rng.integers(0, 512, size=(50_000, 40))
        blob, peak = traced_peak(pack_indices, indices, 9)
        assert peak <= len(blob) + 8 * MB

    def test_unpack_holds_little_beyond_its_output(self, rng):
        blob = pack_indices(rng.integers(0, 512, size=(50_000, 40)), 9)
        out, peak = traced_peak(unpack_indices, blob, 50_000, 40, 9)
        assert peak <= out.nbytes + 8 * MB

    @pytest.mark.parametrize("n,d_h,d_c,k", [(4000, 400, 5, 2), (4096, 1000, 25, 512),
                                             (4000, 400, 40, 256)])
    def test_search_holds_one_score_block(self, n, d_h, d_c, k):
        # the scores and the padded segments share one block budget
        rng = np.random.default_rng(k)
        model, rows = latent_model(rng, d_h, d_c, k), latent_rows(rng, n, d_h)
        out, peak = traced_peak(_nearest_codes, rows, model)
        assert peak <= out.nbytes + 8.25 * MB

    def test_compress_holds_one_latent_block(self, rng):
        # the fit-paper benchmark's 4,096-row slice
        model = paper_model(rng)
        labels = random_labels(rng, 4096, model.c)
        _, peak = traced_peak(compress, labels, model)
        assert peak <= 0.6 * labels.data.nbytes

    def test_decompress_renormalizes_in_its_output(self, rng):
        # one archive-paper shard
        model = paper_model(rng)
        indices = rng.integers(0, model.k, size=(5000, model.m))
        out, peak = traced_peak(decompress, indices, model)
        assert peak <= 1.25 * out.data.nbytes
