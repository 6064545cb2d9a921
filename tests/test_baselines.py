import numpy as np
import pytest

from slvq import baselines
from slvq.baselines import (
    PcaCodec,
    ScalarQuantCodec,
    _kmeanspp_1d,
    pca_compress,
    pca_decompress,
    pca_fit,
    pca_reconstruct_raw,
    scalar_quant_apply,
    scalar_quant_fit,
    scalar_quant_invert,
    topk_compress,
    topk_decompress,
    vq_no_ae_fit,
)
from slvq.labels import SoftLabelMatrix
from slvq.vqae import ModelValidationError, TrainConfig

from conftest import random_labels, traced_peak


class TestTopk:
    def test_keeps_largest_entries(self, rng):
        labels = random_labels(rng, 30, 10, alpha=0.3)
        archive = topk_compress(labels, 3)
        for i in range(30):
            expected = np.sort(labels.data[i])[::-1][:3]
            np.testing.assert_allclose(np.sort(archive.values[i])[::-1], expected)

    def test_decompress_is_simplex(self, rng):
        labels = random_labels(rng, 30, 10)
        out = topk_decompress(topk_compress(labels, 3))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out.data >= 0)

    def test_full_k_recovers_input(self, rng):
        labels = random_labels(rng, 10, 6)
        out = topk_decompress(topk_compress(labels, 6), epsilon=1e-300)
        np.testing.assert_allclose(out.data, labels.data, atol=1e-12)

    def test_kept_mass_normalized_up(self, rng):
        labels = random_labels(rng, 50, 20, alpha=0.2)
        archive = topk_compress(labels, 2)
        out = topk_decompress(archive)
        kept = np.take_along_axis(out.data, archive.class_indices, axis=1).sum(axis=1)
        assert np.all(kept > 0.99)


class TestScalarQuant:
    def test_levels_strictly_increasing(self, rng):
        codec = scalar_quant_fit(random_labels(rng, 50, 10), bits=3)
        assert np.all(np.diff(codec.levels) > 0)
        assert codec.levels.size == 8

    def test_lloyd_conditions_hold(self, rng):
        """At convergence each level is the mean of its cell and each value
        maps to its nearest level (the two Lloyd-Max optimality conditions)."""
        labels = random_labels(rng, 80, 12)
        codec = scalar_quant_fit(labels, bits=2, iterations=500)
        flat = labels.data.reshape(-1)
        idx = scalar_quant_apply(codec, labels).reshape(-1)
        # nearest-level assignment, by exhaustive comparison
        d2 = (flat[:, None] - codec.levels[None, :]) ** 2
        np.testing.assert_array_equal(idx, np.argmin(d2, axis=1))
        # centroid condition for populated cells
        for j in range(codec.levels.size):
            cell = flat[idx == j]
            if cell.size:
                assert codec.levels[j] == pytest.approx(cell.mean(), abs=1e-9)

    def test_beats_uniform_grid(self, rng):
        labels = random_labels(rng, 100, 10, alpha=0.2)
        codec = scalar_quant_fit(labels, bits=2, iterations=300)
        flat = labels.data.reshape(-1)
        fitted = ((codec.levels[scalar_quant_apply(codec, labels).reshape(-1)] - flat) ** 2).sum()
        grid = np.linspace(flat.min(), flat.max(), 4)
        uniform = (((grid[np.abs(flat[:, None] - grid[None, :]).argmin(1)]) - flat) ** 2).sum()
        assert fitted <= uniform + 1e-12

    def test_degenerate_data_padded(self):
        labels = SoftLabelMatrix(np.tile([0.25, 0.75], (4, 1)))
        codec = scalar_quant_fit(labels, bits=3)
        assert codec.levels.size == 8
        assert np.all(np.diff(codec.levels) > 0)
        # the two real values must be representable exactly
        out = scalar_quant_invert(codec, scalar_quant_apply(codec, labels))
        np.testing.assert_allclose(out.data, labels.data, atol=1e-12)

    def test_roundtrip_simplex(self, rng):
        labels = random_labels(rng, 40, 8)
        codec = scalar_quant_fit(labels, bits=4)
        out = scalar_quant_invert(codec, scalar_quant_apply(codec, labels))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_bad_bits(self, rng):
        with pytest.raises(ModelValidationError):
            scalar_quant_fit(random_labels(rng, 10, 4), bits=9)

    def test_codec_rejects_unsorted_levels(self):
        with pytest.raises(ModelValidationError):
            ScalarQuantCodec(np.array([0.5, 0.2]))


class TestPca:
    def test_components_orthonormal(self, rng):
        codec = pca_fit(random_labels(rng, 60, 12), k_pc=4)
        np.testing.assert_allclose(codec.components @ codec.components.T,
                                   np.eye(4), atol=1e-10)

    def test_error_matches_truncated_svd_oracle(self, rng):
        labels = random_labels(rng, 60, 12)
        k_pc = 3
        codec = pca_fit(labels, k_pc)
        recon = pca_reconstruct_raw(labels, codec)
        err = ((recon - labels.data) ** 2).sum()
        s = np.linalg.svd(labels.data - labels.data.mean(axis=0), compute_uv=False)
        np.testing.assert_allclose(err, (s[k_pc:] ** 2).sum(), rtol=1e-9)

    def test_full_rank_exact(self, rng):
        labels = random_labels(rng, 30, 6)
        codec = pca_fit(labels, 6)
        np.testing.assert_allclose(pca_reconstruct_raw(labels, codec), labels.data,
                                   atol=1e-10)

    def test_projection_shape_and_simplex_output(self, rng):
        labels = random_labels(rng, 30, 8)
        codec = pca_fit(labels, 2)
        proj = pca_compress(labels, codec)
        assert proj.shape == (30, 2)
        out = pca_decompress(proj, codec)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_oversized_rank(self, rng):
        with pytest.raises(ModelValidationError):
            pca_fit(random_labels(rng, 5, 8), k_pc=6)

    def test_codec_rejects_non_orthonormal(self, rng):
        with pytest.raises(ModelValidationError):
            PcaCodec(rng.standard_normal((3, 8)), np.zeros(8))


class TestVqNoAe:
    def test_projections_stay_identity(self, rng):
        labels = random_labels(rng, 64, 8)
        model, _ = vq_no_ae_fit(labels, d_c=2, k=8,
                                config=TrainConfig(max_steps=100, batch_size=16))
        np.testing.assert_array_equal(model.encoder, np.eye(8))
        np.testing.assert_array_equal(model.decoder, np.eye(8))

    def test_codebook_approaches_segment_distribution(self, rng):
        labels = random_labels(rng, 128, 8)
        model, trace = vq_no_ae_fit(labels, d_c=2, k=16,
                                    config=TrainConfig(max_steps=400, batch_size=32))
        assert trace.loss_vq[-1] < trace.loss_vq[0]

    def test_rejects_indivisible_classes(self, rng):
        with pytest.raises(ModelValidationError):
            vq_no_ae_fit(random_labels(rng, 20, 7), d_c=2, k=4)


def reference_kmeanspp_1d(values, counts, k, rng):
    """k-means++ seeding as it was: the full N x len(centers) distance matrix each round."""
    centers = [values[rng.choice(values.size, p=counts / counts.sum())]]
    for _ in range(1, k):
        d2 = np.min((values[:, None] - np.array(centers)[None, :]) ** 2, axis=1)
        w = d2 * counts
        if w.sum() == 0:
            centers.append(values[rng.choice(values.size)])
        else:
            centers.append(values[rng.choice(values.size, p=w / w.sum())])
    return np.array(centers)


class TestKmeansppSeeding:
    @pytest.fixture(scope="class")
    def unique_values(self):
        labels = random_labels(np.random.default_rng(7), 400, 50)
        values, counts = np.unique(labels.data.reshape(-1), return_counts=True)
        return values, counts.astype(np.float64)

    @pytest.mark.parametrize("k", [2, 4, 16, 64])
    def test_same_draws_as_reference(self, unique_values, k):
        values, counts = unique_values
        got = _kmeanspp_1d(values, counts, k, np.random.default_rng(k))
        want = reference_kmeanspp_1d(values, counts, k, np.random.default_rng(k))
        assert np.array_equal(got, want)

    def test_repeated_values_fall_back_to_uniform_draws(self):
        # two distinct values and k = 4: once both are centers every distance is 0
        values, counts = np.array([0.25, 0.75]), np.array([3.0, 1.0])
        got = _kmeanspp_1d(values, counts, 4, np.random.default_rng(1))
        want = reference_kmeanspp_1d(values, counts, 4, np.random.default_rng(1))
        assert np.array_equal(got, want)

    def test_memory_is_linear_in_the_values(self, unique_values):
        # a few N-length float64 vectors, never N x k (k = 64 would be 64 of them)
        values, counts = unique_values
        _, peak = traced_peak(_kmeanspp_1d, values, counts, 64, np.random.default_rng(0))
        assert peak < 8 * values.nbytes

    @pytest.mark.parametrize("bits", [1, 2, 4, 6])
    def test_scalar_quant_levels_match_reference_seeding(self, monkeypatch, bits):
        labels = random_labels(np.random.default_rng(3), 200, 20)
        got = scalar_quant_fit(labels, bits, seed=5).levels
        monkeypatch.setattr(baselines, "_kmeanspp_1d", reference_kmeanspp_1d)
        assert np.array_equal(got, scalar_quant_fit(labels, bits, seed=5).levels)
