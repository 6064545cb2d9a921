"""One implementation per codec step: the fit step, ``decompress`` and the
archive writer all go through ``encode``, ``decode``, ``renormalize`` and one
code check, so a trace of any of them sees each step as its own call."""

import numpy as np
import pytest

from slvq import vqae
from slvq.archive import vqae_archive, write_archive
from slvq.labels import _CODEC_BLOCK_ELEMENTS, _row_blocks
from slvq.vqae import ModelValidationError, TrainConfig

from conftest import random_labels
from test_archive import f32_model
from test_vqae import small_model


@pytest.fixture
def calls(monkeypatch):
    """Count the calls of vqae.encode, vqae.decode and vqae.renormalize."""
    counts = {"encode": 0, "decode": 0, "renormalize": 0}
    for name in counts:
        original = getattr(vqae, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(vqae, name, counted)
    return counts


class TestOneImplementationPerStep:
    def test_decompress_decodes_each_block_and_renormalizes_once(self, rng, calls):
        model = small_model(rng, c=5, d_h=1024, d_c=8, k=16)
        indices = rng.integers(0, model.k, size=(2100, model.m))
        assert len(_row_blocks(indices.shape[0], model.d_h, _CODEC_BLOCK_ELEMENTS)) == 3
        vqae.decompress(indices, model)
        assert calls == {"encode": 0, "decode": 3, "renormalize": 1}

    @pytest.mark.parametrize("mode", vqae.GRADIENT_MODES)
    def test_fit_step_encodes_and_decodes_once(self, rng, calls, mode):
        model = small_model(rng)
        vqae.cache_loss_and_grads(random_labels(rng, 16, model.c), model, TrainConfig(gradient_mode=mode))
        assert calls == {"encode": 1, "decode": 1, "renormalize": 0}

    def test_fit_step_keeps_the_class_count_message(self, rng):
        model = small_model(rng)
        with pytest.raises(ModelValidationError, match="expected 6 classes, got 7"):
            vqae.cache_loss_and_grads(random_labels(rng, 4, 7), model, TrainConfig())

    def test_quantized_latents_are_the_gathered_codebook_rows(self, rng):
        model = small_model(rng)
        h = rng.standard_normal((7, model.d_h))
        indices, h_hat = vqae.quantize_latent(h, model)
        np.testing.assert_array_equal(h_hat, model.codebook[indices].reshape(7, model.d_h))
        index, h_hat_1 = vqae.quantize_latent(h[3], model)
        np.testing.assert_array_equal(h_hat_1, model.codebook[index].reshape(model.d_h))

    def test_refit_decoder_solves_on_the_gathered_codebook_rows(self, rng):
        model = small_model(rng)
        labels = random_labels(rng, 40, model.c)
        h_hat = model.codebook[vqae.compress(labels, model)].reshape(labels.n, model.d_h)
        expected, *_ = np.linalg.lstsq(h_hat, labels.data, rcond=None)
        np.testing.assert_array_equal(vqae.refit_decoder(labels, model).decoder, expected)

    def test_decode_and_renormalize_write_into_out(self, rng):
        model = small_model(rng)
        h = rng.standard_normal((3, model.d_h))
        buf = np.empty((3, model.c))
        assert vqae.decode(h, model, out=buf) is buf
        np.testing.assert_array_equal(buf, h @ model.decoder)
        expected = vqae.renormalize(buf)
        assert vqae.renormalize(buf, out=buf) is buf
        np.testing.assert_array_equal(buf, expected)


class TestWriterChecksCodes:
    @pytest.mark.parametrize("indices", [np.full((2, 2), 6), np.zeros((2, 3), dtype=np.int64),
                                         np.full((2, 2), -1), np.zeros(2, dtype=np.int64),
                                         np.zeros((0, 2), dtype=np.int64), np.array([[1.7, 3.9]]),
                                         np.ones((2, 2), dtype=bool)])
    def test_writer_rejects_what_the_decoder_rejects(self, rng, tmp_path, indices):
        model = f32_model(rng)   # k = 5, m = 2
        assert (model.k, model.m) == (5, 2)
        with pytest.raises(ModelValidationError):
            vqae.decompress(indices, model)
        path = tmp_path / "labels.slar"
        write_archive(vqae_archive(model, np.zeros((2, 2), dtype=np.int64)), path)
        before = path.read_bytes()
        with pytest.raises(ModelValidationError):
            write_archive(vqae_archive(model, indices), path)
        assert path.read_bytes() == before
