"""A model read from a file decodes in its stored float32; everything that
trains or searches keeps float64 and the bits of the float64 model."""

import numpy as np
import pytest

from slvq.archive import (decompress_vqae_archive, read_archive, read_model, vqae_archive, write_archive,
                          write_model)
from slvq.vqae import TrainConfig, VqaeModel, cache_loss_and_grads, compress, decompress, fit, refit_decoder

from conftest import random_labels

PAPER = {"n": 3000, "c": 1000, "d_h": 1000, "d_c": 25, "k": 512}   # archive-paper's codec shape
DESK = {"n": 2000, "c": 100, "d_h": 400, "d_c": 40, "k": 256}       # criterion 8's largest setting


def upcast(model):
    """The same weights as a float64 model."""
    return VqaeModel(model.encoder, model.decoder.astype(np.float64), model.codebook.astype(np.float64))


def file_model(tmp_path_factory, shape, seed):
    """Labels and a briefly fitted model read back from its file."""
    rng = np.random.default_rng(seed)
    labels = random_labels(rng, shape["n"], shape["c"])
    model, _ = fit(labels, shape["d_h"], shape["d_c"], shape["k"], TrainConfig(max_steps=5, seed=seed))
    path = tmp_path_factory.mktemp("model") / "model.slvq"
    write_model(model, path)
    return labels, read_model(path)[0]


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    return file_model(tmp_path_factory, PAPER, 0)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    return file_model(tmp_path_factory, DESK, 1)


class TestDtypes:
    def test_read_model_decodes_in_float32_and_encodes_in_float64(self, paper):
        _, model = paper
        assert model.decoder.dtype == model.codebook.dtype == np.float32
        assert model.encoder.dtype == np.float64

    def test_fit_returns_float64_throughout(self, rng):
        model, _ = fit(random_labels(rng, 40, 6), 4, 2, 4, TrainConfig(max_steps=3, batch_size=16))
        assert {arr.dtype for arr in (model.encoder, model.decoder, model.codebook)} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("decoder_dtype, codebook_dtype", [(np.float32, np.float64),
                                                                (np.float64, np.float32)])
    def test_mixed_decode_side_is_float64(self, rng, decoder_dtype, codebook_dtype):
        model = VqaeModel(None, rng.standard_normal((4, 6)).astype(decoder_dtype),
                          rng.standard_normal((3, 2)).astype(codebook_dtype))
        assert model.decoder.dtype == model.codebook.dtype == np.float64


@pytest.mark.parametrize("name", ["paper", "desk"])
def test_float32_decode_matches_float64(request, name):
    labels, model = request.getfixturevalue(name)
    indices = compress(labels, model)
    out, reference = decompress(indices, model).data, decompress(indices, upcast(model)).data
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, reference, rtol=0, atol=1e-6)
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12


def test_batches_decode_bitwise_as_the_whole_archive(paper, tmp_path):
    """The benchmark checks every served 256-row batch against the whole-archive decode."""
    labels, model = paper
    indices = compress(labels, model)
    path = tmp_path / "labels.slar"
    write_archive(vqae_archive(model, indices), path)
    whole = decompress_vqae_archive(read_archive(path)).data
    order = np.random.default_rng(2).permutation(labels.n)
    for start in range(0, labels.n - 255, 256):
        rows = order[start:start + 256]
        np.testing.assert_array_equal(decompress(indices[rows], model).data, whole[rows])


class TestSameBitsAsFloat64:
    def test_compress(self, paper):
        labels, model = paper
        np.testing.assert_array_equal(compress(labels, model), compress(labels, upcast(model)))

    def test_archive_bytes(self, paper, tmp_path):
        labels, model = paper
        indices = compress(labels, model)
        write_archive(vqae_archive(model, indices), tmp_path / "stored.slar")
        write_archive(vqae_archive(upcast(model), indices), tmp_path / "upcast.slar")
        assert (tmp_path / "stored.slar").read_bytes() == (tmp_path / "upcast.slar").read_bytes()

    def test_fit_from_a_file_model(self, desk):
        labels, model = desk
        # three steps an epoch, so dead-code re-init runs once
        rows, config = labels.data[:96], TrainConfig(max_steps=4, batch_size=32, dead_code_reinit=True)
        shape = (DESK["d_h"], DESK["d_c"], DESK["k"])
        got, got_trace = fit(rows, *shape, config, init_model=model)
        want, want_trace = fit(rows, *shape, config, init_model=upcast(model))
        for name in ("encoder", "decoder", "codebook"):
            assert getattr(got, name).dtype == np.float64
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got_trace.loss_total == want_trace.loss_total

    def test_refit_decoder(self, desk):
        labels, model = desk
        got, want = refit_decoder(labels, model), refit_decoder(labels, upcast(model))
        for name in ("encoder", "decoder", "codebook"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("mode", ["straight_through", "literal_stop_gradient"])
    def test_loss_and_gradients(self, paper, mode):
        labels, model = paper
        config = TrainConfig(gradient_mode=mode)
        got, got_grads = cache_loss_and_grads(labels.data[:64], model, config)
        want, want_grads = cache_loss_and_grads(labels.data[:64], upcast(model), config)
        assert got == want
        for name, grad in want_grads.items():
            assert got_grads[name].dtype == np.float64
            assert got_grads[name].tobytes() == grad.tobytes()
