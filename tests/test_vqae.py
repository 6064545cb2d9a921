import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slvq.labels import SoftLabelMatrix
from slvq.vqae import (
    LITERAL_STOP_GRADIENT,
    STRAIGHT_THROUGH,
    ModelValidationError,
    TrainConfig,
    VqaeModel,
    _init_model,
    _sample_segments,
    cache_loss_and_grads,
    compress,
    decode,
    decompress,
    encode,
    fit,
    quantize_latent,
    refit_decoder,
    renormalize,
    topk_scatter,
    topk_select,
    topk_then_vq_compress,
    topk_then_vq_decompress,
    topk_then_vq_fit,
)

from conftest import random_labels


def small_model(rng, c=6, d_h=8, d_c=4, k=5):
    return VqaeModel(rng.standard_normal((c, d_h)),
                     rng.standard_normal((d_h, c)),
                     rng.standard_normal((k, d_c)))


class TestModelValidation:
    def test_shape_mismatch(self, rng):
        with pytest.raises(ModelValidationError):
            VqaeModel(rng.standard_normal((4, 6)), rng.standard_normal((5, 4)),
                      rng.standard_normal((3, 2)))

    def test_indivisible_latent(self, rng):
        with pytest.raises(ModelValidationError):
            VqaeModel(rng.standard_normal((4, 7)), rng.standard_normal((7, 4)),
                      rng.standard_normal((3, 2)))

    def test_non_finite_rejected(self, rng):
        enc = rng.standard_normal((4, 6))
        enc[0, 0] = np.nan
        with pytest.raises(ModelValidationError):
            VqaeModel(enc, rng.standard_normal((6, 4)), rng.standard_normal((3, 2)))

    def test_empty_code_width_rejected(self, rng):
        with pytest.raises(ModelValidationError):
            VqaeModel(rng.standard_normal((4, 6)), rng.standard_normal((6, 4)), np.zeros((3, 0)))

    def test_dimension_properties(self, rng):
        model = small_model(rng)
        assert (model.c, model.d_h, model.d_c, model.k, model.m) == (6, 8, 4, 5, 2)


class TestEncodeDecode:
    def test_encode_is_matrix_product(self, rng):
        model = small_model(rng)
        y = rng.dirichlet(np.ones(6), size=3)
        expected = np.array([[sum(y[i, j] * model.encoder[j, a] for j in range(6))
                              for a in range(8)] for i in range(3)])
        np.testing.assert_allclose(encode(y, model), expected, rtol=1e-12)

    def test_decode_is_matrix_product(self, rng):
        model = small_model(rng)
        h = rng.standard_normal((3, 8))
        np.testing.assert_allclose(decode(h, model), h @ model.decoder, rtol=1e-15)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_encode_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        model = small_model(rng)
        y1 = rng.standard_normal(6)
        y2 = rng.standard_normal(6)
        lhs = encode(a * y1 + b * y2, model)
        rhs = a * encode(y1, model) + b * encode(y2, model)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_encode_wrong_width(self, rng):
        with pytest.raises(ModelValidationError):
            encode(np.ones(5) / 5, small_model(rng))


class TestQuantize:
    def test_matches_exhaustive_scan(self, rng):
        model = small_model(rng)
        h = rng.standard_normal((50, 8))
        indices, h_hat = quantize_latent(h, model)
        segs = h.reshape(50, 2, 4)
        d2 = ((segs[:, :, None, :] - model.codebook[None, None]) ** 2).sum(-1)
        np.testing.assert_array_equal(indices, np.argmin(d2, axis=2))
        np.testing.assert_allclose(h_hat.reshape(50, 2, 4), model.codebook[indices])

    def test_tie_breaks_to_lowest_index(self):
        codebook = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 1.0]])
        model = VqaeModel(np.zeros((4, 2)), np.zeros((2, 4)), codebook)
        # (0, 0.5) is exactly equidistant from codes 0 and 2
        indices, h_hat = quantize_latent(np.array([0.0, 0.5]), model)
        assert indices.tolist() == [0]
        np.testing.assert_array_equal(h_hat, codebook[0])

    def test_blocked_search_matches_brute_force_with_ties_across_blocks(self):
        rng = np.random.default_rng(3)
        # 4,096 codes on an integer grid, in shuffled order, so a block holds
        # 256 segments and 1,000 segments take four blocks
        grid = np.stack(np.meshgrid(np.arange(64.0), np.arange(64.0)), -1).reshape(-1, 2)
        codebook = rng.permutation(grid)
        model = VqaeModel(None, np.zeros((4, 3)), codebook)
        segs = rng.uniform(0, 63, size=(1000, 2))
        # every other segment sits at a half-integer point, exactly
        # equidistant from two or four codes; all arithmetic on them is exact
        tied = rng.integers(0, 63, size=(500, 2)) + rng.choice([0.0, 0.5], size=(500, 2))
        tied[np.all(tied % 1 == 0, axis=1), 0] += 0.5
        segs[::2] = tied
        d2 = ((segs[:, None, :] - codebook[None]) ** 2).sum(-1)
        assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1)[::2] >= 2).all()
        indices, h_hat = quantize_latent(segs.reshape(500, 4), model)
        np.testing.assert_array_equal(indices.reshape(-1), np.argmin(d2, axis=1))
        np.testing.assert_array_equal(h_hat.reshape(-1, 2), codebook[indices.reshape(-1)])

    def test_single_latent_shape(self, rng):
        model = small_model(rng)
        indices, h_hat = quantize_latent(rng.standard_normal(8), model)
        assert indices.shape == (2,)
        assert h_hat.shape == (8,)

    def test_rejects_non_finite_latent(self, rng):
        model = small_model(rng)
        h = np.full(8, np.nan)
        with pytest.raises(ModelValidationError):
            quantize_latent(h, model)

    def test_rejects_wrong_latent_dim(self, rng):
        with pytest.raises(ModelValidationError):
            quantize_latent(np.zeros(9), small_model(rng))


class TestInitModel:
    @staticmethod
    def full_product_init(Y, d_h, d_c, k, rng):
        """The codebook drawn from Y @ P over every row, as it was sampled
        before only the picked rows were multiplied."""
        c = Y.shape[1]
        P = rng.uniform(-1, 1, size=(c, d_h)) / np.sqrt(c)
        rng.uniform(-1, 1, size=(d_h, c))
        return _sample_segments((Y @ P).reshape(-1, d_c), k, rng, jitter=1e-4)

    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    def test_codebook_equals_full_product_sample(self, k):
        # the desk task's shape: 4,000 labels, c=100, d_h=400, d_c=40
        Y = random_labels(np.random.default_rng(k), 4000, 100).data
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        model = _init_model(Y, 400, 40, k, ours)
        np.testing.assert_array_equal(model.codebook, self.full_product_init(Y, 400, 40, k, theirs))
        assert ours.random() == theirs.random()   # the RNG stream is unchanged

    def test_codebook_within_rounding_of_full_product_sample(self):
        # At c=100, d_h=100 OpenBLAS multiplies fewer than about 100 rows
        # with another kernel than all 1,000, so the last bit may differ.
        Y = random_labels(np.random.default_rng(0), 1000, 100).data
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        model = _init_model(Y, 100, 10, 64, ours)
        np.testing.assert_allclose(model.codebook, self.full_product_init(Y, 100, 10, 64, theirs),
                                   rtol=1e-13, atol=1e-16)
        assert ours.random() == theirs.random()


class TestRenormalize:
    def test_rows_on_simplex(self, rng):
        y = rng.standard_normal((20, 7))
        out = renormalize(y)
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_floor_applied_before_normalization(self):
        out = renormalize(np.array([1.0, -3.0, 1.0]), epsilon=0.5)
        np.testing.assert_allclose(out, np.array([1.0, 0.5, 1.0]) / 2.5)

    def test_identity_on_interior_simplex_rows(self, rng):
        y = rng.dirichlet(np.ones(5), size=4) + 1e-3
        y /= y.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(renormalize(y, 1e-8), y, rtol=1e-12)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ModelValidationError):
            renormalize(np.ones(3), epsilon=0.0)


# ---------------------------------------------------------------------------
# Loss / gradient oracle. Central finite differences must respect the
# stop-gradient structure: values designated sg[...] are frozen at their
# base-point values while the perturbed parameter varies.
# ---------------------------------------------------------------------------

def loss_by_loops(Y, model, config):
    """Straightforward per-row loop implementation of the caching loss."""
    n, total_vq, total_rec = Y.shape[0], 0.0, 0.0
    for y in Y:
        h = y @ model.encoder
        segs = h.reshape(model.m, model.d_c)
        h_hat = np.empty_like(segs)
        for i, s in enumerate(segs):
            d2 = ((s - model.codebook) ** 2).sum(axis=1)
            q = int(np.argmin(d2))
            h_hat[i] = model.codebook[q]
            total_vq += d2[q] + config.beta * d2[q]
        y_hat = h_hat.reshape(-1) @ model.decoder
        total_rec += ((y_hat - y) ** 2).sum()
    return {"vq": total_vq / n, "rec": total_rec / n,
            "total": config.alpha * total_vq / n + total_rec / n}


def sg_aware_loss(Y, base, config, encoder=None, decoder=None, codebook=None):
    """Loss as a function of ONE perturbed parameter, with every
    stop-gradient operand frozen at the base model's values."""
    P = base.encoder if encoder is None else encoder
    D = base.decoder if decoder is None else decoder
    CB = base.codebook if codebook is None else codebook
    n = Y.shape[0]
    H0 = Y @ base.encoder
    idx0, Hq0 = quantize_latent(H0, base)

    # codebook term: alpha * ||sg[h] - mu_q||^2, with the frozen assignment
    cb_term = ((H0.reshape(n, base.m, base.d_c) - CB[idx0]) ** 2).sum() / n
    # commitment term: alpha * beta * ||h - sg[mu_q]||^2
    H = Y @ P
    commit = config.beta * ((H - Hq0) ** 2).sum() / n
    # reconstruction: straight-through passes encoder perturbations through
    # the (frozen) quantization offset; literal mode holds h_hat fixed in P
    if config.gradient_mode == STRAIGHT_THROUGH:
        Hhat = H + (Hq0 - H0)
    else:
        Hhat = Hq0
    if codebook is not None:
        # reconstruction reads codes through the frozen lookup only on the
        # forward pass; it contributes no codebook gradient
        Hhat = Hq0
    rec = ((Hhat @ D - Y) ** 2).sum() / n
    return config.alpha * (cb_term + commit) + rec


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


class TestLossAndGradients:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.model = small_model(rng, c=6, d_h=8, d_c=4, k=5)
        self.Y = rng.dirichlet(np.ones(6), size=9)

    @pytest.mark.parametrize("mode", [STRAIGHT_THROUGH, LITERAL_STOP_GRADIENT])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.25), (0.7, 1.3)])
    def test_loss_matches_loop_oracle(self, mode, alpha, beta):
        config = TrainConfig(alpha=alpha, beta=beta, gradient_mode=mode)
        losses, _ = cache_loss_and_grads(self.Y, self.model, config)
        expected = loss_by_loops(self.Y, self.model, config)
        for key in ("vq", "rec", "total"):
            assert losses[key] == pytest.approx(expected[key], rel=1e-12)

    @pytest.mark.parametrize("mode", [STRAIGHT_THROUGH, LITERAL_STOP_GRADIENT])
    def test_gradients_match_finite_differences(self, mode):
        config = TrainConfig(alpha=0.9, beta=0.35, gradient_mode=mode)
        _, grads = cache_loss_and_grads(self.Y, self.model, config)
        checks = {
            "encoder": lambda P: sg_aware_loss(self.Y, self.model, config, encoder=P),
            "decoder": lambda D: sg_aware_loss(self.Y, self.model, config, decoder=D),
            "codebook": lambda CB: sg_aware_loss(self.Y, self.model, config, codebook=CB),
        }
        for name, f in checks.items():
            numeric = fd_grad(f, getattr(self.model, name))
            assert rel_err(grads[name], numeric) < 1e-6, name

    def test_literal_mode_alpha_zero_freezes_encoder(self):
        config = TrainConfig(alpha=0.0, gradient_mode=LITERAL_STOP_GRADIENT)
        _, grads = cache_loss_and_grads(self.Y, self.model, config)
        assert np.all(grads["encoder"] == 0.0)
        assert np.any(grads["decoder"] != 0.0)

    def test_batch_dimension_averaging(self):
        config = TrainConfig()
        single, _ = cache_loss_and_grads(self.Y[:1], self.model, config)
        full, _ = cache_loss_and_grads(self.Y, self.model, config)
        per_row = [cache_loss_and_grads(self.Y[i:i + 1], self.model, config)[0]["total"]
                   for i in range(len(self.Y))]
        assert full["total"] == pytest.approx(np.mean(per_row), rel=1e-12)
        assert single["total"] == pytest.approx(per_row[0], rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ModelValidationError):
            cache_loss_and_grads(np.zeros((0, 6)), self.model, TrainConfig())

    def test_negative_alpha_rejected(self):
        with pytest.raises(ModelValidationError):
            TrainConfig(alpha=-0.1)


class TestCompressDecompress:
    def test_roundtrip_shapes_and_simplex(self, rng):
        model = small_model(rng)
        labels = random_labels(rng, 12, 6)
        indices = compress(labels, model)
        assert indices.shape == (12, 2)
        out = decompress(indices, model)
        assert out.data.shape == (12, 6)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic(self, rng):
        model = small_model(rng)
        labels = random_labels(rng, 12, 6)
        np.testing.assert_array_equal(compress(labels, model), compress(labels, model))

    def test_out_of_range_index_rejected(self, rng):
        model = small_model(rng)
        with pytest.raises(ModelValidationError):
            decompress(np.array([[0, 5]]), model)

    def test_class_count_mismatch(self, rng):
        model = small_model(rng)
        with pytest.raises(ModelValidationError):
            compress(random_labels(rng, 3, 7), model)


class TestRefitDecoder:
    def test_never_increases_reconstruction_error(self, rng):
        model = small_model(rng, c=10, d_h=8, d_c=4, k=6)
        labels = random_labels(rng, 40, 10)
        _, h_hat = quantize_latent(encode(labels.data, model), model)

        def rec_error(m):
            return ((h_hat @ m.decoder - labels.data) ** 2).sum()

        refit = refit_decoder(labels, model)
        assert rec_error(refit) <= rec_error(model) + 1e-12

    def test_is_least_squares_optimum(self, rng):
        model = small_model(rng, c=10, d_h=8, d_c=4, k=6)
        labels = random_labels(rng, 40, 10)
        refit = refit_decoder(labels, model)
        _, h_hat = quantize_latent(encode(labels.data, model), model)
        # normal equations residual must vanish at the optimum
        residual = h_hat.T @ (h_hat @ refit.decoder - labels.data)
        assert np.abs(residual).max() < 1e-8

    def test_keeps_encoder_and_codebook(self, rng):
        model = small_model(rng)
        refit = refit_decoder(random_labels(rng, 20, 6), model)
        np.testing.assert_array_equal(refit.encoder, model.encoder)
        np.testing.assert_array_equal(refit.codebook, model.codebook)


class TestTopkThenVq:
    def test_topk_select_rank_order_and_ties(self):
        data = np.array([[0.4, 0.4, 0.2], [0.1, 0.2, 0.7]])
        values, classes = topk_select(data, 2)
        np.testing.assert_array_equal(classes, [[0, 1], [2, 1]])
        np.testing.assert_allclose(values, [[0.4, 0.4], [0.7, 0.2]])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_topk_scatter_rejects_out_of_range_class(self, bad):
        with pytest.raises(ModelValidationError):
            topk_scatter(np.array([[0.6, 0.4]]), np.array([[0, bad]]), 3)

    def test_topk_select_rejects_large_k(self, rng):
        with pytest.raises(ModelValidationError):
            topk_select(rng.dirichlet(np.ones(4), size=2), 5)

    def test_composed_roundtrip(self, rng):
        labels = random_labels(rng, 80, 20, alpha=0.3)
        config = TrainConfig(max_steps=100, batch_size=16, seed=3)
        model, _ = topk_then_vq_fit(labels, k_top=4, d_h=4, d_c=2, k=8, config=config)
        vq_idx, classes = topk_then_vq_compress(labels, model)
        assert vq_idx.shape == (80, 2)
        assert classes.shape == (80, 4)
        out = topk_then_vq_decompress(vq_idx, classes, model)
        assert out.data.shape == (80, 20)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        # mass should concentrate on the kept classes
        kept = np.take_along_axis(out.data, classes, axis=1).sum(axis=1)
        assert kept.mean() > 0.5

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_decompress_rejects_out_of_range_vq_index(self, rng, bad):
        labels = random_labels(rng, 40, 10)
        config = TrainConfig(max_steps=20, batch_size=16, seed=0)
        model, _ = topk_then_vq_fit(labels, k_top=4, d_h=4, d_c=2, k=8, config=config)
        vq_idx, classes = topk_then_vq_compress(labels, model)
        vq_idx[3, 1] = bad
        with pytest.raises(ModelValidationError):
            topk_then_vq_decompress(vq_idx, classes, model)


class TestDecodeSideModel:
    def test_decodes_like_the_full_model(self, rng):
        model = small_model(rng)
        decode_side = VqaeModel(None, model.decoder, model.codebook)
        assert (decode_side.c, decode_side.d_h, decode_side.m) == (model.c, model.d_h, model.m)
        indices = compress(random_labels(rng, 12, 6), model)
        np.testing.assert_array_equal(decompress(indices, decode_side).data,
                                      decompress(indices, model).data)

    def test_cannot_encode_compress_or_fit(self, rng):
        model = small_model(rng)
        decode_side = VqaeModel(None, model.decoder, model.codebook)
        labels = random_labels(rng, 16, 6)
        for call in (lambda: encode(labels.data, decode_side),
                     lambda: compress(labels, decode_side),
                     lambda: fit(labels, 8, 4, 5, TrainConfig(max_steps=2, batch_size=4),
                                 init_model=decode_side)):
            with pytest.raises(ModelValidationError):
                call()

    def test_fit_and_compress_take_plain_arrays(self, rng):
        labels = random_labels(rng, 32, 6)
        config = TrainConfig(max_steps=10, batch_size=8, seed=1)
        from_matrix, _ = fit(labels, 4, 2, 4, config)
        from_array, _ = fit(labels.data, 4, 2, 4, config)
        np.testing.assert_array_equal(from_matrix.encoder, from_array.encoder)
        np.testing.assert_array_equal(compress(labels, from_matrix),
                                      compress(labels.data, from_matrix))
