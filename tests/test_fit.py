import numpy as np
import pytest

from slvq import vqae
from slvq.labels import SoftLabelMatrix
from slvq.optim import BLOCK, AdamW
from slvq.vqae import (
    MAX_K,
    ModelValidationError,
    TrainConfig,
    TrainingError,
    VqaeModel,
    cache_loss_and_grads,
    fit,
)

from conftest import random_labels, traced_peak


def quick_config(**overrides):
    base = dict(max_steps=200, batch_size=16, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class ReferenceAdamW:
    """The update as whole-array expressions, one temporary per operation:
    the form the blocked, in-place AdamW must match bit for bit."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-2):
        self.params, self.lr, self.eps, self.weight_decay = params, lr, eps, weight_decay
        self.beta1, self.beta2 = betas
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p -= self.lr * self.weight_decay * p


class TestAdamW:
    def test_blocked_update_is_bit_identical_to_reference(self):
        rng = np.random.default_rng(0)
        # 75,000 elements span three blocks; the others are empty, one block
        # exactly and one element over
        shapes = {"w": (300, 250), "b": (3,), "empty": (0,), "one block": (BLOCK,), "over": (BLOCK + 1,)}
        params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        expected = {name: p.copy() for name, p in params.items()}
        opt = AdamW(params, lr=0.01, betas=(0.8, 0.99), eps=1e-6, weight_decay=0.1)
        ref = ReferenceAdamW(expected, lr=0.01, betas=(0.8, 0.99), eps=1e-6, weight_decay=0.1)
        for _ in range(5):
            grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
            opt.step(grads)
            ref.step(grads)
        for name in shapes:
            np.testing.assert_array_equal(params[name], expected[name])
            np.testing.assert_array_equal(opt.m[name], ref.m[name])
            np.testing.assert_array_equal(opt.v[name], ref.v[name])

    @pytest.mark.parametrize("param", [np.zeros((4, 3)).T, np.zeros(3, dtype=np.float32),
                                       np.frombuffer(bytes(24))],
                             ids=["transposed view", "float32", "read-only"])
    def test_rejects_parameter_it_cannot_update_in_place(self, param):
        with pytest.raises(ValueError, match="writeable, C-contiguous float64"):
            AdamW({"p": param})

    def test_single_step_matches_hand_computation(self):
        p = np.array([1.0, -2.0])
        opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)
        g = np.array([0.5, -1.5])
        opt.step({"p": g})
        # after one step m_hat = g and v_hat = g^2, so the Adam update is
        # lr * g / (|g| + eps) = lr * sign(g); decay then shrinks the result
        stepped = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        expected = stepped - 0.1 * 0.01 * stepped
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_decay_is_decoupled_from_gradient(self):
        p1 = np.array([10.0])
        p2 = np.array([10.0])
        AdamW({"p": p1}, lr=0.1, weight_decay=0.5).step({"p": np.array([0.0])})
        AdamW({"p": p2}, lr=0.1, weight_decay=0.0).step({"p": np.array([0.0])})
        # zero gradient: only the decay term moves p1
        np.testing.assert_allclose(p1, 10.0 - 0.1 * 0.5 * 10.0)
        np.testing.assert_allclose(p2, 10.0)

    def test_rejects_gradient_of_another_shape(self):
        # the flat blocks would otherwise pair a (3, 1) gradient with a (3,) parameter
        opt = AdamW({"p": np.zeros(3)})
        with pytest.raises(ValueError, match="shape"):
            opt.step({"p": np.ones((3, 1))})

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            AdamW({"p": np.zeros(1)}, lr=0.0)


class TestFit:
    def test_reduces_training_loss(self, rng):
        labels = random_labels(rng, 200, 12, alpha=0.3)
        _, trace = fit(labels, 8, 2, 16, quick_config(max_steps=1000, lr=0.01))
        early = np.mean(trace.loss_total[:20])
        late = np.mean(trace.loss_total[-20:])
        assert late < 0.6 * early

    def test_seeded_determinism(self, rng):
        labels = random_labels(rng, 100, 10)
        m1, t1 = fit(labels, 8, 4, 8, quick_config(seed=5))
        m2, t2 = fit(labels, 8, 4, 8, quick_config(seed=5))
        np.testing.assert_array_equal(m1.encoder, m2.encoder)
        np.testing.assert_array_equal(m1.decoder, m2.decoder)
        np.testing.assert_array_equal(m1.codebook, m2.codebook)
        assert t1.loss_total == t2.loss_total

    def test_different_seeds_differ(self, rng):
        labels = random_labels(rng, 100, 10)
        m1, _ = fit(labels, 8, 4, 8, quick_config(seed=5))
        m2, _ = fit(labels, 8, 4, 8, quick_config(seed=6))
        assert not np.array_equal(m1.encoder, m2.encoder)

    def test_trace_length_and_usage(self, rng):
        labels = random_labels(rng, 64, 8)
        _, trace = fit(labels, 4, 2, 4, quick_config(max_steps=50))
        assert len(trace) == 50
        # one histogram per epoch: 12 epochs of 4 steps over 64 rows, then 2 steps
        assert len(trace.code_usage) == 13
        epoch_steps = [4] * 12 + [2]
        assert [u.sum() for u in trace.code_usage] == [s * 16 * 2 for s in epoch_steps]
        assert sum(u.sum() for u in trace.code_usage) == 50 * 16 * 2   # steps * batch * segments

    def test_trace_memory_does_not_grow_with_steps(self, rng):
        # one epoch is 4,000 steps, and a k=4096 histogram a step would hold
        # 32 KiB more for each: about 47 MiB more at 2,000 steps than at 500
        labels = random_labels(rng, 64_000, 8)
        peaks = [traced_peak(fit, labels, 8, 2, 4096, quick_config(max_steps=steps))[1]
                 for steps in (500, 2000)]
        assert peaks[1] - peaks[0] < 2 ** 20

    def test_trainable_subset_freezes_others(self, rng):
        labels = random_labels(rng, 64, 8)
        init = VqaeModel(rng.standard_normal((8, 4)), rng.standard_normal((4, 8)),
                         rng.standard_normal((4, 2)))
        model, _ = fit(labels, 4, 2, 4, quick_config(max_steps=50),
                       trainable=("codebook",), init_model=init)
        np.testing.assert_array_equal(model.encoder, init.encoder)
        np.testing.assert_array_equal(model.decoder, init.decoder)
        assert not np.array_equal(model.codebook, init.codebook)

    def test_batch_larger_than_data_rejected(self, rng):
        with pytest.raises(ModelValidationError):
            fit(random_labels(rng, 10, 8), 4, 2, 4, quick_config(batch_size=16))

    def test_indivisible_latent_rejected(self, rng):
        with pytest.raises(ModelValidationError):
            fit(random_labels(rng, 64, 8), 5, 2, 4, quick_config())

    def test_dead_code_reinit_runs(self, rng):
        labels = random_labels(rng, 64, 8)
        # far more codes than 64 rows can use in one epoch
        model, _ = fit(labels, 4, 2, 64, quick_config(max_steps=100, dead_code_reinit=True))
        assert model.k == 64

    def test_divergence_raises_with_trace(self):
        rng = np.random.default_rng(0)
        huge = VqaeModel(np.full((4, 4), 1e200), rng.standard_normal((4, 4)),
                         rng.standard_normal((2, 2)))
        with pytest.raises(TrainingError):
            cache_loss_and_grads(rng.dirichlet(np.ones(4), size=3), huge, TrainConfig())

    def test_fit_divergence_carries_trace(self, rng):
        labels = random_labels(rng, 64, 4)
        huge = VqaeModel(np.full((4, 4), 1e200), rng.standard_normal((4, 4)),
                         rng.standard_normal((2, 2)))
        with pytest.raises(TrainingError) as exc_info:
            fit(labels, 4, 2, 2, quick_config(max_steps=10), init_model=huge)
        assert exc_info.value.trace is not None
        assert exc_info.value.step == 0

    def test_init_scale_widens_initial_weights(self, rng):
        labels = random_labels(rng, 64, 8)
        small, _ = fit(labels, 4, 2, 4, quick_config(max_steps=1, init_scale=1.0))
        large, _ = fit(labels, 4, 2, 4, quick_config(max_steps=1, init_scale=10.0))
        assert np.abs(large.encoder).max() > 3 * np.abs(small.encoder).max()

    def test_respects_reconstruction_floor_of_latent_rank(self, rng):
        # y_hat lives in the row space of D, so L_rec can never beat the
        # best rank-d_h approximation of the label matrix
        labels = random_labels(rng, 120, 12, alpha=0.5)
        d_h = 4
        _, trace = fit(labels, d_h, 2, 32, quick_config(max_steps=400, lr=0.01))
        centered = labels.data
        s = np.linalg.svd(centered, compute_uv=False)
        floor = (s[d_h:] ** 2).sum() / labels.n
        assert trace.loss_rec[-1] >= floor - 1e-9


class TestFitOwnsOneModel:
    """fit checks its inputs once, trains one model in place and checks it
    again only at return."""

    def test_builds_no_model_per_step(self, rng, monkeypatch):
        built = []
        post_init = VqaeModel.__post_init__
        monkeypatch.setattr(VqaeModel, "__post_init__",
                            lambda model: (built.append(model), post_init(model)))
        fit(random_labels(rng, 64, 8), 4, 2, 4, quick_config(max_steps=50))
        assert len(built) <= 3   # the init, the trained model and the returned model

    def test_trains_the_fresh_model_in_place(self, rng, monkeypatch):
        built, init_model = [], vqae._init_model

        def recorded_init(*args):
            built.append(init_model(*args))
            return built[-1]

        monkeypatch.setattr(vqae, "_init_model", recorded_init)
        model, _ = fit(random_labels(rng, 64, 8), 4, 2, 4, quick_config(max_steps=5))
        for name in ("encoder", "decoder", "codebook"):
            assert getattr(model, name) is getattr(built[0], name)

    def test_init_model_left_unchanged(self, rng):
        init, _ = fit(random_labels(rng, 64, 8), 4, 2, 4, quick_config(max_steps=5))
        before = [arr.copy() for arr in (init.encoder, init.decoder, init.codebook)]
        model, _ = fit(random_labels(rng, 64, 8), 4, 2, 4, quick_config(max_steps=20), init_model=init)
        for name, arr in zip(("encoder", "decoder", "codebook"), before):
            np.testing.assert_array_equal(getattr(init, name), arr)
            assert not np.array_equal(getattr(model, name), arr)

    def test_diverging_update_is_a_training_error(self, rng):
        # the first update moves every weight by lr; the decay then overflows
        with pytest.raises(TrainingError, match="step 0: overflow") as exc_info:
            fit(random_labels(rng, 64, 8), 4, 2, 4, quick_config(lr=1e160))
        assert exc_info.value.step == 0
        assert len(exc_info.value.trace) == 1

    @pytest.mark.parametrize("c, d_h, d_c, k", [(8, 4, 2, 8), (8, 8, 2, 4), (8, 4, 4, 4),
                                                (6, 4, 2, 4)], ids=["k", "d_h", "d_c", "c"])
    def test_init_model_of_another_shape_rejected(self, rng, c, d_h, d_c, k):
        init, _ = fit(random_labels(rng, 64, c), d_h, d_c, k, quick_config(max_steps=1))
        with pytest.raises(ModelValidationError, match="init_model shape"):
            fit(random_labels(rng, 64, 8), 4, 2, 4, quick_config(), init_model=init)

    @pytest.mark.parametrize("d_h, d_c, k", [(0, 2, 4), (4, 0, 4), (4, 2, 0), (-4, -2, 4)])
    def test_dimensions_below_one_rejected(self, rng, d_h, d_c, k):
        with pytest.raises(ModelValidationError, match="need d_h, d_c, k >= 1"):
            fit(random_labels(rng, 64, 8), d_h, d_c, k, quick_config())

    def test_k_beyond_the_widest_stored_code_rejected(self, rng):
        with pytest.raises(ModelValidationError, match=r"k <= 2\*\*32"):
            fit(random_labels(rng, 64, 8), 4, 2, MAX_K + 1, quick_config())

    @pytest.mark.parametrize("overrides", [dict(batch_size=0), dict(batch_size=-1),
                                           dict(max_steps=-1)])
    def test_config_rejects_empty_batch_and_negative_steps(self, overrides):
        with pytest.raises(ModelValidationError, match="batch_size >= 1 and max_steps >= 0"):
            quick_config(**overrides)

    # nan or inf alpha, beta or lr used to fail at step 0 as a numeric failure,
    # and a nan or negative init_scale inside numpy's uniform draw
    @pytest.mark.parametrize("name, value", [
        ("alpha", np.nan), ("alpha", np.inf), ("beta", np.nan), ("lr", np.inf),
        ("epsilon", np.inf), ("init_scale", np.nan), ("init_scale", np.inf), ("init_scale", -1.0)])
    def test_config_rejects_float_out_of_range(self, name, value):
        with pytest.raises(ModelValidationError, match=f"{name} must be finite"):
            quick_config(**{name: value})

    def test_config_allows_zero_where_it_may_be_zero(self):
        config = quick_config(alpha=0.0, beta=0.0, weight_decay=0.0, init_scale=0.0)
        assert (config.alpha, config.beta, config.weight_decay, config.init_scale) == (0, 0, 0, 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["encoder", "decoder", "codebook"])
    def test_non_finite_weight_never_returned(self, rng, monkeypatch, name, value):
        step = AdamW.step

        def poisoned(opt, grads):
            step(opt, grads)
            if opt.t == 1:
                opt.params[name].flat[0] = value

        monkeypatch.setattr(AdamW, "step", poisoned)
        with pytest.raises((TrainingError, ModelValidationError)):
            fit(random_labels(rng, 64, 8), 4, 2, 4, quick_config(max_steps=5))
