import numpy as np
import pytest

from slvq.labels import SoftLabelMatrix
from slvq.optim import AdamW
from slvq.vqae import (
    ModelValidationError,
    TrainConfig,
    TrainingError,
    VqaeModel,
    cache_loss_and_grads,
    fit,
)

from conftest import random_labels


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
        # 75,000 elements span two full blocks and part of a third
        shapes = {"w": (300, 250), "b": (3,)}
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
        assert all(u.sum() == 16 * 2 for u in trace.code_usage)  # batch * segments

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
