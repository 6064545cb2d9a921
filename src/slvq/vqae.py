"""Segmented vector-quantized linear autoencoder for soft labels.

A label row y (length c) is projected to a latent h = y P, split into
m = d_h / d_c segments, each segment snapped to its nearest codebook
vector, and the concatenated quantized latent is projected back with
y_hat = h_hat D. Reconstructions are clamped/renormalized onto the
simplex before use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .labels import SoftLabelMatrix

STRAIGHT_THROUGH = "straight_through"
LITERAL_STOP_GRADIENT = "literal_stop_gradient"
GRADIENT_MODES = (STRAIGHT_THROUGH, LITERAL_STOP_GRADIENT)


class ModelValidationError(ValueError):
    """Raised when codec parameters are structurally invalid."""


class TrainingError(RuntimeError):
    """Raised when training diverges; carries the trace collected so far."""

    def __init__(self, message, trace=None, step=None):
        super().__init__(message)
        self.trace = trace
        self.step = step


@dataclass(frozen=True)
class VqaeModel:
    """Linear encoder P (c x d_h), decoder D (d_h x c), codebook (k x d_c).
    A decode-side model (what ships with compressed labels) has encoder None."""

    encoder: np.ndarray | None
    decoder: np.ndarray
    codebook: np.ndarray

    def __post_init__(self):
        names = ("decoder", "codebook") if self.encoder is None else ("encoder", "decoder", "codebook")
        for name in names:
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            if arr.ndim != 2:
                raise ModelValidationError(f"{name} must be 2-D, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ModelValidationError(f"{name} contains non-finite entries")
        d_h, c = self.decoder.shape
        if self.encoder is not None and self.encoder.shape != (c, d_h):
            raise ModelValidationError(
                f"decoder shape {self.decoder.shape} does not match encoder {self.encoder.shape}")
        k, d_c = self.codebook.shape
        if k < 1 or d_c < 1:
            raise ModelValidationError(f"codebook must be at least 1 x 1, got {k} x {d_c}")
        if d_h % d_c != 0:
            raise ModelValidationError(f"d_h={d_h} not divisible by d_c={d_c}")

    @property
    def c(self) -> int:
        return self.decoder.shape[1]

    @property
    def d_h(self) -> int:
        return self.decoder.shape[0]

    @property
    def d_c(self) -> int:
        return self.codebook.shape[1]

    @property
    def k(self) -> int:
        return self.codebook.shape[0]

    @property
    def m(self) -> int:
        return self.d_h // self.d_c


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 1.0            # weight on the VQ (codebook + commitment) terms
    beta: float = 0.25            # commitment weight inside the VQ bracket
    lr: float = 1e-3
    weight_decay: float = 1e-2
    batch_size: int = 64
    max_steps: int = 2000
    seed: int = 0
    gradient_mode: str = STRAIGHT_THROUGH
    epsilon: float = 1e-8         # renormalization floor
    dead_code_reinit: bool = False
    init_scale: float = 1.0       # multiplier on the fan-in init bounds

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ModelValidationError("alpha and beta must be non-negative")
        if not (self.epsilon > 0):
            raise ModelValidationError("epsilon must be positive")
        if not (self.lr > 0):
            raise ModelValidationError("lr must be positive")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ModelValidationError(f"unknown gradient mode {self.gradient_mode!r}")


@dataclass
class TrainTrace:
    """Per-step loss curves plus codebook usage histograms."""

    loss_rec: list = field(default_factory=list)
    loss_vq: list = field(default_factory=list)
    loss_total: list = field(default_factory=list)
    code_usage: list = field(default_factory=list)

    def append(self, l_rec, l_vq, l_total, usage):
        self.loss_rec.append(float(l_rec))
        self.loss_vq.append(float(l_vq))
        self.loss_total.append(float(l_total))
        self.code_usage.append(usage)

    def __len__(self):
        return len(self.loss_total)


def _as_rows(y) -> np.ndarray:
    """Rows of a SoftLabelMatrix or of any 1-D / 2-D float array."""
    arr = y.data if isinstance(y, SoftLabelMatrix) else np.ascontiguousarray(y, dtype=np.float64)
    return arr.reshape(1, -1) if arr.ndim == 1 else arr


def _encoder(model: VqaeModel) -> np.ndarray:
    if model.encoder is None:
        raise ModelValidationError("a decode-side model has no encoder")
    return model.encoder


def encode(y, model: VqaeModel) -> np.ndarray:
    """Project label rows into the latent space: h = y P."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.shape[-1] != model.c:
        raise ModelValidationError(f"expected {model.c} classes, got {arr.shape[-1]}")
    return arr @ _encoder(model)


def quantize_latent(h, model: VqaeModel):
    """Snap each latent segment to its nearest code (ties -> lowest index).

    Returns (indices, h_hat); accepts a single latent or a batch.
    """
    arr = np.asarray(h, dtype=np.float64)
    single = arr.ndim == 1
    rows = _as_rows(arr)
    if rows.shape[1] != model.d_h:
        raise ModelValidationError(f"expected latent dim {model.d_h}, got {rows.shape[1]}")
    if not np.isfinite(rows).all():
        raise ModelValidationError("latent contains non-finite entries")
    n = rows.shape[0]
    segs = rows.reshape(n * model.m, model.d_c)
    # argmin_j ||s - mu_j||^2 == argmin_j (||mu_j||^2 - 2 s.mu_j); argmin
    # returns the first (lowest) index on ties
    half_norms = 0.5 * np.einsum("kd,kd->k", model.codebook, model.codebook)
    indices = np.empty(n * model.m, dtype=np.int64)
    # Blocks of at most 2**20 scores (8 MB) share one buffer. They are split
    # evenly, so no block is a few rows that BLAS would route to another
    # kernel, whose last bits can differ.
    total = segs.shape[0]
    blocks = max(1, -(-total * model.k // 2**20))
    scores_buf = np.empty((-(-total // blocks), model.k))
    for i in range(blocks):
        start, stop = total * i // blocks, total * (i + 1) // blocks
        scores = scores_buf[:stop - start]
        np.matmul(segs[start:stop], model.codebook.T, out=scores)
        np.subtract(half_norms, scores, out=scores)
        np.argmin(scores, axis=1, out=indices[start:stop])
    indices = indices.reshape(n, model.m)
    h_hat = model.codebook[indices].reshape(n, model.d_h)
    if single:
        return indices[0], h_hat[0]
    return indices, h_hat


def decode(h_hat, model: VqaeModel) -> np.ndarray:
    """Project quantized latents back to label space: y_hat = h_hat D."""
    arr = np.asarray(h_hat, dtype=np.float64)
    if arr.shape[-1] != model.d_h:
        raise ModelValidationError(f"expected latent dim {model.d_h}, got {arr.shape[-1]}")
    return arr @ model.decoder


def renormalize(y_hat, epsilon: float = 1e-8) -> np.ndarray:
    """Clamp entries to at least epsilon and rescale rows to sum to one."""
    if not (epsilon > 0):
        raise ModelValidationError("epsilon must be positive")
    clamped = np.maximum(np.asarray(y_hat, dtype=np.float64), epsilon)
    return clamped / clamped.sum(axis=-1, keepdims=True)


def cache_loss_and_grads(batch, model: VqaeModel, config: TrainConfig):
    """Caching loss (VQ + commitment + reconstruction) and its analytic grads.

    Per row: L = alpha * sum_i(||sg[h_i] - mu_q||^2 + beta ||h_i - sg[mu_q]||^2)
                 + ||y_hat - y||^2, averaged over the batch.
    Stop-gradients: the codebook term only moves the codebook; the commitment
    term only moves the encoder; reconstruction always moves the decoder and
    moves the encoder only in straight-through mode.

    Returns (losses, grads) where losses has keys total/vq/rec and grads has
    keys encoder/decoder/codebook.
    """
    losses, grads, _ = _cache_loss_grads_aux(batch, model, config)
    return losses, grads


def _cache_loss_grads_aux(batch, model: VqaeModel, config: TrainConfig):
    Y = _as_rows(batch)
    if Y.shape[0] == 0:
        raise ModelValidationError("batch must be nonempty")
    if Y.shape[1] != model.c:
        raise ModelValidationError(f"expected {model.c} classes, got {Y.shape[1]}")
    n = Y.shape[0]
    H = Y @ _encoder(model)
    indices, H_hat = quantize_latent(H, model)
    Y_hat = H_hat @ model.decoder

    R = Y_hat - Y
    l_rec = float(np.einsum("nc,nc->", R, R)) / n
    Dh = H - H_hat
    seg_sq = float(np.einsum("nd,nd->", Dh, Dh)) / n   # sum over segments, batch mean
    l_vq = (1.0 + config.beta) * seg_sq
    l_total = config.alpha * l_vq + l_rec
    if not np.isfinite(l_total):
        raise TrainingError(f"non-finite loss {l_total!r}")

    # decoder: only the reconstruction term
    g_dec = 2.0 * (H_hat.T @ R) / n

    # codebook: alpha * ||sg[h] - mu||^2 -> 2 alpha (mu - h) per assigned segment
    g_cb = np.zeros_like(model.codebook)
    segs_diff = (-2.0 * config.alpha / n) * Dh.reshape(n, model.m, model.d_c)
    np.add.at(g_cb, indices.reshape(-1), segs_diff.reshape(-1, model.d_c))

    # encoder: commitment term always; reconstruction only straight-through
    G_h = (2.0 * config.alpha * config.beta) * Dh
    if config.gradient_mode == STRAIGHT_THROUGH:
        G_h = G_h + 2.0 * (R @ model.decoder.T)
    g_enc = (Y.T @ G_h) / n

    losses = {"total": l_total, "vq": l_vq, "rec": l_rec}
    grads = {"encoder": g_enc, "decoder": g_dec, "codebook": g_cb}
    return losses, grads, indices


def _init_model(Y: np.ndarray, d_h: int, d_c: int, k: int, rng: np.random.Generator,
                scale: float = 1.0) -> VqaeModel:
    """Fan-in uniform init for P and D; codebook sampled from encoder outputs."""
    c = Y.shape[1]
    if d_h % d_c != 0:
        raise ModelValidationError(f"d_h={d_h} not divisible by d_c={d_c}")
    P = rng.uniform(-scale, scale, size=(c, d_h)) / np.sqrt(c)
    D = rng.uniform(-scale, scale, size=(d_h, c)) / np.sqrt(d_h)
    # _sample_segments((Y @ P).reshape(-1, d_c), k, rng, jitter=1e-4), with the
    # same draws, but multiplying only the rows the k picks come from
    n, m = Y.shape[0], d_h // d_c
    picks = rng.choice(n * m, size=k, replace=n * m < k)
    rows, segs = np.divmod(picks, m)
    unique, inverse = np.unique(rows, return_inverse=True)
    # numpy sends a one-row product to gemv, whose last bit can differ from
    # the GEMM over all of Y, so a lone row goes in twice
    take = np.append(unique, unique) if unique.size == 1 < n else unique
    sample = (Y[take] @ P).reshape(take.size, m, d_c)[inverse, segs]
    # tiny jitter so duplicate source rows cannot produce identical codes
    return VqaeModel(P, D, sample + 1e-4 * rng.standard_normal(sample.shape))


def _sample_segments(segs, count: int, rng: np.random.Generator, jitter: float = 0.0):
    """``count`` rows of ``segs`` (with replacement only if too few), plus jitter * N(0, 1)."""
    picks = rng.choice(segs.shape[0], size=count, replace=segs.shape[0] < count)
    sample = segs[picks]
    return sample + jitter * rng.standard_normal(sample.shape) if jitter else sample


def fit(labels: SoftLabelMatrix | np.ndarray, d_h: int, d_c: int, k: int,
        config: TrainConfig = TrainConfig(), *, trainable=("encoder", "decoder", "codebook"),
        init_model: VqaeModel | None = None):
    """Train the codec on cached soft labels with decoupled-weight-decay Adam.

    Deterministic given the seed. Returns (model, trace); aborts with a
    TrainingError carrying the trace if the loss goes non-finite.
    """
    from .optim import AdamW

    Y = _as_rows(labels)
    if Y.shape[0] < config.batch_size:
        raise ModelValidationError(
            f"need n >= batch_size, got n={Y.shape[0]}, batch_size={config.batch_size}")
    rng = np.random.default_rng(config.seed)
    model = _init_model(Y, d_h, d_c, k, rng, config.init_scale) if init_model is None else init_model
    params = {
        "encoder": _encoder(model).copy(),
        "decoder": model.decoder.copy(),
        "codebook": model.codebook.copy(),
    }
    opt = AdamW({name: params[name] for name in trainable},
                lr=config.lr, weight_decay=config.weight_decay)
    trace = TrainTrace()

    n = Y.shape[0]
    order = np.array([], dtype=np.intp)
    epoch_usage = np.zeros(k, dtype=np.int64)
    for step in range(config.max_steps):
        if order.size < config.batch_size:
            if config.dead_code_reinit and step > 0:
                _reinit_dead_codes(params, Y, epoch_usage, rng)
            order = rng.permutation(n)
            epoch_usage[:] = 0
        batch_idx, order = order[:config.batch_size], order[config.batch_size:]
        current = VqaeModel(params["encoder"], params["decoder"], params["codebook"])
        try:
            losses, grads, batch_indices = _cache_loss_grads_aux(Y[batch_idx], current, config)
        except TrainingError as err:
            raise TrainingError(str(err), trace=trace, step=step) from None
        usage = np.bincount(batch_indices.reshape(-1), minlength=k)
        epoch_usage += usage
        trace.append(losses["rec"], losses["vq"], losses["total"], usage)
        opt.step({name: grads[name] for name in trainable})

    return VqaeModel(params["encoder"], params["decoder"], params["codebook"]), trace


def _reinit_dead_codes(params, Y, epoch_usage, rng):
    dead = np.flatnonzero(epoch_usage == 0)
    if dead.size == 0:
        return
    d_c = params["codebook"].shape[1]
    params["codebook"][dead] = _sample_segments((Y @ params["encoder"]).reshape(-1, d_c),
                                                dead.size, rng)


def refit_decoder(labels: SoftLabelMatrix, model: VqaeModel) -> VqaeModel:
    """Replace the decoder with the exact least-squares solution.

    With the encoder and codebook frozen, the reconstruction loss is an
    ordinary least-squares problem in D; solving it directly removes any
    residual decoder suboptimality left by stochastic training.
    """
    if labels.c != model.c:
        raise ModelValidationError(f"label c={labels.c} does not match model c={model.c}")
    _, H_hat = quantize_latent(encode(labels.data, model), model)
    D_star, *_ = np.linalg.lstsq(H_hat, labels.data, rcond=None)
    return VqaeModel(model.encoder, D_star, model.codebook)


def compress(labels: SoftLabelMatrix | np.ndarray, model: VqaeModel) -> np.ndarray:
    """Quantize every label row; returns the n x m integer code-index matrix."""
    Y = _as_rows(labels)
    if Y.ndim != 2 or Y.shape[1] != model.c:
        raise ModelValidationError(f"expected n x {model.c} rows, got shape {Y.shape}")
    indices, _ = quantize_latent(encode(Y, model), model)
    return indices.astype(np.int64)


def _decode_codes(indices, model: VqaeModel) -> np.ndarray:
    """The one decode path for VQ codes: check, look up, decode (no renormalize)."""
    indices = np.asarray(indices)
    if indices.ndim != 2 or indices.shape[1] != model.m:
        raise ModelValidationError(f"index matrix must be n x {model.m}, got {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= model.k):
        raise ModelValidationError(f"code index out of range [0, {model.k})")
    return decode(model.codebook[indices].reshape(indices.shape[0], model.d_h), model)


def decompress(indices: np.ndarray, model: VqaeModel, epsilon: float = 1e-8) -> SoftLabelMatrix:
    """Reconstruct soft labels from code indices: lookup, decode, renormalize."""
    return SoftLabelMatrix(renormalize(_decode_codes(indices, model), epsilon))


# ---------------------------------------------------------------------------
# Top-k-then-VQ composition: keep the k_top largest probabilities per row,
# fit the VQAE on the rank-sorted value vectors, and store VQ indices plus
# the kept class indices.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopkVqModel:
    k_top: int
    num_classes: int
    vqae: VqaeModel
    epsilon: float = 1e-8


def topk_select(data: np.ndarray, k_top: int):
    """Per-row top-k values (rank order) and class indices, ties -> lowest class."""
    c = data.shape[1]
    if k_top > c:
        raise ModelValidationError(f"k_top={k_top} exceeds c={c}")
    # stable sort on -value keeps the lower class index first on ties
    order = np.argsort(-data, axis=1, kind="stable")[:, :k_top]
    values = np.take_along_axis(data, order, axis=1)
    return values, order


def topk_scatter(values, class_indices, num_classes: int) -> np.ndarray:
    """Inverse of topk_select: values at their class indices in zero rows of num_classes."""
    values, class_indices = np.asarray(values, dtype=np.float64), np.asarray(class_indices)
    if class_indices.shape != values.shape:
        raise ModelValidationError(
            f"class index shape {class_indices.shape} does not match values {values.shape}")
    if class_indices.size and (class_indices.min() < 0 or class_indices.max() >= num_classes):
        raise ModelValidationError(f"class index out of range [0, {num_classes})")
    full = np.zeros((values.shape[0], num_classes), dtype=np.float64)
    np.put_along_axis(full, class_indices, values, axis=1)
    return full


def topk_then_vq_fit(labels: SoftLabelMatrix, k_top: int, d_h: int, d_c: int, k: int,
                     config: TrainConfig = TrainConfig()):
    """Fit the composed codec on the k_top-dimensional top-value vectors."""
    values, _ = topk_select(labels.data, k_top)
    fitted, trace = fit(values, d_h, d_c, k, config)
    return TopkVqModel(k_top, labels.c, fitted, config.epsilon), trace


def topk_then_vq_compress(labels: SoftLabelMatrix, model: TopkVqModel):
    """Returns (vq_indices n x m, class_indices n x k_top)."""
    values, classes = topk_select(labels.data, model.k_top)
    return compress(values, model.vqae), classes.astype(np.int64)


def topk_then_vq_decompress(vq_indices, class_indices, model: TopkVqModel) -> SoftLabelMatrix:
    """Decode values, scatter them back to their classes, renormalize."""
    values = _decode_codes(vq_indices, model.vqae)
    return SoftLabelMatrix(renormalize(topk_scatter(values, class_indices, model.num_classes),
                                       model.epsilon))
