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

from .labels import _CODEC_BLOCK_ELEMENTS, SoftLabelMatrix, _finite_positive, _is_count, _row_blocks
from .optim import AdamW

STRAIGHT_THROUGH = "straight_through"
LITERAL_STOP_GRADIENT = "literal_stop_gradient"
GRADIENT_MODES = (STRAIGHT_THROUGH, LITERAL_STOP_GRADIENT)
RENORM_FLOOR = 1e-8   # the default epsilon every decoded label entry is clamped to
# TrainConfig's float fields, each must be finite: name -> whether it may be 0
_FLOAT_FIELDS = {"alpha": True, "beta": True, "weight_decay": True, "init_scale": True,
                 "lr": False, "epsilon": False}


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
        if not (_is_count(k) and _is_count(d_c)):
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
    epsilon: float = RENORM_FLOOR
    dead_code_reinit: bool = False
    init_scale: float = 1.0       # multiplier on the fan-in init bounds

    def __post_init__(self):
        for name, zero_ok in _FLOAT_FIELDS.items():
            if not _finite_positive(value := getattr(self, name), zero_ok):
                raise ModelValidationError(f"{name} must be finite and "
                                           f"{'non-negative' if zero_ok else 'positive'}, got {value}")
        if not (_is_count(self.batch_size) and _is_count(self.max_steps, 0) and _is_count(self.seed, 0)):
            raise ModelValidationError(f"need batch_size >= 1 and max_steps >= 0 and seed >= 0, got "
                                       f"{self.batch_size}, {self.max_steps} and {self.seed}")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ModelValidationError(f"unknown gradient mode {self.gradient_mode!r}")


@dataclass
class TrainTrace:
    """Per-step loss curves and one k-length code usage histogram per epoch."""

    loss_rec: list = field(default_factory=list)
    loss_vq: list = field(default_factory=list)
    loss_total: list = field(default_factory=list)
    code_usage: list = field(default_factory=list)

    def append(self, l_rec, l_vq, l_total):
        self.loss_rec.append(float(l_rec))
        self.loss_vq.append(float(l_vq))
        self.loss_total.append(float(l_total))

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
    indices = _nearest_codes(_as_rows(arr), model)
    h_hat = _code_rows(indices, model)
    if arr.ndim == 1:
        return indices[0], h_hat[0]
    return indices, h_hat


def _nearest_codes(rows: np.ndarray, model: VqaeModel) -> np.ndarray:
    """The n x m code indices of n latent rows (ties -> lowest index).

    argmin_j ||s - mu_j||^2 == argmin_j (0.5 ||mu_j||^2 - s.mu_j), and one GEMM
    gives the bracket: each segment, padded with a 1, times a (d_c+1) x k table
    of -mu_j over 0.5 ||mu_j||^2. BLAS writes each score block once and argmin
    reads it once. The product runs the FMA chain of s.mu_j negated (exact)
    and adds 0.5 ||mu_j||^2 in one rounding, so each score is the double
    ``half_norm_j - s.mu_j``. On OpenBLAS the last bit can differ where the
    product splits K into panels (d_c >= 384), goes to gemv (one segment) or
    to the small-matrix kernel (a few segments against a small codebook at
    d_c >= 40); only a near-tie can then change an index.
    """
    if rows.shape[1] != model.d_h:
        raise ModelValidationError(f"expected latent dim {model.d_h}, got {rows.shape[1]}")
    if not np.isfinite(rows).all():
        raise ModelValidationError("latent contains non-finite entries")
    n, d_c, k = rows.shape[0], model.d_c, model.k
    segs = rows.reshape(n * model.m, d_c)
    # built as its k x (d_c+1) transpose, so BLAS sees codebook.T's layout
    table_t = np.empty((k, d_c + 1))
    np.negative(model.codebook, out=table_t[:, :d_c])
    table_t[:, d_c] = 0.5 * np.einsum("kd,kd->k", model.codebook, model.codebook)
    indices = np.empty(n * model.m, dtype=np.int64)
    # the scores and the padded segments share one buffer of one block budget,
    # the scores BLAS writes at its aligned start
    blocks = _row_blocks(segs.shape[0], k + d_c + 1, _CODEC_BLOCK_ELEMENTS)
    block_rows = blocks[-1].stop - blocks[-1].start
    buf = np.empty(block_rows * (k + d_c + 1))
    scores_buf = buf[:block_rows * k].reshape(block_rows, k)
    padded_buf = buf[block_rows * k:].reshape(block_rows, d_c + 1)
    padded_buf[:, d_c] = 1.0
    for s in blocks:
        rows_s = s.stop - s.start
        padded, scores = padded_buf[:rows_s], scores_buf[:rows_s]
        padded[:, :d_c] = segs[s]
        np.matmul(padded, table_t.T, out=scores)
        np.argmin(scores, axis=1, out=indices[s])
    return indices.reshape(n, model.m)


def _check_codes(indices, model: VqaeModel) -> np.ndarray:
    """``indices`` as an array, checked to be an n x m matrix (n >= 1) of codes in [0, k)."""
    indices = np.asarray(indices)
    if indices.ndim != 2 or indices.shape[1] != model.m or not indices.shape[0]:
        raise ModelValidationError(f"index matrix must be n x {model.m} with n >= 1, got {indices.shape}")
    if indices.min() < 0 or indices.max() >= model.k:
        raise ModelValidationError(f"code index out of range [0, {model.k})")
    return indices


def _code_rows(indices: np.ndarray, model: VqaeModel, out: np.ndarray | None = None) -> np.ndarray:
    """The n x d_h latents of n x m in-range codes, gathered into ``out`` (n x m x d_c) if given."""
    return np.take(model.codebook, indices, axis=0, out=out, mode="clip").reshape(-1, model.d_h)


def decode(h_hat, model: VqaeModel, out: np.ndarray | None = None) -> np.ndarray:
    """Project quantized latents back to label space: y_hat = h_hat D (into ``out`` if given)."""
    arr = np.asarray(h_hat, dtype=np.float64)
    if arr.shape[-1] != model.d_h:
        raise ModelValidationError(f"expected latent dim {model.d_h}, got {arr.shape[-1]}")
    return np.matmul(arr, model.decoder, out=out)


def renormalize(y_hat, epsilon: float = RENORM_FLOOR, out: np.ndarray | None = None) -> np.ndarray:
    """Clamp entries to at least epsilon and rescale rows to sum to one.

    Works in ``out``, which may be ``y_hat``, or else a new float64 buffer.
    """
    if not _finite_positive(epsilon):
        raise ModelValidationError(f"epsilon must be finite and positive, got {epsilon}")
    out = np.maximum(y_hat, epsilon, out=out, dtype=np.float64)
    out /= out.sum(axis=-1, keepdims=True)
    return out


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
    n = Y.shape[0]
    H = encode(Y, model)
    indices, H_hat = quantize_latent(H, model)
    Y_hat = decode(H_hat, model)

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
    # (one weighted bincount over flat codebook cells sums each cell in
    # segment order, as np.add.at does)
    segs_diff = (-2.0 * config.alpha / n) * Dh
    cells = (indices.reshape(-1, 1) * model.d_c + np.arange(model.d_c)).reshape(-1)
    g_cb = np.bincount(cells, weights=segs_diff.reshape(-1),
                       minlength=model.codebook.size).reshape(model.codebook.shape)

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
    P = rng.uniform(-scale, scale, size=(c, d_h)) / np.sqrt(c)
    D = rng.uniform(-scale, scale, size=(d_h, c)) / np.sqrt(d_h)
    sample = _sample_latent_segments(Y, P, d_c, k, rng)
    # tiny jitter so duplicate source rows cannot produce identical codes
    return VqaeModel(P, D, sample + 1e-4 * rng.standard_normal(sample.shape))


def _sample_latent_segments(Y: np.ndarray, P: np.ndarray, d_c: int, count: int,
                            rng: np.random.Generator) -> np.ndarray:
    """``_sample_segments((Y @ P).reshape(-1, d_c), count, rng)``, with the same
    draws, but multiplying only the rows of Y the picks come from."""
    n, m = Y.shape[0], P.shape[1] // d_c
    picks = rng.choice(n * m, size=count, replace=n * m < count)
    rows, segs = np.divmod(picks, m)
    unique, inverse = np.unique(rows, return_inverse=True)
    # numpy sends a one-row product to gemv, whose last bit can differ from
    # the GEMM over all of Y, so a lone row goes in twice
    take = np.append(unique, unique) if unique.size == 1 < n else unique
    return (Y[take] @ P).reshape(take.size, m, d_c)[inverse, segs]


def _sample_segments(segs, count: int, rng: np.random.Generator, jitter: float = 0.0):
    """``count`` rows of ``segs`` (with replacement only if too few), plus jitter * N(0, 1)."""
    picks = rng.choice(segs.shape[0], size=count, replace=segs.shape[0] < count)
    sample = segs[picks]
    return sample + jitter * rng.standard_normal(sample.shape) if jitter else sample


def fit(labels: SoftLabelMatrix | np.ndarray, d_h: int, d_c: int, k: int,
        config: TrainConfig = TrainConfig(), *, trainable=("encoder", "decoder", "codebook"),
        init_model: VqaeModel | None = None):
    """Train the codec on cached soft labels with decoupled-weight-decay Adam.

    Checks its arguments once, then updates one model's arrays in place.
    Deterministic given the seed. Returns (model, trace); aborts with a
    TrainingError carrying the trace if the loss or an update goes non-finite.
    """
    Y = _as_rows(labels)
    if not all(map(_is_count, (d_h, d_c, k))) or d_h % d_c != 0:
        raise ModelValidationError(
            f"need d_h, d_c, k >= 1 with d_c dividing d_h, got d_h={d_h}, d_c={d_c}, k={k}")
    if Y.shape[0] < config.batch_size:
        raise ModelValidationError(
            f"need n >= batch_size, got n={Y.shape[0]}, batch_size={config.batch_size}")
    dims = (Y.shape[1], d_h, d_c, k)
    if init_model is not None and (init_model.c, init_model.d_h, init_model.d_c, init_model.k) != dims:
        raise ModelValidationError(f"init_model shape (c, d_h, d_c, k) = ({init_model.c}, "
                                   f"{init_model.d_h}, {init_model.d_c}, {init_model.k}), "
                                   f"expected {dims}")
    rng = np.random.default_rng(config.seed)
    init = _init_model(Y, d_h, d_c, k, rng, config.init_scale) if init_model is None else init_model
    params = {"encoder": _encoder(init).copy(), "decoder": init.decoder.copy(),
              "codebook": init.codebook.copy()}
    model = VqaeModel(**params)   # keeps the arrays, so it sees every in-place update
    opt = AdamW({name: params[name] for name in trainable},
                lr=config.lr, weight_decay=config.weight_decay)
    trace = TrainTrace()

    n = Y.shape[0]
    order = np.array([], dtype=np.intp)
    for step in range(config.max_steps):
        if order.size < config.batch_size:
            if config.dead_code_reinit and step > 0:
                _reinit_dead_codes(params, Y, trace.code_usage[-1], rng)
            order = rng.permutation(n)
            trace.code_usage.append(np.zeros(k, dtype=np.int64))
        batch_idx, order = order[:config.batch_size], order[config.batch_size:]
        # a weight can only leave the finite range in the update, and a finite
        # but huge one overflows the next step's products: both are divergence
        try:
            with np.errstate(over="raise", invalid="raise"):
                losses, grads, batch_indices = _cache_loss_grads_aux(Y[batch_idx], model, config)
                trace.code_usage[-1] += np.bincount(batch_indices.reshape(-1), minlength=k)
                trace.append(losses["rec"], losses["vq"], losses["total"])
                opt.step(grads)   # AdamW reads only the gradients of what it trains
        except (TrainingError, FloatingPointError) as err:
            raise TrainingError(f"step {step}: {err}", trace=trace, step=step) from None

    return VqaeModel(**params), trace


def _reinit_dead_codes(params, Y, epoch_usage, rng):
    dead = np.flatnonzero(epoch_usage == 0)
    if dead.size == 0:
        return
    params["codebook"][dead] = _sample_latent_segments(Y, params["encoder"],
                                                       params["codebook"].shape[1], dead.size, rng)


def refit_decoder(labels: SoftLabelMatrix, model: VqaeModel) -> VqaeModel:
    """Replace the decoder with the exact least-squares solution.

    With the encoder and codebook frozen, the reconstruction loss is an
    ordinary least-squares problem in D; solving it directly removes any
    residual decoder suboptimality left by stochastic training.
    """
    H_hat = _code_rows(compress(labels, model), model)
    D_star, *_ = np.linalg.lstsq(H_hat, labels.data, rcond=None)
    return VqaeModel(model.encoder, D_star, model.codebook)


def compress(labels: SoftLabelMatrix | np.ndarray, model: VqaeModel) -> np.ndarray:
    """Quantize every label row, a row block at a time; returns the n x m indices."""
    Y = _as_rows(labels)
    if Y.ndim != 2 or Y.shape[1] != model.c:
        raise ModelValidationError(f"expected n x {model.c} rows, got shape {Y.shape}")
    indices = np.empty((Y.shape[0], model.m), dtype=np.int64)
    for s in _row_blocks(Y.shape[0], model.d_h, _CODEC_BLOCK_ELEMENTS):
        indices[s] = _nearest_codes(encode(Y[s], model), model)
    return indices


def _decode_codes(indices, model: VqaeModel) -> np.ndarray:
    """The one decode path for VQ codes: check, look up, decode (no renormalize)."""
    indices = _check_codes(indices, model)
    blocks = _row_blocks(indices.shape[0], model.d_h, _CODEC_BLOCK_ELEMENTS)
    # One gather buffer serves every block. It is made before the output: made
    # after it, a loop that kept every output page-faulted a fresh buffer per call.
    h_hat = np.empty((blocks[-1].stop - blocks[-1].start, model.m, model.d_c))
    out = np.empty((indices.shape[0], model.c))
    for s in blocks:
        decode(_code_rows(indices[s], model, out=h_hat[:s.stop - s.start]), model, out=out[s])
    return out


def decompress(indices: np.ndarray, model: VqaeModel, epsilon: float = RENORM_FLOOR) -> SoftLabelMatrix:
    """Reconstruct soft labels from code indices: lookup, decode, renormalize in place."""
    decoded = _decode_codes(indices, model)
    return SoftLabelMatrix(renormalize(decoded, epsilon, out=decoded))


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
    epsilon: float = RENORM_FLOOR


def topk_select(data: np.ndarray, k_top: int):
    """Per-row top-k values (rank order) and class indices, ties -> lowest class."""
    c = data.shape[1]
    if not (_is_count(k_top) and k_top <= c):
        raise ModelValidationError(f"k_top must be an integer in 1..{c}, got {k_top}")
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
