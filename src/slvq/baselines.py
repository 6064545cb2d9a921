"""Comparison codecs: top-k truncation, scalar quantization, PCA, and
segment-VQ without the encoder/decoder projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labels import SoftLabelMatrix, _is_count
from .vqae import (
    RENORM_FLOOR,
    ModelValidationError,
    TrainConfig,
    VqaeModel,
    _sample_segments,
    fit,
    renormalize,
    topk_scatter,
    topk_select,
)


# ---------------------------------------------------------------------------
# Top-k: keep the largest k_top probabilities and their class indices.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopkArchive:
    values: np.ndarray        # n x k_top kept probabilities, rank order
    class_indices: np.ndarray  # n x k_top class ids
    num_classes: int


def topk_compress(labels: SoftLabelMatrix, k_top: int) -> TopkArchive:
    values, classes = topk_select(labels.data, k_top)
    return TopkArchive(values, classes.astype(np.int64), labels.c)


def topk_decompress(archive: TopkArchive, epsilon: float = RENORM_FLOOR) -> SoftLabelMatrix:
    full = topk_scatter(archive.values, archive.class_indices, archive.num_classes)
    return SoftLabelMatrix(renormalize(full, epsilon, out=full))


# ---------------------------------------------------------------------------
# Scalar quantization: 2^bits learned levels over all probability entries,
# fit with Lloyd-Max (1-D k-means, k-means++ seeding).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarQuantCodec:
    levels: np.ndarray   # strictly increasing

    def __post_init__(self):
        levels = np.ascontiguousarray(self.levels, dtype=np.float64)
        object.__setattr__(self, "levels", levels)
        if levels.ndim != 1 or not _is_count(levels.size):
            raise ModelValidationError("levels must be a nonempty 1-D array")
        if np.any(np.diff(levels) <= 0):
            raise ModelValidationError("levels must be strictly increasing")


def _kmeanspp_1d(values, counts, k, rng):
    """k-means++ seeds; d2 keeps each value's squared distance to its nearest
    center so far, updated in place with each new center."""
    centers = np.empty(k)
    centers[0] = values[rng.choice(values.size, p=counts / counts.sum())]
    d2 = np.full(values.size, np.inf)
    for i in range(1, k):
        np.minimum(d2, (values - centers[i - 1]) ** 2, out=d2)
        w = d2 * counts
        if w.sum() == 0:
            centers[i] = values[rng.choice(values.size)]
        else:
            centers[i] = values[rng.choice(values.size, p=w / w.sum())]
    return centers


def scalar_quant_fit(labels: SoftLabelMatrix, bits: int, seed: int = 0,
                     iterations: int = 100) -> ScalarQuantCodec:
    """Learn 2^bits quantization levels over all probability entries."""
    if not (_is_count(bits) and bits <= 8):
        raise ModelValidationError(f"bits must be in 1..8, got {bits}")
    k = 2 ** bits
    flat = labels.data.reshape(-1)
    values, counts = np.unique(flat, return_counts=True)
    centers = values   # degenerate data: every distinct value gets its own level
    if values.size > k:
        rng = np.random.default_rng(seed)
        centers = np.sort(_kmeanspp_1d(values, counts.astype(np.float64), k, rng))
        for _ in range(iterations):
            # nearest center per unique value (centers sorted: midpoint thresholds)
            edges = (centers[1:] + centers[:-1]) / 2
            assign = np.searchsorted(edges, values)
            sums = np.bincount(assign, weights=values * counts, minlength=k)
            totals = np.bincount(assign, weights=counts, minlength=k)
            new = np.where(totals > 0, sums / np.maximum(totals, 1), centers)
            new = np.sort(new)
            if np.allclose(new, centers, rtol=0, atol=1e-15):
                centers = new
                break
            centers = new
        centers = np.unique(centers)
    # pad the remainder above the max to keep the level list strictly increasing
    pad = centers[-1] + np.arange(1, k - centers.size + 1)
    return ScalarQuantCodec(np.concatenate([centers, pad]))


def scalar_quant_apply(codec: ScalarQuantCodec, labels: SoftLabelMatrix) -> np.ndarray:
    """Map each entry to the index of its nearest level."""
    edges = (codec.levels[1:] + codec.levels[:-1]) / 2
    return np.searchsorted(edges, labels.data).astype(np.int64)


def scalar_quant_invert(codec: ScalarQuantCodec, indices: np.ndarray,
                        epsilon: float = RENORM_FLOOR) -> SoftLabelMatrix:
    """Look levels back up and renormalize each row onto the simplex."""
    return SoftLabelMatrix(renormalize(levels := codec.levels[indices], epsilon, out=levels))


# ---------------------------------------------------------------------------
# PCA: store k_pc projections per row plus the shared mean and components.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaCodec:
    components: np.ndarray   # k_pc x c, orthonormal rows
    mean: np.ndarray         # c

    def __post_init__(self):
        comps = np.ascontiguousarray(self.components, dtype=np.float64)
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "mean", mean)
        gram = comps @ comps.T
        if not np.allclose(gram, np.eye(comps.shape[0]), atol=1e-8):
            raise ModelValidationError("components must be orthonormal")

    @property
    def k_pc(self) -> int:
        return self.components.shape[0]


def pca_fit(labels: SoftLabelMatrix, k_pc: int) -> PcaCodec:
    if not (_is_count(k_pc) and k_pc <= min(labels.n, labels.c)):
        raise ModelValidationError(f"k_pc must be an integer in 1..{min(labels.n, labels.c)}, got {k_pc}")
    mean = labels.data.mean(axis=0)
    _, _, vt = np.linalg.svd(labels.data - mean, full_matrices=False)
    return PcaCodec(vt[:k_pc], mean)


def pca_compress(labels: SoftLabelMatrix, codec: PcaCodec) -> np.ndarray:
    return (labels.data - codec.mean) @ codec.components.T


def pca_decompress(projections: np.ndarray, codec: PcaCodec,
                   epsilon: float = RENORM_FLOOR) -> SoftLabelMatrix:
    recon = np.asarray(projections) @ codec.components
    recon += codec.mean
    return SoftLabelMatrix(renormalize(recon, epsilon, out=recon))


def pca_reconstruct_raw(labels: SoftLabelMatrix, codec: PcaCodec) -> np.ndarray:
    """Reconstruction before renormalization, for error comparisons."""
    return codec.mean + pca_compress(labels, codec) @ codec.components


# ---------------------------------------------------------------------------
# "Ours w/o AE": quantize raw probability segments directly, with the
# projections pinned to identity and only the codebook trained.
# ---------------------------------------------------------------------------

def vq_no_ae_fit(labels: SoftLabelMatrix, d_c: int, k: int,
                 config: TrainConfig = TrainConfig()):
    """Segment the raw probability vectors and learn a codebook over blocks."""
    c = labels.c
    if not (_is_count(d_c) and _is_count(k)) or c % d_c != 0:
        raise ModelValidationError(f"need integers k >= 1 and d_c >= 1 dividing c={c}, got k={k}, d_c={d_c}")
    rng = np.random.default_rng(config.seed)
    codebook = _sample_segments(labels.data.reshape(-1, d_c), k, rng, jitter=1e-4)
    identity = np.eye(c)
    init = VqaeModel(identity, identity, codebook)
    return fit(labels, c, d_c, k, config, trainable=("codebook",), init_model=init)
