"""Storage accounting for raw and compressed soft labels.

All byte counts follow the half-precision-label / single-precision-parameter
convention, with the widths and the index width the writers (``labels``,
``archive``) store. A report's total is the sum of its breakdown. GB and MB
are 1024-based throughout (1 GB = 1024^3 bytes).

``vq_bytes`` prices what a SLAR archive stores (less its row padding and
framing). ``topk_bytes``, ``pca_bytes`` and ``quant_bytes`` are formula
prices for the paper's tables, not file sizes: the baselines have no
archive form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .archive import _PARAM_DTYPE, _index_bits
from .labels import _PRECISION_DTYPES, _finite_positive, _is_count
from .vqae import MAX_K

GIB = 1024 ** 3
HALF_LABEL_BYTES = _PRECISION_DTYPES["half"].itemsize   # one half label scalar, as SLAB stores it
F32_PARAM_BYTES = _PARAM_DTYPE.itemsize                  # one codec parameter, as SLAR stores it


class BudgetError(ValueError):
    """Raised for degenerate or infeasible accounting inputs."""


@dataclass(frozen=True)
class BudgetSpec:
    """Inputs to the storage formulas.

    n = ipc * num_classes labels per view; each of the ``epochs`` epochs
    consumes ``aug_per_epoch`` augmentation views (default one view per
    epoch, so total label rows = n * epochs).
    """

    ipc: int
    num_classes: int
    epochs: int
    aug_per_epoch: int = 1
    d_h: int | None = None
    d_c: int | None = None
    k: int | None = None

    def __post_init__(self):
        required = ("ipc", "num_classes", "epochs", "aug_per_epoch")
        for name in (*required, "d_h", "d_c", "k"):
            v = getattr(self, name)
            if v is None and name not in required:   # the VQ dims are optional
                continue
            if not _is_count(v):
                raise BudgetError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))   # exact byte arithmetic for numpy ints too
        if self.k is not None and self.k > MAX_K:
            raise BudgetError(f"k must be at most 2**32, the most codes an archive stores, got {self.k}")

    @property
    def n(self) -> int:
        return self.ipc * self.num_classes

    @property
    def label_rows(self) -> int:
        return self.n * self.epochs * self.aug_per_epoch

    def require_vq(self) -> None:
        if self.d_h is None or self.d_c is None or self.k is None:
            raise BudgetError("d_h, d_c, and k are required for VQ accounting")
        if self.d_h % self.d_c != 0:
            raise BudgetError(f"d_h={self.d_h} not divisible by d_c={self.d_c}")


@dataclass(frozen=True)
class StorageReport:
    raw_bytes: float
    breakdown: dict = field(default_factory=dict)
    exact: bool = True

    @property
    def compressed_bytes(self) -> float:
        return sum(self.breakdown.values())

    @property
    def ratio(self) -> float:
        return self.raw_bytes / self.compressed_bytes

    def as_dict(self) -> dict:
        return {
            "raw_bytes": self.raw_bytes,
            "raw_gb": round(self.raw_bytes / GIB, 3),
            "compressed_bytes": self.compressed_bytes,
            "compressed_gb": round(self.compressed_bytes / GIB, 3),
            "ratio": self.ratio,
            "breakdown": dict(self.breakdown),
            "exact": self.exact,
        }


def bits_per_index(k: int) -> int:
    """ceil(log2 k); byte-exact accounting needs k to be a power of two."""
    if not _is_count(k, 2):
        raise BudgetError(f"need an integer k >= 2 for indexing, got k={k}")
    return _index_bits(k)


def _bytes_of_bits(bits: int) -> float:
    return bits / 8 if bits % 8 else bits // 8   # an int when whole


def is_power_of_two(k: int) -> bool:
    return _is_count(k) and (k & (k - 1)) == 0


def raw_label_bytes(spec: BudgetSpec) -> int:
    """Uncompressed cost: one c-vector of label scalars per row per epoch."""
    return spec.label_rows * spec.num_classes * HALF_LABEL_BYTES


def vq_bytes(spec: BudgetSpec) -> StorageReport:
    """VQ storage: packed indices per label plus the decoder and codebook."""
    spec.require_vq()
    bits = bits_per_index(spec.k)
    exact = is_power_of_two(spec.k)
    if not exact:
        warnings.warn(f"k={spec.k} is not a power of two; using ceil(log2 k)={bits} bits",
                      stacklevel=2)
    m = spec.d_h // spec.d_c
    batch = _bytes_of_bits(spec.label_rows * m * bits)
    decoder = spec.num_classes * spec.d_h * F32_PARAM_BYTES
    codebook = spec.k * spec.d_c * F32_PARAM_BYTES
    return StorageReport(raw_label_bytes(spec), {"batch_data": batch, "decoder": decoder,
                                                 "codebook": codebook}, exact)


def compression_ratio(spec: BudgetSpec) -> float:
    return vq_bytes(spec).ratio


def asymptotic_ratio_class(d_c: int, k: int) -> float:
    """Dominant per-label cost class d_c / log2(k) in the many-epoch limit."""
    if not (_is_count(d_c) and _is_count(k, 2)):
        raise BudgetError(f"need integers d_c >= 1 and k >= 2, got d_c={d_c}, k={k}")
    return d_c / math.log2(k)


def level_set(d_c0: int, k0: int, steps: int):
    """(k, d_c) pairs with identical asymptotic ratio class: square k,
    double d_c each step. Truncates with a warning if k would exceed MAX_K (2^32).
    """
    if not (_is_count(d_c0) and _is_count(k0, 2) and _is_count(steps, 0)):
        raise BudgetError(f"need integers d_c0 >= 1, k0 >= 2, steps >= 0, got {d_c0}, {k0}, {steps}")
    k, d_c = int(k0), int(d_c0)
    pairs = [(k, d_c)]
    for _ in range(steps):
        k, d_c = k * k, d_c * 2
        if k > MAX_K:
            warnings.warn(f"level set truncated: k={k} exceeds 2^32", stacklevel=2)
            break
        pairs.append((k, d_c))
    return pairs


def topk_bytes(spec: BudgetSpec, k_top: int) -> StorageReport:
    """Top-k: per row, k_top label scalars plus k_top class ids of
    log2(C) bits each."""
    if not (_is_count(k_top) and k_top <= spec.num_classes):
        raise BudgetError(f"k_top must be an integer in 1..{spec.num_classes}, got {k_top}")
    return StorageReport(raw_label_bytes(spec),
                         {"values": spec.label_rows * k_top * HALF_LABEL_BYTES,
                          "indices": spec.label_rows * k_top * math.log2(spec.num_classes) / 8})


def pca_bytes(spec: BudgetSpec, k_pc: int) -> StorageReport:
    """PCA: k_pc projections per row plus the shared component vectors."""
    if not (_is_count(k_pc) and k_pc <= spec.num_classes):
        raise BudgetError(f"k_pc must be an integer in 1..{spec.num_classes}, got {k_pc}")
    projections = spec.label_rows * k_pc * HALF_LABEL_BYTES
    vectors = k_pc * spec.num_classes * HALF_LABEL_BYTES
    return StorageReport(raw_label_bytes(spec), {"projections": projections, "vectors": vectors})


def quant_bytes(spec: BudgetSpec, bits: int) -> StorageReport:
    """Scalar quantization: a level index per entry plus the level table."""
    if not (_is_count(bits) and bits <= 8):
        raise BudgetError(f"bits must be in 1..8, got {bits}")
    indices = _bytes_of_bits(spec.label_rows * spec.num_classes * bits)
    levels = (2 ** bits) * HALF_LABEL_BYTES
    return StorageReport(raw_label_bytes(spec), {"indices": indices, "levels": levels})


def llm_raw_bytes(tokens: int, vocab: int, bytes_per_scalar: int = HALF_LABEL_BYTES) -> int:
    """Uncompressed token-level soft-label cost: one vocab-sized half vector
    per token."""
    if not all(map(_is_count, (tokens, vocab, bytes_per_scalar))):
        raise BudgetError("tokens, vocab and bytes_per_scalar must be positive integers")
    return tokens * vocab * bytes_per_scalar


def llm_compression_ratio(tokens: int, vocab: int, archive_gb: float) -> float:
    """Ratio of raw token-label storage to an archive of the given size in
    (1024-based) GB."""
    if not _finite_positive(archive_gb):
        raise BudgetError("archive size must be positive")
    return (llm_raw_bytes(tokens, vocab) / GIB) / archive_gb


def _divisors(n: int) -> list[int]:
    """The divisors of n in ascending order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def solve_hyperparams(target_ratio: float, spec: BudgetSpec,
                      max_k: int = 4096):
    """Search (d_h, d_c, k) hitting at least the target ratio with the least
    slack; ties prefer larger d_h (more codec capacity for the same budget).

    k ranges over powers of two up to ``max_k``; d_h over [C/2, 2C]; d_c
    over divisors of d_h. For fixed (d_h, d_c) the ratio falls as k grows,
    since index bits and codebook bytes both rise, so each k scan stops at the
    first k below the target.
    """
    if not (_finite_positive(target_ratio - 1) and _is_count(max_k, 2)):
        raise BudgetError(f"need a target ratio that is a finite number above 1 and an integer "
                          f"max_k >= 2, got {target_ratio} and {max_k}")
    c = spec.num_classes
    best = None
    ks = [2 ** b for b in range(1, _index_bits(max_k + 1))]   # every power of two <= max_k
    for d_h in range(max(1, c // 2), 2 * c + 1):
        for d_c in _divisors(d_h):
            for k in ks:
                trial = BudgetSpec(spec.ipc, c, spec.epochs, spec.aug_per_epoch,
                                   d_h=d_h, d_c=d_c, k=k)
                ratio = compression_ratio(trial)
                if ratio < target_ratio:
                    break
                slack = ratio - target_ratio
                key = (slack, -d_h)
                if best is None or key < best[0]:
                    best = (key, (d_h, d_c, k), ratio)
    if best is None:
        raise BudgetError(f"no hyperparameters reach a {target_ratio}x ratio")
    return best[1], best[2]
