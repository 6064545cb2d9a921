"""Soft-label and logit containers, simplex validation, and label file I/O.

Label and logit matrices are double precision in memory; the
``precision_tag`` only records the precision assumed when the labels are
stored or accounted for. (Codec weights read from a file stay float32; see
``vqae.VqaeModel``.)
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

SIMPLEX_ATOL = 1e-6

_PRECISION_DTYPES = {"half": np.dtype(np.float16), "single": np.dtype(np.float32)}

SLAB_MAGIC = b"SLAB"
SLAB_VERSION = 1
_SLAB_HEAD = struct.Struct("<4sHIIB")   # magic, version, c, n, precision code

_CODEC_BLOCK_ELEMENTS = 2**20   # row-block budget of the codec passes (8 MB of float64)


def _finite_positive(x, zero_ok: bool = False) -> bool:
    """A finite number above 0, or also 0 if ``zero_ok``: slvq's one range check."""
    return 0 < x < np.inf or zero_ok and x == 0


def _is_count(v, least: int = 1) -> bool:
    """An int or numpy integer, not a bool, of at least ``least``: slvq's one count check."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least


def _row_blocks(n: int, row_elements: int, budget: int = _CODEC_BLOCK_ELEMENTS) -> list[slice]:
    """Slices that split n rows of ``row_elements`` evenly into blocks of at most
    about ``budget`` elements (a row a block if one row is larger; one empty slice
    if n = 0), the last the largest. No block is a few leftover rows, which BLAS
    would send to another kernel whose last bits can differ."""
    blocks = min(max(n, 1), max(1, -(-n * row_elements // budget)))
    return [slice(n * i // blocks, n * (i + 1) // blocks) for i in range(blocks)]


class LabelValidationError(ValueError):
    """Raised when label data violates a structural invariant."""


@dataclass(frozen=True)
class SimplexViolation:
    row: int
    kind: str          # "row_sum" | "negative_entry" | "non_finite"
    column: int | None
    magnitude: float

    def __str__(self):
        if self.kind == "row_sum":
            return f"row {self.row}: sum off by {self.magnitude:.3g}"
        return f"row {self.row}, col {self.column}: {self.kind} ({self.magnitude:.3g})"


@dataclass(frozen=True)
class SimplexReport:
    ok: bool
    violation: SimplexViolation | None = None


@dataclass(frozen=True)
class SoftLabelMatrix:
    """n rows of c-dimensional probability vectors on the simplex."""

    data: np.ndarray
    precision_tag: str = "half"

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise LabelValidationError(f"label data must be 2-D, got shape {data.shape}")
        n, c = data.shape
        if not (_is_count(n) and _is_count(c, 2)):
            raise LabelValidationError(f"need n >= 1 and c >= 2, got n={n}, c={c}")
        if self.precision_tag not in _PRECISION_DTYPES:
            raise LabelValidationError(f"unknown precision tag {self.precision_tag!r}")
        report = validate_simplex(data)
        if not report.ok:
            raise LabelValidationError(f"not a simplex matrix: {report.violation}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LogitMatrix:
    """n rows of c raw teacher logits plus a softmax temperature."""

    data: np.ndarray
    temperature: float = 1.0

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise LabelValidationError(f"logit data must be 2-D, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise LabelValidationError("logits contain non-finite entries")
        if not _finite_positive(self.temperature):
            raise LabelValidationError(f"temperature must be positive, got {self.temperature}")


def stable_softmax(z: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax with max subtraction, in double precision.

    Works in its float64 output buffer: it allocates nothing else of the
    input's size.
    """
    if not _finite_positive(temperature):
        raise LabelValidationError(f"temperature must be positive, got {temperature}")
    out = np.divide(z, float(temperature), dtype=np.float64)
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_labels(logits: LogitMatrix) -> SoftLabelMatrix:
    """Convert teacher logits to soft labels at the logits' temperature."""
    return SoftLabelMatrix(stable_softmax(logits.data, logits.temperature))


def validate_simplex(labels, atol: float = SIMPLEX_ATOL) -> SimplexReport:
    """Check that every row is a probability vector, its sum within ``atol``
    of 1; report the first violation.

    Accepts a SoftLabelMatrix or a raw 2-D array. Never raises. A valid
    matrix costs two reductions (row sums and the minimum); the element-wise
    search for the first violation runs only when one of them fails. A
    non-finite entry always makes its row sum non-finite, so it fails too.
    """
    data = labels.data if isinstance(labels, SoftLabelMatrix) else np.asarray(labels, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        sums = data.sum(axis=1)
    off = np.abs(sums - 1.0)
    if (off <= atol).all() and (data.size == 0 or data.min() >= 0):
        return SimplexReport(True)
    bad = ~np.isfinite(data)
    if bad.any():
        r, col = np.argwhere(bad)[0]
        return SimplexReport(False, SimplexViolation(int(r), "non_finite", int(col), float("nan")))
    neg = data < 0
    if neg.any():
        r, col = np.argwhere(neg)[0]
        return SimplexReport(False, SimplexViolation(int(r), "negative_entry", int(col), float(data[r, col])))
    r = int(np.argmax(off > atol))
    return SimplexReport(False, SimplexViolation(r, "row_sum", None, float(sums[r] - 1.0)))


# ---------------------------------------------------------------------------
# SLAB file format: magic "SLAB", version u16, c u32, n u32, precision u8 (the
# tag's position in _PRECISION_DTYPES), then row-major scalars, little-endian.
# ---------------------------------------------------------------------------

class LabelFileError(ValueError):
    """Raised on malformed SLAB / CSV label files."""


def write_slab(labels: SoftLabelMatrix, path) -> None:
    dtype = _PRECISION_DTYPES[labels.precision_tag].newbyteorder("<")
    payload = labels.data.astype(dtype)
    header = _SLAB_HEAD.pack(SLAB_MAGIC, SLAB_VERSION, labels.c, labels.n,
                             list(_PRECISION_DTYPES).index(labels.precision_tag))
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def read_slab(path) -> SoftLabelMatrix:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != SLAB_MAGIC:
        raise LabelFileError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < _SLAB_HEAD.size:
        raise LabelFileError(f"{path}: truncated header ({len(blob)} bytes)")
    _, version, c, n, prec_code = _SLAB_HEAD.unpack_from(blob)
    if version != SLAB_VERSION:
        raise LabelFileError(f"{path}: unsupported SLAB version {version}")
    if prec_code >= len(_PRECISION_DTYPES):
        raise LabelFileError(f"{path}: unknown precision code {prec_code}")
    tag = list(_PRECISION_DTYPES)[prec_code]
    dtype = _PRECISION_DTYPES[tag].newbyteorder("<")
    expected = _SLAB_HEAD.size + n * c * dtype.itemsize
    if len(blob) != expected:
        raise LabelFileError(f"{path}: expected {expected} bytes, found {len(blob)}")
    data = np.frombuffer(blob, dtype=dtype, offset=_SLAB_HEAD.size).reshape(n, c).astype(np.float64)
    # Rounding each entry to ``dtype`` moves a row sum by at most eps/2 plus
    # half a subnormal step an entry. Twice that is renormalized away, in
    # place; a row off by more is rejected, as a CSV row would be.
    info = np.finfo(dtype)
    report = validate_simplex(data, SIMPLEX_ATOL + info.eps + c * info.smallest_subnormal)
    if not report.ok:
        raise LabelFileError(f"{path}: {report.violation}")
    data /= data.sum(axis=1, keepdims=True)
    return SoftLabelMatrix(data, precision_tag=tag)


def read_labels_csv(path) -> SoftLabelMatrix:
    """Read labels from UTF-8 CSV: a header row of class ids, one label per line."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            if (header := next(reader, None)) is None:
                raise LabelFileError(f"{path}: empty CSV")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise LabelFileError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as err:
                    raise LabelFileError(f"{path}:{lineno}: {err}") from None
    except (UnicodeDecodeError, csv.Error) as err:
        raise LabelFileError(f"{path}: {err}") from None
    if not rows:
        raise LabelFileError(f"{path}: no label rows")
    return SoftLabelMatrix(np.array(rows, dtype=np.float64))


def write_labels_csv(labels: SoftLabelMatrix, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(range(labels.c))
        for row in labels.data:
            writer.writerow([repr(float(v)) for v in row])
