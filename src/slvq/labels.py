"""Soft-label and logit containers, simplex validation, and label file I/O.

All numerics are double precision in memory; the ``precision_tag`` only
records the precision assumed when the labels are stored or accounted for.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

SIMPLEX_ATOL = 1e-6

_PRECISION_DTYPES = {"half": np.float16, "single": np.float32}
_PRECISION_CODES = {"half": 0, "single": 1}
_CODE_PRECISIONS = {v: k for k, v in _PRECISION_CODES.items()}

SLAB_MAGIC = b"SLAB"
SLAB_VERSION = 1


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
        if n < 1 or c < 2:
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
        if not (self.temperature > 0):
            raise LabelValidationError(f"temperature must be positive, got {self.temperature}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]


def stable_softmax(z: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax with max subtraction, in double precision."""
    z = np.asarray(z, dtype=np.float64) / float(temperature)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_labels(logits: LogitMatrix) -> SoftLabelMatrix:
    """Convert teacher logits to soft labels at the logits' temperature."""
    return SoftLabelMatrix(stable_softmax(logits.data, logits.temperature))


def validate_simplex(labels) -> SimplexReport:
    """Check that every row is a probability vector; report the first violation.

    Accepts a SoftLabelMatrix or a raw 2-D array. Never raises.
    """
    data = labels.data if isinstance(labels, SoftLabelMatrix) else np.asarray(labels, dtype=np.float64)
    bad = ~np.isfinite(data)
    if bad.any():
        r, col = np.argwhere(bad)[0]
        return SimplexReport(False, SimplexViolation(int(r), "non_finite", int(col), float("nan")))
    neg = data < 0
    if neg.any():
        r, col = np.argwhere(neg)[0]
        return SimplexReport(False, SimplexViolation(int(r), "negative_entry", int(col), float(data[r, col])))
    sums = data.sum(axis=1)
    off = np.abs(sums - 1.0)
    if (off > SIMPLEX_ATOL).any():
        r = int(np.argmax(off > SIMPLEX_ATOL))
        return SimplexReport(False, SimplexViolation(r, "row_sum", None, float(sums[r] - 1.0)))
    return SimplexReport(True)


# ---------------------------------------------------------------------------
# SLAB file format: magic "SLAB", version u16, c u32, n u32, precision u8,
# then row-major scalars, little-endian.
# ---------------------------------------------------------------------------

class LabelFileError(ValueError):
    """Raised on malformed SLAB / CSV label files."""


def write_slab(labels: SoftLabelMatrix, path) -> None:
    dtype = np.dtype(_PRECISION_DTYPES[labels.precision_tag]).newbyteorder("<")
    payload = labels.data.astype(dtype).tobytes()
    header = SLAB_MAGIC + struct.pack(
        "<HIIB", SLAB_VERSION, labels.c, labels.n, _PRECISION_CODES[labels.precision_tag]
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def read_slab(path) -> SoftLabelMatrix:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != SLAB_MAGIC:
        raise LabelFileError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 15:
        raise LabelFileError(f"{path}: truncated header ({len(blob)} bytes)")
    version, c, n, prec_code = struct.unpack_from("<HIIB", blob, 4)
    if version != SLAB_VERSION:
        raise LabelFileError(f"{path}: unsupported SLAB version {version}")
    if prec_code not in _CODE_PRECISIONS:
        raise LabelFileError(f"{path}: unknown precision code {prec_code}")
    tag = _CODE_PRECISIONS[prec_code]
    dtype = np.dtype(_PRECISION_DTYPES[tag]).newbyteorder("<")
    expected = 15 + n * c * dtype.itemsize
    if len(blob) != expected:
        raise LabelFileError(f"{path}: expected {expected} bytes, found {len(blob)}")
    data = np.frombuffer(blob, dtype=dtype, offset=15).reshape(n, c).astype(np.float64)
    if not np.isfinite(data).all() or (data < 0).any():
        raise LabelFileError(f"{path}: {validate_simplex(data).violation}")
    sums = data.sum(axis=1, keepdims=True)
    if not sums.all():
        raise LabelFileError(f"{path}: row {int(np.argmin(sums))}: every entry is zero")
    # Half-precision storage can leave row sums slightly off; renormalize the
    # tiny residual so the in-memory matrix satisfies the simplex invariant.
    data = data / sums
    return SoftLabelMatrix(data, precision_tag=tag)


def read_labels_csv(path, precision_tag: str = "half") -> SoftLabelMatrix:
    """Read labels from CSV: a header row of class ids, one label per line."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise LabelFileError(f"{path}: empty CSV") from None
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
    if not rows:
        raise LabelFileError(f"{path}: no label rows")
    return SoftLabelMatrix(np.array(rows, dtype=np.float64), precision_tag=precision_tag)


def write_labels_csv(labels: SoftLabelMatrix, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(range(labels.c))
        for row in labels.data:
            writer.writerow([repr(float(v)) for v in row])
