"""Bit-exact serialization: packed code indices and the SLAR container.

Indices are packed MSB-first with each label row padded to a byte boundary,
so rows remain randomly accessible. The container is little-endian on disk
and ends with a CRC32 trailer over everything before it.

Every file slvq writes except SLAB labels is a CRC-checked SLAR container. A
label archive holds decoder, codebook and packed indices; a model file
(``.slvq``) holds encoder, decoder and codebook sections, with the gradient
mode and epsilon in its header. Older SLVQ-format model files must be refit.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .vqae import GRADIENT_MODES, ModelValidationError, VqaeModel, decompress

SLAR_MAGIC = b"SLAR"
SLAR_VERSION = 1

CODEC_VQAE = 0   # the only codec a SLAR archive carries


class ArchiveError(ValueError):
    """Raised on malformed, truncated, or corrupted archive files."""


def packed_row_bytes(m: int, bits: int) -> int:
    return (m * bits + 7) // 8


def pack_indices(indices: np.ndarray, bits: int) -> bytes:
    """Pack an n x m index matrix, MSB-first, one byte-aligned record per row."""
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise ArchiveError(f"index matrix must be 2-D, got shape {indices.shape}")
    if not 1 <= bits <= 32:
        raise ArchiveError(f"bits must be in 1..32, got {bits}")
    if indices.size and (indices.min() < 0 or indices.max() >= (1 << bits)):
        raise ArchiveError(f"index out of range for {bits}-bit packing")
    n, m = indices.shape
    if n == 0:
        return b""
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    bit_rows = ((indices.astype(np.uint64)[:, :, None] >> shifts) & 1).reshape(n, m * bits)
    pad = (-m * bits) % 8
    if pad:
        bit_rows = np.concatenate([bit_rows, np.zeros((n, pad), dtype=np.uint64)], axis=1)
    return np.packbits(bit_rows.astype(np.uint8), axis=1).tobytes()


def unpack_indices(blob: bytes, n: int, m: int, bits: int) -> np.ndarray:
    """Invert pack_indices; validates the blob length."""
    row_bytes = packed_row_bytes(m, bits)
    if len(blob) != n * row_bytes:
        raise ArchiveError(f"expected {n * row_bytes} packed bytes, got {len(blob)}")
    if n == 0:
        return np.zeros((0, m), dtype=np.int64)
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(n, row_bytes)
    bit_rows = np.unpackbits(raw, axis=1)[:, : m * bits].reshape(n, m, bits)
    weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.int64))
    return (bit_rows.astype(np.int64) * weights).sum(axis=2)


@dataclass(frozen=True)
class CompressedArchive:
    """A stored codec payload: header dims, named float sections, and
    bit-packed per-label index matrices."""

    codec_id: int
    header: dict
    arrays: dict = field(default_factory=dict)        # name -> float64 ndarray (stored f32)
    packed: dict = field(default_factory=dict)        # name -> (indices, bits)

    def __post_init__(self):
        if self.codec_id != CODEC_VQAE:
            raise ArchiveError(f"unknown codec id {self.codec_id}")


def vqae_archive(model: VqaeModel, indices: np.ndarray, epsilon: float = 1e-8) -> CompressedArchive:
    """Bundle what the decoder side needs: indices, codebook, and decoder."""
    bits = max(1, (model.k - 1).bit_length())
    header = {"c": model.c, "d_h": model.d_h, "d_c": model.d_c, "k": model.k,
              "n": int(np.asarray(indices).shape[0]), "epsilon": epsilon}
    return CompressedArchive(
        codec_id=CODEC_VQAE,
        header=header,
        arrays={"codebook": model.codebook, "decoder": model.decoder},
        packed={"indices": (np.asarray(indices), bits)},
    )


def _load_vqae(archive: CompressedArchive):
    """The model a VQAE container holds and its epsilon, checked against the
    header. Without an encoder section the model is decode-side."""
    h, arrays = archive.header, archive.arrays
    try:
        model = VqaeModel(arrays.get("encoder"), arrays["decoder"], arrays["codebook"])
        stored = {"c": model.c, "d_h": model.d_h, "d_c": model.d_c, "k": model.k}
        wrong = [key for key, value in stored.items() if h[key] != value]
        epsilon = h["epsilon"]
    except (KeyError, TypeError, ModelValidationError) as err:
        raise ArchiveError(f"malformed VQAE archive ({type(err).__name__}: {err})") from None
    if wrong:
        raise ArchiveError(f"header {', '.join(wrong)} disagree with the stored sections")
    if type(epsilon) not in (int, float) or not epsilon > 0:
        raise ArchiveError(f"epsilon must be a positive number, got {epsilon!r}")
    return model, epsilon


def decompress_vqae_archive(archive: CompressedArchive):
    """Reconstruct labels from a VQAE archive with a decode-side model."""
    model, epsilon = _load_vqae(archive)
    try:
        indices, n = archive.packed["indices"][0], archive.header["n"]
        if type(n) is not int or n != indices.shape[0]:
            raise ArchiveError(f"header n={n!r} disagrees with {indices.shape[0]} packed index rows")
        return decompress(indices, model, epsilon)
    except (KeyError, ModelValidationError) as err:
        raise ArchiveError(f"malformed VQAE archive ({type(err).__name__}: {err})") from None


# ---------------------------------------------------------------------------
# On-disk container. Layout:
#   magic "SLAR" | u16 version | u8 codec_id
#   u32 header_len | header JSON (sorted keys, utf-8)
#   u16 array count | per array: u16 name_len, name, u32 rows, u32 cols, f32 data
#   u16 packed count | per packed: u16 name_len, name, u32 n, u32 m, u8 bits, blob
#   u32 CRC32 of everything above
# ---------------------------------------------------------------------------

def _encode_archive(archive: CompressedArchive) -> bytes:
    parts = [SLAR_MAGIC, struct.pack("<HB", SLAR_VERSION, archive.codec_id)]
    header_blob = json.dumps(archive.header, sort_keys=True).encode()
    parts.append(struct.pack("<I", len(header_blob)))
    parts.append(header_blob)
    parts.append(struct.pack("<H", len(archive.arrays)))
    for name in sorted(archive.arrays):
        arr = np.ascontiguousarray(archive.arrays[name], dtype="<f4")
        nm = name.encode()
        parts.append(struct.pack("<H", len(nm)))
        parts.append(nm)
        parts.append(struct.pack("<II", arr.shape[0], arr.shape[1]))
        parts.append(arr.tobytes())
    parts.append(struct.pack("<H", len(archive.packed)))
    for name in sorted(archive.packed):
        indices, bits = archive.packed[name]
        nm = name.encode()
        parts.append(struct.pack("<H", len(nm)))
        parts.append(nm)
        parts.append(struct.pack("<IIB", indices.shape[0], indices.shape[1], bits))
        parts.append(pack_indices(indices, bits))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def write_archive(archive: CompressedArchive, path) -> None:
    with open(path, "wb") as f:
        f.write(_encode_archive(archive))


def read_archive(path) -> CompressedArchive:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 15 or blob[:4] != SLAR_MAGIC:
        raise ArchiveError(f"{path}: not a SLAR archive")
    body, (crc,) = memoryview(blob)[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise ArchiveError(f"{path}: CRC32 mismatch, file corrupted")
    try:
        return _decode_body(body)
    except (struct.error, ValueError) as err:   # JSON, UTF-8 and ArchiveError are ValueErrors
        raise ArchiveError(f"{path}: {err}") from None


def _decode_body(view: memoryview) -> CompressedArchive:
    off = 4   # slices of a memoryview copy nothing

    def take_bytes(size):
        nonlocal off
        off += size
        return view[off - size:off]

    def take(fmt):
        return struct.unpack(fmt, take_bytes(struct.calcsize(fmt)))

    version, codec_id = take("<HB")
    if version != SLAR_VERSION:
        raise ArchiveError(f"unsupported version {version}")
    header = json.loads(str(take_bytes(*take("<I")), "utf-8"))
    if not isinstance(header, dict):
        raise ArchiveError("header is not a JSON object")
    arrays, packed = {}, {}
    for _ in range(*take("<H")):
        name = str(take_bytes(*take("<H")), "utf-8")
        rows, cols = take("<II")
        data = np.frombuffer(take_bytes(rows * cols * 4), dtype="<f4")
        arrays[name] = data.reshape(rows, cols).astype(np.float64)
    for _ in range(*take("<H")):
        name = str(take_bytes(*take("<H")), "utf-8")
        n, m, bits = take("<IIB")
        packed[name] = (unpack_indices(take_bytes(n * packed_row_bytes(m, bits)), n, m, bits), bits)
    if off != len(view):
        raise ArchiveError(f"{len(view) - off} trailing bytes")
    return CompressedArchive(codec_id=codec_id, header=header, arrays=arrays, packed=packed)


def write_model(model: VqaeModel, path, gradient_mode: str = "straight_through",
                epsilon: float = 1e-8) -> None:
    if model.encoder is None:
        raise ModelValidationError("a decode-side model has no encoder to write")
    if gradient_mode not in GRADIENT_MODES or not epsilon > 0:
        raise ModelValidationError(
            f"cannot write gradient mode {gradient_mode!r} with epsilon {epsilon!r}")
    header = {"c": model.c, "d_h": model.d_h, "d_c": model.d_c, "k": model.k,
              "epsilon": float(epsilon), "gradient_mode": gradient_mode}
    arrays = {"encoder": model.encoder, "decoder": model.decoder, "codebook": model.codebook}
    write_archive(CompressedArchive(CODEC_VQAE, header, arrays), path)


def read_model(path):
    """Returns (model, gradient_mode, epsilon)."""
    archive = read_archive(path)
    mode = archive.header.get("gradient_mode")
    try:
        if "encoder" not in archive.arrays:
            raise ArchiveError("no encoder section, not a model file")
        if mode not in GRADIENT_MODES:
            raise ArchiveError(f"unknown gradient mode {mode!r}")
        model, epsilon = _load_vqae(archive)
    except ArchiveError as err:
        raise ArchiveError(f"{path}: {err}") from None
    return model, mode, epsilon
