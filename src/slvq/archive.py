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

from .labels import _finite_positive, _is_count, _row_blocks
from .vqae import (GRADIENT_MODES, MAX_K, RENORM_FLOOR, ModelValidationError, VqaeModel, _check_codes,
                   decompress)

SLAR_MAGIC = b"SLAR"
SLAR_VERSION = 1

CODEC_VQAE = 0   # the only codec a SLAR archive carries
_PARAM_DTYPE = np.dtype("<f4")   # the type every stored codec parameter takes


class ArchiveError(ValueError):
    """Raised on malformed, truncated, or corrupted archive files."""


def _index_bits(k: int) -> int:
    """Bits a stored code index takes: ceil(log2 k), and 1 for k = 1."""
    return max(1, int(k - 1).bit_length())


def packed_row_bytes(m: int, bits: int) -> int:
    return (m * bits + 7) // 8


def pack_indices(indices: np.ndarray, bits: int) -> bytes:
    """Pack an n x m index matrix, MSB-first, one byte-aligned record per row."""
    indices = np.asarray(indices)
    if indices.ndim != 2 or indices.dtype.kind not in "iu":
        raise ArchiveError(f"index matrix must be 2-D integers, got {indices.dtype} shape {indices.shape}")
    if not (_is_count(bits) and bits <= _index_bits(MAX_K)):
        raise ArchiveError(f"bits must be in 1..32, got {bits}")
    if indices.size and (indices.min() < 0 or indices.max() >= (1 << bits)):
        raise ArchiveError(f"index out of range for {bits}-bit packing")
    n, m = indices.shape
    out = np.empty((n, packed_row_bytes(m, bits)), dtype=np.uint8)
    for s in _row_blocks(n, m * 32):
        # the 32 bits of each big-endian word, MSB first; keep the low ``bits``
        # (packbits pads each row to a byte with zeros)
        words = np.unpackbits(np.ascontiguousarray(indices[s, :, None], ">u4").view(np.uint8), axis=2)
        out[s] = np.packbits(words[:, :, 32 - bits:].reshape(len(words), m * bits), axis=1)
    return out.tobytes()


def unpack_indices(blob: bytes, n: int, m: int, bits: int) -> np.ndarray:
    """Invert pack_indices; validates bits and the blob length."""
    if not (_is_count(bits) and bits <= _index_bits(MAX_K)):
        raise ArchiveError(f"bits must be in 1..32, got {bits}")
    row_bytes = packed_row_bytes(m, bits)
    if len(blob) != n * row_bytes:
        raise ArchiveError(f"expected {n * row_bytes} packed bytes, got {len(blob)}")
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(n, row_bytes)
    out = np.empty((n, m), dtype=np.int64)
    for s in _row_blocks(n, m * 32):
        words = np.zeros((s.stop - s.start, m, 32), dtype=np.uint8)
        bit_rows = np.unpackbits(raw[s], axis=1, count=m * bits)
        words[:, :, 32 - bits:] = bit_rows.reshape(len(words), m, bits)
        out[s] = np.packbits(words, axis=2).view(">u4")[:, :, 0]
    return out


@dataclass(frozen=True)
class CompressedArchive:
    """A stored codec payload: header dims, named float sections, and
    bit-packed per-label index matrices."""

    codec_id: int
    header: dict
    arrays: dict = field(default_factory=dict)        # name -> ndarray, stored as _PARAM_DTYPE (float32 when read)
    packed: dict = field(default_factory=dict)        # name -> (indices, bits)

    def __post_init__(self):
        if self.codec_id != CODEC_VQAE:
            raise ArchiveError(f"unknown codec id {self.codec_id}")


def _dims(model: VqaeModel) -> dict:
    return {"c": model.c, "d_h": model.d_h, "d_c": model.d_c, "k": model.k}


def _vqae_container(model: VqaeModel, epsilon: float, arrays: dict, packed: dict,
                    **header) -> CompressedArchive:
    """The VQAE container both writers build: ``arrays`` once every weight fits
    the stored parameter type, under a header of the model's dims and epsilon."""
    if not _finite_positive(epsilon):
        raise ModelValidationError(f"cannot write epsilon {epsilon!r}")
    limit = np.finfo(_PARAM_DTYPE).max
    for name, arr in arrays.items():
        if arr.size and (arr.min() < -limit or arr.max() > limit):
            raise ModelValidationError(f"{name} has weights outside the {_PARAM_DTYPE.name} range")
    return CompressedArchive(CODEC_VQAE, {**_dims(model), "epsilon": float(epsilon), **header},
                             arrays, packed)


def vqae_archive(model: VqaeModel, indices: np.ndarray, epsilon: float = RENORM_FLOOR) -> CompressedArchive:
    """Bundle what the decoder side needs: indices (checked as it checks them), codebook, decoder."""
    indices = _check_codes(indices, model)
    return _vqae_container(model, epsilon, {"codebook": model.codebook, "decoder": model.decoder},
                           {"indices": (indices, _index_bits(model.k))}, n=int(indices.shape[0]))


def _load_vqae(archive: CompressedArchive):
    """The model a VQAE container holds and its epsilon, checked against the
    header. Without an encoder section the model is decode-side."""
    h, arrays = archive.header, archive.arrays
    try:
        model = VqaeModel(arrays.get("encoder"), arrays["decoder"], arrays["codebook"])
        wrong = [key for key, value in _dims(model).items() if h[key] != value]
        epsilon = h["epsilon"]
    except (KeyError, TypeError, ModelValidationError) as err:
        raise ArchiveError(f"malformed VQAE archive ({type(err).__name__}: {err})") from None
    if wrong:
        raise ArchiveError(f"header {', '.join(wrong)} disagree with the stored sections")
    if type(epsilon) not in (int, float) or not _finite_positive(epsilon):
        raise ArchiveError(f"epsilon must be a positive number, got {epsilon!r}")
    return model, epsilon


def decompress_vqae_archive(archive: CompressedArchive):
    """Reconstruct labels from a VQAE archive with a decode-side model."""
    model, epsilon = _load_vqae(archive)
    try:
        indices, n = archive.packed["indices"][0], archive.header["n"]
        if not _is_count(n, 0) or n != indices.shape[0]:
            raise ArchiveError(f"header n={n!r} disagrees with {indices.shape[0]} packed index rows")
        return decompress(indices, model, epsilon)
    except (KeyError, ModelValidationError) as err:
        raise ArchiveError(f"malformed VQAE archive ({type(err).__name__}: {err})") from None


# ---------------------------------------------------------------------------
# On-disk container, little-endian: one struct per frame piece, shared by writer and reader.
# ---------------------------------------------------------------------------

_SLAR_HEAD = struct.Struct("<4sHBI")   # magic "SLAR", u16 version, u8 codec_id, u32 length of the header JSON
_SLAR_U16 = struct.Struct("<H")        # a section count (arrays, then packed), or the length of a name
_SLAR_ARRAY = struct.Struct("<II")     # after an array's name: rows, cols, then _PARAM_DTYPE data
_SLAR_PACKED = struct.Struct("<IIB")   # after a packed section's name: n, m, bits, then the packed rows
_SLAR_CRC = struct.Struct("<I")        # CRC32 of everything before it


def _encode_archive(archive: CompressedArchive) -> bytes:
    header_blob = json.dumps(archive.header, sort_keys=True).encode()
    parts = [_SLAR_HEAD.pack(SLAR_MAGIC, SLAR_VERSION, archive.codec_id, len(header_blob)),
             header_blob, _SLAR_U16.pack(len(archive.arrays))]
    for name in sorted(archive.arrays):
        arr = np.ascontiguousarray(archive.arrays[name], dtype=_PARAM_DTYPE)
        nm = name.encode()
        parts += [_SLAR_U16.pack(len(nm)), nm, _SLAR_ARRAY.pack(*arr.shape), arr.tobytes()]
    parts.append(_SLAR_U16.pack(len(archive.packed)))
    for name in sorted(archive.packed):
        indices, bits = archive.packed[name]
        nm = name.encode()
        parts += [_SLAR_U16.pack(len(nm)), nm, _SLAR_PACKED.pack(*indices.shape, bits),
                  pack_indices(indices, bits)]
    # a running CRC, so the body is joined once, trailer included
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, _SLAR_CRC.pack(crc)])


def write_archive(archive: CompressedArchive, path) -> None:
    blob = _encode_archive(archive)   # before open: a failed encode leaves the file as it was
    with open(path, "wb") as f:
        f.write(blob)


def read_archive(path) -> CompressedArchive:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _SLAR_HEAD.size + _SLAR_CRC.size or blob[:4] != SLAR_MAGIC:
        raise ArchiveError(f"{path}: not a SLAR archive")
    body, (crc,) = memoryview(blob)[:-_SLAR_CRC.size], _SLAR_CRC.unpack(blob[-_SLAR_CRC.size:])
    if zlib.crc32(body) != crc:
        raise ArchiveError(f"{path}: CRC32 mismatch, file corrupted")
    try:
        return _decode_body(body)
    except (struct.error, ValueError) as err:   # JSON, UTF-8 and ArchiveError are ValueErrors
        raise ArchiveError(f"{path}: {err}") from None


def _decode_body(view: memoryview) -> CompressedArchive:
    off = 0   # slices of a memoryview copy nothing

    def take_bytes(size):
        nonlocal off
        off += size
        return view[off - size:off]

    def take(frame):
        return frame.unpack(take_bytes(frame.size))

    _, version, codec_id, header_len = take(_SLAR_HEAD)   # read_archive checked the magic
    if version != SLAR_VERSION:
        raise ArchiveError(f"unsupported version {version}")
    header = json.loads(str(take_bytes(header_len), "utf-8"))
    if not isinstance(header, dict):
        raise ArchiveError("header is not a JSON object")
    arrays, packed = {}, {}
    for _ in range(*take(_SLAR_U16)):
        name = str(take_bytes(*take(_SLAR_U16)), "utf-8")
        rows, cols = take(_SLAR_ARRAY)
        data = np.frombuffer(take_bytes(rows * cols * _PARAM_DTYPE.itemsize), dtype=_PARAM_DTYPE)
        # a native float32 copy: a view would keep the whole file blob alive
        arrays[name] = data.reshape(rows, cols).astype(np.float32)
    for _ in range(*take(_SLAR_U16)):
        name = str(take_bytes(*take(_SLAR_U16)), "utf-8")
        n, m, bits = take(_SLAR_PACKED)
        packed[name] = (unpack_indices(take_bytes(n * packed_row_bytes(m, bits)), n, m, bits), bits)
    if off != len(view):
        raise ArchiveError(f"{len(view) - off} trailing bytes")
    return CompressedArchive(codec_id=codec_id, header=header, arrays=arrays, packed=packed)


def write_model(model: VqaeModel, path, gradient_mode: str = "straight_through",
                epsilon: float = RENORM_FLOOR) -> None:
    if model.encoder is None:
        raise ModelValidationError("a decode-side model has no encoder to write")
    if gradient_mode not in GRADIENT_MODES:
        raise ModelValidationError(f"cannot write gradient mode {gradient_mode!r}")
    arrays = {"encoder": model.encoder, "decoder": model.decoder, "codebook": model.codebook}
    write_archive(_vqae_container(model, epsilon, arrays, {}, gradient_mode=gradient_mode), path)


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
