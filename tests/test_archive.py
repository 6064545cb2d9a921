import re
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slvq.archive import (
    CODEC_VQAE,
    SLAR_MAGIC,
    SLAR_VERSION,
    ArchiveError,
    CompressedArchive,
    _encode_archive,
    decompress_vqae_archive,
    pack_indices,
    packed_row_bytes,
    read_archive,
    read_model,
    unpack_indices,
    vqae_archive,
    write_archive,
    write_model,
)
from slvq.labels import SoftLabelMatrix
from slvq.vqae import ModelValidationError, VqaeModel, compress, decompress

from conftest import random_labels, traced_peak


def f32_model(rng, c=6, d_h=8, d_c=4, k=5):
    """Model whose weights survive f32 storage exactly."""
    return VqaeModel(
        rng.standard_normal((c, d_h)).astype(np.float32).astype(np.float64),
        rng.standard_normal((d_h, c)).astype(np.float32).astype(np.float64),
        rng.standard_normal((k, d_c)).astype(np.float32).astype(np.float64),
    )


def crafted_slar(header_blob: bytes, tail: bytes = b"\x00\x00\x00\x00", version: int = SLAR_VERSION) -> bytes:
    """A CRC-valid SLAR file with raw header bytes; the default tail declares
    no arrays and no packed sections."""
    body = (SLAR_MAGIC + struct.pack("<HBI", version, CODEC_VQAE, len(header_blob))
            + header_blob + tail)
    return body + struct.pack("<I", zlib.crc32(body))


def vqae_slar_with_header(rng, edit) -> bytes:
    """A CRC-valid SLAR file of a real VQAE archive whose header ``edit`` changed."""
    model = f32_model(rng)
    archive = vqae_archive(model, compress(random_labels(rng, 10, 6), model))
    header = dict(archive.header)
    edit(header)
    return _encode_archive(CompressedArchive(CODEC_VQAE, header, archive.arrays, archive.packed))


def with_packed_section(slar: bytes, n: int, m: int, bits: int) -> bytes:
    """``slar``, a SLAR file with no packed sections, given one all-zero
    ``indices`` section of n x m codes at ``bits`` bits; the CRC is redone."""
    body = (slar[:-6] + struct.pack("<HH", 1, 7) + b"indices" + struct.pack("<IIB", n, m, bits)
            + bytes(n * packed_row_bytes(m, bits)))
    return body + struct.pack("<I", zlib.crc32(body))


MALFORMED_BODIES = {
    "bad json": crafted_slar(b"{not json"),
    "non-utf8 header": crafted_slar(b"\xff\xfe"),
    "header not an object": crafted_slar(b"[1, 2]"),
    "array count past end": crafted_slar(b"{}", b"\x05\x00"),
    "array data past end": crafted_slar(
        b"{}", struct.pack("<HH", 1, 1) + b"a" + struct.pack("<II", 1000, 1000)),
    "unsupported version": crafted_slar(b"{}", version=SLAR_VERSION + 1),
    "trailing bytes": crafted_slar(b"{}", b"\x00\x00\x00\x00\x00"),
}

HEADER_EDITS = {
    "mismatched d_h": lambda h: h.update(d_h=h["d_h"] * 2),
    "missing k": lambda h: h.pop("k"),
    "mismatched c": lambda h: h.update(c=h["c"] + 1),
    "epsilon not a number": lambda h: h.update(epsilon="tiny"),
    "epsilon infinite": lambda h: h.update(epsilon=float("inf")),   # JSON ``Infinity``
}

# edits of a model file's (header, arrays) -> what read_model's ArchiveError says
MODEL_EDITS = {
    "mismatched d_h": (lambda h, a: h.update(d_h=16), "header d_h disagree"),
    "missing k": (lambda h, a: h.pop("k"), "KeyError: 'k'"),
    "NaN encoder": (lambda h, a: a.update(encoder=np.full((6, 8), np.nan)),
                    "encoder contains non-finite entries"),
    "d_h not divisible by d_c": (lambda h, a: a.update(encoder=np.ones((6, 3)),
                                                       decoder=np.ones((3, 6))),
                                 "d_h=3 not divisible by d_c=4"),
    "no encoder section": (lambda h, a: a.pop("encoder"), "no encoder section"),
    "unknown gradient mode": (lambda h, a: h.update(gradient_mode="sideways"),
                              "unknown gradient mode 'sideways'"),
    "no gradient mode": (lambda h, a: h.pop("gradient_mode"), "unknown gradient mode None"),
    "epsilon not a number": (lambda h, a: h.update(epsilon="tiny"),
                             "epsilon must be a positive number"),
    "epsilon zero": (lambda h, a: h.update(epsilon=0.0), "epsilon must be a positive number"),
    "epsilon infinite": (lambda h, a: h.update(epsilon=float("inf")),
                         "epsilon must be a positive number"),
}


class TestBitPacking:
    def test_row_byte_count(self):
        # 159 ten-bit indices -> 1590 bits -> 199 bytes per row
        assert packed_row_bytes(159, 10) == 199
        assert packed_row_bytes(8, 1) == 1
        assert packed_row_bytes(9, 1) == 2

    def test_msb_first_layout(self):
        # a single 3-bit index of 1 occupies the three high bits: 0b0010_0000
        assert pack_indices(np.array([[1]]), 3) == bytes([0b00100000])
        # two 3-bit indices 5, 3 -> 101 011 00 -> 0b10101100
        assert pack_indices(np.array([[5, 3]]), 3) == bytes([0b10101100])

    def test_rows_are_byte_aligned(self):
        blob = pack_indices(np.array([[1], [1]]), 3)
        assert blob == bytes([0b00100000, 0b00100000])

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.integers(1, 20),
           st.integers(0, 10))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, seed, bits, m, n):
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, 2 ** bits, size=(n, m))
        blob = pack_indices(indices, bits)
        assert len(blob) == n * packed_row_bytes(m, bits)
        np.testing.assert_array_equal(unpack_indices(blob, n, m, bits), indices)

    def test_out_of_range_rejected(self):
        with pytest.raises(ArchiveError):
            pack_indices(np.array([[4]]), 2)
        with pytest.raises(ArchiveError):
            pack_indices(np.array([[-1]]), 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ArchiveError):
            unpack_indices(b"\x00", 2, 4, 3)

    @pytest.mark.parametrize("bits", [0, 33, 64])
    def test_unpack_rejects_bits_the_writer_rejects(self, bits, tmp_path):
        # bits = 0 packs n x m codes into no bytes at all
        n = m = 1000 if bits == 0 else 3
        with pytest.raises(ArchiveError, match="bits must be in 1..32"):
            unpack_indices(bytes(n * packed_row_bytes(m, bits)), n, m, bits)
        path = tmp_path / "bits.slar"
        path.write_bytes(with_packed_section(crafted_slar(b"{}"), n, m, bits))
        with pytest.raises(ArchiveError, match="bits must be in 1..32"):
            read_archive(path)


class TestArchiveContainer:
    def make_archive(self, rng):
        model = f32_model(rng)
        labels = random_labels(rng, 10, 6)
        return model, labels, vqae_archive(model, compress(labels, model), epsilon=1e-8)

    def test_roundtrip_byte_identical(self, rng, tmp_path):
        _, _, archive = self.make_archive(rng)
        path = tmp_path / "a.slar"
        write_archive(archive, path)
        back = read_archive(path)
        # re-encoding what was read must reproduce the file exactly
        assert _encode_archive(back) == path.read_bytes()

    def test_roundtrip_preserves_content(self, rng, tmp_path):
        model, labels, archive = self.make_archive(rng)
        path = tmp_path / "a.slar"
        write_archive(archive, path)
        back = read_archive(path)
        assert back.header == archive.header
        np.testing.assert_array_equal(back.packed["indices"][0],
                                      archive.packed["indices"][0])
        np.testing.assert_array_equal(back.arrays["codebook"], model.codebook)

    def test_decompress_matches_direct_path(self, rng, tmp_path):
        model, labels, archive = self.make_archive(rng)
        path = tmp_path / "a.slar"
        write_archive(archive, path)
        out = decompress_vqae_archive(read_archive(path))
        # the direct path through the model as stored: a float32 decoder and codebook
        stored = VqaeModel(model.encoder, model.decoder.astype(np.float32), model.codebook.astype(np.float32))
        direct = decompress(compress(labels, model), stored, epsilon=1e-8)
        np.testing.assert_allclose(out.data, direct.data, atol=1e-12)

    def test_corruption_detected(self, rng, tmp_path):
        _, _, archive = self.make_archive(rng)
        path = tmp_path / "a.slar"
        write_archive(archive, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError):
            read_archive(path)

    def test_truncation_detected(self, rng, tmp_path):
        _, _, archive = self.make_archive(rng)
        path = tmp_path / "a.slar"
        write_archive(archive, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ArchiveError):
            read_archive(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.slar"
        path.write_bytes(b"WRONG" + b"\x00" * 32)
        with pytest.raises(ArchiveError):
            read_archive(path)

    def test_unknown_codec_id_rejected(self):
        with pytest.raises(ArchiveError):
            CompressedArchive(codec_id=42, header={})

    def test_out_of_range_indices_rejected_on_decode(self, rng):
        model = f32_model(rng)
        archive = vqae_archive(model, np.array([[0, 4]]))
        bad = CompressedArchive(archive.codec_id, dict(archive.header, k=3),
                                archive.arrays, archive.packed)
        with pytest.raises(ArchiveError):
            decompress_vqae_archive(bad)

    @pytest.mark.parametrize("epsilon", [0.0, np.inf, np.nan])
    def test_writers_reject_epsilon_the_reader_rejects(self, rng, epsilon, tmp_path):
        model = f32_model(rng)
        with pytest.raises(ModelValidationError, match="epsilon"):
            vqae_archive(model, np.zeros((3, model.m), dtype=np.int64), epsilon)
        with pytest.raises(ModelValidationError, match="epsilon"):
            write_model(model, tmp_path / "m.slvq", epsilon=epsilon)
        assert not (tmp_path / "m.slvq").exists()

    def test_encode_holds_the_file_about_twice(self, rng):
        # 200,000 x 40 nine-bit codes, an 8.6 MiB file: the sections and the
        # joined file, plus one row block of packing temporaries
        model = f32_model(rng, c=6, d_h=40, d_c=1, k=512)
        indices = rng.integers(0, 512, size=(200_000, 40), dtype=np.uint16)
        blob, peak = traced_peak(_encode_archive, vqae_archive(model, indices))
        assert peak < 2.25 * len(blob)


class TestMalformedArchives:
    @pytest.mark.parametrize("name", sorted(MALFORMED_BODIES))
    def test_unparseable_body_raises_archive_error(self, name, tmp_path):
        path = tmp_path / "bad.slar"
        path.write_bytes(MALFORMED_BODIES[name])
        with pytest.raises(ArchiveError):
            read_archive(path)

    @pytest.mark.parametrize("name", sorted(HEADER_EDITS))
    def test_inconsistent_header_raises_archive_error(self, rng, name, tmp_path):
        path = tmp_path / "bad.slar"
        path.write_bytes(vqae_slar_with_header(rng, HEADER_EDITS[name]))
        with pytest.raises(ArchiveError):
            decompress_vqae_archive(read_archive(path))


    @pytest.mark.parametrize("n", [999, 9, 10.0, "10", True, None])
    def test_header_n_must_equal_packed_rows(self, rng, n, tmp_path):
        path = tmp_path / "bad.slar"
        path.write_bytes(vqae_slar_with_header(rng, lambda h: h.update(n=n)))
        with pytest.raises(ArchiveError, match="disagrees with 10 packed index rows"):
            decompress_vqae_archive(read_archive(path))

    def test_zero_row_archive_raises_archive_error(self, rng, tmp_path):
        model = f32_model(rng)   # k = 5, m = 2
        archive = vqae_archive(model, compress(random_labels(rng, 10, 6), model))
        header = dict(archive.header, n=0)
        path = tmp_path / "empty.slar"
        write_archive(CompressedArchive(CODEC_VQAE, header, archive.arrays,
                                        {"indices": (np.zeros((0, 2), dtype=np.int64), 3)}), path)
        with pytest.raises(ArchiveError, match="n >= 1"):
            decompress_vqae_archive(read_archive(path))


class TestModelFile:
    def test_roundtrip(self, rng, tmp_path):
        model = f32_model(rng)
        path = tmp_path / "model.slvq"
        write_model(model, path, "literal_stop_gradient", epsilon=1e-5)
        back, mode, epsilon = read_model(path)
        assert mode == "literal_stop_gradient"
        assert epsilon == 1e-5
        np.testing.assert_array_equal(back.encoder, model.encoder)
        np.testing.assert_array_equal(back.decoder, model.decoder)
        np.testing.assert_array_equal(back.codebook, model.codebook)

    def test_truncated_model(self, rng, tmp_path):
        model = f32_model(rng)
        path = tmp_path / "model.slvq"
        write_model(model, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ArchiveError):
            read_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.slvq"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(ArchiveError):
            read_model(path)

    def test_shorter_than_header(self, tmp_path):
        path = tmp_path / "short.slvq"
        path.write_bytes(b"SLVQ" + b"\x01" * 6)
        with pytest.raises(ArchiveError):
            read_model(path)

    def test_decode_side_model_not_written(self, rng, tmp_path):
        full = f32_model(rng)
        path = tmp_path / "model.slvq"
        with pytest.raises(ModelValidationError):
            write_model(VqaeModel(None, full.decoder, full.codebook), path)
        assert not path.exists()

    def test_model_file_is_a_slar_container(self, rng, tmp_path):
        model = f32_model(rng)
        path = tmp_path / "model.slvq"
        write_model(model, path, "literal_stop_gradient", epsilon=1e-5)
        archive = read_archive(path)
        assert path.read_bytes()[:4] == SLAR_MAGIC
        assert sorted(archive.arrays) == ["codebook", "decoder", "encoder"]
        assert archive.header == {"c": 6, "d_h": 8, "d_c": 4, "k": 5, "epsilon": 1e-5,
                                  "gradient_mode": "literal_stop_gradient"}

    def test_failed_write_leaves_existing_file(self, rng, tmp_path):
        path = tmp_path / "model.slvq"
        write_model(f32_model(rng), path)
        before = path.read_bytes()
        unpackable = CompressedArchive(CODEC_VQAE, {}, packed={"indices": (np.array([[9]]), 2)})
        with pytest.raises(ArchiveError):
            write_archive(unpackable, path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("writer, name", [("model", "encoder"), ("model", "decoder"),
                                              ("model", "codebook"), ("archive", "decoder"),
                                              ("archive", "codebook")])
    def test_weights_float32_cannot_hold_rejected(self, rng, tmp_path, writer, name):
        model = f32_model(rng)
        weights = {"encoder": model.encoder, "decoder": model.decoder, "codebook": model.codebook}
        weights[name] = weights[name] * -1e39
        big = VqaeModel(**weights)
        path = tmp_path / "model.slvq"
        with warnings.catch_warnings(), pytest.raises(ModelValidationError, match="float32"):
            warnings.simplefilter("error")
            if writer == "model":
                write_model(big, path)
            else:
                write_archive(vqae_archive(big, np.zeros((1, big.m), dtype=np.int64)), path)
        assert not path.exists()

    @pytest.mark.parametrize("name", sorted(MODEL_EDITS))
    def test_inconsistent_model_raises_archive_error(self, rng, name, tmp_path):
        model = f32_model(rng)
        header = {"c": model.c, "d_h": model.d_h, "d_c": model.d_c, "k": model.k,
                  "epsilon": 1e-8, "gradient_mode": "straight_through"}
        arrays = {"encoder": model.encoder, "decoder": model.decoder, "codebook": model.codebook}
        edit, message = MODEL_EDITS[name]
        edit(header, arrays)
        path = tmp_path / "bad.slvq"
        write_archive(CompressedArchive(CODEC_VQAE, header, arrays), path)
        with pytest.raises(ArchiveError, match=re.escape(message)):
            read_model(path)
