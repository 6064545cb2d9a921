import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slvq.labels import (
    LabelFileError,
    LabelValidationError,
    LogitMatrix,
    SoftLabelMatrix,
    read_labels_csv,
    read_slab,
    softmax_labels,
    stable_softmax,
    validate_simplex,
    write_labels_csv,
    write_slab,
)

from conftest import random_labels


class TestSoftLabelMatrix:
    def test_valid_matrix_accepted(self, rng):
        labels = random_labels(rng, 5, 10)
        assert labels.n == 5
        assert labels.c == 10

    def test_minimum_shape(self):
        SoftLabelMatrix(np.array([[0.5, 0.5]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(LabelValidationError):
            SoftLabelMatrix(np.array([[0.5, 0.6]]))

    def test_rejects_negative_entry(self):
        with pytest.raises(LabelValidationError):
            SoftLabelMatrix(np.array([[1.2, -0.2]]))

    def test_rejects_non_finite(self):
        with pytest.raises(LabelValidationError):
            SoftLabelMatrix(np.array([[np.nan, 1.0]]))

    def test_rejects_single_class(self):
        with pytest.raises(LabelValidationError):
            SoftLabelMatrix(np.ones((3, 1)))

    def test_rejects_empty(self):
        with pytest.raises(LabelValidationError):
            SoftLabelMatrix(np.zeros((0, 4)))

    def test_rejects_unknown_precision_tag(self):
        with pytest.raises(LabelValidationError):
            SoftLabelMatrix(np.array([[0.5, 0.5]]), precision_tag="double")

    def test_tolerates_tiny_sum_error(self):
        SoftLabelMatrix(np.array([[0.5, 0.5 + 5e-7]]))

    def test_data_is_float64(self, rng):
        labels = SoftLabelMatrix(rng.dirichlet(np.ones(4), size=3).astype(np.float32))
        assert labels.data.dtype == np.float64


class TestValidateSimplex:
    def test_reports_first_violation_kind(self):
        rep = validate_simplex(np.array([[0.5, 0.5], [0.7, 0.7]]))
        assert not rep.ok
        assert rep.violation.kind == "row_sum"
        assert rep.violation.row == 1

    def test_negative_entry_location(self):
        rep = validate_simplex(np.array([[0.5, 0.5], [-0.1, 1.1]]))
        assert rep.violation.kind == "negative_entry"
        assert (rep.violation.row, rep.violation.column) == (1, 0)

    def test_non_finite_wins_over_everything(self):
        rep = validate_simplex(np.array([[np.inf, 0.5]]))
        assert rep.violation.kind == "non_finite"

    def test_never_raises_and_accepts_matrix_object(self, rng):
        assert validate_simplex(random_labels(rng, 3, 4)).ok


class TestSoftmax:
    @given(hnp.arrays(np.float64, (4, 7),
                      elements=st.floats(-1e4, 1e4, allow_nan=False)))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_simplex(self, z):
        p = stable_softmax(z)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @given(hnp.arrays(np.float64, (3, 5), elements=st.floats(-50, 50)),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, z, shift):
        np.testing.assert_allclose(stable_softmax(z + shift), stable_softmax(z),
                                   atol=1e-12)

    def test_matches_direct_formula(self):
        z = np.array([[1.0, 2.0, 3.0]])
        expected = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(stable_softmax(z), expected, rtol=1e-14)

    def test_temperature_flattens(self):
        z = np.array([[0.0, 5.0]])
        hot = stable_softmax(z, temperature=10.0)
        cold = stable_softmax(z, temperature=0.1)
        assert hot[0, 1] < cold[0, 1]

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    def test_non_positive_temperature_rejected(self, temperature):
        with pytest.raises(LabelValidationError, match="temperature must be positive"):
            stable_softmax(np.array([[0.0, 5.0]]), temperature)

    def test_extreme_logits_do_not_overflow(self):
        p = stable_softmax(np.array([[1e4, -1e4, 0.0]]))
        assert np.isfinite(p).all()

    def test_softmax_labels_uses_temperature(self):
        logits = LogitMatrix(np.array([[0.0, 2.0]]), temperature=2.0)
        np.testing.assert_allclose(softmax_labels(logits).data,
                                   stable_softmax(np.array([[0.0, 2.0]]), 2.0))

    def test_logit_matrix_rejects_bad_temperature(self):
        with pytest.raises(LabelValidationError):
            LogitMatrix(np.zeros((1, 2)), temperature=0.0)

    def test_logit_matrix_rejects_nan(self):
        with pytest.raises(LabelValidationError):
            LogitMatrix(np.array([[np.nan, 0.0]]))


class TestSlabIO:
    def test_roundtrip_single(self, rng, tmp_path):
        labels = SoftLabelMatrix(rng.dirichlet(np.ones(6), size=8), precision_tag="single")
        path = tmp_path / "labels.slab"
        write_slab(labels, path)
        back = read_slab(path)
        assert back.precision_tag == "single"
        np.testing.assert_allclose(back.data, labels.data, atol=1e-6)

    def test_roundtrip_half_within_half_eps(self, rng, tmp_path):
        labels = random_labels(rng, 10, 16)
        path = tmp_path / "labels.slab"
        write_slab(labels, path)
        back = read_slab(path)
        np.testing.assert_allclose(back.data, labels.data, atol=2e-3)
        np.testing.assert_allclose(back.data.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.slab"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(LabelFileError):
            read_slab(path)

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "trunc.slab"
        write_slab(random_labels(rng, 4, 4), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(LabelFileError):
            read_slab(path)

    def test_unknown_version(self, rng, tmp_path):
        path = tmp_path / "ver.slab"
        write_slab(random_labels(rng, 2, 3), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(LabelFileError):
            read_slab(path)

    def test_unknown_precision_code(self, rng, tmp_path):
        path = tmp_path / "prec.slab"
        write_slab(random_labels(rng, 2, 3), path)
        blob = bytearray(path.read_bytes())
        blob[14] = 7   # magic 4, version 2, c 4, n 4, then the precision code
        path.write_bytes(bytes(blob))
        with pytest.raises(LabelFileError, match="unknown precision code 7"):
            read_slab(path)

    @pytest.mark.parametrize("precision, code", [("half", 0), ("single", 1)])
    def test_writer_stores_the_precision_code(self, rng, tmp_path, precision, code):
        path = tmp_path / "labels.slab"
        write_slab(SoftLabelMatrix(rng.dirichlet(np.ones(3), size=2), precision_tag=precision), path)
        assert path.read_bytes()[14] == code   # magic 4, version 2, c 4, n 4, then the precision code


class TestCsvIO:
    def test_roundtrip(self, rng, tmp_path):
        labels = random_labels(rng, 5, 4)
        path = tmp_path / "labels.csv"
        write_labels_csv(labels, path)
        back = read_labels_csv(path)
        np.testing.assert_allclose(back.data, labels.data, rtol=1e-15)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(LabelFileError):
            read_labels_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("0,1,2\n")
        with pytest.raises(LabelFileError):
            read_labels_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1\n0.5,0.5\n0.5\n")
        with pytest.raises(LabelFileError):
            read_labels_csv(path)

    def test_blank_line_is_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("0,1\n0.25,0.75\n\n0.5,0.5\n")
        np.testing.assert_array_equal(read_labels_csv(path).data, [[0.25, 0.75], [0.5, 0.5]])

    @pytest.mark.parametrize("blob, message", [
        (b"0,1\n0.5,0.5\n\xff\xfe\n", "'utf-8' codec can't decode"),
        (b'0,1\n"' + b"x" * 200_000 + b'",1\n', "field larger than field limit")],
        ids=["not utf-8", "field over the csv limit"])
    def test_unreadable_file_is_a_label_file_error(self, tmp_path, blob, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(blob)
        with pytest.raises(LabelFileError, match=f"bad.csv: {message}"):
            read_labels_csv(path)


def slab_bytes(rows, precision="half"):
    dtype, code = {"half": ("<f2", 0), "single": ("<f4", 1)}[precision]
    data = np.asarray(rows, dtype=dtype)
    return b"SLAB" + struct.pack("<HIIB", 1, data.shape[1], data.shape[0], code) + data.tobytes()


class TestSlabSimplexRule:
    """A SLAB row is renormalized only by the error its storage rounding
    explains; a row off by more is rejected, naming the row, as in CSV."""

    def test_row_off_the_simplex_rejected_as_in_csv(self, tmp_path):
        slab, csv_path = tmp_path / "bad.slab", tmp_path / "bad.csv"
        slab.write_bytes(slab_bytes([[2, 2]]))
        csv_path.write_text("0,1\n2,2\n")
        with pytest.raises(LabelFileError) as from_slab:
            read_slab(slab)
        with pytest.raises(LabelValidationError) as from_csv:
            read_labels_csv(csv_path)
        assert str(from_slab.value) == f"{slab}: row 0: sum off by 3"
        assert str(from_csv.value).endswith("row 0: sum off by 3")

    def test_names_the_row_beyond_the_bound(self, tmp_path):
        # row 0 is off by one half-precision step at 0.5 (4.9e-4), within the bound
        path = tmp_path / "bad.slab"
        path.write_bytes(slab_bytes([[0.5, np.nextafter(np.float16(0.5), np.float16(1))],
                                     [0.25, 0.25], [0.5, 0.5]]))
        with pytest.raises(LabelFileError, match="row 1: sum off by -0.5"):
            read_slab(path)

    @pytest.mark.parametrize("off, ok", [(5e-7, True), (2e-6, False)])
    def test_single_precision_bound(self, tmp_path, off, ok):
        # the bound at single precision is 1e-6 + eps + c * smallest subnormal, about 1.1e-6
        path = tmp_path / "labels.slab"
        path.write_bytes(slab_bytes([[0.25, 0.75], [0.5, 0.5 + off]], "single"))
        if ok:
            np.testing.assert_allclose(read_slab(path).data.sum(axis=1), 1.0, atol=1e-15)
        else:
            with pytest.raises(LabelFileError, match="row 1: sum off by"):
                read_slab(path)

    @pytest.mark.parametrize("precision", ["half", "single"])
    @pytest.mark.parametrize("c, alpha", [(1000, 0.05), (1000, 1.0), (4000, 0.01)])
    def test_stored_dirichlet_labels_read_back(self, tmp_path, precision, c, alpha):
        labels = SoftLabelMatrix(np.random.default_rng(c).dirichlet(np.full(c, alpha), size=50),
                                 precision_tag=precision)
        write_slab(labels, tmp_path / "labels.slab")
        back = read_slab(tmp_path / "labels.slab")
        np.testing.assert_allclose(back.data, labels.data, atol=2e-3)
