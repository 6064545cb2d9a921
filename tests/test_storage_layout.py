"""The storage layout has one home: the accountant prices what the writer
stores, a report's total is the sum of its breakdown, and the harness and
``slvq eval`` reject bad counts before they train anything."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slvq import budget as bd
from slvq import harness as hz
from slvq.archive import _encode_archive, _index_bits, packed_row_bytes, vqae_archive
from slvq.cli import EXIT_DATA
from slvq.labels import LabelValidationError
from slvq.vqae import ModelValidationError

from test_archive import f32_model
from test_cli import run


def slar_sections(blob: bytes) -> dict:
    """Walk a SLAR file by its documented layout, independently of the reader:
    {section name: the bytes it stores}."""
    off = 4 + 2 + 1                                        # magic, version, codec id
    (header_len,) = struct.unpack_from("<I", blob, off)
    off += 4 + header_len
    sections = {}
    for frame in ("<II", "<IIB"):                          # arrays, then packed index matrices
        (count,) = struct.unpack_from("<H", blob, off)
        off += 2
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, off)
            name = blob[off + 2:off + 2 + name_len].decode()
            off += 2 + name_len
            dims = struct.unpack_from(frame, blob, off)
            off += struct.calcsize(frame)
            size = dims[0] * dims[1] * 4 if frame == "<II" else dims[0] * packed_row_bytes(*dims[1:])
            sections[name] = blob[off:off + size]
            off += size
    assert off == len(blob) - 4                            # the CRC32 trailer is all that is left
    return sections


class TestReportTotals:
    @pytest.mark.parametrize("c", [100, 1000])
    def test_topk_total_is_the_sum_of_its_breakdown(self, c):
        spec = bd.BudgetSpec(10, c, 300)
        for k_top in range(1, c + 1):
            report = bd.topk_bytes(spec, k_top)
            assert report.compressed_bytes == sum(report.breakdown.values()), k_top

    def test_every_report_total_is_the_sum_of_its_breakdown(self):
        spec = bd.BudgetSpec(10, 100, 300, d_h=400, d_c=40, k=256)
        for report in (bd.vq_bytes(spec), bd.pca_bytes(spec, 7), bd.quant_bytes(spec, 3)):
            assert report.compressed_bytes == sum(report.breakdown.values())
            assert report.as_dict()["compressed_bytes"] == report.compressed_bytes


class TestAccountantPricesTheWriter:
    @settings(max_examples=60, deadline=None)
    @given(ipc=st.integers(1, 4), c=st.integers(2, 12), d_c=st.integers(1, 6),
           segments=st.integers(1, 5), k=st.integers(2, 300), seed=st.integers(0, 2**16))
    def test_archive_sections_are_what_vq_bytes_prices(self, ipc, c, d_c, segments, k, seed):
        rng = np.random.default_rng(seed)
        d_h, n = d_c * segments, ipc * c
        model = f32_model(rng, c=c, d_h=d_h, d_c=d_c, k=k)
        indices = rng.integers(0, k, size=(n, model.m))
        sections = slar_sections(_encode_archive(vqae_archive(model, indices)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # an inexact k warns; the sizes are still exact
            report = bd.vq_bytes(bd.BudgetSpec(ipc, c, 1, d_h=d_h, d_c=d_c, k=k))
        bits = bd.bits_per_index(k)
        assert len(sections["decoder"]) == report.breakdown["decoder"]
        assert len(sections["codebook"]) == report.breakdown["codebook"]
        assert len(sections["indices"]) == n * packed_row_bytes(model.m, bits)
        if model.m * bits % 8 == 0:
            assert len(sections["indices"]) == report.breakdown["batch_data"]

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 255, 256, 257, 2**20, np.int64(512)])
    def test_one_index_width(self, k):
        assert bd.bits_per_index(k) == _index_bits(k) == int(np.ceil(np.log2(int(k))))

    def test_one_code_is_archived_at_one_bit_but_not_priced(self, rng):
        model = f32_model(rng, c=4, d_h=4, d_c=2, k=1)
        archive = vqae_archive(model, np.zeros((3, model.m), dtype=np.int64))
        assert archive.packed["indices"][1] == _index_bits(1) == 1
        with pytest.raises(bd.BudgetError):
            bd.bits_per_index(1)

    def test_both_writers_store_epsilon_as_a_float(self, rng):
        model = f32_model(rng)
        archive = vqae_archive(model, np.zeros((2, model.m), dtype=np.int64), epsilon=1)
        assert type(archive.header["epsilon"]) is float
        assert b'"epsilon": 1.0' in _encode_archive(archive)

    def test_widths_come_from_the_stored_types(self):
        assert (bd.HALF_LABEL_BYTES, bd.F32_PARAM_BYTES) == (2, 4)
        assert type(bd.HALF_LABEL_BYTES) is int and type(bd.F32_PARAM_BYTES) is int
        assert bd.llm_raw_bytes(3, 5) == 3 * 5 * bd.HALF_LABEL_BYTES


class TestEvalPricesBeforeTraining:
    @pytest.mark.parametrize("argv", [["--account-epochs", "0"], ["--k", "1"]], ids=" ".join)
    def test_bad_budget_exits_before_the_teacher_trains(self, capsys, monkeypatch, argv):
        def no_training(*args, **kwargs):
            raise AssertionError("train_teacher was called")
        monkeypatch.setattr(hz, "train_teacher", no_training)
        code, _, err = run(capsys, "eval", "--classes", "4", "--n-per-class", "2", "--views", "1",
                           "--steps", "5", "--student-epochs", "1", *argv)
        assert code == EXIT_DATA
        assert err.startswith("error:") and err.count("\n") == 1


class TestHarnessCounts:
    @pytest.fixture(scope="class")
    def task(self):
        return hz.make_task(0, d=3, c=3, n_per_class=4)

    @pytest.mark.parametrize("hidden", [0, -1, 2.5, True], ids=repr)
    def test_hidden_width_is_a_count(self, task, hidden):
        with pytest.raises(ModelValidationError, match="hidden"):
            hz.init_mlp(3, hidden, 3, seed=0)
        with pytest.raises(ModelValidationError, match="hidden"):
            hz.train_teacher(task, hidden=hidden, epochs=1)

    @pytest.mark.parametrize("seed", [-1, 1.5], ids=repr)
    def test_seeds_are_counts_from_zero(self, task, seed):
        with pytest.raises(LabelValidationError, match="seed"):
            hz.make_task(seed, d=3, c=3, n_per_class=2)
        with pytest.raises(ModelValidationError, match="seed"):
            hz.init_mlp(3, 4, 3, seed=seed)
        with pytest.raises(ModelValidationError, match="seed"):
            hz.train_teacher(task, epochs=1, seed=seed)
        with pytest.raises(ModelValidationError, match="seed"):
            hz.train_mlp_kl(hz.init_mlp(3, 4, 3, seed=0), task.x_train,
                            np.eye(3)[task.y_train][None], tau=1.0, epochs=1, batch_size=4, seed=seed)
        with pytest.raises(LabelValidationError, match="seed"):
            hz.cache_teacher_labels(hz.init_mlp(3, 4, 3, seed=0), task, seed=seed)

    def test_seed_zero_and_numpy_counts_still_train(self, task):
        teacher = hz.train_teacher(task, hidden=np.int64(4), epochs=1, seed=np.int64(0))
        labels = hz.cache_teacher_labels(teacher, task, seed=np.int64(0))
        assert labels.n == task.x_train.shape[0]
