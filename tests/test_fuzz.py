"""Byte-mutation and truncation fuzzing of the files slvq reads, and
argument fuzzing of ``slvq fit``, ``eval``, ``solve`` and ``budget``.

Model files and label archives are CRC-checked SLAR containers, so every
altered one must be rejected with exit 2. SLAB and CSV label files carry no
checksum: an altered one may still be valid, but it must never escape as a
traceback.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slvq.archive import write_model
from slvq.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from slvq.labels import write_labels_csv, write_slab

from conftest import random_labels
from test_archive import f32_model


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Pristine label files (SLAB and CSV), model file and label archive, keyed by kind."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(99)
    paths = {"labels": root / "labels.slab", "csv labels": root / "labels.csv",
             "model": root / "model.slvq", "archive": root / "labels.slar"}
    labels = random_labels(rng, 8, 10)
    write_slab(labels, paths["labels"])
    write_labels_csv(labels, paths["csv labels"])
    write_model(f32_model(rng, c=10, d_h=4, d_c=2, k=4), paths["model"])
    assert cli(compress_argv(paths, paths["archive"]))[0] == EXIT_OK
    return {kind: (path, path.read_bytes()) for kind, path in paths.items()}


def cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def compress_argv(paths, out):
    return ["compress", "--labels", paths["labels"], "--model", paths["model"], "--out", out]


def alter(data, blob: bytes) -> bytes:
    """Truncate ``blob`` or flip bits of one of its bytes."""
    position = data.draw(st.integers(0, len(blob) - 1))
    if data.draw(st.booleans()):
        return blob[:position]
    mutated = bytearray(blob)
    mutated[position] ^= data.draw(st.integers(1, 255))
    return bytes(mutated)


def run_altered(files, kind, data):
    paths = {name: path for name, (path, _) in files.items()}
    path, blob = files[kind]
    paths[kind] = path.with_name("altered" + path.suffix)
    paths[kind].write_bytes(alter(data, blob))
    if kind == "archive":
        return cli(["decompress", "--archive", paths["archive"],
                    "--out", path.with_name("out.slab")])
    if kind == "csv labels":
        paths["labels"] = paths[kind]
    return cli(compress_argv(paths, path.with_name("out.slar")))


@pytest.mark.parametrize("kind", ["model", "archive"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_altered_container_exits_2(files, kind, data):
    code, err = run_altered(files, kind, data)
    assert code == EXIT_DATA
    assert err.startswith("error:")


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_altered_label_file_exits_0_or_2(files, data):
    for kind in ("labels", "csv labels"):
        code, err = run_altered(files, kind, data)
        assert code in (EXIT_OK, EXIT_DATA)
        assert code == EXIT_OK or err.startswith("error:")


@given(d_h=st.integers(-2, 9), d_c=st.integers(-2, 9), k=st.integers(-2, 9),
       batch_size=st.integers(-2, 70), steps=st.integers(-2, 3))
@settings(max_examples=100, deadline=None)
def test_fit_arguments_exit_0_or_one_error_line(files, d_h, d_c, k, batch_size, steps):
    labels = files["labels"][0]
    out = labels.with_name("fuzz.slvq")
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = cli(["fit", "--labels", labels, "--out", out, "--d-h", d_h, "--d-c", d_c,
                         "--k", k, "--batch-size", batch_size, "--steps", steps])
    if code == EXIT_OK:
        assert err == ""
        assert cli(compress_argv({"labels": labels, "model": out},
                                 labels.with_name("fuzz.slar")))[0] == EXIT_OK
    else:
        assert code == EXIT_DATA
        assert err.startswith("error:") and err.count("\n") == 1


def ints(lo, hi, least):
    """Integers in lo..hi, drawn from the valid least..hi about half the time."""
    return st.integers(least, hi) | st.integers(lo, hi)


# Each flag's strategy; None leaves the flag out. Eval shapes stay tiny and
# solve's classes stay at or below 20, so each run takes well under a second.
K = st.sampled_from([3, 5, 6, 12, 100]) | st.sampled_from([-1, 0, 1, 2, 16, 1024])
SEEDS = ints(-2, 3, 0)
TARGETS = st.floats(1.5, 300).map(repr) | st.sampled_from(["nan", "inf", "-inf", "1", "0.5", "-2"])
COMMAND_FLAGS = {
    "eval": {"classes": ints(1, 4, 2), "n-per-class": ints(0, 4, 1), "views": ints(0, 2, 1),
             "dim": ints(0, 3, 1), "steps": ints(-1, 3, 0), "student-epochs": ints(-1, 2, 1),
             "k": K, "seed": SEEDS},
    "solve": {"target": TARGETS, "ipc": ints(-1, 50, 1), "classes": ints(-1, 20, 1),
              "epochs": ints(-1, 300, 1), "aug": st.none() | ints(-1, 3, 1), "seed": SEEDS},
    "budget": {"ipc": ints(-1, 100, 1), "classes": ints(-1, 1000, 1), "epochs": ints(-1, 300, 1),
               "aug": st.none() | ints(-1, 3, 1), "d-h": st.none() | ints(-1, 1000, 1),
               "d-c": st.none() | ints(-1, 50, 1), "k": st.none() | K, "seed": SEEDS},
}


@st.composite
def command_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag, strategy in COMMAND_FLAGS[command].items():
        value = draw(strategy)
        if value is not None:
            argv.append(f"--{flag}={value}")
    return argv + draw(st.sampled_from([[], ["--json"]]))


@given(argv=command_argv())
@settings(max_examples=300, deadline=None)
def test_eval_solve_budget_exit_0_or_one_error_line(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = cli(argv)
    if code == EXIT_OK:
        assert err == ""
    else:
        assert code in (EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
        assert err.startswith(("error:", "numeric failure:")) and err.count("\n") == 1
