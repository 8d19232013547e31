import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import enns.cli
import enns.cores
from enns.cli import (
    ExperimentConfig,
    main,
    parse_experiment_config,
    read_matrix_csv,
    write_matrix_csv,
)
from enns.network import forward_batch, load_model
from enns.metrics import regression_metrics


def run(*argv):
    return main([str(a) for a in argv])


def gen_small(tmp_path, n=60, p=8, s=2, task="regression", seed=5, response="network"):
    out = tmp_path / "data"
    code = run(
        "gen-data", "--out-dir", out, "--n", n, "--p", p, "--response", response,
        "--task", task, "--s", s, "--seed", seed, "--coef-mean", 10, "--coef-sd", 1,
    )
    assert code == 0
    return out


# --- gen-data --------------------------------------------------------------------


def test_gen_data_shapes_and_truth(tmp_path):
    out = tmp_path / "d"
    assert run("gen-data", "--out-dir", out, "--n", 3, "--p", 2, "--response", "linear", "--s", 2) == 0
    lines = (out / "X.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert lines[0] == "x1,x2"
    assert (out / "y.csv").read_text().splitlines()[0] == "y"
    truth = json.loads((out / "truth.json").read_text())
    assert truth["support"] == [1, 2]


def test_gen_data_truth_support_convention(tmp_path):
    out = tmp_path / "d"
    assert run("gen-data", "--out-dir", out, "--n", 10, "--p", 7, "--response", "additive", "--s", 5) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert truth["support"] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("out", ["file", "file/d"])
def test_gen_data_out_dir_under_a_file_fails_before_any_draw(tmp_path, capsys, monkeypatch, out):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(enns.cli, "gen_design_uniform", no_work)
    out = tmp_path / out
    assert run("gen-data", "--out-dir", out, "--n", 10, "--p", 4, "--response", "linear", "--s", 2) == 2
    assert capsys.readouterr().err == f"data error: cannot write {out}: Not a directory\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]


def test_gen_data_deterministic(tmp_path):
    a = gen_small(tmp_path / "a")
    b = gen_small(tmp_path / "b")
    assert (a / "X.csv").read_bytes() == (b / "X.csv").read_bytes()
    assert (a / "y.csv").read_bytes() == (b / "y.csv").read_bytes()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-8, 8, size=(20, 3))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, ["a", "b", "c"], x)
    header, back = read_matrix_csv(path)
    assert header == ["a", "b", "c"]
    np.testing.assert_array_equal(x, back)


# --- select ----------------------------------------------------------------------


def test_select_dnp_cardinality(tmp_path):
    data = gen_small(tmp_path, p=5, s=2)
    out = tmp_path / "sel.json"
    code = run(
        "select", "--x", data / "X.csv", "--y", data / "y.csv", "--method", "dnp",
        "--s0", 3, "--epochs", 15, "--out", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["selected"]) == 3
    assert all(1 <= j <= 5 for j in doc["selected"])
    assert doc["rounds"] == []
    assert "wall_clock_seconds" in doc


def test_select_enns_single_bag_reduces_to_dnp(tmp_path):
    data = gen_small(tmp_path, p=6, s=2, seed=9)
    out_e = tmp_path / "enns.json"
    out_d = tmp_path / "dnp.json"
    common = ["--x", data / "X.csv", "--y", data / "y.csv", "--s0", 2, "--epochs", 15, "--seed", 4]
    assert run("select", *common, "--method", "enns", "--bags", 1, "--ps", 1.0,
               "--per-round", 2, "--bootstrap-size", 60, "--out", out_e) == 0
    assert run("select", *common, "--method", "dnp", "--out", out_d) == 0
    enns_doc = json.loads(out_e.read_text())
    dnp_doc = json.loads(out_d.read_text())
    # one full-size bag with consensus filter 1: same features modulo bootstrap resampling
    assert len(enns_doc["selected"]) == len(dnp_doc["selected"]) == 2
    assert enns_doc["complete"]


def test_select_strong_signal_finds_support(tmp_path):
    hits = 0
    for seed in range(6):
        data = gen_small(tmp_path / f"d{seed}", n=150, p=40, s=2, seed=seed)
        out = tmp_path / f"sel{seed}.json"
        assert run(
            "select", "--x", data / "X.csv", "--y", data / "y.csv", "--method", "enns",
            "--s0", 2, "--epochs", 30, "--seed", seed, "--out", out,
        ) == 0
        doc = json.loads(out.read_text())
        hits += set(doc["selected"]) == {1, 2}
    assert hits >= 5


def test_select_rejects_oversized_s0(tmp_path, capsys):
    data = gen_small(tmp_path, p=4, s=2)
    assert run("select", "--x", data / "X.csv", "--y", data / "y.csv", "--s0", 9) == 1
    assert capsys.readouterr().err == "error: s0=9 exceeds the number of columns (4)\n"
    for method in ("dnp", "enns"):
        for s0 in (0, -1):
            # a usage error naming --s0, raised before the (missing) CSVs are read
            argv = ["--x", tmp_path / "no.csv", "--y", tmp_path / "no2.csv", "--method", method, "--s0", s0]
            assert run("select", *argv) == 1
            assert capsys.readouterr().err == "error: --s0 must be positive\n"


def test_select_malformed_csv_is_data_error(tmp_path):
    x = tmp_path / "X.csv"
    x.write_text("x1,x2\n0.1,0.2\n0.3,oops\n")
    y = tmp_path / "y.csv"
    y.write_text("y\n1\n2\n")
    assert run("select", "--x", x, "--y", y, "--s0", 1) == 2


@pytest.mark.parametrize(
    "text",
    ["x1,x2\n0.1,0.2\n0.3,0.4,0.5\n", "x1,x2\n0.1\n0.3\n", "x1,x2\n", "x1,x2", ""],
    ids=["long-row", "short-rows", "header-only", "header-only-no-newline", "empty"],
)
def test_malformed_csv_is_data_error_without_warning(tmp_path, text, recwarn, capsys):
    x = tmp_path / "X.csv"
    x.write_text(text)
    y = tmp_path / "y.csv"
    y.write_text("y\n1\n2\n")
    assert run("select", "--x", x, "--y", y, "--s0", 1) == 2
    assert str(x) in capsys.readouterr().err
    assert len(recwarn) == 0


def test_read_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.5,-2\n\n3,4e-3\n\n")
    header, x = read_matrix_csv(path)
    assert header == ["a", "b"]
    np.testing.assert_array_equal(x, [[1.5, -2.0], [3.0, 4e-3]])


def test_select_missing_file_is_data_error(tmp_path):
    assert run("select", "--x", tmp_path / "no.csv", "--y", tmp_path / "no2.csv", "--s0", 1) == 2


# --- CSV data lines parsed over byte ranges in forked workers ---------------------


def spy(mp, name):
    """Record every result of ``enns.cli.<name>`` in the returned list."""
    results = []
    real = getattr(enns.cli, name)

    def recorded(*args):
        results.append(real(*args))
        return results[-1]

    mp.setattr(enns.cli, name, recorded)
    return results


def force_ranges(mp, k):
    """Split every CSV read into up to k byte ranges (k usable cores, 1-byte
    ranges). Returns the list of split results, None where the read fell back
    to one range."""
    mp.setattr(enns.cli, "_RANGE_BYTES", 1)
    mp.setattr(enns.cli, "usable_cores", lambda: k)
    return spy(mp, "_parse_split")


def read_one_range(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enns.cli, "_RANGE_BYTES", 1 << 62)
        return read_matrix_csv(path)


CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def csv_files(draw):
    """A CSV file with 1-40 rows of 1-6 columns written with 17 significant
    digits, LF, CRLF or lone-CR line ends, blank lines and maybe no final
    newline; returned as its bytes and the header's line end."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    x = draw(arrays(np.float64, (rows, cols), elements=CELLS))
    eol = st.sampled_from(["\n", "\r\n", "\r"])
    header_eol = draw(eol)
    lines = [",".join(f"c{j}" for j in range(cols)) + header_eol]
    for row in x:
        lines.append(",".join("%.17g" % v for v in row) + draw(eol))
        if draw(st.booleans()):
            lines.append(draw(eol))
    text = "".join(lines)
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode(), header_eol


@settings(deadline=None, max_examples=60)
@given(file=csv_files())
def test_split_parse_is_bit_identical_to_one_range(tmp_path_factory, file):
    data, header_eol = file
    path = tmp_path_factory.mktemp("split") / "m.csv"
    path.write_bytes(data)
    header, x = read_one_range(path)
    data_bytes = len(data) - data.index(header_eol.encode()) - len(header_eol)
    for k in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            splits = force_ranges(mp, k)
            got_header, got = read_matrix_csv(path)
        assert got_header == header
        assert got.shape == x.shape and got.tobytes() == x.tobytes()
        # one worker per range, an empty range included (fewer rows than
        # cores); a header ended by a lone CR is not split
        assert (splits[0] is not None) == (min(k, data_bytes) >= 2 and header_eol != "\r")
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpu_max, split", [("max 100000\n", True), ("100000 100000\n", False)])
def test_split_worker_count_follows_cgroup_quota(tmp_path, monkeypatch, cpu_max, split):
    path = tmp_path / "m.csv"
    path.write_text("x1,x2\n" + "0.5,1.5\n" * 30)
    (tmp_path / "cpu.max").write_text(cpu_max)
    monkeypatch.setattr(enns.cores, "CPU_MAX", tmp_path / "cpu.max")
    monkeypatch.setattr(enns.cores.os, "sched_getaffinity", lambda pid: set(range(3)))
    splits = force_ranges(monkeypatch, 3)
    # back to the real count: 3 cores of affinity, capped by cpu.max
    monkeypatch.setattr(enns.cli, "usable_cores", enns.cores.usable_cores)
    assert read_matrix_csv(path)[1].tobytes() == read_one_range(path)[1].tobytes()
    assert (splits[0] is not None) == split


SPLIT_ERRORS = {
    "bad-cell-last-range": "x1,x2\n" + "0.5,1.5\n" * 30 + "0.5,oops\n",
    "ragged-last-range": "x1,x2\n" + "0.5,1.5\n" * 30 + "0.5,1.5,2.5\n" * 20,
    "long-rows-every-range": "x1,x2\n" + "0.5,1.5,2.5\n" * 30,
    "header-only": "x1,x2\n",
    "empty": "",
}


@pytest.mark.parametrize("worker", ["parses", "dies"])
@pytest.mark.parametrize("name", sorted(SPLIT_ERRORS))
def test_split_errors_match_one_range(tmp_path, monkeypatch, recwarn, capsys, name, worker):
    x = tmp_path / "X.csv"
    x.write_text(SPLIT_ERRORS[name])
    y = tmp_path / "y.csv"
    y.write_text("y\n" + "1\n" * 31)
    with pytest.raises(enns.cli.DataError) as one_range:
        read_one_range(x)
    force_ranges(monkeypatch, 3)
    if worker == "dies":
        monkeypatch.setattr(enns.cli, "_range_worker", lambda *args: os._exit(1))
    with pytest.raises(enns.cli.DataError) as split:
        read_matrix_csv(x)
    assert str(split.value) == str(one_range.value)
    assert run("select", "--x", x, "--y", y, "--s0", 1) == 2
    assert capsys.readouterr().err == f"data error: {one_range.value}\n"
    assert len(recwarn) == 0
    assert multiprocessing.active_children() == []


def test_dead_worker_falls_back_to_one_range(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, ["a", "b", "c"], np.random.default_rng(1).normal(size=(30, 3)))
    header, x = read_one_range(path)
    splits = force_ranges(monkeypatch, 2)
    monkeypatch.setattr(enns.cli, "_range_worker", lambda *args: os._exit(1))
    got_header, got = read_matrix_csv(path)
    assert splits == [None]
    assert got_header == header and got.tobytes() == x.tobytes()
    assert multiprocessing.active_children() == []


def split_input(tmp_path, rows=100):
    """A CSV of rows x 12 normal draws (about 27 KB at 100 rows) and its one-range parse."""
    path = tmp_path / "m.csv"
    header = [f"x{j}" for j in range(1, 13)]
    write_matrix_csv(path, header, np.random.default_rng(2).normal(size=(rows, 12)))
    return path, read_one_range(path)


def test_csv_from_a_pipe_parses_as_the_regular_file(tmp_path, monkeypatch):
    path, (header, x) = split_input(tmp_path)
    data = path.read_bytes()
    assert 16_384 < len(data) < 65_536  # past the text reader's buffer, within the pipe's
    splits = force_ranges(monkeypatch, 2)
    r, w = os.pipe()
    try:
        assert os.write(w, data) == len(data)
        os.close(w)
        got_header, got = read_matrix_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
    # a pipe cannot be read twice, so it is never split
    assert splits == [None]
    assert got_header == header and got.tobytes() == x.tobytes()


def test_short_reads_in_a_worker_are_completed(tmp_path, monkeypatch):
    path, (header, x) = split_input(tmp_path)
    pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, offset: pread(fd, min(n, 100), offset))
    splits = force_ranges(monkeypatch, 2)
    got_header, got = read_matrix_csv(path)
    assert splits[0] is not None
    assert got_header == header and got.tobytes() == x.tobytes()
    assert multiprocessing.active_children() == []


def test_warned_fork_falls_back_to_one_range(tmp_path, monkeypatch):
    path, (header, x) = split_input(tmp_path)
    fork = os.fork

    def warned_fork():
        pid = fork()
        if pid:  # as Python 3.12 and later warn in a multi-threaded parent
            warnings.warn("use of fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warned_fork)
    splits = force_ranges(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_header, got = read_matrix_csv(path)
    assert splits == [None]
    assert got_header == header and got.tobytes() == x.tobytes()
    assert multiprocessing.active_children() == []


# --- matrix rows written over row ranges in forked workers --------------------------


def force_write_ranges(mp, k):
    """Split every matrix write into up to k row ranges (k usable cores,
    1-cell ranges). Returns the list of ``_write_split`` results, False where
    the write fell back to this process."""
    mp.setattr(enns.cli, "_RANGE_CELLS", 1)
    mp.setattr(enns.cli, "usable_cores", lambda: k)
    return spy(mp, "_write_split")


def write_one_range(path, header, x):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enns.cli, "_RANGE_CELLS", 1 << 62)
        write_matrix_csv(path, header, x)
    return path.read_bytes()


@settings(deadline=None, max_examples=40)
@given(x=st.integers(1, 40).flatmap(lambda rows: st.integers(1, 6).flatmap(
    lambda cols: arrays(np.float64, (rows, cols), elements=CELLS))))
def test_split_write_is_byte_identical_to_one_range(tmp_path_factory, x):
    path = tmp_path_factory.mktemp("split") / "m.csv"
    header = [f"c{j}" for j in range(x.shape[1])]
    one_range = write_one_range(path, header, x)
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in x]
    assert one_range == ("\n".join(lines) + "\n").encode()
    for k in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            splits = force_write_ranges(mp, k)
            write_matrix_csv(path, header, x)
        assert path.read_bytes() == one_range
        # one worker per range, an empty range included (fewer rows than cores)
        assert splits == [min(k, x.size) >= 2]
        assert [p.name for p in path.parent.iterdir()] == ["m.csv"]
        assert multiprocessing.active_children() == []


def dies_after_the_first_range(rows_worker):
    def worker(matrix, start, stop, out):
        if start == 0:
            rows_worker(matrix, start, stop, out)
        else:  # a partial row, then an exit that is not clean
            os.write(out, b"0.5,")
            os._exit(1)

    return worker


@pytest.mark.parametrize("worker", ["dies-at-once", "dies-after-writing"])
def test_dead_write_worker_falls_back_to_one_range(tmp_path, monkeypatch, worker):
    x = np.random.default_rng(3).normal(size=(30, 4))
    expected = write_one_range(tmp_path / "m.csv", list("abcd"), x)
    splits = force_write_ranges(monkeypatch, 3)
    if worker == "dies-at-once":
        monkeypatch.setattr(enns.cli, "_rows_worker", lambda *args: os._exit(1))
    else:
        monkeypatch.setattr(enns.cli, "_rows_worker", dies_after_the_first_range(enns.cli._rows_worker))
    copied = []
    copy = shutil.copyfileobj
    monkeypatch.setattr(shutil, "copyfileobj", lambda *args: copied.append(copy(*args)))
    write_matrix_csv(tmp_path / "m.csv", list("abcd"), x)
    assert splits == [False]
    # a range is copied up to its worker's end: after the first range and a
    # partial row, the copy is taken back
    assert len(copied) == (2 if worker == "dies-after-writing" else 1)
    assert (tmp_path / "m.csv").read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
    assert multiprocessing.active_children() == []


def test_warned_fork_falls_back_to_writing_here(tmp_path, monkeypatch):
    x = np.random.default_rng(4).normal(size=(30, 4))
    expected = write_one_range(tmp_path / "m.csv", list("abcd"), x)
    fork = os.fork

    def warned_fork():
        pid = fork()
        if pid:  # as Python 3.12 and later warn in a multi-threaded parent
            warnings.warn("use of fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warned_fork)
    splits = force_write_ranges(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_matrix_csv(tmp_path / "m.csv", list("abcd"), x)
    assert splits == [False]
    assert (tmp_path / "m.csv").read_bytes() == expected
    assert multiprocessing.active_children() == []


def test_failed_split_write_keeps_earlier_file_and_leaves_no_temp(tmp_path, monkeypatch, capfd):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, ["a"], np.array([[1.0], [2.0]]))
    before = path.read_bytes()
    splits = force_write_ranges(monkeypatch, 2)
    # the worker of the second row cannot format it, and nor can this process
    with pytest.raises(TypeError, match="must be real number, not str"):
        write_matrix_csv(path, ["a"], np.array([[3.0], ["oops"]], dtype=object))
    assert splits == [False]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
    assert capfd.readouterr().err == ""  # the worker failed without a traceback
    assert multiprocessing.active_children() == []


# --- estimate --------------------------------------------------------------------


def test_estimate_round_trip_and_metrics(tmp_path):
    data = gen_small(tmp_path, n=100, p=6, s=2, seed=3)
    model = tmp_path / "model.json"
    metrics = tmp_path / "metrics.json"
    code = run(
        "estimate", "--x", data / "X.csv", "--y", data / "y.csv", "--selected", "1,2",
        "--hidden", "6", "--epochs", 30, "--seed", 8, "--test-fraction", 0.25,
        "--model-out", model, "--metrics-out", metrics,
    )
    assert code == 0
    params, arch = load_model(model)
    doc = json.loads(model.read_text())
    assert doc["selected_columns"] == [1, 2]

    # reload predicts bit-identically and the reported rmse matches a recomputation
    _, x = read_matrix_csv(data / "X.csv")
    _, y = read_matrix_csv(data / "y.csv")
    from enns.seeding import spawn_rng

    perm = spawn_rng(8, "estimate-split").permutation(100)
    test_idx = perm[:25]
    preds = forward_batch(params, arch, x[test_idx][:, [0, 1]])
    expected = regression_metrics(y[test_idx, 0], preds).rmse
    got = json.loads(metrics.read_text())["metrics"]["rmse"]
    assert got == pytest.approx(expected, abs=1e-12)


def test_estimate_percentile_sparsity_contract(tmp_path):
    data = gen_small(tmp_path, n=80, p=5, s=2, seed=6)
    model = tmp_path / "model.json"
    code = run(
        "estimate", "--x", data / "X.csv", "--y", data / "y.csv", "--selected", "1,2,3",
        "--hidden", "10", "--sparsity-mode", "percentile", "--sparsity-values", "90",
        "--epochs", 40, "--model-out", model,
    )
    assert code == 0
    params, _ = load_model(model)
    assert np.mean(params.weights[1] == 0.0) >= 0.9


def test_estimate_rejects_out_of_range_selection(tmp_path):
    data = gen_small(tmp_path, p=4, s=2)
    for selected in ("1,9", "1,1,2"):
        assert run(
            "estimate", "--x", data / "X.csv", "--y", data / "y.csv", "--selected", selected,
            "--model-out", tmp_path / "m.json",
        ) == 1
    sel = tmp_path / "sel.json"
    sel.write_text(json.dumps({"selected": [2, 2]}))
    assert run(
        "estimate", "--x", data / "X.csv", "--y", data / "y.csv", "--selection-json", sel,
        "--model-out", tmp_path / "m.json",
    ) == 1
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "doc",
    [{"selected": ["1"]}, {"selected": [1.5]}, {"selected": [True, 2]}, {"selected": 2}, [1, 2]],
    ids=["string", "float", "bool", "scalar", "top-level-list"],
)
def test_estimate_rejects_non_integer_selection_json(tmp_path, capsys, doc):
    data = gen_small(tmp_path, p=4, s=2)
    sel = tmp_path / "sel.json"
    sel.write_text(json.dumps(doc))
    assert run(
        "estimate", "--x", data / "X.csv", "--y", data / "y.csv", "--selection-json", sel,
        "--model-out", tmp_path / "m.json",
    ) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not (tmp_path / "m.json").exists()


# estimate's column errors, each with its stderr, raised before either CSV is
# read; "{sel}" is a selection JSON holding the given text (None: no file).
ESTIMATE_COLUMN_ERRORS = {
    "neither": ((), None, "error: give exactly one of --selected and --selection-json"),
    "both": (("--selected", "1,2", "--selection-json", "{sel}"), '{"selected": [2, 5]}',
             "error: give exactly one of --selected and --selection-json"),
    "unreadable-json": (("--selection-json", "{sel}"), None,
                        "data error: cannot read selection from {sel}: [Errno 2] No such file or directory: '{sel}'"),
    "malformed-json": (("--selection-json", "{sel}"), "{not json",
                       "data error: cannot read selection from {sel}: "
                       "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "repeated": (("--selected", "1,1,2"), None, "error: selected columns repeat: [1, 1, 2]"),
    "repeated-json": (("--selection-json", "{sel}"), '{"selected": [2, 2]}', "error: selected columns repeat: [2, 2]"),
    "empty": (("--selected", ""), None, "error: no columns selected"),
}


@pytest.mark.parametrize("case", list(ESTIMATE_COLUMN_ERRORS))
def test_estimate_resolves_columns_before_reading_csvs(tmp_path, capsys, monkeypatch, case):
    flags, text, message = ESTIMATE_COLUMN_ERRORS[case]
    sel = tmp_path / "sel.json"
    if text is not None:
        sel.write_text(text)
    monkeypatch.setattr(enns.cli, "read_matrix_csv", no_work)
    argv = [flag.format(sel=sel) for flag in flags]
    xy = ["--x", tmp_path / "X.csv", "--y", tmp_path / "y.csv"]
    code = run("estimate", *xy, *argv, "--model-out", tmp_path / "m.json")
    assert code == (2 if message.startswith("data error") else 1)
    assert capsys.readouterr().err == message.format(sel=sel) + "\n"


def test_estimate_rejects_test_fraction_outside_unit_interval(tmp_path):
    data = gen_small(tmp_path, n=40, p=4, s=2)
    for fraction in (-0.25, 1.0, 1.5):
        assert run(
            "estimate", "--x", data / "X.csv", "--y", data / "y.csv", "--selected", "1,2",
            "--test-fraction", fraction, "--model-out", tmp_path / "m.json",
        ) == 1
    assert not (tmp_path / "m.json").exists()


def test_estimate_accepts_selection_json(tmp_path):
    data = gen_small(tmp_path, n=80, p=5, s=2, seed=7)
    sel = tmp_path / "sel.json"
    assert run(
        "select", "--x", data / "X.csv", "--y", data / "y.csv", "--method", "dnp",
        "--s0", 2, "--epochs", 15, "--out", sel,
    ) == 0
    assert run(
        "estimate", "--x", data / "X.csv", "--y", data / "y.csv", "--selection-json", sel,
        "--epochs", 15, "--model-out", tmp_path / "m.json",
    ) == 0


def test_estimate_divergent_training_is_numerical_failure_without_warning(tmp_path, recwarn, capsys):
    data = gen_small(tmp_path, n=40, p=4, s=2)
    assert run(
        "estimate", "--x", data / "X.csv", "--y", data / "y.csv", "--selected", "1,2",
        "--learning-rate", "1e200", "--epochs", 5, "--model-out", tmp_path / "m.json",
    ) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "RuntimeWarning" not in err
    assert len(recwarn) == 0
    assert not (tmp_path / "m.json").exists()


# Bad values, each rejected with this message before any data are read,
# drawn or simulated; a run-experiment case is lines of its config file, split by "; ".
OUT_OF_RANGE_ERRORS = {
    "gen-data --noise-sd nan": "--noise-sd must be finite and non-negative",
    "gen-data --noise-sd inf": "--noise-sd must be finite and non-negative",
    "gen-data --coef-mean nan": "--coef-mean must be finite",
    "gen-data --coef-mean -inf": "--coef-mean must be finite",
    "gen-data --coef-sd inf": "--coef-sd must be finite and non-negative",
    "gen-data --coef-sd nan": "--coef-sd must be finite and non-negative",
    "gen-data --coef-sd -1": "--coef-sd must be finite and non-negative",
    "select --norm-q nan": "--norm-q must be >= 1",
    "select --learning-rate nan": "--learning-rate must be positive",
    "select --bags 0": "--bags must be positive",
    "select --method dnp --bags 0": "--bags must be positive",
    "select --method dnp --bags 1": "--bags * --ps must be at least 1",
    "select --method dnp --ps 7": "--ps must be in (0, 1]",
    "select --method dnp --per-round 3": "--per-round must be in 1..--s0",
    "select --val-fraction 1.5": "--val-fraction must be in [0, 1)",
    "estimate --learning-rate nan": "--learning-rate must be positive",
    "estimate --sparsity-mode explicit_lambda --sparsity-values nan": "--sparsity-values must be non-negative",
    "estimate --sparsity-mode percentile": "--sparsity-values required in percentile mode",
    "estimate --sparsity-mode percentile --sparsity-values 50,50":
        "--sparsity-values must have one value per --hidden entry (1), got 2",
    "estimate --hidden 4,3 --sparsity-mode explicit_lambda --sparsity-values 1":
        "--sparsity-values must have one value per --hidden entry (2), got 1",
    "estimate --sparsity-values 50,50,50": "--sparsity-values need a --sparsity-mode other than none",
    "gen-data --rho 0.5": "--rho must be given exactly when --design is correlated",
    "gen-data --design correlated": "--rho must be given exactly when --design is correlated",
    "gen-data --design correlated --rho 1.0": "--rho must be in [0, 1)",
    "gen-data --design correlated --rho -0.5": "--rho must be in [0, 1)",
    "gen-data --design correlated --rho nan": "--rho must be in [0, 1)",
    "gen-data --response additive": "support size --s must be 5 for the additive kind",
    "gen-data --s 7": "--s exceeds --p (7 > 6)",
    "verify-theory --sigmas nan": "--sigmas must be positive, got nan",
    "verify-theory --first-sigma nan": "--first-sigma must be positive, got nan",
    "run-experiment hidden = 0": "hidden must be non-empty with positive entries",
    "run-experiment bags = 0": "bags must be positive",
    "run-experiment method = dnp; bags = 0": "bags must be positive",
    "run-experiment b1 = 0": "b1 must be positive",
    "run-experiment learning_rate = nan": "learning_rate must be positive",
    "run-experiment coef_sd = -1": "coef_sd must be finite and non-negative",
    "run-experiment sparsity_mode = percentile": "sparsity_values required in percentile mode",
    "run-experiment sparsity_mode = percentile; sparsity_values = 50,50":
        "sparsity_values must have one value per hidden entry (1), got 2",
    "run-experiment response = additive": "support size s must be 5 for the additive kind",
    "run-experiment s = 20": "s exceeds p (20 > 15)",
    "run-experiment sparsity_values = 50": "sparsity_values need a sparsity_mode other than none",
    "run-experiment rho = 0.5": "rho must be given exactly when design is correlated",
    "run-experiment design = correlated; rho = 1.5": "rho must be in [0, 1)",
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE_ERRORS))
def test_nan_and_out_of_range_values_are_usage_errors(tmp_path, capsys, monkeypatch, case):
    def no_work(*args, **kwargs):
        raise AssertionError("read, drew or simulated data before the values were checked")

    command, _, rest = case.partition(" ")
    words = rest.split()
    flags = [f"{flag}={value}" for flag, value in zip(words[::2], words[1::2])]  # so that "-inf" is a value
    out = tmp_path / "out"
    if command in ("select", "estimate"):
        data = gen_small(tmp_path, n=40, p=6, s=2)
        xy = ["--x", data / "X.csv", "--y", data / "y.csv"]
    for name in ("read_matrix_csv", "gen_design_uniform", "gen_design_correlated", "prob_select_over",
                 "prob_first_correct", "mc_select_over", "mc_first_selection"):
        monkeypatch.setattr(enns.cli, name, no_work)
    if command == "gen-data":
        argv = [command, "--out-dir", out, "--n", 20, "--p", 6, "--response", "linear", "--s", 2, *flags]
    elif command == "verify-theory":
        argv = [command, "--reps", 100, "--pair-betas", "0,1", "--first-cases", "1:2", *flags, "--out", out]
    elif command == "select":
        argv = [command, *xy, "--method", "enns", "--s0", 2, "--epochs", 5, *flags, "--out", out]
    elif command == "estimate":
        argv = [command, *xy, "--selected", "1,2", "--epochs", 5, *flags, "--model-out", out]
    else:
        cfg, text = tmp_path / "exp.cfg", BASE_CFG
        for line in rest.split("; "):
            key = line.split(" = ")[0]
            text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M) + line + "\n"
        cfg.write_text(text)
        argv = [command, "--config", cfg, "--out", out]
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {OUT_OF_RANGE_ERRORS[case]}\n"
    assert not out.exists()


def test_estimate_unreadable_model_reload(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_model(bad)


# --- run-experiment -----------------------------------------------------------------


BASE_CFG = """
n = 100
p = 15
response = network
task = regression
s = 2
coef_mean = 5
coef_sd = 1
method = enns
s0 = 2
bags = 4
ps = 0.5
max_epochs = 20
repetitions = 2
seed = 13
"""


def test_run_experiment_rows_and_aggregates(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE_CFG)
    out = tmp_path / "res.csv"
    assert run("run-experiment", "--config", cfg, "--out", out) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:6] == [
        "repetition", "seed", "status", "n_selected", "correct_count", "false_positive_rate",
    ]
    assert header[6:] == ["rmse", "mae", "mape"]
    assert len(lines) == 1 + 2 + 2  # header, 2 reps, mean, stderr
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("stderr,")


def test_run_experiment_single_repetition_mean_equals_row(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE_CFG.replace("repetitions = 2", "repetitions = 1"))
    out = tmp_path / "res.csv"
    assert run("run-experiment", "--config", cfg, "--out", out) == 0
    lines = out.read_text().splitlines()
    row = lines[1].split(",")
    mean = lines[2].split(",")
    assert mean[0] == "mean"
    assert mean[3:] == row[3:]


def test_run_experiment_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE_CFG)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run("run-experiment", "--config", cfg, "--out", out1) == 0
    assert run("run-experiment", "--config", cfg, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_experiment_classification_metrics(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE_CFG.replace("task = regression", "task = classification"))
    out = tmp_path / "res.csv"
    assert run("run-experiment", "--config", cfg, "--out", out) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header[6:] == ["accuracy", "auc", "f1"]


def test_config_unknown_key_is_hard_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE_CFG + "\nbogus_key = 3\n")
    assert run("run-experiment", "--config", cfg, "--out", tmp_path / "r.csv") == 1


def test_config_parser_details():
    cfg = parse_experiment_config(BASE_CFG)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.bags == 4 and cfg.s0 == 2
    with pytest.raises(Exception):
        parse_experiment_config("n = 10")  # missing required keys
    with pytest.raises(Exception):
        parse_experiment_config(BASE_CFG + "n = 100\n")  # duplicate key
    with pytest.raises(Exception):
        parse_experiment_config(BASE_CFG.replace("ps = 0.5", "train_fraction = 0.9"))


def test_config_fraction_validation(tmp_path, capsys):
    # a sum other than 1, sums of 1 with a fraction outside [0, 1], then
    # train or test shares that leave no rows at n = 100
    names = ("train_fraction", "validation_fraction", "test_fraction")
    cases = (
        ((0.5, 0.1, 0.1), "fractions"),
        ((1.25, 0.0, -0.25), "fractions"),
        ((0.0, 1.5, -0.5), "fractions"),
        ((0.8, 0.2, 0.0), "test_fraction"),
        ((0.795, 0.2, 0.005), "test_fraction"),
        ((0.0, 0.5, 0.5), "train_fraction"),
        ((0.005, 0.495, 0.5), "train_fraction"),
    )
    for fractions, key in cases:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CFG + "".join(f"{k} = {v}\n" for k, v in zip(names, fractions)))
        assert run("run-experiment", "--config", cfg, "--out", tmp_path / "r.csv") == 1
        assert key in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_config_rejects_nonpositive_s0(tmp_path, capsys, monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the config was validated")

    monkeypatch.setattr(enns.cli, "gen_design_uniform", no_data)
    cfg = tmp_path / "exp.cfg"
    for s0 in (0, -1):
        cfg.write_text(BASE_CFG.replace("s0 = 2", f"s0 = {s0}"))
        assert run("run-experiment", "--config", cfg, "--out", tmp_path / "r.csv") == 1
        assert re.search(r"\bs0\b", capsys.readouterr().err)  # the config key, not target_s0
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [("design", "grid"), ("response", "cubic"), ("task", "ranking"), ("method", "lasso"),
     ("activation", "tanh"), ("sparsity_mode", "group")],
)
def test_config_rejects_unknown_choice_before_data(tmp_path, capsys, monkeypatch, key, value):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the config was validated")

    monkeypatch.setattr(enns.cli, "gen_design_uniform", no_data)
    monkeypatch.setattr(enns.cli, "gen_design_correlated", no_data)
    cfg = tmp_path / "exp.cfg"
    text = re.sub(rf"^{key} = .*$", "", BASE_CFG, flags=re.M)  # drop any base value
    cfg.write_text(text + f"{key} = {value}\n")
    assert run("run-experiment", "--config", cfg, "--out", tmp_path / "r.csv") == 1
    assert capsys.readouterr().err == f"error: unknown {key} {value!r}\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "key, value, kind",
    [("hidden", "a,b", "integer"), ("net_hidden", "8,x", "integer"), ("sparsity_values", "5,y", "number")],
)
def test_config_bad_list_value_names_its_line(tmp_path, capsys, key, value, kind):
    cfg = tmp_path / "exp.cfg"
    text = re.sub(rf"^{key} = .*\n", "", BASE_CFG, flags=re.M)  # drop any base value
    cfg.write_text(text + f"{key} = {value}\n")
    lineno = len(text.splitlines()) + 1
    assert run("run-experiment", "--config", cfg, "--out", tmp_path / "r.csv") == 1
    assert capsys.readouterr().err == (
        f"error: config line {lineno}: bad value for {key}: "
        f"expected a comma-separated {kind} list, got {value!r}\n"
    )
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_correlated_design_without_rho_is_usage_error(tmp_path, capsys):
    out = tmp_path / "d"
    argv = ["--n", 10, "--p", 4, "--design", "correlated", "--response", "linear", "--s", 2]
    assert run("gen-data", "--out-dir", out, *argv) == 1
    assert "rho" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE_CFG + "design = correlated\n")
    assert run("run-experiment", "--config", cfg, "--out", tmp_path / "r.csv") == 1
    assert "rho" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg]


# --- verify-theory -------------------------------------------------------------------


def test_verify_theory_report_schema(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        "verify-theory", "--reps", 5000, "--pair-betas", "0,1", "--sigmas", "1",
        "--first-cases", "1:2", "--pair-tol", 0.05, "--first-tol", 0.05,
        "--seed", 3, "--out", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc.keys()) == {
        "seed", "reps", "pair_tolerance", "first_tolerance",
        "pair_cases", "first_selection_cases", "all_pass",
    }
    sym = [c for c in doc["pair_cases"] if c["beta_j"] == c["beta_k"]]
    assert sym and all(abs(c["analytic"] - 0.5) < 1e-8 for c in sym)
    assert all(
        set(c.keys()) == {"beta_j", "beta_k", "sigma", "analytic", "monte_carlo", "abs_delta", "pass"}
        for c in doc["pair_cases"]
    )


@pytest.mark.parametrize("empty", [["--pair-betas", ""], ["--sigmas", ""]])
def test_verify_theory_without_cases_is_usage_error(tmp_path, capsys, monkeypatch, empty):
    def no_simulation(*args, **kwargs):
        raise AssertionError("ran a Monte Carlo")

    monkeypatch.setattr(enns.cli, "mc_select_over", no_simulation)
    monkeypatch.setattr(enns.cli, "mc_first_selection", no_simulation)
    out = tmp_path / "report.json"
    assert run("verify-theory", *empty, "--first-cases", "", "--out", out) == 1
    assert capsys.readouterr().err == "error: no cases to verify\n"
    assert not out.exists()


@pytest.mark.parametrize("reps", [0, -3])
def test_verify_theory_nonpositive_reps_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch, reps):
    def no_probability(*args, **kwargs):
        raise AssertionError("computed a probability")

    for name in ("prob_select_over", "prob_first_correct", "mc_select_over", "mc_first_selection"):
        monkeypatch.setattr(enns.cli, name, no_probability)
    out = tmp_path / "report.json"
    assert run("verify-theory", "--reps", reps, "--out", out) == 1
    assert capsys.readouterr().err == f"error: --reps must be positive, got {reps}\n"
    assert not out.exists()


THEORY_INPUT_ERRORS = {
    "--first-sigma 0": "--first-sigma must be positive, got 0.0",
    "--pair-tol nan": "--pair-tol must be positive, got nan",
    "--pair-tol=-0.01": "--pair-tol must be positive, got -0.01",
    "--first-tol 0": "--first-tol must be positive, got 0.0",
    "--first-tol nan": "--first-tol must be positive, got nan",
    "--first-cases 0:5": "--first-cases 0:5: s must be in 1..p",
    "--first-cases 1:2,4:3": "--first-cases 4:3: s must be in 1..p",
    "--first-cases 1:-1": "--first-cases 1:-1: s must be in 1..p",
    "--sigmas 1,0": "--sigmas must be positive, got 0.0",
    "--pair-betas 0,nan": "--pair-betas must be finite, got nan",
    "--pair-betas inf,1": "--pair-betas must be finite, got inf",
    "--beta-support nan": "--beta-support must be finite, got nan",
    "--beta-support=-inf": "--beta-support must be finite, got -inf",
}


@pytest.mark.parametrize("flags", sorted(THEORY_INPUT_ERRORS))
def test_verify_theory_checks_every_case_before_any_probability(tmp_path, capsys, monkeypatch, flags):
    def no_probability(*args, **kwargs):
        raise AssertionError("computed a probability")

    for name in ("prob_select_over", "prob_first_correct", "mc_select_over", "mc_first_selection"):
        monkeypatch.setattr(enns.cli, name, no_probability)
    out = tmp_path / "report.json"
    assert run("verify-theory", *flags.split(), "--out", out) == 1
    assert capsys.readouterr().err == f"error: {THEORY_INPUT_ERRORS[flags]}\n"
    assert not out.exists()


def test_verify_theory_default_grid_passes_small():
    # scaled-down reps; agreement already holds at loose tolerance
    assert run("verify-theory", "--reps", 4000, "--pair-betas", "0,3", "--sigmas", "0.5",
               "--first-cases", "3:20", "--pair-tol", 0.05, "--first-tol", 0.05) == 0


# --- usage plumbing -------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate") == 1


def test_missing_required_flag_is_usage_error():
    assert run("select", "--s0", 2) == 1


@pytest.mark.parametrize("command", ["gen-data", "select", "estimate", "run-experiment", "verify-theory"])
def test_help_exits_zero(command):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "enns.cli", command, "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: enns {command}")


# --- golden outputs -------------------------------------------------------------------
# SHA-256 digests of seeded CLI outputs on tiny shapes. Any refactor of the CLI
# or the engine must reproduce them byte for byte; ``select`` reports are
# hashed without their ``wall_clock_seconds`` field. The digests hold for a
# fixed numpy version (recorded with numpy 2.4 on x86-64 Linux); re-record
# them only for an intended output change or a numpy upgrade.

GOLDEN_EXPERIMENT_CFG = """
n = 60
p = 8
response = network
task = {task}
s = 2
coef_mean = 5
coef_sd = 1
method = {method}
s0 = 2
bags = 3
ps = 0.5
hidden = 6,3
max_epochs = 12
batch_size = 16
sparsity_mode = percentile
sparsity_values = 50,50
repetitions = 2
seed = 21
"""

GOLDEN_DIGESTS = {
    "gen_uniform/X.csv": "ab4c9136bd4561f8c65100079c309df88fca54667672f6575cd3338473aed170",
    "gen_uniform/y.csv": "dec5afd93a9a30d3c8711ad89877ccbe613fe4bb0523147778e1365e67c29c97",
    "gen_uniform/truth.json": "7c04ab386aa36fdea26335a6b724d46fcc1548702d07177ff0b17466e40b4a22",
    "gen_correlated/X.csv": "d07aab6fe42b19bd08125cbe7fff7e8dbc01c83359609bfe05b32a7750b0172d",
    "gen_correlated/y.csv": "9dde1d5530202422da2b0744475fe334aae9fbcc40e6804cc194e7f53ee18f7b",
    "gen_correlated/truth.json": "ceb7252701d90e2ef87ee989fff56e0eac0a044c4652941a21dee6807c0e350c",
    "select_dnp.json": "174799b31272ca21b39cc5b7fb19b3c1673c970a72bca3a94b9c8105b621b57d",
    "select_enns.json": "201418db57c6537b2cc9006b3afa10a05b8c823d28adde923fa1164fabbae62a",
    "estimate_none/model.json": "99c97e2a22aa68f84ded1bbf60938bd09ffe18570893161b7e06484580860e26",
    "estimate_none/metrics.json": "0d4d0602941e657786410f88fc8a3187732f555a52013a3ccbc0d56da75af407",
    "estimate_percentile/model.json": "795f5b5cd49a4c72c3facb40f76579422ce01500f701a2eee1aaebea8a878808",
    "estimate_percentile/metrics.json": "45fec9fe5277d24cc42981ca8cc366d5d42d4aafbf5011b2d96d7af154a68a59",
    "experiment_regression.csv": "b5c463edfc072d9c78ac80931c1d5d61c9fe582688f8d719a735fd939aa72f38",
    "experiment_classification.csv": "9ac1392184954c5cc3ded7edf4cd3f66e57d76745e99574f629425feb5a5e752",
    "experiment_dnp.csv": "275ef11bfed18562d7cc1c92c989f991d5f97baba46ccae6e3d0e255dc3d8b24",
    "verify_theory.json": "dd45e360520146de88eb8dd255557e4b167583f3e58b429263de8045f98d32af",
}


def gen_golden_uniform(out):
    assert run(
        "gen-data", "--out-dir", out, "--n", 60, "--p", 8, "--response", "network",
        "--s", 2, "--coef-mean", 5, "--coef-sd", 1, "--seed", 11,
    ) == 0


GOLDEN_GEN_CORRELATED = (
    "gen-data", "--n", 40, "--p", 6, "--design", "correlated", "--rho", 0.5,
    "--response", "linear", "--task", "classification", "--s", 2, "--seed", 12,
)


def golden_select(xy, method, out):
    assert run(
        "select", *xy, "--method", method, "--s0", 2, "--bags", 3, "--ps", 0.5,
        "--epochs", 10, "--val-fraction", 0.2, "--seed", 13, "--out", out,
    ) == 0


def golden_digest(name, path):
    raw = path.read_bytes()
    if name.startswith("select_"):
        doc = json.loads(raw)
        doc.pop("wall_clock_seconds")
        raw = json.dumps(doc).encode()
    return hashlib.sha256(raw).hexdigest()


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    uni = root / "gen_uniform"
    gen_golden_uniform(uni)
    assert run(*GOLDEN_GEN_CORRELATED, "--out-dir", root / "gen_correlated") == 0
    xy = ["--x", uni / "X.csv", "--y", uni / "y.csv"]
    for method in ("dnp", "enns"):
        golden_select(xy, method, root / f"select_{method}.json")
    for mode, extra in (("none", []), ("percentile", ["--sparsity-values", "50,50"])):
        out = root / f"estimate_{mode}"
        out.mkdir()
        assert run(
            "estimate", *xy, "--selected", "1,2,5", "--hidden", "6,3", "--epochs", 12,
            "--batch-size", 16, "--sparsity-mode", mode, *extra, "--seed", 14,
            "--model-out", out / "model.json", "--metrics-out", out / "metrics.json",
        ) == 0
    for name, task, method in (
        ("regression", "regression", "enns"),
        ("classification", "classification", "enns"),
        ("dnp", "regression", "dnp"),
    ):
        cfg = root / f"{name}.cfg"
        cfg.write_text(GOLDEN_EXPERIMENT_CFG.format(task=task, method=method))
        assert run("run-experiment", "--config", cfg, "--out", root / f"experiment_{name}.csv") == 0
    assert run(
        "verify-theory", "--reps", 2000, "--pair-betas", "0,1", "--sigmas", "1",
        "--first-cases", "1:2,2:5", "--seed", 15, "--out", root / "verify_theory.json",
    ) == 0

    return {name: golden_digest(name, root / name) for name in GOLDEN_DIGESTS}


@pytest.mark.golden
@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_cli_output(golden_outputs, name):
    assert golden_outputs[name] == GOLDEN_DIGESTS[name]


@pytest.mark.golden
@pytest.mark.parametrize("method", ["dnp", "enns"])
def test_golden_select_with_csv_split_into_ranges(tmp_path, monkeypatch, method):
    uni = tmp_path / "gen_uniform"
    gen_golden_uniform(uni)
    splits = force_ranges(monkeypatch, 3)
    name = f"select_{method}.json"
    golden_select(["--x", uni / "X.csv", "--y", uni / "y.csv"], method, tmp_path / name)
    assert len(splits) == 2 and all(x is not None for x in splits)
    assert golden_digest(name, tmp_path / name) == GOLDEN_DIGESTS[name]


@pytest.mark.golden
@pytest.mark.parametrize("cores", [1, 2, 3])
def test_golden_gen_data_with_matrices_written_in_ranges(tmp_path, monkeypatch, cores):
    splits = force_write_ranges(monkeypatch, cores)
    gen_golden_uniform(tmp_path / "gen_uniform")
    assert run(*GOLDEN_GEN_CORRELATED, "--out-dir", tmp_path / "gen_correlated") == 0
    # X.csv and y.csv of each set; each has at least 2 cells per core
    assert splits == [cores >= 2] * 4
    for name in GOLDEN_DIGESTS:
        if name.startswith("gen_"):
            assert golden_digest(name, tmp_path / name) == GOLDEN_DIGESTS[name]
    assert multiprocessing.active_children() == []


def test_failed_write_keeps_earlier_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, ["a"], np.array([[1.0], [2.0]]))
    before = path.read_bytes()
    # the second row cannot be formatted, so the write fails after its first row
    with pytest.raises(TypeError):
        write_matrix_csv(path, ["a"], np.array([[3.0], ["oops"]], dtype=object))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


@pytest.mark.parametrize("command", ["select", "run-experiment"])
def test_unwritable_output_is_data_error_naming_the_target(tmp_path, capsys, command):
    target = tmp_path / "missing_dir" / "out.json"
    if command == "select":
        data = gen_small(tmp_path, p=5, s=2)
        argv = ["select", "--x", data / "X.csv", "--y", data / "y.csv", "--method", "dnp", "--s0", 2, "--epochs", 5]
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CFG.replace("repetitions = 2", "repetitions = 1"))
        argv = ["run-experiment", "--config", cfg]
    capsys.readouterr()
    assert run(*argv, "--out", target) == 2
    err = capsys.readouterr().err
    assert err == f"data error: cannot write {target}: No such file or directory\n"
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


def no_work(*args, **kwargs):
    raise AssertionError("read an input or did work before checking the outputs")


OUTPUT_TARGETS = {
    "select": ("--out",),
    "estimate": ("--model-out", "--metrics-out"),
    "run-experiment": ("--out",),
    "verify-theory": ("--out",),
}


@pytest.mark.parametrize("parent", ["missing", "file"])
@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in OUTPUT_TARGETS.items() for f in flags]
)
def test_output_in_a_missing_directory_fails_before_any_work(tmp_path, capsys, monkeypatch, command, flag, parent):
    data = gen_small(tmp_path, p=5, s=2)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE_CFG)
    (tmp_path / "file").write_text("")
    for name in ("read_matrix_csv", "gen_design_uniform", "dnp_run", "enns_select", "train", "fit_l1",
                 "prob_select_over", "prob_first_correct", "mc_select_over", "mc_first_selection"):
        monkeypatch.setattr(enns.cli, name, no_work)
    outputs = {f: tmp_path / f.strip("-").replace("-", ".") for f in OUTPUT_TARGETS[command]}
    target = outputs[flag] = tmp_path / parent / "out.json"
    xy = ["--x", data / "X.csv", "--y", data / "y.csv"]
    argv = {
        "select": ["select", *xy, "--s0", 2],
        "estimate": ["estimate", *xy, "--selected", "1,2"],
        "run-experiment": ["run-experiment", "--config", cfg],
        "verify-theory": ["verify-theory"],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(*argv, *[a for f, path in outputs.items() for a in (f, path)]) == 2
    strerror = "No such file or directory" if parent == "missing" else "Not a directory"
    assert capsys.readouterr().err == f"data error: cannot write {target}: {strerror}\n"
    # no output, not even the one in a writable directory, and no temp file
    assert sorted(tmp_path.rglob("*")) == before


def test_output_that_cannot_replace_a_directory_leaves_no_temp(tmp_path):
    (tmp_path / "m.csv").mkdir()
    with pytest.raises(enns.cli.DataError, match="cannot write .*m.csv"):
        write_matrix_csv(tmp_path / "m.csv", ["a"], np.array([[1.0]]))
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


def test_output_under_a_regular_file_is_data_error(tmp_path):
    (tmp_path / "file").write_text("")
    target = tmp_path / "file" / "m.csv"
    with pytest.raises(enns.cli.DataError) as exc:
        write_matrix_csv(target, ["a"], np.array([[1.0]]))
    assert str(exc.value) == f"cannot write {target}: Not a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
