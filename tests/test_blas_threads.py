"""Seeded outputs do not depend on the BLAS thread count or the core count.

At n=300, p=1000 OpenBLAS splits the candidate-scoring product x' d_0 (and the
training products) across threads when it has two, so each command runs in a
subprocess with OPENBLAS_NUM_THREADS set to 1 and then 2 and the output bytes
are compared. The select commands are also compared, in this process, with
their X.csv parsed in one range and in three ranges (two forked workers and
the calling process), and the
verify-theory report with its Monte Carlo blocks on one, two and three threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import enns.theory
from enns.cli import main
from test_cli import force_ranges

SRC = Path(__file__).resolve().parents[1] / "src"

RUN_ALL = """
import json, sys
from enns.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
"""


def run_with_threads(threads, calls):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argvs = json.dumps([[str(a) for a in argv] for argv in calls])
    subprocess.run([sys.executable, "-c", RUN_ALL, argvs], env=env, check=True, timeout=120)


def gen_data(tmp_path):
    data = tmp_path / "data"
    assert main([
        "gen-data", "--out-dir", str(data), "--n", "300", "--p", "1000", "--response", "network",
        "--s", "5", "--seed", "7",
    ]) == 0
    return ["--x", data / "X.csv", "--y", data / "y.csv"]


def select_calls(xy, out):
    return [
        ["select", *xy, "--method", "dnp", "--s0", 4, "--epochs", 10, "--seed", 3,
         "--out", out / "dnp.json"],
        ["select", *xy, "--method", "enns", "--s0", 3, "--bags", 3, "--ps", 0.5, "--epochs", 5,
         "--seed", 3, "--out", out / "enns.json"],
    ]


def select_outputs(out):
    docs = {}
    for name in ("dnp.json", "enns.json"):
        lines = (out / name).read_bytes().splitlines(keepends=True)
        docs[name] = b"".join(line for line in lines if b'"wall_clock_seconds"' not in line)
    return docs


def test_outputs_identical_with_one_and_two_blas_threads(tmp_path):
    xy = gen_data(tmp_path)
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        run_with_threads(threads, [
            *select_calls(xy, out),
            ["estimate", *xy, "--selected", "1,2,3,4,5", "--hidden", "8,4", "--epochs", 20,
             "--sparsity-mode", "percentile", "--sparsity-values", "50,50", "--seed", 3,
             "--model-out", out / "model.json", "--metrics-out", out / "metrics.json"],
        ])
        docs = {name: (out / name).read_bytes() for name in ("model.json", "metrics.json")}
        outputs[threads] = {**docs, **select_outputs(out)}
    assert outputs[1] == outputs[2]


def test_select_outputs_identical_with_csv_split_into_ranges(tmp_path, monkeypatch):
    xy = gen_data(tmp_path)
    outputs = {}
    for ranges in (1, 3):
        out = tmp_path / f"ranges{ranges}"
        out.mkdir()
        with monkeypatch.context() as mp:
            splits = force_ranges(mp, ranges)
            for argv in select_calls(xy, out):
                assert main([str(a) for a in argv]) == 0
        # X.csv and y.csv of both calls, one range each or three workers each
        assert len(splits) == 4 and all((x is not None) == (ranges > 1) for x in splits)
        outputs[ranges] = select_outputs(out)
    assert outputs[1] == outputs[3]


def test_verify_theory_report_identical_with_one_to_three_cores(tmp_path, monkeypatch):
    reports = {}
    for cores in (1, 2, 3):
        out = tmp_path / f"cores{cores}.json"
        monkeypatch.setattr(enns.theory, "usable_cores", lambda: cores)
        # 3000 designs are one block at 1:2 (n=12), three at 3:20 (1041, 1041
        # and 918) and fifteen at 5:50 (fourteen of 208 and one of 88), so one,
        # two and three threads each deal them out differently
        assert main(["verify-theory", "--reps", "3000", "--seed", "5", "--out", str(out)]) == 0
        reports[cores] = out.read_bytes()
    assert reports[1] == reports[2] == reports[3]
