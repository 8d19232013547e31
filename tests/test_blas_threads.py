"""Seeded outputs do not depend on the BLAS thread count.

At n=300, p=1000 OpenBLAS splits the candidate-scoring product x' d_0 (and the
training products) across threads when it has two, so each command runs in a
subprocess with OPENBLAS_NUM_THREADS set to 1 and then 2 and the output bytes
are compared.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from enns.cli import main

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


def test_outputs_identical_with_one_and_two_blas_threads(tmp_path):
    data = tmp_path / "data"
    assert main([
        "gen-data", "--out-dir", str(data), "--n", "300", "--p", "1000", "--response", "network",
        "--s", "5", "--seed", "7",
    ]) == 0
    xy = ["--x", data / "X.csv", "--y", data / "y.csv"]
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        run_with_threads(threads, [
            ["select", *xy, "--method", "dnp", "--s0", 4, "--epochs", 10, "--seed", 3,
             "--out", out / "dnp.json"],
            ["select", *xy, "--method", "enns", "--s0", 3, "--bags", 3, "--ps", 0.5, "--epochs", 5,
             "--seed", 3, "--out", out / "enns.json"],
            ["estimate", *xy, "--selected", "1,2,3,4,5", "--hidden", "8,4", "--epochs", 20,
             "--sparsity-mode", "percentile", "--sparsity-values", "50,50", "--seed", 3,
             "--model-out", out / "model.json", "--metrics-out", out / "metrics.json"],
        ])
        docs = {name: (out / name).read_bytes() for name in ("model.json", "metrics.json")}
        for name in ("dnp.json", "enns.json"):
            lines = (out / name).read_bytes().splitlines(keepends=True)
            docs[name] = b"".join(line for line in lines if b'"wall_clock_seconds"' not in line)
        outputs[threads] = docs
    assert outputs[1] == outputs[2]
