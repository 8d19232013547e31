"""Smoke runs of the study scripts at tiny shapes, and of the README's
library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CASES = {
    "selection_decay_study.py": (
        ["--n", "40", "--p", "12", "--reps", "2"],
        "n=40 p=12 s=5 reps=2",
    ),
    "false_positive_study.py": (
        ["--n", "40", "--p", "12", "--seeds", "2"],
        "n=40 p=12 s=5 paired seeds=2",
    ),
    "high_signal_study.py": (
        ["--n", "40", "--p", "12", "--seeds", "2"],
        "n=40 p=12 s=2 coef_mean=10.0 task=regression",
    ),
    "sparse_fit_study.py": (
        ["--seeds", "2", "--n-train", "20"],
        "paired seeds=2 noise_sd=40.0 n_train=20",
    ),
}


def python(*args):
    """Run ``python *args`` from the repo root, importing enns from ``src``."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=300
    )


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs_and_prints_its_summary(script):
    args, first_line = CASES[script]
    proc = python(str(ROOT / "scripts" / script), *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first_line


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = python("-c", example)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"SelectionMetrics\(.*\)\n", proc.stdout)
