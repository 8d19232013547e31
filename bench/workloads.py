"""The benchmark's workloads: the seeded inputs each one generates, the CLI call
it times, and the checks on that call's output.

Every workload works on a panel of ``members`` inputs whose seeds derive from the
benchmark seed; calls cycle through the panel, so each member is called more
than once and a repeat must give the same output as the first call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

Main = Callable[[Sequence[str]], int]

# A Monte-Carlo estimate this many standard errors from its formula fails the call.
THEORY_FAIL_Z = 5.0
# The theory quality is the share of comparisons within this many standard errors.
THEORY_QUALITY_Z = 3.0


class CheckFailed(Exception):
    """A call's output is missing, malformed or wrong."""


@dataclass(frozen=True)
class Checked:
    """What the checks read from one call's output."""

    digest: str
    quality: float
    selected: int = 0
    zero_share: float | None = None


def _load_json(path: Path):
    try:
        with open(path, encoding="utf8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _flag_value(args: Sequence[str], flag: str) -> str:
    return args[list(args).index(flag) + 1]


@dataclass(frozen=True)
class Workload:
    """One CLI call on a panel of seeded inputs; ``setup_args`` are the flags
    of the set-up call, ``enns gen-data`` unless a subclass says otherwise."""

    name: str
    members: int
    setup_args: tuple[str, ...]
    call_args: tuple[str, ...]

    def member_seed(self, seed: int, member: int) -> int:
        return 1000 * seed + member

    def setup(self, main: Main, work: Path, seed: int) -> None:
        rc = main(["gen-data", "--out-dir", str(work), *self.setup_args, "--seed", str(seed)])
        if rc != 0:
            raise CheckFailed(f"gen-data exited with {rc}")

    def outputs(self, work: Path) -> list[Path]:
        raise NotImplementedError

    def argv(self, work: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def check(self, work: Path) -> Checked:
        raise NotImplementedError


class SelectWorkload(Workload):
    """``enns select``; quality is the F1 score of the selected set against the
    generator's support."""

    def outputs(self, work):
        return [work / "selection.json"]

    def argv(self, work, seed):
        return ["select", "--x", str(work / "X.csv"), "--y", str(work / "y.csv"), *self.call_args,
                "--seed", str(seed), "--out", str(work / "selection.json")]

    def check(self, work):
        truth = _load_json(work / "truth.json")
        doc = _load_json(work / "selection.json")
        selected = doc.get("selected")
        if not isinstance(selected, list) or not all(type(j) is int for j in selected):
            raise CheckFailed("selected is not a list of integers")
        if len(set(selected)) != len(selected):
            raise CheckFailed(f"selected has duplicates: {selected}")
        if not all(1 <= j <= truth["p"] for j in selected):
            raise CheckFailed(f"selected index outside 1..{truth['p']}: {selected}")
        if not 1 <= len(selected) <= doc["s0"]:
            raise CheckFailed(f"selected {len(selected)} features for s0={doc['s0']}")
        support = set(truth["support"])
        f1 = 2 * len(support & set(selected)) / (len(selected) + len(support))
        stable = {k: v for k, v in doc.items() if k != "wall_clock_seconds"}
        return Checked(_digest(json.dumps(stable, sort_keys=True).encode()), f1, selected=len(selected))


class EstimateWorkload(Workload):
    """``enns estimate`` in percentile mode; quality is the noise standard
    deviation over the held-out RMSE (1 would be an oracle fit)."""

    def outputs(self, work):
        return [work / "model.json", work / "metrics.json"]

    def argv(self, work, seed):
        return ["estimate", "--x", str(work / "X.csv"), "--y", str(work / "y.csv"), *self.call_args,
                "--seed", str(seed), "--model-out", str(work / "model.json"),
                "--metrics-out", str(work / "metrics.json")]

    def check(self, work):
        from enns.network import load_model  # enns comes from the checkout's src/, see run.py

        try:
            params, _ = load_model(work / "model.json")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"model does not reload: {exc!r}") from exc
        percentiles = [float(v) for v in _flag_value(self.call_args, "--sparsity-values").split(",")]
        shares = [float(np.mean(w == 0.0)) for w in params.weights[1:]]
        for layer, (share, pct) in enumerate(zip(shares, percentiles), start=1):
            if share < pct / 100.0:
                raise CheckFailed(f"layer {layer} has {share:.3f} exact zeros, below percentile {pct}")
        rmse = _load_json(work / "metrics.json")["metrics"].get("rmse")
        if not isinstance(rmse, float) or not math.isfinite(rmse) or rmse <= 0.0:
            raise CheckFailed(f"held-out rmse is {rmse!r}")
        noise_sd = _load_json(work / "truth.json")["noise_sd"]
        digest = _digest((work / "model.json").read_bytes(), (work / "metrics.json").read_bytes())
        return Checked(digest, noise_sd / rmse, zero_share=min(shares))


class TheoryWorkload(Workload):
    """``enns verify-theory``; there are no input files, so set-up is a
    small-``--reps`` warm-up call. Quality is the share of formula/Monte-Carlo
    comparisons within ``THEORY_QUALITY_Z`` standard errors."""

    def setup(self, main, work, seed):
        work.mkdir(parents=True, exist_ok=True)
        rc = main(["verify-theory", *self.setup_args, "--seed", str(seed), "--out", str(work / "warmup.json")])
        if rc != 0:
            raise CheckFailed(f"warm-up verify-theory exited with {rc}")

    def outputs(self, work):
        return [work / "report.json"]

    def argv(self, work, seed):
        return ["verify-theory", *self.call_args, "--seed", str(seed), "--out", str(work / "report.json")]

    def check(self, work):
        doc = _load_json(work / "report.json")
        reps = doc["reps"]
        cases = doc["pair_cases"] + doc["first_selection_cases"]
        if not cases:
            raise CheckFailed("report has no cases")
        within = 0
        for case in cases:
            analytic, mc = case["analytic"], case["monte_carlo"]
            se = math.sqrt(max(analytic * (1.0 - analytic), 1.0 / reps) / reps)
            z = abs(analytic - mc) / se
            if not z <= THEORY_FAIL_Z:
                raise CheckFailed(f"|analytic - MC| is {z:.1f} standard errors in case {case}")
            within += z <= THEORY_QUALITY_Z
        return Checked(_digest((work / "report.json").read_bytes()), within / len(cases))


# Selection data: n=300, s=5, linear regression with coefficients N(3, 0.5^2).
# Every support feature then carries clear signal, so each bag picks the true
# support, the ensemble (ps=0.3 of 10 bags) stops after one round of ten
# five-step stage-wise runs, and F1 stays at 1 from seed to seed: the work per
# call does not depend on the data. Random-network responses leave some draws
# with a near-silent support feature, which adds ensemble rounds and moves both
# call time and F1 with the seed.
_SELECT_DATA = ("--n", "300", "--response", "linear", "--task", "regression", "--s", "5",
                "--coef-mean", "3", "--coef-sd", "0.5")
_SELECT_CALL = ("--s0", "5", "--b1", "2", "--epochs", "50", "--hidden", "10")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        SelectWorkload(
            "enns_p1000", 2, ("--p", "1000", *_SELECT_DATA),
            ("--method", "enns", "--bags", "10", "--ps", "0.3", *_SELECT_CALL),
        ),
        SelectWorkload("dnp_p5000", 2, ("--p", "5000", *_SELECT_DATA), ("--method", "dnp", *_SELECT_CALL)),
        EstimateWorkload(
            "estimate_l1", 6,
            ("--n", "800", "--p", "2", "--response", "network", "--s", "2",
             "--coef-mean", "0", "--coef-sd", "2", "--noise-sd", "40"),
            ("--selected", "1,2", "--hidden", "100,50", "--sparsity-mode", "percentile",
             "--sparsity-values", "70,70", "--epochs", "1000", "--batch-size", "10",
             "--learning-rate", "0.3", "--test-fraction", "0.875"),
        ),
        TheoryWorkload("theory_verify", 2, ("--reps", "200"), ("--reps", "5000")),
    )
}
