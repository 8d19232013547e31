"""Tests of the benchmark itself, on tiny versions of its workloads.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from bench import run as bench_run
from bench.tracing import TARGETS, Tracer
from bench.workloads import (
    WORKLOADS,
    CheckFailed,
    EstimateWorkload,
    SelectWorkload,
    TheoryWorkload,
)
from conftest import ROOT

enns = bench_run.import_enns()

_TINY_SELECT_DATA = ("--n", "60", "--response", "network", "--s", "2", "--coef-mean", "10", "--net-hidden", "4")
_TINY_SELECT_CALL = ("--s0", "2", "--b1", "1", "--epochs", "3", "--hidden", "3")
TINY = {
    "enns_p1000": SelectWorkload(
        "enns_p1000", 2, ("--p", "12", *_TINY_SELECT_DATA),
        ("--method", "enns", "--bags", "3", "--ps", "0.4", *_TINY_SELECT_CALL),
    ),
    "dnp_p5000": SelectWorkload("dnp_p5000", 2, ("--p", "30", *_TINY_SELECT_DATA), ("--method", "dnp", *_TINY_SELECT_CALL)),
    "estimate_l1": EstimateWorkload(
        "estimate_l1", 2,
        ("--n", "60", "--p", "2", "--response", "network", "--s", "2", "--coef-mean", "0", "--coef-sd", "2",
         "--noise-sd", "4", "--net-hidden", "4"),
        ("--selected", "1,2", "--hidden", "6,4", "--sparsity-mode", "percentile", "--sparsity-values", "70,50",
         "--epochs", "4", "--batch-size", "10", "--learning-rate", "0.3", "--test-fraction", "0.5"),
    ),
    "theory_verify": TheoryWorkload(
        "theory_verify", 2, ("--reps", "50", "--pair-betas", "0,2", "--sigmas", "1", "--first-cases", "1:2"),
        ("--reps", "400", "--pair-betas", "0,2", "--sigmas", "1", "--first-cases", "1:2"),
    ),
}


def _bindings():
    """Every (holder, attribute, object) binding of every traced function."""
    modules = [enns] + [m for m in vars(enns).values() if type(m) is type(enns)]
    out = []
    for _, module_name, attr_path, _ in TARGETS:
        owner = getattr(enns, module_name)
        *class_path, attr = attr_path.split(".")
        for part in class_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        holders = [(owner, attr)] if class_path else [
            (m, a) for m in modules for a, v in vars(m).items() if v is original
        ]
        out.extend((holder, a, original) for holder, a in holders)
    return out


def _stable_outputs(workload, work):
    outputs = {}
    for path in workload.outputs(work):
        data = path.read_bytes()
        if path.name == "selection.json":
            doc = json.loads(data)
            doc.pop("wall_clock_seconds")
            data = json.dumps(doc, sort_keys=True).encode()
        outputs[path.name] = data
    return outputs


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_run.PER_LAYER)
    assert spec["paths"] == ["bench"]


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_passes_its_checks(name, tmp_path):
    session, metrics = bench_run.run(TINY[name], 3, 1, False, tmp_path, enns)
    assert session.failed == 0 and not session.errors
    assert len(session.calls) >= TINY[name].members + 1
    assert set(metrics) == {m for m, _ in bench_run.END_TO_END}
    assert metrics["ok_share"] == 1.0
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_restores_wrappers_and_reports_every_layer(name, tmp_path):
    before = _bindings()
    session, metrics = bench_run.run(TINY[name], 3, 1, True, tmp_path, enns)
    assert all(getattr(holder, attr) is original for holder, attr, original in before)
    assert session.failed == 0 and not session.errors
    assert set(metrics) >= {m for m, _ in bench_run.PER_LAYER}
    assert session.pass_counts[0] == session.pass_counts[1]
    layer_sum = sum(v for k, v in metrics.items() if k.endswith(".s") and not k.startswith("simulate."))
    assert layer_sum <= metrics["trace.call_s"] * (1 + 1e-9)
    if name == "enns_p1000":
        assert metrics["ensemble.enns_round.calls"] >= 1 and metrics["ensemble.bags"] >= 3
        assert 0 < metrics["ensemble.kept_per_admission"] <= 1
    if name in ("enns_p1000", "dnp_p5000"):
        assert metrics["network.backward.gflop"] > 0 and metrics["stagewise.candidates_scored"] > 0
    if name == "estimate_l1":
        assert metrics["estimation.zero_share_min"] >= 0.5
        assert metrics["network.adagrad_step.calls"] > 0 and metrics["network.Dataset.subset_rows.mb"] > 0
    if name == "theory_verify":
        assert metrics["theory.mc_draws"] > 0 and metrics["theory.qr_gflop"] > 0


def test_spans_close_and_wrappers_restore_when_a_call_raises():
    before = _bindings()
    tracer = Tracer()
    tracer.install(enns)
    try:
        with pytest.raises(ValueError):
            with tracer.span("cli.main", 0):
                enns.network.dropout_mask(None, 2.0, 0)
    finally:
        tracer.restore()
    assert all(getattr(holder, attr) is original for holder, attr, original in before)
    (root, _, _, root_name, _, _), (_, parent, call_id, name, _, _) = tracer.spans
    assert (root_name, name, parent, call_id) == ("cli.main", "network.dropout_mask", root, 0)


@pytest.mark.parametrize("name", list(TINY))
def test_seeded_outputs_identical_with_tracing_on_and_off(name, tmp_path):
    workload = TINY[name]
    workload.setup(enns.cli.main, tmp_path, 11)
    assert enns.cli.main(workload.argv(tmp_path, 11)) == 0
    untraced = _stable_outputs(workload, tmp_path)
    tracer = Tracer()
    tracer.install(enns)
    try:
        with tracer.span("cli.main", 0):
            assert enns.cli.main(workload.argv(tmp_path, 11)) == 0
    finally:
        tracer.restore()
    assert len(tracer.spans) > 1
    assert _stable_outputs(workload, tmp_path) == untraced


def _corrupt_selection(work):
    path = work / "selection.json"
    doc = json.loads(path.read_text())
    doc["selected"] = [doc["selected"][0]] * 2
    path.write_text(json.dumps(doc))


def _corrupt_model(work):
    path = work / "model.json"
    doc = json.loads(path.read_text())
    doc["weights"][1]["data"] = [1.0] * len(doc["weights"][1]["data"])
    path.write_text(json.dumps(doc))


def _corrupt_report(work):
    path = work / "report.json"
    doc = json.loads(path.read_text())
    case = doc["pair_cases"][0]
    case["monte_carlo"] = case["analytic"] + (0.3 if case["analytic"] < 0.5 else -0.3)
    path.write_text(json.dumps(doc))


def _corrupt_seed(work):
    path = work / "selection.json"
    doc = json.loads(path.read_text())
    doc["seed"] += 1
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "name, corrupt",
    [("dnp_p5000", _corrupt_selection), ("estimate_l1", _corrupt_model),
     ("theory_verify", _corrupt_report), ("enns_p1000", _corrupt_seed)],
)
def test_corrupted_output_counts_as_failed(name, corrupt, tmp_path):
    base = TINY[name]
    calls = []

    class Corrupting(type(base)):
        def check(self, work):
            calls.append(work)
            if len(calls) == 3:  # the second call on member 0: a repeat
                corrupt(work)
            return super().check(work)

    workload = Corrupting(**{f: getattr(base, f) for f in ("name", "members", "setup_args", "call_args")})
    session, metrics = bench_run.run(workload, 5, 1, False, tmp_path, enns)
    assert session.failed == 1
    assert metrics["ok_share"] == 1.0 - 1 / len(session.calls)


def test_failed_exit_code_counts_as_failed(tmp_path):
    workload = replace(TINY["dnp_p5000"], call_args=("--method", "dnp", "--s0", "31"))
    session, metrics = bench_run.run(workload, 5, 1, False, tmp_path, enns)
    assert session.failed == len(session.calls)
    assert metrics["ok_share"] == 0.0 and metrics["quality"] == 0.0


def test_check_rejects_out_of_range_selection(tmp_path):
    workload = TINY["dnp_p5000"]
    workload.setup(enns.cli.main, tmp_path, 2)
    (tmp_path / "selection.json").write_text(json.dumps({"selected": [31], "s0": 2}))
    with pytest.raises(CheckFailed, match="outside"):
        workload.check(tmp_path)


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dnp_p5000", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
