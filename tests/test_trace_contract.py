"""The benchmark's tracer (``bench/tracing.py``) wraps public enns functions by
module and attribute name. These tests run it over tiny CLI calls, so a
refactor that renames, drops or stops calling a traced function fails in the
tier-1 suite and not only in the benchmark's own tests."""

import importlib.util
from pathlib import Path

import enns
import enns.cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("enns_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def home(module_name, attr_path):
    """(owner, attribute) where a target is defined, e.g. (Dataset, "subset_rows")."""
    owner = getattr(enns, module_name)
    *class_path, attr = attr_path.split(".")
    for part in class_path:
        owner = getattr(owner, part)
    return owner, attr


def enns_modules():
    return [enns] + [m for m in vars(enns).values() if type(m) is type(enns)]


def test_tracer_binds_every_target_and_restores(tmp_path):
    tracing = load_tracing()
    originals = {name: getattr(*home(module, path)) for name, module, path, _ in tracing.TARGETS}
    data = tmp_path / "data"
    assert enns.cli.main([
        "gen-data", "--out-dir", str(data), "--n", "40", "--p", "6", "--response", "linear",
        "--s", "2", "--seed", "3",
    ]) == 0
    xy = ["--x", str(data / "X.csv"), "--y", str(data / "y.csv")]
    calls = [
        ["select", *xy, "--method", "enns", "--s0", "2", "--bags", "2", "--ps", "0.5", "--epochs", "5",
         "--out", str(tmp_path / "enns.json")],
        ["select", *xy, "--method", "dnp", "--s0", "2", "--epochs", "5", "--out", str(tmp_path / "dnp.json")],
        ["estimate", *xy, "--selected", "1,2", "--hidden", "4,3", "--epochs", "5",
         "--sparsity-mode", "percentile", "--sparsity-values", "50,50", "--model-out", str(tmp_path / "m.json")],
    ]

    tracer = tracing.Tracer()
    tracer.install(enns)
    try:
        for name, module, path, _ in tracing.TARGETS:
            assert getattr(*home(module, path)).__wrapped__ is originals[name], name
        scored, steps = [], []
        for argv in calls:
            before = {name: len(tracer.durations(name)) for name in ("network.backward", "network.adagrad_step")}
            assert enns.cli.main(argv) == 0, argv[0]
            scored.append(tracer.counts["stagewise.candidates_scored"])
            steps.append({name: len(tracer.durations(name)) - n for name, n in before.items()})
    finally:
        tracer.restore()

    # the dnp call (p=6, s0=2) scores 6 candidates, then 5
    assert scored[1] - scored[0] == 6 + 5
    # every backward pass of the percentile estimate feeds one traced Adagrad step
    assert steps[2]["network.adagrad_step"] == steps[2]["network.backward"] > 0
    assert tracer.counts["network.backward.gflop"] > 0
    for name, module, path, _ in tracing.TARGETS:
        assert getattr(*home(module, path)) is originals[name], name
    traced = {id(fn) for fn in originals.values()}
    left = [
        (m.__name__, attr)
        for m in enns_modules()
        for attr, v in vars(m).items()
        if id(getattr(v, "__wrapped__", None)) in traced
    ]
    assert left == []


def test_verify_theory_spans_nest_on_one_thread(tmp_path):
    # the tracer keeps one span stack, so a traced function run beside another,
    # on a second thread, would open spans that cross their parent or a sibling
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(enns)
    try:
        with tracer.span("call", 0):
            assert enns.cli.main([
                "verify-theory", "--reps", "2000", "--pair-betas", "0,1,2", "--sigmas", "0.5,1",
                "--first-cases", "1:2,3:20", "--out", str(tmp_path / "report.json"),
            ]) == 0
    finally:
        tracer.restore()

    assert None not in tracer.spans  # every span closed
    spans = {span_id: (parent, start, end) for span_id, parent, _, _, start, end in tracer.spans}
    for parent, start, end in spans.values():
        if parent != -1:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    children = {}
    for parent, start, end in spans.values():
        children.setdefault(parent, []).append((start, end))
    for siblings in children.values():
        siblings.sort()
        assert all(prev_end <= start for (_, prev_end), (start, _) in zip(siblings, siblings[1:]))
    assert tracer.counts["theory.qr_gflop"] > 0
    assert len(tracer.durations("theory.mc_first_selection")) == 2
