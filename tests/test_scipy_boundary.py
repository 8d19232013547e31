"""The package never imports scipy, and it loads the selection-probability
theory only on first use: no module imports it when it loads, the package
serves the theory names on first use, no command but ``verify-theory`` loads
it, and no command loads scipy."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import enns
import enns.theory

REPO_DIR = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_DIR / "src" / "enns"

THEORY_NAMES = [
    "SignalProfile", "folded_normal_cdf", "folded_normal_pdf", "mc_first_selection", "mc_select_over",
    "pair_wins", "prob_first_correct", "prob_select_over",
]

# the public names of ``dir(enns)`` after a bare ``import enns``
PUBLIC_NAMES = [
    "BaggedDropoutSpec", "BaggedPrediction", "Dataset", "DnpConfig", "EnnsConfig", "GroundTruth",
    "NetworkArchitecture", "NetworkParameters", "NumericalError", "ResponseSpec",
    "SelectionReport", "SelectionState", "SignalProfile", "SparsitySpec", "TrainOptions",
    "adagrad_step", "backward", "bootstrap_indices", "candidate_scores", "classification_metrics", "cores",
    "dnp_run", "dropout_mask", "empirical_loss", "enns_round", "enns_select", "ensemble", "estimation",
    "filter_appearances", "fit_l1", "fit_stagewise", "folded_normal_cdf", "folded_normal_pdf", "forward_batch",
    "gen_design_correlated", "gen_design_uniform", "gen_response", "layer_deltas", "load_model",
    "mc_first_selection", "mc_select_over", "metrics", "model_from_json", "model_to_json", "network",
    "pair_wins", "predict_bagged_dropout", "prob_first_correct", "prob_select_over", "regression_metrics", "save_model",
    "seeding", "selection_metrics", "simulate", "soft_threshold", "stagewise", "stagewise_fit", "theory", "train",
    "xavier_init",
]


def run_fresh(script: str, *args: str) -> str:
    """The standard output of ``script`` in a new interpreter that imports enns from ``src``."""
    path = os.pathsep.join(filter(None, [str(REPO_DIR / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# --- static guard -------------------------------------------------------------------


def scipy_and_theory_imports(source: str) -> tuple[list[int], list[int]]:
    """Line numbers of the imports of scipy anywhere in ``source``, and of the
    imports of ``enns.theory`` (relative or absolute) outside a function body,
    where they run when the module loads."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    deferred = {id(node) for f in functions for stmt in f.body for node in ast.walk(stmt)}
    scipy, theory = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import in src/enns is one from the enns package
            base = ".".join(filter(None, ["enns" if node.level else None, node.module]))
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            scipy.append(node.lineno)
        if id(node) not in deferred and "enns.theory" in modules:
            theory.append(node.lineno)
    return sorted(scipy), sorted(theory)


def test_detector_flags_scipy_anywhere_and_theory_at_module_level():
    source = (
        "import numpy as np\nfrom scipy import special\nimport scipy.integrate\n"
        "from .theory import prob_select_over\nfrom enns import theory\nimport enns.theory\n"
        "from . import network, theory\n"
        "def f():\n    from . import theory\n    import scipy\n    return theory, scipy\n"
        "from .theoryx import a\nimport theory\nif True:\n    from .theory import b\n"
    )
    assert scipy_and_theory_imports(source) == ([2, 3, 10], [4, 5, 6, 7, 15])


def test_no_module_imports_scipy_or_imports_theory_when_it_loads():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert PACKAGE_DIR / "theory.py" in modules
    offenders = {}
    for path in modules:
        scipy, theory = scipy_and_theory_imports(path.read_text(encoding="utf8"))
        if scipy or theory:
            offenders[path.name] = {"scipy": scipy, "theory": theory}
    assert offenders == {}


# --- public names -------------------------------------------------------------------


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(enns, name) is not None, name
    for name in THEORY_NAMES:
        assert getattr(enns, name) is getattr(enns.theory, name), name
    assert enns.theory is sys.modules["enns.theory"]
    from enns import prob_select_over

    assert prob_select_over is enns.theory.prob_select_over


def test_fresh_import_lists_the_same_names_and_a_miss_loads_no_scipy():
    out = run_fresh(
        """
        import json, sys
        import enns
        names = [n for n in dir(enns) if not n.startswith("_")]
        try:
            enns.nope
        except AttributeError as exc:
            miss = str(exc)
        print(json.dumps([names, miss, hasattr(enns, "nope"), "scipy" in sys.modules, "enns.theory" in sys.modules]))
        """
    )
    names, miss, has, scipy, theory = json.loads(out)
    assert names == PUBLIC_NAMES
    assert miss == "module 'enns' has no attribute 'nope'"
    assert (has, scipy, theory) == (False, False, False)


# --- subprocess guard -----------------------------------------------------------------

TINY_EXPERIMENT = """
n = 40
p = 5
response = linear
s = 2
method = enns
s0 = 2
bags = 3
ps = 0.5
max_epochs = 5
repetitions = 1
seed = 3
"""


def test_no_command_loads_scipy_and_only_verify_theory_loads_theory(tmp_path):
    (tmp_path / "exp.cfg").write_text(TINY_EXPERIMENT)
    out = run_fresh(
        """
        import json, sys
        from pathlib import Path

        import enns
        import enns.cli
        from enns.cli import main

        d = Path(sys.argv[1])
        x, y = str(d / "X.csv"), str(d / "y.csv")
        runs = [
            ["gen-data", "--out-dir", str(d), "--n", "40", "--p", "5", "--response", "linear", "--s", "2"],
            ["select", "--x", x, "--y", y, "--method", "dnp", "--s0", "2", "--epochs", "5", "--out", str(d / "d.json")],
            ["select", "--x", x, "--y", y, "--method", "enns", "--s0", "2", "--bags", "3", "--ps", "0.5",
             "--epochs", "5", "--out", str(d / "e.json")],
            ["estimate", "--x", x, "--y", y, "--selected", "1,2", "--epochs", "5", "--model-out", str(d / "m.json"),
             "--metrics-out", str(d / "metrics.json")],
            ["run-experiment", "--config", str(d / "exp.cfg"), "--out", str(d / "results.csv")],
        ]
        loaded = [["import", "scipy" in sys.modules, "enns.theory" in sys.modules]]
        for argv in runs:
            assert main(argv) == 0, argv
            loaded.append([argv[0], "scipy" in sys.modules, "enns.theory" in sys.modules])
        assert main(["verify-theory", "--reps", "200", "--out", str(d / "report.json")]) == 0
        loaded.append(["verify-theory", "scipy" in sys.modules, "enns.theory" in sys.modules])
        print(json.dumps(loaded))
        """,
        str(tmp_path),
    )
    assert json.loads(out) == [
        ["import", False, False],
        ["gen-data", False, False],
        ["select", False, False],
        ["select", False, False],
        ["estimate", False, False],
        ["run-experiment", False, False],
        ["verify-theory", False, True],
    ]
