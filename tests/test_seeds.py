"""The seeding rule: configs hold hyperparameters only; every call that draws
random numbers takes its seed as a required argument. Seeded outputs are
byte-identical within a version, so the package and its metadata name the
same version."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import enns

LIBRARY_MODULES = ("network", "stagewise", "ensemble", "estimation", "simulate", "theory", "metrics")

SEEDED_CALLS = (
    ("network", "train"),
    ("estimation", "fit_l1"),
    ("estimation", "fit_stagewise"),
    ("stagewise", "stagewise_fit"),
    ("stagewise", "dnp_run"),
    ("stagewise", "candidate_scores"),
    ("ensemble", "enns_select"),
    ("ensemble", "enns_round"),
)


def library_dataclasses():
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"enns.{name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_no_library_dataclass_holds_a_seed():
    classes = list(library_dataclasses())
    assert len(classes) >= 10
    seeded = [f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls) if "seed" in f.name]
    assert seeded == []


@pytest.mark.parametrize("module, name", SEEDED_CALLS)
def test_seeded_call_takes_a_required_seed(module, name):
    fn = getattr(importlib.import_module(f"enns.{module}"), name)
    param = inspect.signature(fn).parameters.get("seed")
    assert param is not None, f"{name} has no seed parameter"
    assert param.default is inspect.Parameter.empty, f"{name}'s seed has a default"


def project_table() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    return tomllib.loads(pyproject.read_text(encoding="utf8"))["project"]


def test_package_version_is_the_pyproject_version():
    # a release that changes seeded outputs bumps both, never one of them
    assert enns.__version__ == project_table()["version"]


def test_numpy_is_the_only_runtime_dependency():
    # scipy is for the tests and scripts/ only, in the test extra
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project_table()["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project_table()["optional-dependencies"]["test"])
