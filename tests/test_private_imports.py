"""Module boundaries: no enns module imports another module's private names."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "enns"


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names imported from an enns module (relative or absolute)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "enns"):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def test_detector_flags_relative_and_absolute_private_imports():
    source = "from .network import train, _a\nfrom enns.stagewise import _b\nfrom numpy import _c\n"
    assert private_imports(source) == ["_a", "_b"]


def test_no_module_imports_private_names_from_another():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    offenders = {}
    for path in modules:
        names = private_imports(path.read_text(encoding="utf8"))
        if names:
            offenders[path.name] = names
    assert offenders == {}
