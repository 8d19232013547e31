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


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import but never reads (``import a.b`` binds ``a``)."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "annotations"  # from __future__ import annotations
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_detector_flags_unused_imports():
    source = (
        "from __future__ import annotations\nimport os.path\nimport json as js\n"
        "from dataclasses import dataclass, replace\nfrom .network import TrainOptions\n"
        "@dataclass\nclass A:\n    x: js.JSONDecoder\n\nos.path.join('a')\n"
    )
    assert unused_imports(source) == ["replace", "TrainOptions"]


def test_every_imported_name_is_used():
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert modules
    offenders = {}
    for path in modules:
        names = unused_imports(path.read_text(encoding="utf8"))
        if names:
            offenders[path.name] = names
    assert offenders == {}


def unread_private_names(source: str) -> list[str]:
    """Module-level ``_``-prefixed functions, classes and constants that the
    module never reads (dunder names such as ``__version__`` are exempt)."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined if name.startswith("_") and not name.startswith("__") and name not in read]


def test_detector_flags_unread_private_names():
    source = (
        "import os\n__version__ = '1'\n_USED = 1\n_UNUSED: int = 2\n"
        "def _helper():\n    _local = _USED\n    return _local\n"
        "def _orphan():\n    return os.sep\n"
        "class _Gone:\n    _attr = 3\n"
        "def public() -> int:\n    return _helper()\n"
    )
    assert unread_private_names(source) == ["_UNUSED", "_orphan", "_Gone"]


def test_every_private_name_is_read_in_its_module():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    offenders = {}
    for path in modules:
        names = unread_private_names(path.read_text(encoding="utf8"))
        if names:
            offenders[path.name] = names
    assert offenders == {}
