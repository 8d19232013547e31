"""Module boundaries: no enns module imports another module's private names,
and every name an enns module defines is used."""

import ast
import re
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_DIR / "src" / "enns"


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
    """In every enns module (not ``__init__.py``, which only re-exports), script and test module."""
    modules = [p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"]
    modules = sorted([*modules, *REPO_DIR.glob("scripts/*.py"), *REPO_DIR.glob("tests/*.py")])
    assert modules
    offenders = {}
    for path in modules:
        names = unused_imports(path.read_text(encoding="utf8"))
        if names:
            offenders[str(path.relative_to(REPO_DIR))] = names
    assert offenders == {}


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class or assigned constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def read_names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_private_names(source: str) -> list[str]:
    """Module-level ``_``-prefixed functions, classes and constants that the
    module never reads (dunder names such as ``__version__`` are exempt)."""
    tree = ast.parse(source)
    read = read_names(tree)
    return [
        name for node in tree.body for name in defined_names(node)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


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


def unused_public_names(source: str, elsewhere: str) -> list[str]:
    """Module-level public functions, classes and constants of ``source`` that
    no other top-level statement of it reads and no word of the text
    ``elsewhere`` names (a function that only calls itself is unused)."""
    tree = ast.parse(source)
    reads = [read_names(node) for node in tree.body]
    words = set(re.findall(r"\w+", elsewhere))
    unused = []
    for i, node in enumerate(tree.body):
        used = words.union(*reads[:i], *reads[i + 1 :])
        unused += [name for name in defined_names(node) if not name.startswith("_") and name not in used]
    return unused


def test_detector_flags_public_names_used_nowhere():
    source = (
        "import os\nUSED = 1\nREAD_HERE = 2\nUNUSED: int = 3\n_PRIVATE = 4\n"
        "def helper():\n    return os.sep\n"
        "def orphan():\n    inner = READ_HERE\n    return inner\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n"
        "class Gone:\n    attr = 5\n"
    )
    elsewhere = "from m import USED, helper\norphans = Gone_ = attr = inner = None\n"
    assert unused_public_names(source, elsewhere) == ["UNUSED", "orphan", "recursive", "Gone"]


def test_every_public_name_is_used():
    """Read by another top-level statement of its module, or named in another
    enns module (not ``__init__.py``, which only re-exports), a script, the
    benchmark, a test or the README. A test oracle in ``tests/_oracles.py`` is
    read by another of its top-level statements or named in a test module."""
    paths = [
        *PACKAGE_DIR.glob("*.py"), *REPO_DIR.glob("scripts/**/*.py"), *REPO_DIR.glob("bench/**/*.py"),
        *REPO_DIR.glob("tests/**/*.py"), REPO_DIR / "README.md",
    ]
    texts = {path: path.read_text(encoding="utf8") for path in paths if path != PACKAGE_DIR / "__init__.py"}
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert modules and len(texts) > len(modules)
    offenders = {}
    for path in modules:
        names = unused_public_names(texts[path], "\n".join(text for other, text in texts.items() if other != path))
        if names:
            offenders[path.name] = names
    oracles = REPO_DIR / "tests" / "_oracles.py"
    test_modules = oracles.parent.glob("test_*.py")
    names = unused_public_names(texts[oracles], "\n".join(texts[path] for path in test_modules))
    if names:
        offenders[oracles.name] = names
    assert offenders == {}
