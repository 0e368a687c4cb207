"""Every name a program module imports is used in that module, and none is
another program module's private (``_name``) one."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "demandhmm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's import statements that nothing else reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def private_imports(source: str) -> list:
    """``_name``s that the module's relative or ``demandhmm`` imports take from another program module."""
    private = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("demandhmm")):
            private += [a.name for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]
    return private


def test_detects_an_unused_import():
    source = "import os\nfrom math import pi, tau\nfrom . import x as y\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["pi", "y"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_a_private_import():
    source = (
        "from . import __version__, _cache\nfrom .filtering import _validate, smooth_states\n"
        "from demandhmm.states import _logits_clamped\nfrom numpy import _core\n"
    )
    assert private_imports(source) == ["_cache", "_validate", "_logits_clamped"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []
