"""Every name a program module imports is used in that module, and none is
another program module's private (``_name``) one; every private name a
program file binds at its top level is read in that file; no program module
reads or writes a private attribute that another module's class defines;
every ``except`` handler in a program module ends in ``raise``, but for the
few sites named in ``HANDLED_HERE``; and a fresh interpreter loads only the
modules a command runs, the package's names resolving on first access."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import demandhmm
from demandhmm import dataio
from demandhmm.cli import main
from demandhmm.generative import uk_holiday_calendar
from helpers import CLI_MODULES, draws_from_params, small_truth

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "demandhmm"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]

# The functions whose ``except`` handlers may end without ``raise``, and why.
HANDLED_HERE = {
    "cli.main": "maps each error to its exit code",
    "cli._params_from_json": "marks the value bad and raises ConfigError after",
    "dataio.write_error_json": "error.json is best effort; the JSON still goes to stderr",
    "sampler._BlockAdapter.chol": "keeps the last good proposal factor",
}


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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def orphaned_private_names(source: str) -> list:
    """``_name``s the module binds at its top level (functions, classes,
    assignments) that nothing in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [t.id for t in targets if isinstance(t, ast.Name)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if _is_private(name) and name not in read]


def class_private_names(source: str) -> set:
    """``_name``s the module's classes define: fields, methods and what their methods set on ``self``."""
    names = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        names.update(
            node.attr for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        )
    return {name for name in names if _is_private(name)}


def foreign_private_attributes(source: str, others) -> list:
    """``_name`` attributes the module reads or writes on anything but ``self`` or ``cls``
    that a class of one of the ``others`` sources defines and none of its own classes does."""
    foreign = set().union(*map(class_private_names, others)) - class_private_names(source)
    return sorted({
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in foreign
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    })


def handlers_without_raise(source: str) -> list:
    """Dotted names of the functions (``Class.method`` in a class) holding an
    ``except`` handler whose last statement is not ``raise``, once per handler."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.ExceptHandler) and not isinstance(child.body[-1], ast.Raise):
                found.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


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


def test_detects_an_orphaned_private_name():
    source = (
        "import numpy as _np\n_USED = 1\n_UNUSED = 2\n_typed: int = 3\n__all__ = []\n"
        "def _helper():\n    return _USED\nclass _Kept:\n    _inner = 4\n"
        "async def _gone():\n    _local = 5\n"
        "def public():\n    return _helper(), _Kept\n"
    )
    assert orphaned_private_names(source) == ["_UNUSED", "_typed", "_gone"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_orphaned_private_names(path):
    assert orphaned_private_names(path.read_text()) == []


def test_detects_a_foreign_private_attribute():
    owner = (
        "class Series:\n    _cache: dict\n    _kind = 1\n    __slots__ = ()\n"
        "    def _build(self):\n        self._memo = 1\n    def public(self):\n        return self._cache\n"
    )
    assert class_private_names(owner) == {"_cache", "_kind", "_build", "_memo"}
    user = (
        "import numpy as np\nclass Own:\n    _kind = 2\n"
        "def f(cov, self):\n    cov._cache[1] = cov._build()\n"
        "    return cov._memo, cov._kind, cov.public(), self._cache, cov._other, np._core\n"
    )
    assert foreign_private_attributes(user, [owner]) == ["_build", "_cache", "_memo"]
    assert foreign_private_attributes(owner, [user]) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_foreign_private_attributes(path):
    others = [p.read_text() for p in MODULES if p != path]
    assert foreign_private_attributes(path.read_text(), others) == []


def test_detects_a_handler_without_raise():
    source = (
        "try:\n    import x\nexcept ImportError:\n    x = None\n"
        "class Step:\n    def go(self):\n        try:\n            f()\n"
        "        except ValueError:\n            return 0\n        except KeyError as exc:\n"
        "            raise TypeError() from exc\n"
        "def run():\n    def inner():\n        try:\n            f()\n"
        "        except OSError:\n            raise\n    try:\n        inner()\n"
        "    except Exception:\n        if g():\n            raise\n"
    )
    assert handlers_without_raise(source) == ["", "Step.go", "run"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_exception_as_control_flow(path):
    sites = {f"{path.stem}.{name}" for name in handlers_without_raise(path.read_text())}
    assert sorted(sites - set(HANDLED_HERE)) == []


def test_every_exempt_handler_exists():
    sites = {f"{p.stem}.{name}" for p in MODULES for name in handlers_without_raise(p.read_text())}
    assert set(HANDLED_HERE) <= sites


def fresh_imports(code: str) -> tuple:
    """``(program modules, every module)`` a fresh interpreter has loaded after running ``code``.

    Program modules are named without the ``demandhmm.`` prefix.
    """
    probe = f"{code}\nimport sys\nprint(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    return {name.partition(".")[2] for name in loaded if name.startswith("demandhmm.")}, loaded


def command_imports(argv) -> set:
    """The program modules a fresh interpreter loads to run the CLI command ``argv``."""
    program, _ = fresh_imports(f"from demandhmm.cli import main\nassert main({argv!r}) == 0")
    return program


@pytest.fixture(scope="module")
def short_inputs(tmp_path_factory):
    """A simulated year, its holidays and config, and one draw at the truth."""
    root = tmp_path_factory.mktemp("imports")
    uk_holiday_calendar(2020, 2022).to_csv(root / "holidays.csv")
    (root / "config.txt").write_text("preset = paper-like\nk_annual = 2\nk_prec_annual = 2\n")
    common = ["--holidays", str(root / "holidays.csv"), "--config", str(root / "config.txt"),
              "--seed", "5"]
    assert main(["simulate", *common, "--out-dir", str(root / "sim"),
                 "--start", "2021-03-01", "--days", "370"]) == 0
    dataio.write_draws_csv(root / "draws.csv", draws_from_params([small_truth()]))
    return root, common


def test_package_import_loads_no_module():
    program, _ = fresh_imports("import demandhmm")
    assert program == set()


def test_cli_import_loads_what_every_command_needs():
    program, loaded = fresh_imports("import demandhmm.cli")
    assert program == CLI_MODULES
    assert "statistics" not in loaded


def test_simulate_loads_no_sampler_filter_or_ppc(short_inputs):
    root, common = short_inputs
    program = command_imports(["simulate", *common, "--out-dir", str(root / "resim"),
                               "--start", "2021-03-01", "--days", "40"])
    assert "generative" in program
    assert program.isdisjoint({"sampler", "filtering", "ppc", "diagnostics"})


def test_smooth_loads_no_sampler_simulator_or_ppc(short_inputs):
    root, common = short_inputs
    program = command_imports(["smooth", *common, "--out-dir", str(root / "smooth"),
                               "--data", str(root / "sim" / "data.csv"),
                               "--draws", str(root / "draws.csv")])
    assert "filtering" in program
    assert program.isdisjoint({"sampler", "generative", "ppc"})


@pytest.mark.parametrize("name", demandhmm.__all__)
def test_package_name_is_its_modules_object(name):
    obj = getattr(demandhmm, name)
    home = obj.__module__
    assert home.startswith("demandhmm.")
    assert getattr(importlib.import_module(home), name) is obj


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(demandhmm, "no_such_name")
    assert not hasattr(demandhmm, "no_such_name")
