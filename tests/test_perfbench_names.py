"""Every program name the benchmark in ``perfbench/`` reaches still resolves.

The benchmark times and checks the program by name: the tracer wraps the
functions listed in ``perfbench/tracing.py``'s ``TARGETS``, and its scripts
import from ``demandhmm``. A renamed or removed name would break the
benchmark, not the program's own tests, so these tests read perfbench's
source (without importing or changing it) and look each name up.

The tracer swaps each target for a wrapper in the modules loaded when it
starts, and puts the originals back there when it stops. A module that first
loads in between and binds a target by name (``from .states import f``)
would keep the wrapper, so the modules that load on demand call another
module's targets through that module.
"""

import ast
import importlib
import pathlib

import pytest

from helpers import CLI_MODULES

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "demandhmm"


def tracer_targets(source: str) -> list:
    """The (module, qualname) pairs of the ``TARGETS`` tuple in a tracing module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("no TARGETS assignment")


def demandhmm_imports(source: str) -> list:
    """The (module, name) pairs that ``from demandhmm... import name`` statements take."""
    return [
        (node.module, a.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module == "demandhmm" or node.module.startswith("demandhmm."))
        for a in node.names
    ]


def targets_bound_by_name(source: str, targets) -> list:
    """The ``module:function`` targets that the source's ``from ... import`` statements bind.

    Methods (``Class.method`` targets) are wrapped on their class, so they are
    not among them.
    """
    functions = {(m, q) for m, q in targets if "." not in q}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("demandhmm")):
            module = f"demandhmm.{node.module}" if node.level else node.module
            found += [f"{module}:{a.name}" for a in node.names if (module, a.name) in functions]
    return found


def resolves(module: str, qualname: str) -> bool:
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        if not hasattr(obj, part):
            try:   # a submodule that its package has not imported yet
                obj = importlib.import_module(f"{obj.__name__}.{part}")
                continue
            except (AttributeError, ImportError):
                return False
        obj = getattr(obj, part)
    return True


def test_readers_find_the_names():
    tracing = (
        'X = 1\nTARGETS = (\n    ("demandhmm.states", "f", None),\n'
        '    ("demandhmm.a", "C.m", lambda a, k: 1),\n)\n'
    )
    assert tracer_targets(tracing) == [("demandhmm.states", "f"), ("demandhmm.a", "C.m")]
    run = "import os\nfrom demandhmm import cli\nfrom demandhmm.filtering import a, b\nfrom . import x\n"
    assert demandhmm_imports(run) == [("demandhmm", "cli"), ("demandhmm.filtering", "a"),
                                      ("demandhmm.filtering", "b")]
    assert resolves("demandhmm", "dataio") and resolves("demandhmm.paramspace", "ParamSpace.unpack")
    assert not resolves("demandhmm.filtering", "no_such_function")


TARGETS = tracer_targets((PERFBENCH / "tracing.py").read_text())
IMPORTS = sorted({pair for path in sorted(PERFBENCH.glob("*.py"))
                  for pair in demandhmm_imports(path.read_text())})


def test_readers_find_perfbench_names():
    assert TARGETS and IMPORTS


@pytest.mark.parametrize("module, qualname", TARGETS, ids=[f"{m}:{q}" for m, q in TARGETS])
def test_tracer_target_resolves(module, qualname):
    assert resolves(module, qualname)


@pytest.mark.parametrize("module, name", IMPORTS, ids=[f"{m}:{n}" for m, n in IMPORTS])
def test_imported_name_resolves(module, name):
    assert resolves(module, name)


def test_detects_a_target_bound_by_name():
    targets = [("demandhmm.states", "f"), ("demandhmm.a", "C.m"), ("demandhmm.a", "g")]
    source = (
        "from . import states\nfrom .states import f, h\nfrom .a import C\n"
        "def run():\n    from demandhmm.a import g\n    return states.f(), C.m(), g()\n"
    )
    assert targets_bound_by_name(source, targets) == ["demandhmm.states:f", "demandhmm.a:g"]


ON_DEMAND = sorted(p for p in SRC.glob("*.py") if p.stem not in CLI_MODULES | {"__init__"})


@pytest.mark.parametrize("path", ON_DEMAND, ids=[p.stem for p in ON_DEMAND])
def test_on_demand_module_binds_no_target_by_name(path):
    assert targets_bound_by_name(path.read_text(), TARGETS) == []
