"""The benchmark in ``perfbench/`` looks up ncycle names by string and inside
functions, so a deleted or renamed name would only surface when a traced or
probed benchmark run fails.  These tests resolve every such name up front."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ncycle_imports():
    """(file, module, name) for every ``from ncycle... import name`` in perfbench."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ncycle":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_traced_names_resolve():
    tracing = load_tracing()
    for mod_name, path, _ in tracing.TRACED:
        owner = importlib.import_module(f"ncycle.{mod_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"perfbench traces missing ncycle.{mod_name}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"ncycle.{mod_name}.{path}"


@pytest.mark.parametrize("where, module, name", ncycle_imports())
def test_perfbench_imports_resolve(where, module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):  # a submodule, as in ``from ncycle import cli``
        importlib.import_module(f"{module}.{name}")
