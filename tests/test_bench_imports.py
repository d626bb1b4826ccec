"""The benchmark imports library names inside its functions, so a renamed or
deleted name would surface only as a failed benchmark run, and a script's
only as a failed subprocess. Resolve every ``from bipbis... import name`` of
``bench/*.py`` and ``scripts/*.py`` here instead."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).parent.parent / "bench"
SCRIPTS = Path(__file__).parent.parent / "scripts"


def bipbis_imports(path):
    """(line, module, name) of every ``from bipbis... import name`` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "bipbis"
            for alias in node.names]


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_bench_imports_from_the_library_resolve(path):
    check_imports_resolve(path)


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_imports_from_the_library_resolve(path):
    check_imports_resolve(path)


def check_imports_resolve(path):
    for line, module, name in bipbis_imports(path):
        mod = importlib.import_module(module)
        assert hasattr(mod, name), f"{path.name}:{line}: {module} has no {name!r}"


def test_the_bench_imports_library_names():
    # the guard must see the imports it is for
    assert len(bipbis_imports(BENCH / "tracing.py")) >= 20
    assert len(bipbis_imports(SCRIPTS / "small_scale_phase.py")) >= 3
