"""The benchmark imports library names inside its functions, so a renamed or
deleted name would surface only as a failed benchmark run. Resolve every
``from bipbis... import name`` of ``bench/*.py`` here instead."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).parent.parent / "bench"


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
    for line, module, name in bipbis_imports(path):
        mod = importlib.import_module(module)
        assert hasattr(mod, name), f"{path.name}:{line}: {module} has no {name!r}"


def test_the_bench_imports_library_names():
    # the guard must see the imports it is for
    assert len(bipbis_imports(BENCH / "tracing.py")) >= 20
