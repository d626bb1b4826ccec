"""The benchmark imports library names inside its functions, so a renamed or
deleted name would surface only as a failed benchmark run, and a script's
only as a failed subprocess. Resolve every ``from bipbis... import name`` of
``bench/*.py`` and ``scripts/*.py`` here instead. The other way round, every
name the package exports must be reached by the library, a script, the
benchmark or an acceptance criterion, not by unit tests alone."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).parent.parent / "bench"
SCRIPTS = Path(__file__).parent.parent / "scripts"
SRC = Path(__file__).parent.parent / "src" / "bipbis"
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

# Exported names that nothing outside the unit tests reaches, each with the
# claim it is kept for.
KEEP = {
    "LocalPairVectorFunction": "the only way to run a local pair through stability_trial and "
                               "detect_bad_steps, the path stability that the paper's bound on "
                               "local algorithms rests on",
    "constant_pair": "the paper's trivial algorithm that takes one partition class, "
                     "as a 0-local pair",
}


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


def names_used(path, imports=False):
    """Every name a file reads as a Name or an Attribute, and with
    ``imports`` every name it imports."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_exported_name_is_reached_outside_the_unit_tests():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    reached = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            reached |= names_used(path)
    for path in [*BENCH.glob("*.py"), *SCRIPTS.glob("*.py"), ACCEPTANCE]:
        reached |= names_used(path, imports=True)
    unreached = exported - reached
    assert sorted(unreached - KEEP.keys()) == []  # reached by unit tests alone
    assert KEEP.keys() <= unreached  # a kept name that is now reached leaves KEEP
