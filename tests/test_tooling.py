"""The bench tracer's names resolve in the package.

``bench/tracer.py`` wraps each ``(module, function)`` pair of its
``TRACED`` tuple by looking the name up, so a renamed or deleted
function stops a traced run (``bench/run.py --trace 1``) at the first
missing name.  The tuple is read with ``ast``; the bench is not imported.
The same ``ast`` reading keeps the ledger and the CLI off the engine's
private names, checks that every name the test modules import from
the package exists, and keeps numpy and dataclasses out of the package.  The tracer's
check that the asymmetry tests under ``asymmetric_index`` number
``SearchStats.tested`` is held here with a counter in its place.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asymindex.search as search_mod
from asymindex.families import complete, cycle
from asymindex.search import BudgetExceededError, asymmetric_index

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names() -> tuple[tuple[str, str], ...]:
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


def test_traced_names_resolve():
    names = traced_names()
    assert names
    missing = [f"{mod}.{name}" for mod, name in names
               if not callable(getattr(importlib.import_module(f"asymindex.{mod}"),
                                       name, None))]
    assert not missing


def test_asymmetry_tests_number_stats_tested(monkeypatch):
    # the tracer wraps `is_asymmetric` at the search module's binding and
    # checks its calls under `asymmetric_index` against `tested`, on a
    # search that hits and on one that runs out of budget
    calls = []

    def counted(g):
        calls.append(g)
        return original(g)

    original = search_mod.is_asymmetric
    monkeypatch.setattr(search_mod, "is_asymmetric", counted)
    assert asymmetric_index(cycle(8)).stats.tested == len(calls) > 1
    calls.clear()
    with pytest.raises(BudgetExceededError) as exc:
        asymmetric_index(complete(6), max_k=3)
    assert exc.value.stats.tested == len(calls) > 1


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "asymindex"


@pytest.mark.parametrize("module", ["claims", "cli", "families"])
def test_ledger_and_cli_use_public_names(module):
    # the ledger, the CLI and the witness catalog stay on the engine's
    # public surface: no `_`-prefixed name (dunders aside) from another
    # asymindex module
    private = [f"{node.module or '.'}.{alias.name}"
               for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("asymindex"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert not private


TESTS = Path(__file__).resolve().parent


def package_imports():
    """(test file, module, name) for each ``from asymindex... import name``
    and (test file, module, None) for each ``import asymindex...``."""
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "asymindex")
            elif (isinstance(node, ast.ImportFrom) and not node.level
                  and (node.module or "").split(".")[0] == "asymindex"):
                yield from ((path.name, node.module, alias.name)
                            for alias in node.names)


def test_test_imports_resolve():
    # a stale name makes its test module a collection error, and with it
    # every test module that imports from that one; this names the name
    imports = list(package_imports())
    assert imports
    missing = [f"{file}: {mod}" + (f".{name}" if name else "")
               for file, mod, name in imports
               if importlib.util.find_spec(mod) is None
               or name and not hasattr(importlib.import_module(mod), name)]
    assert not missing


def imported_names(path: Path) -> set[str]:
    """Top-level modules and names that ``path`` imports."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "").split(".")[0]}
            imported |= {alias.name for alias in node.names}
    return imported


def test_search_keeps_off_the_group_table():
    # the search walks isomorphism classes, so the group table over
    # Aut(G) stays out of it; numpy and dataclasses (whose import of
    # inspect costs start-up time) stay out of the whole package
    imported = imported_names(PACKAGE / "search.py")
    assert imported
    assert not imported & {"numpy", "subgroup_elements", "MAX_CLOSURE"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [m.name for m in modules
            if imported_names(m) & {"numpy", "dataclasses"}] == []


def test_cli_import_leaves_numpy_unloaded():
    # a fresh interpreter, so no earlier test has loaded these modules
    code = ("import sys, asymindex.cli; "
            "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
