import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "swarmpde"
MODULES = sorted(SRC.glob("*.py"))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)  # names listed in __all__ are exported, hence used
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_every_module_is_scanned():
    assert {"solver_core.py", "diagnostics.py", "config.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n"
                     "__all__ = ['tau']\nprint(os.sep)\n")
    assert _unused_imports(tree) == ["pi (line 2)"]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreferenced_definitions(trees: dict) -> list:
    """Top-level functions and classes that no module of ``trees`` (name
    -> parsed module) references outside their own body and no
    ``__all__`` exports."""
    defined, referenced, exported = [], set(), set()
    for name, tree in trees.items():
        exported |= _exported(tree)
        for stmt in tree.body:
            own = None
            if isinstance(stmt, _DEFS):
                defined.append(f"{name}.{stmt.name}")
                own = stmt.name  # its references to itself do not count
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    referenced.add(node.attr)
    return sorted(d for d in defined
                  if d.split(".")[1] not in referenced | exported)


def test_every_definition_is_referenced_or_exported():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in MODULES}
    assert _unreferenced_definitions(trees) == []


def test_scan_flags_an_unreferenced_definition():
    trees = {
        "a": ast.parse("__all__ = ['api']\ndef api(): return _helper()\n"
                       "def _helper(): return 1\ndef dead(): return dead()\n"
                       "class Unused: pass\n"),
        "b": ast.parse("from . import a\ndef used_elsewhere(): pass\nx = a.used_elsewhere\n"),
    }
    assert _unreferenced_definitions(trees) == ["a.Unused", "a.dead"]


def test_every_perfbench_hook_resolves(monkeypatch):
    # the traced benchmark run wraps the names its hooks look up; a rename
    # in the package must not quietly blind it.  solver_core.positivity_dt
    # is the one hook known to be dead
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    with spans.Tracer() as tracer:
        pass
    assert set(tracer.missing) <= {"solver_core.positivity_dt"}
