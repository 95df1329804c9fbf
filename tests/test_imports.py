"""AST scans of the package source, and its code-line counter.

Run as a script, ``python tests/test_imports.py`` prints the code count
(``code_lines``) of each module of ``src/swarmpde`` and their total.
"""

import ast
import importlib.util
import io
import sys
import tokenize
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


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


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


def _defaulted_parameters(trees: dict) -> list:
    """(module.function, parameter, position) of every parameter with a
    default in the top-level functions and methods of ``trees``; an
    ``__init__`` goes by its class name, and keyword-only parameters have
    position None."""
    found = []
    for name, tree in trees.items():
        for stmt in tree.body:
            funcs = [stmt] if isinstance(stmt, _FUNCS) else []
            if isinstance(stmt, ast.ClassDef):
                funcs = [f for f in stmt.body if isinstance(f, _FUNCS)]
            for fn in funcs:
                called = stmt.name if fn.name == "__init__" else fn.name
                args = fn.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if positional[:1] == ["self"]:
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                found += [(f"{name}.{called}", p, first + k)
                          for k, p in enumerate(positional[first:])]
                found += [(f"{name}.{called}", a.arg, None)
                          for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _unpassed_parameters(defining: dict, calling: list) -> list:
    """Defaulted parameters of ``defining`` that no call in the parsed
    modules ``calling`` passes by keyword, by ``**`` or by enough
    positional arguments (``*`` splats count for nothing).  Calls match
    by the called name."""
    calls = {}
    for tree in calling:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                n_pos = sum(not isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(called, []).append(
                    (n_pos, {k.arg for k in node.keywords}))
    return sorted(
        f"{func}({param}=)" for func, param, pos in _defaulted_parameters(defining)
        if not any(param in kws or None in kws or (pos is not None and n_pos > pos)
                   for n_pos, kws in calls.get(func.split(".")[1], ())))


def test_every_defaulted_parameter_is_passed():
    # tests do not count as callers: a knob only a test sets is still a knob
    callers = sorted(MODULES) + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                                       if not p.name.startswith("test_"))
    parse = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in callers}
    defining = {p.stem: parse[p] for p in MODULES}
    assert _unpassed_parameters(defining, list(parse.values())) == []


def test_scan_flags_an_unpassed_parameter():
    defining = {"a": ast.parse(
        "def f(x, y=1, *, z=2): pass\n"
        "def g(x=0, y=1): pass\n"
        "def h(x=0): pass\n"
        "def k(x=0): pass\n"
        "class C:\n"
        "    def __init__(self, n=3): pass\n"
        "    def m(self, p=4, q=5): pass\n")}
    calling = [ast.parse("f(0, 1)\ng(*args)\nh(**opts)\nC(7)\nC().m(q=6)\nk.x = 1\n")]
    assert _unpassed_parameters(defining, calling) == [
        "a.f(z=)", "a.g(x=)", "a.g(y=)", "a.k(x=)", "a.m(p=)"]


def _private_imports(trees: dict) -> list:
    """``module: source.name`` of every underscore name that a module of
    ``trees`` (name -> parsed module of the package) imports from another
    module of the package, or reads off one it imported."""
    found = []
    for name, tree in trees.items():
        modules = set()  # local names of the package modules it imported
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.append(f"{name}: {node.module}.{alias.name}")
        found += [f"{name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id in modules]
    return sorted(found)


def test_no_module_imports_a_private_name():
    # an underscore name is its module's own business; a rule that two
    # modules share gets a public name
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in MODULES}
    assert _private_imports(trees) == []


def test_scan_flags_a_private_import():
    trees = {
        "a": ast.parse("from .b import _hidden, public\nfrom . import c as cc\n"
                       "from math import _private_but_not_ours\n"
                       "x = cc._inner + cc.outer\ny = self._own\n"),
        "b": ast.parse("def _hidden(): pass\nfrom __future__ import annotations\n"),
    }
    assert _private_imports(trees) == ["a: b._hidden", "a: cc._inner"]


# tokens that hold no code: a line that has only these is not a code line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a
    comment, NL, NEWLINE, INDENT or DEDENT (or the empty end marker),
    outside the module, class and function docstrings.  A token spanning
    lines counts on its first."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module,) + _DEFS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    held = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type not in _NOT_CODE}
    return len(held - docstrings)


_SNIPPET = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


class C:
    """Class docstring."""

    def f(self):
        r"""Function
        docstring."""
        # a comment in a body
        return (1 +
                2)


x = """not a docstring,
still a string"""
'''


def test_code_lines_counts_only_code():
    # import, class, def, both lines of the return, and the x line
    assert code_lines(_SNIPPET) == 6


if __name__ == "__main__":
    counts = {p.name: code_lines(p.read_text(encoding="utf-8")) for p in MODULES}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
