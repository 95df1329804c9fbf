"""AST scans of the package source, and its code-line counter.

Run as a script, ``python tests/test_imports.py`` prints the code count
(``code_lines``) of each module of ``src/swarmpde`` and their total, and
the number of the package's defaulted parameters (``_defaulted_parameters``).
"""

import ast
import hashlib
import importlib.util
import io
import json
import os
import subprocess
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


_SMALL = {"alpha": 0.125, "a_max": 2.0, "time": {"T": 0.1, "sample_dt": 0.05},
          "domain": {"dim": 1, "extents": [1.0], "cells": [16]},
          "diagnostics": {"tail_A": [1.0]}}


def _loaded_after(tmp_path, command: str, cfg: dict) -> list:
    """The modules loaded in a fresh process after a whole ``swarmpde
    <command>`` on ``cfg`` (written to ``tmp_path``, output there too),
    judged after the command and not after the import alone, so that a
    lazy import at run time shows."""
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    script = ("import json, sys\nfrom swarmpde import cli\n"
              f"code = cli.main([{command!r}, '--config', {str(path)!r}, "
              f"'--out', {str(tmp_path / command)!r}])\n"
              "print(json.dumps([code, sorted(sys.modules)]))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=300)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    return modules


@pytest.fixture(scope="module")
def loaded_by_a_run(tmp_path_factory):
    return _loaded_after(tmp_path_factory.mktemp("run"), "run", _SMALL)


@pytest.fixture(scope="module")
def loaded_by_sweep_and_crossval(tmp_path_factory):
    sweep = dict(_SMALL, domain={"dim": 1, "extents": [1.0], "cells": [8]})
    crossval = dict(_SMALL, model={"family": "exponential", "xi0": 0.0},
                    initial={"u_age_cut": [0.3, 0.6], "u_cos_eps": 0.3, "v_cos_eps": 0.2},
                    domain={"dim": 1, "extents": [4.0], "cells": [16]})
    return {command: _loaded_after(tmp_path_factory.mktemp(command), command, cfg)
            for command, cfg in (("sweep", sweep), ("crossval", crossval))}


def test_a_run_loads_no_scipy(loaded_by_a_run):
    # the runtime needs numpy only
    assert [m for m in loaded_by_a_run if m.split(".")[0] == "scipy"] == []


def test_a_run_loads_no_numpy_polynomial(loaded_by_a_run):
    # the Gauss-Legendre rules are literal tables, not leggauss calls
    assert [m for m in loaded_by_a_run if m.startswith("numpy.polynomial")] == []


def test_a_run_loads_no_numpy_ma(loaded_by_a_run, loaded_by_sweep_and_crossval):
    # np.unique's first call imports numpy.ma; the sampling grids take
    # their distinct values from model_spec.distinct_sorted instead
    assert "numpy.ma" not in loaded_by_a_run
    for command, loaded in loaded_by_sweep_and_crossval.items():
        assert "numpy.ma" not in loaded, command


def test_only_a_manifest_loads_openssl(loaded_by_a_run, loaded_by_sweep_and_crossval):
    # hashlib loads OpenSSL (_hashlib) for config_hash alone, so the
    # commands that write no manifest never load it; the hash is unchanged
    for command, loaded in loaded_by_sweep_and_crossval.items():
        assert "_hashlib" not in loaded, command
    assert "_hashlib" in loaded_by_a_run

    from swarmpde.config import RunConfig, config_hash
    canonical = json.dumps(RunConfig.from_dict(_SMALL).to_dict(), sort_keys=True,
                           separators=(",", ":"))
    assert config_hash(RunConfig.from_dict(_SMALL)) \
        == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
    """Top-level functions, classes and constants (names a top-level
    assignment binds, dunder names aside) that no module of ``trees``
    (name -> parsed module) loads outside their own definition and no
    ``__all__`` exports."""
    defined, referenced, exported = [], set(), set()
    for name, tree in trees.items():
        exported |= _exported(tree)
        for stmt in tree.body:
            own = None
            if isinstance(stmt, _DEFS):
                defined.append(f"{name}.{stmt.name}")
                own = stmt.name  # its references to itself do not count
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined += [f"{name}.{node.id}" for t in targets for node in ast.walk(t)
                            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                            and not node.id.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own \
                        and not isinstance(node.ctx, ast.Store):
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
        "a": ast.parse("__all__ = ['api', 'TABLE']\ndef api(): return _helper()\n"
                       "def _helper(): return 1\ndef dead(): return dead()\n"
                       "class Unused: pass\nTABLE = 1\n_RULE = 2\n_UNUSED, _USED = 3, 4\n"),
        "b": ast.parse("from . import a\ndef used_elsewhere(): pass\n"
                       "x = a.used_elsewhere(a._RULE)\nprint(x, a._USED)\n"),
    }
    assert _unreferenced_definitions(trees) == ["a.Unused", "a._UNUSED", "a.dead"]


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


def _passing(defining: dict, calling: list) -> list:
    """(``module.function(param=)``, one flag per call) for every
    defaulted parameter of ``defining``: whether each call in the parsed
    modules ``calling`` passes it by keyword, by ``**`` or by enough
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
    return [(f"{func}({param}=)",
             [param in kws or None in kws or (pos is not None and n_pos > pos)
              for n_pos, kws in calls.get(func.split(".")[1], ())])
            for func, param, pos in _defaulted_parameters(defining)]


def _unpassed_parameters(defining: dict, calling: list) -> list:
    """Defaulted parameters of ``defining`` that no call in ``calling``
    passes (see ``_passing``)."""
    return sorted(name for name, passed in _passing(defining, calling) if not any(passed))


def _unrelied_defaults(defining: dict, calling: list) -> list:
    """Defaulted parameters of ``defining`` whose default no call in
    ``calling`` relies on: every call passes them (see ``_passing``)."""
    return sorted(name for name, passed in _passing(defining, calling) if all(passed))


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


def test_every_default_is_relied_on():
    # a default that every call overrides is a second value of the same
    # knob, and one that only unit tests rely on serves nothing the
    # program runs; the acceptance gates count as callers, since some
    # defaults serve only a gate (div_flux's weights=None)
    callers = sorted(MODULES) + sorted((ROOT / "perfbench").glob("*.py")) \
        + sorted((ROOT / "tools").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    parse = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in callers}
    defining = {p.stem: parse[p] for p in MODULES}
    assert _unrelied_defaults(defining, list(parse.values())) == []


def test_scan_flags_a_default_no_call_relies_on():
    defining = {"a": ast.parse(
        "def f(x, y=1, *, z=2): pass\n"
        "def g(x=0, y=1): pass\n"
        "def h(x=0): pass\n"
        "class C:\n"
        "    def __init__(self, n=3): pass\n")}
    calling = [ast.parse("f(0, 2)\nf(0, y=3, z=4)\ng(1)\ng(*args)\nh(**opts)\n"
                         "C(7)\nC(n=8)\n")]
    assert _unrelied_defaults(defining, calling) == ["a.C(n=)", "a.f(y=)", "a.h(x=)"]


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


def _failure_paths(trees: dict) -> list:
    """``module.function: calls _write_failure`` for every call of
    ``_write_failure`` in the modules of ``trees``, and ``module.cmd_*:
    returns a value`` for every command that returns one: a command that
    fails raises, and the one call in ``cli.main`` writes failure.json."""
    found = []
    for name, tree in trees.items():
        for fn in (node for node in ast.walk(tree) if isinstance(node, _FUNCS)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "_write_failure" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.append(f"{name}.{fn.name}: calls _write_failure")
                elif fn.name.startswith("cmd_") and isinstance(node, ast.Return) \
                        and node.value is not None:
                    found.append(f"{name}.{fn.name}: returns a value")
    return sorted(found)


def test_only_main_writes_failure_json():
    # one failure path: every failed check raises, and the handler in
    # cli.main turns it into the exit status and failure.json
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in MODULES}
    assert _failure_paths(trees) == ["cli.main: calls _write_failure"]


def test_scan_flags_a_second_failure_path():
    trees = {"cli": ast.parse(
        "def main():\n    _write_failure(out, kind, messages)\n    return 1\n"
        "def cmd_a(cfg):\n    if cfg:\n        return EXIT_FAIL\n"
        "def cmd_b(cfg):\n    return\n"
        "def helper(out):\n    cli._write_failure(out, 'x', [])\n")}
    assert _failure_paths(trees) == ["cli.cmd_a: returns a value",
                                     "cli.helper: calls _write_failure",
                                     "cli.main: calls _write_failure"]


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
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}
    print(f"{len(_defaulted_parameters(trees)):6d}  defaulted parameters")
