"""Every name a qhilb module imports is used there or re-exported, every
private module-level name it defines is read there, the engine and the
series layer never test a value with ``isinstance(..., Fraction)``, no
method is wrapped in a functools cache, importing the CLI stays cheap,
and every name the benchmark's tracer wraps exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qhilb"
TRACER = TESTS.parent / "perfbench" / "tracer.py"


def unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_found():
    tree = ast.parse("from x import a, b\nimport c\n__all__ = ['b']\n")
    assert unused_imports(tree) == [(1, "a"), (2, "c")]


def unread_private_names(tree: ast.Module):
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path):
    # a private helper nothing in its module reads is left over from a
    # deletion; tests may import private names, but cannot keep one alive
    assert unread_private_names(ast.parse(path.read_text())) == []


def test_unread_private_name_is_found():
    tree = ast.parse("def _f(): pass\nclass _C: pass\n_X = 1\n_Y: int = 2\n"
                     "_Z = 3\n__all__ = []\ndef g(): return _Z\n")
    assert unread_private_names(tree) == [(1, "_f"), (2, "_C"), (3, "_X"), (4, "_Y")]


def fraction_type_tests(tree: ast.Module):
    """Lines of the isinstance calls whose type (or tuple of types) names
    Fraction, bare or as an attribute such as ``fractions.Fraction``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        if any(isinstance(k, ast.Name) and k.id == "Fraction"
               or isinstance(k, ast.Attribute) and k.attr == "Fraction" for k in kinds):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", [SRC / "gw_engine.py", SRC / "coeffring.py", SRC / "quantum.py",
                                  TESTS / "reference_wdvv.py"],
                         ids=lambda p: p.name)
def test_no_fraction_type_tests(path):
    # integral values (engine values, series coefficients) are ints there,
    # so such a test skips them: test against Unknown instead
    assert fraction_type_tests(ast.parse(path.read_text())) == []


def test_fraction_type_test_is_found():
    tree = ast.parse("isinstance(x, Fraction)\nisinstance(y, (int, fractions.Fraction))\n"
                     "isinstance(z, Unknown)\ntype(w) is Fraction\n")
    assert fraction_type_tests(tree) == [1, 2]


def _is_functools_cache(node):
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")
            or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"))


def method_caches(tree: ast.Module):
    """Lines of the functions defined in a class body that are decorated
    with ``lru_cache`` or ``cache``, bare, called or as a ``functools``
    attribute."""
    return sorted(node.lineno for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(_is_functools_cache(d) for d in node.decorator_list))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_method_caches(path):
    # such a cache keys on self, so it keeps every instance it has seen
    # (every Engine, with its memo) alive for the life of the process
    assert method_caches(ast.parse(path.read_text())) == []


def test_method_cache_is_found():
    tree = ast.parse("class A:\n"
                     "    @lru_cache(maxsize=None)\n    def f(self): pass\n"
                     "    @functools.cache\n    def g(self): pass\n"
                     "    @staticmethod\n    @functools.lru_cache\n    def h(): pass\n"
                     "    @property\n    def p(self): pass\n"
                     "    class B:\n        @cache\n        def i(self): pass\n"
                     "@lru_cache(maxsize=None)\ndef m(): pass\n")
    assert method_caches(tree) == [3, 5, 8, 13]


def test_cli_import_skips_dataclasses_and_inspect():
    # each is milliseconds of every process start; a fresh interpreter
    # shows what importing qhilb.cli itself adds
    code = ("import sys; before = set(sys.modules); import qhilb.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_tracer_targets_resolve():
    # the traced benchmark run patches each of these names, so deleting one
    # breaks it; the tracer is read as text, not imported
    tree = ast.parse(TRACER.read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    missing = []
    for _, module, path, _ in targets:
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append((module, path))
    assert targets and missing == []


def test_import_builds_no_ring_tables():
    # the cup table and the pairing are built on first use: importing qhilb
    # and its CLI reduces no monomial and inverts no pairing block
    code = ("import qhilb, qhilb.cli; from qhilb import chow; "
            "print(len(chow._NORMAL_MEMO), chow.cup_basis.cache_info().currsize, "
            "chow.pairing.cache_info().currsize)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0 0 0"
