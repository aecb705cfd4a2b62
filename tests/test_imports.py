"""Every module-level import in the package is used by the module that makes it, and every
local a function stores is read in that function."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nqkd"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom math import comb as c, pi\n" \
             "__all__ = ['pi']\nos.getcwd()\n"
    assert unused_imports(source) == ["line 2: json", "line 4: c"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_locals(source: str) -> list[str]:
    """Names a function stores and never loads, in its own body or a nested one; ``_`` and the
    names it declares ``global`` or ``nonlocal`` aside."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, loaded = {}, {"_"}
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                loaded.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    loaded.add(node.id)
        found += [f"line {line}: {name} in {func.name}" for name, line in stored.items() if name not in loaded]
    return found


def test_unused_locals_are_found():
    source = "def f(a):\n    dim = 1 << a\n    for _ in range(a):\n        total = a\n    x, y = a, a\n" \
             "    def g():\n        return x\n    global seen\n    seen = a\n    return g\n"
    assert unused_locals(source) == ["line 2: dim in f", "line 4: total in f", "line 5: y in f"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []
