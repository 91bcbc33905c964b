"""Source hygiene of the package, read with the stdlib ``ast`` module: no
module imports a name it never uses, every private module-level function
or class is referenced somewhere in the package, and no internal check
is an ``assert`` statement, which ``python -O`` strips, or a bare
``raise AssertionError``.  A subprocess checks that the CLI imports no
``dataclasses``."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import mscheme

SRC = Path(mscheme.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def _names(tree) -> Counter:
    """Occurrences of each identifier, attribute name and imported name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def test_no_unused_imports():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_private_definitions_are_referenced():
    total = sum((_names(tree) for tree in MODULES.values()), Counter())
    unreferenced = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    # references from the definition's own body do not count
                    and total[node.name] == _names(node)[node.name]):
                unreferenced.append(f"{name}: {node.name}")
    assert not unreferenced, unreferenced


def _is_assertion(node) -> bool:
    """An ``assert`` statement or a ``raise AssertionError[(...)]``."""
    if isinstance(node, ast.Assert):
        return True
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree) if _is_assertion(node)]
    assert not found, found


def test_cli_import_loads_no_dataclasses():
    probe = ("import sys, mscheme.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, cwd=SRC.parent).stdout
    assert out.strip() == "[]", out
