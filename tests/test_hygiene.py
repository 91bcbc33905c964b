"""Source hygiene of the package, read with the stdlib ``ast`` module: no
module imports a name it never uses, every private module-level function
or class is referenced somewhere in the package, and no internal check
is an ``assert`` statement, which ``python -O`` strips, or a bare
``raise AssertionError``, and the validating path (``build_poset``,
``compute_rank``, ``verify_simplicial``, ``validate_scheme``) is called
only where the input carries no certificate, and no function imports a
package module that its own module imports at the top.  A subprocess
checks that the CLI imports no ``dataclasses``."""

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


def _package_modules(node) -> set:
    """The package modules a relative import statement reads from:
    ``from .poset import x`` reads ``poset``, ``from . import files`` reads
    ``files``."""
    if not isinstance(node, ast.ImportFrom) or not node.level:
        return set()
    return {node.module} if node.module else {alias.name for alias in node.names}


def test_no_function_imports_a_module_imported_at_top_level():
    """A function-level import is kept only to load a module lazily, so one
    from a package module that the module already imports at the top is a
    second binding of a loaded module."""
    found = []
    for name, tree in MODULES.items():
        top = set().union(*(_package_modules(node) for node in tree.body))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    for module in _package_modules(node) & top:
                        found.append(f"{name}:{node.lineno} {fn.name} imports {module}")
    assert not found, found


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


VALIDATING = ("build_poset", "compute_rank", "verify_simplicial", "validate_scheme")
# (module, top-level definition) -> the validating functions it may call:
# minors derive their supports (until the Tutte recursion runs on the
# root's masks) but inherit their ranks, and constructions that no theorem
# certifies validate what they build
VALIDATING_CALLERS = {
    ("scheme.py", "_sub_scheme"): {"verify_simplicial"},
    ("scheme.py", "scheme_from_independence"): {"validate_scheme"},
    ("constructions.py", "scheme_from_semimatroid"): {"build_poset", "compute_rank",
                                                      "verify_simplicial", "validate_scheme"},
    ("constructions.py", "quotient_scheme"): {"build_poset", "compute_rank",
                                              "verify_simplicial", "validate_scheme"},
    ("poset.py", "is_geometric_lattice"): {"compute_rank"},
}


def test_validating_path_only_on_uncertified_input():
    """Constructions hand ``poset._certified`` their own ranks and
    supports; only the allowed callers run the validating path, each only
    the functions listed for it (``files.py`` as a whole, and the
    definitions themselves, may call any of them)."""
    found = []
    for name, tree in MODULES.items():
        if name == "files.py":
            continue
        for top in tree.body:
            owner = getattr(top, "name", None)
            if owner in VALIDATING:
                continue
            allowed = VALIDATING_CALLERS.get((name, owner), set())
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if called in VALIDATING and called not in allowed:
                        found.append(f"{name}:{node.lineno} {owner} calls {called}")
    assert not found, found


def test_cli_import_loads_no_dataclasses():
    probe = ("import sys, mscheme.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, cwd=SRC.parent).stdout
    assert out.strip() == "[]", out
