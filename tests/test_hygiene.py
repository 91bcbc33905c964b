"""Source hygiene of the package, read with the stdlib ``ast`` module: no
module imports a name it never uses, every private module-level function
or class is referenced somewhere in the package, and no internal check
is an ``assert`` statement, which ``python -O`` strips, or a bare
``raise AssertionError``, and the validating path (``build_poset``,
``compute_rank``, ``verify_simplicial``, ``validate_scheme``,
``validate_geometric``) is called only where the input carries no
certificate, and only ``RankedPoset`` derives ranks, and no function
imports a package module that its own module imports at the top, and
the CLI names no size cap but the atom cap and no function takes a
``size_cap``, and every public method of a class is read as an attribute
somewhere, and every public top-level definition has a reader outside
its own body or states the paper to a user.  Subprocesses check that
the CLI imports no ``dataclasses`` and that a command runs the body of
no package module it does not use; the package's exported names are
pinned."""

import ast
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

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


VALIDATING = ("build_poset", "compute_rank", "verify_simplicial", "validate_scheme",
              "validate_geometric")
# (module, top-level definition) -> the validating functions it may call, and
# why: minors inherit their ranks and take their supports without
# re-verifying, toric layer posets, flats and the scheme of an independence
# family are certified by theorem, and only these callers, whose input
# comes from outside the program, validate what they build
VALIDATING_CALLERS = {
    # the group action is input: Z4 acting on two points through Z4 -> Z2
    # gives a poset that fails G2 for n = 2 and 3
    ("constructions.py", "dowling_geometric"): {"validate_geometric"},
    # the scheme is input and may be no scheme: the flats of
    # contract(nonpos, a1), which fails M5, fail G2
    ("geometric.py", "simplification"): {"validate_geometric"},
}


def test_validating_path_only_on_uncertified_input():
    """Constructions hand ``poset._certified`` their own ranks and
    supports; only the allowed callers run the validating path, each only
    the functions listed for it (``files.py`` and ``cli.py`` as a whole,
    the file and command-line boundary, and the definitions themselves,
    may call any of them)."""
    found = []
    for name, tree in MODULES.items():
        if name in ("files.py", "cli.py"):
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


def test_ranks_are_derived_only_by_the_ranked_poset_constructor():
    """``_graded`` derives ranks for ``RankedPoset(poset)`` alone; every
    certified builder, ``flats`` and ``layers_poset`` included, hands its
    ranks to ``_certified`` and re-derives nothing."""
    callers = [(name, getattr(top, "name", None)) for name, tree in MODULES.items()
               for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_graded"]
    assert callers == [("poset.py", "RankedPoset")], callers


def test_size_caps_live_in_the_library():
    """The CLI names no cap constant but the atom cap behind
    ``--cap-atoms``, and no function takes a ``size_cap``: each size guard
    reads its constant on the loop it bounds."""
    cli_caps = {n for n in _names(MODULES["cli.py"]) if n.endswith("_CAP")}
    assert cli_caps <= {"DEFAULT_ATOM_CAP"}, cli_caps
    found = [f"{name}:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, ast.arg) and node.arg == "size_cap"]
    assert not found, found


def test_public_methods_are_read():
    """Every public method of a package class is read as an attribute
    somewhere in the package, its tests or the benchmark harness; a local
    variable of the same name does not count."""
    root = Path(__file__).resolve().parent.parent
    trees = list(MODULES.values()) + [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("tests", "perfbench") for path in sorted((root / folder).glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{name}: {cls.name}.{fn.name}"
              for name, tree in MODULES.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              and fn.name not in read]
    assert not unread, unread


# public definitions that state a theorem or definition of the paper to a
# user, with no reader in the package or the benchmark harness
PAPER_ENTRY_POINTS = {
    "check_uniqueness": "uniqueness of the lifted geometric poset, the equivalence's converse",
    "verify_thm_arr": "the toric arrangement theorem on deletion, restriction and localization",
    "scheme_from_independence": "the independence cryptomorphism I1-I4",
    "mobius": "the Moebius function of a poset by id",
    "scheme_from_semimatroid": "the scheme of a semimatroid's face poset, before any quotient",
}


def _loads(tree) -> set:
    """The identifiers and attribute names the tree reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_public_definitions_have_a_reader():
    """Every public top-level function or class of the package, exceptions
    aside, is read in another top-level statement of the package or in
    the benchmark harness (by name, or by the string its tracer wraps it
    by), or states the paper to a user; so code that only the tests call
    lives with the tests."""
    root = Path(__file__).resolve().parent.parent
    harness = set()
    for path in sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        harness |= _loads(tree) | {node.value for node in ast.walk(tree)
                                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    reads = [(node, _loads(node)) for tree in MODULES.values() for node in tree.body]
    unread = [f"{name}: {node.name}" for name, tree in MODULES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and name != "errors.py"
              and node.name not in PAPER_ENTRY_POINTS and node.name not in harness
              and not any(node.name in seen for other, seen in reads if other is not node)]
    assert not unread, unread


def test_cli_import_loads_no_dataclasses():
    probe = ("import sys, mscheme.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, cwd=SRC.parent).stdout
    assert out.strip() == "[]", out


# probe: run the CLI, then list the package modules whose body ran and
# those still registered but lazy
LOADS_PROBE = """
import sys, types
import mscheme.cli
mscheme.cli.main(sys.argv[1:])
modules = {n: m for n, m in sys.modules.items() if n.startswith("mscheme.")}
print(sorted(n for n, m in modules.items() if type(m) is types.ModuleType))
print(sorted(n for n, m in modules.items() if type(m) is not types.ModuleType))
"""


@pytest.mark.parametrize("argv, unused", [
    (["check", "scheme", "isth.json"], {"toric", "constructions", "tutte", "geometric"}),
    (["invariants", "isth.json"], {"toric", "constructions", "geometric"}),
    (["construct", "toric", "toric1.json"], {"constructions", "tutte", "polynomials"}),
    (["construct", "uniform", "2", "3"], {"toric", "tutte", "polynomials"}),
])
def test_a_command_runs_only_the_modules_it_uses(argv, unused, tmp_path):
    """Run in a scratch directory, where a construction writes its files."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", LOADS_PROBE, *argv], capture_output=True,
                         text=True, check=True, cwd=tmp_path, env=env).stdout.splitlines()
    ran, lazy = (set(ast.literal_eval(line)) for line in out[-2:])
    unused = {f"mscheme.{name}" for name in unused}
    assert "mscheme.scheme" in ran and not ran & unused, ran
    assert unused <= lazy, lazy


SURFACE = """
    AtomCapExceeded AxiomViolation BivariatePolynomial Character CycleDetected
    DimensionMismatch DuplicateIdentifier FiniteGroup
    GeometricPoset GroupAction HasLoops InvariantBroken LatticeCheck Layer
    LayersResult MalformedInput Matroid MatroidScheme MschemeError NonHasseCover
    NotALayer NotAnAtom NotBoundedBelow NotComplexInvariant
    NotInArrangement NotRankInvariant NotRanked NotSimple NotSimplicial
    NotTranslative Poset QuotientResult RankNotConstantOnMax RankedPoset Semimatroid
    SimplicialPoset SizeCapExceeded ToricArrangement UnivariatePolynomial
    UnknownIdentifier ambient_layer arr_delete arr_localize arr_restrict bases
    build_poset characteristic_polynomial charpoly_identity
    check_uniqueness circuits closure compute_rank
    constructions contract cyclic_group delete dowling_geometric dowling_poset
    errors files find_isomorphism flats geometric hnf independence intersect_layer
    is_geometric_lattice is_simple isthmuses iter_isomorphisms layers_poset
    linear_matroid localization loops mobius polynomials poset
    quotient_scheme restrict scheme scheme_from_geometric scheme_from_independence
    scheme_from_matroid scheme_from_semimatroid scheme_isomorphism scheme_rank
    simplification snf toric trivial_action tutte tutte_delcon tutte_direct
    uniform_matroid validate_geometric
    validate_independence validate_scheme verify_simplicial verify_thm_arr
""".split()


def test_package_surface_is_unchanged():
    """The exported names, each resolved from its module, ``import *``,
    a submodule imported by its dotted name, and an unknown name."""
    assert sorted(mscheme.__all__) == SURFACE and set(SURFACE) <= set(dir(mscheme))
    for name in SURFACE:
        value = getattr(mscheme, name)
        assert isinstance(value, types.ModuleType) or value.__module__.startswith("mscheme."), name
    namespace = {}
    exec("from mscheme import *", namespace)
    assert set(SURFACE) <= set(namespace)
    probe = "import mscheme.toric; print(mscheme.toric.layers_poset.__name__)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=SRC.parent).stdout
    assert out.strip() == "layers_poset", out
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(mscheme, "no_such_name")
