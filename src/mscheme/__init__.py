"""mscheme: exact combinatorics of matroid schemes and geometric posets.

A matroid scheme is a finite simplicial poset with a rank labeling that is
locally a matroid on every Boolean down-set and globally glued by two
geometric axioms.  The package validates the axiom systems, computes
closure/flats/bases/circuits and the Tutte and characteristic polynomials
with cross-checking algorithms, realizes the equivalence between geometric
posets and simple schemes, and constructs schemes from matroids,
finite-group semimatroid quotients, group-colored partition posets, and
toric arrangements.

Importing the package runs no submodule: each one is in ``sys.modules``
from the start and runs its body on its first attribute access, and an
exported name is read from its submodule each time it is asked for.
"""

import importlib.util
import sys

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": """AtomCapExceeded AxiomViolation CycleDetected DimensionMismatch
        DuplicateIdentifier HasLoops InvariantBroken MalformedInput MschemeError
        NonHasseCover NotALayer NotAnAtom NotBoundedBelow
        NotComplexInvariant NotInArrangement NotRanked NotRankInvariant NotSimple
        NotSimplicial NotTranslative RankNotConstantOnMax SizeCapExceeded
        UnknownIdentifier""",
    "polynomials": "BivariatePolynomial UnivariatePolynomial",
    "poset": """LatticeCheck Poset RankedPoset SimplicialPoset build_poset
        characteristic_polynomial compute_rank find_isomorphism
        is_geometric_lattice iter_isomorphisms mobius verify_simplicial""",
    "scheme": """MatroidScheme bases circuits closure contract delete flats
        independence is_simple isthmuses localization loops restrict
        scheme_from_independence scheme_isomorphism scheme_rank
        validate_independence validate_scheme""",
    "tutte": "charpoly_identity tutte_delcon tutte_direct",
    "geometric": """GeometricPoset check_uniqueness scheme_from_geometric
        simplification validate_geometric""",
    "constructions": """FiniteGroup GroupAction Matroid QuotientResult Semimatroid
        cyclic_group dowling_geometric dowling_poset linear_matroid quotient_scheme
        scheme_from_matroid scheme_from_semimatroid trivial_action uniform_matroid""",
    "toric": """Character Layer LayersResult ToricArrangement ambient_layer
        arr_delete arr_localize arr_restrict hnf intersect_layer layers_poset snf
        verify_thm_arr""",
    "files": "",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_MODULE_OF])

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec


def __getattr__(name):
    # not cached here, so a rebinding in the submodule (a tracer's wrapper
    # and its removal) shows through the package too
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
