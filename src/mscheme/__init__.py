"""mscheme: exact combinatorics of matroid schemes and geometric posets.

A matroid scheme is a finite simplicial poset with a rank labeling that is
locally a matroid on every Boolean down-set and globally glued by two
geometric axioms.  The package validates the axiom systems, computes
closure/flats/bases/circuits and the Tutte and characteristic polynomials
with cross-checking algorithms, realizes the equivalence between geometric
posets and simple schemes, and constructs schemes from matroids,
finite-group semimatroid quotients, group-colored partition posets, and
toric arrangements.
"""

from .errors import (
    AtomCapExceeded,
    AxiomViolation,
    CycleDetected,
    DimensionMismatch,
    DuplicateIdentifier,
    HasLoops,
    InvariantBroken,
    MalformedInput,
    MschemeError,
    NonHasseCover,
    NotALayer,
    NotALoop,
    NotAnAtom,
    NotBelow,
    NotBoundedBelow,
    NotComplexInvariant,
    NotInArrangement,
    NotRanked,
    NotRankInvariant,
    NotSimple,
    NotSimplicial,
    NotTranslative,
    RankNotConstantOnMax,
    SizeCapExceeded,
    UnknownIdentifier,
)
from .polynomials import BivariatePolynomial, UnivariatePolynomial
from .poset import (
    LatticeCheck,
    Poset,
    RankedPoset,
    SimplicialPoset,
    build_poset,
    characteristic_polynomial,
    complement,
    compute_rank,
    find_isomorphism,
    is_geometric_lattice,
    iter_isomorphisms,
    lower_bound_maxima,
    mobius,
    upper_bound_minima,
    verify_simplicial,
)
from .scheme import (
    DerivedAxiomReport,
    MatroidScheme,
    bases,
    check_derived_axioms,
    check_loop_del_contr,
    circuits,
    closure,
    contract,
    delete,
    flats,
    independence,
    is_simple,
    isthmuses,
    localization,
    loops,
    restrict,
    scheme_from_independence,
    scheme_isomorphism,
    scheme_rank,
    validate_independence,
    validate_scheme,
)
from .tutte import charpoly_identity, tutte_delcon, tutte_direct, tutte_point_checks
from .geometric import (
    GeometricPoset,
    check_uniqueness,
    scheme_from_geometric,
    simplification,
    validate_geometric,
)
from .constructions import (
    FiniteGroup,
    GroupAction,
    Matroid,
    QuotientResult,
    Semimatroid,
    cyclic_group,
    dowling_geometric,
    dowling_poset,
    linear_matroid,
    quotient_scheme,
    scheme_from_matroid,
    scheme_from_semimatroid,
    trivial_action,
    uniform_matroid,
)
from .toric import (
    Character,
    Layer,
    LayersResult,
    ToricArrangement,
    ambient_layer,
    arr_delete,
    arr_localize,
    arr_restrict,
    hnf,
    intersect_layer,
    layers_poset,
    snf,
    verify_thm_arr,
)
from . import files

__all__ = [name for name in dir() if not name.startswith("_")]
