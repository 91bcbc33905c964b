"""Exception hierarchy shared by all mscheme modules."""


class MschemeError(Exception):
    """Base class for every error raised by this package."""


# --- poset construction ---------------------------------------------------

class DuplicateIdentifier(MschemeError):
    pass


class UnknownIdentifier(MschemeError):
    pass


class CycleDetected(MschemeError):
    def __init__(self, path):
        self.path = tuple(path)
        super().__init__(f"cover relation contains a cycle: {' < '.join(self.path)}")


class NonHasseCover(MschemeError):
    def __init__(self, pair, reason="implied by transitivity"):
        self.pair = tuple(pair)
        super().__init__(f"redundant cover {self.pair}: {reason}")


class NotBoundedBelow(MschemeError):
    def __init__(self, minima):
        self.minima = tuple(minima)
        super().__init__(f"poset has {len(self.minima)} minimal elements: {self.minima}")


class NotRanked(MschemeError):
    """Two maximal chains of different length between comparable elements."""

    def __init__(self, element, chain_a, chain_b):
        self.element = element
        self.chain_a = tuple(chain_a)
        self.chain_b = tuple(chain_b)
        super().__init__(
            f"chains of lengths {len(self.chain_a) - 1} and {len(self.chain_b) - 1} "
            f"both reach {element!r}: {self.chain_a} vs {self.chain_b}"
        )


class NotSimplicial(MschemeError):
    def __init__(self, element, reason=""):
        self.element = element
        msg = f"down-set of {element!r} is not a Boolean lattice on its atoms"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class RankNotConstantOnMax(MschemeError):
    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(f"maximal elements of different rank: {self.witness}")


# --- axiom systems --------------------------------------------------------

def _written(value) -> str:
    """``repr(value)`` with each nonempty frozenset, in tuples too, written
    with its members' reprs sorted, so no message depends on the hash seed."""
    if type(value) is tuple:
        return f"({', '.join(map(_written, value))}{',' * (len(value) == 1)})"
    if type(value) is frozenset and value:
        return f"frozenset({{{', '.join(sorted(map(_written, value)))}}})"
    return repr(value)


class AxiomViolation(MschemeError):
    """A named axiom (M1..M5, I1..I4, B1..B2, C1..C3, CL1..CL4, G1, G2,
    R1..R3, S1..S5) fails on the given witness tuple, written by ``_written``."""

    def __init__(self, axiom, witness, detail=""):
        self.axiom = axiom
        self.witness = witness
        msg = f"{axiom} fails on witness {_written(witness)}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# --- scheme operations ----------------------------------------------------

class NotAnAtom(MschemeError):
    pass


class NotSimple(MschemeError):
    pass


class HasLoops(MschemeError):
    def __init__(self, loops):
        self.loops = tuple(loops)
        super().__init__(f"scheme has loops {self.loops}")


# --- guards ---------------------------------------------------------------

# the atom cap of an exhaustive sweep when the caller (``--cap-atoms``) sets none
DEFAULT_ATOM_CAP = 20
# elements of a poset built from a file or a geometric poset: it keeps an
# up-set and a down-set bitmask per element, about n^2 / 8 bytes in all;
# each guard reads it when it runs
ELEMENT_CAP = 1 << 16


class AtomCapExceeded(MschemeError):
    def __init__(self, count, cap):
        self.count = count
        self.cap = cap
        super().__init__(f"{count} atoms exceed the configured cap {cap} "
                         f"for the exhaustive sweep")


class SizeCapExceeded(MschemeError):
    """``at_least``: count is a lower bound, where building stopped early."""

    def __init__(self, count, cap, what="poset", at_least=False):
        self.count = count
        self.cap = cap
        size = f"at least {count}" if at_least else count
        super().__init__(f"{what} size {size} exceeds the configured cap {cap}")


# --- group actions / quotients ---------------------------------------------

class NotTranslative(MschemeError):
    def __init__(self, atom, g, image):
        self.atom = atom
        self.g = g
        self.image = image
        super().__init__(f"{{{atom},{image}}} is central but {g}·{atom} = {image} != {atom}")


class NotRankInvariant(MschemeError):
    pass


class NotComplexInvariant(MschemeError):
    pass


# --- internal invariants -----------------------------------------------------

class InvariantBroken(MschemeError):
    """An exact-arithmetic invariant of the engine failed: a bug, not a
    property of the input.  Raised explicitly so the check survives
    ``python -O``."""


# --- toric arrangements ----------------------------------------------------

class DimensionMismatch(MschemeError):
    pass


class NotInArrangement(MschemeError):
    pass


class NotALayer(MschemeError):
    pass


# --- file handling ----------------------------------------------------------

class MalformedInput(MschemeError):
    pass
