"""Exact toric-arrangement engine over the circle group with rational
translation phases.

A hypersurface is cut out by a primitive integer character alpha and a
rational phase t: the points phi of the n-torus with phi(alpha) = t.  A
layer (connected component of an intersection) is encoded as a saturated
integer sublattice in canonical row Hermite normal form together with the
phases its basis rows must take; saturation makes the component connected
and the canonical form makes equality componentwise.

Intersecting a layer with a hypersurface has two halves.  The lattice
half depends only on the layer's basis B and the character vector alpha:
the saturated lattice, its transform and the number g of pieces (``_Cut``
and ``_cut``), from one Hermite form of B^T per distinct B (``_completion``;
Cohen, GTM 138, ch. 2).  The phase half (``_Cut.pieces``) runs on integer
numerators over a least common denominator, so ``_closure`` keys layers
and steps on ints and makes no ``Fraction``.
Every exact invariant in this module raises InvariantBroken, so it holds
under ``python -O``.  Characters and layers are plain slotted classes, so
importing the module loads no ``dataclasses``.

Real and elliptic coefficient groups are out of scope: real factors make
the poset infinite in translation and elliptic curves change component
counts, so the module states the circle-group restriction instead of
parameterizing over it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import constructions, errors
from .errors import (
    DEFAULT_ATOM_CAP,
    AtomCapExceeded,
    DimensionMismatch,
    InvariantBroken,
    MschemeError,
    NotALayer,
    NotInArrangement,
    SizeCapExceeded,
)
from .geometric import GeometricPoset, scheme_from_geometric
from .poset import RankedPoset, _bits, _certified, _convex, find_isomorphism
from .scheme import _closure_map, contract, delete, localization, scheme_isomorphism


# --- integer matrix normal forms --------------------------------------------------

def _carrying(matrix: list[list[int]]) -> list[list[int]]:
    """The rows of the matrix, each followed by its row of the identity, so
    that one list operation on a row also updates the transform."""
    n = len(matrix)
    return [[*row, *[0] * i, 1, *[0] * (n - 1 - i)] for i, row in enumerate(matrix)]


def _pivot(m, rows, cols):
    """(i, j) of the first nonzero m[i][j] of least absolute value, rows
    before columns, or None when all are zero."""
    at = None
    for i in rows:
        for j in cols:
            a = abs(m[i][j])
            if a and (at is None or a < least):
                at, least = (i, j), a
    return at


def _reduce(m, top, c, rows) -> bool:
    """Subtract from each row i in ``rows`` the multiple of ``top`` that
    brings m[i][c] into [0, top[c]); True iff one of them is left nonzero."""
    left = False
    for i in rows:
        row = m[i]
        if row[c]:
            q = row[c] // top[c]
            if q:
                row = m[i] = [a - q * b for a, b in zip(row, top)]
            left = left or row[c] != 0
    return left


def hnf(matrix: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form H with unimodular U such that U*M = H.

    Convention: pivots positive, entries above each pivot reduced into
    [0, pivot); zero rows sink to the bottom.  This fixes file-level
    canonical forms for lattices.  Each row carries its row of U, and the
    pivot is the first row of least absolute value in its column.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    m = _carrying(matrix)
    r = 0
    for c in range(cols):
        # euclidean elimination below row r in column c
        while (at := _pivot(m, range(r, rows), (c,))) is not None:
            m[r], m[at[0]] = m[at[0]], m[r]
            if m[r][c] < 0:
                m[r] = [-v for v in m[r]]
            if not _reduce(m, m[r], c, range(r + 1, rows)):
                break
        if m[r][c]:  # a pivot: reduce the entries above it
            _reduce(m, m[r], c, range(r))
            r += 1
            if r == rows:
                break
    return [row[:cols] for row in m], [row[cols:] for row in m]


def snf(matrix: list[list[int]]):
    """Smith normal form D = U*M*V with unimodular U, V and divisibility
    d1 | d2 | ... along the diagonal.  Returns (D, U, V).  Each row carries
    its row of U; the pivot is the first entry of least absolute value.
    No package code calls it; it is kept for the API and the tests."""
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    m = _carrying(matrix)
    v = _carrying([[]] * cols)  # the identity of size cols
    t = 0
    while t < min(rows, cols) and (at := _pivot(m, range(t, rows), range(t, cols))):
        i0, j0 = at
        m[t], m[i0] = m[i0], m[t]
        if j0 != t:
            for row in m + v:
                row[t], row[j0] = row[j0], row[t]
        top = m[t]
        if top[t] < 0:
            top = m[t] = [-x for x in top]
        p = top[t]
        dirty = _reduce(m, top, t, range(t + 1, rows))
        for j in range(t + 1, cols):
            q = top[j] // p
            if q:
                for row in m + v:
                    row[j] -= q * row[t]
            dirty = dirty or top[j] != 0
        if dirty:
            continue
        # divisibility: fold any non-multiple into position t
        bad = next((i for i in range(t + 1, rows)
                    if any(x % p for x in m[i][t + 1:cols])), None)
        if bad is None:
            t += 1
        else:
            m[t] = [a + b for a, b in zip(top, m[bad])]
    return [row[:cols] for row in m], [row[cols:] for row in m], v


# --- characters and layers -----------------------------------------------------------

def _parse_phase(value) -> Fraction:
    t = Fraction(value)
    return t - (t.numerator // t.denominator)  # reduce into [0, 1)


def _entry(value) -> int:
    """A character entry: an int, or a float with no fractional part.  A
    bool or any other value is refused, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MschemeError(f"character entry {value!r} is not an integer")
    return value


class Character:
    """A primitive integer vector with a rational phase in [0, 1)."""

    __slots__ = ("alpha", "phase")

    def __init__(self, alpha, phase):
        self.alpha = tuple(_entry(a) for a in alpha)
        if not self.alpha or all(a == 0 for a in self.alpha):
            raise MschemeError("character vector must be nonzero")
        g = gcd(*self.alpha)
        if g != 1:
            raise MschemeError(
                f"character {self.alpha} is not primitive (content {g}); "
                "non-primitive input is an error, not auto-normalized")
        self.phase = _parse_phase(phase)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alpha, self.phase) == (other.alpha, other.phase)

    def __hash__(self):
        return hash((self.alpha, self.phase))

    def canonical_key(self) -> tuple:
        """Sign-normalized key: negating the vector negates the phase."""
        first = next(a for a in self.alpha if a != 0)
        if first < 0:
            return (tuple(-a for a in self.alpha), _parse_phase(-self.phase))
        return (self.alpha, self.phase)

    @property
    def label(self) -> str:
        return f"({','.join(map(str, self.alpha))})@{self.phase}"

    def __repr__(self):
        return f"Character{self.label}"


def _text(values) -> str:
    """The values with commas between; an int past the interpreter's digit
    limit is an ``MschemeError``, not a ValueError."""
    try:
        return ",".join(map(str, values))
    except ValueError as exc:
        raise MschemeError(f"a layer id is too long to write ({exc})") from None


def _ratio(x: int, q: int) -> str:
    """x/q written as its ``Fraction`` would be: lowest terms, and no
    denominator when it is 1."""
    g = gcd(x, q)
    return str(x // g) if g == q else f"{x // g}/{q // g}"


class Layer:
    """A saturated sublattice (canonical triangular basis) plus the rational
    phases of its basis rows; one connected component of an intersection.

    The phases are kept as numerators ``nums`` over their least common
    denominator ``q``, which fix equality, hash and id; ``phases`` makes
    their ``Fraction``s on first read."""

    __slots__ = ("n", "basis", "q", "nums", "layer_id", "_phases")

    def __init__(self, n: int, basis: tuple[tuple[int, ...], ...],
                 phases: tuple[Fraction, ...]):
        q = lcm(*(t.denominator for t in phases))
        self._fill(n, basis, q, tuple([t.numerator * (q // t.denominator) for t in phases]))
        self._phases = phases

    def _fill(self, n, basis, q, nums, rows=None):
        self.n, self.basis, self.q, self.nums, self._phases = n, basis, q, nums, None
        rows = _text(f"[{_text(row)}]" for row in basis) if rows is None else rows
        self.layer_id = f"[{rows}]|[{_text(_ratio(x, q) for x in nums)}]"

    @property
    def phases(self) -> tuple[Fraction, ...]:
        if self._phases is None:
            self._phases = tuple(Fraction(x, self.q) for x in self.nums)
        return self._phases

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n, self.basis, self.q, self.nums)
                == (other.n, other.basis, other.q, other.nums))

    def __hash__(self):
        return hash((self.n, self.basis, self.q, self.nums))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def express(self, alpha) -> list[int] | None:
        """Integer coordinates of alpha over the basis rows, or None when
        alpha is outside the lattice.  Back-substitution along the pivot
        columns, verified exactly."""
        residue = list(alpha)
        coeffs = []
        for row in self.basis:
            pivot_col = next(i for i, v in enumerate(row) if v)
            q, r = divmod(residue[pivot_col], row[pivot_col])
            if r:
                return None
            coeffs.append(q)
            residue = [a - q * b for a, b in zip(residue, row)]
        return None if any(residue) else coeffs

    def phase_of(self, alpha) -> Fraction | None:
        coeffs = self.express(alpha)
        if coeffs is None:
            return None
        return Fraction(sum(map(mul, coeffs, self.nums)) % self.q, self.q)

    def __repr__(self):
        return f"Layer({self.layer_id})"


def _layer(n: int, basis, q: int, nums: tuple[int, ...], rows: str | None = None) -> Layer:
    """The layer with these integer phases (see ``Layer``), no ``Fraction``
    made; ``rows``, the basis as its id writes it, is written unless given."""
    layer = object.__new__(Layer)
    layer._fill(n, basis, q, nums, rows)
    return layer


def ambient_layer(n: int) -> Layer:
    return Layer(n, (), ())


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def _completion(n: int, basis) -> tuple[tuple[int, ...], ...]:
    """The columns of W^-1 for a unimodular W whose first r rows are the
    basis, so that alpha * W^-1 gives alpha's coordinates over W.

    With U*B^T = H in Hermite form, the rows of B^T span Z^r, so H is I_r
    above zeros, iff the r x r minors of B are coprime: B is saturated of
    rank r.  Then B*U^T = [I_r | 0], so W = (U^T)^-1 has B as its first r
    rows and W^-1 = U^T has the rows of U as columns."""
    r = len(basis)
    if not r:
        return _identity(n)
    h, u = hnf([list(col) for col in zip(*basis)])
    if tuple(map(tuple, h[:r])) != _identity(r):
        raise InvariantBroken(f"layer basis {basis} is not saturated")
    return tuple(map(tuple, u))


class _Cut:
    """The lattice half of cutting a layer (basis B of rank r, phases phi)
    with the hypersurfaces of a character alpha outside its lattice.

    With c = alpha * W^-1, alpha = c[:r]*B + g*beta where g = gcd(c[r:]) > 0
    and beta = (alpha - c[:r]*B)/g is primitive modulo the lattice, so the
    saturation of lattice + Z alpha is lattice + Z beta; with T*[B; beta] = H
    in Hermite form, ``sat`` is H.  A point with phases phi on B and theta
    on alpha has phase (theta - c[:r]*phi + k)/g on beta for one k in
    [0, g): the arithmetic multiplicity g (Moci, Trans. AMS 2012) is the
    number of pieces.  Over q*g, with Phi, Theta the numerators over q,
    the phases on H are T*[g*Phi; Theta - c[:r]*Phi + k*q], that is ``mix``
    * [Phi; Theta] plus k*q times ``shift``, the last column of T.
    ``_cut`` finds H and T, with a Hermite form only where the saturation
    is not already known; this class keeps what the phase half needs."""

    __slots__ = ("sat", "mix", "shift", "g")

    def __init__(self, sat, t, head, g, s=1):  # T: the rows t, entry r times s
        r = len(head)
        self.sat = sat
        self.shift = [s * t_i[r] for t_i in t]
        self.mix = [[g * t_i[j] - x * head[j] for j in range(r)] + [x]
                    for t_i, x in zip(t, self.shift)]
        self.g = g

    def pieces(self, q: int, nums, t) -> list[tuple[int, tuple[int, ...]]]:
        """The phases of every piece, one (Q, numerators) per k, given the
        layer's as numerators ``nums`` over a common denominator q and the
        character's as a reduced pair t = (num, den).  Q is the least
        common denominator and each numerator is in [0, Q), so equal
        phases give equal tuples of ints.  Over lcm(q, den), each row of
        ``mix`` meets the layer's numerators in one ``sum(map(mul, ...))``
        and the character's in its last entry, that of ``shift``."""
        big = lcm(q, t[1])
        a, b = big // q, big // t[1] * t[0]
        base = [a * sum(map(mul, row, nums)) + b * s for row, s in zip(self.mix, self.shift)]
        out = []
        step, big = big, big * self.g
        for kq in range(0, big, step):
            nums = [(x + kq * s) % big for x, s in zip(base, self.shift)]
            k = gcd(big, *nums)
            out.append((big // k, tuple([x // k for x in nums])))
        return out


def _cut(basis, inverse, alpha, rows=(), unit=()) -> _Cut | None:
    """The cut by the primitive character alpha of a layer with this basis
    and completion ``inverse`` (see ``_completion``), or None when alpha
    lies in the lattice.  Phases play no part.

    A Hermite form gives H and T (see ``_Cut``) only for 1 <= r <= n - 2.
    On the ambient layer (r = 0), alpha is primitive, so g = 1 and H is
    alpha with its first nonzero entry made positive by T = [+-1]; no
    completion is read.  With r + 1 = n the saturation is Z^n, so H is the
    identity and T = [B; beta]^-1; as beta is sign(c[r]) times the last
    row of W, T is W^-1 with its last column multiplied by sign(c[r]):
    ``rows`` are the rows of W^-1 and ``unit`` the identity of Z^n, each
    made here if not given.  On a point (r = n) alpha is in the lattice."""
    r = len(basis)
    if not r:
        s = 1 if next(a for a in alpha if a) > 0 else -1
        return _Cut((tuple(s * a for a in alpha),), ((s,),), (), 1)
    c = [sum(map(mul, alpha, col)) for col in inverse]
    g = gcd(*c[r:])
    if not g:
        return None
    head, n = c[:r], len(alpha)
    if r + 1 == n:
        return _Cut(unit or _identity(n), rows or tuple(zip(*inverse)), head, g,
                    1 if c[r] > 0 else -1)
    beta = [(a - sum(map(mul, head, col))) // g for a, col in zip(alpha, zip(*basis))]
    h, t = hnf([list(row) for row in basis] + [beta])
    return _Cut(tuple(tuple(row) for row in h), t, head, g)


def intersect_layer(layer: Layer, c: Character) -> list[Layer]:
    """All layers of the intersection with one hypersurface.

    If alpha already lies in the layer's lattice the constraint is either
    redundant (one layer) or contradictory (none).  Otherwise the lattice
    grows to its saturation and the phases extend in g ways (see
    ``_Cut``).
    """
    if len(c.alpha) != layer.n:
        raise DimensionMismatch(f"character in rank {len(c.alpha)}, layer in {layer.n}")
    basis = layer.basis  # the ambient layer's cut reads no completion
    cut = _cut(basis, _completion(layer.n, basis) if basis else (), c.alpha)
    if cut is None:
        return [layer] if layer.phase_of(c.alpha) == c.phase else []
    t = (c.phase.numerator, c.phase.denominator)
    out = [_layer(layer.n, cut.sat, den, tops)
           for den, tops in cut.pieces(layer.q, layer.nums, t)]
    return sorted(out, key=lambda L: L.layer_id)


# --- arrangements ----------------------------------------------------------------------

class ToricArrangement:
    """A finite set of hypersurfaces in the n-torus, given by primitive
    characters with rational phases; duplicates (up to simultaneous sign
    change) are rejected."""

    __slots__ = ("n", "characters")

    def __init__(self, n: int, characters):
        if n < 0:
            raise DimensionMismatch(f"torus rank {n} is negative")
        self.n = n
        chars = []
        seen = set()
        for c in characters:
            if len(c.alpha) != n:
                raise DimensionMismatch(
                    f"character {c.label} does not live in rank {n}")
            key = c.canonical_key()
            if key in seen:
                raise MschemeError(f"duplicate hypersurface {c.label}")
            seen.add(key)
            chars.append(c)
        self.characters = tuple(chars)

    def __repr__(self):
        return f"ToricArrangement(n={self.n}, {len(self.characters)} characters)"


class LayersResult(namedtuple("LayersResult",
                              "geometric scheme layers atom_of scheme_element_of")):
    """Poset of layers with its certificate and simple scheme, plus the
    dictionaries linking layer ids, Layer values, poset elements and scheme
    elements."""

    __slots__ = ()


def _closure(arr: ToricArrangement):
    """The layers of ``arr`` in the order met, breadth first from the
    ambient layer, the steps as pairs of their indices, and each
    hypersurface's atom layer id by canonical key.  A basis is numbered
    when a cut first makes it, and a layer is keyed on that number and the
    (q, numerators) of ``_Cut.pieces``, which a frontier layer keeps for
    its own cuts.  The first layer met on a basis completes it once and
    cuts it by every hypersurface; a point (rank n) lies in every
    character's lattice, so it is listed but neither completed nor cut, and
    the ambient layer is cut without a completion (see ``_cut``).  A basis
    of rank n - 1 keeps the rows of W^-1 for its cuts, whose saturation,
    the identity of Z^n, is built once.  Each ``Layer`` is made after the
    loop, each basis written once.

    Each layer x is the second component of a pair (I, x) of the simple
    scheme, so more than ``errors.ELEMENT_CAP`` layers are refused with
    ``SizeCapExceeded`` as soon as they are met, and so is a cut whose g
    pieces, all distinct layers, alone pass it, before any is listed."""
    cap, n = errors.ELEMENT_CAP, arr.n
    start = ambient_layer(n).basis
    number = {start: 0}  # each basis met -> its number
    cuts = {}  # basis number -> (cut, number of its saturation, phase) per cutting hypersurface
    hypersurfaces = [(c.alpha, (c.phase.numerator, c.phase.denominator))
                     for c in arr.characters]
    layers = {(0, (1, ())): 0}  # (basis number, (q, numerators)) -> index
    steps = set()
    frontier = [(0, 0, start, 1, ())]  # (index, basis number, basis, q, numerators)
    unit = ()  # the identity of Z^n, the saturation of every cut to full rank
    while frontier:
        new = []
        for here, no, basis, q, nums in frontier:
            row = cuts.get(no)
            if row is None:
                inverse = _completion(n, basis) if basis else ()
                rows = tuple(zip(*inverse)) if len(basis) + 1 == n else ()  # W^-1 by rows
                unit = unit or (rows and _identity(n))
                row = cuts[no] = []
                for alpha, t in hypersurfaces:
                    cut = _cut(basis, inverse, alpha, rows, unit)
                    if cut is not None:  # else the piece is the layer itself, or nothing
                        row.append((cut, number.setdefault(cut.sat, len(number)), t))
            for cut, sat, t in row:
                if cut.g > cap:
                    raise SizeCapExceeded(cut.g, cap, "layer poset", at_least=True)
                for piece in cut.pieces(q, nums, t):
                    k = layers.get((sat, piece))
                    if k is None:
                        k = layers[sat, piece] = len(layers)
                        if k >= cap:
                            raise SizeCapExceeded(k + 1, cap, "layer poset", at_least=True)
                        if len(cut.sat) < n:  # no character cuts a point
                            new.append((k, sat, cut.sat, *piece))
                    steps.add((here, k))
        frontier = new

    bases = list(number)
    rows = [_text(f"[{_text(row)}]" for row in basis) for basis in bases]
    found = [_layer(n, bases[sat], den, tops, rows[sat]) for sat, (den, tops) in layers]
    # every hypersurface cuts the torus, and a primitive alpha in one piece
    atom_of = {c.canonical_key(): found[layers[sat, cut.pieces(1, (), t)[0]]].layer_id
               for c, (cut, sat, t) in zip(arr.characters, cuts[0])}
    return found, steps, atom_of


def layers_poset(arr: ToricArrangement, atom_cap: int = DEFAULT_ATOM_CAP) -> LayersResult:
    """Breadth-first closure of the ambient layer under intersection with
    every hypersurface, ordered by reverse inclusion, certified geometric,
    with the simple scheme attached.  The covers are the intersection steps
    that cut a layer down: layers are saturated, so a piece of L meet H_c
    other than L has rank(L) + 1, and a layer M of rank(L) + 1 inside L is a
    piece of L meet H_c for any H_c that contains M but not L.  So the
    lattice ranks are the rank function, and ``_certified`` builds the
    ``GeometricPoset`` unchecked.  G1: the layers containing L form the
    intersection lattice of the central arrangement of the characters
    whose hypersurfaces contain L, the flats of a linear matroid
    (``arr_localize``).  G2 is the paper's theorem.  ``scheme_element_of``
    names each layer's flat by its id in the scheme.

    The atoms are the hypersurfaces, one connected layer each, so more
    than ``atom_cap`` of them are refused with ``AtomCapExceeded`` before
    any layer is listed."""
    if len(arr.characters) > atom_cap:
        raise AtomCapExceeded(len(arr.characters), atom_cap)
    found, steps, atom_of = _closure(arr)
    order = sorted(range(len(found)), key=lambda k: (found[k].rank, found[k].layer_id))
    pos = sorted(range(len(order)), key=order.__getitem__)  # the inverse permutation
    ordered = [found[k] for k in order]
    ids = [L.layer_id for L in ordered]
    gp = _certified(ids, sorted((pos[a], pos[b]) for a, b in steps), [L.rank for L in ordered],
                    GeometricPoset)
    scheme = scheme_from_geometric(gp)

    # the scheme's pairs (I, x) come in blocks of x in layer order, one flat (atoms below x, x) each
    flat = [e for i, (e, c) in enumerate(zip(scheme.elements, _closure_map(scheme))) if c == i]
    return LayersResult(gp, scheme, dict(zip(ids, ordered)), atom_of,
                        dict(zip(ids, flat)))


def arr_delete(arr: ToricArrangement, c: Character) -> ToricArrangement:
    key = c.canonical_key()
    kept = [x for x in arr.characters if x.canonical_key() != key]
    if len(kept) == len(arr.characters):
        raise NotInArrangement(f"{c.label} is not a hypersurface of the arrangement")
    return ToricArrangement(arr.n, kept)


def arr_restrict(arr: ToricArrangement, c: Character) -> ToricArrangement:
    """Change coordinates so the chosen hypersurface becomes the ambient
    torus: complete alpha to a unimodular W with first row alpha by
    ``_completion``, read the other characters over W, translate their
    phases, and split non-primitive images into their connected components
    (merging coincident ones).  The result is defined up to a unimodular
    change of coordinates and a translation of the chosen subtorus."""
    key = c.canonical_key()
    if all(x.canonical_key() != key for x in arr.characters):
        raise NotInArrangement(f"{c.label} is not a hypersurface of the arrangement")
    inverse = _completion(arr.n, (c.alpha,))

    chars = {}
    for other in arr.characters:
        if other.canonical_key() == key:
            continue
        c0, *beta_rest = [sum(a * w for a, w in zip(other.alpha, col)) for col in inverse]
        phase = _parse_phase(other.phase - c0 * c.phase)
        content = gcd(*beta_rest)
        if content == 0:
            # parallel hypersurface: empty intersection with the chosen one
            # (a coincident one would be a duplicate, which is rejected)
            if phase == 0:
                raise InvariantBroken("duplicate hypersurface survived validation")
            continue
        gamma = tuple(b // content for b in beta_rest)
        for j in range(content):
            piece = Character(gamma, _parse_phase(Fraction(phase + j, content)))
            chars.setdefault(piece.canonical_key(), piece)
    return ToricArrangement(arr.n - 1, [chars[k] for k in sorted(chars)])


def arr_localize(arr: ToricArrangement, layer: Layer,
                 result: LayersResult | None = None) -> constructions.Matroid:
    """Linear matroid of the character vectors whose hypersurfaces contain
    the layer (for some phase)."""
    if result is None:
        result = layers_poset(arr)
    if layer.layer_id not in result.layers:
        raise NotALayer(f"{layer.layer_id} is not a layer of the arrangement")
    chosen = [c for c in arr.characters if layer.phase_of(c.alpha) == c.phase]
    matrix = [list(col) for col in zip(*[c.alpha for c in chosen])] if chosen else []
    return constructions.linear_matroid(matrix, [c.label for c in chosen])


class ThmArrReport(namedtuple("ThmArrReport",
                              "deletion restriction localization restriction_is_direct")):
    """Witness bijections for the three arrangement/scheme compatibilities:
    deletion, restriction-vs-contraction, and localization.

    The restriction witness is a scheme isomorphism whenever the contracted
    scheme is simple (``restriction_is_direct``); otherwise it is the
    layer-poset isomorphism between the restricted arrangement's layers and
    the sublayers of the chosen hypersurface, which is the part that holds
    unconditionally (two hypersurfaces can share a component inside the
    chosen one, making the contraction non-simple while the restricted
    arrangement forgets the multiplicity)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (self.deletion is not None and self.restriction is not None
                and self.localization is not None)


def verify_thm_arr(arr: ToricArrangement, c: Character, layer: Layer) -> ThmArrReport:
    """Compute both sides of each isomorphism (arrangement-level
    delete/restrict/localize against scheme-level delete/contract/localize)
    and return the witness bijections.  A foreign character raises
    ``NotInArrangement``, then a foreign layer ``NotALayer``, before any
    minor's poset is built."""
    rest = arr_delete(arr, c)
    full = layers_poset(arr)
    local_arr = arr_localize(arr, layer, full)
    atom_layer = full.atom_of[c.canonical_key()]
    atom_el = full.scheme_element_of[atom_layer]

    deleted = layers_poset(rest)
    iso_del = scheme_isomorphism(deleted.scheme, delete(full.scheme, atom_el))

    restricted = layers_poset(arr_restrict(arr, c))
    contraction = contract(full.scheme, atom_el)
    iso_restr = scheme_isomorphism(restricted.scheme, contraction)
    direct = iso_restr is not None
    if not direct:
        # layer-poset comparison: sublayers of the hypersurface, re-ranked
        gp = full.geometric
        sub = _convex(gp, list(_bits(gp.above[gp.idx(atom_layer)])), RankedPoset)
        iso_restr = find_isomorphism(restricted.geometric, sub)

    local_scheme = constructions.scheme_from_matroid(local_arr)
    layer_el = full.scheme_element_of[layer.layer_id]
    iso_local = scheme_isomorphism(local_scheme, localization(full.scheme, layer_el))
    return ThmArrReport(iso_del, iso_restr, iso_local, direct)
