"""The matroid-scheme core: axiom validation, localization, closure, flats,
independence/bases/circuits, loops/isthmuses, deletion/contraction/
restriction, the independence axioms and scheme isomorphism.  The
brute-force checkers of the derived axiom systems are the tests' oracle,
``tests/derived_oracle.py``.

A matroid scheme is a finite simplicial poset S with a rank labeling rho
satisfying:

  M1  0 <= rho(x) <= |x|       (|x| = number of atoms below x = rank of x)
  M2  x <= y  implies  rho(x) <= rho(y)
  M3  u in join(x,y) implies rho(x) + rho(y) >= rho(u) + rho(meet(x,y))
  M4  l in meet(x,y) with rho(x) = rho(l) implies join(x,y) nonempty
  M5  rho(x) < rho(y) implies some atom a <= y, a not below x,
      with join(x,a) nonempty

The axioms are checked on the poset's index bitmasks.  M1, M2, M4 and M5
take one mask per element; M4's masks come from one sweep up the lower
covers.  M3 is checked on the diamonds l < u, v < w
(two lower covers of w and their meet): every down-set of a simplicial
poset is a Boolean lattice, and a function on a Boolean lattice that is
submodular on each diamond is submodular everywhere (Schrijver,
*Combinatorial Optimization*, Thm 44.1).  Only when a diamond fails does the
sweep over joinable pairs run, reading their joins and meets from masks of
the elements of a given size, to name the witness.
Violations report the first offending tuple in declaration order, checked in
axiom order M1..M5.
"""

from __future__ import annotations

import itertools

from .errors import (
    AxiomViolation,
    InvariantBroken,
    NotAnAtom,
    UnknownIdentifier,
)
from .poset import (
    LabelView,
    Poset,
    RankedPoset,
    SimplicialPoset,
    _atoms,
    _bits,
    _certified,
    _convex,
    _full,
    _levels,
    _maxima,
    _ranked,
    _top_value,
    _union,
    find_isomorphism,
)


class MatroidScheme(SimplicialPoset):
    """A simplicial poset, whose rank ``ranks[i]`` is the size |x|, with
    rank labels: ``rhos[i]`` is the label of element i, read by id in ``rho``.

    Instances are immutable; use :func:`validate_scheme` to construct one
    from unvalidated data; ``_labelled`` is the one private builder.
    Equality is exact: same element order, same covers, same labels.
    """

    __slots__ = ("rhos", "_closure", "_flats_cache", "_independent", "_bases", "_tutte")
    builder = "validate_scheme"

    @property
    def s(self) -> "MatroidScheme":
        """The scheme itself, its own simplicial poset: an alias kept for
        callers outside the package that pass ``validate_scheme(m.s, m.rho)``."""
        return self

    @property
    def rho(self) -> LabelView:
        return LabelView(self.index, self.rhos)

    def serialize_key(self) -> tuple:
        """Exact-form key: the elements, the covers and the labels in
        declaration order, the data ``==`` compares; ``hash`` reads it."""
        return self.elements, self.covers, self.rhos

    def __eq__(self, other):
        return isinstance(other, MatroidScheme) and self.serialize_key() == other.serialize_key()

    def __hash__(self):
        return hash(self.serialize_key())

    def __repr__(self):
        top = max(self.rhos, default=0)
        return f"MatroidScheme({len(self.elements)} elements, max rho {top})"


def _labelled(sp: SimplicialPoset, rhos, closure=None) -> MatroidScheme:
    """The scheme on sp's tables and sizes with the labels ``rhos`` by
    element index, and the closure map by element index when the caller
    has one; nothing is checked: every caller certifies M1-M5."""
    m = _ranked(sp, sp.ranks, MatroidScheme)
    m.rhos, m._closure = tuple(rhos), closure
    m._flats_cache = m._independent = m._bases = m._tutte = None
    return m


def _less_than(values) -> list:
    """``lt[k]``: bitmask of the i with ``values[i] < k``; ``lt[-1]`` has all."""
    return list(itertools.accumulate(_levels(values), int.__or__, initial=0))


def _joinable(p: Poset) -> list:
    """``joinable[i]``: bitmask of the elements sharing an upper bound with
    element i, the OR of ``below[u]`` over the maximal u in ``above[i]``."""
    tops = sum(1 << u for u in _maxima(p))
    shared = {}  # one mask per set of maximal elements above (never 0), shared
    return [shared.get(t) or shared.setdefault(t, _union(p.below, t))
            for t in (up & tops for up in p.above)]


def _diamonds_hold(p: Poset, r: list, size: list, sized: list) -> bool:
    """True iff r(u) + r(v) >= r(w) + r(l) on every diamond l < u, v < w:
    each pair u, v of lower covers of w, whose meet l is the one element
    below both of size size[w] - 2 (``sized[k]``: the elements of size k)."""
    below = p.below
    for w, dn in enumerate(p.covers_dn):
        if len(dn) < 2:
            continue
        level, rw = sized[size[w] - 2], r[w]
        for k, u in enumerate(dn):
            low, ru = below[u] & level, r[u]
            for v in dn[k + 1:]:
                if ru + r[v] < rw + r[(low & below[v]).bit_length() - 1]:
                    return False
    return True


def validate_scheme(sp: SimplicialPoset, rho) -> MatroidScheme:
    """Check M1-M5 (M3 on diamonds) on the id-keyed labels ``rho``, read
    once into a tuple by element index; return the scheme or raise the
    first violation in axiom order with a deterministic witness."""
    if not isinstance(sp, SimplicialPoset):
        raise TypeError("validate_scheme takes a SimplicialPoset (see verify_simplicial)")
    els = sp.elements
    r = tuple(map(rho.get, els))
    if None in r:
        raise UnknownIdentifier(f"rho undefined on {els[r.index(None)]!r}")
    above, below = sp.above, sp.below
    size = sp.ranks
    for i, x in enumerate(els):  # M1
        if not 0 <= r[i] <= size[i]:
            raise AxiomViolation("M1", (x,), f"rho={r[i]}, |x|={size[i]}")
    lt = _less_than(r)
    for i, x in enumerate(els):  # M2
        bad = above[i] & lt[r[i]]
        if bad:
            raise AxiomViolation("M2", (x, els[next(_bits(bad))]))
    joinable = _joinable(sp)
    sized = _levels(size)
    if not _diamonds_hold(sp, r, size, sized):
        for i, x in enumerate(els):  # M3, swept only to name the first witness
            for j in _bits(joinable[i] >> (i + 1) << (i + 1)):
                # in a simplicial poset a joinable pair has one meet m, whose
                # down-set holds the 2^|m| common lower bounds, and its joins
                # are the common upper bounds of size |x| + |y| - |m|
                k = (below[i] & below[j]).bit_count().bit_length() - 1
                m = (below[i] & below[j] & sized[k]).bit_length() - 1
                for u in _bits(above[i] & above[j] & sized[size[i] + size[j] - k]):
                    if r[i] + r[j] < r[u] + r[m]:
                        raise AxiomViolation("M3", (x, els[j], els[u], els[m]))
        raise InvariantBroken("M3 fails on a diamond but on no joinable pair")
    # same_up[x]: the OR of above[l] over the l <= x with rho(l) = rho(x).
    # By M2, rho is constant on every chain from such an l up to x, so one
    # sweep up the linear extension reads it from x's lower covers
    same_up = [0] * len(els)
    for x in sp.order:
        up, rx = above[x], r[x]
        for c in sp.covers_dn[x]:
            if r[c] == rx:
                up |= same_up[c]
        same_up[x] = up
    for i, x in enumerate(els):  # M4
        bad = same_up[i] & ~joinable[i]
        if bad:
            # by M2, one l in `same` below y puts a maximal common lower bound there
            same = below[i] & lt[r[i] + 1] & ~lt[r[i]]
            j = next(_bits(bad))
            meet = sp.maximal_of_mask(below[i] & below[j]) & same
            raise AxiomViolation("M4", (x, els[j], els[next(_bits(meet))]))
    del same_up  # freed before M5's masks are built
    atoms = _atoms(sp.ranks)
    for i, x in enumerate(els):  # M5
        reach = _union(above, atoms & ~below[i] & joinable[i])
        bad = lt[-1] & ~lt[r[i] + 1] & ~reach
        if bad:
            raise AxiomViolation("M5", (x, els[next(_bits(bad))]))
    return _labelled(sp, r)


def _sub_scheme(m: MatroidScheme, keep: int, shift: int = 0) -> MatroidScheme:
    """The minor of m on the order ideal or filter ``keep`` (a bitmask), with
    rho lowered by ``shift``: the one constructor behind localization,
    deletion, contraction and restriction.

    The kept bits are listed once, for the sub-poset, its ranks and its
    labels.  The minor inherits its ranks through ``_convex``: its minimum
    is the parent's bottom for an ideal and the element a filter stands
    on.  It is not re-validated against M1-M5, nor re-verified simplicial:
    the operations are theorem-backed and the property tests re-validate.
    A convex subset of a simplicial poset is simplicial with the inherited
    ranks, so nothing else is stored."""
    kept = list(_bits(keep))
    rhos = m.rhos
    return _labelled(_convex(m, kept, SimplicialPoset), [rhos[i] - shift for i in kept])


def scheme_rank(m: MatroidScheme) -> int:
    """rho of any maximal element; ``RankNotConstantOnMax`` if it varies."""
    return _top_value(m, m.rhos)


def localization(m: MatroidScheme, x) -> MatroidScheme:
    """The matroid on the Boolean down-set of x with the restricted labels."""
    return _sub_scheme(m, m.below[m.idx(x)])


def closure(m: MatroidScheme, x):
    """The unique maximal element above x with the same rho (a theorem for
    valid schemes; ``InvariantBroken`` otherwise)."""
    return m.elements[_closure_map(m)[m.idx(x)]]


def _closure_map(m: MatroidScheme) -> list:
    """Per element index, the index of its closure; computed once per scheme.
    A candidate from an upper cover of the same rho (M2 puts one below each
    element above with that rho) passes when one mask test finds it their
    maximum; else their maximal elements are listed, naming the first failure."""
    if m._closure is None:
        els = m.elements
        r = m.rhos
        lt = _less_than(r)
        cl = list(range(len(els)))
        for i in reversed(m.order):
            cl[i] = next((cl[j] for j in m.covers_up[i] if r[j] == r[i]), i)
        for i, up in enumerate(m.above):
            same = up & lt[r[i] + 1] & ~lt[r[i]]
            if same & ~m.below[cl[i]]:
                top = m.maximal_of_mask(same)
                if top & (top - 1):
                    raise InvariantBroken(f"closure of {els[i]!r} not unique: {m._ids(top)}")
                cl[i] = top.bit_length() - 1
        m._closure = cl
    return m._closure


def flats(m: MatroidScheme) -> RankedPoset:
    """Subposet of closed elements, ranked by rho and bounded below by the
    closure of the bottom element, built by ``_certified``.  The upper
    covers of a flat x are the distinct closures cl(c) of x's upper covers
    c in the scheme.  (i) No c has the rho of x, or c <= cl(x) = x; M1-M3
    on a Boolean down-set are the matroid rank axioms, so every c has
    rho(x) + 1.  (ii) For a flat y >= c, a maximal common lower bound
    l >= c of cl(c) and y has rho(l) = rho(cl(c)) by M2, so M4 gives an
    upper bound u of both; y is a flat of the matroid below u, so
    cl(c) <= y.  (iii) rho strictly increases along flats, so the cl(c)
    are pairwise incomparable and no flat lies strictly between any of
    them and x.  So rho rises by one on each cover, from rho(cl(bottom)) =
    rho(bottom) = 0 (M1): it is the rank.  M2, M4 and M1-M3 on down-sets
    pass to ideals and filters, so this holds on every minor, contractions
    that fail M5 included."""
    if m._flats_cache is None:
        cl = _closure_map(m)
        keep = sum(1 << i for i, c in enumerate(cl) if c == i)
        new = {i: k for k, i in enumerate(_bits(keep))}
        # renumbering the kept indices in order keeps the row-major cover order
        pairs = [(k, new[j]) for i, k in new.items()
                 for j in sorted({cl[c] for c in m.covers_up[i]})]
        m._flats_cache = _certified(m._ids(keep), pairs, [m.rhos[i] for i in new], RankedPoset)
    return m._flats_cache


def _independent_mask(m: MatroidScheme) -> int:
    """Bitmask of the elements x with rho(x) = |x| = rank(x); computed
    once per scheme."""
    if m._independent is None:
        m._independent = sum(1 << i for i, (k, s) in enumerate(zip(m.rhos, m.ranks))
                             if k == s)
    return m._independent


def _bases_mask(m: MatroidScheme) -> int:
    """Bitmask of the maximal independent elements; computed once per
    scheme."""
    if m._bases is None:
        m._bases = m.maximal_of_mask(_independent_mask(m))
    return m._bases


def independence(m: MatroidScheme) -> frozenset:
    return frozenset(m._ids(_independent_mask(m)))


def bases(m: MatroidScheme) -> frozenset:
    """Maximal independent elements."""
    return frozenset(m._ids(_bases_mask(m)))


def circuits(m: MatroidScheme) -> frozenset:
    """Minimal dependent elements."""
    return frozenset(m._ids(m.minimal_of_mask(_full(m) & ~_independent_mask(m))))


# --- independence cryptomorphism ------------------------------------------------

def validate_independence(sp: SimplicialPoset, ind) -> None:
    """Check I1-I4 exhaustively; raise AxiomViolation on the first failure.
    The first unknown id, in the order given, is named."""
    if not isinstance(sp, SimplicialPoset):
        raise TypeError("validate_independence takes a SimplicialPoset (see verify_simplicial)")
    ind = dict.fromkeys(ind)  # a set in the order given
    els = sp.elements
    for x in ind:
        if x not in sp.index:
            raise UnknownIdentifier(f"unknown element {x!r} in independence set")
    if not ind:
        raise AxiomViolation("I1", ())
    above, below = sp.above, sp.below
    ind_mask = sum(1 << sp.index[x] for x in ind)
    for j in _bits(ind_mask):  # I2
        bad = below[j] & ~ind_mask
        if bad:
            raise AxiomViolation("I2", (els[next(_bits(bad))], els[j]))
    size = sp.ranks
    atoms = _atoms(size)
    lt = _less_than(size)
    joinable = _joinable(sp)
    for i in _bits(ind_mask):  # I3
        # the atoms a not below x whose (nonempty) join with x is independent
        inside = sum(1 << a for a in _bits(atoms & ~below[i] & joinable[i])
                     if not sp.minimal_of_mask(above[i] & above[a]) & ~ind_mask)
        bad = ind_mask & ~lt[size[i] + 1] & ~_union(above, inside)
        if bad:
            raise AxiomViolation("I3", (els[i], els[next(_bits(bad))]))
    for i, x in enumerate(els):  # I4
        tops = sp.maximal_of_mask(below[i] & ind_mask)
        bad = _union(above, tops) & ~joinable[i]
        if bad:
            j = next(_bits(bad))
            raise AxiomViolation("I4", (x, els[j], els[next(_bits(tops & below[j]))]))


def scheme_from_independence(sp: SimplicialPoset, ind) -> MatroidScheme:
    """The scheme whose independent elements are the family ``ind``: check
    I1-I4 (``validate_independence``), then label x with rho(x), the
    largest |t| over the t in ``ind`` below x.  ``ind`` is read once, so an
    iterator serves as well as a list.  One sweep up the linear extension
    gives rho(x) = |x| on an independent x, else the largest rho of its
    lower covers: every independent t < x lies below one of them.

    I1-I4 certify the result, so it is not validated again; the validating
    form is the tests' referee.  Below, t and b are independent and |x| is
    the size of x.

    - M1, M2: I1 and I2 put the bottom in the family, so
      0 <= rho(x) <= |x|, and rho is monotone.
    - M3: below an element w the family holds the bottom and is
      down-closed.  For t, b <= w with |b| > |t|, I3 puts b above an atom
      a not below t whose minimal upper bounds with t are all independent,
      and the join of t and a in the Boolean down-set of w is one of them.
      So the family below w is the independent sets of a matroid on the
      atoms below w, rho there is its rank function, and a rank function
      is submodular (Oxley, *Matroid Theory*, ch. 1).
    - Lemma: t <= x with |t| = rho(x) is maximal among the independent
      elements below x, one of I4's tops for x.
    - M4: let l <= x, l <= y, rho(l) = rho(x), and t <= l with
      |t| = rho(l).  By the lemma t is a top of x, and y >= t, so I4 makes
      x and y joinable.
    - M5: let rho(x) < rho(y), t <= x as in the lemma and b <= y with
      |b| = rho(y).  I3 for t gives an atom a <= b <= y, not below t,
      whose minimal upper bounds u with t are all independent.  Were
      a <= x, the join of t and a in the Boolean down-set of x would be
      independent of size rho(x) + 1; so a is not below x.  Each u is
      above t, a top of x, so I4 makes u and x joinable, and so a and x
      are joinable.
    - The independent elements of the result are the family: rho(x) = |x|
      puts some t of size |x| below x, and in the Boolean down-set of x
      that t is x itself."""
    ind = tuple(ind)
    validate_independence(sp, ind)
    ind = frozenset(ind)
    r = list(sp.ranks)
    for x in sp.order:
        if sp.elements[x] not in ind:
            r[x] = max(r[c] for c in sp.covers_dn[x])
    return _labelled(sp, r)


# --- loops and isthmuses ---------------------------------------------------------

def loops(m: MatroidScheme) -> frozenset:
    """Atoms of rank zero.  The two other characterizations of a loop are
    checked by the oracle in ``tests/derived_oracle.py``."""
    return frozenset(e for e, k, r in zip(m.elements, m.ranks, m.rhos)
                     if k == 1 and r == 0)


def isthmuses(m: MatroidScheme) -> frozenset:
    """Atoms below every basis: the atoms of the meet of their down-sets.
    The two other characterizations of an isthmus are checked by the
    oracle in ``tests/derived_oracle.py``."""
    common = _full(m)
    for b in _bits(_bases_mask(m)):
        common &= m.below[b]
    return frozenset(m._ids(common & _atoms(m.ranks)))


def is_simple(m: MatroidScheme) -> bool:
    """Every atom is its own closure (a flat) with a nonzero label (not a loop)."""
    cl = _closure_map(m)
    rhos = m.rhos
    return all(cl[a] == a and rhos[a] for a in _bits(_atoms(m.ranks)))


# --- deletion, contraction, restriction ---------------------------------------------

def _atom_index(m: MatroidScheme, a) -> int:
    """The index of the atom a; any other id raises ``NotAnAtom``."""
    i = m.index.get(a)
    if i is None or m.ranks[i] != 1:
        raise NotAnAtom(f"{a!r} is not an atom")
    return i


def delete(m: MatroidScheme, a) -> MatroidScheme:
    """Scheme on the elements not above the atom a (its rank is one less
    exactly when a is an isthmus)."""
    return _sub_scheme(m, _full(m) & ~m.above[_atom_index(m, a)])


def contract(m: MatroidScheme, x) -> MatroidScheme:
    """Scheme on the up-set of x, re-rooted at x, with rho shifted down by
    rho(x); original identifiers are kept."""
    i = m.idx(x)
    return _sub_scheme(m, m.above[i], m.rhos[i])


def restrict(m: MatroidScheme, atom_set) -> MatroidScheme:
    """Scheme on the order ideal of elements supported on the given atoms
    (the same scheme as deleting the other atoms one by one).  The first
    given id that is not an atom, in the order given, is named."""
    kept = 0
    for a in atom_set:
        kept |= 1 << _atom_index(m, a)
    return _sub_scheme(m, _full(m) & ~_union(m.above, _atoms(m.ranks) & ~kept))


# --- scheme isomorphism -----------------------------------------------------------

def scheme_isomorphism(m1: MatroidScheme, m2: MatroidScheme) -> dict | None:
    """rho-preserving simplicial poset isomorphism, or None."""
    return find_isomorphism(m1, m2, m1.rho, m2.rho)
