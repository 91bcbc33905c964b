"""The matroid-scheme core: axiom validation, localization, closure, flats,
independence/bases/circuits, loops/isthmuses, deletion/contraction/
restriction, and brute-force checkers for the derived axiom systems.

A matroid scheme is a finite simplicial poset S with a rank labeling rho
satisfying:

  M1  0 <= rho(x) <= |x|                     (|x| = number of atoms below x)
  M2  x <= y  implies  rho(x) <= rho(y)
  M3  u in join(x,y) implies rho(x) + rho(y) >= rho(u) + rho(meet(x,y))
  M4  l in meet(x,y) with rho(x) = rho(l) implies join(x,y) nonempty
  M5  rho(x) < rho(y) implies some atom a <= y, a not below x,
      with join(x,a) nonempty

The axioms are checked on the poset's index bitmasks.  M1, M2, M4 and M5
take one mask per element.  M3 is checked on the diamonds l < u, v < w
(two lower covers of w and their meet): every down-set of a simplicial
poset is a Boolean lattice, and a function on a Boolean lattice that is
submodular on each diamond is submodular everywhere (Schrijver,
*Combinatorial Optimization*, Thm 44.1).  Only when a diamond fails does the
sweep over joinable pairs run, reading their joins and meets from masks of
the elements with a given number of atoms below, to name the witness.
Violations report the first offending tuple in declaration order, checked in
axiom order M1..M5.
"""

from __future__ import annotations

import itertools

from .errors import (
    AxiomViolation,
    InvariantBroken,
    MschemeError,
    NotALoop,
    NotAnAtom,
    UnknownIdentifier,
)
from .poset import (
    LabelView,
    Poset,
    RankedPoset,
    SimplicialPoset,
    _adjacency,
    _bits,
    _closed,
    _convex,
    _graded,
    _ranked,
    _top_value,
    _union,
    complement,
    find_isomorphism,
    transitive_reduction,
    verify_simplicial,
)


class MatroidScheme:
    """A validated simplicial poset with rank labels: ``rhos[i]`` is the
    label of element i, and ``rho`` reads it by id.

    Instances are immutable; use :func:`validate_scheme` to construct one
    from unvalidated data.  Equality is exact: same element order, same
    covers, same labels.
    """

    __slots__ = ("s", "rhos", "_closure", "_flats_cache", "_independent", "_tutte")

    def __init__(self, s: SimplicialPoset, rhos: tuple, *, _checked: bool = False):
        if not _checked:
            raise TypeError("use validate_scheme() to build a MatroidScheme")
        self.s = s
        self.rhos = tuple(rhos)
        self._closure = None
        self._flats_cache = None
        self._independent = None
        self._tutte = None

    @property
    def rho(self) -> LabelView:
        return LabelView(self.poset.index, self.rhos)

    @property
    def poset(self) -> Poset:
        return self.s.poset

    @property
    def elements(self):
        return self.s.elements

    @property
    def bottom(self):
        return self.s.bottom

    def atoms(self) -> tuple:
        return self.s.atoms()

    def size(self, x) -> int:
        return self.s.size(x)

    def serialize_key(self) -> tuple:
        """Exact-form key: the elements, the covers and the labels in
        declaration order, the data ``==`` compares; ``hash`` reads it."""
        return self.elements, self.poset.covers, self.rhos

    def __eq__(self, other):
        return isinstance(other, MatroidScheme) and self.serialize_key() == other.serialize_key()

    def __hash__(self):
        return hash(self.serialize_key())

    def __repr__(self):
        top = max(self.rhos, default=0)
        return f"MatroidScheme({len(self.elements)} elements, max rho {top})"


def _meet_of_joinable(p: Poset, a, b):
    """The unique maximal lower bound of {a, b}; callers guarantee
    join(a,b) is nonempty, which forces uniqueness in a simplicial poset
    (``InvariantBroken`` otherwise)."""
    ids = p._ids(p.meet_mask((a, b)))
    if len(ids) != 1:
        raise InvariantBroken(f"meet of joinable pair {(a, b)} not unique")
    return ids[0]


def _less_than(values) -> list:
    """``lt[k]``: bitmask of the i with ``values[i] < k``; ``lt[-1]`` has all."""
    lt = [0] * (max(values, default=0) + 2)
    for i, v in enumerate(values):
        lt[v + 1] |= 1 << i
    return list(itertools.accumulate(lt, int.__or__))


def _joinable(p: Poset) -> list:
    """``joinable[i]``: bitmask of the elements sharing an upper bound with
    element i, the OR of ``below[u]`` over the maximal u in ``above[i]``."""
    tops = p.maximal_of_mask(_full(p))
    return [_union(p.below, up & tops) for up in p.above]


def _diamonds_hold(p: Poset, r: list, size: list, sized: list) -> bool:
    """True iff r(u) + r(v) >= r(w) + r(l) on every diamond l < u, v < w:
    each pair u, v of lower covers of w, whose meet l is the one element
    below both with size[w] - 2 atoms."""
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
    p = sp.poset
    els = p.elements
    r = tuple(map(rho.get, els))
    if None in r:
        raise UnknownIdentifier(f"rho undefined on {els[r.index(None)]!r}")
    above, below = p.above, p.below
    supp = sp.support
    size = [k.bit_count() for k in supp]
    for i, x in enumerate(els):  # M1
        if not 0 <= r[i] <= size[i]:
            raise AxiomViolation("M1", (x,), f"rho={r[i]}, |x|={size[i]}")
    lt = _less_than(r)
    for i, x in enumerate(els):  # M2
        bad = above[i] & lt[r[i]]
        if bad:
            raise AxiomViolation("M2", (x, els[next(_bits(bad))]))
    joinable = _joinable(p)
    # sized[k]: the elements with k atoms below
    sized = [b & ~a for a, b in itertools.pairwise(_less_than(size))]
    if not _diamonds_hold(p, r, size, sized):
        for i, x in enumerate(els):  # M3, swept only to name the first witness
            for j in _bits(joinable[i] >> (i + 1) << (i + 1)):
                # in a simplicial poset a joinable pair has one meet, the common
                # lower bound with |supp[i] & supp[j]| atoms, and its joins are
                # the common upper bounds with |supp[i] | supp[j]| atoms
                m = (below[i] & below[j] & sized[(supp[i] & supp[j]).bit_count()]).bit_length() - 1
                for u in _bits(above[i] & above[j] & sized[(supp[i] | supp[j]).bit_count()]):
                    if r[i] + r[j] < r[u] + r[m]:
                        raise AxiomViolation("M3", (x, els[j], els[u], els[m]))
        raise MschemeError("M3 fails on a diamond but on no joinable pair")
    for i, x in enumerate(els):  # M4
        # by M2, one l in `same` below y puts a maximal common lower bound there
        same = below[i] & lt[r[i] + 1] & ~lt[r[i]]
        bad = _union(above, same) & ~joinable[i]
        if bad:
            j = next(_bits(bad))
            meet = p.maximal_of_mask(below[i] & below[j]) & same
            raise AxiomViolation("M4", (x, els[j], els[next(_bits(meet))]))
    atoms = sum(s for i, s in enumerate(sp.support) if s == 1 << i)  # an atom is its own support
    for i, x in enumerate(els):  # M5
        reach = _union(above, atoms & ~below[i] & joinable[i])
        bad = lt[-1] & ~lt[r[i] + 1] & ~reach
        if bad:
            raise AxiomViolation("M5", (x, els[next(_bits(bad))]))
    return MatroidScheme(sp, r, _checked=True)


def _sub_scheme(m: MatroidScheme, keep: int, shift: int = 0) -> MatroidScheme:
    """The minor of m on the order ideal or filter ``keep`` (a bitmask), with
    rho lowered by ``shift``: the one constructor behind localization,
    deletion, contraction, restriction and the Tutte recursion.

    The kept bits are listed once, for the sub-poset, its ranks and its
    labels.  The minor inherits its ranks through ``_convex``: its minimum
    is the parent's bottom for an ideal and the element a filter stands
    on.  It is not re-validated against M1-M5: the operations are
    theorem-backed and the property tests re-validate.  It is re-verified
    simplicial, which derives its supports: one ``verify_simplicial`` per
    Tutte node that needs a pivot choice (the recursion builds only its
    children of three or more elements), and the benchmark's tracer test
    counts it, so inheriting the supports waits for the Tutte recursion to
    run on the root's masks."""
    kept = list(_bits(keep))
    rhos = m.rhos
    return MatroidScheme(verify_simplicial(_convex(m.s.ranked, kept)),
                         tuple(rhos[i] - shift for i in kept), _checked=True)


def _full(p: Poset) -> int:
    """Bitmask of every element of p."""
    return (1 << len(p.elements)) - 1


def scheme_rank(m: MatroidScheme) -> int:
    """rho of any maximal element; ``RankNotConstantOnMax`` if it varies."""
    return _top_value(m.poset, m.rhos)


def localization(m: MatroidScheme, x) -> MatroidScheme:
    """The matroid on the Boolean down-set of x with the restricted labels."""
    p = m.poset
    return _sub_scheme(m, p.below[p.idx(x)])


def closure(m: MatroidScheme, x):
    """The unique maximal element above x with the same rho (a theorem for
    valid schemes; ``InvariantBroken`` otherwise)."""
    p = m.poset
    return p.elements[_closure_map(m)[p.idx(x)]]


def _closure_map(m: MatroidScheme) -> list:
    """Per element index, the index of its closure; computed once per
    scheme."""
    if m._closure is None:
        p = m.poset
        els = m.elements
        r = m.rhos
        lt = _less_than(r)
        cl = []
        for i, up in enumerate(p.above):
            top = p.maximal_of_mask(up & lt[r[i] + 1] & ~lt[r[i]])
            if top & (top - 1):
                raise InvariantBroken(f"closure of {els[i]!r} not unique: {p._ids(top)}")
            cl.append(top.bit_length() - 1)
        m._closure = cl
    return m._closure


def flats(m: MatroidScheme) -> RankedPoset:
    """Subposet of closed elements, ranked by rho and bounded below by the
    closure of the bottom element.  The closed elements need not be convex,
    so their covers come from a transitive reduction of the parent's order
    on them, and the parent's linear extension restricted to them is one of
    theirs.  The rank check stays: a contraction that left the class may
    have flats that are not ranked by rho."""
    if m._flats_cache is None:
        p = m.poset
        cl = _closure_map(m)
        keep = sum(1 << i for i, c in enumerate(cl) if c == i)
        up = [p.above[i] & keep & ~(1 << i) if c == i else 0 for i, c in enumerate(cl)]
        new = {i: k for k, i in enumerate(_bits(keep))}
        # renumbering the kept indices in order keeps the row-major cover order
        pairs = [(new[i], new[j]) for i, j in transitive_reduction(up)]
        order = [new[i] for i in p.order if i in new]
        els = p._ids(keep)
        sub = _closed(els, pairs, order, *_adjacency(len(els), pairs))
        m._flats_cache = _ranked(sub, *_graded(sub, [m.rhos[i] for i in _bits(keep)]))
    return m._flats_cache


def _independent_mask(m: MatroidScheme) -> int:
    """Bitmask of the elements x with rho(x) = |x|; computed once per
    scheme."""
    if m._independent is None:
        m._independent = sum(1 << i for i, (k, s) in enumerate(zip(m.rhos, m.s.support))
                             if k == s.bit_count())
    return m._independent


def independence(m: MatroidScheme) -> frozenset:
    return frozenset(m.poset._ids(_independent_mask(m)))


def bases(m: MatroidScheme) -> frozenset:
    """Maximal independent elements."""
    p = m.poset
    return frozenset(p._ids(p.maximal_of_mask(_independent_mask(m))))


def circuits(m: MatroidScheme) -> frozenset:
    """Minimal dependent elements."""
    p = m.poset
    return frozenset(p._ids(p.minimal_of_mask(_full(p) & ~_independent_mask(m))))


# --- independence cryptomorphism ------------------------------------------------

def validate_independence(sp: SimplicialPoset, ind) -> None:
    """Check I1-I4 exhaustively; raise AxiomViolation on the first failure."""
    ind = set(ind)
    p = sp.poset
    els = p.elements
    for x in ind:
        if x not in p.index:
            raise UnknownIdentifier(f"unknown element {x!r} in independence set")
    if not ind:
        raise AxiomViolation("I1", ())
    above, below = p.above, p.below
    ind_mask = sum(1 << p.index[x] for x in ind)
    for j in _bits(ind_mask):  # I2
        bad = below[j] & ~ind_mask
        if bad:
            raise AxiomViolation("I2", (els[next(_bits(bad))], els[j]))
    atoms = sum(s for i, s in enumerate(sp.support) if s == 1 << i)
    size = [s.bit_count() for s in sp.support]
    lt = _less_than(size)
    joinable = _joinable(p)
    for i in _bits(ind_mask):  # I3
        # the atoms a not below x whose (nonempty) join with x is independent
        inside = sum(1 << a for a in _bits(atoms & ~below[i] & joinable[i])
                     if not p.minimal_of_mask(above[i] & above[a]) & ~ind_mask)
        bad = ind_mask & ~lt[size[i] + 1] & ~_union(above, inside)
        if bad:
            raise AxiomViolation("I3", (els[i], els[next(_bits(bad))]))
    for i, x in enumerate(els):  # I4
        tops = p.maximal_of_mask(below[i] & ind_mask)
        bad = _union(above, tops) & ~joinable[i]
        if bad:
            j = next(_bits(bad))
            raise AxiomViolation("I4", (x, els[j], els[next(_bits(tops & below[j]))]))


def scheme_from_independence(sp: SimplicialPoset, ind) -> MatroidScheme:
    """Validate I1-I4, then build rho(x) = max size of an independent element
    below x and validate the result as a scheme; raises ``InvariantBroken``
    if its independence poset differs from the input."""
    validate_independence(sp, ind)
    ind = set(ind)
    p = sp.poset
    rho = {x: max(sp.size(z) for z in p.down_set(x) if z in ind) for x in p.elements}
    m = validate_scheme(sp, rho)
    if independence(m) != frozenset(ind):
        raise InvariantBroken("independence poset mismatch")
    return m


# --- loops and isthmuses ---------------------------------------------------------

def _loop_conditions(m: MatroidScheme, a) -> tuple:
    p = m.poset
    c1 = m.rho[a] == 0
    c2 = all(p.leq(a, x) for x in flats(m).elements)
    c3 = (all(p.leq(a, mx) for mx in p.maximal_elements())
          and not any(p.leq(a, b) for b in bases(m)))
    return c1, c2, c3


def _isthmus_conditions(m: MatroidScheme, a) -> tuple:
    p = m.poset
    c1 = True
    for x in m.elements:
        if p.leq(a, x):
            continue
        ups = p._ids(p.join_mask((x, a)))
        if not ups or any(m.rho[u] != m.rho[x] + 1 for u in ups):
            c1 = False
            break
    c2 = all(p.leq(a, b) for b in bases(m))
    c3 = (all(p.leq(a, mx) for mx in p.maximal_elements())
          and not any(p.leq(a, c) for c in circuits(m)))
    return c1, c2, c3


def loops(m: MatroidScheme) -> frozenset:
    """Atoms of rank zero.  The two other characterizations of a loop are
    checked by :func:`check_derived_axioms`."""
    return frozenset(e for e, k, r in zip(m.elements, m.s.ranked.ranks, m.rhos)
                     if k == 1 and r == 0)


def isthmuses(m: MatroidScheme) -> frozenset:
    """Atoms below every basis: those in the support of each.  The two
    other characterizations of an isthmus are checked by
    :func:`check_derived_axioms`."""
    p = m.poset
    common = _full(p)
    for b in bases(m):
        common &= m.s.support[p.index[b]]
    return frozenset(p._ids(common))


def is_simple(m: MatroidScheme) -> bool:
    """Every atom is a flat and not a loop."""
    lps = loops(m)
    return all(closure(m, a) == a and a not in lps for a in m.atoms())


# --- deletion, contraction, restriction ---------------------------------------------

def delete(m: MatroidScheme, a) -> MatroidScheme:
    """Scheme on the elements not above the atom a (its rank is one less
    exactly when a is an isthmus)."""
    if a not in set(m.atoms()):
        raise NotAnAtom(f"{a!r} is not an atom")
    p = m.poset
    return _sub_scheme(m, _full(p) & ~p.above[p.idx(a)])


def contract(m: MatroidScheme, x) -> MatroidScheme:
    """Scheme on the up-set of x, re-rooted at x, with rho shifted down by
    rho(x); original identifiers are kept."""
    i = m.poset.idx(x)
    return _sub_scheme(m, m.poset.above[i], m.rhos[i])


def restrict(m: MatroidScheme, atom_set) -> MatroidScheme:
    """Scheme on the order ideal of elements supported on the given atoms
    (the same scheme as deleting the other atoms one by one)."""
    atoms = set(m.atoms())
    atom_set = set(atom_set)
    for a in atom_set:
        if a not in atoms:
            raise NotAnAtom(f"{a!r} is not an atom")
    p = m.poset
    keep = _full(p)
    for a in atoms - atom_set:
        keep &= ~p.above[p.idx(a)]
    return _sub_scheme(m, keep)


def check_loop_del_contr(m: MatroidScheme, a) -> dict:
    """For a loop a, produce and verify the isomorphism between the
    contraction by a and the deletion of a via z -> complement of a in z
    (``InvariantBroken`` if it is not one)."""
    if a not in loops(m):
        raise NotALoop(f"{a!r} is not a loop")
    p = m.poset
    up = [z for z in m.elements if p.leq(a, z)]
    deleted = [e for e in m.elements if not p.leq(a, e)]
    phi = {z: complement(m.s, z, a) for z in up}
    if sorted(phi.values(), key=p.idx) != sorted(deleted, key=p.idx):
        raise InvariantBroken("complement map is not a bijection onto the deletion")
    for z, w in itertools.product(up, up):
        if p.leq(z, w) != p.leq(phi[z], phi[w]):
            raise InvariantBroken("complement map not an order iso")
    for z in up:
        if m.rho[z] - m.rho[a] != m.rho[phi[z]]:
            raise InvariantBroken("complement map not rank preserving")
    return phi


# --- scheme isomorphism -----------------------------------------------------------

def scheme_isomorphism(m1: MatroidScheme, m2: MatroidScheme) -> dict | None:
    """rho-preserving simplicial poset isomorphism, or None."""
    return find_isomorphism(m1.s.ranked, m2.s.ranked, m1.rho, m2.rho)


# --- derived-axiom cross-validation -------------------------------------------------

class DerivedAxiomReport:
    """Pass/fail per derived property with the first witness on failure.
    The properties are theorems for valid schemes, so any failure indicates
    an implementation bug; this is a cross-validation oracle."""

    def __init__(self):
        self.results: dict[str, tuple[bool, tuple | None]] = {}

    def record(self, name: str, ok: bool, witness=None):
        if name not in self.results or (self.results[name][0] and not ok):
            self.results[name] = (ok, witness)

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.results.values())

    def failures(self) -> dict:
        return {k: w for k, (ok, w) in self.results.items() if not ok}

    def __repr__(self):
        status = "pass" if self.ok else f"FAIL {sorted(self.failures())}"
        return f"DerivedAxiomReport({status})"


def check_derived_axioms(m: MatroidScheme) -> DerivedAxiomReport:
    """Brute-force re-verification of CL1-CL4, B1-B2, C1-C3, rho(c) = |c| - 1
    on circuits, the three rank facts, local flats, the closure-join lemma, and the loop/isthmus
    three-way equivalences.

    On corrupted input the closure operator or the flats poset may not even
    be well-defined; that is reported as a failing CL_STRUCTURE entry
    instead of propagating the internal error."""
    rep = DerivedAxiomReport()
    try:
        _check_derived(m, rep)
    except MschemeError as exc:
        rep.record("CL_STRUCTURE", False, (repr(exc),))
    for name in ("CL_STRUCTURE", "CL1", "CL2", "CL3", "CL4", "B1", "B2",
                 "C1", "C2", "C3", "C_RANK", "RK1", "RK2", "RK3", "LOCALFLATS",
                 "CLOSURE2", "LOOP_EQUIV", "ISTHMUS_EQUIV"):
        rep.results.setdefault(name, (True, None))
    return rep


def _check_derived(m: MatroidScheme, rep: DerivedAxiomReport) -> None:
    p = m.poset
    els = m.elements
    atoms = m.atoms()
    cl = {x: closure(m, x) for x in els}

    for x in els:
        rep.record("CL1", p.leq(x, cl[x]), (x,))
    for x, y in itertools.product(els, els):
        if p.leq(x, y):
            rep.record("CL2", p.leq(cl[x], cl[y]), (x, y))
    for x in els:
        rep.record("CL3", cl[cl[x]] == cl[x], (x,))
    for x in els:
        for b in atoms:
            for u in p._ids(p.join_mask((x, b))):
                for a in atoms:
                    if p.leq(a, cl[u]) and not p.leq(a, cl[x]):
                        ok = any(p.leq(v, cl[u]) and p.leq(b, cl[v])
                                 for v in p._ids(p.join_mask((x, a))))
                        rep.record("CL4", ok, (x, a, b, u))

    bs = sorted(bases(m), key=p.idx)
    rep.record("B1", len(bs) > 0)
    for x, y in itertools.product(bs, bs):
        if x == y:
            continue
        for a in atoms:
            if p.leq(a, x) and not p.leq(a, y):
                xa = complement(m.s, x, a)
                ok = False
                for b in atoms:
                    if p.leq(b, y) and not p.leq(b, x):
                        ups = p._ids(p.join_mask((xa, b)))
                        if ups and all(u in set(bs) for u in ups):
                            ok = True
                            break
                rep.record("B2", ok, (x, y, a))

    cs = sorted(circuits(m), key=p.idx)
    rep.record("C1", m.bottom not in cs)
    for x, y in itertools.product(cs, cs):
        if x != y:
            rep.record("C2", not p.leq(x, y), (x, y))
    for x, y in itertools.combinations(cs, 2):
        ups = p._ids(p.join_mask((x, y)))
        if not ups:
            continue
        meet = _meet_of_joinable(p, x, y)
        for u in ups:
            for a in atoms:
                if p.leq(a, meet):
                    ok = any(p.leq(z, u) and not p.leq(a, z) for z in cs)
                    rep.record("C3", ok, (x, y, u, a))
    for c in cs:
        rep.record("C_RANK", m.rho[c] == m.size(c) - 1, (c,))

    for x in els:  # rank facts
        for a in atoms:
            for u in p._ids(p.join_mask((x, a))):
                rep.record("RK1", m.rho[x] <= m.rho[u] <= m.rho[x] + 1, (x, a, u))
    for x, y in itertools.combinations(els, 2):
        ranks = {m.rho[u] for u in p._ids(p.join_mask((x, y)))}
        rep.record("RK2", len(ranks) <= 1, (x, y))
    rep.record("RK3", len({m.rho[u] for u in p.maximal_elements()}) == 1)

    fl = flats(m)
    fl_set = set(fl.elements)
    for x in fl.elements:  # local flats
        local = flats(localization(m, x))
        expected = {f for f in fl_set if p.leq(f, x)}
        rep.record("LOCALFLATS",
                   set(local.elements) == expected
                   and all(local.rank[f] == m.rho[f] for f in local.elements),
                   (x,))

    fp = fl.poset
    for x, y in itertools.combinations(els, 2):  # closure-join lemma
        for u in fp._ids(fp.join_mask((cl[x], cl[y]))):
            ok = any(cl[v] == u for v in p._ids(p.join_mask((x, y))))
            rep.record("CLOSURE2", ok, (x, y, u))

    for a in atoms:
        lc = _loop_conditions(m, a)
        rep.record("LOOP_EQUIV", len(set(lc)) == 1, (a,) + lc)
        ic = _isthmus_conditions(m, a)
        rep.record("ISTHMUS_EQUIV", len(set(ic)) == 1, (a,) + ic)
