"""Geometric posets and the equivalence with simple matroid schemes.

A geometric poset is a bounded-below ranked poset in which

  G1  every maximal interval is a geometric lattice, and
  G2  for every x, every atom set A and every y minimal above A with
      rank(x) < rank(y) = |A|, some a in A satisfies a not<= x and
      join(a, x) nonempty.

Geometric posets are exactly the flats posets of matroid schemes; each is
the flats poset of a unique simple scheme, reconstructed here explicitly.

``validate_geometric`` certifies posets read from files, Dowling posets
and the flats that ``simplification`` takes; ``toric.layers_poset``
certifies its layer posets by theorem.
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import errors
from .errors import (
    DEFAULT_ATOM_CAP,
    AtomCapExceeded,
    AxiomViolation,
    InvariantBroken,
    NotSimple,
    SizeCapExceeded,
)
from .poset import (
    Poset,
    RankedPoset,
    SimplicialPoset,
    _atoms,
    _bits,
    _certified,
    _levels,
    _maxima,
    _ranked,
    is_geometric_lattice,
    iter_isomorphisms,
)
from .scheme import (
    MatroidScheme,
    _closure_map,
    _joinable,
    flats,
    is_simple,
)


class GeometricPoset(RankedPoset):
    """A ranked bounded-below poset certified against G1 and G2; only
    ``validate_geometric`` and, in ``layers_poset``, ``_certified`` make one."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        raise TypeError("use validate_geometric() to build a GeometricPoset")


def _g1_holds(p: Poset, r: list, joinable: list) -> bool:
    """True iff every maximal interval [bottom, mx] of the poset p, ranked
    by ``r``, is a geometric lattice, read on the masks of the whole poset
    in one pass over the incomparable pairs that share an upper bound.

    Lattice: ``below[mx]`` is a down-set, so the minimal upper bounds of a
    pair inside [bottom, mx] are those of the whole poset below mx; no
    maximal element may lie above two of them.  A finite poset with a top
    in which every pair has one minimal upper bound is a lattice.

    Semimodular: two elements of rank k above a common element m of rank
    k - 1 are upper covers of m and meet in m in every interval holding
    both, where their join is one of their minimal upper bounds.  A finite
    lattice is semimodular iff such joins cover both (Stanley, EC1,
    Prop. 3.3.2), so each minimal upper bound must have rank k + 1.

    Atomic: x is the join of its atoms iff no lower cover of x has the same
    atoms below it."""
    above, below = p.above, p.below
    level = _levels(r)
    tops = sum(1 << u for u in _maxima(p))
    for i, partners in enumerate(joinable):
        for j in _bits((partners & ~(above[i] | below[i])) >> (i + 1) << (i + 1)):
            common = above[i] & above[j]
            low = common & -common
            if above[low.bit_length() - 1] == common:  # the join, read off at once
                minimal = low
            else:
                minimal = p.minimal_of_mask(common)
                seen = 0
                for u in _bits(minimal):
                    if above[u] & tops & seen:
                        return False
                    seen |= above[u] & tops
            k = r[i]
            if k == r[j] and below[i] & below[j] & level[k - 1] and minimal & ~level[k + 1]:
                return False
    return all(below[x] & level[1] != below[y] & level[1]
               for x, dn in enumerate(p.covers_dn) for y in dn)


def validate_geometric(rp: RankedPoset, atom_cap: int = DEFAULT_ATOM_CAP) -> GeometricPoset:
    """Check G1 on the masks of the whole poset, sweeping the maximal
    intervals through ``is_geometric_lattice`` only to name the first
    witness, then G2 by brute force over elements x, the sets A of
    rank(x) + 1 atoms that fail the G2 condition for x (those below x or
    sharing no upper bound with it, bad(x)), and the y of rank |A| minimal
    above A.  The G2 sweep is refused above ``atom_cap`` atoms.

    Once G1 holds, one size decides G2.  Let A in bad(x) fail it, with y
    minimal above A and rank(x) < rank(y) = |A|.  1. In the geometric
    lattice [bottom, y] the join of A is y, so A is independent there.
    2. So is each A' in A, whose join y' there has rank |A'|; an upper
    bound z <= y' of A' lies in [bottom, y], so z = y': y' is minimal
    above A' in the whole poset.  3. So every A' of rank(x) + 1 atoms of
    A, inside bad(x), fails with y'.  The first witness is thus the one a
    sweep over every size, smallest first, names."""
    p = rp.poset
    els = p.elements
    r = rp.ranks
    joinable = _joinable(p)
    if not _g1_holds(p, r, joinable):
        for mx in p.maximal_elements():  # G1, swept only to name the first witness
            check = is_geometric_lattice(rp.interval(rp.bottom, mx))
            if not check:
                raise AxiomViolation("G1", (mx, check.condition, check.witness))
        raise InvariantBroken("G1 fails on the masks but on no maximal interval")

    atoms = _atoms(r)
    if atoms.bit_count() > atom_cap:
        raise AtomCapExceeded(atoms.bit_count(), atom_cap)
    top_rank = max((r[i] for i in _maxima(p)), default=0)
    above, below, level = p.above, p.below, _levels(r)
    for i, x in enumerate(els):  # G2
        # a set meeting the atoms a with a not<= x and join(a, x) nonempty
        # satisfies G2 for x, so only sets of the other atoms can fail
        bad = atoms & (below[i] | ~joinable[i])
        size = r[i] + 1
        if size > top_rank or bad.bit_count() < size:
            continue
        tops = level[size]
        for A in itertools.combinations(_bits(bad), size):
            common = functools.reduce(operator.and_, map(above.__getitem__, A))
            if common & tops:  # the y of rank |A| minimal above A, in index order
                for y in _bits(common & tops):
                    if below[y] & common == 1 << y:
                        raise AxiomViolation("G2", (x, frozenset(els[a] for a in A), els[y]))
    return _ranked(p, r, GeometricPoset)


def pair_id(atom_set, x) -> str:
    """Identifier of a scheme element built from a geometric poset:
    "(sorted-atom-list|poset-id)"."""
    return f"({','.join(sorted(atom_set))}|{x})"


def _escaped_pair_id(atom_set, x) -> str:
    """``pair_id`` with "\\", "," and "|" escaped inside every id, so the
    unescaped "|" splits the atoms from x and the unescaped "," splits
    the atoms: distinct pairs get distinct ids.  (The empty atom set and
    the one atom "" both print as nothing before the "|", but only the
    bottom pairs with the empty set and only the atom "" with {""}.)"""
    def esc(s):
        return s.replace("\\", "\\\\").replace(",", "\\,").replace("|", "\\|")
    return pair_id(map(esc, atom_set), esc(x))


def _walk(p: Poset, atoms: int, bottom: int) -> tuple[list, list, list]:
    """The pairs (I, x) of ``scheme_from_geometric``, as (atom mask, poset
    index) in element order, its index cover pairs in cover order, and its
    closure map: the closure of (I, x) is (atoms below x, x), the last
    pair of x's block.

    The covers of (I, x) are the (I + a, y) with a an atom not in I and y
    minimal above x and a, which is y = x when a <= x and otherwise an
    upper cover of x above a: in the geometric lattice below y the join of
    x with an atom outside it covers x (Stanley, EC1, Prop. 3.3.2).  Every
    pair (I, x) with a the largest atom of I is reached this way from
    exactly one pair of I - a, its join below x.  So a walk from (empty,
    bottom) breadth first by |I|, each level the last one extended, in
    order, by every atom above the largest of each I, meets each pair once
    and by induction lists each level in lexicographic order of I.  Added
    to the blocks of their x, the pairs are numbered by x, |I| and that
    order, and each pair's covers come in the order of their upper ends,
    so nothing is sorted.  The tables are freed before the scheme's poset
    is built.  ``SizeCapExceeded`` is raised as soon as the walk meets
    more than ``errors.ELEMENT_CAP`` pairs, before any cover is listed."""
    own = [down & atoms for down in p.below]  # own[x]: the atoms below x
    steps = []  # steps[x]: (y, bit of a) for every step (I, x) -> (I + a, y), by y then a
    grow = []  # grow[x]: the same steps by a
    for x, ups in enumerate(p.covers_up):
        moves = []
        for y in sorted((x, *ups)):
            new = own[x] if y == x else own[y] & ~own[x]
            while new:
                bit = new & -new
                moves.append((y, bit))
                new ^= bit
        steps.append(moves)
        grow.append(sorted(moves, key=operator.itemgetter(1)))

    found = [[] for _ in own]  # found[x]: the atom sets I of the pairs (I, x), in walk order
    level, met, cap = [(0, bottom)], 1, errors.ELEMENT_CAP
    if met > cap:
        raise SizeCapExceeded(met, cap, "simple scheme", at_least=True)
    while level:
        nxt = []
        for I, x in level:
            found[x].append(I)
            for y, bit in grow[x]:
                if bit > I:  # a is above the largest atom of I
                    nxt.append((I | bit, y))
                    met += 1
                    if met > cap:
                        raise SizeCapExceeded(met, cap, "simple scheme", at_least=True)
        level = nxt

    pairs, closure, pos = [], [], []  # pos[x]: atom set I -> index of the pair (I, x)
    for x, sets in enumerate(found):
        pos.append({I: len(pairs) + k for k, I in enumerate(sets)})
        pairs += [(I, x) for I in sets]
        closure += [len(pairs) - 1] * len(sets)
    covers = [(k, pos[y][I | bit])
              for k, (I, x) in enumerate(pairs)
              for y, bit in steps[x] if not I & bit]
    return pairs, covers, closure


def scheme_from_geometric(gp: GeometricPoset) -> MatroidScheme:
    """The simple scheme whose elements are pairs (I, x) with I a set of atoms
    and x minimal above I, ordered by containment-and-order, with rho(I, x)
    the rank of x.  Any other type than ``GeometricPoset`` raises
    ``TypeError``; the certificate is trusted, not re-checked: for a geometric
    poset the result is a simple scheme whose flats are the input via
    x -> (atoms below x, x), and its poset is built as a certified simplicial
    poset with rank |I|.  The pairs and their covers come from one walk up
    from (empty, bottom), breadth first, with no atom subset enumerated
    (see ``_walk``), which also gives the scheme's closure map.  More than
    ``errors.ELEMENT_CAP`` pairs are refused with ``SizeCapExceeded`` before any is built.

    Pairs are named by ``pair_id`` when those names are distinct, and
    otherwise all by ``_escaped_pair_id``, which is injective: ids that
    hold "," or "|" can make two plain names agree."""
    if not isinstance(gp, GeometricPoset):
        raise TypeError("scheme_from_geometric takes a GeometricPoset (see validate_geometric)")
    p = gp.poset
    els = p.elements
    pairs, covers, closure = _walk(p, _atoms(gp.ranks), p.order[0])
    ids = [pair_id([els[a] for a in _bits(I)], els[x]) for I, x in pairs]
    if len(set(ids)) != len(ids):
        ids = [_escaped_pair_id([els[a] for a in _bits(I)], els[x]) for I, x in pairs]
    sp = _certified(ids, covers, [I.bit_count() for I, _ in pairs], SimplicialPoset)
    m = MatroidScheme(sp, tuple(gp.ranks[x] for _, x in pairs), _checked=True)
    m._closure = closure
    return m


def simplification(m: MatroidScheme, atom_cap: int = DEFAULT_ATOM_CAP) -> MatroidScheme:
    """The unique simple scheme with the same flats poset; the flats' G2
    sweep is refused above ``atom_cap`` atoms (see ``validate_geometric``)."""
    return scheme_from_geometric(validate_geometric(flats(m), atom_cap))


def check_uniqueness(m1: MatroidScheme, m2: MatroidScheme) -> dict | None:
    """Given two simple schemes, lift an isomorphism of their flats posets
    to a rho-preserving scheme isomorphism; returns the lifted bijection,
    or None when the flats posets are not isomorphic.

    The atoms of a simple scheme are its flats of rho 1, so a flats
    isomorphism phi maps the atoms below a flat y onto those below phi(y).
    The lift psi(x) is the one minimal upper bound of the images of x's
    atoms in the Boolean down-set of phi(cl(x)): the element there with
    that atom set.  In a valid scheme an element is fixed by its atom mask
    and its closure, since only one element below the closure has that
    atom set, so psi is read from one table of m2 keyed by both.  The
    table misses a psi(x) whose closure is not phi(cl(x)), but then psi
    is no scheme isomorphism: one is phi on the flats and maps closures
    to closures.  psi is kept when it is a rho-preserving bijection that
    maps the covers onto the covers."""
    for m in (m1, m2):
        if not is_simple(m):
            raise NotSimple(f"{m!r} is not simple")
    f1, f2 = flats(m1), flats(m2)
    p1, p2 = m1.poset, m2.poset
    cl1, atoms1, atoms2 = _closure_map(m1), _atoms(m1.s.ranks), _atoms(m2.s.ranks)
    element = {(dn & atoms2, c): v for v, (dn, c) in enumerate(zip(p2.below, _closure_map(m2)))}
    covers2 = set(p2.pairs)
    phi = None
    for phi in iter_isomorphisms(f1, f2):
        img = {p1.index[a]: p2.index[b] for a, b in phi.items()}
        psi = [element.get((sum(1 << img[a] for a in _bits(dn & atoms1)), img[cl1[x]]))
               for x, dn in enumerate(p1.below)]
        if (None not in psi and len(set(psi)) == len(psi) == len(p2)
                and all(k == m2.rhos[v] for k, v in zip(m1.rhos, psi))
                and {(psi[a], psi[b]) for a, b in p1.pairs} == covers2):
            return {e: p2.elements[v] for e, v in zip(p1.elements, psi)}
    if phi is None:  # the search found no flats isomorphism
        return None
    raise InvariantBroken("flats posets isomorphic but no lift verified")
