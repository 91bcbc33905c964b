"""Geometric posets and the equivalence with simple matroid schemes.

A geometric poset is a bounded-below ranked poset in which

  G1  every maximal interval is a geometric lattice, and
  G2  for every x, every atom set A and every y minimal above A with
      rank(x) < rank(y) = |A|, some a in A satisfies a not<= x and
      join(a, x) nonempty.

Geometric posets are exactly the flats posets of matroid schemes; each is
the flats poset of a unique simple scheme, reconstructed here explicitly.

G1 is checked once on the masks of the whole poset, with no interval
sub-poset built; the maximal intervals are swept through
``is_geometric_lattice`` only when that check fails, to name the first
witness.  G2 enumerates, for each x, only the atom sets that can fail it:
sets of the atoms below x or sharing no upper bound with x.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import AtomCapExceeded, AxiomViolation, InvariantBroken, NotSimple
from .poset import (
    Poset,
    RankedPoset,
    _bits,
    _certified,
    _union,
    find_isomorphism,
    is_geometric_lattice,
    iter_isomorphisms,
)
from .scheme import (
    MatroidScheme,
    _full,
    _joinable,
    closure,
    flats,
    is_simple,
)

DEFAULT_ATOM_CAP = 20


class GeometricPoset:
    """A ranked bounded-below poset certified against G1 and G2."""

    __slots__ = ("ranked",)

    def __init__(self, ranked: RankedPoset, *, _checked: bool = False):
        if not _checked:
            raise TypeError("use validate_geometric() to build a GeometricPoset")
        self.ranked = ranked

    @property
    def poset(self):
        return self.ranked.poset

    @property
    def elements(self):
        return self.ranked.elements

    @property
    def rank(self):
        return self.ranked.rank

    def atoms(self):
        return self.ranked.atoms()

    def __repr__(self):
        return f"GeometricPoset({len(self.elements)} elements)"


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
    level = [0] * (max(r) + 2)  # level[k]: the elements of rank k
    for i, k in enumerate(r):
        level[k] |= 1 << i
    tops = p.maximal_of_mask(_full(p))
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
    witness, then G2 by brute force over elements x, the sets of atoms
    that fail the G2 condition for x (those below x or sharing no upper
    bound with it) of sizes up to the top rank, and minimal upper bounds.
    The exponential G2 sweep is refused above ``atom_cap`` atoms."""
    p = rp.poset
    els = p.elements
    r = [rp.rank[e] for e in els]
    joinable = _joinable(p)
    if not _g1_holds(p, r, joinable):
        for mx in p.maximal_elements():  # G1, swept only to name the first witness
            check = is_geometric_lattice(rp.interval(rp.bottom, mx))
            if not check:
                raise AxiomViolation("G1", (mx, check.condition, check.witness))
        raise InvariantBroken("G1 fails on the masks but on no maximal interval")

    atoms = rp.atoms()
    if len(atoms) > atom_cap:
        raise AtomCapExceeded(len(atoms), atom_cap)
    top_rank = max((rp.rank[mx] for mx in p.maximal_elements()), default=0)
    atom_idx = [p.index[a] for a in atoms]
    for i, x in enumerate(els):  # G2
        # a set meeting the atoms a with a not<= x and join(a, x) nonempty
        # satisfies G2 for x, so only sets of the other atoms can fail
        bad = [a for a in atom_idx if p.below[i] >> a & 1 or not joinable[i] >> a & 1]
        for size in range(r[i] + 1, min(top_rank, len(bad)) + 1):
            for A in itertools.combinations(bad, size):
                common = functools.reduce(operator.and_, (p.above[a] for a in A))
                for y in _bits(p.minimal_of_mask(common)):
                    if r[y] == size:
                        raise AxiomViolation("G2", (x, frozenset(els[a] for a in A), els[y]))
    return GeometricPoset(rp, _checked=True)


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


def scheme_from_geometric(gp: GeometricPoset) -> MatroidScheme:
    """The simple scheme whose elements are pairs (I, x) with I a set of
    atoms and x minimal above I, ordered by containment-and-order, with
    rho(I, x) the rank of x.  The covers of (I, x) are the (I + a, y) with
    a an atom not in I and y minimal above x and a: the join of I + a in
    the geometric lattice below y.  The certificate is trusted, not
    re-checked: for a geometric poset the result is a simple scheme whose
    flats are the input via x -> (atoms below x, x), and its poset is
    built as certified, with rank |I| and atoms ({a}, a) for a in I.

    Pairs are named by ``pair_id`` when those names are distinct, and
    otherwise all by ``_escaped_pair_id``, which is injective: ids that
    hold "," or "|" can make two plain names agree."""
    rp = gp.ranked
    p = rp.poset
    els = p.elements
    above, below = p.above, p.below
    atoms = sum(1 << p.index[a] for a in rp.atoms())

    index = {}  # (atom mask I, poset index x) -> pair index
    for x in range(len(els)):
        candidates = list(_bits(below[x] & atoms))
        for size in range(len(candidates) + 1):
            for combo in itertools.combinations(candidates, size):
                # x is minimal above I iff nothing else below x bounds I
                if functools.reduce(operator.and_, (above[a] for a in combo), below[x]) == 1 << x:
                    index[(sum(1 << a for a in combo), x)] = len(index)
    pairs = list(index)
    ids = [pair_id([els[a] for a in _bits(I)], els[x]) for I, x in pairs]
    if len(set(ids)) != len(ids):
        ids = [_escaped_pair_id([els[a] for a in _bits(I)], els[x]) for I, x in pairs]
    # joins[x][a]: the y minimal above x and the atom a, shared by the pairs of x
    joins = [{a: tuple(_bits(p.minimal_of_mask(above[x] & above[a]))) for a in _bits(atoms)}
             for x in range(len(els))]
    covers = sorted((k, index[(I | 1 << a, y)])
                    for k, (I, x) in enumerate(pairs)
                    for a in _bits(atoms & ~I)
                    for y in joins[x][a])

    single = [0] * len(els)  # poset atom a -> bit of the scheme atom ({a}, a)
    for a in _bits(atoms):
        single[a] = 1 << index[(1 << a, a)]
    sp = _certified(ids, covers, [I.bit_count() for I, _ in pairs],
                    [_union(single, I) for I, _ in pairs])
    rho = {pid: rp.rank[els[x]] for pid, (_, x) in zip(ids, pairs)}
    return MatroidScheme(sp, rho, _checked=True)


def simplification(m: MatroidScheme) -> MatroidScheme:
    """The unique simple scheme with the same flats poset."""
    return scheme_from_geometric(validate_geometric(flats(m)))


def check_uniqueness(m1: MatroidScheme, m2: MatroidScheme) -> dict | None:
    """Given two simple schemes, lift an isomorphism of their flats posets
    to a rho-preserving scheme isomorphism via atoms-below joins; returns
    the lifted bijection, or None when the flats posets are not isomorphic.
    """
    for m in (m1, m2):
        if not is_simple(m):
            raise NotSimple(f"{m!r} is not simple")
    f1, f2 = flats(m1), flats(m2)
    p1, p2 = m1.poset, m2.poset
    for phi in iter_isomorphisms(f1, f2):
        psi = {}
        ok = True
        for x in m1.elements:
            images = [phi[a] for a in m1.atoms() if p1.leq(a, x)]
            cl_img = phi[closure(m1, x)]
            candidates = [v for v in p2._ids(p2.join_mask(images))
                          if p2.leq(v, cl_img)]
            if len(candidates) != 1:
                ok = False
                break
            psi[x] = candidates[0]
        if not ok or sorted(psi.values(), key=p2.idx) != list(m2.elements):
            continue
        # psi is a bijection here, so it is an order isomorphism iff it
        # maps the covers onto the covers
        if (all(m1.rho[x] == m2.rho[psi[x]] for x in m1.elements)
                and {(psi[a], psi[b]) for a, b in p1.covers} == set(p2.covers)):
            return psi
    if find_isomorphism(f1, f2) is None:
        return None
    raise InvariantBroken("flats posets isomorphic but no lift verified")
