"""Geometric posets and the equivalence with simple matroid schemes.

A geometric poset is a bounded-below ranked poset in which

  G1  every maximal interval is a geometric lattice, and
  G2  for every x, every atom set A and every y minimal above A with
      rank(x) < rank(y) = |A|, some a in A satisfies a not<= x and
      join(a, x) nonempty.

Geometric posets are exactly the flats posets of matroid schemes; each is
the flats poset of a unique simple scheme, reconstructed here explicitly.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import AtomCapExceeded, AxiomViolation, NotSimple
from .poset import (
    RankedPoset,
    _bits,
    build_poset,
    compute_rank,
    find_isomorphism,
    is_geometric_lattice,
    iter_isomorphisms,
    verify_simplicial,
)
from .scheme import (
    MatroidScheme,
    _joinable,
    closure,
    flats,
    is_simple,
    validate_scheme,
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


def validate_geometric(rp: RankedPoset, atom_cap: int = DEFAULT_ATOM_CAP) -> GeometricPoset:
    """Check G1 on every maximal down-set and G2 by brute force over
    elements, atom subsets of size at most the top rank, and minimal upper
    bounds.  The exponential G2 sweep is refused above ``atom_cap`` atoms."""
    p = rp.poset
    for mx in p.maximal_elements():  # G1
        interval = rp.interval(rp.bottom, mx)
        check = is_geometric_lattice(interval)
        if not check:
            raise AxiomViolation("G1", (mx, check.condition, check.witness))

    atoms = rp.atoms()
    if len(atoms) > atom_cap:
        raise AtomCapExceeded(len(atoms), atom_cap)
    top_rank = max((rp.rank[mx] for mx in p.maximal_elements()), default=0)
    els = p.elements
    r = [rp.rank[e] for e in els]
    atom_idx = [p.index[a] for a in atoms]
    joinable = _joinable(p)
    for i, x in enumerate(els):  # G2
        # the atoms a with a not<= x and join(a, x) nonempty
        good = sum(1 << a for a in atom_idx) & ~p.below[i] & joinable[i]
        for size in range(r[i] + 1, top_rank + 1):
            for A in itertools.combinations(atom_idx, size):
                if sum(1 << a for a in A) & good:
                    continue
                common = functools.reduce(operator.and_, (p.above[a] for a in A))
                for y in _bits(p.minimal_of_mask(common)):
                    if r[y] == size:
                        raise AxiomViolation("G2", (x, frozenset(els[a] for a in A), els[y]))
    return GeometricPoset(rp, _checked=True)


def pair_id(atom_set, x) -> str:
    """Identifier of a scheme element built from a geometric poset:
    "(sorted-atom-list|poset-id)"."""
    return f"({','.join(sorted(atom_set))}|{x})"


def scheme_from_geometric(gp: GeometricPoset) -> MatroidScheme:
    """The simple scheme whose elements are pairs (I, x) with I a set of
    atoms and x minimal above I, ordered by containment-and-order, with
    rho(I, x) the rank of x.  The covers of (I, x) are the (I + a, y) with
    a an atom not in I and y minimal above x and a: the join of I + a in
    the geometric lattice below y.  The result is validated, asserted
    simple, and its flats poset is asserted isomorphic to the input via the
    embedding x -> (atoms below x, x)."""
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
    assert len(set(ids)) == len(ids), "pair identifiers collide"
    covers = sorted((k, index[(I | 1 << a, y)])
                    for k, (I, x) in enumerate(pairs)
                    for a in _bits(atoms & ~I)
                    for y in _bits(p.minimal_of_mask(above[x] & above[a])))
    covers = [(ids[i], ids[j]) for i, j in covers]

    sp = verify_simplicial(compute_rank(build_poset(ids, covers)))
    rho = {pid: rp.rank[els[x]] for pid, (_, x) in zip(ids, pairs)}
    m = validate_scheme(sp, rho)
    assert is_simple(m), "scheme built from a geometric poset must be simple"

    embed = {x: pair_id([els[a] for a in _bits(below[i] & atoms)], x)
             for i, x in enumerate(els)}
    fl = flats(m)
    assert sorted(embed.values()) == sorted(fl.elements), \
        "flats of the built scheme do not match the input poset"
    # a bijection that maps the covers onto the covers is an order isomorphism
    assert {(embed[a], embed[b]) for a, b in p.covers} == set(fl.poset.covers), \
        "embedding into flats is not an order isomorphism"
    return m


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
        if all(m1.rho[x] == m2.rho[psi[x]] for x in m1.elements) and all(
                p1.leq(x, y) == p2.leq(psi[x], psi[y])
                for x in m1.elements for y in m1.elements):
            return psi
    if find_isomorphism(f1, f2) is None:
        return None
    raise AssertionError("flats posets isomorphic but no lift verified")  # pragma: no cover
