"""Finite poset machinery.

Posets are stored by their cover relations (Hasse diagram) with the full
reachability relation precomputed as bitmasks over element indices.  All
values are immutable after construction and every operation is a pure
function, so concurrent reads are safe.

Element identifiers are opaque strings; declaration order is the
deterministic tie-break for all search iteration and reported witnesses.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .errors import (
    CycleDetected,
    DuplicateIdentifier,
    InvariantBroken,
    NonHasseCover,
    NotBelow,
    NotBoundedBelow,
    NotRanked,
    NotSimplicial,
    RankNotConstantOnMax,
    UnknownIdentifier,
)
from .polynomials import UnivariatePolynomial


class Poset:
    """Immutable finite poset.

    ``elements`` is the declaration-order tuple of identifiers and ``pairs``
    the tuple of (lower, upper) cover pairs as element indices; ``covers``
    gives them as identifiers, in the same order.  ``order`` is a linear
    extension (every element after its lower covers).  ``above[i]`` /
    ``below[i]`` are reflexive reachability bitmasks over element indices.
    """

    __slots__ = ("elements", "pairs", "order", "index", "above", "below",
                 "covers_up", "covers_dn", "_covers")

    def __init__(self, elements, pairs, order, above, below, covers_up, covers_dn,
                 covers=None):
        self.elements = tuple(elements)
        self.pairs = tuple(pairs)
        self.order = tuple(order)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.above = tuple(above)
        self.below = tuple(below)
        self.covers_up = tuple(covers_up)
        self.covers_dn = tuple(covers_dn)
        self._covers = covers

    @property
    def covers(self) -> tuple:
        """The cover pairs as identifiers: kept from the constructor's
        input, or formed from ``pairs`` on first read (a sub-poset inside
        a recursion is never written out, so it never pays for them)."""
        if self._covers is None:
            els = self.elements
            self._covers = tuple((els[i], els[j]) for i, j in self.pairs)
        return self._covers

    # -- queries ------------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.index

    def idx(self, e) -> int:
        try:
            return self.index[e]
        except KeyError:
            raise UnknownIdentifier(f"unknown element {e!r}") from None

    def leq(self, a, b) -> bool:
        return bool(self.above[self.idx(a)] >> self.idx(b) & 1)

    def _ids(self, mask: int) -> tuple:
        els = self.elements
        out = []
        while mask:
            low = mask & -mask
            out.append(els[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def down_set(self, e) -> tuple:
        return self._ids(self.below[self.idx(e)])

    def minimal_of_mask(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if not (self.below[i] & mask & ~low):
                out |= low
            m ^= low
        return out

    def maximal_of_mask(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if not (self.above[i] & mask & ~low):
                out |= low
            m ^= low
        return out

    def minimal_elements(self) -> tuple:
        return self._ids(self.minimal_of_mask((1 << len(self.elements)) - 1))

    def maximal_elements(self) -> tuple:
        return self._ids(self.maximal_of_mask((1 << len(self.elements)) - 1))

    def join_mask(self, T) -> int:
        """Bitmask of minimal upper bounds of the element set T."""
        common = (1 << len(self.elements)) - 1
        for t in T:
            common &= self.above[self.idx(t)]
        return self.minimal_of_mask(common)

    def meet_mask(self, T) -> int:
        common = (1 << len(self.elements)) - 1
        for t in T:
            common &= self.below[self.idx(t)]
        return self.maximal_of_mask(common)

    def subposet(self, keep: int) -> "Poset":
        """Induced subposet on the bitmask ``keep``, kept in declaration
        order with the parent's covers in the parent's order.  ``keep`` must
        be convex (an order ideal, a filter or an interval): everything
        between two kept elements is then kept, so the parent's covers
        between kept elements are its covers.  The parent's linear
        extension restricted to ``keep`` is one of the subposet."""
        new = {}
        for i in _bits(keep):
            new[i] = len(new)
        pairs = [(new[i], new[j]) for i, j in self.pairs if i in new and j in new]
        order = [new[i] for i in self.order if i in new]
        els = self.elements
        return _closed([els[i] for i in new], pairs, order, *_adjacency(len(new), pairs))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.pairs)} covers)"


def transitive_reduction(up) -> list:
    """Cover pairs (i, j) of a strict order given by its strict up-set
    bitmasks ``up``, in row-major order: j covers i iff j is in up[i] and in
    no up[k] with k in up[i] (Aho, Garey and Ullman, 1972)."""
    return [(i, j) for i, mask in enumerate(up) for j in _bits(mask & ~_union(up, mask))]


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(masks, sel: int) -> int:
    """OR of masks[i] over the set bits i of sel."""
    out = 0
    for i in _bits(sel):
        out |= masks[i]
    return out


def _assemble(elements, covers) -> Poset:
    """Build a Poset from Hasse data over known ids; a cycle raises CycleDetected."""
    index = {e: i for i, e in enumerate(elements)}
    pairs = [(index[a], index[b]) for a, b in covers]
    covers_up, covers_dn = _adjacency(len(elements), pairs)
    order = _topo_order(len(elements), covers_up)
    if order is None:
        raise CycleDetected(_find_cycle(elements, covers_up))
    return _closed(elements, pairs, order, covers_up, covers_dn, tuple(covers))


def _adjacency(n, pairs):
    """Upper and lower cover lists per index, in the order of ``pairs``."""
    covers_up = [[] for _ in range(n)]
    covers_dn = [[] for _ in range(n)]
    for i, j in pairs:
        covers_up[i].append(j)
        covers_dn[j].append(i)
    return covers_up, covers_dn


def _closed(elements, pairs, order, covers_up, covers_dn, covers=None) -> Poset:
    """The Poset of index cover pairs with the linear extension ``order``
    and the cover lists of ``_adjacency`` (and the id cover pairs, when
    known): reachability is swept down the order for the up-sets and up it
    for the down-sets."""
    n = len(elements)
    above = [1 << i for i in range(n)]
    for i in reversed(order):
        for j in covers_up[i]:
            above[i] |= above[j]
    below = [1 << i for i in range(n)]
    for i in order:
        for j in covers_dn[i]:
            below[i] |= below[j]
    return Poset(elements, pairs, order, above, below,
                 [tuple(c) for c in covers_up], [tuple(c) for c in covers_dn], covers)


def _topo_order(n, covers_up):
    indeg = [0] * n
    for i in range(n):
        for j in covers_up[i]:
            indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    order = []
    while queue:
        i = queue.pop()
        order.append(i)
        for j in covers_up[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    return order if len(order) == n else None


def _find_cycle(elements, covers_up):
    """The first cycle a depth-first walk in index order meets, as ids from
    its first element back to it; the walk keeps its own stack, so a long
    cycle cannot exhaust the interpreter's recursion limit."""
    state = [0] * len(elements)  # 0 unseen, 1 on the path, 2 done
    for root in range(len(elements)):
        if state[root]:
            continue
        state[root] = 1
        path, todo = [root], [iter(covers_up[root])]
        while todo:
            for j in todo[-1]:
                if state[j] == 1:
                    return [elements[m] for m in path[path.index(j):]] + [elements[j]]
                if state[j] == 0:
                    state[j] = 1
                    path.append(j)
                    todo.append(iter(covers_up[j]))
                    break
            else:
                state[path.pop()] = 2
                todo.pop()
    return [elements[0], elements[0]]  # pragma: no cover


def build_poset(elements, covers) -> Poset:
    """Validating constructor: rejects duplicate ids, unknown ids, cycles,
    and covers implied by transitivity (the Hasse condition)."""
    elements = list(elements)
    index = {}
    for i, e in enumerate(elements):
        if index.setdefault(e, i) != i:
            raise DuplicateIdentifier(f"duplicate element id {e!r}")
    covers = [tuple(c) for c in covers]
    cover_set = set()
    for a, b in covers:
        for end in (a, b):
            if end not in index:
                raise UnknownIdentifier(f"cover references unknown element {end!r}")
        if a == b:
            raise CycleDetected([a, b])
        if (a, b) in cover_set:
            raise NonHasseCover((a, b), "duplicate cover pair")
        cover_set.add((a, b))

    p = _assemble(elements, covers)
    for a, b in covers:
        i, j = index[a], index[b]
        if p.above[i] & p.below[j] & ~(1 << i | 1 << j):
            raise NonHasseCover((a, b))
    return p


def _certified(elements, pairs, rank, support=None):
    """The RankedPoset, or with ``support`` the SimplicialPoset, that a
    construction certifies: ``pairs`` are its index cover pairs in cover
    order, ``rank[i]`` is the rank of element i and ``support[i]`` the
    bitmask of the atoms below it.

    Nothing is re-derived: no Hasse check, no rank sweep, no simplicial
    pass.  Every cover raises the rank by one, so sorting by rank gives
    the linear extension.  A repeated id still raises
    ``DuplicateIdentifier``, as in ``build_poset``."""
    order = sorted(range(len(elements)), key=rank.__getitem__)
    p = _closed(elements, pairs, order, *_adjacency(len(elements), pairs))
    if len(p.index) != len(p.elements):
        seen = set()
        for e in p.elements:
            if e in seen:
                raise DuplicateIdentifier(f"duplicate element id {e!r}")
            seen.add(e)
    rp = RankedPoset.__new__(RankedPoset)
    rp.poset = p
    rp.rank = dict(zip(p.elements, rank))
    rp.bottom = p.elements[order[0]]
    return rp if support is None else SimplicialPoset(rp, tuple(support))


# --- joins and meets as operations ------------------------------------------

def upper_bound_minima(p: Poset, T) -> frozenset:
    """Minimal upper bounds of T; the whole poset's minima when T is empty."""
    return frozenset(p._ids(p.join_mask(T)))


def lower_bound_maxima(p: Poset, T) -> frozenset:
    """Maximal lower bounds of T; the whole poset's maxima when T is empty."""
    return frozenset(p._ids(p.meet_mask(T)))


# --- ranked posets -----------------------------------------------------------

class RankedPoset:
    """A bounded-below poset with a rank function: rank(bottom) = 0 and every
    cover raises rank by exactly one.

    Without ``rank`` the rank function is derived, with it the given labels
    are verified; both in one bottom-up sweep of the covers.  The first
    cover in sweep order that breaks the rule is reported as two chains
    from the bottom, each following first-reach parents."""

    __slots__ = ("poset", "rank", "bottom")

    def __init__(self, poset: Poset, rank: dict | None = None):
        minima = poset.minimal_elements()
        if len(minima) != 1:
            raise NotBoundedBelow(minima)
        self.poset = poset
        self.bottom = minima[0]
        els = poset.elements
        n = len(els)
        if rank is None:
            r = [None] * n
            r[poset.index[self.bottom]] = 0
        elif rank.get(self.bottom) != 0:
            raise NotRanked(self.bottom, (self.bottom,), (self.bottom,))
        else:
            r = [rank[e] for e in els]
        parent = [-1] * n
        for i in poset.order:
            for j in poset.covers_up[i]:
                if parent[j] < 0:
                    parent[j] = i
                    if rank is None:
                        r[j] = r[i] + 1
                if r[j] != r[i] + 1:
                    raise NotRanked(els[j], _chain(els, parent, j),
                                    _chain(els, parent, i) + (els[j],))
        self.rank = dict(zip(els, r))

    @property
    def elements(self):
        return self.poset.elements

    def atoms(self) -> tuple:
        return tuple(e for e in self.elements if self.rank[e] == 1)

    def max_rank(self) -> int:
        return max(self.rank.values(), default=0)

    def interval(self, lo, hi) -> "RankedPoset":
        """Closed interval [lo, hi] re-ranked to start at 0."""
        p = self.poset
        mask = p.above[p.idx(lo)] & p.below[p.idx(hi)]
        base = self.rank[lo]
        return RankedPoset(p.subposet(mask),
                           {e: self.rank[e] - base for e in p._ids(mask)})

    def __repr__(self):
        return f"RankedPoset({len(self.elements)} elements, max rank {self.max_rank()})"


def _chain(els, parent, i) -> tuple:
    """Ids from the bottom up to index i along first-reach parents."""
    out = []
    while i >= 0:
        out.append(els[i])
        i = parent[i]
    return tuple(reversed(out))


def compute_rank(p: Poset) -> RankedPoset:
    """Verify unique minimum and gradedness; derive the rank function."""
    return RankedPoset(p)


# --- simplicial posets --------------------------------------------------------

class SimplicialPoset:
    """Bounded-below ranked poset whose every down-set is a Boolean lattice
    on its atoms.  ``support[i]`` is the bitmask of the atoms below element
    i; the rank of an element equals the number of atoms below it."""

    __slots__ = ("ranked", "support")

    def __init__(self, ranked: RankedPoset, support: tuple):
        self.ranked = ranked
        self.support = support

    @property
    def poset(self) -> Poset:
        return self.ranked.poset

    @property
    def elements(self):
        return self.ranked.poset.elements

    @property
    def bottom(self):
        return self.ranked.bottom

    def atoms(self) -> tuple:
        return self.ranked.atoms()

    def size(self, x) -> int:
        """Number of atoms below x (the simplicial rank of x)."""
        return self.support[self.poset.idx(x)].bit_count()

    def __repr__(self):
        return f"SimplicialPoset({len(self.elements)} elements, {len(self.atoms())} atoms)"


def verify_simplicial(rp: RankedPoset) -> SimplicialPoset:
    """Check every down-set against the subset lattice of its atoms via the
    map y -> atoms(y): it must be a rank-preserving bijection onto all
    subsets, which forces an order isomorphism.

    With rank(x) = |atoms(x)| and |down(x)| = 2^rank(x), the map is onto
    iff it is one-to-one, so the last check asks whether two elements of
    down(x) share an atom set.  Two elements y != y' lie in a common
    down-set exactly where their up-sets meet, so one pass that ORs the
    up-sets seen per atom set marks every such x, in time linear in the
    number of elements.  Elements are checked in declaration order, each
    against rank, then size, then that mark."""
    p = rp.poset
    els = p.elements
    rank = rp.rank
    atoms = sum(1 << i for i, e in enumerate(els) if rank[e] == 1)
    support = tuple(down & atoms for down in p.below)
    seen = {}  # atom set -> OR of the up-sets of the elements with it
    clash = 0
    for s, up in zip(support, p.above):
        prev = seen.get(s, 0)
        clash |= up & prev
        seen[s] = prev | up
    for i, (x, down) in enumerate(zip(els, p.below)):
        k = support[i].bit_count()
        if rank[x] != k:
            raise NotSimplicial(x, f"rank {rank[x]} != {k} atoms below")
        if down.bit_count() != 1 << k:
            raise NotSimplicial(x, f"|down-set| = {down.bit_count()} != 2^{k}")
        if clash >> i & 1:
            raise NotSimplicial(x, "two elements share the same atom set")
    return SimplicialPoset(rp, support)


def complement(sp: SimplicialPoset, x, a):
    """The unique element of the Boolean down-set of x whose atom set is
    support(x) minus support(a)."""
    p = sp.poset
    if not p.leq(a, x):
        raise NotBelow(f"{a!r} is not below {x!r}")
    i = p.idx(x)
    target = sp.support[i] & ~sp.support[p.idx(a)]
    for y in _bits(p.below[i]):
        if sp.support[y] == target:
            return p.elements[y]
    raise InvariantBroken(f"no complement of {a!r} in down-set of {x!r}")  # pragma: no cover


# --- Möbius function and characteristic polynomial ----------------------------

def mobius(rp: RankedPoset) -> dict:
    """mu(bottom) = 1 and sum of mu over each down-set is zero."""
    p = rp.poset
    order = sorted(p.elements, key=lambda e: rp.rank[e])
    mu = {}
    for w in order:
        if w == rp.bottom:
            mu[w] = 1
        else:
            mu[w] = -sum(mu[u] for u in p.down_set(w) if u != w)
    return mu


def characteristic_polynomial(rp: RankedPoset) -> UnivariatePolynomial:
    """Sum of mu(w) * t^(max_rank - rank(w)); requires rank constant on
    maximal elements."""
    maxima = rp.poset.maximal_elements()
    ranks = {rp.rank[m] for m in maxima}
    if len(ranks) != 1:
        raise RankNotConstantOnMax(tuple((m, rp.rank[m]) for m in maxima))
    top_rank = ranks.pop()
    mu = mobius(rp)
    coeffs: dict[int, int] = {}
    for w in rp.elements:
        d = top_rank - rp.rank[w]
        coeffs[d] = coeffs.get(d, 0) + mu[w]
    return UnivariatePolynomial(coeffs)


# --- geometric lattice recognition ---------------------------------------------

class LatticeCheck:
    """Outcome of is_geometric_lattice: ok, or the violated condition with a
    witness."""

    __slots__ = ("ok", "condition", "witness")

    def __init__(self, ok: bool, condition: str | None = None, witness: tuple | None = None):
        self.ok = ok
        self.condition = condition
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ok, self.condition, self.witness) == (other.ok, other.condition, other.witness)

    def __hash__(self):
        return hash((self.ok, self.condition, self.witness))

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return (f"LatticeCheck(ok={self.ok!r}, condition={self.condition!r}, "
                f"witness={self.witness!r})")


def is_geometric_lattice(rp) -> LatticeCheck:
    """True iff the input is a lattice, ranked, semimodular and atomic.

    Accepts a Poset or a RankedPoset; a plain poset is ranked internally so
    the check can report "not ranked" instead of raising.
    """
    if isinstance(rp, Poset):
        try:
            rp = compute_rank(rp)
        except NotBoundedBelow as exc:
            return LatticeCheck(False, "bounded_below", exc.minima)
        except NotRanked as exc:
            return LatticeCheck(False, "ranked", (exc.element,))
    p = rp.poset
    els = p.elements
    r = [rp.rank[e] for e in els]
    pairs = []  # (i, j, join, meet) as indices
    for i, j in itertools.combinations(range(len(els)), 2):
        join = p.minimal_of_mask(p.above[i] & p.above[j])
        meet = p.maximal_of_mask(p.below[i] & p.below[j])
        for kind, m in (("join", join), ("meet", meet)):
            if m.bit_count() != 1:
                return LatticeCheck(False, "lattice", (els[i], els[j], kind))
        pairs.append((i, j, join.bit_length() - 1, meet.bit_length() - 1))
    for i, j, u, m in pairs:
        if r[i] + r[j] < r[u] + r[m]:
            return LatticeCheck(False, "semimodular", (els[i], els[j]))
    atoms = sum(1 << i for i, k in enumerate(r) if k == 1)
    for i, x in enumerate(els):
        common = (1 << len(els)) - 1
        for a in _bits(p.below[i] & atoms):
            common &= p.above[a]
        if p.minimal_of_mask(common) != 1 << i:
            return LatticeCheck(False, "atomic", (x,))
    return LatticeCheck(True)


# --- isomorphism search ---------------------------------------------------------

def iter_isomorphisms(p: RankedPoset, q: RankedPoset,
                      p_labels: dict | None = None,
                      q_labels: dict | None = None):
    """Yield every rank-respecting (and label-respecting, when given) poset
    isomorphism p -> q as an id -> id dict whose items are in placement
    order.

    Backtracking on element indices.  Each element is signed by (rank,
    label, lower-cover count, upper-cover count, down-set size, up-set
    size), and p and q must have the same signatures with multiplicity.
    p's elements are placed in (rank, index) order, so the lower covers of
    the next element e are placed already.  Its candidates, tried in index
    order, are the unused q elements of e's signature that cover every
    image of e's lower covers.  Such a candidate has as many lower covers
    as e, so its lower-cover mask is exactly the image of e's.  All
    elements of lower rank are placed, so this is the same as agreeing on
    the order with every placed element, and a rank-preserving bijection
    that maps lower covers onto lower covers is an order isomorphism.  The
    search keeps its own stack, so deep posets do not meet the recursion
    limit."""
    pp, qq = p.poset, q.poset
    n = len(pp)
    if n != len(qq):
        return
    p_sig, q_sig = _signatures(p, p_labels), _signatures(q, q_labels)
    if Counter(p_sig) != Counter(q_sig):
        return
    q_class = {}
    for f, s in enumerate(q_sig):
        q_class[s] = q_class.get(s, 0) | 1 << f

    p_els, q_els, p_dn = pp.elements, qq.elements, pp.covers_dn
    q_up = [sum(1 << f for f in c) for c in qq.covers_up]
    order = sorted(range(n), key=lambda i: p.rank[p_els[i]])
    phi = [-1] * n

    def admissible(i, used):
        cand = q_class[p_sig[i]] & ~used
        for j in p_dn[i]:
            cand &= q_up[phi[j]]
        return cand

    used = 0
    left = [admissible(order[0], 0)]  # candidates not yet tried, per depth
    while left:
        k = len(left) - 1
        i = order[k]
        if phi[i] >= 0:
            used ^= 1 << phi[i]
            phi[i] = -1
        cand = left[k]
        if not cand:
            left.pop()
            continue
        low = cand & -cand
        left[k] = cand ^ low
        phi[i] = low.bit_length() - 1
        used |= low
        if k + 1 < n:
            left.append(admissible(order[k + 1], used))
        else:
            yield {p_els[j]: q_els[phi[j]] for j in order}


def _signatures(rp: RankedPoset, labels: dict | None) -> list:
    """Per index: (rank, label, lower covers, upper covers, down-set size,
    up-set size)."""
    p, rank = rp.poset, rp.rank
    labels = labels or {}
    return [(rank[e], labels.get(e), len(dn), len(up), below.bit_count(), above.bit_count())
            for e, dn, up, below, above
            in zip(p.elements, p.covers_dn, p.covers_up, p.below, p.above)]


def find_isomorphism(p: RankedPoset, q: RankedPoset,
                     p_labels: dict | None = None,
                     q_labels: dict | None = None) -> dict | None:
    """First rank- (and label-) preserving isomorphism found, or None."""
    for phi in iter_isomorphisms(p, q, p_labels, q_labels):
        return phi
    return None
