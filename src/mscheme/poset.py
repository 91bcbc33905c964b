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
from collections.abc import Mapping

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
        extension restricted to ``keep`` is one of the subposet.  See
        ``_induced``, which builds it from the kept indices."""
        return _induced(self, list(_bits(keep)))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.pairs)} covers)"


class LabelView(Mapping):
    """Read-only id -> value view of ``RankedPoset.ranks`` or
    ``MatroidScheme.rhos`` through the poset's ``index``; writes raise
    ``TypeError``."""

    __slots__ = ("_index", "_values")

    def __init__(self, index: dict, values: tuple):
        self._index, self._values = index, values

    def __getitem__(self, e):
        return self._values[self._index[e]]

    def get(self, e, default=None):
        i = self._index.get(e)
        return default if i is None else self._values[i]

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._values)

    def __repr__(self):
        return repr(dict(self))


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


def _certified(elements, pairs, ranks, support=None):
    """The RankedPoset, or with ``support`` the SimplicialPoset, that a
    construction certifies: ``pairs`` are its index cover pairs in cover
    order, ``ranks[i]`` is the rank of element i and ``support[i]`` the
    bitmask of the atoms below it.

    Nothing is re-derived: no Hasse check, no rank sweep, no simplicial
    pass.  Every cover raises the rank by one, so sorting by rank gives
    the linear extension.  A repeated id still raises
    ``DuplicateIdentifier``, as in ``build_poset``."""
    ranks = tuple(ranks)
    order = sorted(range(len(elements)), key=ranks.__getitem__)
    p = _closed(elements, pairs, order, *_adjacency(len(elements), pairs))
    if len(p.index) != len(p.elements):
        seen = set()
        for e in p.elements:
            if e in seen:
                raise DuplicateIdentifier(f"duplicate element id {e!r}")
            seen.add(e)
    rp = _ranked(p, ranks, p.elements[order[0]])
    return rp if support is None else SimplicialPoset(rp, tuple(support))


def _ranked(p: Poset, ranks: tuple, bottom) -> "RankedPoset":
    """The RankedPoset of p with the ranks by element index and the bottom
    that the caller certifies; nothing is checked."""
    rp = RankedPoset.__new__(RankedPoset)
    rp.poset, rp.ranks, rp.bottom = p, ranks, bottom
    return rp


def _induced(p: Poset, kept: list) -> Poset:
    """``p.subposet`` on the ascending index list ``kept`` of a convex set:
    one sweep of p's pairs keeps those with both ends kept and fills the
    pairs and both cover lists together, and one sweep of p's linear
    extension keeps its order."""
    new = {i: k for k, i in enumerate(kept)}
    get = new.get
    pairs = []
    covers_up = [[] for _ in kept]
    covers_dn = [[] for _ in kept]
    for i, j in p.pairs:
        a = get(i)
        if a is not None:
            b = get(j)
            if b is not None:
                pairs.append((a, b))
                covers_up[a].append(b)
                covers_dn[b].append(a)
    order = [new[i] for i in p.order if i in new]
    els = p.elements
    return _closed([els[i] for i in kept], pairs, order, covers_up, covers_dn)


def _convex(rp: "RankedPoset", kept: list) -> "RankedPoset":
    """The sub-poset of rp on the ascending index list ``kept`` of a convex
    set (see ``Poset.subposet``), ranked from its minimum: the first kept
    element of rp's linear extension, whose rank is subtracted from rp's.
    Every cover of the sub-poset is one of rp, so its ranks are inherited,
    not swept.  An empty list has no minimum and raises
    ``NotBoundedBelow(())``."""
    if not kept:
        raise NotBoundedBelow(())
    sub = _induced(rp.poset, kept)
    ranks = rp.ranks
    first = sub.order[0]
    base = ranks[kept[first]]
    return _ranked(sub, tuple(ranks[i] - base for i in kept), sub.elements[first])


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
    cover raises rank by exactly one.  ``ranks[i]`` is the rank of element
    i; ``rank`` reads it by id.

    Without ``rank`` (an id-keyed mapping) the rank function is derived,
    with it the given labels are verified; see ``_graded``."""

    __slots__ = ("poset", "ranks", "bottom")

    def __init__(self, poset: Poset, rank: Mapping | None = None):
        labels = None if rank is None else [rank.get(e) for e in poset.elements]
        self.poset = poset
        self.ranks, self.bottom = _graded(poset, labels)

    @property
    def rank(self) -> LabelView:
        return LabelView(self.poset.index, self.ranks)

    @property
    def elements(self):
        return self.poset.elements

    def atoms(self) -> tuple:
        return tuple(e for e, k in zip(self.elements, self.ranks) if k == 1)

    def max_rank(self) -> int:
        return max(self.ranks, default=0)

    def interval(self, lo, hi) -> "RankedPoset":
        """Closed interval [lo, hi] re-ranked to start at 0; lo not below
        hi raises ``NotBoundedBelow``."""
        p = self.poset
        return _convex(self, list(_bits(p.above[p.idx(lo)] & p.below[p.idx(hi)])))

    def __repr__(self):
        return f"RankedPoset({len(self.elements)} elements, max rank {self.max_rank()})"


def _graded(poset: Poset, labels: list | None) -> tuple:
    """(ranks, bottom): the ranks derived, or the ``labels`` by element
    index verified, in one bottom-up sweep of the covers.  The first cover
    in sweep order that breaks the rule is reported as two chains from the
    bottom, each following first-reach parents."""
    minima = poset.minimal_elements()
    if len(minima) != 1:
        raise NotBoundedBelow(minima)
    bottom = minima[0]
    els = poset.elements
    n = len(els)
    r = [0] * n if labels is None else labels
    if r[poset.index[bottom]] != 0:
        raise NotRanked(bottom, (bottom,), (bottom,))
    parent = [-1] * n
    for i in poset.order:
        for j in poset.covers_up[i]:
            if parent[j] < 0:
                parent[j] = i
                if labels is None:
                    r[j] = r[i] + 1
            if r[j] != r[i] + 1:
                raise NotRanked(els[j], _chain(els, parent, j),
                                _chain(els, parent, i) + (els[j],))
    return tuple(r), bottom


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
    rank = rp.ranks
    atoms = sum(1 << i for i, k in enumerate(rank) if k == 1)
    support = tuple(down & atoms for down in p.below)
    seen = {}  # atom set -> OR of the up-sets of the elements with it
    clash = 0
    for s, up in zip(support, p.above):
        prev = seen.get(s, 0)
        clash |= up & prev
        seen[s] = prev | up
    for i, (x, down) in enumerate(zip(els, p.below)):
        k = support[i].bit_count()
        if rank[i] != k:
            raise NotSimplicial(x, f"rank {rank[i]} != {k} atoms below")
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
    """mu(bottom) = 1 and sum of mu over each down-set is zero (Stanley,
    *Enumerative Combinatorics I*, 3.7).  One sweep up the stored linear
    extension sums mu over the strict down-set mask of each element; the
    dict lists the elements by rank, then in declaration order."""
    p = rp.poset
    els = p.elements
    mu = [0] * len(els)
    for i in p.order:
        down = p.below[i] ^ (1 << i)
        if not down:
            mu[i] = 1
            continue
        total = 0
        while down:
            low = down & -down
            total += mu[low.bit_length() - 1]
            down ^= low
        mu[i] = -total
    return {els[i]: mu[i] for i in sorted(range(len(els)), key=rp.ranks.__getitem__)}


def _top_value(p: Poset, values) -> int:
    """``values[i]`` on every maximal element i of p, or
    ``RankNotConstantOnMax`` with each maximal (id, value)."""
    tops = list(_bits(p.maximal_of_mask((1 << len(p.elements)) - 1)))
    if len({values[i] for i in tops}) != 1:
        raise RankNotConstantOnMax(tuple((p.elements[i], values[i]) for i in tops))
    return values[tops[0]]


def characteristic_polynomial(rp: RankedPoset) -> UnivariatePolynomial:
    """Sum of mu(w) * t^(max_rank - rank(w)); requires rank constant on
    maximal elements."""
    top_rank = _top_value(rp.poset, rp.ranks)
    mu = mobius(rp)
    coeffs: dict[int, int] = {}
    for w, k in zip(rp.elements, rp.ranks):
        coeffs[top_rank - k] = coeffs.get(top_rank - k, 0) + mu[w]
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
    r = rp.ranks
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
                      p_labels: Mapping | None = None,
                      q_labels: Mapping | None = None):
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
    that maps lower covers onto lower covers is an order isomorphism.

    Candidates only shrink along a branch, so after each placement the
    elements whose last lower cover it placed are checked ahead: if one of
    them has no candidate left, the branch is cut before it is explored.
    Only dead branches are cut, so the isomorphisms and their order do not
    change.  The search keeps its own stack, so deep posets do not meet
    the recursion limit."""
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
    order = sorted(range(n), key=p.ranks.__getitem__)
    phi = [-1] * n
    depth = sorted(range(n), key=order.__getitem__)  # the inverse of order
    ahead = [[] for _ in range(n)]  # ahead[k]: elements whose last lower cover is placed at k
    for i, dn in enumerate(p_dn):
        if dn:
            ahead[max(map(depth.__getitem__, dn))].append(i)

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
        if not all(admissible(j, used) for j in ahead[k]):
            continue
        if k + 1 < n:
            left.append(admissible(order[k + 1], used))
        else:
            yield {p_els[j]: q_els[phi[j]] for j in order}


def _signatures(rp: RankedPoset, labels: Mapping | None) -> list:
    """Per index: (rank, label, lower covers, upper covers, down-set size,
    up-set size)."""
    p = rp.poset
    labels = labels or {}
    return [(k, labels.get(e), len(dn), len(up), below.bit_count(), above.bit_count())
            for e, k, dn, up, below, above
            in zip(p.elements, rp.ranks, p.covers_dn, p.covers_up, p.below, p.above)]


def find_isomorphism(p: RankedPoset, q: RankedPoset,
                     p_labels: Mapping | None = None,
                     q_labels: Mapping | None = None) -> dict | None:
    """First rank- (and label-) preserving isomorphism found, or None."""
    for phi in iter_isomorphisms(p, q, p_labels, q_labels):
        return phi
    return None
