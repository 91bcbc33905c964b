"""Sources of valid schemes: classical matroids, semimatroids, finite-group
quotients of semimatroids, and Dowling posets.

Only finite groups acting on finite semimatroids are supported; the
cofiniteness flag of input files is accepted but ignored (it is automatic
for finite data).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd
from types import MappingProxyType

from . import errors, tutte
from .errors import (
    DEFAULT_ATOM_CAP,
    AxiomViolation,
    InvariantBroken,
    MalformedInput,
    NotComplexInvariant,
    NotRankInvariant,
    NotTranslative,
    SizeCapExceeded,
)
from .geometric import GeometricPoset, scheme_from_geometric, validate_geometric
from .poset import RankedPoset, SimplicialPoset, _bits, _certified, _index
from .scheme import MatroidScheme

# These two bound quadratic work, not an element table, so they stay apart
# from ``errors.ELEMENT_CAP``.  Vertices of a semimatroid: its up to 2^12
# face masks are swept pairwise for S4 and S5.
SEMIMATROID_VERTEX_CAP = 12
# Elements of a partition poset: each gets ``_certified`` masks, and G1
# sweeps its pairs.
DOWLING_SIZE_CAP = 10_000


def set_id(members) -> str:
    """Identifier of a finite set: "{a,b}" with sorted members."""
    return "{" + ",".join(sorted(members)) + "}"


def _mask_id(names, X: int) -> str:
    """``set_id`` of the names at the bits of X."""
    return set_id(names[i] for i in _bits(X))


# --- classical matroids -----------------------------------------------------------

def _rank_steps_hold(table: list) -> bool:
    """True iff r(X) <= r(X+e) and r(X+e) + r(X+f) >= r(X+e+f) + r(X)
    wherever those sets are in the family: ``table`` is a rank function
    indexed by subset bitmask, None off a down-closed family.

    Every set of the family spans a Boolean lattice inside it, where these
    one-element steps imply monotonicity and submodularity for every pair
    (Schrijver, *Combinatorial Optimization*, Thm 44.1)."""
    steps = [1 << e for e in range(len(table).bit_length() - 1)]
    for X, rx in enumerate(table):
        if rx is None:
            continue
        ups = [X | b for b in steps if not X & b and table[X | b] is not None]
        for k, Y in enumerate(ups):
            gain = table[Y] - rx
            if gain < 0:
                return False
            for Z in ups[k + 1:]:
                top = table[Y | Z]
                if top is not None and gain + table[Z] < top:
                    return False
    return True


def _rank_witness(table: list, masks: list, names, axiom: str, family: str):
    """The sweep run once ``_rank_steps_hold`` fails: raise the first
    failure of monotonicity (``axiom`` 2), then of submodularity where the
    union is in the family (``axiom`` 3), over the pairs of ``masks`` in
    order, named by ``set_id`` of ``names`` at the bits (R2/R3, S2/S3)."""
    for X, Y in itertools.product(masks, masks):
        if not X & ~Y and table[X] > table[Y]:
            raise AxiomViolation(f"{axiom}2", (_mask_id(names, X), _mask_id(names, Y)))
    for X, Y in itertools.combinations(masks, 2):
        top = table[X | Y]
        if top is not None and table[X] + table[Y] < top + table[X & Y]:
            raise AxiomViolation(f"{axiom}3", (_mask_id(names, X), _mask_id(names, Y)))
    raise InvariantBroken(
        f"{axiom}2/{axiom}3 fail on a one-element step but on no pair of {family}")


def _subset_masks(n: int) -> list[int]:
    """The bitmasks of the subsets of n indices, by size, then lexicographically."""
    bits = [1 << i for i in range(n)]
    return [sum(c) for r in range(n + 1) for c in itertools.combinations(bits, r)]


class Matroid:
    """A ground set of distinct names with a rank function on all subsets,
    validated against the three rank axioms: bounds (R1), monotonicity (R2)
    and submodularity (R3).  ``rank_table``, the one stored form, a tuple,
    holds the rank of the subset with bitmask X over ground indices at X.
    ``rank`` is given as that table (a list or a tuple), or as a mapping
    keyed by sets of names read into it; ``rank`` reads back, made from the table on first read,
    as a read-only mapping keyed by frozensets of names.

    R1 is one pass over the table and R2, R3 are checked on one-element
    steps, O(n^2 2^n) work.  Only when a check fails do the sweeps over
    subsets, by size and then lexicographically, name the first witness.
    A repeated name raises ``DuplicateIdentifier``.  The tables of
    ``uniform_matroid`` and ``linear_matroid``, rank functions by theorem
    (Oxley, *Matroid Theory*, ch. 1), come ``_checked`` and skip R1-R3."""

    __slots__ = ("ground", "rank_table", "_rank")

    def __init__(self, ground, rank, *, _checked: bool = False):
        self.ground = ground = tuple(ground)
        _index(ground)
        if not isinstance(rank, (list, tuple)):
            given = {frozenset(k): v for k, v in rank.items()}
            rank = [given.get(self._names(X)) for X in range(1 << len(ground))]
        if len(rank) != 1 << len(ground):
            raise MalformedInput(f"a rank table of {len(rank)} entries for {len(ground)} names")
        self.rank_table, self._rank = tuple(rank), None
        if _checked:
            return
        bad = [X for X, v in enumerate(rank) if v is None or not 0 <= v <= X.bit_count()]
        if bad:
            X = min(bad, key=lambda X: (X.bit_count(), list(_bits(X))))
            raise AxiomViolation("R1", (_mask_id(ground, X),),
                                 "rank undefined" if rank[X] is None else "")
        if not _rank_steps_hold(rank):
            _rank_witness(rank, _subset_masks(len(ground)), ground, "R", "subsets")

    def _names(self, X: int) -> frozenset:
        return frozenset(e for i, e in enumerate(self.ground) if X >> i & 1)

    @property
    def rank(self) -> MappingProxyType:
        if self._rank is None:
            self._rank = MappingProxyType({self._names(X): self.rank_table[X]
                                           for X in _subset_masks(len(self.ground))})
        return self._rank

    def __repr__(self):
        return f"Matroid({len(self.ground)} elements, rank {self.rank_table[-1]})"


def _ground_set_cap(n: int) -> None:
    """Refuse a ground set of n elements whose 2^n subsets, every one
    tabulated by the matroid constructors, would pass
    ``errors.ELEMENT_CAP``."""
    cap = errors.ELEMENT_CAP.bit_length() - 1
    if n > cap:
        raise SizeCapExceeded(n, cap, "ground set")


def uniform_matroid(r: int, n: int) -> Matroid:
    """U(r, n) on the ground set e1..en, its rank table min(|X|, r) by
    subset mask, certified (see ``Matroid``); refuses an n past the ground
    set cap, then r outside [0, n]."""
    _ground_set_cap(n)
    if not 0 <= r <= n:
        raise MalformedInput(f"uniform matroid U({r},{n}) needs 0 <= r <= n")
    return Matroid([f"e{i}" for i in range(1, n + 1)],
                   [min(X.bit_count(), r) for X in range(1 << n)], _checked=True)


def linear_matroid(matrix: list[list[int]], names=None) -> Matroid:
    """Matroid of the columns of an integer matrix.  Its rank table is
    filled in one walk up the subset masks: the top column t of X is
    reduced exactly against integer echelon rows spanning X - t, each
    divided by its content, and adds one to the rank of X - t, and its
    residue as a row, when a residue is left; ``Matroid`` takes it
    certified.  Repeated names raise ``DuplicateIdentifier``."""
    cols = list(zip(*matrix)) if matrix else []
    n = len(cols)
    _ground_set_cap(n)
    if names is None:
        names = [f"v{i}" for i in range(n)]
    if len(names) != n:
        raise AxiomViolation("R1", tuple(names), "column/name count mismatch")
    table = [0] * (1 << n)
    spans = [()] * (1 << n)  # per mask, (pivot, row) pairs spanning its columns
    for X in range(1, 1 << n):
        top = X.bit_length() - 1
        rest, v = X ^ 1 << top, cols[top]
        for p, row in spans[rest]:
            if v[p]:
                a, b = row[p], v[p]
                v = [a * x - b * y for x, y in zip(v, row)]
        table[X], spans[X] = table[rest], spans[rest]
        if any(v):
            k = gcd(*v)
            table[X] += 1
            spans[X] += ((next(i for i, x in enumerate(v) if x), [x // k for x in v]),)
    return Matroid(names, table, _checked=True)


def _face_poset(masks: list, ids: list) -> SimplicialPoset:
    """The face poset of a simplicial complex, certified: ``masks`` are its
    faces as vertex bitmasks, by size and then lexicographically, named by
    ``ids``.  A face's rank is its size and its down-set is the Boolean
    lattice of its subsets, so its upper covers are the one-vertex steps
    X + v, in index order as v rises.  A repeated id raises
    ``DuplicateIdentifier``."""
    pos = {X: k for k, X in enumerate(masks)}
    steps = [1 << v for v in range(max(masks).bit_length())]
    covers = [(k, j) for k, X in enumerate(masks) for b in steps
              if not X & b and (j := pos.get(X | b)) is not None]
    return _certified(ids, covers, [X.bit_count() for X in masks], SimplicialPoset)


def scheme_from_matroid(mat: Matroid) -> MatroidScheme:
    """The scheme on the Boolean lattice of the ground set with the matroid
    rank labels, certified: the subset X has rank |X|, and M1-M5 on a
    Boolean lattice follow from the rank axioms R1-R3, checked or certified
    by ``Matroid`` (every pair is joinable, with union and intersection as
    join and meet).

    Subsets are bitmasks over ground indices, by size and then
    lexicographically, and their poset is ``_face_poset``'s: rho is read
    from ``mat.rank_table``, and each id is ``set_id`` of the subset, its
    members taken in the ground set's sorted name order, with no set built
    per subset."""
    ground = mat.ground
    n = len(ground)
    masks = _subset_masks(n)
    by_name = [(1 << i, ground[i]) for i in sorted(range(n), key=ground.__getitem__)]
    ids = ["{" + ",".join([e for b, e in by_name if X & b]) + "}" for X in masks]
    sp = _face_poset(masks, ids)
    return MatroidScheme(sp, tuple(map(mat.rank_table.__getitem__, masks)), _checked=True)


# --- semimatroids -----------------------------------------------------------------

def _face_masks(faces, vertices) -> list:
    """The faces as bitmasks over ``vertices``, in the order given."""
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    return [sum(map(bit.__getitem__, f)) for f in faces]


def _sorted_faces(faces) -> list:
    """Faces by size, then by their sorted members."""
    return sorted(faces, key=lambda f: (len(f), sorted(f)))


class Semimatroid:
    """A finite simplicial complex with a rank function satisfying the five
    semimatroid axioms (Ardila, *Semimatroids and their Tutte polynomials*,
    2007), checked at construction; ``rank``, read-only, holds face ranks only.

    S2-S5 run on a rank table by vertex mask, None off the complex, and on
    the face masks by size and then sorted members, the order witnesses
    are found in.  S2 (monotonicity) and S3 (submodularity where the union
    is a face) are checked on one-element steps, and swept over pairs of
    faces only when a step fails.  S4 and S5 sweep the pairs: S5 fails on
    (X, Y) iff Y misses ext(X), the vertices y outside X with X + y a face.
    A repeated vertex raises ``DuplicateIdentifier``."""

    __slots__ = ("vertices", "faces", "rank")

    def __init__(self, vertices, faces, rank: dict):
        self.vertices = tuple(vertices)
        if len(self.vertices) > SEMIMATROID_VERTEX_CAP:
            raise SizeCapExceeded(len(self.vertices), SEMIMATROID_VERTEX_CAP, "vertex set")
        _index(self.vertices)
        self.faces = frozenset(frozenset(f) for f in faces)
        self.rank = MappingProxyType({frozenset(k): v for k, v in rank.items()
                                      if frozenset(k) in self.faces})
        if frozenset() not in self.faces:
            raise AxiomViolation("S1", ("{}",), "empty face missing")
        faces = _sorted_faces(self.faces)
        for f in faces:
            for v in sorted(f):
                if v not in self.vertices:
                    raise AxiomViolation("S1", (set_id(f),), f"unknown vertex {v!r}")
                if f - {v} not in self.faces:
                    raise AxiomViolation("S1", (set_id(f),), "not closed under subsets")
            if f not in self.rank:
                raise AxiomViolation("S1", (set_id(f),), "rank undefined")
        for v in self.vertices:
            if frozenset({v}) not in self.faces:
                raise AxiomViolation("S1", (v,), "vertex is not a face")
        for X in faces:  # S1
            if not 0 <= self.rank[X] <= len(X):
                raise AxiomViolation("S1", (set_id(X),))
        names = self.vertices
        masks = _face_masks(faces, names)
        table = [None] * (1 << len(names))
        for X, f in zip(masks, faces):
            table[X] = self.rank[f]
        if not _rank_steps_hold(table):
            _rank_witness(table, masks, names, "S", "faces")
        for X in masks:  # S4: r(X) = r(X & Y) forces X | Y to be a face
            rx = table[X]
            for Y in masks:
                if table[X | Y] is None and table[X & Y] == rx:
                    raise AxiomViolation("S4", (_mask_id(names, X), _mask_id(names, Y)))
        steps = [1 << v for v in range(len(names))]
        for X in masks:  # S5: r(X) < r(Y) forces a face X + y with y in Y
            rx = table[X]
            ext = sum(b for b in steps if not X & b and table[X | b] is not None)
            for Y in masks:
                if table[Y] > rx and not Y & ext:
                    raise AxiomViolation("S5", (_mask_id(names, X), _mask_id(names, Y)))

    def max_rank(self) -> int:
        return max(self.rank.values(), default=0)

    def __repr__(self):
        return f"Semimatroid({len(self.vertices)} vertices, {len(self.faces)} faces)"


def scheme_from_semimatroid(sm: Semimatroid) -> MatroidScheme:
    """The face poset of the complex (a simplicial meet-semilattice) with
    the same rank: ``_face_poset`` on masks over the sorted vertices, whose
    lexicographic order is that of the faces' sorted members.  The labels
    are certified by S1-S5, checked by ``Semimatroid``: faces X and Y are
    joinable iff X | Y is a face, which is then their one join, and X & Y
    is their meet.  So S1, S2 and S3 are M1, M2 and M3; S4 (r(X) = r(X & Y)
    forces X | Y to be a face) is M4; and S5 (some y in Y - X with X + y a
    face) is M5, with the atom {y} not below X."""
    faces = _sorted_faces(sm.faces)
    sp = _face_poset(_face_masks(faces, sorted(sm.vertices)), [set_id(f) for f in faces])
    return MatroidScheme(sp, tuple(sm.rank[f] for f in faces), _checked=True)


# --- finite groups and actions --------------------------------------------------------

def _generators(elements, mul: dict, identity) -> list:
    """A greedy generating set: each element, in order, that the right
    products of the identity (if any) and the generators before it miss;
    at most log2(n) in a group, each doubling the subgroup or more."""
    gens, seen = [], set() if identity is None else {identity}
    for g in elements:
        if g not in seen:
            gens.append(g)
            todo = [g, *seen]
            seen.add(g)
            while todo:
                x = todo.pop()
                todo += (new := {mul[x, h] for h in gens} - seen)
                seen |= new
    return gens


def _associative(elements, mul: dict, identity) -> bool:
    """Light's test: x(gy) = (xg)y for all x, y and each generator g of
    ``_generators``.  The g that pass are closed under the product, as
    x((ab)y) = x(a(by)) = (xa)(by) = ((xa)b)y = (x(ab))y, so they are all
    elements iff the generators are."""
    return all(mul[x, mul[g, y]] == mul[mul[x, g], y]
               for g in _generators(elements, mul, identity)
               for x in elements for y in elements)


class FiniteGroup:
    """Multiplication table over named elements; closure, associativity
    (by ``_associative``, sweeping every triple only to name the first
    that fails), identity and inverses are checked."""

    __slots__ = ("elements", "mul", "identity", "inverse")

    def __init__(self, elements, mul: dict):
        self.elements = tuple(elements)
        self.mul = dict(mul)
        members = set(self.elements)
        for g, h in itertools.product(self.elements, self.elements):
            if (g, h) not in self.mul or self.mul[(g, h)] not in members:
                raise AxiomViolation("group", (g, h), "multiplication not closed")
        identity = next((e for e in self.elements
                         if all(self.mul[(e, g)] == g and self.mul[(g, e)] == g
                                for g in self.elements)), None)
        if not _associative(self.elements, self.mul, identity):
            for g, h, k in itertools.product(self.elements, repeat=3):
                if self.mul[(self.mul[(g, h)], k)] != self.mul[(g, self.mul[(h, k)])]:
                    raise AxiomViolation("group", (g, h, k), "not associative")
        if identity is None:
            raise AxiomViolation("group", (), "no identity element")
        self.identity = identity
        self.inverse = {}
        for g in self.elements:
            inv = next((h for h in self.elements
                        if self.mul[(g, h)] == identity
                        and self.mul[(h, g)] == identity), None)
            if inv is None:
                raise AxiomViolation("group", (g,), "no inverse")
            self.inverse[g] = inv

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FiniteGroup({', '.join(self.elements)})"


def cyclic_group(n: int) -> FiniteGroup:
    names = ["e"] + [f"g{'^' + str(i) if i > 1 else ''}" for i in range(1, n)]
    mul = {(names[i], names[j]): names[(i + j) % n]
           for i in range(n) for j in range(n)}
    return FiniteGroup(names, mul)


class GroupAction:
    """Left action of a finite group on a finite point set.  The identity is
    checked, and (gh)p = g(hp) for all g, p and each h of ``_generators``:
    the h that pass are closed under the product, as (g(ab))p = ((ga)b)p =
    (ga)(bp) = g(a(bp)) = g((ab)p), so all pass.  Only after a failure is
    every (g, h, p) swept, to name the first."""

    __slots__ = ("group", "points", "act")

    def __init__(self, group: FiniteGroup, points, act: dict):
        self.group = group
        self.points = tuple(points)
        self.act = dict(act)
        pts = set(self.points)
        for g, p in itertools.product(group.elements, self.points):
            if (g, p) not in self.act or self.act[(g, p)] not in pts:
                raise AxiomViolation("action", (g, p), "not a map into the point set")
        for p in self.points:
            if self.act[(group.identity, p)] != p:
                raise AxiomViolation("action", (p,), "identity acts nontrivially")
        act, mul, els = self.act, group.mul, group.elements
        triples = itertools.product(els, _generators(els, mul, group.identity), self.points)
        if any(act[mul[g, h], p] != act[g, act[h, p]] for g, h, p in triples):
            for g, h, p in itertools.product(els, els, self.points):
                if act[mul[g, h], p] != act[g, act[h, p]]:
                    raise AxiomViolation("action", (g, h, p), "not compatible")

    def __call__(self, g, p):
        return self.act[(g, p)]

    def __repr__(self):
        return f"GroupAction({self.group!r} on {len(self.points)} points)"


def trivial_action(group: FiniteGroup, points) -> GroupAction:
    return GroupAction(group, points,
                       {(g, p): p for g in group.elements for p in points})


# --- quotients of semimatroids -----------------------------------------------------------

class QuotientResult(namedtuple("QuotientResult", "scheme orbit_of m_g tutte_action")):
    """Outcome of a finite-group semimatroid quotient: the quotient scheme,
    the orbit map on faces, the orbit-multiplicity table m_G, and the
    group-action Tutte polynomial, which equals the Tutte polynomial of the
    quotient scheme."""

    __slots__ = ()


def quotient_scheme(sm: Semimatroid, action: GroupAction) -> QuotientResult:
    """Quotient of a semimatroid by a translative finite-group action.

    The face orbits, numbered in the order of their least members (by size,
    then by sorted members) and named after them, form a simplicial poset
    with rho(Gx) = rho(x), certified as follows.  Take faces f' and f with
    g·f' a subset of f.  For each a in f', the set {a, g·a} lies in f, so it
    is a face, and the translative check forces g·a = a.  So the orbits of
    the subsets of f are distinct and ordered like those subsets: the
    down-set of G·f is Boolean of rank |f|, and the orbits of the one-vertex
    steps (f - v, f) are its covers, handed over as index pairs in row-major
    order.

    The labels rho(Gf) = r(f), well defined by rank invariance, are
    certified by S1-S5 through representatives; M1 is S1.  Gx <= Gy means
    g·x <= y for some g, so S2 gives M2.  Orbits below a common Gf have
    representatives x, y inside f, and the Boolean down-set of Gf gives
    them the join G(x | y) and the meet G(x & y); so S3 gives M3.  A common
    lower bound Gz with rho(Gz) = rho(Gx) has a representative z inside x
    and inside some h·y; by S2 r(x & h·y) = r(x), so by S4 x | h·y is a
    face above both: M4.  If rho(GX) < rho(GY), S5 gives a y in Y - X with
    X + y a face, and G{y} gives M5: were it below GX, some g·y would lie
    in X, and {y, g·y}, inside X + y, is a face: by translativity g·y = y,
    which is not in X.

    m_G(A) counts the orbits of faces whose atom-orbit set is A, and the
    group-action Tutte polynomial
    sum over A of m_G(A) (x-1)^(rank - rho(A)) (y-1)^(|A| - rho(A))
    equals the Tutte polynomial of the quotient.  Faces over one atom-orbit
    set A of different rank raise ``InvariantBroken``.
    """
    G = action.group
    if set(action.points) != set(sm.vertices):
        raise NotComplexInvariant("action points differ from semimatroid vertices")

    image = {(g, f): frozenset(action(g, v) for v in f)  # g·f, built once
             for g, f in itertools.product(G.elements, sorted(sm.faces, key=sorted))}
    for (g, f), gf in image.items():
        if gf not in sm.faces:
            raise NotComplexInvariant(f"{g}·{set_id(f)} is not a face")
    for (g, f), gf in image.items():
        if sm.rank[gf] != sm.rank[f]:
            raise NotRankInvariant(f"rank changes along {g}·{set_id(f)}")
    for g, a in itertools.product(G.elements, sorted(sm.vertices)):
        ga = action(g, a)
        if frozenset({a, ga}) in sm.faces and ga != a:
            raise NotTranslative(a, g, ga)

    faces = _sorted_faces(sm.faces)
    orbit = {}  # face -> orbit index
    reps = []  # the least face of each orbit
    for f in faces:
        if f not in orbit:
            orbit.update(dict.fromkeys({image[g, f] for g in G.elements}, len(reps)))
            reps.append(f)
    names = [f"G·{set_id(f)}" for f in reps]
    orbit_of = {f: names[k] for f, k in orbit.items()}
    covers = sorted({(orbit[f - {v}], orbit[f]) for f in faces for v in f})
    sp = _certified(names, covers, [len(f) for f in reps], SimplicialPoset)
    scheme = MatroidScheme(sp, tuple(sm.rank[f] for f in reps), _checked=True)

    # m_G and the group-action Tutte polynomial: one pass groups the faces
    # with as many atom orbits as vertices by the positions A of those
    # orbits, and the sets A are read by size, then lexicographically
    atom_orbits = [k for k, f in enumerate(reps) if len(f) == 1]
    at = {k: j for j, k in enumerate(atom_orbits)}
    over: dict[tuple, list] = {}
    for f in faces:
        A = tuple(sorted({at[orbit[frozenset({v})]] for v in f}))
        if len(A) == len(f):
            over.setdefault(A, []).append(f)
    semirank = sm.max_rank()
    m_g = {}
    counts = {}  # (x-1, y-1) exponents -> orbit count
    for A in sorted(over, key=lambda A: (len(A), A)):
        aset = frozenset(names[atom_orbits[j]] for j in A)
        orbits_here = {orbit[f] for f in over[A]}
        ranks = {sm.rank[f] for f in over[A]}
        if len(ranks) != 1:
            raise InvariantBroken(f"rho not constant on central sets over {sorted(aset)}")
        m_g[aset] = len(orbits_here)
        rho_a = ranks.pop()
        key = (semirank - rho_a, len(A) - rho_a)
        counts[key] = counts.get(key, 0) + len(orbits_here)

    return QuotientResult(scheme, orbit_of, m_g, tutte._expand(counts))


# --- Dowling posets ------------------------------------------------------------------------

def _block_id(block: tuple, colors: tuple) -> str:
    return "{" + ",".join(f"{i}:{c}" for i, c in zip(block, colors)) + "}"


def _element_id(beta, z) -> str:
    blocks = "+".join(_block_id(b, c) for b, c in beta)
    zs = ",".join(f"{i}:{t}" for i, t in z)
    return f"[{blocks}|{zs}]"


def _set_partitions(items: tuple):
    """All partitions of a tuple into nonempty blocks (blocks sorted)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + [list(b) for b in part]
        for i in range(len(part)):
            yield [list(b) for b in part[:i]] + [[first] + list(part[i])] + \
                  [list(b) for b in part[i + 1:]]


def dowling_poset(n: int, action: GroupAction, *,
                  atom_cap: int = DEFAULT_ATOM_CAP) -> tuple[GeometricPoset, MatroidScheme]:
    """Certified group-colored partition poset plus its simple scheme."""
    gp = dowling_geometric(n, action, atom_cap=atom_cap)
    return gp, scheme_from_geometric(gp)


def dowling_geometric(n: int, action: GroupAction, *,
                      atom_cap: int = DEFAULT_ATOM_CAP) -> GeometricPoset:
    """The poset of partial group-colored partitions of {1..n} with leftover
    points colored by the action's point set, certified geometric.

    Elements are pairs (beta, z): beta partitions a subset of {1..n} into
    blocks carrying a coloring class over the group; z maps the remaining
    points into the point set.  Rank is n minus the number of blocks.
    Covers: merging two blocks with a group twist, or resolving one block
    through an equivariant map (determined by the image of the identity).
    Each cover removes one block, so the poset is built with that rank
    as given, not derived.  The action is input: for n >= 2, Z4 acting on
    two points through Z4 -> Z2 fails G2, so ``validate_geometric`` runs.
    Elements are numbered once, in (rank, id) order, and each cover's upper
    end is found by its (beta, z) tuple, so an id is written once per
    element; the pairs come sorted by (id, id), as they always have.
    More than ``DOWLING_SIZE_CAP`` elements are refused with
    ``SizeCapExceeded`` as soon as they are met.
    """
    cap = DOWLING_SIZE_CAP
    if n > cap.bit_length():
        # the partitions of {1..n} alone number at least 2^(n-1) > cap;
        # refused before the recursion over them runs n levels deep
        raise SizeCapExceeded(1 << cap.bit_length(), cap, "partition poset",
                              at_least=True)
    G = action.group
    T = action.points
    ground = tuple(range(1, n + 1))

    elements = []  # (beta, z) with beta a tuple of (block tuple, colors tuple)
    for zsize in range(n + 1):
        for zset in itertools.combinations(ground, zsize):
            rest = tuple(i for i in ground if i not in zset)
            for part in _set_partitions(rest):
                blocks = sorted(tuple(sorted(b)) for b in part)
                colorings = [[(G.identity,) + c for c in
                              itertools.product(G.elements, repeat=len(b) - 1)] for b in blocks]
                for colors in itertools.product(*colorings):
                    beta = tuple(zip(blocks, colors))
                    for zcolors in itertools.product(T, repeat=zsize):
                        z = tuple(zip(zset, zcolors))
                        elements.append((beta, z))
                        if len(elements) > cap:
                            raise SizeCapExceeded(len(elements), cap,
                                                  "partition poset", at_least=True)

    ids = {el: _element_id(*el) for el in elements}
    order = sorted(elements, key=lambda el: (n - len(el[0]), ids[el]))
    pos = {el: k for k, el in enumerate(order)}
    pairs = []
    # lower ends in id order, and the upper ends of each, all of one rank,
    # in index order: the pairs come sorted by (id, id)
    for beta, z in sorted(elements, key=ids.__getitem__):
        ups = set()
        # merge two blocks with a twist g: the least member is in the first
        # block, whose identity color keeps the coloring canonical
        for (i, (ba, ca)), (j, (bb, cb)) in itertools.combinations(enumerate(beta), 2):
            rest = beta[:i] + beta[i + 1:j] + beta[j + 1:]
            merged = tuple(sorted(ba + bb))
            for g in G.elements:
                coloring = dict(zip(ba, ca))
                coloring.update({p: G.mul[c, g] for p, c in zip(bb, cb)})
                block = (merged, tuple(map(coloring.__getitem__, merged)))
                ups.add(pos[tuple(sorted(rest + (block,))), z])
        # resolve one block through an equivariant map g -> g·t0
        for i, (blk, colors) in enumerate(beta):
            for t0 in T:
                extra = tuple((p, action(c, t0)) for p, c in zip(blk, colors))
                ups.add(pos[beta[:i] + beta[i + 1:], tuple(sorted(z + extra))])
        here = pos[beta, z]
        pairs += [(here, u) for u in sorted(ups)]

    names = [ids[el] for el in order]
    rp = _certified(names, pairs, [n - len(beta) for beta, _ in order], RankedPoset)
    return validate_geometric(rp, atom_cap)
