"""Sources of valid schemes: classical matroids, semimatroids, finite-group
quotients of semimatroids, and Dowling posets.

Only finite groups acting on finite semimatroids are supported; the
cofiniteness flag of input files is accepted but ignored (it is automatic
for finite data).
"""

from __future__ import annotations

import itertools

from .errors import (
    AxiomViolation,
    InvariantBroken,
    MalformedInput,
    MschemeError,
    NotComplexInvariant,
    NotRankInvariant,
    NotTranslative,
    SizeCapExceeded,
)
from .geometric import (
    DEFAULT_ATOM_CAP,
    GeometricPoset,
    scheme_from_geometric,
    validate_geometric,
)
from .poset import _bits, _certified, build_poset, compute_rank, verify_simplicial
from .scheme import MatroidScheme, circuits, flats, independence, validate_scheme
from .tutte import _expand

SEMIMATROID_VERTEX_CAP = 12
MATROID_SIZE_CAP = 16  # ground set of `construct uniform`/`linear`: 2^n subsets
DOWLING_SIZE_CAP = 10_000


def set_id(members) -> str:
    """Identifier of a finite set: "{a,b}" with sorted members."""
    return "{" + ",".join(sorted(members)) + "}"


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


class Matroid:
    """A ground set with a rank function on all subsets, validated against
    the three rank axioms: bounds (R1), monotonicity (R2) and
    submodularity (R3).

    R2 and R3 are checked on one-element steps, O(n^2 2^n) work.  Only when
    a step fails do the sweeps over all pairs of subsets run, to name the
    first witness."""

    __slots__ = ("ground", "rank")

    def __init__(self, ground, rank: dict):
        self.ground = tuple(ground)
        self.rank = {frozenset(k): v for k, v in rank.items()}
        n = len(self.ground)
        table = [None] * (1 << n)
        for k in range(n + 1):
            for combo in itertools.combinations(range(n), k):
                X = frozenset(self.ground[i] for i in combo)
                if X not in self.rank:
                    raise AxiomViolation("R1", (set_id(X),), "rank undefined")
                if not 0 <= self.rank[X] <= len(X):
                    raise AxiomViolation("R1", (set_id(X),))
                table[sum(1 << i for i in combo)] = self.rank[X]
        if _rank_steps_hold(table):
            return
        subsets = [frozenset(c) for r in range(n + 1)
                   for c in itertools.combinations(self.ground, r)]
        for X, Y in itertools.product(subsets, subsets):
            if X <= Y and self.rank[X] > self.rank[Y]:
                raise AxiomViolation("R2", (set_id(X), set_id(Y)))
        for X, Y in itertools.combinations(subsets, 2):
            if self.rank[X] + self.rank[Y] < self.rank[X | Y] + self.rank[X & Y]:
                raise AxiomViolation("R3", (set_id(X), set_id(Y)))
        raise MschemeError("R2/R3 fail on a one-element step but on no pair of subsets")

    def __repr__(self):
        full = self.rank[frozenset(self.ground)]
        return f"Matroid({len(self.ground)} elements, rank {full})"


def uniform_matroid(r: int, n: int) -> Matroid:
    """U(r, n) on the ground set e1..en; refuses r outside [0, n]."""
    if not 0 <= r <= n:
        raise MalformedInput(f"uniform matroid U({r},{n}) needs 0 <= r <= n")
    ground = [f"e{i}" for i in range(1, n + 1)]
    rank = {}
    for k in range(n + 1):
        for combo in itertools.combinations(ground, k):
            rank[frozenset(combo)] = min(k, r)
    return Matroid(ground, rank)


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    rows_n, cols_n = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols_n):
        pivot_row = next((i for i in range(r, rows_n) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, rows_n):
            for j in range(c + 1, cols_n):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows_n:
            break
    return r


def linear_matroid(matrix: list[list[int]], names=None) -> Matroid:
    """Matroid of the columns of an integer matrix, ranks computed by exact
    fraction-free elimination."""
    cols = list(zip(*matrix)) if matrix else []
    if names is None:
        names = [f"v{i}" for i in range(len(cols))]
    if len(names) != len(cols):
        raise AxiomViolation("R1", tuple(names), "column/name count mismatch")
    vec = dict(zip(names, cols))
    rank = {}
    for k in range(len(names) + 1):
        for combo in itertools.combinations(names, k):
            rank[frozenset(combo)] = _bareiss_rank([list(vec[c]) for c in combo])
    return Matroid(names, rank)


def scheme_from_matroid(mat: Matroid) -> MatroidScheme:
    """The scheme on the Boolean lattice of the ground set with the matroid
    rank labels, certified: the subset X has rank |X| and the singletons
    in X as its atoms, and M1-M5 on a Boolean lattice follow from the rank
    axioms R1-R3 that ``Matroid`` checked (every pair is joinable, with
    union and intersection as join and meet)."""
    ground = mat.ground
    n = len(ground)
    masks = [sum(1 << i for i in c) for r in range(n + 1)
             for c in itertools.combinations(range(n), r)]
    pos = {X: k for k, X in enumerate(masks)}
    subsets = [frozenset(ground[i] for i in _bits(X)) for X in masks]
    ids = [set_id(X) for X in subsets]
    covers = [(k, pos[X | 1 << e]) for k, X in enumerate(masks)
              for e in range(n) if not X >> e & 1]
    # the singleton {e} is element 1 + e
    sp = _certified(ids, covers, [X.bit_count() for X in masks], [X << 1 for X in masks])
    return MatroidScheme(sp, {i: mat.rank[X] for i, X in zip(ids, subsets)}, _checked=True)


# --- semimatroids -----------------------------------------------------------------

class Semimatroid:
    """A finite simplicial complex with a rank function satisfying the five
    semimatroid axioms, checked at construction.

    S2 (monotonicity) and S3 (submodularity where the union is a face) are
    checked on one-element steps between faces.  Only when a step fails do
    the sweeps over all pairs of faces run, to name the first witness."""

    __slots__ = ("vertices", "faces", "rank")

    def __init__(self, vertices, faces, rank: dict):
        self.vertices = tuple(vertices)
        if len(self.vertices) > SEMIMATROID_VERTEX_CAP:
            raise SizeCapExceeded(len(self.vertices), SEMIMATROID_VERTEX_CAP, "vertex set")
        self.faces = frozenset(frozenset(f) for f in faces)
        self.rank = {frozenset(k): v for k, v in rank.items()}
        if frozenset() not in self.faces:
            raise AxiomViolation("S1", ("{}",), "empty face missing")
        faces = sorted(self.faces, key=lambda f: (len(f), sorted(f)))
        for f in faces:
            for v in sorted(f):
                if v not in set(self.vertices):
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
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        table = [None] * (1 << len(self.vertices))
        for X in faces:
            table[sum(bit[v] for v in X)] = self.rank[X]
        if not _rank_steps_hold(table):
            for X, Y in itertools.product(faces, faces):  # S2
                if X <= Y and self.rank[X] > self.rank[Y]:
                    raise AxiomViolation("S2", (set_id(X), set_id(Y)))
            for X, Y in itertools.combinations(faces, 2):  # S3
                if X | Y in self.faces:
                    if self.rank[X] + self.rank[Y] < self.rank[X | Y] + self.rank[X & Y]:
                        raise AxiomViolation("S3", (set_id(X), set_id(Y)))
            raise MschemeError("S2/S3 fail on a one-element step but on no pair of faces")
        for X, Y in itertools.product(faces, faces):  # S4
            if self.rank[X] == self.rank[X & Y] and X | Y not in self.faces:
                raise AxiomViolation("S4", (set_id(X), set_id(Y)))
        for X, Y in itertools.product(faces, faces):  # S5
            if self.rank[X] < self.rank[Y]:
                if not any(X | {y} in self.faces for y in Y - X):
                    raise AxiomViolation("S5", (set_id(X), set_id(Y)))

    def max_rank(self) -> int:
        return max(self.rank.values(), default=0)

    def __repr__(self):
        return f"Semimatroid({len(self.vertices)} vertices, {len(self.faces)} faces)"


def scheme_from_semimatroid(sm: Semimatroid) -> MatroidScheme:
    """The face poset of the complex (a simplicial meet-semilattice) with
    the same rank, validated as a scheme."""
    faces = sorted(sm.faces, key=lambda f: (len(f), sorted(f)))
    ids = {f: set_id(f) for f in faces}
    covers = [(ids[f], ids[g]) for f in faces for g in faces
              if f < g and len(g) == len(f) + 1]
    sp = verify_simplicial(compute_rank(build_poset([ids[f] for f in faces], covers)))
    return validate_scheme(sp, {ids[f]: sm.rank[f] for f in faces})


# --- finite groups and actions --------------------------------------------------------

class FiniteGroup:
    """Multiplication table over named elements; associativity, identity and
    inverses are checked."""

    __slots__ = ("elements", "mul", "identity", "inverse")

    def __init__(self, elements, mul: dict):
        self.elements = tuple(elements)
        self.mul = dict(mul)
        for g, h in itertools.product(self.elements, self.elements):
            if (g, h) not in self.mul or self.mul[(g, h)] not in set(self.elements):
                raise AxiomViolation("group", (g, h), "multiplication not closed")
        for g, h, k in itertools.product(self.elements, repeat=3):
            if self.mul[(self.mul[(g, h)], k)] != self.mul[(g, self.mul[(h, k)])]:
                raise AxiomViolation("group", (g, h, k), "not associative")
        identity = next((e for e in self.elements
                         if all(self.mul[(e, g)] == g and self.mul[(g, e)] == g
                                for g in self.elements)), None)
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
    """Left action of a finite group on a finite point set; identity and
    compatibility are checked."""

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
        for g, h, p in itertools.product(group.elements, group.elements, self.points):
            if self.act[(self.group.mul[(g, h)], p)] != self.act[(g, self.act[(h, p)])]:
                raise AxiomViolation("action", (g, h, p), "not compatible")

    def __call__(self, g, p):
        return self.act[(g, p)]

    def orbit(self, p) -> frozenset:
        return frozenset(self.act[(g, p)] for g in self.group.elements)

    def __repr__(self):
        return f"GroupAction({self.group!r} on {len(self.points)} points)"


def trivial_action(group: FiniteGroup, points) -> GroupAction:
    return GroupAction(group, points,
                       {(g, p): p for g in group.elements for p in points})


# --- quotients of semimatroids -----------------------------------------------------------

class QuotientResult:
    """Outcome of a finite-group semimatroid quotient: the quotient scheme,
    the orbit map on faces, the orbit-multiplicity table m_G, and the
    group-action Tutte polynomial, which equals the Tutte polynomial of the
    quotient scheme."""

    __slots__ = ("scheme", "orbit_of", "m_g", "tutte_action")

    def __init__(self, scheme, orbit_of, m_g, tutte_action):
        self.scheme = scheme
        self.orbit_of = orbit_of
        self.m_g = m_g
        self.tutte_action = tutte_action


def quotient_scheme(sm: Semimatroid, action: GroupAction) -> QuotientResult:
    """Quotient of a semimatroid by a translative finite-group action.

    The face orbits form a simplicial poset with rho(Gx) = rho(x); the
    result is validated as a scheme.  m_G(A) counts the orbits of faces
    whose atom-orbit set is A, and the group-action Tutte polynomial
    sum over A of m_G(A) (x-1)^(rank - rho(A)) (y-1)^(|A| - rho(A))
    equals the Tutte polynomial of the quotient.  Faces over one atom-orbit
    set A of different rank raise ``InvariantBroken``.
    """
    G = action.group
    if set(action.points) != set(sm.vertices):
        raise NotComplexInvariant("action points differ from semimatroid vertices")

    def face_image(g, f):
        return frozenset(action(g, v) for v in f)

    for g, f in itertools.product(G.elements, sorted(sm.faces, key=sorted)):
        if face_image(g, f) not in sm.faces:
            raise NotComplexInvariant(f"{g}·{set_id(f)} is not a face")
    for g, f in itertools.product(G.elements, sorted(sm.faces, key=sorted)):
        if sm.rank[face_image(g, f)] != sm.rank[f]:
            raise NotRankInvariant(f"rank changes along {g}·{set_id(f)}")
    for g, a in itertools.product(G.elements, sorted(sm.vertices)):
        ga = action(g, a)
        if frozenset({a, ga}) in sm.faces and ga != a:
            raise NotTranslative(a, g, ga)

    # orbits, named after their lexicographically least member
    orbit_of = {}
    orbit_members: dict[str, list] = {}
    for f in sorted(sm.faces, key=lambda f: (len(f), sorted(f))):
        if f in orbit_of:
            continue
        members = {face_image(g, f) for g in G.elements}
        least = min(members, key=lambda m: sorted(m))
        name = f"G·{set_id(least)}"
        for mem in members:
            orbit_of[mem] = name
        orbit_members[name] = sorted(members, key=sorted)

    names = list(orbit_members)
    reps = {name: orbit_members[name][0] for name in names}
    rho_g = {name: sm.rank[reps[name]] for name in names}  # rank-invariant, checked above

    # the orbits of the face covers (f - v, f): all faces of an orbit have
    # one size, so an orbit order step of one vertex is a cover
    pos = {name: k for k, name in enumerate(names)}
    covers = sorted({(orbit_of[f - {v}], orbit_of[f]) for f in sm.faces for v in f},
                    key=lambda c: (pos[c[0]], pos[c[1]]))
    sp = verify_simplicial(compute_rank(build_poset(names, covers)))
    scheme = validate_scheme(sp, rho_g)

    # m_G and the group-action Tutte polynomial
    atom_orbits = [nm for nm in names if len(reps[nm]) == 1]
    semirank = sm.max_rank()
    m_g = {}
    counts = {}  # (x-1, y-1) exponents -> orbit count
    for size in range(len(atom_orbits) + 1):
        for A in itertools.combinations(atom_orbits, size):
            aset = frozenset(A)
            matching = [f for f in sm.faces
                        if len(f) == size
                        and {orbit_of[frozenset({v})] for v in f} == aset]
            if not matching:
                continue
            orbits_here = {orbit_of[f] for f in matching}
            ranks = {sm.rank[f] for f in matching}
            if len(ranks) != 1:
                raise InvariantBroken(f"rho not constant on central sets over {sorted(aset)}")
            m_g[aset] = len(orbits_here)
            rho_a = ranks.pop()
            key = (semirank - rho_a, size - rho_a)
            counts[key] = counts.get(key, 0) + len(orbits_here)

    return QuotientResult(scheme, orbit_of, m_g, _expand(counts))


# --- Dowling posets ------------------------------------------------------------------------

def _canonical_coloring(block: tuple, coloring: dict, G: FiniteGroup) -> tuple:
    """Right-multiply a block coloring so the least block member gets the
    identity; the result is the unique class representative."""
    least = min(block)
    shift = G.inverse[coloring[least]]
    return tuple(G.mul[(coloring[i], shift)] for i in block)


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
                  size_cap: int = DOWLING_SIZE_CAP,
                  atom_cap: int = DEFAULT_ATOM_CAP) -> tuple[GeometricPoset, MatroidScheme]:
    """Certified group-colored partition poset plus its simple scheme."""
    gp = dowling_geometric(n, action, size_cap=size_cap, atom_cap=atom_cap)
    return gp, scheme_from_geometric(gp)


def dowling_geometric(n: int, action: GroupAction, *,
                      size_cap: int = DOWLING_SIZE_CAP,
                      atom_cap: int = DEFAULT_ATOM_CAP) -> GeometricPoset:
    """The poset of partial group-colored partitions of {1..n} with leftover
    points colored by the action's point set, certified geometric.

    Elements are pairs (beta, z): beta partitions a subset of {1..n} into
    blocks carrying a coloring class over the group; z maps the remaining
    points into the point set.  Rank is n minus the number of blocks.
    Covers: merging two blocks with a group twist, or resolving one block
    through an equivariant map (determined by the image of the identity).
    Each cover removes one block, so the poset is built with that rank
    as given, not derived; ``validate_geometric`` is its certificate.
    """
    G = action.group
    T = action.points
    ground = tuple(range(1, n + 1))

    elements = []  # (beta, z) with beta a tuple of (block tuple, colors tuple)
    for zsize in range(n + 1):
        for zset in itertools.combinations(ground, zsize):
            rest = tuple(i for i in ground if i not in zset)
            for part in _set_partitions(rest):
                blocks = sorted(tuple(sorted(b)) for b in part)
                colorings = []
                for block in blocks:
                    free = [G.elements] * (len(block) - 1)
                    opts = []
                    for combo in itertools.product(*free):
                        colors = (G.identity,) + combo
                        opts.append(colors)
                    colorings.append(opts)
                for colors in itertools.product(*colorings):
                    beta = tuple(zip(blocks, colors))
                    for zcolors in itertools.product(T, repeat=zsize):
                        z = tuple(zip(zset, zcolors))
                        elements.append((beta, z))
                        if len(elements) > size_cap:
                            raise SizeCapExceeded(len(elements), size_cap,
                                                  "partition poset")

    ids = {}
    for beta, z in elements:
        ids[(beta, z)] = _element_id(beta, z)
    order = sorted(elements, key=lambda el: (n - len(el[0]), ids[el]))

    covers = []
    for beta, z in order:
        here = ids[(beta, z)]
        blocks = list(beta)
        # merge two blocks with a twist
        for (i, (ba, ca)), (j, (bb, cb)) in itertools.combinations(
                enumerate(blocks), 2):
            rest = [blocks[k] for k in range(len(blocks)) if k not in (i, j)]
            for g in G.elements:
                merged_block = tuple(sorted(ba + bb))
                coloring = {p: c for p, c in zip(ba, ca)}
                coloring.update({p: G.mul[(c, g)] for p, c in zip(bb, cb)})
                canon = _canonical_coloring(merged_block, coloring, G)
                new_beta = tuple(sorted(rest + [(merged_block, canon)]))
                covers.append((here, _element_id(new_beta, z)))
        # resolve one block through an equivariant map g -> g·t0
        for i, (blk, colors) in enumerate(blocks):
            rest = [blocks[k] for k in range(len(blocks)) if k != i]
            for t0 in T:
                extra = tuple((p, action(c, t0)) for p, c in zip(blk, colors))
                new_z = tuple(sorted(z + extra))
                covers.append((here, _element_id(tuple(sorted(rest)), new_z)))

    names = [ids[el] for el in order]
    pos = {name: k for k, name in enumerate(names)}
    pairs = [(pos[a], pos[b]) for a, b in sorted(set(covers))]
    rp = _certified(names, pairs, [n - len(beta) for beta, _ in order])
    return validate_geometric(rp, atom_cap)


# --- quotient identity helpers (used by tests) -----------------------------------

def quotient_subset_identities(sm: Semimatroid, action: GroupAction,
                               result: QuotientResult) -> dict:
    """Compute flats/independents/circuits of the quotient both directly and
    as orbit images from the original face-poset scheme; returns both sides
    for each family."""
    base = scheme_from_semimatroid(sm)
    fl_base = {result.orbit_of[_members(f)] for f in flats(base).elements}
    ind_base = {result.orbit_of[_members(f)] for f in independence(base)}
    cir_base = {result.orbit_of[_members(f)] for f in circuits(base)}
    q = result.scheme
    return {
        "flats": (set(flats(q).elements), fl_base),
        "independence": (set(independence(q)), ind_base),
        "circuits": (set(circuits(q)), cir_base),
    }


def _members(face_id: str) -> frozenset:
    inner = face_id.strip("{}")
    return frozenset(x for x in inner.split(",") if x)
