"""Referees shared by the tests: the recursive deletion-contraction on
built sub-schemes that the mask stack of ``tutte._leaf_counts``
replaced, with its pivot rule, a hook that records the mask stack's
nodes, and the scheme variants both are run on; the atom
sets of a simplicial poset, which it no longer stores, and the checks that
its ranks count them and its bottom is its one minimal element; the
toric layer closure with one Hermite form per cut; the depth-first walk
of the pairs of a geometric poset, sorted by size afterwards; a group
table's closure and associativity swept over every pair and triple, and
an action table's compatibility over every (g, h, p); M4
with one union of up-sets per element; the scheme of an independence
family validated against M1-M5 and read back; the Dowling cover loop keyed by element ids; the
minimal upper and maximal lower bound sets by id; the Tutte point checks
T(1,1) = #bases and T(2,2) = #elements; a quotient's flats,
independents and circuits against the orbit images of its base's; and
the rank tables of linear and uniform matroids, one subset at a time;
G2 swept over atom sets of every size; the Hermite and Smith forms
with separate transform rows and a key function for the pivot; the
bitmask transitive reduction, with the flats poset assembled from the
covers it finds; ``build_poset`` on string cover pairs with a
complement mask per cover; and a down-set and the minimal upper bounds
of a set of elements, by id."""

import functools
import itertools
import operator
from fractions import Fraction
from math import gcd

import mscheme.errors
import mscheme.tutte
from mscheme import (
    AxiomViolation,
    CycleDetected,
    DuplicateIdentifier,
    GroupAction,
    InvariantBroken,
    MatroidScheme,
    NonHasseCover,
    Poset,
    QuotientResult,
    Semimatroid,
    SizeCapExceeded,
    UnknownIdentifier,
    bases,
    build_poset,
    circuits,
    closure,
    compute_rank,
    contract,
    flats,
    independence,
    iter_isomorphisms,
    scheme_from_semimatroid,
    tutte_delcon,
    tutte_direct,
    validate_independence,
    validate_scheme,
    verify_simplicial,
)
from mscheme.constructions import _element_id, _set_partitions
from mscheme.poset import (
    LabelView,
    RankedPoset,
    _adjacency,
    _atoms,
    _bits,
    _closed,
    _find_cycle,
    _full,
    _graded,
    _maxima,
    _ranked,
    _topo_order,
    _union,
)
from mscheme.scheme import _joinable, _less_than, _sub_scheme
from mscheme.toric import Layer, _Cut, _completion, ambient_layer, hnf
from mscheme.tutte import _pivot


def atom_sets(sp) -> tuple:
    """Per element index of the simplicial poset sp, the bitmask of the
    atoms below it: its down-set on the rank-1 elements."""
    atoms = sum(1 << i for i, k in enumerate(sp.ranks) if k == 1)
    return tuple(down & atoms for down in sp.poset.below)


def assert_bottom_is_the_minimum(rp, label):
    """The bottom of the ranked poset rp is its one element with nothing
    below it, and the first of its linear extension."""
    p = rp.poset
    minima = [e for e, down in zip(p.elements, p.below) if down.bit_count() == 1]
    assert minima == [rp.bottom] == [p.elements[p.order[0]]], label


def assert_ranks_count_atoms(sp, label):
    """Every rank of the simplicial poset sp is the number of atoms below
    the element, and its bottom is its minimum."""
    ranks = sp.ranks
    assert [s.bit_count() for s in atom_sets(sp)] == list(ranks), label
    assert_bottom_is_the_minimum(sp, label)


def scheme_pivot(m, r: int) -> int:
    """Index of the pivot atom of the built scheme m, whose largest label
    is r: the first atom that is neither loop nor isthmus, else the first
    loop, else the first isthmus (``tutte._pivot`` as it was on
    sub-schemes)."""
    p = m.poset
    rho = m.rhos
    top = sum(1 << k for k, v in enumerate(rho) if v == r)
    # an atom is an isthmus iff every element of the top label lies above it
    loop = isthmus = None
    for a in (k for k, size in enumerate(m.s.ranks) if size == 1):
        if rho[a] == 0:
            if loop is None:
                loop = a
        elif top & ~p.above[a]:
            return a
        elif isthmus is None:
            isthmus = a
    return isthmus if loop is None else loop


def delcon_nodes(monkeypatch, m):
    """``tutte_delcon(m)`` and the nodes of its recursion that need a pivot
    choice, in the order chosen, as ``(mask, x, base, pivot)`` over m's
    indices, recorded through ``tutte._pivot``."""
    nodes = []

    def recording(mask, x, base, *tables):
        pivot = _pivot(mask, x, base, *tables)
        nodes.append((mask, x, base, pivot))
        return pivot

    with monkeypatch.context() as mp:
        mp.setattr(mscheme.tutte, "_pivot", recording)
        return tutte_delcon(m), nodes


def recursive_leaf_counts(m, built=None) -> dict:
    """The leaf counts of the deletion-contraction recursion as it ran on
    Python frames, building every child of two or more elements and
    counting only one-element children from the parent's labels.  Each
    built child is appended to ``built`` as ``(parent, keep, child)``."""
    if len(m.elements) == 1:
        return {(0, 0): 1}
    counts = {}
    _delcon(m, counts, 0, 0, [] if built is None else built)
    return counts


def _delcon(m, counts, i, j, built):
    rho = m.rhos
    r = max(rho)
    pivot = scheme_pivot(m, r)
    up = m.poset.above[pivot]
    down = _full(m.poset) & ~up
    if down & (down - 1):
        m_d = _sub_scheme(m, down)
        built.append((m, down, m_d))
        _delcon(m_d, counts, i + r - max(m_d.rhos), j, built)
    else:  # the deletion leaf {e}
        key = (i + r - rho[down.bit_length() - 1], j)
        counts[key] = counts.get(key, 0) + 1
    i, j = i + r - rho[pivot], j + 1 - rho[pivot]
    if up & (up - 1):
        m_c = _sub_scheme(m, up, rho[pivot])
        built.append((m, up, m_c))
        _delcon(m_c, counts, i - max(m_c.rhos), j, built)
    else:  # the contraction leaf {pivot}
        counts[i, j] = counts.get((i, j), 0) + 1


def left_class(nonpos):
    """The contractions of the two-top fixture that violate the axioms."""
    out = []
    for a in nonpos.atoms():
        minor = contract(nonpos, a)
        try:
            validate_scheme(minor.s, minor.rho)
        except AxiomViolation:
            out.append((f"nonpos/{a}", minor))
    assert out
    return out


def shuffled(corpus, rng):
    """The corpus schemes with their elements declared in a seeded random
    order, so that no minimum need come first."""
    out = []
    for name, m in corpus.schemes():
        order = list(m.elements)
        rng.shuffle(order)
        sp = verify_simplicial(compute_rank(build_poset(order, m.poset.covers)))
        out.append((f"{name} shuffled", validate_scheme(sp, m.rho)))
    return out


def hermite_cut(basis, inverse, alpha):
    """``toric._cut`` as it was for every layer rank: the cut by alpha of a
    layer with this basis and completion, or None when alpha lies in the
    lattice, with H and T from one Hermite form of [B; beta], beta =
    (alpha - c[:r]*B)/g."""
    r = len(basis)
    c = [sum(a * w for a, w in zip(alpha, col)) for col in inverse]
    g = gcd(*c[r:])
    if not g:
        return None
    head = c[:r]
    beta = [(a - sum(h * row[i] for h, row in zip(head, basis))) // g
            for i, a in enumerate(alpha)]
    h, t = hnf([list(row) for row in basis] + [beta])
    return _Cut(tuple(tuple(row) for row in h), t, head, g)


def closure_reference(arr, met=None):
    """``toric._closure`` as it was with one Hermite form per cut and every
    layer cut, points too, without the caps: the layers in the order met,
    the steps and the atom layer ids.  The phase half is ``toric._Cut``'s,
    which ``test_cut_matches_rational_reference`` referees.  ``met`` counts
    the distinct cuts by the rank r of the layer cut: "r = 0", "r + 1 = n",
    "hermite" (1 <= r <= n - 2) and "point" (r = n, None), and the cuts
    with g > 1."""
    n = arr.n
    start = ambient_layer(n)
    layers = {(start.basis, ()): start}
    steps = set()
    completions = {}
    cuts = {}
    hypersurfaces = [(c.alpha, (c.phase.numerator, c.phase.denominator))
                     for c in arr.characters]
    frontier = [((1, ()), start)]
    while frontier:
        new = []
        for (q, nums), layer in frontier:
            basis = layer.basis
            for alpha, t in hypersurfaces:
                key = (basis, alpha)
                if key not in cuts:
                    if basis not in completions:
                        completions[basis] = _completion(n, basis)
                    cuts[key] = cut = hermite_cut(basis, completions[basis], alpha)
                    if met is not None:
                        r = len(basis)
                        kind = ("point" if r == n else "r = 0" if r == 0
                                else "r + 1 = n" if r + 1 == n else "hermite")
                        met[kind] = met.get(kind, 0) + 1
                        if cut is not None and cut.g > 1:
                            met["g > 1"] = met.get("g > 1", 0) + 1
                cut = cuts[key]
                if cut is None:
                    continue
                for cut_phases in cut.pieces(q, nums, t):
                    piece = layers.get((cut.sat, cut_phases))
                    if piece is None:
                        den, tops = cut_phases
                        piece = Layer(n, cut.sat, tuple(Fraction(x, den) for x in tops))
                        layers[cut.sat, cut_phases] = piece
                        new.append((cut_phases, piece))
                    steps.add((layer.layer_id, piece.layer_id))
        frontier = new
    atom_of = {}
    for c, (alpha, t) in zip(arr.characters, hypersurfaces):
        cut = cuts[((), alpha)]
        (phases,) = cut.pieces(1, (), t)
        atom_of[c.canonical_key()] = layers[cut.sat, phases].layer_id
    return list(layers.values()), steps, atom_of


def depth_first_walk(p: Poset, atoms: int, bottom: int) -> tuple[list, list, list]:
    """``geometric._walk`` as it was, depth first: the pairs (I, x), met
    in lexicographic order of I and then sorted by |I| within each x, the
    index cover pairs and the closure map."""
    below = p.below
    steps = []
    grow = []
    for x, ups in enumerate(p.covers_up):
        own = below[x] & atoms
        moves = [(x, 1 << a) for a in _bits(own)]
        moves += [(y, 1 << a) for y in ups for a in _bits(below[y] & atoms & ~own)]
        moves.sort()
        steps.append(moves)
        grow.append(sorted(((bit, y) for y, bit in moves), reverse=True))

    found = [[] for _ in below]
    stack = [(0, bottom)]
    met, cap = 0, mscheme.errors.ELEMENT_CAP
    while stack:
        I, x = stack.pop()
        found[x].append(I)
        met += 1
        if met > cap:
            raise SizeCapExceeded(met, cap, "simple scheme", at_least=True)
        for bit, y in grow[x]:
            if bit <= I:
                break
            stack.append((I | bit, y))

    pairs, closure = [], []
    pos = []
    for x, sets in enumerate(found):
        sets.sort(key=int.bit_count)
        pos.append({I: len(pairs) + k for k, I in enumerate(sets)})
        pairs += [(I, x) for I in sets]
        closure += [len(pairs) - 1] * len(sets)
    covers = [(k, pos[y][I | bit])
              for k, (I, x) in enumerate(pairs)
              for y, bit in steps[x] if not I & bit]
    return pairs, covers, closure


def group_table_verdict(elements, mul) -> tuple | None:
    """The first closure or associativity failure of a multiplication
    table, as ``FiniteGroup`` names it, by the sweep it made over every
    pair and then every triple: (witness, detail), or None when the table
    is closed and associative."""
    members = set(elements)
    for g, h in itertools.product(elements, elements):
        if (g, h) not in mul or mul[(g, h)] not in members:
            return (g, h), "multiplication not closed"
    for g, h, k in itertools.product(elements, repeat=3):
        if mul[(mul[(g, h)], k)] != mul[(g, mul[(h, k)])]:
            return (g, h, k), "not associative"
    return None


def action_table_verdict(group, points, act) -> tuple | None:
    """The first failure of an action table, as ``GroupAction`` names it,
    by the sweeps it made over every (g, p), every p, and then every
    (g, h, p): (witness, detail), or None when the table is an action."""
    pts = set(points)
    for g, p in itertools.product(group.elements, points):
        if (g, p) not in act or act[(g, p)] not in pts:
            return (g, p), "not a map into the point set"
    for p in points:
        if act[(group.identity, p)] != p:
            return (p,), "identity acts nontrivially"
    for g, h, p in itertools.product(group.elements, group.elements, points):
        if act[(group.mul[(g, h)], p)] != act[(g, act[(h, p)])]:
            return (g, h, p), "not compatible"
    return None


def m4_union_witness(sp, rho):
    """M4 as ``validate_scheme`` checked it with one ``_union`` per element:
    the first (x, y, l) with y outside x's joinable set and above some l <=
    x with rho(l) = rho(x), l a maximal common lower bound, or None when M4
    holds.  ``rho`` is id-keyed; the caller has seen M1-M3 hold."""
    p = sp.poset
    els, above, below = p.elements, p.above, p.below
    r = tuple(map(rho.get, els))
    lt = _less_than(r)
    joinable = _joinable(p)
    for i, x in enumerate(els):
        same = below[i] & lt[r[i] + 1] & ~lt[r[i]]
        bad = _union(above, same) & ~joinable[i]
        if bad:
            j = next(_bits(bad))
            meet = p.maximal_of_mask(below[i] & below[j]) & same
            return x, els[j], els[next(_bits(meet))]
    return None


def m4_verdict_agrees(sp, rho) -> bool | None:
    """Assert that ``validate_scheme``'s verdict on the id-keyed labels
    ``rho`` is the one ``m4_union_witness`` gives: ("M4", its witness)
    where M4 fails, and no M4 where it holds.  Returns whether M4 failed,
    or None when M1-M3, checked first, decided the verdict."""
    try:
        validate_scheme(sp, rho)
        got = None
    except AxiomViolation as exc:
        got = exc.axiom, exc.witness
    if got is not None and got[0] in ("M1", "M2", "M3"):
        return None
    want = m4_union_witness(sp, rho)
    if want is None:
        assert got is None or got[0] == "M5", got
    else:
        assert got == ("M4", want), (got, want)
    return want is not None


def scheme_from_independence_validated(sp, ind) -> MatroidScheme:
    """``scheme_from_independence`` as it was before I1-I4 certified it:
    the same sweep, then M1-M5 validated on the result and its
    independence family compared with the input (``InvariantBroken``
    when they differ)."""
    ind = tuple(ind)
    validate_independence(sp, ind)
    ind = frozenset(ind)
    p = sp.poset
    r = list(sp.ranks)
    for x in p.order:
        if p.elements[x] not in ind:
            r[x] = max(r[c] for c in p.covers_dn[x])
    m = validate_scheme(sp, LabelView(p.index, r))
    if independence(m) != ind:
        raise InvariantBroken("independence poset mismatch")
    return m


def dowling_by_ids(n, action):
    """The element ids and index cover pairs of ``dowling_geometric(n,
    action)`` as its loops found them by id: the elements enumerated, every
    cover candidate's upper end written as an id, the id pairs
    deduplicated and sorted, then mapped to indices of the (rank, id)
    order, with each merged coloring made canonical by the inverse of its
    least member's color."""
    G, T = action.group, action.points
    ground = tuple(range(1, n + 1))
    elements = []
    for zsize in range(n + 1):
        for zset in itertools.combinations(ground, zsize):
            rest = tuple(i for i in ground if i not in zset)
            for part in _set_partitions(rest):
                blocks = sorted(tuple(sorted(b)) for b in part)
                colorings = []
                for block in blocks:
                    free = [G.elements] * (len(block) - 1)
                    colorings.append([(G.identity,) + combo
                                      for combo in itertools.product(*free)])
                for colors in itertools.product(*colorings):
                    beta = tuple(zip(blocks, colors))
                    for zcolors in itertools.product(T, repeat=zsize):
                        elements.append((beta, tuple(zip(zset, zcolors))))
    ids = {el: _element_id(*el) for el in elements}
    order = sorted(elements, key=lambda el: (n - len(el[0]), ids[el]))
    covers = []
    for beta, z in order:
        here = ids[(beta, z)]
        blocks = list(beta)
        for (i, (ba, ca)), (j, (bb, cb)) in itertools.combinations(enumerate(blocks), 2):
            rest = [blocks[k] for k in range(len(blocks)) if k not in (i, j)]
            for g in G.elements:
                merged_block = tuple(sorted(ba + bb))
                coloring = {p: c for p, c in zip(ba, ca)}
                coloring.update({p: G.mul[(c, g)] for p, c in zip(bb, cb)})
                shift = G.inverse[coloring[min(merged_block)]]
                canon = tuple(G.mul[(coloring[q], shift)] for q in merged_block)
                new_beta = tuple(sorted(rest + [(merged_block, canon)]))
                covers.append((here, _element_id(new_beta, z)))
        for i, (blk, colors) in enumerate(blocks):
            rest = [blocks[k] for k in range(len(blocks)) if k != i]
            for t0 in T:
                extra = tuple((p, action(c, t0)) for p, c in zip(blk, colors))
                new_z = tuple(sorted(z + extra))
                covers.append((here, _element_id(tuple(sorted(rest)), new_z)))
    names = [ids[el] for el in order]
    pos = {name: k for k, name in enumerate(names)}
    return names, [(pos[a], pos[b]) for a, b in sorted(set(covers))]


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination,
    as ``constructions.linear_matroid`` took it for each subset."""
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


def linear_rank_table(matrix) -> list:
    """Per subset bitmask X of the columns of an integer matrix, the
    Bareiss rank of the columns in X, each subset eliminated afresh."""
    cols = list(zip(*matrix)) if matrix else []
    return [bareiss_rank([list(cols[i]) for i in _bits(X)]) for X in range(1 << len(cols))]


def uniform_rank_table(r: int, n: int) -> list:
    """Per subset bitmask X of n elements, min(|X|, r)."""
    return [min(len(list(_bits(X))), r) for X in range(1 << n)]


def build_poset_by_ids(elements, covers) -> Poset:
    """``build_poset`` as it was: the covers copied as tuples and kept as a
    set of id pairs for the duplicate check, mapped to indices in a second
    pass, and each cover tested for the Hasse condition against the
    complement of its two endpoints."""
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

    pairs = [(index[a], index[b]) for a, b in covers]
    covers_up, covers_dn = _adjacency(len(elements), pairs)
    order = _topo_order(len(elements), covers_up)
    if order is None:
        raise CycleDetected(_find_cycle(elements, covers_up))
    p = _closed(Poset, elements, index, pairs, order, covers_up, covers_dn)
    for (a, b), (i, j) in zip(covers, pairs):
        if p.above[i] & p.below[j] & ~(1 << i | 1 << j):
            raise NonHasseCover((a, b))
    return p


def down_set(p: Poset, e) -> tuple:
    """The ids of the elements below e, e included, in declaration order."""
    return p._ids(p.below[p.idx(e)])


def join_mask(p: Poset, T) -> int:
    """Bitmask of the minimal upper bounds of the element set T."""
    common = _full(p)
    for t in T:
        common &= p.above[p.idx(t)]
    return p.minimal_of_mask(common)


def upper_bound_minima(p: Poset, T) -> frozenset:
    """Minimal upper bounds of T; the whole poset's minima when T is empty."""
    return frozenset(p._ids(join_mask(p, T)))


def lower_bound_maxima(p: Poset, T) -> frozenset:
    """Maximal lower bounds of T; the whole poset's maxima when T is empty."""
    common = _full(p)
    for t in T:
        common &= p.below[p.idx(t)]
    return frozenset(p._ids(p.maximal_of_mask(common)))


def tutte_point_checks(m: MatroidScheme) -> tuple[int, int]:
    """(T(1,1), T(2,2)), checked equal to the basis count and the element
    count respectively (``InvariantBroken`` otherwise)."""
    t = tutte_direct(m)
    at_11 = t(1, 1)
    at_22 = t(2, 2)
    if at_11 != len(bases(m)):
        raise InvariantBroken(f"T(1,1)={at_11} != |B|={len(bases(m))}")
    if at_22 != len(m.elements):
        raise InvariantBroken(f"T(2,2)={at_22} != |S|={len(m.elements)}")
    return at_11, at_22


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


def g2_every_size(rp):
    """The first G2 witness (x, atom set, y) of the ranked poset rp, whose
    G1 holds, or None: for each x, the sets of atoms below x or sharing no
    upper bound with it, of every size from rank(x) + 1 to the top rank,
    smallest first, as ``validate_geometric`` swept them before one size
    was shown to decide."""
    p = rp.poset
    els = p.elements
    r = rp.ranks
    joinable = _joinable(p)
    atoms = _atoms(r)
    top_rank = max((r[i] for i in _maxima(p)), default=0)
    for i, x in enumerate(els):
        bad = list(_bits(atoms & (p.below[i] | ~joinable[i])))
        for size in range(r[i] + 1, min(top_rank, len(bad)) + 1):
            for A in itertools.combinations(bad, size):
                common = functools.reduce(operator.and_, (p.above[a] for a in A))
                for y in _bits(p.minimal_of_mask(common)):
                    if r[y] == size:
                        return x, frozenset(els[a] for a in A), els[y]
    return None


def hnf_reference(matrix: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """``toric.hnf`` with U kept apart from M and the pivot row found by a
    key function: (H, U) with U*M = H."""
    m = [list(r) for r in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        while True:
            nz = [i for i in range(r, rows) if m[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(m[i][c]))
            m[r], m[piv] = m[piv], m[r]
            u[r], u[piv] = u[piv], u[r]
            if m[r][c] < 0:
                m[r] = [-v for v in m[r]]
                u[r] = [-v for v in u[r]]
            done = True
            for i in range(r + 1, rows):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                if m[i][c] != 0:
                    done = False
            if done:
                break
        if any(m[i][c] != 0 for i in range(r, rows)):
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
            if r == rows:
                break
    return m, u


def snf_reference(matrix: list[list[int]]):
    """``toric.snf`` with U kept apart from M, row and column operations as
    helpers and the pivot found by a key function: (D, U, V) with
    D = U*M*V."""
    m = [list(r) for r in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        nz = [(i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j] != 0]
        if not nz:
            break
        i0, j0 = min(nz, key=lambda ij: abs(m[ij[0]][ij[1]]))
        swap_rows(t, i0)
        swap_cols(t, j0)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        dirty = False
        for i in range(t + 1, rows):
            q = m[i][t] // m[t][t]
            if q:
                add_row(t, i, -q)
            if m[i][t] != 0:
                dirty = True
        for j in range(t + 1, cols):
            q = m[t][j] // m[t][t]
            if q:
                add_col(t, j, -q)
            if m[t][j] != 0:
                dirty = True
        if dirty:
            continue
        bad = next(((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols)
                    if m[i][j] % m[t][t] != 0), None)
        if bad is not None:
            add_row(bad[0], t, 1)
            continue
        t += 1
    return m, u, v


def transitive_reduction(up) -> list:
    """Cover pairs (i, j) of a strict order given by its strict up-set
    bitmasks ``up``, in row-major order: j covers i iff j is in up[i] and in
    no up[k] with k in up[i] (Aho, Garey and Ullman, 1972)."""
    return [(i, j) for i, mask in enumerate(up) for j in _bits(mask & ~_union(up, mask))]


def flats_by_reduction(m: MatroidScheme):
    """The flats poset of m assembled from id covers: the transitive
    reduction of the strict up-sets of the closed elements."""
    p = m.poset
    els = p.elements
    keep = sum(1 << i for i, e in enumerate(els) if closure(m, e) == e)
    up = [p.above[i] & keep & ~(1 << i) if keep >> i & 1 else 0 for i in range(len(els))]
    sub = build_poset(p._ids(keep), [(els[i], els[j]) for i, j in transitive_reduction(up)])
    ranks = _graded(sub)
    assert ranks == tuple(m.rho[e] for e in sub.elements), "rho is not the flats' rank"
    return _ranked(sub, ranks, RankedPoset)


def assert_flats_match_the_reduction(m: MatroidScheme, label):
    """``flats(m)`` has the elements, the cover pairs in the same row-major
    order, the cover lists, reachability, ranks and bottom of
    ``flats_by_reduction(m)``."""
    got, want = flats(m), flats_by_reduction(m)
    p, q = got.poset, want.poset
    assert p.elements == q.elements, label
    assert p.pairs == q.pairs, label
    assert p.covers == q.covers, label
    assert p.covers_up == q.covers_up, label
    assert p.covers_dn == q.covers_dn, label
    assert p.above == q.above, label
    assert p.below == q.below, label
    assert list(got.rank.items()) == list(want.rank.items()), label
    assert got.bottom == want.bottom, label


def lift_by_atom_joins(m1: MatroidScheme, m2: MatroidScheme) -> dict | None:
    """``geometric.check_uniqueness`` as it was, on ids, for two simple
    schemes: for each flats isomorphism phi, psi(x) is the one minimal
    upper bound of the images of x's atoms below phi(cl(x)); the first psi
    that is a rho- and cover-preserving bijection, or None."""
    p1, p2 = m1.poset, m2.poset
    for phi in iter_isomorphisms(flats(m1), flats(m2)):
        psi = {}
        for x in m1.elements:
            images = [phi[a] for a in m1.atoms() if p1.leq(a, x)]
            cl_img = phi[closure(m1, x)]
            candidates = [v for v in p2._ids(join_mask(p2, images)) if p2.leq(v, cl_img)]
            if len(candidates) != 1:
                break
            psi[x] = candidates[0]
        else:
            if (sorted(psi.values(), key=p2.idx) == list(m2.elements)
                    and all(m1.rho[x] == m2.rho[psi[x]] for x in m1.elements)
                    and {(psi[a], psi[b]) for a, b in p1.covers} == set(p2.covers)):
                return psi
    return None
