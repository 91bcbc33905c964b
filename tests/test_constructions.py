"""Matroids, semimatroids, groups, quotients, and partition posets."""

import itertools
import math
import random

import pytest

from mscheme import (
    AxiomViolation,
    DuplicateIdentifier,
    FiniteGroup,
    GroupAction,
    InvariantBroken,
    MalformedInput,
    Matroid,
    NotTranslative,
    Semimatroid,
    SizeCapExceeded,
    build_poset,
    compute_rank,
    cyclic_group,
    dowling_geometric,
    dowling_poset,
    is_geometric_lattice,
    linear_matroid,
    loops,
    quotient_scheme,
    scheme_from_matroid,
    scheme_from_semimatroid,
    scheme_isomorphism,
    scheme_rank,
    trivial_action,
    tutte_direct,
    uniform_matroid,
    validate_scheme,
)
from mscheme import files
from mscheme.constructions import _rank_steps_hold, set_id
from mscheme.tutte import _expand

from generators import dowling_inputs, translative_complexes
from referees import (action_table_verdict, dowling_by_ids, down_set, group_table_verdict,
                      linear_rank_table, quotient_subset_identities, uniform_rank_table)


@pytest.fixture(scope="module")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="module")
def semi4():
    return files.load_semimatroid(files.resolve_input("semi4.json"))


@pytest.fixture(scope="module")
def swap4(z2, semi4):
    return files.load_action(files.resolve_input("z2_swap.json"), z2)


def test_uniform_matroids():
    assert str(tutte_direct(scheme_from_matroid(uniform_matroid(1, 2)))) == "x + y"
    assert str(tutte_direct(scheme_from_matroid(uniform_matroid(2, 3)))) == "x^2 + x + y"


def test_uniform_matroid_refuses_rank_outside_ground_size():
    assert scheme_rank(scheme_from_matroid(uniform_matroid(0, 0))) == 0
    for r, n in ((3, 2), (-1, 3)):
        with pytest.raises(MalformedInput):
            uniform_matroid(r, n)


def test_matroid_constructors_cap_the_ground_set(monkeypatch):
    """``uniform_matroid`` and ``linear_matroid`` tabulate all 2^n subsets
    of the ground set, so an n whose 2^n passes ``errors.ELEMENT_CAP``
    is refused before any subset is listed; the cap is read at call time."""
    import types

    import mscheme.constructions
    import mscheme.geometric

    def combinations(*args):
        raise AssertionError("a subset was listed past the cap")

    with monkeypatch.context() as mp:
        mp.setattr(mscheme.constructions, "itertools", types.SimpleNamespace(
            **{**vars(itertools), "combinations": combinations}))
        for build in (lambda: uniform_matroid(1, 17), lambda: linear_matroid([[1] * 17])):
            with pytest.raises(SizeCapExceeded) as err:
                build()
            assert str(err.value) == "ground set size 17 exceeds the configured cap 16"
    monkeypatch.setattr(mscheme.errors, "ELEMENT_CAP", 15)
    assert len(uniform_matroid(1, 3).rank) == 8
    for build in (lambda: uniform_matroid(1, 4), lambda: linear_matroid([[1] * 4])):
        with pytest.raises(SizeCapExceeded) as err:
            build()
        assert (err.value.count, err.value.cap) == (4, 3)


def test_matroid_axiom_violations():
    with pytest.raises(AxiomViolation) as exc:
        Matroid(["a"], {frozenset(): 0, frozenset({"a"}): 2})
    assert exc.value.axiom == "R1"
    with pytest.raises(AxiomViolation) as exc:
        Matroid(["a", "b"], {frozenset(): 0, frozenset({"a"}): 1,
                             frozenset({"b"}): 1, frozenset({"a", "b"}): 0})
    assert exc.value.axiom == "R2"


def test_linear_matroid_identity_is_free():
    m = linear_matroid([[1, 0], [0, 1]])
    s = scheme_from_matroid(m)
    assert all(s.rho[e] == s.s.rank[e] for e in s.elements)
    assert scheme_rank(s) == 2


def test_linear_matroid_dependencies():
    m = linear_matroid([[1, 0, 1], [0, 1, 1]], ["a", "b", "c"])
    assert m.rank[frozenset({"a", "b", "c"})] == 2
    assert m.rank[frozenset({"a", "c"})] == 2
    m2 = linear_matroid([[2, 4]], ["a", "b"])  # parallel columns
    assert m2.rank[frozenset({"a", "b"})] == 1


def _seeded_matrices(rng, count):
    """Integer matrices of 1 to 4 rows and 0 to 9 columns, entries in
    [-3, 3]; about one in three gets a zero column and a column that is a
    multiple of another."""
    out = []
    for k in range(count):
        n, rows = k % 10, 1 + k % 4
        cols = [[rng.randint(-3, 3) for _ in range(rows)] for _ in range(n)]
        if n >= 3 and k % 3 == 0:
            i, j, z = rng.sample(range(n), 3)
            cols[j] = [rng.choice((-2, -1, 2)) * x for x in cols[i]]
            cols[z] = [0] * rows
        out.append([list(row) for row in zip(*cols)] if n else [[] for _ in range(rows)])
    return out


def _rank_axioms_hold(table: list) -> bool:
    """R1 on every entry of a rank table by subset mask, and R2, R3 on its
    one-element steps."""
    return (all(0 <= v <= X.bit_count() for X, v in enumerate(table))
            and _rank_steps_hold(table))


def test_rank_tables_match_the_referees():
    """A linear matroid's rank table, filled along one walk over subset
    masks, is the Bareiss rank of each subset's columns eliminated afresh,
    zero and parallel columns included; a uniform matroid's is
    min(|X|, r).  Both constructors skip R1-R3 as certified, and every
    table they build satisfies them."""
    rng = random.Random(20261020)
    zero = parallel = 0
    for matrix in _seeded_matrices(rng, 160):
        table = linear_matroid(matrix).rank_table
        assert table == tuple(linear_rank_table(matrix)), matrix
        assert _rank_axioms_hold(table), matrix
        n = len(matrix[0])
        singles = [k for k in range(n) if table[1 << k]]
        zero += len(singles) < n
        parallel += any(table[1 << i | 1 << j] == 1
                        for i, j in itertools.combinations(singles, 2))
    assert zero >= 40 and parallel >= 40, (zero, parallel)
    for n in range(10):
        for r in range(n + 1):
            table = uniform_matroid(r, n).rank_table
            assert table == tuple(uniform_rank_table(r, n)) and _rank_axioms_hold(table), (r, n)


def test_matroid_from_a_rank_dict_names_the_same_witnesses():
    """``Matroid(ground, dict)`` reads the dict into its table and names
    the first R1 (a subset missing, a rank past its size), R2 or R3
    witness, by size and then in ground order, as it did on the dict."""
    F = frozenset
    cases = [
        (["a", "b"], {F(): 0, F("a"): 1, F("ab"): 1},
         "R1 fails on witness ('{b}',): rank undefined"),
        (["a", "b"], {F(): 0, F("a"): 1, F("b"): 2, F("ab"): 1},
         "R1 fails on witness ('{b}',)"),
        (["b", "a"], {F(): 0, F("a"): 1, F("b"): 1, F("ab"): 3},
         "R1 fails on witness ('{a,b}',)"),
        (["a", "b"], {F(): 0, F("a"): 1, F("b"): 1, F("ab"): 0},
         "R2 fails on witness ('{a}', '{a,b}')"),
        (["a", "b"], {F(): 0, F("a"): 0, F("b"): 0, F("ab"): 1},
         "R3 fails on witness ('{a}', '{b}')"),
        (["c", "b", "a"], {F(""): 0, F("a"): 1, F("b"): 1, F("c"): 1, F("ab"): 1, F("ac"): 1,
                           F("bc"): 1, F("abc"): 2}, "R3 fails on witness ('{b,c}', '{a,c}')"),
    ]
    for ground, rank, message in cases:
        with pytest.raises(AxiomViolation) as exc:
            Matroid(ground, rank)
        assert str(exc.value) == message


def test_rank_reads_back_as_a_frozenset_mapping():
    """``rank`` is keyed by frozensets of names, one entry per subset by
    size and then in ground order, read-only, and a matroid rebuilt from
    it has the same table.  A table given as a list must have 2^n
    entries."""
    for mat in (uniform_matroid(2, 4), linear_matroid([[1, 0, 2], [0, 1, 0]], ["z", "y", "x"])):
        n = len(mat.ground)
        assert len(mat.rank) == 2 ** n
        assert list(mat.rank) == [frozenset(c) for r in range(n + 1)
                                  for c in itertools.combinations(mat.ground, r)]
        for X in range(1 << n):
            names = frozenset(e for i, e in enumerate(mat.ground) if X >> i & 1)
            assert mat.rank[names] == mat.rank_table[X]
        assert Matroid(mat.ground, mat.rank).rank_table == mat.rank_table
        with pytest.raises(TypeError):
            mat.rank[frozenset()] = 1
    assert Matroid(["a", "b"], [0, 1, 1, 2]).rank[frozenset("ab")] == 2
    with pytest.raises(MalformedInput, match="a rank table of 3 entries for 2 names"):
        Matroid(["a", "b"], [0, 1, 1])


def test_a_certified_rank_table_cannot_be_edited():
    """``scheme_from_matroid`` reads a matroid's table without checking
    it again, so the table is a tuple: an edit raises ``TypeError`` rather
    than give a scheme whose rho breaks M1.  A table given as a list or a
    tuple is stored as a tuple."""
    mat = uniform_matroid(1, 2)
    with pytest.raises(TypeError):
        mat.rank_table[3] = 5
    assert scheme_from_matroid(mat).rhos == (0, 1, 1, 1)
    for table in ([0, 1, 1, 1], (0, 1, 1, 1)):
        assert Matroid(mat.ground, table).rank_table == mat.rank_table


def test_a_certified_semimatroid_rank_cannot_be_edited(semi4, swap4):
    """``scheme_from_semimatroid`` and ``quotient_scheme`` read a
    semimatroid's ranks without checking them again, so ``rank`` is
    read-only: an edit raises ``TypeError`` rather than give a scheme whose
    rho breaks M1."""
    v = semi4.vertices[0]
    with pytest.raises(TypeError):
        semi4.rank[frozenset({v})] = 5
    assert semi4.rank[frozenset({v})] <= 1
    m = scheme_from_semimatroid(semi4)
    assert validate_scheme(m.s, m.rho) == m
    q = quotient_scheme(semi4, swap4).scheme
    assert validate_scheme(q.s, q.rho) == q


def test_repeated_ground_names_are_refused():
    """A matroid, a linear matroid or a semimatroid whose names repeat is
    refused as ``build_poset`` refuses a repeated id, not read as having
    two elements."""
    with pytest.raises(DuplicateIdentifier):
        Matroid(["a", "a"], {frozenset(): 0, frozenset({"a"}): 1})
    with pytest.raises(DuplicateIdentifier):
        linear_matroid([[1, 0], [0, 1]], ["a", "a"])
    faces = [frozenset(), frozenset({"v"})]
    with pytest.raises(DuplicateIdentifier):
        Semimatroid(["v", "v"], faces, {f: len(f) for f in faces})


def test_scheme_from_matroid_ids_and_ranks_from_the_definition():
    """Every element of ``scheme_from_matroid`` is ``set_id`` of the names
    of the atoms below it, labelled with ``mat.rank`` of that set, and the
    elements come by size, then in order of ground index.  U(2,10) names
    e10 before e2 by string but after it by index; the linear matroid's
    names are not in sorted order."""
    for mat in (uniform_matroid(2, 10), uniform_matroid(3, 5),
                linear_matroid([[1, 0, 1], [0, 1, 1]], ["b", "a", "c"]),
                linear_matroid([[1, 2, 0, 1], [0, 0, 1, 1]], ["z", "y", "x", "w"])):
        m = scheme_from_matroid(mat)
        assert m.elements == tuple(set_id(c) for r in range(len(mat.ground) + 1)
                                   for c in itertools.combinations(mat.ground, r))
        for x in m.elements:
            members = [a[1:-1] for a in down_set(m.poset, x) if m.s.rank[a] == 1]
            assert x == set_id(members), x
            assert m.rho[x] == mat.rank[frozenset(members)], x
        assert validate_scheme(m.s, m.rho) == m


def _dowling_actions():
    """(label, action) over Z1-Z3: trivial on one to three points, and
    over Z2 the swap of two points with and without a fixed third, and
    over Z3 the rotation of three points."""
    out = []
    for k in (1, 2, 3):
        group = cyclic_group(k)
        for p in (1, 2, 3):
            out.append((f"Z{k} trivial{p}", trivial_action(group, [f"p{i}" for i in range(p)])))
    e, g = cyclic_group(2).elements
    swap = {(e, "p0"): "p0", (e, "p1"): "p1", (g, "p0"): "p1", (g, "p1"): "p0"}
    out.append(("Z2 swap2", GroupAction(cyclic_group(2), ["p0", "p1"], swap)))
    out.append(("Z2 swap2fix1", GroupAction(cyclic_group(2), ["p0", "p1", "p2"],
                                            {**swap, (e, "p2"): "p2", (g, "p2"): "p2"})))
    z3, pts = cyclic_group(3), ["p0", "p1", "p2"]
    out.append(("Z3 rot3", GroupAction(z3, pts, {(z3.elements[i], pts[j]): pts[(i + j) % 3]
                                                for i in range(3) for j in range(3)})))
    return out


def test_dowling_covers_match_the_id_keyed_loop():
    """``dowling_geometric`` finds each cover by its element tuple; its
    elements and index cover pairs, in order, are those of the loop that
    wrote every cover's upper end as an id and sorted the id pairs."""
    for label, act in _dowling_actions():
        for n in range(4):
            gp = dowling_geometric(n, act)
            names, pairs = dowling_by_ids(n, act)
            assert gp.elements == tuple(names), (label, n)
            assert gp.poset.pairs == tuple(pairs), (label, n)


def test_semimatroid_face_poset(semi4):
    s = scheme_from_semimatroid(semi4)
    assert len(s.elements) == 9
    assert scheme_rank(s) == 2


def test_full_boolean_complex_is_free():
    faces = [frozenset(), frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"})]
    sm = Semimatroid(["1", "2"], faces, {f: len(f) for f in faces})
    s = scheme_from_semimatroid(sm)
    assert all(s.rho[e] == s.s.rank[e] for e in s.elements)


def test_semimatroid_s5_violation():
    """Two facets of different rank with no exchange vertex."""
    faces = [frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"c"}),
             frozenset({"b", "c"})]
    rank = {f: len(f) for f in faces}
    with pytest.raises(AxiomViolation) as exc:
        Semimatroid(["a", "b", "c"], faces, rank)
    assert exc.value.axiom == "S5"
    x, y = exc.value.witness
    # re-verify the witness by brute force
    fx = next(f for f in faces if "{" + ",".join(sorted(f)) + "}" == x)
    fy = next(f for f in faces if "{" + ",".join(sorted(f)) + "}" == y)
    assert rank[fx] < rank[fy]
    assert all(fx | {v} not in faces for v in fy - fx)


def test_semimatroid_s4_violation():
    faces = [frozenset(), frozenset({"a"}), frozenset({"b"})]
    rank = {frozenset(): 0, frozenset({"a"}): 0, frozenset({"b"}): 1}
    with pytest.raises(AxiomViolation) as exc:
        Semimatroid(["a", "b"], faces, rank)
    assert exc.value.axiom == "S4"


def test_semimatroid_vertex_cap():
    verts = [f"v{i}" for i in range(13)]
    with pytest.raises(SizeCapExceeded):
        Semimatroid(verts, [frozenset()], {frozenset(): 0})


def test_group_validation():
    with pytest.raises(AxiomViolation):
        FiniteGroup(["e", "g"], {("e", "e"): "e", ("e", "g"): "g",
                                 ("g", "e"): "g", ("g", "g"): "g"})


def _seeded_group_tables(rng):
    """(label, elements, table) for seeded multiplication tables: cyclic
    groups, products of cyclic groups and permutation groups with their
    elements relabelled and shuffled; the same tables with one entry
    changed, one entry dropped or one entry sent outside; random tables
    on two to four elements; and the constant and left-zero tables, which
    are associative with no identity."""
    def permutations(gens):
        group, todo = set(gens), list(gens)
        while todo:
            a = todo.pop()
            for b in list(group):
                for c in (tuple(a[i] for i in b), tuple(b[i] for i in a)):
                    if c not in group:
                        group.add(c)
                        todo.append(c)
        return sorted(group), lambda a, b: tuple(a[i] for i in b)

    bases = []
    for n in range(1, 13):
        bases.append((f"Z{n}", list(range(n)), lambda a, b, n=n: (a + b) % n))
    for m, k in ((2, 2), (2, 3), (3, 3), (2, 4)):
        els = list(itertools.product(range(m), range(k)))
        bases.append((f"Z{m}xZ{k}", els,
                      lambda a, b, m=m, k=k: ((a[0] + b[0]) % m, (a[1] + b[1]) % k)))
    for label, gens in (("S3", [(1, 0, 2), (1, 2, 0)]), ("D4", [(1, 2, 3, 0), (3, 2, 1, 0)]),
                        ("S4", [(1, 0, 2, 3), (1, 2, 3, 0)])):
        bases.append((label, *permutations(gens)))
    out = []
    for label, els, op in bases:
        names = {x: f"g{k}" for k, x in enumerate(rng.sample(els, len(els)))}
        elements = [names[x] for x in rng.sample(els, len(els))]
        table = {(names[a], names[b]): names[op(a, b)] for a in els for b in els}
        out.append((label, elements, table))
        for kind in ("changed", "dropped", "outside"):
            bad = dict(table)
            key = rng.choice(sorted(bad))
            if kind == "changed":
                bad[key] = rng.choice([e for e in elements if e != bad[key]] or elements)
            elif kind == "dropped":
                del bad[key]
            else:
                bad[key] = "stranger"
            out.append((f"{label} {kind}", elements, bad))
    for k in range(120):
        elements = [f"r{i}" for i in range(2 + k % 3)]
        table = {(a, b): rng.choice(elements) for a in elements for b in elements}
        out.append((f"random {k}", elements, table))
    for n in (1, 3, 5):
        elements = [f"c{i}" for i in range(n)]
        out.append((f"constant {n}", elements, {(a, b): elements[-1]
                                                for a in elements for b in elements}))
        out.append((f"left zero {n}", elements, {(a, b): a for a in elements for b in elements}))
    return out


def test_group_tables_match_the_triple_sweep():
    """``FiniteGroup`` refuses a table that is not closed or not
    associative with the verdict and first witness of the sweep over
    every pair and triple (``referees.group_table_verdict``), though it
    tests associativity on generators only, and refuses a closed,
    associative table only for its identity or inverses: on seeded
    groups, their one-entry corruptions, random tables and tables with no
    identity."""
    rng = random.Random(20261122)
    seen = {"not closed": 0, "not associative": 0, "group": 0, "no identity": 0}
    for label, elements, table in _seeded_group_tables(rng):
        verdict = group_table_verdict(elements, table)
        if verdict is None:
            try:
                FiniteGroup(elements, table)
                seen["group"] += 1
            except AxiomViolation as exc:
                assert str(exc).endswith(("no identity element", "no inverse")), label
                seen["no identity"] += str(exc).endswith("no identity element")
            continue
        with pytest.raises(AxiomViolation) as exc:
            FiniteGroup(elements, table)
        witness, detail = verdict
        assert exc.value.witness == witness and str(exc.value).endswith(detail), label
        seen[detail.replace("multiplication ", "")] += 1
    assert min(seen.values()) >= 10 and seen["not associative"] >= 100, seen


def test_light_test_decides_every_table_on_three_elements():
    """Light's test, given the table's identity where it has one, gives
    the triple sweep's associativity verdict on all 3^9 multiplication
    tables on three elements: 113 are associative, the labelled
    semigroups of order three."""
    from mscheme.constructions import _associative
    elements = ["a", "b", "c"]
    associative = 0
    for values in itertools.product(elements, repeat=9):
        table = dict(zip(itertools.product(elements, elements), values))
        identity = next((e for e in elements
                         if all(table[e, g] == g == table[g, e] for g in elements)), None)
        verdict = group_table_verdict(elements, table) is None
        assert _associative(elements, table, identity) == verdict, table
        associative += verdict
    assert associative == 113


class _CountingTable(dict):
    """A multiplication table that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_light_test_reads_n_squared_products_per_generator():
    """Light's test reads at most 4 n^2 products per generator, plus the
    closure that picks them, and a group's generators, the identity left
    out, number at most log2(n): each one at least doubles the subgroup
    the ones before it give.  A sweep of every triple reads 4 n^3."""
    from mscheme.constructions import _associative
    rng = random.Random(20261123)
    groups = [FiniteGroup(elements, table)
              for label, elements, table in _seeded_group_tables(rng) if " " not in label]
    groups += [cyclic_group(n) for n in (50, 150)]
    assert len(groups) == 21
    for group in groups:
        n = len(group)
        table = _CountingTable(group.mul)
        assert _associative(group.elements, table, group.identity)
        assert table.reads <= (4 * n * n + 2 * n) * math.log2(n), (group, table.reads)


def test_action_validation(z2):
    with pytest.raises(AxiomViolation):
        GroupAction(z2, ["p"], {("e", "p"): "p", ("g", "p"): "q"})


def test_action_tables_match_the_triple_sweep():
    """``GroupAction`` checks compatibility on generators only, yet gives
    the verdict and first witness of the sweep over every (g, h, p)
    (``referees.action_table_verdict``): on every table of Z2, Z3 and
    Z2 x Z2 on one to three points (two for Z2 x Z2) whose identity row
    is the identity, and on seeded tables with any rows, one entry
    dropped or one entry sent outside the point set."""
    v4 = FiniteGroup(["e", "a", "b", "c"],
                     {(x, y): "eabc"["eabc".index(x) ^ "eabc".index(y)]
                      for x in "eabc" for y in "eabc"})
    cases = []
    for group, most in ((cyclic_group(2), 3), (cyclic_group(3), 3), (v4, 2)):
        for k in range(1, most + 1):
            pts = [f"p{j}" for j in range(k)]
            rest = group.elements[1:]
            for images in itertools.product(pts, repeat=len(rest) * k):
                act = {(group.identity, p): p for p in pts}
                act.update(zip(itertools.product(rest, pts), images))
                cases.append((group, pts, act))
    rng = random.Random(20261124)
    for _ in range(300):
        group = rng.choice((cyclic_group(2), cyclic_group(3), v4))
        pts = [f"p{j}" for j in range(rng.randint(1, 3))]
        act = {(g, p): rng.choice(pts) for g in group.elements for p in pts}
        kind = rng.randrange(3)
        if kind:
            key = rng.choice(sorted(act))
            if kind == 1:
                del act[key]
            else:
                act[key] = "outside"
        cases.append((group, pts, act))
    seen = {}
    for group, pts, act in cases:
        verdict = action_table_verdict(group, pts, act)
        if verdict is None:
            GroupAction(group, pts, act)
            seen["action"] = seen.get("action", 0) + 1
            continue
        with pytest.raises(AxiomViolation) as exc:
            GroupAction(group, pts, act)
        witness, detail = verdict
        assert exc.value.witness == witness and str(exc.value).endswith(detail), act
        seen[detail] = seen.get(detail, 0) + 1
    assert len(seen) == 4 and min(seen.values()) >= 40 and seen["not compatible"] >= 800, seen


def _z4_on_two_points():
    """Z4 acting on two points through Z4 -> Z2: g and g^3 swap them."""
    z4 = cyclic_group(4)
    return GroupAction(z4, ["p0", "p1"], {(g, p): ["p0", "p1"][(k + j) % 2]
                                          for k, g in enumerate(z4.elements)
                                          for j, p in enumerate(["p0", "p1"])})


def test_dowling_of_a_non_faithful_action_fails_g2():
    """The action is input, so ``dowling_geometric`` keeps its
    ``validate_geometric``: with Z4 acting on two points through Z4 -> Z2
    the poset is geometric for n = 1 and fails G2 for n = 2 and 3.  The
    witness's atom set is written with sorted members."""
    act = _z4_on_two_points()
    assert len(dowling_geometric(1, act).elements) == 3
    for n, x, atoms, y in (
            (2, "[{1:e,2:e}|]", ("[{1:e,2:g^3}|]", "[{1:e,2:g}|]"), "[|1:p0,2:p1]"),
            (3, "[{1:e,2:e}+{3:e}|]", ("[{1:e,2:g^3}+{3:e}|]", "[{1:e,2:g}+{3:e}|]"),
             "[{3:e}|1:p0,2:p1]")):
        with pytest.raises(AxiomViolation) as exc:
            dowling_geometric(n, act)
        assert exc.value.witness == (x, frozenset(atoms), y), n
        written = f"frozenset({{{', '.join(map(repr, atoms))}}})"
        assert str(exc.value) == f"G2 fails on witness ({x!r}, {written}, {y!r})", n


def test_quotient_two_isthmus(semi4, swap4, isth):
    res = quotient_scheme(semi4, swap4)
    assert scheme_isomorphism(res.scheme, isth) is not None
    key = frozenset({"G·{a1}", "G·{b1}"})
    assert res.m_g[key] == 2
    assert str(res.tutte_action) == "x^2 + 1"
    assert tutte_direct(res.scheme) == res.tutte_action


def test_quotient_subset_identities(semi4, swap4):
    res = quotient_scheme(semi4, swap4)
    for name, (lhs, rhs) in quotient_subset_identities(semi4, swap4, res).items():
        assert lhs == rhs, name


def test_trivial_quotient_equals_face_poset(semi4, z2):
    res = quotient_scheme(semi4, trivial_action(z2, semi4.vertices))
    base = scheme_from_semimatroid(semi4)
    assert scheme_isomorphism(res.scheme, base) is not None
    assert tutte_direct(res.scheme) == tutte_direct(base)


def test_quotient_orbit_counting(semi4, swap4):
    res = quotient_scheme(semi4, swap4)
    # |C/G| * |G| >= |C|, equality iff the action is free
    assert len(res.scheme.elements) * 2 >= len(semi4.faces)


def test_quotient_with_fixed_loop(z2):
    sm = files.load_semimatroid(files.resolve_input("semi4c.json"))
    act = files.load_action(files.resolve_input("z2_swap_c.json"), z2)
    res = quotient_scheme(sm, act)
    assert loops(res.scheme) == {"G·{c}"}


def test_quotient_maps_each_face_once(z2, monkeypatch):
    """``quotient_scheme`` applies each group element to each vertex of
    each face once, for one table of face images that the complex check,
    the rank check and the orbit sweep all read, and once more to each
    vertex for the translative check."""
    sm = files.load_semimatroid(files.resolve_input("semi4c.json"))
    act = files.load_action(files.resolve_input("z2_swap_c.json"), z2)
    calls = []
    apply = GroupAction.__call__
    monkeypatch.setattr(GroupAction, "__call__",
                        lambda self, g, p: calls.append(g) or apply(self, g, p))
    quotient_scheme(sm, act)
    assert len(calls) == len(z2.elements) * (sum(map(len, sm.faces)) + len(sm.vertices))


def test_non_translative_action_rejected(z2):
    faces = [frozenset(), frozenset({"a1"}), frozenset({"a2"}),
             frozenset({"a1", "a2"})]
    sm = Semimatroid(["a1", "a2"], faces, {f: len(f) for f in faces})
    act = GroupAction(z2, ["a1", "a2"],
                      {("e", "a1"): "a1", ("e", "a2"): "a2",
                       ("g", "a1"): "a2", ("g", "a2"): "a1"})
    with pytest.raises(NotTranslative):
        quotient_scheme(sm, act)


def _m_g_by_subsets(sm, action):
    """``quotient_scheme``'s m_G and group-action Tutte polynomial as they
    were computed: the face orbits named after their least member, then
    every subset A of the atom orbits, by size, each with a scan of all
    faces for those with one vertex in each orbit of A."""
    orbit_of, reps = {}, {}
    for f in sorted(sm.faces, key=lambda f: (len(f), sorted(f))):
        if f not in orbit_of:
            members = {frozenset(action(g, v) for v in f) for g in action.group.elements}
            least = min(members, key=sorted)
            orbit_of.update(dict.fromkeys(members, f"G·{set_id(least)}"))
            reps[f"G·{set_id(least)}"] = least
    atom_orbits = [nm for nm, rep in reps.items() if len(rep) == 1]
    m_g, counts = {}, {}
    for size in range(len(atom_orbits) + 1):
        for A in itertools.combinations(atom_orbits, size):
            aset = frozenset(A)
            matching = [f for f in sm.faces
                        if len(f) == size and {orbit_of[frozenset({v})] for v in f} == aset]
            if not matching:
                continue
            orbits_here = {orbit_of[f] for f in matching}
            ranks = {sm.rank[f] for f in matching}
            if len(ranks) != 1:
                raise InvariantBroken(f"rho not constant on central sets over {sorted(aset)}")
            m_g[aset] = len(orbits_here)
            rho_a = ranks.pop()
            key = (sm.max_rank() - rho_a, size - rho_a)
            counts[key] = counts.get(key, 0) + len(orbits_here)
    return orbit_of, m_g, _expand(counts)


def test_m_g_matches_the_subset_sweep(z2):
    """One pass that groups the faces by their atom orbits gives the m_G
    items in the order, the group-action Tutte polynomial and the first
    ``InvariantBroken`` witness of the sweep over every subset of the atom
    orbits: on the shipped semimatroids under their swap and the trivial
    action, and on seeded translative complexes, as given and with the
    ranks of one face orbit raised (built past the S1-S5 checks, which the
    quotient's certified scheme relies on, so that the sweep meets the
    fault)."""
    cases = []
    for semi, swap in (("semi4", "z2_swap"), ("semi4c", "z2_swap_c")):
        sm = files.load_semimatroid(files.resolve_input(f"{semi}.json"))
        cases += [(sm, files.load_action(files.resolve_input(f"{swap}.json"), z2)),
                  (sm, trivial_action(z2, sm.vertices))]
    rng = random.Random(20261019)
    cases += translative_complexes(rng, 40)
    checked = broken = 0
    for sm, act in cases:
        res = quotient_scheme(sm, act)
        orbit_of, m_g, tutte = _m_g_by_subsets(sm, act)
        assert res.orbit_of == orbit_of
        assert list(res.m_g.items()) == list(m_g.items()), sm
        assert res.tutte_action == tutte == tutte_direct(res.scheme), sm
        checked += 1
        # raise the ranks of one orbit of faces: faces over the same atom
        # orbits then disagree where another orbit of faces lies over them
        target = rng.choice(sorted(set(orbit_of.values())))
        rank = {f: k + (orbit_of[f] == target) for f, k in sm.rank.items()}
        bad = Semimatroid.__new__(Semimatroid)
        bad.vertices, bad.faces, bad.rank = sm.vertices, sm.faces, rank
        try:
            want = _m_g_by_subsets(bad, act)[1:]
        except InvariantBroken as exc:
            with pytest.raises(InvariantBroken) as got:
                quotient_scheme(bad, act)
            assert str(got.value) == str(exc)
            broken += 1
            continue
        res = quotient_scheme(bad, act)
        assert (list(res.m_g.items()), res.tutte_action) == (list(want[0].items()), want[1])
    assert checked == 44 and broken >= 5, (checked, broken)


@pytest.fixture(scope="module")
def color_actions(z2):
    triv = files.load_action(files.resolve_input("t2_trivial.json"), z2)
    nontriv = files.load_action(files.resolve_input("t2_nontrivial.json"), z2)
    return triv, nontriv


def test_partition_poset_rank_two(color_actions, dow_triv, dow_nontriv):
    triv, nontriv = color_actions
    gp, scheme = dowling_poset(2, triv)
    assert len(gp.elements) == 1 + 6 + 4
    assert scheme == dow_triv
    gp2, scheme2 = dowling_poset(2, nontriv)
    assert len(gp2.elements) == 11
    assert scheme2 == dow_nontriv


def test_partition_poset_atom_census(color_actions):
    triv, _ = color_actions
    for n in (1, 2, 3):
        gp = dowling_geometric(n, triv)
        expected = n * 2 + n * (n - 1) // 2 * 2
        assert len(gp.atoms()) == expected


def test_partition_poset_rank_one(color_actions):
    triv, _ = color_actions
    gp, scheme = dowling_poset(1, triv)
    assert len(gp.elements) == 3  # bottom plus one atom per color
    assert scheme_rank(scheme) == 1
    assert len(scheme.elements) == 3


def test_partition_poset_rank_is_n_minus_block_count():
    """The rank derived from the covers, which the construction gives as
    n minus the number of blocks without deriving it."""
    for label, n, act in dowling_inputs():
        gp = dowling_geometric(n, act)
        derived = compute_rank(build_poset(gp.elements, gp.poset.covers)).rank
        for x in gp.elements:
            blocks = x.split("|")[0].count("{")  # "[{block}+{block}|points]"
            assert derived[x] == n - blocks, (label, x)


def test_partition_poset_closed_intervals_are_geometric_lattices(color_actions):
    for act in color_actions:
        gp, _ = dowling_poset(2, act)
        rp = gp
        p = rp.poset
        for lo, hi in itertools.product(p.elements, p.elements):
            if p.leq(lo, hi):
                assert is_geometric_lattice(rp.interval(lo, hi))


def test_partition_poset_cap(monkeypatch):
    import mscheme.constructions
    z2 = cyclic_group(2)
    act = trivial_action(z2, ["+1", "-1"])
    monkeypatch.setattr(mscheme.constructions, "DOWLING_SIZE_CAP", 10)
    with pytest.raises(SizeCapExceeded):
        dowling_poset(3, act)


def test_construction_outputs_revalidate(color_actions, semi4, swap4):
    triv, nontriv = color_actions
    outputs = [
        scheme_from_matroid(uniform_matroid(2, 3)),
        scheme_from_semimatroid(semi4),
        quotient_scheme(semi4, swap4).scheme,
        dowling_poset(2, nontriv)[1],
    ]
    for m in outputs:
        assert validate_scheme(m.s, m.rho) is not None


# --- witness referee: the rank axioms against their global definitions -------

def first_matroid_violation(ground, rank):
    """(axiom, witness) of the first R1-R3 failure over all pairs of
    subsets, or None; transcribed from the definitions."""
    subsets = [frozenset(c) for r in range(len(ground) + 1)
               for c in itertools.combinations(ground, r)]
    for X in subsets:
        if not 0 <= rank[X] <= len(X):
            return "R1", (set_id(X),)
    for X, Y in itertools.product(subsets, subsets):
        if X <= Y and rank[X] > rank[Y]:
            return "R2", (set_id(X), set_id(Y))
    for X, Y in itertools.combinations(subsets, 2):
        if rank[X] + rank[Y] < rank[X | Y] + rank[X & Y]:
            return "R3", (set_id(X), set_id(Y))
    return None


def first_semimatroid_violation(faces, rank):
    """(axiom, witness) of the first rank-axiom failure S1-S5 over all
    pairs of faces, or None; transcribed from the definitions."""
    faces = sorted(faces, key=lambda f: (len(f), sorted(f)))
    face_set = set(faces)
    for X in faces:
        if not 0 <= rank[X] <= len(X):
            return "S1", (set_id(X),)
    for X, Y in itertools.product(faces, faces):
        if X <= Y and rank[X] > rank[Y]:
            return "S2", (set_id(X), set_id(Y))
    for X, Y in itertools.combinations(faces, 2):
        if X | Y in face_set and rank[X] + rank[Y] < rank[X | Y] + rank[X & Y]:
            return "S3", (set_id(X), set_id(Y))
    for X, Y in itertools.product(faces, faces):
        if rank[X] == rank[X & Y] and X | Y not in face_set:
            return "S4", (set_id(X), set_id(Y))
    for X, Y in itertools.product(faces, faces):
        if rank[X] < rank[Y] and not any(X | {y} in face_set for y in Y - X):
            return "S5", (set_id(X), set_id(Y))
    return None


def _raised(cls, *args):
    try:
        cls(*args)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


def _nudged(rng, rank, times):
    """rank with ``times`` seeded entries moved by +-1."""
    out = dict(rank)
    for key in rng.sample(sorted(out, key=sorted), times):
        out[key] += rng.choice((-1, 1))
    return out


def test_matroid_corruptions_match_definition_witnesses():
    """Seeded +-1 corruptions of one or two rank-table entries of U(r, n)
    and of linear matroids, n <= 6: Matroid raises the first (axiom,
    witness) of the global definitions."""
    rng = random.Random(20240816)
    mats = [uniform_matroid(r, n) for n in range(1, 7) for r in range(n + 1)]
    for n in range(2, 7):
        for rows in (2, 3):
            mats.append(linear_matroid(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows)]))
    seen = set()
    for mat in mats:
        for times in (0, 1, 1, 1, 2, 2):
            rank = _nudged(rng, mat.rank, times)
            expected = first_matroid_violation(mat.ground, rank)
            assert _raised(Matroid, mat.ground, rank) == expected, (mat, rank)
            seen.add(expected and expected[0])
    assert {None, "R1", "R2", "R3"} <= seen, seen


def test_semimatroid_corruptions_match_definition_witnesses(semi4):
    """Every +-1 corruption of one face's rank in semi4 and semi4c, and
    seeded ones of two faces: Semimatroid raises the first (axiom, witness)
    of the global definitions."""
    rng = random.Random(20240817)
    seen = set()
    semi4c = files.load_semimatroid(files.resolve_input("semi4c.json"))
    for sm in (semi4, semi4c):
        faces = sorted(sm.faces, key=sorted)
        corruptions = [sm.rank] + [_nudged(rng, sm.rank, 2) for _ in range(20)]
        for f, d in itertools.product(faces, (-1, 1)):
            corruptions.append({**sm.rank, f: sm.rank[f] + d})
        for rank in corruptions:
            expected = first_semimatroid_violation(sm.faces, rank)
            assert _raised(Semimatroid, sm.vertices, sm.faces, rank) == expected, rank
            seen.add(expected and expected[0])
    assert {None, "S1", "S2", "S3"} <= seen, seen


def _seeded_complexes():
    """400 seeded (vertices, faces, rank): complexes that are not full (the
    down-closures of a few random faces, every vertex a face) on up to 5
    vertices, declared in a shuffled order and ranked by a linear matroid,
    whose zero and parallel columns give loops and parallel vertices; as
    given and with one or two ranks moved by +-1."""
    rng = random.Random(20261020)
    for _ in range(400):
        n = rng.randint(1, 5)
        mat = linear_matroid([[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
                              for _ in range(rng.randint(1, 3))])
        faces = {frozenset(c) for _ in range(rng.randint(1, 3))
                 for top in [rng.sample(mat.ground, rng.randint(1, n))]
                 for r in range(len(top) + 1) for c in itertools.combinations(top, r)}
        faces |= {frozenset({v}) for v in mat.ground}
        rank = _nudged(rng, {f: mat.rank[f] for f in faces}, rng.choice((0, 0, 1, 2)))
        yield rng.sample(mat.ground, n), faces, rank


def test_semimatroid_axioms_match_definition_witnesses():
    """On ``_seeded_complexes``, Semimatroid raises the first (axiom,
    witness) of the global definitions, and each of S1-S5 and "valid" is
    met."""
    seen = {}
    for vertices, faces, rank in _seeded_complexes():
        expected = first_semimatroid_violation(faces, rank)
        assert _raised(Semimatroid, vertices, faces, rank) == expected, rank
        axiom = expected and expected[0]
        seen[axiom] = seen.get(axiom, 0) + 1
    assert set(seen) == {None, "S1", "S2", "S3", "S4", "S5"}, seen


def test_semimatroid_schemes_pass_m1_m5_wherever_accepted():
    """``scheme_from_semimatroid`` hands its labels over unchecked, certified
    by S1-S5: wherever ``Semimatroid`` accepts, on ``_seeded_complexes``
    and the shipped semimatroids, the scheme equals the one
    ``validate_scheme`` returns on its poset and labels."""
    cases = [(sm.vertices, sm.faces, sm.rank)
             for sm in map(files.load_semimatroid,
                           map(files.resolve_input, ("semi4.json", "semi4c.json")))]
    accepted = 0
    for vertices, faces, rank in cases + list(_seeded_complexes()):
        try:
            sm = Semimatroid(vertices, faces, rank)
        except AxiomViolation:
            continue
        m = scheme_from_semimatroid(sm)
        assert validate_scheme(m.s, m.rho) == m, rank
        accepted += 1
    assert accepted >= 100, accepted


def test_semimatroid_keeps_the_ranks_of_its_faces_only(semi4, swap4):
    """A rank given for a set off the complex is dropped, as ``Matroid``
    reads only subsets of its ground set: it reaches neither ``max_rank``
    nor the group-action Tutte polynomial."""
    top = frozenset({"a1", "a2", "b1", "b2"})
    sm = Semimatroid(semi4.vertices, semi4.faces, {**semi4.rank, top: 7})
    assert sm.rank == semi4.rank and sm.max_rank() == 2
    res = quotient_scheme(sm, swap4)
    assert str(res.tutte_action) == "x^2 + 1"
    assert tutte_direct(res.scheme) == res.tutte_action


def test_rank_sweeps_without_witness_are_errors(monkeypatch, semi4):
    """A one-element step check that fails where the pair sweeps find
    nothing raises ``InvariantBroken``, not an assertion or a verdict."""
    import mscheme.constructions
    mat = uniform_matroid(2, 4)
    monkeypatch.setattr(mscheme.constructions, "_rank_steps_hold", lambda table: False)
    for make in (lambda: Matroid(mat.ground, mat.rank),
                 lambda: Semimatroid(semi4.vertices, semi4.faces, semi4.rank)):
        with pytest.raises(InvariantBroken, match="on a one-element step but on no pair"):
            make()
