"""Matroids, semimatroids, groups, quotients, and partition posets."""

import itertools
import random

import pytest

from mscheme import (
    AxiomViolation,
    FiniteGroup,
    GroupAction,
    MalformedInput,
    Matroid,
    MschemeError,
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
from mscheme.constructions import quotient_subset_identities, set_id

from generators import dowling_inputs


@pytest.fixture(scope="module")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="module")
def semi4():
    return files.load_semimatroid(files.fixture_path("semi4.json"))


@pytest.fixture(scope="module")
def swap4(z2, semi4):
    return files.load_action(files.fixture_path("z2_swap.json"), z2)


def test_uniform_matroids():
    assert str(tutte_direct(scheme_from_matroid(uniform_matroid(1, 2)))) == "x + y"
    assert str(tutte_direct(scheme_from_matroid(uniform_matroid(2, 3)))) == "x^2 + x + y"


def test_uniform_matroid_refuses_rank_outside_ground_size():
    assert scheme_rank(scheme_from_matroid(uniform_matroid(0, 0))) == 0
    for r, n in ((3, 2), (-1, 3)):
        with pytest.raises(MalformedInput):
            uniform_matroid(r, n)


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
    assert all(s.rho[e] == s.size(e) for e in s.elements)
    assert scheme_rank(s) == 2


def test_linear_matroid_dependencies():
    m = linear_matroid([[1, 0, 1], [0, 1, 1]], ["a", "b", "c"])
    assert m.rank[frozenset({"a", "b", "c"})] == 2
    assert m.rank[frozenset({"a", "c"})] == 2
    m2 = linear_matroid([[2, 4]], ["a", "b"])  # parallel columns
    assert m2.rank[frozenset({"a", "b"})] == 1


def test_semimatroid_face_poset(semi4):
    s = scheme_from_semimatroid(semi4)
    assert len(s.elements) == 9
    assert scheme_rank(s) == 2


def test_full_boolean_complex_is_free():
    faces = [frozenset(), frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"})]
    sm = Semimatroid(["1", "2"], faces, {f: len(f) for f in faces})
    s = scheme_from_semimatroid(sm)
    assert all(s.rho[e] == s.size(e) for e in s.elements)


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


def test_action_validation(z2):
    with pytest.raises(AxiomViolation):
        GroupAction(z2, ["p"], {("e", "p"): "p", ("g", "p"): "q"})


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
    sm = files.load_semimatroid(files.fixture_path("semi4c.json"))
    act = files.load_action(files.fixture_path("z2_swap_c.json"), z2)
    res = quotient_scheme(sm, act)
    assert loops(res.scheme) == {"G·{c}"}


def test_non_translative_action_rejected(z2):
    faces = [frozenset(), frozenset({"a1"}), frozenset({"a2"}),
             frozenset({"a1", "a2"})]
    sm = Semimatroid(["a1", "a2"], faces, {f: len(f) for f in faces})
    act = GroupAction(z2, ["a1", "a2"],
                      {("e", "a1"): "a1", ("e", "a2"): "a2",
                       ("g", "a1"): "a2", ("g", "a2"): "a1"})
    with pytest.raises(NotTranslative):
        quotient_scheme(sm, act)


@pytest.fixture(scope="module")
def color_actions(z2):
    triv = files.load_action(files.fixture_path("t2_trivial.json"), z2)
    nontriv = files.load_action(files.fixture_path("t2_nontrivial.json"), z2)
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
        rp = gp.ranked
        p = rp.poset
        for lo, hi in itertools.product(p.elements, p.elements):
            if p.leq(lo, hi):
                assert is_geometric_lattice(rp.interval(lo, hi))


def test_partition_poset_cap():
    z2 = cyclic_group(2)
    act = trivial_action(z2, ["+1", "-1"])
    with pytest.raises(SizeCapExceeded):
        dowling_poset(3, act, size_cap=10)


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
    semi4c = files.load_semimatroid(files.fixture_path("semi4c.json"))
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


def test_rank_sweeps_without_witness_are_errors(monkeypatch, semi4):
    """A one-element step check that fails where the pair sweeps find
    nothing raises an error, not an assertion."""
    import mscheme.constructions
    mat = uniform_matroid(2, 4)
    monkeypatch.setattr(mscheme.constructions, "_rank_steps_hold", lambda table: False)
    for make in (lambda: Matroid(mat.ground, mat.rank),
                 lambda: Semimatroid(semi4.vertices, semi4.faces, semi4.rank)):
        with pytest.raises(MschemeError) as exc:
            make()
        assert not isinstance(exc.value, AxiomViolation)
