"""Certified construction against the validating path.

The constructions build their posets with ``poset._certified`` from the
ranks they already know, with no Hasse check, rank sweep or simplicial
pass.  The referee is ``build_poset`` -> ``compute_rank`` ->
``verify_simplicial`` on the same ids and covers (for semimatroid face
posets and quotient orbit posets, on ids and covers found as they were
before the constructions certified them): the two must agree on
the elements, the covers, the reachability masks, the cover lists, the
rank, the atom sets and the bottom.  Matroid, semimatroid and quotient
schemes, which run no ``validate_scheme``, are validated here.
"""

import itertools
import random

import pytest

from mscheme import (
    DuplicateIdentifier,
    Semimatroid,
    build_poset,
    compute_rank,
    cyclic_group,
    dowling_geometric,
    files,
    layers_poset,
    linear_matroid,
    quotient_scheme,
    scheme_from_geometric,
    scheme_from_matroid,
    scheme_from_semimatroid,
    trivial_action,
    uniform_matroid,
    validate_geometric,
    validate_scheme,
    verify_simplicial,
)
from mscheme.constructions import set_id
from mscheme.geometric import GeometricPoset, pair_id
from mscheme.poset import RankedPoset, SimplicialPoset, _certified

from generators import _random_arrangement, dowling_inputs, translative_complexes
from referees import atom_sets


def _validated(ids, covers, simplicial=True):
    rp = compute_rank(build_poset(ids, covers))
    return verify_simplicial(rp) if simplicial else rp


def _assert_same(got, want, name):
    """Two RankedPosets, or two SimplicialPosets, hold the same data."""
    if isinstance(want, SimplicialPoset):
        assert isinstance(got, SimplicialPoset), name
        assert atom_sets(got) == atom_sets(want), name
    p, q = got.poset, want.poset
    assert p.elements == q.elements, name
    assert p.covers == q.covers, name
    assert p.pairs == q.pairs, name
    assert p.above == q.above, name
    assert p.below == q.below, name
    assert p.covers_up == q.covers_up, name
    assert p.covers_dn == q.covers_dn, name
    assert got.rank == want.rank, name
    assert got.bottom == want.bottom, name


def _check_scheme(m, name):
    _assert_same(m.s, _validated(m.elements, m.poset.covers), name)


def _matroids():
    """U(r, n) for n <= 5 and seeded integer matrices with 2 or 3 rows."""
    rng = random.Random(20240817)
    mats = [(f"U({r},{n})", uniform_matroid(r, n)) for n in range(6) for r in range(n + 1)]
    for n in range(1, 7):
        for rows in (2, 3):
            matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows)]
            mats.append((f"linear {matrix}", linear_matroid(matrix)))
    return mats


def test_certified_matches_validating_path_on_the_same_data(corpus):
    """``_certified`` given the ids, index covers and ranks of a validated
    poset rebuilds it exactly: every corpus scheme, minors and fixtures
    included."""
    for name, m in corpus.schemes():
        want = _validated(m.elements, m.poset.covers)
        rank = [want.rank[e] for e in want.elements]
        got = _certified(list(want.elements), want.poset.pairs, rank, SimplicialPoset)
        _assert_same(got, want, name)
        _assert_same(_certified(list(want.elements), want.poset.pairs, rank, RankedPoset),
                     _validated(m.elements, m.poset.covers, False), name)


def test_certified_refuses_a_repeated_id_like_build_poset():
    with pytest.raises(DuplicateIdentifier) as want:
        build_poset(["0", "a", "a"], [("0", "a")])
    with pytest.raises(DuplicateIdentifier) as got:
        _certified(["0", "a", "a"], [(0, 1), (0, 2)], [0, 1, 1], RankedPoset)
    assert str(got.value) == str(want.value)


def test_matroid_schemes_match_validating_path(corpus):
    """Matroid schemes are certified by the rank axioms: the poset is the
    validated Boolean lattice and the labels pass M1-M5."""
    cases = _matroids() + [(name, None) for name, _ in corpus.schemes()
                           if name.startswith(("uniform_", "linear_")) and "__" not in name]
    schemes = dict(corpus.schemes())
    for name, mat in cases:
        m = schemes[name] if mat is None else scheme_from_matroid(mat)
        assert len(m.elements) == 2 ** len(m.atoms()), name
        _check_scheme(m, name)
        assert validate_scheme(m.s, m.rho) == m, name


def test_construction_outputs_match_validating_path(corpus):
    """Every scheme in the corpus that a construction built (not a fixture
    read from a file, not a minor)."""
    built = [(e.name, e.scheme) for e in corpus.entries
             if e.origin != "fixture" and not e.origin.startswith("minor")]
    assert {name.split("_")[0] for name, _ in built} >= {"uniform", "linear", "dowling",
                                                          "toric", "quot", "semi4"}
    for name, m in built:
        _check_scheme(m, name)


def test_dowling_posets_match_validating_path():
    for label, n, act in dowling_inputs():
        gp = dowling_geometric(n, act)
        _assert_same(gp, _validated(gp.elements, gp.poset.covers, False), label)
        _check_scheme(scheme_from_geometric(gp), label)


def test_layer_posets_match_validating_path(corpus):
    """Layer posets, their schemes, and ``scheme_element_of`` against the
    pair id of (atoms below the layer, layer)."""
    for label, arr in corpus.arrangements:
        result = layers_poset(arr)
        gp = result.geometric
        _assert_same(gp, _validated(gp.elements, gp.poset.covers, False), label)
        _check_scheme(result.scheme, label)
        p = gp.poset
        atoms = gp.atoms()
        want = {x: pair_id([a for a in atoms if p.leq(a, x)], x) for x in p.elements}
        assert result.scheme_element_of == want, label
        assert list(result.scheme_element_of) == list(p.elements), label


def test_layer_posets_pass_g1_and_g2(corpus):
    """``layers_poset`` builds its ``GeometricPoset`` with no check, on the
    theorem that layers form a geometric poset; ``validate_geometric``
    accepts each one with the same elements, covers and ranks: toric1,
    toric3, the corpus arrangements and 500 seeded arrangements of ranks
    1 to 4."""
    arrangements = [arr for _, arr in corpus.arrangements]
    arrangements += [files.load_arrangement(files.resolve_input(f"toric{k}.json")) for k in (1, 3)]
    rng = random.Random(20261125)
    while len(arrangements) < len(corpus.arrangements) + 502:
        arr = _random_arrangement(rng, rng.randint(1, 4), rng.randint(1, 6))
        if arr is not None:
            arrangements.append(arr)
    for arr in arrangements:
        gp = layers_poset(arr).geometric
        checked = validate_geometric(gp)
        assert isinstance(gp, GeometricPoset), arr
        assert checked.above is gp.above and checked.ranks == gp.ranks, arr
        assert _validated(gp.elements, gp.poset.covers, False).ranks == gp.ranks, arr



def _face_poset_by_pairs(sm):
    """The face poset by the validating path: the faces by size and then
    sorted members, named by ``set_id``, with the covers found among all
    pairs of faces; and its rank labels by id."""
    faces = sorted(sm.faces, key=lambda f: (len(f), sorted(f)))
    ids = [set_id(f) for f in faces]
    covers = [(ids[a], ids[b]) for a, f in enumerate(faces) for b, g in enumerate(faces)
              if f < g and len(g) == len(f) + 1]
    return _validated(ids, covers), {i: sm.rank[f] for i, f in zip(ids, faces)}


def _orbit_poset_by_names(sm, act):
    """The orbit poset by the validating path: one orbit per least face, by
    size and then sorted members, named "G·" and the id of that face, with
    the orbits of the pairs (f - v, f) as covers in the order of their
    ends; and its rank labels by id."""
    faces = sorted(sm.faces, key=lambda f: (len(f), sorted(f)))
    orbits = []
    for f in faces:
        if not any(f in orbit for orbit in orbits):
            orbits.append({frozenset(act(g, v) for v in f) for g in act.group.elements})
    names = [f"G·{set_id(min(orbit, key=sorted))}" for orbit in orbits]
    of = {f: k for k, orbit in enumerate(orbits) for f in orbit}
    covers = sorted({(of[f - {v}], of[f]) for f in faces for v in f})
    rp = _validated(names, [(names[a], names[b]) for a, b in covers])
    return rp, {names[of[f]]: sm.rank[f] for f in faces}


def _semimatroids_with_actions():
    """semi4 and semi4c under their swap and the trivial action, and the
    seeded translative complexes."""
    z2 = cyclic_group(2)
    cases = []
    for semi, swap in (("semi4", "z2_swap"), ("semi4c", "z2_swap_c")):
        sm = files.load_semimatroid(files.resolve_input(f"{semi}.json"))
        cases += [(f"{semi} {swap}", sm,
                   files.load_action(files.resolve_input(f"{swap}.json"), z2)),
                  (f"{semi} trivial", sm, trivial_action(z2, sm.vertices))]
    pairs = translative_complexes(random.Random(20261019), 40)
    return cases + [(f"translative {k}", sm, act) for k, (sm, act) in enumerate(pairs)]


def test_face_and_orbit_posets_match_validating_path():
    """Semimatroid face posets and quotient orbit posets, with their
    labels, against the pairs and names found as before they were
    certified; the labels, handed over unchecked, pass M1-M5."""
    for name, sm, act in _semimatroids_with_actions():
        for m, (want, rho) in ((scheme_from_semimatroid(sm), _face_poset_by_pairs(sm)),
                               (quotient_scheme(sm, act).scheme, _orbit_poset_by_names(sm, act))):
            _assert_same(m.s, want, name)
            assert dict(m.rho) == rho, name
            assert validate_scheme(m.s, m.rho) == m, name


def test_colliding_ids_raise_like_build_poset():
    """The face {""} of the vertex "" and the empty face share the id "{}",
    escaped or not (a vertex "a,b" no longer collides with the face
    {a, b}: the ids are then escaped): both constructions raise
    ``build_poset``'s ``DuplicateIdentifier``."""
    vertices = ["a", "b", ""]
    faces = [frozenset(c) for r in range(4) for c in itertools.combinations(vertices, r)]
    sm = Semimatroid(vertices, faces, {f: len(f - {""}) for f in faces})
    act = trivial_action(cyclic_group(2), vertices)
    for build, referee in ((lambda: scheme_from_semimatroid(sm), lambda: _face_poset_by_pairs(sm)),
                           (lambda: quotient_scheme(sm, act),
                            lambda: _orbit_poset_by_names(sm, act))):
        with pytest.raises(DuplicateIdentifier) as want:
            referee()
        with pytest.raises(DuplicateIdentifier) as got:
            build()
        assert str(got.value) == str(want.value)
    assert str(got.value) == "duplicate element id 'G·{}'"
