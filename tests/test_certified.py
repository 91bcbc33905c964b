"""Certified construction against the validating path.

The constructions build their posets with ``poset._certified`` from the
ranks and atom supports they already know, with no Hasse check, rank sweep
or simplicial pass.  The referee is ``build_poset`` -> ``compute_rank`` ->
``verify_simplicial`` on the same ids and covers: the two must agree on
the elements, the covers, the reachability masks, the cover lists, the
rank, the support and the bottom.  Matroid schemes, which no longer run
``validate_scheme``, are validated here.
"""

import random

import pytest

from mscheme import (
    DuplicateIdentifier,
    build_poset,
    compute_rank,
    dowling_geometric,
    layers_poset,
    linear_matroid,
    scheme_from_geometric,
    scheme_from_matroid,
    uniform_matroid,
    validate_scheme,
    verify_simplicial,
)
from mscheme.geometric import pair_id
from mscheme.poset import SimplicialPoset, _certified

from generators import dowling_inputs


def _validated(ids, covers, simplicial=True):
    rp = compute_rank(build_poset(ids, covers))
    return verify_simplicial(rp) if simplicial else rp


def _assert_same(got, want, name):
    """Two RankedPosets, or two SimplicialPosets, hold the same data."""
    if isinstance(want, SimplicialPoset):
        assert isinstance(got, SimplicialPoset), name
        assert got.support == want.support, name
        got, want = got.ranked, want.ranked
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
    """``_certified`` given the ids, index covers, ranks and supports of a
    validated poset rebuilds it exactly: every corpus scheme, minors and
    fixtures included."""
    for name, m in corpus.schemes():
        want = _validated(m.elements, m.poset.covers)
        rank = [want.ranked.rank[e] for e in want.elements]
        got = _certified(list(want.elements), want.poset.pairs, rank, want.support)
        _assert_same(got, want, name)
        _assert_same(_certified(list(want.elements), want.poset.pairs, rank),
                     want.ranked, name)


def test_certified_refuses_a_repeated_id_like_build_poset():
    with pytest.raises(DuplicateIdentifier) as want:
        build_poset(["0", "a", "a"], [("0", "a")])
    with pytest.raises(DuplicateIdentifier) as got:
        _certified(["0", "a", "a"], [(0, 1), (0, 2)], [0, 1, 1])
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
        _assert_same(gp.ranked, _validated(gp.elements, gp.poset.covers, False), label)
        _check_scheme(scheme_from_geometric(gp), label)


def test_layer_posets_match_validating_path(corpus):
    """Layer posets, their schemes, and ``scheme_element_of`` against the
    pair id of (atoms below the layer, layer)."""
    for label, arr in corpus.arrangements:
        result = layers_poset(arr)
        gp = result.geometric
        _assert_same(gp.ranked, _validated(gp.elements, gp.poset.covers, False), label)
        _check_scheme(result.scheme, label)
        p = gp.poset
        atoms = gp.atoms()
        want = {x: pair_id([a for a in atoms if p.leq(a, x)], x) for x in p.elements}
        assert result.scheme_element_of == want, label
        assert list(result.scheme_element_of) == list(p.elements), label

