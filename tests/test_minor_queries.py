"""Minors and scheme queries against the paths that re-derive.

A minor inherits its ranks and bottom from its parent instead of sweeping
its covers, the Moebius function sums over down-set masks, and the flats
poset is built from the cached closure map through ``poset._closed``.  The
referees are ``compute_rank`` on the minor's poset, and transcriptions of
the id-based Moebius function and of the flats poset assembled from id
covers, which these replaced.
"""

import random

import mscheme.tutte
from mscheme import (
    AxiomViolation,
    RankedPoset,
    build_poset,
    closure,
    compute_rank,
    contract,
    delete,
    flats,
    localization,
    mobius,
    restrict,
    tutte_delcon,
    validate_scheme,
    verify_simplicial,
)
from mscheme.poset import _assemble, transitive_reduction
from mscheme.scheme import _sub_scheme


def _assert_ranks_inherited(m, name):
    want = compute_rank(m.poset)
    assert m.s.ranked.bottom == want.bottom, name
    assert list(m.s.ranked.rank.items()) == list(want.rank.items()), name


def _left_class(nonpos):
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


def _shuffled(corpus, rng):
    """The corpus schemes with their elements declared in a seeded random
    order, so that no minimum need come first."""
    out = []
    for name, m in corpus.schemes():
        order = list(m.elements)
        rng.shuffle(order)
        sp = verify_simplicial(compute_rank(build_poset(order, m.poset.covers)))
        out.append((f"{name} shuffled", validate_scheme(sp, m.rho)))
    return out


def test_minors_inherit_the_ranks_compute_rank_derives(corpus):
    """Every deletion, contraction and localization of every corpus scheme,
    declared in its own order and in a shuffled one, and seeded
    restrictions."""
    rng = random.Random(20260101)
    for name, m in corpus.schemes() + _shuffled(corpus, rng):
        atoms = m.atoms()
        for a in atoms:
            _assert_ranks_inherited(delete(m, a), f"{name} - {a}")
        for x in m.elements:
            _assert_ranks_inherited(contract(m, x), f"{name} / {x}")
            _assert_ranks_inherited(localization(m, x), f"{name} loc {x}")
        for _ in range(3):
            kept = [a for a in atoms if rng.random() < 0.5]
            _assert_ranks_inherited(restrict(m, kept), f"{name} | {kept}")


def test_delcon_nodes_inherit_the_ranks_compute_rank_derives(monkeypatch, corpus, nonpos):
    nodes = []

    def recording(m, keep, shift=0):
        nodes.append(_sub_scheme(m, keep, shift))
        return nodes[-1]

    monkeypatch.setattr(mscheme.tutte, "_sub_scheme", recording)
    shuffled = _shuffled(corpus, random.Random(20260102))
    for name, m in corpus.schemes() + shuffled + _left_class(nonpos):
        del nodes[:]
        tutte_delcon(m)
        assert len(nodes) == max(len(m.elements) - 2, 0), name
        for k, node in enumerate(nodes):
            _assert_ranks_inherited(node, f"{name} node {k}")


def _mobius_by_ids(rp):
    """The Moebius function as it was computed from id down-sets."""
    p = rp.poset
    order = sorted(p.elements, key=lambda e: rp.rank[e])
    mu = {}
    for w in order:
        if w == rp.bottom:
            mu[w] = 1
        else:
            mu[w] = -sum(mu[u] for u in p.down_set(w) if u != w)
    return mu


def _flats_by_ids(m):
    """The flats poset as it was assembled from id covers."""
    p = m.poset
    els = p.elements
    keep = sum(1 << i for i, e in enumerate(els) if closure(m, e) == e)
    up = [p.above[i] & keep & ~(1 << i) if keep >> i & 1 else 0 for i in range(len(els))]
    sub = _assemble(p._ids(keep), [(els[i], els[j]) for i, j in transitive_reduction(up)])
    return RankedPoset(sub, {e: m.rho[e] for e in sub.elements})


def test_mask_mobius_matches_id_transcription(corpus):
    """Same values in the same key order on every corpus flats poset and on
    every corpus scheme's own poset, also declared in a shuffled order."""
    for name, m in corpus.schemes() + _shuffled(corpus, random.Random(20260103)):
        for rp in (flats(m), m.s.ranked):
            assert list(mobius(rp).items()) == list(_mobius_by_ids(rp).items()), name


def test_flats_match_assembled_transcription(corpus, nonpos):
    """Every corpus scheme, also declared in a shuffled order, and the
    contractions that left the class."""
    shuffled = _shuffled(corpus, random.Random(20260104))
    for name, m in corpus.schemes() + shuffled + _left_class(nonpos):
        got, want = flats(m), _flats_by_ids(m)
        p, q = got.poset, want.poset
        assert p.elements == q.elements, name
        assert p.pairs == q.pairs, name
        assert p.covers == q.covers, name
        assert p.covers_up == q.covers_up, name
        assert p.covers_dn == q.covers_dn, name
        assert p.above == q.above, name
        assert p.below == q.below, name
        assert list(got.rank.items()) == list(want.rank.items()), name
        assert got.bottom == want.bottom, name
