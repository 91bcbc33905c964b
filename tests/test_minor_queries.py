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
    RankedPoset,
    closure,
    compute_rank,
    contract,
    delete,
    flats,
    localization,
    mobius,
    restrict,
    tutte_delcon,
)
from mscheme.poset import _assemble, transitive_reduction
from mscheme.scheme import _sub_scheme
from referees import left_class, recursive_leaf_counts, shuffled


def _assert_ranks_inherited(m, name):
    want = compute_rank(m.poset)
    assert m.s.ranked.bottom == want.bottom, name
    assert list(m.s.ranked.rank.items()) == list(want.rank.items()), name


def test_minors_inherit_the_ranks_compute_rank_derives(corpus):
    """Every deletion, contraction and localization of every corpus scheme,
    declared in its own order and in a shuffled one, and seeded
    restrictions."""
    rng = random.Random(20260101)
    for name, m in corpus.schemes() + shuffled(corpus, rng):
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
    """The recursion builds exactly the nodes of three or more elements
    that the recursive transcription builds, in its order, and each has
    the ranks ``compute_rank`` derives."""
    nodes = []

    def recording(m, keep, shift=0):
        nodes.append(_sub_scheme(m, keep, shift))
        return nodes[-1]

    monkeypatch.setattr(mscheme.tutte, "_sub_scheme", recording)
    variants = shuffled(corpus, random.Random(20260102))
    for name, m in corpus.schemes() + variants + left_class(nonpos):
        del nodes[:]
        tutte_delcon(m)
        built = []
        recursive_leaf_counts(m, built)
        want = [child.elements for _, _, child in built if len(child.elements) >= 3]
        assert len(nodes) == len(want), name
        assert [node.elements for node in nodes] == want, name
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
    for name, m in corpus.schemes() + shuffled(corpus, random.Random(20260103)):
        for rp in (flats(m), m.s.ranked):
            assert list(mobius(rp).items()) == list(_mobius_by_ids(rp).items()), name


def test_flats_match_assembled_transcription(corpus, nonpos):
    """Every corpus scheme, also declared in a shuffled order, and the
    contractions that left the class."""
    variants = shuffled(corpus, random.Random(20260104))
    for name, m in corpus.schemes() + variants + left_class(nonpos):
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
