"""Minors and scheme queries against the paths that re-derive.

A minor inherits its ranks from its parent instead of sweeping its
covers and stores nothing else, the Moebius function sums over down-set
masks, the closure map takes its candidates from upper covers, the
flats poset is built from the cached closure map through
``poset._closed``, and a poset's maximal and minimal elements are read
from its empty cover lists.  The referees are ``compute_rank`` on the
minor's poset, and transcriptions of the id-based Moebius function, of
the closure map by maximal elements, of the flats poset assembled from
the id covers of a transitive reduction, and of the whole-poset mask
sweep for the extrema, which these replaced.
"""

import random

import pytest

from mscheme import (
    InvariantBroken,
    RankNotConstantOnMax,
    compute_rank,
    contract,
    delete,
    flats,
    localization,
    mobius,
    restrict,
    scheme_rank,
    verify_simplicial,
)
from mscheme.poset import (
    _bits,
    _full,
    _maxima,
    _mobius,
    characteristic_polynomial,
)
from mscheme.scheme import _closure_map, _labelled
from referees import (
    assert_bottom_is_the_minimum,
    assert_flats_match_the_reduction,
    assert_ranks_count_atoms,
    atom_sets,
    delcon_nodes,
    down_set,
    left_class,
    recursive_leaf_counts,
    scheme_pivot,
    shuffled,
)


def _assert_ranks_inherited(m, name):
    want = compute_rank(m.poset)
    assert m.s.bottom == want.bottom, name
    assert list(m.s.rank.items()) == list(want.rank.items()), name


def _minors(name, m, rng):
    """Every deletion, contraction and localization of m, and three seeded
    restrictions, each with a label."""
    atoms = m.atoms()
    for a in atoms:
        yield f"{name} - {a}", delete(m, a)
    for x in m.elements:
        yield f"{name} / {x}", contract(m, x)
        yield f"{name} loc {x}", localization(m, x)
    for _ in range(3):
        kept = [a for a in atoms if rng.random() < 0.5]
        yield f"{name} | {kept}", restrict(m, kept)


def test_minors_inherit_the_ranks_compute_rank_derives(corpus):
    """Every deletion, contraction and localization of every corpus scheme,
    declared in its own order and in a shuffled one, and seeded
    restrictions."""
    rng = random.Random(20260101)
    for name, m in corpus.schemes() + shuffled(corpus, rng):
        for label, minor in _minors(name, m, rng):
            _assert_ranks_inherited(minor, label)


def test_minors_take_the_supports_verify_simplicial_derives(corpus, nonpos):
    """A simplicial poset stores its ranks only, and a minor takes them
    without re-verifying that it is simplicial.  On every corpus scheme
    (the schemes from matroids, semimatroids, quotients, Dowling posets
    and toric arrangements among them), declared in its own order and in
    a shuffled one, on the contractions of the two-top fixture that leave
    the class, and on every deletion, contraction and localization and
    seeded restrictions of each: ``verify_simplicial`` accepts the poset
    with the same atom sets, every rank is the number of atoms below its
    element, and the bottom is the minimum.  The flats poset of each valid
    scheme and its intervals from the bottom to each maximal element are
    ranked posets only; their bottom is their minimum."""
    rng = random.Random(20260103)
    valid = corpus.schemes() + shuffled(corpus, rng)
    checked = 0
    for name, m in valid + left_class(nonpos):
        for label, minor in [(name, m), *_minors(name, m, rng)]:
            assert atom_sets(verify_simplicial(minor.s)) == atom_sets(minor.s), label
            assert_ranks_count_atoms(minor.s, label)
            checked += 1
    assert checked >= 1000, checked
    for name, m in valid:
        fl = flats(m)
        for rp in (fl, m.s):
            assert_bottom_is_the_minimum(rp, name)
            for mx in rp.poset.maximal_elements():
                assert_bottom_is_the_minimum(rp.interval(rp.bottom, mx), (name, mx))


def test_delcon_nodes_inherit_the_ranks_compute_rank_derives(monkeypatch, corpus, nonpos):
    """The recursion makes a pivot choice at the root and at exactly the
    nodes of three or more elements that the recursive transcription
    builds, in its order, with the same elements, minimum, labels less
    the base and pivot; each built node has the ranks ``compute_rank``
    derives."""
    variants = shuffled(corpus, random.Random(20260102))
    for name, m in corpus.schemes() + variants + left_class(nonpos):
        _, nodes = delcon_nodes(monkeypatch, m)
        built = []
        recursive_leaf_counts(m, built)
        want = [m] if len(m.elements) >= 3 else []
        want += [child for _, _, child in built if len(child.elements) >= 3]
        assert len(nodes) == len(want), name
        p = m.poset
        for k, ((mask, x, base, pivot), node) in enumerate(zip(nodes, want)):
            assert p._ids(mask) == node.elements, (name, k)
            assert p.elements[x] == node.bottom, (name, k)
            assert tuple(m.rhos[e] - base for e in _bits(mask)) == node.rhos, (name, k)
            assert p.elements[pivot] == node.elements[scheme_pivot(node, max(node.rhos))], (name, k)
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
            mu[w] = -sum(mu[u] for u in down_set(p, w) if u != w)
    return mu


def _closure_by_maxima(m):
    """The closure map as it was computed: per element, in index order,
    the maximal elements above it with the same rho, which must be one."""
    p, r = m.poset, m.rhos
    out = []
    for i, up in enumerate(p.above):
        top = p.maximal_of_mask(up & sum(1 << j for j, k in enumerate(r) if k == r[i]))
        if top & (top - 1):
            raise InvariantBroken(f"closure of {m.elements[i]!r} not unique: {p._ids(top)}")
        out.append(top.bit_length() - 1)
    return out


def _outcome(closure_map, m):
    """The closure map, or the message of the ``InvariantBroken`` it raises."""
    try:
        return list(closure_map(m))
    except InvariantBroken as exc:
        return str(exc)


def test_closure_map_matches_the_maxima_transcription(corpus, nonpos):
    """Every corpus scheme of up to 300 elements, also declared in a
    shuffled order, and the contractions that left the class, each with
    its labels and with three seeded relabellings that move one label by
    one and so may break M2: the same closures, or the same error naming
    the same first element."""
    rng = random.Random(20261019)
    variants = shuffled(corpus, random.Random(20260105))
    changed = raised = 0
    for name, m in corpus.schemes() + variants + left_class(nonpos):
        if len(m.elements) > 300:
            continue
        labels = [m.rhos]
        for _ in range(3):
            i = rng.randrange(len(m.rhos))
            labels.append(m.rhos[:i] + (max(0, m.rhos[i] + rng.choice((-1, 1))),)
                          + m.rhos[i + 1:])
        for rhos in labels:
            got = _outcome(_closure_map, _labelled(m, rhos))
            want = _outcome(_closure_by_maxima, _labelled(m, rhos))
            assert got == want, (name, rhos)
            raised += isinstance(want, str)
            changed += rhos != m.rhos and not isinstance(want, str)
    assert raised >= 10 and changed >= 10, (raised, changed)


def test_mask_mobius_matches_id_transcription(corpus):
    """Same values in the same key order on every corpus flats poset and on
    every corpus scheme's own poset, also declared in a shuffled order; the
    values by index that ``charpoly_identity`` reads are the same, and the
    flats' characteristic polynomial is their sum."""
    for name, m in corpus.schemes() + shuffled(corpus, random.Random(20260103)):
        fl = flats(m)
        for rp in (m.s, fl):
            want = _mobius_by_ids(rp)
            assert list(mobius(rp).items()) == list(want.items()), name
            assert _mobius(rp.poset) == [want[e] for e in rp.elements], name
        top, chi = scheme_rank(m), characteristic_polynomial(fl).coeffs
        for k in range(top + 1):  # want is the flats' Moebius function here
            assert chi.get(top - k, 0) == sum(want[e] for e in fl.elements
                                              if fl.rank[e] == k), (name, k)


def test_flats_match_assembled_transcription(corpus, nonpos):
    """Every corpus scheme, also declared in a shuffled order, with its
    contractions and localizations at every element, its deletions at
    every atom and three seeded restrictions, and the contractions that
    left the class."""
    rng = random.Random(20261020)
    variants = shuffled(corpus, random.Random(20260104))
    minors = [minor for name, m in corpus.schemes() for minor in _minors(name, m, rng)]
    assert len(minors) > 4000, len(minors)
    for name, m in corpus.schemes() + variants + minors + left_class(nonpos):
        assert_flats_match_the_reduction(m, name)


def _assert_extrema_from_the_mask_sweep(p, label):
    full = _full(p)
    assert _maxima(p) == list(_bits(p.maximal_of_mask(full))), label
    assert p.maximal_elements() == p._ids(p.maximal_of_mask(full)), label
    assert p.minimal_elements() == p._ids(p.minimal_of_mask(full)), label


def test_extrema_from_cover_lists_match_the_mask_sweep(corpus, nonpos):
    """The maximal elements read from empty upper-cover lists and the
    minimal ones from empty lower-cover lists are those the whole-poset
    mask sweep finds, in the same order, on every corpus scheme (also
    declared in a shuffled order), its flats poset, each of its minors and
    the contractions that left the class.  Where a scheme has two or more
    maxima, raising the label of the last makes ``scheme_rank`` name each
    maximal (id, label) pair in the order of that sweep."""
    rng = random.Random(20261020)
    valid = corpus.schemes() + shuffled(corpus, rng)
    for name, m in valid:
        _assert_extrema_from_the_mask_sweep(flats(m).poset, f"flats of {name}")
    checked = varied = 0
    for name, m in valid + left_class(nonpos):
        for label, minor in [(name, m), *_minors(name, m, rng)]:
            p = minor.poset
            _assert_extrema_from_the_mask_sweep(p, label)
            checked += 1
            tops = list(_bits(p.maximal_of_mask(_full(p))))
            if len(tops) < 2:
                continue
            rhos = list(minor.rhos)
            rhos[tops[-1]] += 1
            with pytest.raises(RankNotConstantOnMax) as exc:
                scheme_rank(_labelled(minor, tuple(rhos)))
            assert exc.value.witness == tuple((p.elements[i], rhos[i]) for i in tops), label
            varied += 1
    assert checked >= 1000 and varied >= 100, (checked, varied)
