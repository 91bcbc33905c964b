"""Poset machinery: construction guards, joins, rank, simpliciality,
Moebius/characteristic, geometric-lattice recognition, isomorphism."""

import itertools
import random
from collections import Counter

import pytest

from mscheme import (
    CycleDetected,
    DuplicateIdentifier,
    GeometricPoset,
    GroupAction,
    LatticeCheck,
    LayersResult,
    MschemeError,
    NonHasseCover,
    NotBoundedBelow,
    NotRanked,
    NotSimplicial,
    QuotientResult,
    RankNotConstantOnMax,
    UnknownIdentifier,
    build_poset,
    characteristic_polynomial,
    compute_rank,
    cyclic_group,
    dowling_poset,
    find_isomorphism,
    flats,
    is_geometric_lattice,
    iter_isomorphisms,
    linear_matroid,
    mobius,
    scheme_from_geometric,
    scheme_from_independence,
    scheme_from_matroid,
    uniform_matroid,
    validate_independence,
    validate_scheme,
    verify_simplicial,
)
import mscheme.poset
from mscheme.polynomials import UnivariatePolynomial
from mscheme.poset import (
    RankedPoset,
    SimplicialPoset,
    _adjacency,
    _bits,
    _certified,
    _closed,
    _convex,
    _graded,
    _index,
    _induced,
    _ranked,
)
from mscheme.toric import ThmArrReport
from derived_oracle import NotBelow, complement
from referees import (
    atom_sets,
    build_poset_by_ids,
    down_set,
    lower_bound_maxima,
    recursive_leaf_counts,
    transitive_reduction,
    upper_bound_minima,
)


def boolean_lattice(n):
    ids = {}
    els = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            ids[frozenset(combo)] = "".join(map(str, combo)) or "@"
            els.append(ids[frozenset(combo)])
    covers = [(ids[s], ids[s | {i}])
              for s in ids for i in range(n) if i not in s]
    return build_poset(els, covers)


def test_build_isth_poset(isth):
    assert len(isth.poset.elements) == 5
    assert isth.poset.leq("0", "u") and not isth.poset.leq("u", "v")


def test_build_singleton():
    p = build_poset(["e"], [])
    assert p.elements == ("e",)
    assert compute_rank(p).rank == {"e": 0}


def test_build_rejects_two_cycle():
    with pytest.raises(CycleDetected) as exc:
        build_poset(["p", "q"], [("p", "q"), ("q", "p")])
    assert set(exc.value.path) == {"p", "q"}


def test_build_rejects_duplicates_and_unknowns():
    with pytest.raises(DuplicateIdentifier):
        build_poset(["a", "a"], [])
    with pytest.raises(UnknownIdentifier):
        build_poset(["a"], [("a", "b")])


def test_build_rejects_transitive_cover():
    with pytest.raises(NonHasseCover) as exc:
        build_poset(["0", "m", "t"], [("0", "m"), ("m", "t"), ("0", "t")])
    assert exc.value.pair == ("0", "t")


def _faulty_poset_inputs(rng, count):
    """``count`` seeded (elements, covers) inputs: the Hasse diagram of a
    random order on up to 8 ids, declared and listed in shuffled order,
    with each of six faults planted at a random place with its own
    chance, so an input may carry several: a repeated id, an unknown
    endpoint, a self-loop, a repeated cover, a cover reversed along a
    chain (a cycle) and a cover implied by a chain of two or more."""
    for _ in range(count):
        n = rng.randint(1, 8)
        ids = [f"v{k}" for k in range(n)]  # ids[k] < ids[l] only for k < l
        less = {(k, l) for k in range(n) for l in range(k + 1, n) if rng.random() < 0.3}
        for m in range(n):  # Warshall's transitive closure, m the middle element
            less |= {(k, l) for k in range(m) for l in range(m + 1, n)
                     if (k, m) in less and (m, l) in less}
        hasse = [(k, l) for k, l in less
                 if not any((k, m) in less and (m, l) in less for m in range(n))]
        chains = sorted(less - set(hasse))
        covers = [(ids[k], ids[l]) for k, l in sorted(hasse)]
        elements = ids[:]
        rng.shuffle(elements)
        rng.shuffle(covers)

        def plant(cover):
            covers.insert(rng.randint(0, len(covers)), cover)

        if rng.random() < 0.12:
            elements.insert(rng.randint(0, n), rng.choice(ids))
        if rng.random() < 0.08:
            plant(rng.choice([(rng.choice(ids), "w"), ("w", rng.choice(ids))]))
        if rng.random() < 0.1:
            e = rng.choice(ids)
            plant((e, e))
        if covers and rng.random() < 0.25:
            plant(rng.choice(covers))
        if less and rng.random() < 0.2:
            k, l = rng.choice(sorted(less))
            plant((ids[l], ids[k]))
        if chains and rng.random() < 0.35:
            k, l = rng.choice(chains)
            plant((ids[k], ids[l]))
        if rng.random() < 0.3:
            covers = [list(c) for c in covers]
        yield elements, covers


def _build_outcome(build, elements, covers):
    """The error's type and message, or the built poset's fields."""
    try:
        p = build(elements, covers)
    except MschemeError as exc:
        return type(exc), str(exc)
    return p.elements, p.pairs, p.order, p.above, p.below, p.covers


def test_build_poset_matches_the_id_pair_referee():
    """``build_poset`` maps each cover to an index pair once, finds
    repeated covers on those pairs and tests the Hasse condition as a
    popcount; the referee keeps the string pairs and a complement mask per
    cover.  On 4,000 seeded inputs with planted faults both raise the same
    error with the same message, or build the same poset."""
    seen = Counter()
    for elements, covers in _faulty_poset_inputs(random.Random(20261020), 4000):
        got = _build_outcome(build_poset, elements, covers)
        assert got == _build_outcome(build_poset_by_ids, elements, covers), (elements, covers)
        if len(got) == 2:
            seen["duplicate cover" if "duplicate cover" in got[1] else got[0].__name__] += 1
        else:
            seen["valid"] += 1
    for kind in ("DuplicateIdentifier", "UnknownIdentifier", "CycleDetected",
                 "NonHasseCover", "duplicate cover", "valid"):
        assert seen[kind] >= 150, seen


def test_certified_refuses_a_repeated_id_before_any_mask(monkeypatch):
    """``_certified`` asks ``_index`` for its map first, so a repeated id
    is refused before ``_closed`` sweeps a reachability mask."""
    def refuse(*args):
        raise AssertionError("_closed ran on a repeated id")

    monkeypatch.setattr(mscheme.poset, "_closed", refuse)
    with pytest.raises(DuplicateIdentifier, match="duplicate element id 'a'"):
        _certified(["a", "b", "a"], [(0, 1)], [0, 1, 0], RankedPoset)


def test_upper_bound_minima(isth, notgeom_poset):
    p = isth.poset
    assert upper_bound_minima(p, ["a", "b"]) == {"u", "v"}
    assert upper_bound_minima(p, []) == {"0"}
    assert lower_bound_maxima(p, ["u", "v"]) == {"a", "b"}
    assert upper_bound_minima(notgeom_poset.poset, ["1", "3"]) == frozenset()
    with pytest.raises(UnknownIdentifier):
        upper_bound_minima(p, ["a", "zz"])


def test_upper_bound_minima_is_antichain_and_covers_all_bounds(isth, cw_l):
    for m in (isth, cw_l):
        p = m.poset
        for t in itertools.combinations(p.elements, 2):
            mins = upper_bound_minima(p, t)
            for a, b in itertools.combinations(mins, 2):
                assert not p.leq(a, b) and not p.leq(b, a)
            for e in p.elements:
                if all(p.leq(x, e) for x in t):
                    assert any(p.leq(u, e) for u in mins)


def test_compute_rank_isth(isth):
    assert [isth.s.rank[e] for e in isth.elements] == [0, 1, 1, 2, 2]


def test_compute_rank_rejects_unequal_chains():
    p = build_poset(["0", "a", "b", "c", "t"],
                    [("0", "a"), ("a", "b"), ("b", "t"), ("0", "c"), ("c", "t")])
    with pytest.raises(NotRanked) as exc:
        compute_rank(p)
    assert len(exc.value.chain_a) != len(exc.value.chain_b)
    # covers are swept bottom-up; "t" is first reached through "c"
    assert exc.value.element == "t"
    assert exc.value.chain_a == ("0", "c", "t")
    assert exc.value.chain_b == ("0", "a", "b", "t")


def test_compute_rank_rejects_two_minima():
    with pytest.raises(NotBoundedBelow):
        compute_rank(build_poset(["a", "b", "t"], [("a", "t"), ("b", "t")]))


def test_verify_simplicial_accepts_boolean():
    sp = verify_simplicial(compute_rank(boolean_lattice(3)))
    assert len(sp.atoms()) == 3
    top = max(sp.elements, key=sp.rank.get)
    assert sp.rank[top] == 3


def test_verify_simplicial_rejects_bowtie():
    rp = compute_rank(build_poset(["0", "a", "b", "u"],
                                  [("0", "a"), ("0", "b"), ("a", "u")]))
    with pytest.raises(NotSimplicial) as exc:
        verify_simplicial(rp)
    assert exc.value.element == "u"


def test_only_the_checkers_make_a_certified_poset(isth, notgeom_poset):
    """The poset 0 < a, b, c < t is ranked but not simplicial: t has three
    atoms and a down-set of five.  Neither certified class has a public
    constructor, and the functions that trust a certificate refuse a plain
    ranked poset, so it reaches ``validate_scheme`` only through
    ``verify_simplicial``, which refuses it at t.  A scheme's simplicial
    poset is a ranked poset, so the isomorphism search takes it as it is."""
    rp = compute_rank(build_poset(["0", "a", "b", "c", "t"],
                                  [("0", x) for x in "abc"] + [(x, "t") for x in "abc"]))
    for cls in (SimplicialPoset, GeometricPoset):
        with pytest.raises(TypeError):
            cls(rp)
    with pytest.raises(TypeError):
        validate_scheme(rp, rp.rank)
    for check in (validate_independence, scheme_from_independence):
        with pytest.raises(TypeError):
            check(rp, ["0", "a"])
    for plain in (rp, notgeom_poset, flats(isth)):
        with pytest.raises(TypeError):
            scheme_from_geometric(plain)
    with pytest.raises(NotSimplicial) as exc:
        verify_simplicial(rp)
    assert exc.value.element == "t"
    assert isinstance(isth.s, RankedPoset)
    assert find_isomorphism(isth.s, isth.s) == {e: e for e in isth.elements}


def _set_verify_simplicial(rp):
    """Transcription of ``verify_simplicial`` before the up-set clash rule:
    the third check counts the distinct atom sets over each down-set."""
    p = rp.poset
    els = p.elements
    atoms = sum(1 << i for i, e in enumerate(els) if rp.rank[e] == 1)
    support = tuple(down & atoms for down in p.below)
    for i, (x, down) in enumerate(zip(els, p.below)):
        k = support[i].bit_count()
        if rp.rank[x] != k:
            raise NotSimplicial(x, f"rank {rp.rank[x]} != {k} atoms below")
        if down.bit_count() != 2 ** k:
            raise NotSimplicial(x, f"|down-set| = {down.bit_count()} != 2^{k}")
        if len({support[y] for y in range(len(els)) if down >> y & 1}) != 2 ** k:
            raise NotSimplicial(x, "two elements share the same atom set")
    return support


def _simplicial_verdict(verify, rp):
    try:
        out = verify(rp)
    except NotSimplicial as exc:
        return type(exc), exc.element, str(exc)
    return out if isinstance(out, tuple) else atom_sets(out)


def _relabelled_rank(rp, x, value):
    """rp with the rank label of x replaced; RankedPoset itself refuses
    labels that break a cover, so the label is set behind its back."""
    bad = object.__new__(RankedPoset)
    bad.poset = rp.poset
    i = rp.poset.index[x]
    bad.ranks = rp.ranks[:i] + (value,) + rp.ranks[i + 1:]
    return bad


def _corruptions(rp, rng):
    """Ranked posets near rp that are mostly not simplicial: a cover
    dropped, a rank label moved, a twin of y (same lower covers) added under
    an upper cover u of y, and the same twin with a sibling of y cut from u
    so that u keeps 2^rank elements below it."""
    p = rp.poset
    els, covers = list(p.elements), list(p.covers)
    out = []
    if covers:
        dropped = covers[:]
        del dropped[rng.randrange(len(dropped))]
        try:
            out.append(compute_rank(build_poset(els, dropped)))
        except (NotBoundedBelow, NotRanked):
            pass
    x = rng.choice(els)
    out.append(_relabelled_rank(rp, x, rp.rank[x] + rng.choice((-1, 1))))
    pairs = [(y, u) for y, u in covers if rp.rank[y] >= 1]
    if pairs:
        y, u = rng.choice(pairs)
        twin = [(lo, "twin") for lo, hi in covers if hi == y] + [("twin", u)]
        out.append(compute_rank(build_poset(els + ["twin"], covers + twin)))
        siblings = [s for s, hi in covers if hi == u and s != y]
        if siblings:
            cut = (rng.choice(siblings), u)
            kept = [c for c in covers if c != cut]
            out.append(compute_rank(build_poset(els + ["twin"], kept + twin)))
    return out


def test_verify_simplicial_matches_down_set_transcription(corpus):
    """Same verdict, element and message as the per-down-set check on every
    corpus poset and its flats, and on seeded corruptions of each."""
    rng = random.Random("simplicial-referee")
    reasons = Counter()
    for name, m in corpus.schemes():
        for rp in (m.s, flats(m)):
            for case in [rp] + _corruptions(rp, rng):
                got = _simplicial_verdict(verify_simplicial, case)
                assert got == _simplicial_verdict(_set_verify_simplicial, case), name
                if isinstance(got, tuple) and got[0] is NotSimplicial:
                    reasons[got[2].split("(")[-1].split(" ")[0]] += 1
    # every check is reached: rank, size, and the shared atom set
    assert reasons["rank"] and reasons["|down-set|"] and reasons["two"], reasons


def test_verify_simplicial_rejects_shared_atom_set():
    """Three atoms, two rank-2 elements over {a, b} and none over {b, c}:
    the top has 3 atoms and 8 elements below, so only the third check
    fails, at the top."""
    p = build_poset(["0", "a", "b", "c", "ab", "ab2", "ac", "t"],
                    [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("b", "ab"),
                     ("a", "ab2"), ("b", "ab2"), ("a", "ac"), ("c", "ac"),
                     ("ab", "t"), ("ab2", "t"), ("ac", "t")])
    with pytest.raises(NotSimplicial, match="two elements share the same atom set") as exc:
        verify_simplicial(compute_rank(p))
    assert exc.value.element == "t"


def test_complement(isth):
    sp = isth.s
    assert complement(sp, "u", "a") == "b"
    assert complement(sp, "u", "0") == "u"
    assert complement(sp, "u", "u") == "0"
    with pytest.raises(NotBelow):
        complement(sp, "a", "b")


def test_complement_is_an_involution(cw_l):
    sp = cw_l.s
    p = sp.poset
    for x in sp.elements:
        for a in down_set(p, x):
            assert complement(sp, x, complement(sp, x, a)) == a


def test_mobius_boolean_and_chain():
    rp = compute_rank(boolean_lattice(2))
    mu = mobius(rp)
    assert mu["@"] == 1 and mu["01"] == 1
    assert mu["0"] == mu["1"] == -1
    chain = compute_rank(build_poset(["0", "x"], [("0", "x")]))
    assert mobius(chain)["x"] == -1


def test_mobius_sums_vanish(dow_triv):
    fl = flats(dow_triv)
    mu = mobius(fl)
    p = fl.poset
    for w in fl.elements:
        if w != fl.bottom:
            assert sum(mu[u] for u in down_set(p, w)) == 0
    assert str(characteristic_polynomial(fl)) == "t^2 - 6*t + 8"


def test_characteristic_polynomial_small(isth):
    b1 = compute_rank(boolean_lattice(1))
    assert str(characteristic_polynomial(b1)) == "t - 1"
    assert characteristic_polynomial(flats(isth)) == UnivariatePolynomial(
        {2: 1, 1: -2, 0: 2})


def test_characteristic_polynomial_needs_constant_max_rank():
    rp = compute_rank(build_poset(["0", "a", "u"], [("0", "a"), ("a", "u"), ]))
    rp2 = compute_rank(build_poset(["0", "a", "b", "u"],
                                   [("0", "a"), ("0", "b"), ("a", "u")]))
    characteristic_polynomial(rp)
    with pytest.raises(RankNotConstantOnMax):
        characteristic_polynomial(rp2)


def test_is_geometric_lattice():
    assert is_geometric_lattice(compute_rank(boolean_lattice(3)))
    # flats of the 3-point line: bottom, 3 atoms, top
    u23 = flats(scheme_from_matroid(uniform_matroid(2, 3)))
    assert is_geometric_lattice(u23)
    # two tops: not a lattice
    check2 = is_geometric_lattice(compute_rank(build_poset(
        ["0", "a", "b", "u", "v"],
        [("0", "a"), ("0", "b"), ("a", "u"), ("b", "u"), ("a", "v"), ("b", "v")])))
    assert not check2 and check2.condition == "lattice"


def test_is_geometric_lattice_atomic_failure():
    chain = compute_rank(build_poset(["0", "a", "t"], [("0", "a"), ("a", "t")]))
    check = is_geometric_lattice(chain)
    assert not check and check.condition == "atomic" and check.witness == ("t",)


def test_result_records_keep_their_fields_truth_and_repr():
    """The four result records are named tuples: built by position, read
    by field name, and closed to assignment.  ``LatticeCheck`` is true
    iff ``ok``, equal and hashed by its three fields, and printed with
    them; ``ThmArrReport.ok`` asks for all three witnesses."""
    fail = LatticeCheck(False, "atomic", ("t",))
    assert LatticeCheck(True) and not fail
    assert fail == LatticeCheck(False, "atomic", ("t",)) != LatticeCheck(False, "lattice", ("t",))
    assert LatticeCheck(True) == LatticeCheck(True, None, None)
    assert hash(fail) == hash((False, "atomic", ("t",)))
    assert repr(fail) == "LatticeCheck(ok=False, condition='atomic', witness=('t',))"
    assert repr(LatticeCheck(True)) == "LatticeCheck(ok=True, condition=None, witness=None)"
    records = [(QuotientResult, ("scheme", "orbit_of", "m_g", "tutte_action")),
               (LayersResult, ("geometric", "scheme", "layers", "atom_of", "scheme_element_of")),
               (ThmArrReport, ("deletion", "restriction", "localization",
                               "restriction_is_direct")),
               (LatticeCheck, ("ok", "condition", "witness"))]
    for cls, fields in records:
        record = cls(*range(len(fields)))
        assert isinstance(record, tuple) and cls._fields == fields
        assert [getattr(record, f) for f in fields] == list(range(len(fields)))
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)
    assert ThmArrReport({}, {}, {}, False).ok
    for k in range(3):
        witnesses = [{}, {}, {}]
        witnesses[k] = None
        assert not ThmArrReport(*witnesses, True).ok


def test_find_isomorphism_identity(isth):
    rp = isth.s
    phi = find_isomorphism(rp, rp)
    assert phi is not None
    for e in rp.elements:
        assert phi[e] == e or rp.rank[phi[e]] == rp.rank[e]


def test_find_isomorphism_distinguishes_sizes(isth):
    from mscheme import contract, delete
    rp1 = contract(isth, "a").s
    rp2 = delete(isth, "a").s
    assert len(rp1.elements) == 3 and len(rp2.elements) == 2
    assert find_isomorphism(rp1, rp2) is None


def test_find_isomorphism_is_symmetric(qfix, isth):
    a, b = qfix.s, isth.s
    assert (find_isomorphism(a, b) is None) == (find_isomorphism(b, a) is None)
    assert find_isomorphism(a, b) is not None


def test_find_isomorphism_respects_labels(cw_r, notgeom_poset):
    # same Hasse diagram, different labels: plain search succeeds, the
    # label-respecting search does not
    rp = cw_r.s
    assert find_isomorphism(rp, rp, cw_r.rho, notgeom_poset.rank) is None
    assert find_isomorphism(rp, rp, cw_r.rho, cw_r.rho) is not None


# Isomorphisms enumerated per pair by the referees below.
ISO_CAP = 24
# Corpus schemes up to this size are searched by the referees: the ``leq``
# transcription takes seconds on some larger ones.
ISO_REFEREE_SIZE = 40


def _signature_of(rp, labels):
    """Element -> (rank, label, lower covers, upper covers, down-set size,
    up-set size), the signature the search matches."""
    p, labels = rp.poset, labels or {}
    return {e: (rp.rank[e], labels.get(e), len(p.covers_dn[i]), len(p.covers_up[i]),
                p.below[i].bit_count(), p.above[i].bit_count())
            for i, e in enumerate(p.elements)}


def _signatures(rp, labels):
    return Counter(_signature_of(rp, labels).values())


def _leq_isomorphisms(p, q, p_labels=None, q_labels=None):
    """Transcription of the search before it ran on cover masks: place p's
    elements in (rank, index) order and admit a candidate of the same
    signature when ``leq`` agrees in both directions with every placed
    pair."""
    pp, qq = p.poset, q.poset
    if len(pp) != len(qq):
        return
    p_sig, q_sig = _signature_of(p, p_labels), _signature_of(q, q_labels)
    if Counter(p_sig.values()) != Counter(q_sig.values()):
        return
    order = sorted(pp.elements, key=lambda e: (p.rank[e], pp.idx(e)))
    mapping = {}

    def extend(k):
        if k == len(order):
            yield dict(mapping)
            return
        e = order[k]
        for f in qq.elements:
            if f in mapping.values() or q_sig[f] != p_sig[e]:
                continue
            if all(pp.leq(e, e2) == qq.leq(f, f2) and pp.leq(e2, e) == qq.leq(f2, f)
                   for e2, f2 in mapping.items()):
                mapping[e] = f
                yield from extend(k + 1)
                del mapping[e]

    yield from extend(0)


def _relabelled(rp, labels, rng):
    """An isomorphic copy of rp with fresh ids, shuffled declaration order
    and shuffled covers, and labels carried over when given."""
    p = rp.poset
    names = [f"r{i}" for i in range(len(p))]
    rng.shuffle(names)
    rename = dict(zip(p.elements, names))
    order = list(p.elements)
    rng.shuffle(order)
    covers = [(rename[a], rename[b]) for a, b in p.covers]
    rng.shuffle(covers)
    copy = compute_rank(build_poset([rename[e] for e in order], covers))
    return copy, None if labels is None else {rename[e]: v for e, v in labels.items()}


def _twisted(rp, rng):
    """Swap the upper ends of two covers a < b, c < d between the same
    ranks: a < d, c < b keeps every rank and every cover degree.  None when
    the drawn covers do not allow it."""
    covers = list(rp.poset.covers)
    i, j = rng.sample(range(len(covers)), 2)
    (a, b), (c, d) = covers[i], covers[j]
    if (rp.rank[a] != rp.rank[c] or a == c or b == d
            or (a, d) in covers or (c, b) in covers):
        return None
    covers[i], covers[j] = (a, d), (c, b)
    return compute_rank(build_poset(rp.elements, covers))


def _same_search(p, q, p_labels=None, q_labels=None):
    """The capped search result, asserted equal to the transcription's in
    order, item order of each dict included."""
    got = [list(phi.items()) for phi in
           itertools.islice(iter_isomorphisms(p, q, p_labels, q_labels), ISO_CAP)]
    want = [list(phi.items()) for phi in
            itertools.islice(_leq_isomorphisms(p, q, p_labels, q_labels), ISO_CAP)]
    assert got == want
    return got


def _referee_schemes(corpus):
    return [(e.name, e.scheme) for e in corpus.entries
            if len(e.scheme.elements) <= ISO_REFEREE_SIZE]


def test_isomorphisms_to_relabelled_copies_match_leq_search(corpus):
    rng = random.Random("iso-referee")
    for name, m in _referee_schemes(corpus):
        rp = m.s
        q, q_rho = _relabelled(rp, m.rho, rng)
        assert _same_search(rp, q, m.rho, q_rho), name
        fl = flats(m)
        fq, _ = _relabelled(fl, None, rng)
        assert _same_search(fl, fq), name


def test_isomorphisms_to_twisted_copies_match_leq_search(corpus):
    """Pairs of equal size that are mostly not isomorphic: a twisted copy
    often keeps every signature, so only the order check tells it apart."""
    rng = random.Random("iso-twist")
    pruned = 0
    for name, m in _referee_schemes(corpus):
        rp = m.s
        if len(rp.poset.covers) < 2:
            continue
        for _ in range(16):
            twisted = _twisted(rp, rng)
            if twisted is None:
                continue
            q, q_rho = _relabelled(twisted, m.rho, rng)
            for labels in ((m.rho, q_rho), (None, None)):
                found = _same_search(rp, q, *labels)
                pruned += not found and _signatures(rp, labels[0]) == _signatures(q, labels[1])
    assert pruned >= 30


def test_searches_on_large_symmetric_schemes_find_isomorphisms():
    """The Dowling scheme of rank 2 over Z3 rotating three points, and a
    128-element linear scheme, against relabelled copies."""
    z3 = cyclic_group(3)
    g, pts = z3.elements, ["p0", "p1", "p2"]
    rot3 = GroupAction(z3, pts, {(g[i], pts[j]): pts[(i + j) % 3]
                                 for i in range(3) for j in range(3)})
    linear = linear_matroid([[2, 0, 0, -1, -1, 2, 2], [2, 1, 1, -2, 2, 1, 0],
                             [0, 2, -2, 2, -1, -2, 0]])
    rng = random.Random("iso-large")
    for m in (dowling_poset(2, rot3)[1], scheme_from_matroid(linear)):
        q, q_rho = _relabelled(m.s, m.rho, rng)
        phi = find_isomorphism(m.s, q, m.rho, q_rho)
        assert phi is not None
        assert sorted(phi) == sorted(m.elements)
        assert sorted(phi.values()) == sorted(q.elements)
        assert all(m.rho[e] == q_rho[phi[e]] for e in m.elements)
        p, qq = m.poset, q.poset
        assert all(p.leq(a, b) == qq.leq(phi[a], phi[b])
                   for a in m.elements for b in m.elements)


def test_search_is_not_bounded_by_the_recursion_limit():
    rp = scheme_from_matroid(uniform_matroid(5, 10)).s
    assert len(rp.elements) == 1024
    phi = find_isomorphism(rp, rp)
    assert phi is not None and len(phi) == 1024


def _row_major(p, covers):
    return sorted(covers, key=lambda c: (p.idx(c[0]), p.idx(c[1])))


def test_transitive_reduction_recovers_corpus_covers(corpus):
    fixtures = {e.name for e in corpus.entries if e.origin == "fixture"}
    for e in corpus.entries:
        p = e.scheme.poset
        up = [mask & ~(1 << i) for i, mask in enumerate(p.above)]
        got = [(p.elements[i], p.elements[j]) for i, j in transitive_reduction(up)]
        assert got == _row_major(p, p.covers), e.name
        # hand-written fixture files list their covers in any order
        if e.name.split("__")[0] not in fixtures:
            assert got == list(p.covers), e.name


def test_flats_subposet_covers_match_brute_force(corpus):
    for name, m in corpus.schemes():
        p = m.poset
        closed = flats(m).elements
        want = [(a, b) for a in closed for b in closed
                if a != b and p.leq(a, b)
                and not any(c not in (a, b) and p.leq(a, c) and p.leq(c, b) for c in closed)]
        assert list(flats(m).poset.covers) == _row_major(p, want), name


def _convex_sets(p, rng):
    """Masks of order ideals, filters and intervals of p: the principal
    ideal, the principal filter and the deletion ideal (nothing above x) of
    up to 16 elements x, and a sample of intervals."""
    full = (1 << len(p)) - 1
    for i in rng.sample(range(len(p)), min(len(p), 16)):
        yield p.below[i]
        yield p.above[i]
        yield full & ~p.above[i]
    for _ in range(12):
        lo, hi = rng.randrange(len(p)), rng.randrange(len(p))
        if p.above[lo] >> hi & 1:
            yield p.above[lo] & p.below[hi]


def test_subposet_matches_build_poset(corpus):
    """``_induced`` sweeps the parent's linear extension; ``build_poset`` of
    the same ids and covers sorts its own.  Reachability, covers, cover
    lists and derived ranks must agree on the corpus posets and flats."""
    rng = random.Random("subposet-referee")
    for name, m in corpus.schemes():
        for p in (m.poset, flats(m).poset):
            for keep in _convex_sets(p, rng):
                sub = _induced(p, list(_bits(keep)))
                ids = [e for i, e in enumerate(p.elements) if keep >> i & 1]
                kept = set(ids)
                covers = [(a, b) for a, b in p.covers if a in kept and b in kept]
                want = build_poset(ids, covers)
                assert sub.elements == want.elements, name
                assert sub.covers == want.covers, name
                for attr in ("above", "below", "covers_up", "covers_dn"):
                    assert getattr(sub, attr) == getattr(want, attr), (name, attr)
                if len(sub.minimal_elements()) == 1:
                    assert compute_rank(sub).rank == compute_rank(want).rank, name


def _labelled(p, labels):
    """The RankedPoset of p with the labels by element index, which must
    be the ranks ``_graded`` derives in a fresh sweep of p's covers."""
    ranks = _graded(p)
    assert ranks == tuple(labels), (ranks, labels)
    return _ranked(p, ranks, RankedPoset)


def test_interval_matches_the_validating_constructor(corpus):
    """``interval`` inherits its ranks from the parent; ``_graded``
    verifies them again, shifted, on the sub-poset.  On every pair of
    elements of the corpus posets and flats of up to 32 elements, both
    give the same elements, covers, linear extension, ranks and bottom
    when lo <= hi, and both raise ``NotBoundedBelow`` otherwise."""
    checked = refused = 0
    for name, m in corpus.schemes():
        for rp in (m.s, flats(m)):
            p = rp.poset
            if len(p) > 32:
                continue
            for lo, hi in itertools.product(p.elements, repeat=2):
                mask = p.above[p.idx(lo)] & p.below[p.idx(hi)]
                shifted = [rp.rank[e] - rp.rank[lo] for e in p._ids(mask)]
                if not mask:
                    for build in (lambda: rp.interval(lo, hi),
                                  lambda: _labelled(_induced(p, list(_bits(mask))), shifted)):
                        with pytest.raises(NotBoundedBelow):
                            build()
                    refused += 1
                    continue
                got = rp.interval(lo, hi)
                want = _labelled(_induced(p, list(_bits(mask))), shifted)
                assert got.elements == want.elements and got.bottom == want.bottom, name
                assert got.poset.pairs == want.poset.pairs, name
                assert got.poset.order == want.poset.order, name
                assert list(got.rank.items()) == list(want.rank.items()), name
                checked += 1
    assert checked >= 1000 and refused >= 1000, (checked, refused)


def _subposet_by_dict(p, keep):
    """``_induced`` as it was, on a mask: the kept bits listed into a dict, the
    parent's pairs filtered by it, and the cover lists built in a second
    sweep of the kept pairs."""
    new = {}
    for i in _bits(keep):
        new[i] = len(new)
    pairs = [(new[i], new[j]) for i, j in p.pairs if i in new and j in new]
    order = [new[i] for i in p.order if i in new]
    els = [p.elements[i] for i in new]
    return _closed(els, _index(els), pairs, order, *_adjacency(len(new), pairs))


def _convex_by_dict(rp, keep):
    """``poset._convex`` as it was, on a mask, with the kept bits listed
    again for the ranks."""
    sub = _subposet_by_dict(rp.poset, keep)
    ranks = [rp.ranks[i] for i in _bits(keep)]
    base = ranks[sub.order[0]]
    return _ranked(sub, tuple(k - base for k in ranks), RankedPoset)


SUBPOSET_FIELDS = ("elements", "pairs", "order", "above", "below", "covers_up",
                   "covers_dn", "covers")


def test_one_sweep_subposets_match_the_transcription(corpus):
    """``_induced`` and ``_convex`` list the kept bits once and fill the
    pairs and both cover lists in one sweep of the parent's pairs; the
    transcription filters and sweeps again.  Every field, the ranks and
    the bottom must agree on each corpus scheme's principal ideals,
    principal filters and deletion ideals (of 64 seeded elements in the
    schemes of over 256 elements, of every element in the others), on
    every interval of the schemes of up to 64 elements, and on every child
    mask the Tutte recursion splits off, taken in its parent."""
    rng = random.Random("one-sweep-subposets")
    checked = 0
    for name, m in corpus.schemes():
        p = m.poset
        full = (1 << len(p)) - 1
        picked = range(len(p)) if len(p) <= 256 else rng.sample(range(len(p)), 64)
        cases = [(m, mask) for i in picked
                 for mask in (p.below[i], p.above[i], full & ~p.above[i]) if mask]
        if len(p) <= 64:
            cases += [(m, p.above[lo] & p.below[hi])
                      for lo, hi in itertools.product(range(len(p)), repeat=2)
                      if p.above[lo] >> hi & 1]
        built = []
        recursive_leaf_counts(m, built)
        cases += [(parent, keep) for parent, keep, _ in built]
        for scheme, keep in cases:
            rp = scheme.s
            got, want = _convex(rp, list(_bits(keep)), SimplicialPoset), _convex_by_dict(rp, keep)
            sub = _induced(rp.poset, list(_bits(keep)))
            for attr in SUBPOSET_FIELDS:
                assert getattr(got.poset, attr) == getattr(want.poset, attr), (name, attr)
                assert getattr(sub, attr) == getattr(want.poset, attr), (name, attr)
            assert got.ranks == want.ranks and got.bottom == want.bottom, name
            checked += 1
    assert checked >= 10000, checked
