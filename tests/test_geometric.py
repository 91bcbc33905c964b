"""Geometric posets and the simple-scheme equivalence."""

import itertools
import random
from collections import Counter

import pytest

from mscheme import (
    AtomCapExceeded,
    AxiomViolation,
    InvariantBroken,
    MschemeError,
    NotSimple,
    build_poset,
    check_uniqueness,
    compute_rank,
    dowling_geometric,
    flats,
    find_isomorphism,
    is_geometric_lattice,
    is_simple,
    layers_poset,
    scheme_from_geometric,
    scheme_isomorphism,
    simplification,
    upper_bound_minima,
    validate_geometric,
    verify_simplicial,
    validate_scheme,
)
from mscheme.geometric import pair_id

from generators import dowling_inputs
from test_poset import boolean_lattice


def test_flats_of_fixtures_are_geometric(cw_l, cw_r):
    assert validate_geometric(flats(cw_l)).elements
    assert validate_geometric(flats(cw_r)).elements


def test_boolean_lattice_is_geometric():
    gp = validate_geometric(compute_rank(boolean_lattice(3)))
    assert len(gp.atoms()) == 3


def test_notgeom_fails_g2_with_reverifiable_witness(notgeom_poset):
    with pytest.raises(AxiomViolation) as exc:
        validate_geometric(notgeom_poset)
    assert exc.value.axiom == "G2"
    x, atom_set, y = exc.value.witness
    p = notgeom_poset.poset
    assert notgeom_poset.rank[x] < notgeom_poset.rank[y] == len(atom_set)
    assert y in upper_bound_minima(p, atom_set)
    for a in atom_set:
        assert p.leq(a, x) or not upper_bound_minima(p, [a, x])
    # the expected first witness: leftmost atom against the other top
    assert (x, set(atom_set)) == ("1", {"3", "4"})


def test_locally_geometric_but_not_geometric(notgeom_poset):
    for mx in notgeom_poset.poset.maximal_elements():
        interval = notgeom_poset.interval(notgeom_poset.bottom, mx)
        assert is_geometric_lattice(interval)


def test_scheme_from_geometric_three_element(cw_r):
    m = scheme_from_geometric(validate_geometric(flats(cw_r)))
    assert len(m.elements) == 3
    assert find_isomorphism(flats(m), flats(cw_r)) is not None


def test_scheme_from_geometric_boolean_square():
    gp = validate_geometric(compute_rank(boolean_lattice(2)))
    m = scheme_from_geometric(gp)
    assert len(m.elements) == 4
    assert all(m.rho[e] == m.size(e) for e in m.elements)


def test_scheme_from_toric_poset_matches_two_isthmus_scheme(toric1, isth):
    from mscheme import layers_poset
    result = layers_poset(toric1)
    assert scheme_isomorphism(result.scheme, isth) is not None


def test_simplification(cw_l, cw_r, isth):
    simple_r = simplification(cw_r)
    assert len(simple_r.elements) == 3
    assert find_isomorphism(flats(simple_r), flats(cw_r)) is not None
    simple_l = simplification(cw_l)
    assert scheme_isomorphism(simple_l, cw_l) is not None
    sp = verify_simplicial(compute_rank(build_poset(["0"], [])))
    singleton = validate_scheme(sp, {"0": 0})
    assert scheme_isomorphism(simplification(singleton), singleton) is not None


def test_check_uniqueness(cw_l, dow_triv, dow_nontriv):
    lift = check_uniqueness(cw_l, simplification(cw_l))
    assert lift is not None and len(lift) == len(cw_l.elements)
    assert check_uniqueness(dow_triv, dow_nontriv) is None
    ident = check_uniqueness(cw_l, cw_l)
    assert ident is not None


def test_check_uniqueness_rejects_a_wrong_lift(monkeypatch, nonpos):
    """Swapping the two tops u, v of ``nonpos`` is a rank-preserving
    bijection of its flats but no isomorphism.  Each element still has
    exactly one lift candidate, so only the final rho and cover check can
    reject the lift; the real search then finds an isomorphism, and the
    mismatch is an InvariantBroken."""
    import mscheme.geometric
    f = flats(nonpos)
    swap = {"u": "v", "v": "u"}
    wrong = {e: swap.get(e, e) for e in f.elements}
    assert {(wrong[a], wrong[b]) for a, b in f.poset.covers} != set(f.poset.covers)
    monkeypatch.setattr(mscheme.geometric, "iter_isomorphisms",
                        lambda f1, f2: iter([wrong]))
    with pytest.raises(InvariantBroken, match="no lift verified"):
        check_uniqueness(nonpos, nonpos)
    # after the rejected lift, the identity's lift is the one returned
    ident = {e: e for e in f.elements}
    monkeypatch.setattr(mscheme.geometric, "iter_isomorphisms",
                        lambda f1, f2: iter([wrong, ident]))
    assert check_uniqueness(nonpos, nonpos) == {e: e for e in nonpos.elements}


def test_check_uniqueness_requires_simple(cw_r, cw_l):
    with pytest.raises(NotSimple):
        check_uniqueness(cw_r, cw_l)


def test_round_trips(cw_l, cw_r, isth, dow_triv, dow_nontriv, qfix):
    for m in (cw_l, cw_r, isth, dow_triv, dow_nontriv, qfix):
        gp = validate_geometric(flats(m))
        rebuilt = scheme_from_geometric(gp)
        # round trip A: flats of the rebuilt scheme match the input poset
        assert find_isomorphism(flats(rebuilt), gp.ranked) is not None
        # round trip B: simple schemes are recovered up to isomorphism
        from mscheme import is_simple
        if is_simple(m):
            assert scheme_isomorphism(rebuilt, m) is not None


def _certified_inputs(corpus):
    """(label, geometric poset, the scheme built from it) for every corpus
    flats poset, every corpus Dowling input and every corpus toric
    arrangement."""
    for name, m in corpus.schemes():
        gp = validate_geometric(flats(m))
        yield name, gp, scheme_from_geometric(gp)
    for label, n, act in dowling_inputs():
        gp = dowling_geometric(n, act)
        yield label, gp, scheme_from_geometric(gp)
    for label, arr in corpus.arrangements:
        result = layers_poset(arr)
        yield label, result.geometric, result.scheme


def test_scheme_from_geometric_is_the_simple_scheme_of_its_input(corpus):
    """The theorem scheme_from_geometric trusts its certificate for: the
    scheme is valid and simple, and x -> (atoms below x, x) is a bijection
    onto its flats that maps the input's covers onto the flats' covers, so
    an order isomorphism."""
    for name, gp, m in _certified_inputs(corpus):
        assert validate_scheme(m.s, m.rho) == m, name
        assert is_simple(m), name
        p = gp.poset
        embed = {x: pair_id([a for a in gp.atoms() if p.leq(a, x)], x)
                 for x in p.elements}
        fl = flats(m)
        assert sorted(embed.values()) == sorted(fl.elements), name
        assert {(embed[a], embed[b]) for a, b in p.covers} == set(fl.poset.covers), name


def test_scheme_from_geometric_escapes_colliding_pair_ids():
    """Atoms "a,b", "c" and "a", "b,c" under one rank-2 flat x: the plain
    ids of ({a,b; c}, x) and ({a; b,c}, x) are both (a,b,c|x), so every
    pair id of the scheme escapes "\\", "," and "|" inside the ids."""
    atoms = ["a,b", "c", "a", "b,c"]
    rp = compute_rank(build_poset(["0", *atoms, "x"],
                                  [("0", a) for a in atoms] + [(a, "x") for a in atoms]))
    assert pair_id(["a,b", "c"], "x") == pair_id(["a", "b,c"], "x")
    m = scheme_from_geometric(validate_geometric(rp))
    assert len(set(m.elements)) == len(m.elements) == 16
    assert {"(|0)", "(a\\,b|a\\,b)", "(a\\,b,c|x)", "(a,b\\,c|x)"} <= set(m.elements)
    derived = verify_simplicial(compute_rank(build_poset(m.elements, m.poset.covers)))
    assert derived.support == m.s.support and derived.ranked.rank == m.s.ranked.rank
    assert validate_scheme(m.s, m.rho) == m
    assert is_simple(m)


def test_atom_cap_guard():
    rp = compute_rank(boolean_lattice(3))
    with pytest.raises(AtomCapExceeded):
        validate_geometric(rp, atom_cap=2)


def test_lattice_inputs_agree_with_classical_recognition(cw_l, notgeom_poset):
    # a lattice-shaped input passes validate_geometric iff it is a
    # geometric lattice
    lattice = compute_rank(boolean_lattice(3))
    assert bool(is_geometric_lattice(lattice)) == _passes(lattice)
    chain = compute_rank(build_poset(["0", "a", "t"], [("0", "a"), ("a", "t")]))
    assert bool(is_geometric_lattice(chain)) == _passes(chain)


def _passes(rp):
    try:
        validate_geometric(rp)
        return True
    except AxiomViolation:
        return False


def first_geometric_violation(rp, atom_cap=20):
    """("G1" or "G2", witness), "cap" or None, transcribed from the
    definitions: G1 on every maximal interval through is_geometric_lattice,
    maxima in declaration order, then G2 over every atom set of every size
    from rank(x) + 1 to the top rank."""
    p = rp.poset
    maxima = p.maximal_elements()
    for mx in maxima:
        check = is_geometric_lattice(rp.interval(rp.bottom, mx))
        if not check:
            return "G1", (mx, check.condition, check.witness)
    atoms = rp.atoms()
    if len(atoms) > atom_cap:
        return "cap"
    top_rank = max(rp.rank[mx] for mx in maxima)
    for x in p.elements:
        good = {a for a in atoms
                if not p.leq(a, x) and upper_bound_minima(p, [a, x])}
        for size in range(rp.rank[x] + 1, top_rank + 1):
            for A in itertools.combinations(atoms, size):
                if good.intersection(A):
                    continue
                for y in sorted(upper_bound_minima(p, A), key=p.index.get):
                    if rp.rank[y] == size:
                        return "G2", (x, frozenset(A), y)
    return None


def _geometric_outcome(rp):
    try:
        validate_geometric(rp)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    except AtomCapExceeded:
        return "cap"
    return None


def _random_graded(rng):
    """A bottom plus 1-3 levels of width 1-5, each element covering 1-3
    random elements of the level below, declared in shuffled order."""
    levels = [["0"]]
    covers = []
    for h in range(1, rng.randint(1, 3) + 1):
        level = [f"{h}.{k}" for k in range(rng.randint(1, 5))]
        for e in level:
            lower = levels[-1]
            covers += [(d, e) for d in rng.sample(lower, min(len(lower), rng.randint(1, 3)))]
        levels.append(level)
    els = [e for level in levels for e in level]
    rng.shuffle(els)
    return compute_rank(build_poset(els, covers))


def _perturbations(rng, fl):
    """The flats poset, then one cover dropped and one element added above
    two random elements; inputs that are no longer ranked posets with a
    bottom are skipped."""
    p = fl.poset
    yield fl
    covers = list(p.covers)
    dropped = covers[:]
    del dropped[rng.randrange(len(dropped))]
    a, b = rng.sample(p.elements, 2)
    for els, cov in ((p.elements, dropped),
                     (p.elements + ("new",), covers + [(a, "new"), (b, "new")])):
        try:
            yield compute_rank(build_poset(els, cov))
        except MschemeError:
            continue


def test_geometric_verdicts_match_definition_witnesses(corpus):
    """validate_geometric gives the verdict and first witness of the
    definitions on seeded random graded posets and on every corpus flats
    poset of 3-120 elements with seeded perturbations; each of G1 lattice,
    semimodular and atomic, G2 and valid occurs at least 50 times."""
    rng = random.Random(20240814)
    inputs = [_random_graded(rng) for _ in range(2000)]
    for name, m in corpus.schemes():
        fl = flats(m)
        if 3 <= len(fl.elements) <= 120:
            inputs += _perturbations(rng, fl)
    seen = Counter()
    for rp in inputs:
        expected = first_geometric_violation(rp)
        assert _geometric_outcome(rp) == expected, (rp.poset.elements, rp.poset.covers)
        kind = expected[0] if expected and expected != "cap" else expected
        if kind == "G1":
            kind = expected[1][1]
        seen[kind] += 1
    for kind in ("lattice", "semimodular", "atomic", "G2", None):
        assert seen[kind] >= 50, seen


def test_g1_sweep_without_witness_is_an_error(monkeypatch):
    """A local G1 check that fails where the interval sweep finds nothing
    raises InvariantBroken, not an assertion, so it holds under
    ``python -O``."""
    import mscheme.geometric
    monkeypatch.setattr(mscheme.geometric, "_g1_holds", lambda *args: False)
    with pytest.raises(InvariantBroken):
        validate_geometric(compute_rank(boolean_lattice(3)))
