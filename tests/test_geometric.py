"""Geometric posets and the simple-scheme equivalence."""

import functools
import itertools
import operator
import random
from collections import Counter

import pytest

import mscheme.geometric
from mscheme import (
    AtomCapExceeded,
    AxiomViolation,
    InvariantBroken,
    MschemeError,
    NotRanked,
    NotSimple,
    SizeCapExceeded,
    build_poset,
    check_uniqueness,
    GroupAction,
    compute_rank,
    cyclic_group,
    dowling_geometric,
    dowling_poset,
    flats,
    find_isomorphism,
    is_geometric_lattice,
    is_simple,
    iter_isomorphisms,
    layers_poset,
    linear_matroid,
    quotient_scheme,
    scheme_from_geometric,
    scheme_from_matroid,
    scheme_from_semimatroid,
    scheme_isomorphism,
    simplification,
    trivial_action,
    validate_geometric,
    verify_simplicial,
    validate_scheme,
)
from mscheme import files
from mscheme.geometric import _escaped_pair_id, _walk, pair_id
from mscheme.poset import _atoms, _bits, _maxima
from mscheme.scheme import _closure_map, _joinable

from generators import dowling_inputs, small_posets
from referees import (
    atom_sets,
    depth_first_walk,
    g2_every_size,
    lift_by_atom_joins,
    shuffled,
    upper_bound_minima,
)
from test_poset import boolean_lattice
from test_toric import _catalogue_arrangements, _seeded_arrangements


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
    assert all(m.rho[e] == m.s.rank[e] for e in m.elements)


def test_element_cap_bounds_every_scheme_built_from_a_geometric_poset(
        monkeypatch, cw_r, toric1):
    """With ``errors.ELEMENT_CAP`` equal to the scheme's size it is
    built; one less is refused, through ``scheme_from_geometric`` and the
    three entry points that build with it."""
    import mscheme.errors
    gp = validate_geometric(flats(cw_r))
    builds = (lambda: scheme_from_geometric(gp),
              lambda: simplification(cw_r),
              lambda: layers_poset(toric1).scheme,
              lambda: dowling_poset(2, trivial_action(cyclic_group(2), ["+1", "-1"]))[1])
    for build in builds:
        size = len(build().elements)
        monkeypatch.setattr(mscheme.errors, "ELEMENT_CAP", size)
        assert len(build().elements) == size
        monkeypatch.setattr(mscheme.errors, "ELEMENT_CAP", size - 1)
        with pytest.raises(SizeCapExceeded) as err:
            build()
        assert (err.value.count, err.value.cap) == (size, size - 1)
        monkeypatch.undo()


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


def test_check_uniqueness_matches_the_lift_by_atom_joins(corpus):
    """The lift read from the (atom mask, closure) table is the one the
    minimal upper bounds of the atoms' images give, in the same order: on
    the simplification of each corpus scheme of up to 400 elements against
    that of the same scheme declared in a shuffled order, and against the
    next simplification of the same size, which need not be isomorphic."""
    rng = random.Random("check-uniqueness")
    simple = [simplification(m) for name, m in shuffled(corpus, rng) if len(m.elements) <= 400]
    originals = [simplification(m) for name, m in corpus.schemes() if len(m.elements) <= 400]
    pairs = list(zip(originals, simple))
    pairs += [(s, t) for s, t in zip(originals, originals[1:])
              if len(s.elements) == len(t.elements)]
    for s, t in pairs:
        want = lift_by_atom_joins(s, t)
        got = check_uniqueness(s, t)
        assert got == want and (got is None or list(got) == list(want)), (s, t)
    assert sum(lift_by_atom_joins(s, t) is None for s, t in pairs) >= 1


def test_check_uniqueness_searches_once_when_not_isomorphic(monkeypatch, dow_triv, dow_nontriv):
    """On simple schemes whose flats are not isomorphic, the one search
    ``check_uniqueness`` runs ends empty and the answer is None, with no
    second search to learn that none was found."""
    import mscheme.geometric
    import mscheme.poset
    searches = []

    def counted(*args, **kwargs):
        searches.append(args)
        return iter_isomorphisms(*args, **kwargs)

    for module in (mscheme.geometric, mscheme.poset):
        monkeypatch.setattr(module, "iter_isomorphisms", counted)
    assert check_uniqueness(dow_triv, dow_nontriv) is None
    assert len(searches) == 1, searches


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
        assert find_isomorphism(flats(rebuilt), gp) is not None
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


def _subset_enumeration(gp):
    """``scheme_from_geometric`` as it was before the cover walk, kept as
    its referee: every set I of atoms below each x is tested for x
    minimal above I, and the covers of (I, x) are the (I + a, y) with y
    minimal above x and a, sorted.  Returns the ids, the index cover
    pairs, the atom sets as masks and rho."""
    rp = gp
    p = rp.poset
    els = p.elements
    above, below = p.above, p.below
    atoms = sorted(p.index[a] for a in rp.atoms())
    index = {}  # (atom mask I, poset index x) -> pair index
    for x in range(len(els)):
        candidates = [a for a in atoms if below[x] >> a & 1]
        for size in range(len(candidates) + 1):
            for combo in itertools.combinations(candidates, size):
                if functools.reduce(operator.and_, (above[a] for a in combo), below[x]) == 1 << x:
                    index[(sum(1 << a for a in combo), x)] = len(index)
    pairs = list(index)
    names = [[els[a] for a in atoms if I >> a & 1] for I, _ in pairs]
    ids = [pair_id(A, els[x]) for A, (_, x) in zip(names, pairs)]
    if len(set(ids)) != len(ids):
        ids = [_escaped_pair_id(A, els[x]) for A, (_, x) in zip(names, pairs)]
    joins = [{a: tuple(_bits(p.minimal_of_mask(above[x] & above[a]))) for a in atoms}
             for x in range(len(els))]
    covers = sorted((k, index[(I | 1 << a, y)])
                    for k, (I, x) in enumerate(pairs)
                    for a in atoms if not I >> a & 1
                    for y in joins[x][a])
    support = [sum(1 << index[(1 << a, a)] for a in atoms if I >> a & 1) for I, _ in pairs]
    rho = {pid: rp.rank[els[x]] for pid, (_, x) in zip(ids, pairs)}
    return ids, covers, support, rho


def _large_dowling_inputs():
    """The n = 3 Dowling posets over Z2 with one and two points and over
    Z3 rotating three points: 512-, 1073- and 1216-element schemes."""
    z2, z3 = cyclic_group(2), cyclic_group(3)
    g, pts = z3.elements, ["p0", "p1", "p2"]
    rot3 = GroupAction(z3, pts, {(g[i], pts[j]): pts[(i + j) % 3]
                                 for i in range(3) for j in range(3)})
    for label, act in (("z2_one", trivial_action(z2, ["p0"])),
                       ("z2_two", trivial_action(z2, ["p0", "p1"])), ("z3_rot3", rot3)):
        yield label, dowling_geometric(3, act)


def test_cover_walk_matches_subset_enumeration(corpus):
    """The walk gives the pairs, ids, cover pairs, atom sets and rho of
    the subset enumeration it replaced, on every corpus flats poset,
    Dowling input and toric layer poset, and on three large Dowling
    posets."""
    cases = [(label, gp, m) for label, gp, m in _certified_inputs(corpus)]
    cases += [(label, gp, scheme_from_geometric(gp)) for label, gp in _large_dowling_inputs()]
    assert sorted(len(m.elements) for _, _, m in cases)[-3:] == [512, 1073, 1216]
    for label, gp, m in cases:
        ids, covers, support, rho = _subset_enumeration(gp)
        assert m.elements == tuple(ids), label
        assert m.poset.pairs == tuple(covers), label
        assert atom_sets(m.s) == tuple(support), label
        assert m.rho == rho, label


def test_breadth_first_walk_matches_the_depth_first_referee(corpus, monkeypatch):
    """The breadth-first ``_walk`` gives the pairs, in order, the cover
    pairs and the closure map of the depth-first walk it replaced
    (``referees.depth_first_walk``): on every corpus flats poset, Dowling
    input and arrangement, the Dowling catalogue, the three large Dowling
    posets, the toric catalogue and seeded arrangements in ranks 1 to 4.
    Under a cap below a poset's pair count both refuse it, naming the
    cap plus one."""
    gps = [gp for _, gp, _ in _certified_inputs(corpus)]
    gps += [dowling_geometric(n, act) for _, n, act in _dowling_catalogue()]
    gps += [gp for _, gp in _large_dowling_inputs()]
    gps += [layers_poset(arr).geometric
            for arr in _catalogue_arrangements() + _seeded_arrangements((1, 2, 3, 4), 120)]
    pairs = 0
    for gp in gps:
        args = (gp.poset, _atoms(gp.ranks), gp.poset.order[0])
        walked = _walk(*args)
        assert walked == depth_first_walk(*args), gp.elements
        pairs += len(walked[0])
    assert len(gps) > 300 and pairs > 9_000, (len(gps), pairs)
    for gp in gps[-40:]:
        args = (gp.poset, _atoms(gp.ranks), gp.poset.order[0])
        cap = len(_walk(*args)[0]) // 2
        with monkeypatch.context() as mp:
            mp.setattr(mscheme.errors, "ELEMENT_CAP", cap)
            for walk in (_walk, depth_first_walk):
                with pytest.raises(SizeCapExceeded, match=f"at least {cap + 1} exceeds"):
                    walk(*args)


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
    assert atom_sets(derived) == atom_sets(m.s) and derived.rank == m.s.rank
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


def _shipped_fixture_posets():
    """(label, ranked poset) for every shipped fixture that gives one: the
    flats of the scheme fixtures and of the schemes built from the matrix,
    semimatroid and quotient fixtures, the poset fixture, the layers of
    both arrangements, and the Dowling posets over z2 with both actions
    for n = 2 and 3."""
    def load(name):
        return files.resolve_input(f"{name}.json")

    out = [(name, flats(files.load_scheme(load(name))))
           for name in ("isth", "cw_l", "cw_r", "nonpos", "qfix", "qfix2", "dow_triv",
                        "dow_nontriv")]
    out.append(("notgeom", files.load_ranked_poset(load("notgeom"))))
    z2 = files.load_group(load("z2"))
    schemes = [("i2", scheme_from_matroid(linear_matroid(*files.load_matrix(load("i2")))))]
    for semi, action in (("semi4", "z2_swap"), ("semi4c", "z2_swap_c")):
        sm = files.load_semimatroid(load(semi))
        schemes.append((semi, scheme_from_semimatroid(sm)))
        schemes.append((action, quotient_scheme(sm, files.load_action(load(action), z2)).scheme))
    out += [(label, flats(m)) for label, m in schemes]
    for name in ("toric1", "toric3"):
        out.append((name, layers_poset(files.load_arrangement(load(name))).geometric))
    for action in ("t2_trivial", "t2_nontrivial"):
        act = files.load_action(load(action), z2)
        out += [(f"{action}_n{n}", dowling_geometric(n, act)) for n in (2, 3)]
    return out


def _dowling_catalogue():
    """(label, n, action) of the benchmark's Dowling catalogue: for n = 2,
    Z1, Z2 and Z3 acting trivially on one to three points, Z2 swapping two
    points with and without a third fixed, and Z3 rotating three points;
    for n = 3, Z1 on one to three points."""
    pts = ["p0", "p1", "p2"]
    out = [(f"z{k}_trivial{p}", 2, trivial_action(cyclic_group(k), pts[:p]))
           for k in (1, 2, 3) for p in (1, 2, 3)]
    z2, z3 = cyclic_group(2), cyclic_group(3)
    swap = {"p0": "p1", "p1": "p0", "p2": "p2"}
    for p in (2, 3):
        act = {("e", q): q for q in pts[:p]} | {("g", q): swap[q] for q in pts[:p]}
        out.append((f"swap2_of_{p}", 2, GroupAction(z2, pts[:p], act)))
    g = z3.elements
    out.append(("rot3", 2, GroupAction(z3, pts, {(g[i], pts[j]): pts[(i + j) % 3]
                                                 for i in range(3) for j in range(3)})))
    out += [(f"n3_trivial{p}", 3, trivial_action(cyclic_group(1), pts[:p])) for p in (1, 2, 3)]
    return out


def _glued_lattices(rng):
    """Two or three geometric lattices glued at their bottoms and at the
    atoms they share, declared in shuffled order: the flats of U(r, S) for
    a set S of 2-5 of seven atoms and 2 <= r <= |S|.  Each maximal interval
    is one of the lattices, so G1 holds, and G2 mostly fails."""
    atoms = [f"a{i}" for i in range(7)]
    els, covers = {"0"}, set()
    for k in range(rng.randint(2, 3)):
        S = sorted(rng.sample(atoms, rng.randint(2, 5)))
        r = rng.randint(2, len(S))

        def name(T):
            return "0" if not T else T[0] if len(T) == 1 else f"{k}:{'+'.join(T)}"

        top = f"{k}:top"
        els.add(top)
        for size in range(r):
            for T in itertools.combinations(S, size):
                els.add(name(T))
                if size + 1 == r:
                    covers.add((name(T), top))
                else:
                    covers |= {(name(T), name(tuple(sorted(T + (a,))))) for a in S if a not in T}
    els = sorted(els)
    rng.shuffle(els)
    return compute_rank(build_poset(els, sorted(covers)))


def _more_than_one_size(rp, x) -> bool:
    """Whether the sizes rank(x) + 1 to the top rank, capped by the number
    of atoms that can fail G2 for x, are more than one."""
    p = rp.poset
    i, r = p.index[x], rp.ranks
    bad = _atoms(r) & (p.below[i] | ~_joinable(p)[i])
    return r[i] + 2 <= min(max(r[j] for j in _maxima(p)), bad.bit_count())


def test_g2_at_one_size_matches_the_every_size_referee(corpus):
    """G2 swept at size rank(x) + 1 alone gives the verdict and witness of
    the sweep over every size (``referees.g2_every_size``): on every corpus
    flats poset, every shipped fixture, the Dowling and toric catalogues,
    and on seeded glued lattices, G1-valid, of which at least 200 fail G2
    and at least 50 for an x where the sizes to sweep are more than one."""
    fixtures = _shipped_fixture_posets()
    cases = [(name, flats(m)) for name, m in corpus.schemes()] + fixtures
    cases += [(label, dowling_geometric(n, act))
              for label, n, act in dowling_inputs() + _dowling_catalogue()]
    cases += [(str(arr.characters), layers_poset(arr).geometric)
              for arr in _catalogue_arrangements()]
    rng = random.Random(20261030)
    fuzzed = [(f"glued {k}", _glued_lattices(rng)) for k in range(400)]
    failing = several = 0
    for label, rp in cases + fuzzed:
        expected = g2_every_size(rp)
        outcome = _geometric_outcome(rp)
        assert outcome == (expected and ("G2", expected)), label
        if expected and label.startswith("glued"):
            failing += 1
            several += _more_than_one_size(rp, expected[0])
    assert _geometric_outcome(dict(fixtures)["notgeom"])[0] == "G2"
    assert failing >= 200 and several >= 50, (failing, several)


def test_walk_fills_the_closure_map(corpus):
    """The closure map that ``scheme_from_geometric`` fills from its walk
    is ``_closure_map`` recomputed with the cache cleared, and
    ``layers_poset`` names each layer's flat as that map does: on every
    corpus flats poset, Dowling input and arrangement, the Dowling
    catalogue and the toric catalogue."""
    cases = list(_certified_inputs(corpus))
    cases += [(label, None, scheme_from_geometric(dowling_geometric(n, act)))
              for label, n, act in _dowling_catalogue()]
    for label, _, m in cases:
        filled = m._closure
        m._closure = None
        assert filled == _closure_map(m), label
    for arr in [arr for _, arr in corpus.arrangements] + _catalogue_arrangements():
        result = layers_poset(arr)
        m = result.scheme
        m._closure = None
        flat = [e for i, (e, c) in enumerate(zip(m.elements, _closure_map(m))) if c == i]
        assert result.scheme_element_of == dict(zip(result.geometric.elements, flat))


def test_every_small_poset_against_the_equivalence():
    """Bounded-exhaustive floor (the small-scope hypothesis): every poset
    with a bottom on up to 7 elements goes through ``build_poset``,
    ``compute_rank`` and ``validate_geometric``.  Where G1 holds, the
    first G2 witness, or none, is the one a sweep over every size names
    (``referees.g2_every_size``); and each geometric poset is the flats
    poset of the simple scheme built from it, as the paper's equivalence
    says.  The outcome counts at 7 elements pin the enumeration."""
    for n in range(1, 8):
        seen = Counter()
        for elements, covers in small_posets(n):
            try:
                rp = compute_rank(build_poset(elements, covers))
            except NotRanked:
                seen["not ranked"] += 1
                continue
            try:
                gp = validate_geometric(rp)
            except AxiomViolation as exc:
                seen[exc.axiom] += 1
                if exc.axiom == "G2":
                    assert exc.witness == g2_every_size(rp), covers
                continue
            assert g2_every_size(rp) is None, covers
            assert find_isomorphism(flats(scheme_from_geometric(gp)), gp) is not None, covers
            seen["geometric"] += 1
    assert seen == {"not ranked": 1889, "G1": 2609, "G2": 203, "geometric": 123}, seen
