"""Scheme axioms, closure/flats, independence cryptomorphism, minors."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mscheme
from mscheme import (
    AxiomViolation,
    InvariantBroken,
    MatroidScheme,
    MschemeError,
    NotAnAtom,
    RankNotConstantOnMax,
    UnknownIdentifier,
    bases,
    circuits,
    closure,
    contract,
    delete,
    flats,
    independence,
    is_simple,
    isthmuses,
    localization,
    loops,
    restrict,
    scheme_from_independence,
    scheme_rank,
    tutte_delcon,
    tutte_direct,
    validate_independence,
    validate_scheme,
    verify_simplicial,
    compute_rank,
    build_poset,
)
from mscheme.poset import Poset, _bits
from mscheme.scheme import _independent_mask, _labelled

import derived_oracle
from derived_oracle import (NotALoop, _meet_of_joinable, check_derived_axioms,
                            check_loop_del_contr)
from generators import small_posets
from referees import (down_set, left_class, lower_bound_maxima, m4_verdict_agrees,
                      scheme_from_independence_validated, shuffled, upper_bound_minima)


def make_scheme(elements, covers, rho):
    sp = verify_simplicial(compute_rank(build_poset(elements, covers)))
    return validate_scheme(sp, rho)


def _relabelled(m, x, value) -> tuple:
    """m's labels by element index with the label of x replaced, for a
    corrupted scheme built behind the validator."""
    i = m.poset.index[x]
    return m.rhos[:i] + (value,) + m.rhos[i + 1:]


@pytest.fixture(scope="module")
def loop_scheme():
    return make_scheme(["0", "a"], [("0", "a")], {"0": 0, "a": 0})


def test_fixtures_validate(isth, cw_l, cw_r, nonpos, dow_triv, dow_nontriv):
    for m in (isth, cw_l, cw_r, nonpos, dow_triv, dow_nontriv):
        assert isinstance(m, MatroidScheme)


def test_m4_negative_control(cw_r):
    """Lowering an atom label to 0 must trip the meet-join axiom, with a
    witness that re-verifies against the raw poset."""
    rho = dict(cw_r.rho)
    rho["1"] = 0
    with pytest.raises(AxiomViolation) as exc:
        validate_scheme(cw_r.s, rho)
    assert exc.value.axiom == "M4"
    x, y, l = exc.value.witness
    p = cw_r.poset
    assert l in lower_bound_maxima(p, [x, y])
    assert rho[x] == rho[l]
    assert upper_bound_minima(p, [x, y]) == frozenset()


def test_m5_negative_control(cw_r):
    rho = dict(cw_r.rho)
    rho["12"] = 2
    with pytest.raises(AxiomViolation) as exc:
        validate_scheme(cw_r.s, rho)
    assert exc.value.axiom == "M5"
    x, y = exc.value.witness
    p = cw_r.poset
    assert rho[x] < rho[y]
    for a in cw_r.atoms():
        assert not (p.leq(a, y) and not p.leq(a, x)
                    and upper_bound_minima(p, [x, a]))


def test_m1_m2_negative_controls(isth):
    rho = dict(isth.rho)
    rho["u"] = 3
    with pytest.raises(AxiomViolation) as exc:
        validate_scheme(isth.s, rho)
    assert exc.value.axiom == "M1"
    rho = dict(isth.rho)
    rho["u"] = 0
    with pytest.raises(AxiomViolation) as exc:
        validate_scheme(isth.s, rho)
    assert exc.value.axiom in ("M2", "M4")


def test_scheme_rank(isth, nonpos, loop_scheme):
    assert scheme_rank(isth) == 2
    assert scheme_rank(nonpos) == 3
    singleton = make_scheme(["0"], [], {"0": 0})
    assert scheme_rank(singleton) == 0
    assert scheme_rank(loop_scheme) == 0


def test_scheme_rank_refuses_ranks_that_vary_on_max(isth):
    broken = _labelled(isth, _relabelled(isth, "u", 1))
    with pytest.raises(RankNotConstantOnMax, match=r"\(\('u', 1\), \('v', 2\)\)"):
        scheme_rank(broken)


def test_localization(isth, nonpos):
    at_u = localization(isth, "u")
    assert set(at_u.elements) == {"0", "a", "b", "u"}
    assert scheme_rank(at_u) == 2 and len(at_u.atoms()) == 2
    at_bottom = localization(isth, "0")
    assert at_bottom.elements == ("0",)
    at_b1 = localization(nonpos, "b1")
    assert set(at_b1.elements) == {"0", "a1", "a2", "b1"}
    assert all(at_b1.rho[e] == at_b1.s.rank[e] for e in at_b1.elements)


def test_closure(cw_r, nonpos):
    assert closure(cw_r, "1") == "12"
    assert closure(cw_r, "3") == "34"
    for f in flats(cw_r).elements:
        assert closure(cw_r, f) == f
    for x in nonpos.elements:  # free labels: everything closed
        assert closure(nonpos, x) == x


def test_flats(cw_l, cw_r, isth):
    assert set(flats(cw_l).elements) == {"0", "1", "2", "3", "a", "123"}
    assert set(flats(cw_r).elements) == {"0", "12", "34"}
    assert set(flats(isth).elements) == set(isth.elements)


def test_independence_bases_circuits(cw_l, isth, loop_scheme):
    assert independence(cw_l) == frozenset(cw_l.elements) - {"123"}
    assert bases(cw_l) == {"12", "13", "23", "a"}
    assert circuits(cw_l) == {"123"}
    assert bases(isth) == {"u", "v"}
    assert circuits(isth) == frozenset()
    assert circuits(loop_scheme) == {"a"}


def test_ibc_consistency(cw_l, qfix2, dow_nontriv):
    for m in (cw_l, qfix2, dow_nontriv):
        ind = independence(m)
        p = m.poset
        assert bases(m) == {x for x in ind
                            if not any(y != x and p.leq(x, y) for y in ind)}
        for c in circuits(m):
            assert m.rho[c] == m.s.rank[c] - 1
            for y in down_set(p, c):
                if y != c:
                    assert m.rho[y] == m.s.rank[y]


def test_independence_round_trip(cw_l, cw_r, nonpos, qfix2):
    for m in (cw_l, cw_r, nonpos, qfix2):
        rebuilt = scheme_from_independence(m.s, independence(m))
        assert rebuilt == m


def test_independence_certificate_matches_the_validating_referee(corpus):
    """I1-I4 certify ``scheme_from_independence``: on the independence
    family of each corpus scheme of at most 600 elements and on 50 seeded
    down-closures of one to six of its elements each, it gives the scheme
    that ``scheme_from_independence_validated`` gives, or the same error,
    and the result's independence family is the input."""
    rng = random.Random(11)
    met = Counter()
    for name, m in corpus.schemes():
        p = m.poset
        n = len(p.elements)
        if n > 600:
            continue
        families = [tuple(sorted(independence(m), key=p.idx))]
        for _ in range(50):
            mask = 0
            for i in rng.sample(range(n), rng.randint(1, min(6, n))):
                mask |= p.below[i]
            families.append(p._ids(mask))
        for ind in families:
            try:
                want = scheme_from_independence_validated(m.s, ind)
            except MschemeError as exc:
                with pytest.raises(type(exc)) as got:
                    scheme_from_independence(m.s, ind)
                assert str(got.value) == str(exc), (name, ind)
                met[exc.axiom] += 1
                continue
            got = scheme_from_independence(m.s, ind)
            assert got == want and independence(got) == frozenset(ind), (name, ind)
            met["built"] += 1
    assert met["built"] >= 5000 and met["I3"] >= 1000 and met["I4"] >= 500, met


def test_independence_read_once(isth, cw_l):
    """An iterator of ids gives the scheme the list gives, and an unknown
    id from a generator is still named as unknown."""
    for m in (isth, cw_l):
        ind = sorted(independence(m))
        assert scheme_from_independence(m.s, iter(ind)) == scheme_from_independence(m.s, ind)
    with pytest.raises(UnknownIdentifier, match="unknown element 'zz'"):
        scheme_from_independence(isth.s, (x for x in ["0", "zz", "a"]))


def test_independence_of_trivial_set(isth):
    b2 = localization(isth, "u")  # a simplicial lattice host
    zero = scheme_from_independence(b2.s, {"0"})
    assert all(zero.rho[e] == 0 for e in zero.elements)


def test_independence_i4_violation(nonpos):
    # dropping one top leaves its bases below the other top
    ind = set(nonpos.elements) - {"v"}
    with pytest.raises(AxiomViolation) as exc:
        validate_independence(nonpos.s, ind)
    assert exc.value.axiom in ("I3", "I4")


def test_independence_i2_violation(isth):
    with pytest.raises(AxiomViolation) as exc:
        validate_independence(isth.s, {"0", "u"})
    assert exc.value.axiom == "I2"


# probe: the message of validate_independence on ids mostly unknown to isth
UNKNOWN_IDS_PROBE = """
from mscheme import UnknownIdentifier, files, validate_independence
m = files.load_scheme(files.resolve_input("isth.json"))
try:
    validate_independence(m.s, ["0", "zz", "yy", "xx", "a"])
except UnknownIdentifier as exc:
    print(exc)
"""


def test_validate_independence_names_the_first_unknown_id_under_every_hash_seed():
    """Of the ids given the first unknown one, in the order given, is named,
    so the message is the same whatever the string hash seed."""
    outs = set()
    for seed in "0123":
        run = subprocess.run([sys.executable, "-c", UNKNOWN_IDS_PROBE], capture_output=True,
                             text=True, timeout=60, env={**os.environ, "PYTHONHASHSEED": seed},
                             cwd=Path(mscheme.__file__).parents[1])
        assert run.returncode == 0, run.stderr
        outs.add(run.stdout)
    assert outs == {"unknown element 'zz' in independence set\n"}, outs


def test_derived_axioms_pass(isth, cw_l, cw_r, nonpos, qfix, qfix2):
    for m in (isth, cw_l, cw_r, nonpos, qfix, qfix2):
        assert check_derived_axioms(m).ok


def test_derived_axioms_catch_corruption(isth):
    """A deliberately corrupted label must produce a failing report."""
    broken = _labelled(isth, _relabelled(isth, "u", 1))
    report = check_derived_axioms(broken)
    assert not report.ok


def test_labels_are_read_only_views(isth, notgeom_poset):
    """``rho`` and ``rank`` read the label tuples by id and refuse writes,
    so a validated scheme stays as validated: both Tutte algorithms agree
    and the hash is unchanged after the attempt."""
    before = hash(isth)
    for view in (isth.rho, isth.s.rank, notgeom_poset.rank):
        with pytest.raises(TypeError):
            view[next(iter(view))] = 1
        with pytest.raises(TypeError):
            del view[next(iter(view))]
    assert tutte_direct(isth) == tutte_delcon(isth)
    assert hash(isth) == before
    assert dict(isth.rho) == dict(zip(isth.elements, isth.rhos))
    assert list(notgeom_poset.rank.values()) == list(notgeom_poset.ranks)
    assert isth.rho.get("missing", -1) == -1 and "missing" not in isth.rho


def test_closure_and_meet_checks_raise_not_assert(isth):
    """Where uniqueness fails, closure and the meet of a joinable pair raise
    InvariantBroken, which check_derived_axioms reports as CL_STRUCTURE
    also under ``python -O``."""
    level = _labelled(isth, (0,) * len(isth.elements))
    with pytest.raises(InvariantBroken, match="closure of '0' not unique"):
        closure(level, "0")
    assert check_derived_axioms(level).failures()["CL_STRUCTURE"]
    bowtie = build_poset(["0", "a", "b", "u", "v"], [
        ("0", "a"), ("0", "b"), ("a", "u"), ("b", "u"), ("a", "v"), ("b", "v")])
    with pytest.raises(InvariantBroken, match="not unique"):
        _meet_of_joinable(bowtie, "u", "v")


def test_loops_and_isthmuses(isth, nonpos, loop_scheme):
    assert loops(isth) == frozenset() and isthmuses(isth) == {"a", "b"}
    assert loops(loop_scheme) == {"a"}
    assert loops(nonpos) == frozenset()
    # every atom of the two-top rank-3 fixture lies below both bases
    assert isthmuses(nonpos) == {"a1", "a2", "a3"}


def test_bases_and_isthmuses_share_one_maximal_independent_mask(monkeypatch, corpus):
    """On a fresh copy of every corpus scheme, ``bases`` and ``isthmuses``,
    each read twice, sweep for the maximal independent elements once, and
    give the maximal independent elements and the atoms below all of
    them."""
    sweeps = []
    sweep = Poset.maximal_of_mask

    def counted(p, mask):
        sweeps.append(mask)
        return sweep(p, mask)

    monkeypatch.setattr(Poset, "maximal_of_mask", counted)
    for name, m in corpus.schemes():
        fresh = _labelled(m, m.rhos)
        p, ind = fresh.poset, _independent_mask(fresh)
        want_bases = frozenset(p.elements[i] for i in _bits(ind) if p.above[i] & ind == 1 << i)
        want_isthmuses = frozenset(a for a in fresh.atoms()
                                   if all(p.leq(a, b) for b in want_bases))
        sweeps.clear()
        got = bases(fresh), isthmuses(fresh), bases(fresh), isthmuses(fresh)
        assert got == (want_bases, want_isthmuses) * 2, name
        assert sweeps == [ind], name


def test_is_simple(cw_l, cw_r):
    assert is_simple(cw_l)
    assert not is_simple(cw_r)
    singleton = make_scheme(["0"], [], {"0": 0})
    assert is_simple(singleton)


def test_delete(isth, nonpos, loop_scheme):
    d = delete(isth, "a")
    assert d.elements == ("0", "b") and scheme_rank(d) == 1
    assert delete(loop_scheme, "a").elements == ("0",)
    d2 = delete(nonpos, "a1")
    assert len(d2.elements) == 5 and scheme_rank(d2) == 2
    with pytest.raises(NotAnAtom):
        delete(isth, "u")


def test_contract(isth, nonpos):
    c = contract(isth, "a")
    assert set(c.elements) == {"a", "u", "v"}
    assert [c.rho[e] for e in c.elements] == [0, 1, 1]
    assert contract(isth, "0") == isth
    c2 = contract(nonpos, "b1")
    assert set(c2.elements) == {"b1", "u"}
    assert [c2.rho[e] for e in sorted(c2.elements)] == [0, 1]
    from mscheme import UnknownIdentifier
    with pytest.raises(UnknownIdentifier):
        contract(isth, "zz")
    with pytest.raises(UnknownIdentifier):
        localization(isth, "zz")


def test_contraction_can_leave_the_class(nonpos):
    """Contracting by an atom of the two-top fixture breaks the
    atom-exchange axiom: the up-set splits into two fans with no common
    upper bounds."""
    c = contract(nonpos, "a1")
    with pytest.raises(AxiomViolation) as exc:
        validate_scheme(c.s, c.rho)
    assert exc.value.axiom == "M5"


def test_restrict(isth, nonpos):
    r = restrict(isth, ["a"])
    assert r.elements == ("0", "a")
    assert restrict(isth, isth.atoms()) == isth
    r2 = restrict(nonpos, ["a1", "a2"])
    assert set(r2.elements) == {"0", "a1", "a2", "b1", "c1"}
    assert sorted(r2.rho[e] for e in r2.elements) == [0, 1, 1, 2, 2]
    with pytest.raises(NotAnAtom):
        restrict(isth, ["zz"])


def test_deletion_rank_rule(corpus):
    """Deleting an atom lowers the rank by one exactly when the atom is an
    isthmus."""
    for name, m in corpus.schemes():
        iths = isthmuses(m)
        r = scheme_rank(m)
        for a in m.atoms():
            assert scheme_rank(delete(m, a)) == r - (a in iths), (name, a)


def test_restriction_is_iterated_deletion(corpus):
    """Restricting to an atom set equals deleting the other atoms one by one
    (no atoms, all atoms and one seeded random subset per scheme)."""
    rng = random.Random(20240814)
    for name, m in corpus.schemes():
        if len(m.elements) > 64:
            continue
        atoms = m.atoms()
        for kept in ((), atoms, tuple(a for a in atoms if rng.random() < 0.5)):
            alt = m
            for a in atoms:
                if a not in kept:
                    alt = delete(alt, a)
            assert restrict(m, kept) == alt, (name, kept)


def test_delete_commutes(cw_l, dow_nontriv):
    for m in (cw_l, dow_nontriv):
        for a, b in itertools.combinations(m.atoms(), 2):
            assert delete(delete(m, a), b) == delete(delete(m, b), a)


def test_check_loop_del_contr(loop_scheme, qfix2, isth):
    phi = check_loop_del_contr(loop_scheme, "a")
    assert phi == {"a": "0"}
    lp = next(iter(loops(qfix2)))
    phi2 = check_loop_del_contr(qfix2, lp)
    assert len(phi2) == len(qfix2.elements) // 2
    with pytest.raises(NotALoop):
        check_loop_del_contr(isth, "a")
    # and indeed the deletion and contraction by the isthmus differ
    from mscheme import scheme_isomorphism
    assert scheme_isomorphism(delete(isth, "a"), contract(isth, "a")) is None


def test_loop_del_contr_checks_raise_not_assert(monkeypatch, loop_scheme, qfix2):
    """The three checks of check_loop_del_contr are explicit raises, so they
    hold under ``python -O``."""
    relabelled = _labelled(loop_scheme, (1, 0))  # "0": 1, "a": 0
    with pytest.raises(InvariantBroken, match="rank preserving"):
        check_loop_del_contr(relabelled, "a")
    p = qfix2.poset
    lp = min(loops(qfix2), key=p.idx)
    phi = check_loop_del_contr(qfix2, lp)
    top = max(phi, key=p.idx)
    swapped = {**phi, lp: phi[top], top: phi[lp]}  # still a bijection
    with monkeypatch.context() as mp:
        mp.setattr(derived_oracle, "complement", lambda s, z, a: s.bottom)
        with pytest.raises(InvariantBroken, match="bijection"):
            check_loop_del_contr(qfix2, lp)
    monkeypatch.setattr(derived_oracle, "complement", lambda s, z, a: swapped[z])
    with pytest.raises(InvariantBroken, match="order iso"):
        check_loop_del_contr(qfix2, lp)


# --- witness referee: the validators against the definitions ----------------

REFEREE_SIZE_LIMIT = 80


def _in_order(p, ids):
    return sorted(ids, key=p.index.get)


def _atom_count(sp, x):
    return sum(sp.poset.leq(a, x) for a in sp.atoms())


def first_violation(sp, rho):
    """(axiom, witness) of the first M1-M5 failure in axiom order, then
    declaration order, or None; transcribed from the definitions."""
    p = sp.poset
    els = p.elements
    atoms = sp.atoms()
    for x in els:
        if not 0 <= rho[x] <= _atom_count(sp, x):
            return "M1", (x,)
    for x in els:
        for y in els:
            if x != y and p.leq(x, y) and rho[x] > rho[y]:
                return "M2", (x, y)
    for x, y in itertools.combinations(els, 2):
        ups = _in_order(p, upper_bound_minima(p, [x, y]))
        if ups:
            # a joinable pair has one meet in a simplicial poset
            (m,) = lower_bound_maxima(p, [x, y])
            for u in ups:
                if rho[x] + rho[y] < rho[u] + rho[m]:
                    return "M3", (x, y, u, m)
    for x in els:
        for y in els:
            if x != y and not upper_bound_minima(p, [x, y]):
                for l in _in_order(p, lower_bound_maxima(p, [x, y])):
                    if rho[x] == rho[l]:
                        return "M4", (x, y, l)
    for x in els:
        for y in els:
            if rho[x] < rho[y] and not any(
                    p.leq(a, y) and not p.leq(a, x)
                    and upper_bound_minima(p, [x, a]) for a in atoms):
                return "M5", (x, y)
    return None


def first_independence_violation(sp, ind):
    """(axiom, witness) of the first I1-I4 failure, or None; transcribed
    from the definitions."""
    p = sp.poset
    els = p.elements
    atoms = sp.atoms()
    if not ind:
        return "I1", ()
    for y in els:
        if y in ind:
            for x in els:
                if p.leq(x, y) and x not in ind:
                    return "I2", (x, y)
    for x in els:
        for y in els:
            if (x in ind and y in ind
                    and _atom_count(sp, x) < _atom_count(sp, y)
                    and not any(p.leq(a, y) and not p.leq(a, x)
                                and upper_bound_minima(p, [x, a])
                                and upper_bound_minima(p, [x, a]) <= ind
                                for a in atoms)):
                return "I3", (x, y)
    for x in els:
        below = [z for z in els if z in ind and p.leq(z, x)]
        tops = [z for z in below
                if not any(w != z and p.leq(z, w) for w in below)]
        for y in els:
            if not upper_bound_minima(p, [x, y]):
                for z in tops:
                    if p.leq(z, y):
                        return "I4", (x, y, z)
    return None


def _raised(validator, *args):
    try:
        validator(*args)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


def _independence_corruptions(rng, m):
    """The independence set itself, then sets that keep or break I2: one
    basis dropped, one circuit added, the down-closure of a random subset
    and a random subset."""
    p = m.poset
    ind = set(independence(m))
    yield ind
    bs = _in_order(p, bases(m))
    yield ind - {rng.choice(bs)}
    cs = _in_order(p, circuits(m))
    if cs:
        yield ind | {rng.choice(cs)}
    picked = [e for e in m.elements if rng.random() < 0.3]
    yield {x for e in picked for x in down_set(p, e)}
    yield set(picked)


def test_validators_match_definition_witnesses(corpus):
    """On seeded corruptions of every corpus scheme up to
    REFEREE_SIZE_LIMIT elements, validate_scheme and validate_independence
    raise the first (axiom, witness) of the definitions."""
    rng = random.Random(20240814)
    seen = set()
    for name, m in corpus.schemes():
        if len(m.elements) > REFEREE_SIZE_LIMIT:
            continue
        sp = m.s
        for e in [None] + rng.sample(m.elements, min(4, len(m.elements))):
            rho = dict(m.rho)
            if e is not None:
                rho[e] += rng.choice((-1, 1))
            expected = first_violation(sp, rho)
            assert _raised(validate_scheme, sp, rho) == expected, (name, e)
            seen.add(expected and expected[0])
        for ind in _independence_corruptions(rng, m):
            expected = first_independence_violation(sp, ind)
            assert _raised(validate_independence, sp, ind) == expected, \
                (name, sorted(ind, key=m.poset.index.get))
            seen.add(expected and expected[0])
    assert {"M1", "M2", "M3", "M4", "M5", "I1", "I2", "I3", "I4"} <= seen, seen


def test_every_labelling_of_every_small_simplicial_poset():
    """Bounded-exhaustive floor (the small-scope hypothesis): on every
    simplicial poset among the posets with a bottom on up to 7 elements,
    every labelling with 0 <= rho(x) <= |x| + 1 (up to 6 elements) or
    <= |x| (7 elements) makes ``validate_scheme`` raise the first
    (axiom, witness) of the definitions, or nothing where they find none.
    The counts at 6 and 7 elements pin the enumeration."""
    counts = {}
    for n in range(1, 8):
        extra = n < 7  # rho may pass |x| by one, so that M1 fails too
        seen = Counter()
        for elements, covers in small_posets(n):
            try:
                sp = verify_simplicial(compute_rank(build_poset(elements, covers)))
            except MschemeError:
                continue
            seen["posets"] += 1
            for values in itertools.product(*(range(k + 1 + extra) for k in sp.ranks)):
                rho = dict(zip(elements, values))
                expected = first_violation(sp, rho)
                assert _raised(validate_scheme, sp, rho) == expected, (covers, values)
                seen[expected and expected[0]] += 1
        counts[n] = seen
    assert counts[7]["posets"] == 135 and counts[7][None] == 66, counts[7]
    assert sum(counts[7].values()) - 135 == 21460, counts[7]
    assert sum(counts[6].values()) - counts[6]["posets"] == 19350, counts[6]
    assert {"M2", "M3", "M4", "M5"} <= set(counts[7]) and "M1" in counts[6], counts


def test_m4_by_lower_covers_matches_the_union_form(corpus, nonpos):
    """M4 read from one sweep up the lower covers gives the verdict and
    the first witness of one ``_union`` of up-sets per element, on every
    corpus scheme and a shuffled copy, the contractions of the two-top
    fixture that break the axioms, and seeded relabellings of each: every
    truncation min(rho, k), which keeps M1 and M2 and breaks M4 on many
    schemes with two maximal elements, and rho nudged by +-1 at a few
    elements."""
    rng = random.Random(20261020)
    outcomes = []
    for name, m in corpus.schemes() + shuffled(corpus, rng) + left_class(nonpos):
        sp = m.s
        labellings = [dict(m.rho)]
        labellings += [{e: min(v, k) for e, v in m.rho.items()} for k in range(max(m.rhos))]
        for e in rng.sample(m.elements, min(3, len(m.elements))):
            labellings.append({**m.rho, e: m.rho[e] + rng.choice((-1, 1))})
        for rho in labellings:
            outcomes.append(m4_verdict_agrees(sp, rho))
    assert outcomes.count(True) >= 200 and outcomes.count(False) >= 500, (
        outcomes.count(True), outcomes.count(False))


def diamonds(p):
    """Every (l, u, v, w) with u before v, both covering l and covered by w;
    read off the Hasse diagram."""
    out = []
    for w in p.elements:
        lower = [u for u, t in p.covers if t == w]
        for u, v in itertools.combinations(lower, 2):
            for l, t in p.covers:
                if t == u and (l, v) in p.covers:
                    out.append((l, u, v, w))
    return out


def test_diamond_corruptions_match_definition_witnesses(corpus):
    """In every corpus scheme up to REFEREE_SIZE_LIMIT elements, take the
    rho nudged by +-1 at one element that keep M1 and M2 and break the
    fewest diamonds (rho(u) + rho(v) < rho(w) + rho(l)): validate_scheme
    raises the first M3 witness of the definitions.  In many schemes the
    fewest is a single diamond."""
    rng = random.Random(20240815)
    checked = single = 0
    for name, m in corpus.schemes():
        if len(m.elements) > REFEREE_SIZE_LIMIT:
            continue
        sp, p = m.s, m.poset
        dias = diamonds(p)
        by_count = {}
        for e, d in itertools.product(m.elements, (-1, 1)):
            rho = dict(m.rho)
            rho[e] += d
            if (not 0 <= rho[e] <= _atom_count(sp, e)
                    or any(rho[a] > rho[b] for a, b in p.covers)):
                continue
            broken = sum(rho[u] + rho[v] < rho[w] + rho[l] for l, u, v, w in dias)
            if broken:
                by_count.setdefault(broken, []).append(rho)
        if not by_count:
            continue
        fewest = by_count[min(by_count)]
        single += min(by_count) == 1
        for rho in rng.sample(fewest, min(2, len(fewest))):
            expected = first_violation(sp, rho)
            assert expected[0] == "M3", (name, expected)
            assert _raised(validate_scheme, sp, rho) == expected, name
            checked += 1
    assert checked >= 100 and single >= 20, (checked, single)


def test_m3_sweep_without_witness_is_an_error(monkeypatch, cw_l):
    """A diamond check that fails where the pair sweep finds nothing raises
    ``InvariantBroken``, not an assertion or a verdict, so it holds under
    ``python -O``."""
    import mscheme.scheme
    monkeypatch.setattr(mscheme.scheme, "_diamonds_hold", lambda *args: False)
    with pytest.raises(InvariantBroken, match="M3 fails on a diamond but on no joinable pair"):
        validate_scheme(cw_l.s, cw_l.rho)
