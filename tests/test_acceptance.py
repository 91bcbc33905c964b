"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 1 contains one deliberately failing assertion kept as a strict
expected failure: the stated Tutte polynomial for the color-swapping
rank-2 partition scheme (x^2+4*x+1+4*y) is arithmetically impossible,
since T(2,2) must equal the element count (23, forcing constant 3 given
the other coefficients) and (-1)^rank T(1-t,0) must equal the fixture's
characteristic polynomial t^2-6*t+8 (forcing the same).  The companion
test pins the value consistent with those identities.
"""

from fractions import Fraction

import pytest

from mscheme import (
    AxiomViolation,
    Character,
    bases,
    build_poset,
    characteristic_polynomial,
    charpoly_identity,
    compute_rank,
    contract,
    delete,
    find_isomorphism,
    flats,
    independence,
    is_simple,
    layers_poset,
    loops,
    quotient_scheme,
    scheme_from_geometric,
    scheme_from_independence,
    scheme_isomorphism,
    scheme_rank,
    tutte_delcon,
    tutte_direct,
    validate_geometric,
    validate_scheme,
    verify_simplicial,
    verify_thm_arr,
)
from mscheme import files
from mscheme.polynomials import BivariatePolynomial, one_minus_t
from derived_oracle import check_derived_axioms, check_loop_del_contr
from grid_oracle import check_arrangement
from referees import (lower_bound_maxima, quotient_subset_identities, tutte_point_checks,
                      upper_bound_minima)

BIG = 400  # elements; schemes above this are exercised by cheap checks only


def ok(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_01_exact_tutte_values(isth, nonpos, dow_triv, dow_nontriv):
    expectations = [
        (isth, "x^2 + 1"),
        (nonpos, "x^3 + 3*x - 2"),
        (dow_triv, "x^2 + 4*x + 3 + 4*y + 2*y^2"),
    ]
    for m, want in expectations:
        assert str(tutte_direct(m)) == want
        assert str(tutte_delcon(m)) == want
    ok(1, "Tutte values exact by both algorithms on the three consistent fixtures")


@pytest.mark.xfail(strict=True, reason=(
    "stated value x^2+4*x+1+4*y contradicts T(2,2)=|S|=23 and "
    "(-1)^rank T(1-t,0)=t^2-6*t+8; both force x^2+4*x+3+4*y"))
def test_criterion_01_swapping_fixture_stated_value(dow_nontriv):
    assert str(tutte_direct(dow_nontriv)) == "x^2 + 4*x + 1 + 4*y"


def test_criterion_01_swapping_fixture_consistent_value(dow_nontriv):
    want = "x^2 + 4*x + 3 + 4*y"
    assert str(tutte_direct(dow_nontriv)) == want
    assert str(tutte_delcon(dow_nontriv)) == want
    t = tutte_direct(dow_nontriv)
    assert t(2, 2) == len(dow_nontriv.elements) == 23
    assert str(t.substitute(one_minus_t(), 0)) == "t^2 - 6*t + 8"
    ok(1, "color-swapping fixture pinned to the internally consistent Tutte value")


def test_criterion_02_characteristic_polynomial(dow_triv, dow_nontriv):
    for m in (dow_triv, dow_nontriv):
        via_mobius = characteristic_polynomial(flats(m))
        via_tutte = tutte_direct(m).substitute(one_minus_t(), 0) * (
            (-1) ** scheme_rank(m))
        both = charpoly_identity(m)  # raises InvariantBroken unless the two routes agree
        assert str(via_mobius) == str(via_tutte) == str(both) == "t^2 - 6*t + 8"
    ok(2, "chi = t^2 - 6*t + 8 for both partition fixtures via Moebius and Tutte")


def test_criterion_03_worked_deletion_contraction(isth):
    t_del = tutte_direct(delete(isth, "a"))
    t_con = tutte_direct(contract(isth, "a"))
    assert str(t_del) == "x"
    assert str(t_con) == "x + 1"
    x1 = BivariatePolynomial({(1, 0): 1, (0, 0): -1})
    assert x1 * t_del + t_con == tutte_direct(isth) == BivariatePolynomial(
        {(2, 0): 1, (0, 0): 1})
    ok(3, "worked split: T(M-a) = x, T(M/a) = x + 1, total (x-1)x + (x+1) = x^2+1")


def test_criterion_04_negative_controls(cw_r, notgeom_poset):
    rho = dict(cw_r.rho)
    rho["1"] = 0
    with pytest.raises(AxiomViolation) as exc:
        validate_scheme(cw_r.s, rho)
    assert exc.value.axiom == "M4"
    x, y, l = exc.value.witness
    p = cw_r.poset
    assert l in lower_bound_maxima(p, [x, y]) and rho[x] == rho[l]
    assert not upper_bound_minima(p, [x, y])

    rho = dict(cw_r.rho)
    rho["12"] = 2
    with pytest.raises(AxiomViolation) as exc:
        validate_scheme(cw_r.s, rho)
    assert exc.value.axiom == "M5"
    x, y = exc.value.witness
    assert rho[x] < rho[y]
    assert not any(p.leq(a, y) and not p.leq(a, x)
                   and upper_bound_minima(p, [x, a]) for a in cw_r.atoms())

    with pytest.raises(AxiomViolation) as exc:
        validate_geometric(notgeom_poset)
    assert exc.value.axiom == "G2"
    x, atom_set, y = exc.value.witness
    assert (x, set(atom_set)) == ("1", {"3", "4"})
    q = notgeom_poset.poset
    assert y in upper_bound_minima(q, atom_set)
    assert notgeom_poset.rank[x] < notgeom_poset.rank[y] == len(atom_set)
    for a in atom_set:
        assert q.leq(a, x) or not upper_bound_minima(q, [a, x])
    ok(4, "M4/M5/G2 negative controls fail with independently re-verified witnesses")


def test_criterion_05_flats_posets_have_expected_shape(cw_l, cw_r):
    expected_left = compute_rank(build_poset(
        ["0", "1", "2", "3", "u", "v"],
        [("0", "1"), ("0", "2"), ("0", "3"),
         ("1", "u"), ("2", "u"), ("3", "u"), ("2", "v"), ("3", "v")]))
    fl_left = flats(cw_l)
    assert len(fl_left.elements) == 6
    assert find_isomorphism(fl_left, expected_left) is not None

    expected_right = compute_rank(build_poset(
        ["0", "x", "y"], [("0", "x"), ("0", "y")]))
    fl_right = flats(cw_r)
    assert len(fl_right.elements) == 3
    assert find_isomorphism(fl_right, expected_right) is not None

    validate_geometric(fl_left)
    validate_geometric(fl_right)
    ok(5, "flats posets (6 and 3 elements) have the expected shapes and are geometric")


def test_criterion_06_cryptomorphism_round_trips(corpus):
    checked_independence = 0
    checked_geometric = 0
    for name, m in corpus.schemes():
        rebuilt = scheme_from_independence(m.s, independence(m))
        assert rebuilt == m, name
        checked_independence += 1
        if len(m.elements) > BIG:
            continue
        gp = validate_geometric(flats(m))
        regrown = scheme_from_geometric(gp)
        assert find_isomorphism(flats(regrown), gp) is not None, name
        if is_simple(m):
            assert scheme_isomorphism(regrown, m) is not None, name
        checked_geometric += 1
    assert checked_independence >= 100 and checked_geometric >= 100
    ok(6, f"round trips on {checked_independence} schemes "
          f"({checked_geometric} geometric rebuilds)")


def test_criterion_07_point_checks(corpus, nonpos):
    assert tutte_point_checks(nonpos) == (2, 12)
    for name, m in corpus.schemes():
        t11, t22 = tutte_point_checks(m)  # raises InvariantBroken unless they are |B| and |S|
        assert t11 == len(bases(m)) and t22 == len(m.elements)
    ok(7, f"T(1,1) = |B| and T(2,2) = |S| on all {len(corpus)} corpus schemes")


def test_criterion_08_toric_reproduction(toric1, isth):
    result = layers_poset(toric1)
    assert len(result.layers) == 5
    by_rank = sorted(L.rank for L in result.layers.values())
    assert by_rank == [0, 1, 1, 2, 2]
    points = sorted(tuple(L.phases) for L in result.layers.values() if L.rank == 2)
    assert points == [(Fraction(0), Fraction(0)),
                      (Fraction(1, 2), Fraction(1, 2))]
    assert scheme_isomorphism(result.scheme, isth) is not None

    h0 = Character((1, -1), Fraction(0))
    point = result.layers["[[1,0],[0,1]]|[1/2,1/2]"]
    report = verify_thm_arr(toric1, h0, point)
    assert report.deletion is not None
    assert report.restriction is not None and report.restriction_is_direct
    assert report.localization is not None
    ok(8, "5 layers with the expected phases; scheme matches; all three "
          "arrangement/scheme isomorphisms verified")


def test_criterion_09_quotient_identities(qfix2):
    sm = files.load_semimatroid(files.resolve_input("semi4.json"))
    grp = files.load_group(files.resolve_input("z2.json"))
    act = files.load_action(files.resolve_input("z2_swap.json"), grp)
    res = quotient_scheme(sm, act)
    # T_{G act M} == T_{M/G}
    assert str(res.tutte_action) == "x^2 + 1"
    assert str(tutte_direct(res.scheme)) == "x^2 + 1"
    assert res.m_g[frozenset({"G·{a1}", "G·{b1}"})] == 2
    for name, (lhs, rhs) in quotient_subset_identities(sm, act, res).items():
        assert lhs == rhs, name

    lp = sorted(loops(qfix2))[0]
    phi = check_loop_del_contr(qfix2, lp)
    assert len(phi) == len(qfix2.elements) // 2
    ok(9, "quotient Tutte forms agree at x^2 + 1 with m_G = 2; subset "
          "identities hold; loop deletion equals contraction")


def test_criterion_10_property_suite(corpus):
    derived = 0
    pivot_checked = 0
    chi_checked = 0
    for name, m in corpus.schemes():
        report = check_derived_axioms(m)
        assert report.ok, (name, report.failures())
        derived += 1
        fl = flats(m)
        validate_geometric(fl)
        if len(m.elements) <= BIG:
            direct = tutte_direct(m)
            assert tutte_delcon(m) == direct, name
            reordered = validate_scheme(verify_simplicial(compute_rank(
                build_poset(list(m.elements)[::-1], m.poset.covers))), m.rho)
            assert tutte_delcon(reordered) == direct, name
            pivot_checked += 1
            if not loops(m):
                charpoly_identity(m)  # checks both routes and the Moebius counts
                chi_checked += 1
    assert derived >= 100 and pivot_checked >= 100 and chi_checked >= 80
    ok(10, f"derived axioms, geometric flats, pivot-order independence and "
           f"the chi identity hold on {derived} schemes (zero failures)")


def test_criterion_11_toric_grid_oracle(corpus):
    checked = 0
    skipped = 0
    for label, arr in corpus.arrangements:
        result = layers_poset(arr)
        stats = check_arrangement(arr, result)
        if stats["skipped"]:
            skipped += 1
        else:
            checked += 1
    assert checked >= 10 and skipped <= checked // 3
    ok(11, f"grid oracle agreed on {checked} arrangements "
           f"({skipped} beyond the grid-size cap)")


def test_supporting_arrangement_isomorphisms_hold_everywhere(corpus):
    """The deletion/restriction/localization compatibilities and the
    insertion-order independence of the layer search, on every generated
    arrangement.  The restriction side is a scheme isomorphism whenever the
    contraction stays simple and a layer-poset isomorphism otherwise."""
    verified = 0
    direct = 0
    for label, arr in corpus.arrangements:
        result = layers_poset(arr)
        reversed_arr = type(arr)(arr.n, list(arr.characters)[::-1])
        assert set(layers_poset(reversed_arr).layers) == set(result.layers), label
        if not arr.characters:
            continue
        c = arr.characters[0]
        deepest = max(result.layers.values(),
                      key=lambda L: (L.rank, L.layer_id))
        report = verify_thm_arr(arr, c, deepest)
        assert report.ok, label
        verified += 1
        direct += report.restriction_is_direct
    assert verified >= 10 and direct >= verified - 2
    print(f"SUPPORT PASS: arrangement/scheme isomorphisms on {verified} "
          f"arrangements ({direct} with direct restriction)")
