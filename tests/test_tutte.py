"""Tutte polynomial: pinned exact values, two-algorithm agreement, point
checks, and the characteristic-polynomial identity."""

import random

import pytest

from mscheme import (
    BivariatePolynomial,
    HasLoops,
    InvariantBroken,
    bases,
    build_poset,
    charpoly_identity,
    compute_rank,
    contract,
    delete,
    flats,
    loops,
    scheme_from_matroid,
    scheme_rank,
    tutte_delcon,
    tutte_direct,
    uniform_matroid,
    validate_scheme,
    verify_simplicial,
)
from mscheme.poset import _full, _mobius
from mscheme.scheme import _labelled, _sub_scheme
from mscheme.tutte import _expand, _leaf_counts
import referees
from referees import (delcon_nodes, left_class, recursive_leaf_counts, shuffled,
                      tutte_point_checks)


def poly(s: str) -> BivariatePolynomial:
    return _parse(s)


def _parse(s):
    coeffs = {}
    term_strs = s.replace("- ", "+ -").split(" + ")
    for t in term_strs:
        t = t.strip()
        sign = 1
        if t.startswith("-"):
            sign, t = -1, t[1:].strip()
        c, i, j = 1, 0, 0
        for factor in t.split("*"):
            if factor.startswith("x"):
                i = int(factor[2:]) if "^" in factor else 1
            elif factor.startswith("y"):
                j = int(factor[2:]) if "^" in factor else 1
            else:
                c = int(factor)
        coeffs[(i, j)] = coeffs.get((i, j), 0) + sign * c
    return BivariatePolynomial(coeffs)


def test_parse_helper_round_trips():
    for s in ("x^2 + 1", "x^3 + 3*x - 2", "x^2 + 4*x + 3 + 4*y + 2*y^2", "1"):
        assert str(poly(s)) == s


def test_tutte_direct_pinned_values(isth, nonpos, dow_triv, dow_nontriv):
    assert str(tutte_direct(isth)) == "x^2 + 1"
    assert str(tutte_direct(nonpos)) == "x^3 + 3*x - 2"
    assert str(tutte_direct(dow_triv)) == "x^2 + 4*x + 3 + 4*y + 2*y^2"
    assert str(tutte_direct(dow_nontriv)) == "x^2 + 4*x + 3 + 4*y"


def test_tutte_delcon_matches_direct(isth, cw_l, cw_r, nonpos, dow_triv,
                                     dow_nontriv, qfix, qfix2):
    for m in (isth, cw_l, cw_r, nonpos, dow_triv, dow_nontriv, qfix, qfix2):
        assert tutte_delcon(m) == tutte_direct(m)


def test_delcon_intermediate_values(isth):
    """The worked isthmus split: T(M-a) = x, T(M/a) = x+1, total
    (x-1)x + (x+1) = x^2 + 1."""
    t_del = tutte_direct(delete(isth, "a"))
    t_con = tutte_direct(contract(isth, "a"))
    assert str(t_del) == "x"
    assert str(t_con) == "x + 1"
    x_minus_1 = BivariatePolynomial({(1, 0): 1, (0, 0): -1})
    assert x_minus_1 * t_del + t_con == tutte_direct(isth)


def test_singleton_tutte():
    sp = verify_simplicial(compute_rank(build_poset(["0"], [])))
    singleton = validate_scheme(sp, {"0": 0})
    assert str(tutte_direct(singleton)) == "1"
    assert str(tutte_delcon(singleton)) == "1"
    assert tutte_point_checks(singleton) == (1, 1)


def test_point_checks(isth, nonpos, dow_triv):
    assert tutte_point_checks(isth) == (2, 5)
    assert tutte_point_checks(nonpos) == (2, 12)
    t = tutte_direct(dow_triv)
    assert t(1, 1) == len(bases(dow_triv))
    assert t(2, 2) == len(dow_triv.elements)


def test_degree_bounds(isth, cw_l, nonpos, dow_triv, dow_nontriv):
    for m in (isth, cw_l, nonpos, dow_triv, dow_nontriv):
        t = tutte_direct(m)
        assert t.x_degree() <= scheme_rank(m)
        assert t.y_degree() <= max(m.s.rank[w] - m.rho[w] for w in m.elements)


def test_charpoly_identity(isth, dow_triv, dow_nontriv):
    assert str(charpoly_identity(isth)) == "t^2 - 2*t + 2"
    assert str(charpoly_identity(dow_triv)) == "t^2 - 6*t + 8"
    assert str(charpoly_identity(dow_nontriv)) == "t^2 - 6*t + 8"


def test_point_and_charpoly_checks_raise_not_assert(monkeypatch, isth):
    """The checks of tutte_point_checks and charpoly_identity are explicit
    raises, so they hold under ``python -O``."""
    import mscheme.tutte
    with monkeypatch.context() as mp:
        mp.setattr(referees, "bases", lambda m: frozenset())
        with pytest.raises(InvariantBroken, match=r"T\(1,1\)=2 != \|B\|=0"):
            tutte_point_checks(isth)
    with monkeypatch.context() as mp:
        # right at (1, 1) and wrong at (2, 2): isth has 2 bases, 5 elements
        mp.setattr(referees, "tutte_direct", lambda m: BivariatePolynomial.constant(2))
        mp.setattr(mscheme.tutte, "tutte_direct", lambda m: BivariatePolynomial.constant(2))
        with pytest.raises(InvariantBroken, match=r"T\(2,2\)=2 != \|S\|=5"):
            tutte_point_checks(isth)
        with pytest.raises(InvariantBroken, match="chi via Moebius"):
            charpoly_identity(isth)

    def one_flat_off(p):
        mu = _mobius(p)
        mu[1] += 1  # the flats a and b share a rank, so chi is unchanged
        mu[2] -= 1
        return mu

    monkeypatch.setattr(mscheme.tutte, "_mobius", one_flat_off)
    with pytest.raises(InvariantBroken, match="signed closure count at 'a': -1 != mu=0"):
        charpoly_identity(isth)


def test_expand_matches_polynomial_arithmetic():
    """``_expand`` against the powers of x - 1 and y - 1 multiplied out, on
    seeded counts (zero and negative ones included)."""
    rng = random.Random(20240818)
    x1 = BivariatePolynomial({(1, 0): 1, (0, 0): -1})
    y1 = BivariatePolynomial({(0, 1): 1, (0, 0): -1})
    for _ in range(300):
        counts = {(rng.randint(0, 6), rng.randint(0, 6)): rng.randint(-4, 4)
                  for _ in range(rng.randint(0, 6))}
        want = BivariatePolynomial()
        for (i, j), c in counts.items():
            want = want + (x1 ** i) * (y1 ** j) * c
        assert _expand(counts) == want, counts


def test_tutte_direct_is_summed_once_per_scheme(monkeypatch):
    """``tutte_point_checks`` and ``charpoly_identity`` reuse the scheme's
    ``tutte_direct``."""
    import mscheme.tutte
    m = scheme_from_matroid(uniform_matroid(2, 4))
    sums = []

    def counted(counts):
        sums.append(counts)
        return _expand(counts)

    monkeypatch.setattr(mscheme.tutte, "_expand", counted)
    t = tutte_direct(m)
    assert tutte_point_checks(m) == (6, 16)
    assert str(charpoly_identity(m)) == "t^2 - 4*t + 3"
    assert tutte_direct(m) is t
    assert len(sums) == 1


def test_mobius_is_swept_once_per_charpoly_identity(monkeypatch, corpus):
    """``charpoly_identity`` sweeps the flats' Moebius function once, for
    both the Moebius sum and the signed closure counts, on every loopless
    corpus scheme."""
    import mscheme.poset
    import mscheme.tutte
    sweeps = []

    def counted(p):
        sweeps.append(p)
        return _mobius(p)

    for module in (mscheme.poset, mscheme.tutte):
        monkeypatch.setattr(module, "_mobius", counted)
    checked = 0
    for name, m in corpus.schemes():
        if loops(m):
            continue
        sweeps.clear()
        charpoly_identity(m)
        assert len(sweeps) == 1 and sweeps[0] is flats(m).poset, name
        checked += 1
    assert checked >= 10, checked


def test_charpoly_rejects_loops(qfix2):
    with pytest.raises(HasLoops):
        charpoly_identity(qfix2)


def test_pivot_order_independence(isth, cw_l, dow_nontriv):
    """Re-declaring the elements in reverse order changes every pivot
    choice; the polynomial must not change."""
    for m in (isth, cw_l, dow_nontriv):
        rev = list(m.elements)[::-1]
        p = m.poset
        reordered = validate_scheme(
            verify_simplicial(compute_rank(build_poset(rev, p.covers))),
            m.rho)
        assert tutte_delcon(reordered) == tutte_delcon(m) == tutte_direct(m)


def _memo_delcon(m, memo, pivots):
    """Transcription of ``_delcon`` as it was with its memo: results keyed on
    ``serialize_key``, and each atom's deletion scanned for the top label.
    Appends each pivot with its node's element count to ``pivots`` before
    recursing, and returns the polynomial with the number of memo hits."""
    key = m.serialize_key()
    if key in memo:
        return memo[key], 1
    if len(m.elements) == 1:
        memo[key] = BivariatePolynomial.constant(1)
        return memo[key], 0

    p = m.poset
    rho = m.rho
    r = max(rho.values())
    atoms = m.atoms()
    full = (1 << len(p.elements)) - 1
    kept = {a: full & ~p.above[p.idx(a)] for a in atoms}
    is_loop = {a: rho[a] == 0 for a in atoms}
    drops = {a: max(rho[e] for e in p._ids(kept[a])) < r for a in atoms}
    pivot = next((a for a in atoms if not is_loop[a] and not drops[a]), None)
    if pivot is None:
        pivot = next((a for a in atoms if is_loop[a]), None)
    if pivot is None:
        pivot = next(a for a in atoms if drops[a])
    pivots.append((pivot, len(m.elements)))

    m_d = _sub_scheme(m, kept[pivot])
    t_d, hits_d = _memo_delcon(m_d, memo, pivots)
    r_d = max(m_d.rho.values())

    m_c = _sub_scheme(m, p.above[p.idx(pivot)], rho[pivot])
    t_c, hits_c = _memo_delcon(m_c, memo, pivots)
    r_c = max(m_c.rho.values())

    x1 = BivariatePolynomial({(1, 0): 1, (0, 0): -1})
    y1 = BivariatePolynomial({(0, 1): 1, (0, 0): -1})
    result = ((x1 ** (r - r_d)) * t_d
              + (x1 ** (r - rho[pivot] - r_c)) * (y1 ** (1 - rho[pivot])) * t_c)
    memo[key] = result
    return result, hits_d + hits_c


def _pivots_of_delcon(monkeypatch, m):
    """``tutte_delcon(m)`` and its pivots as ids in the order chosen,
    recorded through ``tutte._pivot``, which every node of three or more
    elements calls once before its children are pushed.  The first node
    is the whole of m on its bottom with base 0, and every later one must
    be a split of an earlier node at its pivot: the deletion, the elements
    not above it on the same minimum and base, or the contraction, the
    filter above it on the pivot with the pivot's label as base."""
    got, nodes = delcon_nodes(monkeypatch, m)
    p = m.poset
    children = {(_full(p), p.index[m.bottom], 0)}
    for k, (mask, x, base, pivot) in enumerate(nodes):
        assert (mask, x, base) in children, k
        up = p.above[pivot]
        children |= {(mask & ~up, x, base), (mask & up, pivot, m.rhos[pivot])}
    return got, [m.elements[pivot] for *_, pivot in nodes]


def test_delcon_matches_memoized_transcription(monkeypatch, corpus, nonpos):
    """Same polynomial as the recursion with its memo, and the same pivots
    at its nodes of three or more elements (the others have one atom and
    need no choice), on every corpus scheme and on the contractions of the
    two-top fixture that leave the class; the memo never hits, since the
    two children of a node partition its elements."""
    for name, m in corpus.schemes() + left_class(nonpos):
        want_pivots = []
        want, hits = _memo_delcon(m, {}, want_pivots)
        got, got_pivots = _pivots_of_delcon(monkeypatch, m)
        assert got == want, name
        assert got_pivots == [a for a, size in want_pivots if size >= 3], name
        assert hits == 0, name


@pytest.mark.parametrize("r, n", [(5, 10), (4, 11)])
def test_delcon_matches_direct_on_large_uniform_schemes(monkeypatch, r, n):
    """The deletion-contraction referee agrees with direct summation on
    U(5,10) and U(4,11), 1,024 and 2,048 elements, and makes a pivot
    choice at exactly |S|/2 - 2 nodes below the root: each of those is a
    Boolean lattice, and only those on two or more atoms, of four or more
    elements, need one; the ones on one atom and the leaves are counted."""
    m = scheme_from_matroid(uniform_matroid(r, n))
    assert len(m.elements) == 2 ** n
    got, nodes = delcon_nodes(monkeypatch, m)
    assert got == tutte_direct(m)
    assert nodes[0][0] == _full(m.poset)
    assert len(nodes) - 1 == len(m.elements) // 2 - 2


def test_delcon_builds_no_poset(monkeypatch, corpus, nonpos):
    """No node of the recursion builds a poset: with ``poset._closed``, the
    one table builder, raising, deletion-contraction still agrees with
    direct summation on the corpus, declared in its own order and in
    shuffled ones, and on the contractions of the two-top fixture that
    leave the class."""
    import mscheme.poset
    cases = corpus.schemes() + shuffled(corpus, random.Random(20260106)) + left_class(nonpos)

    def refuse(*args):
        raise AssertionError("the recursion built a poset")

    monkeypatch.setattr(mscheme.poset, "_closed", refuse)
    for name, m in cases:
        assert tutte_delcon(m) == tutte_direct(m), name


def test_delcon_on_4000_parallel_atoms_makes_n_minus_1_pivot_choices(monkeypatch):
    """A bottom below n = 4,000 atoms of label 1, the rank-1 scheme on n
    parallel elements: deletion-contraction gives x + 3999, as direct
    summation does, after exactly n - 1 pivot choices, one per deletion
    from the whole scheme down to the node of three elements.  Each node
    is a mask of the root, so the chain costs no sub-scheme per step."""
    n = 4000
    ids = ["0"] + [f"a{k}" for k in range(n)]
    sp = verify_simplicial(compute_rank(build_poset(ids, [("0", a) for a in ids[1:]])))
    m = validate_scheme(sp, {"0": 0} | dict.fromkeys(ids[1:], 1))
    got, nodes = delcon_nodes(monkeypatch, m)
    assert got == tutte_direct(m) == poly("x + 3999")
    assert len(nodes) == n - 1


SCHEME_FIXTURES = ("isth", "cw_l", "cw_r", "nonpos", "dow_triv", "dow_nontriv", "qfix", "qfix2")


def test_leaf_counts_match_the_recursive_transcription(corpus, nonpos, fixture_scheme, isth):
    """The explicit stack counts the same leaves per exponent pair as the
    recursion on Python frames: on the corpus, declared in its own order
    and in shuffled ones, on the contractions of the two-top fixture that
    leave the class, on U(5,10) and U(4,11), and on every scheme fixture.

    Every node these reach has its bottom labelled 0 (the root's bottom
    or a contraction's pivot), so the isthmus fixture with its bottom
    relabelled 1, which no validation admits, checks that a two-element
    child's bottom label is read: its first deletion is {0 < b}."""
    fixtures = [(name, fixture_scheme(name)) for name in SCHEME_FIXTURES]
    uniform = [(f"U({r},{n})", scheme_from_matroid(uniform_matroid(r, n)))
               for r, n in ((5, 10), (4, 11))]
    variants = shuffled(corpus, random.Random(20260105))
    raised = _labelled(isth, (1,) + isth.rhos[1:])
    for name, m in (corpus.schemes() + variants + left_class(nonpos) + uniform + fixtures
                    + [("isth with rho(0) = 1", raised)]):
        assert _leaf_counts(m) == recursive_leaf_counts(m), name
