"""Tutte and characteristic polynomials of matroid schemes.

The Tutte polynomial is the sum over all elements w of

    (x-1)^(rank(M) - rho(w)) * (y-1)^(|w| - rho(w))

computed two independent ways: by direct summation and by the three-case
deletion-contraction recurrence (non-loop/non-isthmus pivot first, then
loops, then isthmuses).  Arbitrary-precision integers throughout; no
floating point anywhere.
"""

from __future__ import annotations

from math import comb

from .errors import HasLoops, InvariantBroken
from .polynomials import BivariatePolynomial, UnivariatePolynomial, one_minus_t
from .poset import characteristic_polynomial, mobius
from .scheme import (
    MatroidScheme,
    _closure_map,
    _full,
    _sub_scheme,
    bases,
    flats,
    loops,
    scheme_rank,
)


def _expand(counts: dict) -> BivariatePolynomial:
    """The sum of c (x-1)^i (y-1)^j over the items ((i, j), c) of
    ``counts``, expanded once with binomial coefficients."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in counts.items():
        for a in range(i + 1):
            ca = c * comb(i, a) * (-1) ** (i - a)
            for b in range(j + 1):
                out[a, b] = out.get((a, b), 0) + ca * comb(j, b) * (-1) ** (j - b)
    return BivariatePolynomial(out)


def tutte_direct(m: MatroidScheme) -> BivariatePolynomial:
    """Direct summation over all elements, grouped by exponent pair;
    computed once per scheme."""
    if m._tutte is None:
        rk = scheme_rank(m)
        counts: dict[tuple[int, int], int] = {}
        for k, s in zip(m.rhos, m.s.support):
            key = (rk - k, s.bit_count() - k)
            counts[key] = counts.get(key, 0) + 1
        m._tutte = _expand(counts)
    return m._tutte


def tutte_delcon(m: MatroidScheme) -> BivariatePolynomial:
    """Deletion-contraction recursion.

    Pivot rule (``_pivot``): the first atom in declaration order that is
    neither loop nor isthmus splits as T(M-a) + T(M/a); with none left,
    loops contribute a factor y via contraction and isthmuses split as
    (x-1)T(M-a) + T(M/a).  The base case (a single element) returns 1.

    Both children of a node are masks of the parent: the deletion keeps
    the order ideal of elements not above a and the contraction the filter
    above a.  A child with two or more elements is built by
    ``scheme._sub_scheme``, which reuses the parent's covers; a one-element
    child is a leaf and is counted from the parent's labels without being
    built, so a scheme with |S| >= 2 elements builds |S| - 2 sub-schemes.
    The two children partition their parent's elements, so no two nodes of
    the recursion have the same element set and nothing is memoized.

    Contracting a valid scheme can leave the class (the rank-3 two-top
    fixture contracted by an atom violates the atom-exchange axiom), so the
    recursion carries its own exponent bookkeeping: splitting the defining
    sum at an atom a gives, unconditionally,

        T = (x-1)^(r - r_del) T_del
          + (x-1)^((r - rho(a)) - r_con) (y-1)^(1 - rho(a)) T_con

    where r, r_del, r_con are the maximum labels of the object and of the
    two sub-objects.  On valid schemes this reduces exactly to the three
    cases above: an atom is a loop iff rho(a) = 0 and an isthmus iff
    deleting it lowers the maximum label.  So T is a sum of
    (x-1)^i (y-1)^j over the leaves, with (i, j) the exponents gathered on
    the way down; the recursion counts the leaves per (i, j) and the sum is
    expanded once at the end.
    """
    if len(m.elements) == 1:
        return _expand({(0, 0): 1})
    counts: dict[tuple[int, int], int] = {}
    _delcon(m, counts, 0, 0)
    return _expand(counts)


def _pivot(m: MatroidScheme, r: int) -> int:
    """Index of the pivot atom of m, whose largest label is r: the first
    atom that is neither loop nor isthmus, else the first loop, else the
    first isthmus."""
    p = m.poset
    rho = m.rhos
    top = sum(1 << k for k, v in enumerate(rho) if v == r)
    # an atom is an isthmus iff every element of the top label lies above it
    loop = isthmus = None
    for a in (k for k, size in enumerate(m.s.ranked.ranks) if size == 1):
        if rho[a] == 0:
            if loop is None:
                loop = a
        elif top & ~p.above[a]:
            return a
        elif isthmus is None:
            isthmus = a
    return isthmus if loop is None else loop


def _delcon(m: MatroidScheme, counts: dict, i: int, j: int) -> None:
    """Add 1 to ``counts`` at the exponents of (x-1) and (y-1) gathered
    down to each leaf below m, a node of two or more elements reached with
    the exponents (i, j).  A one-element child is counted here, not
    built."""
    rho = m.rhos
    r = max(rho)
    pivot = _pivot(m, r)
    up = m.poset.above[pivot]
    down = _full(m.poset) & ~up
    if down & (down - 1):
        m_d = _sub_scheme(m, down)
        _delcon(m_d, counts, i + r - max(m_d.rhos), j)
    else:  # the deletion leaf {e}
        key = (i + r - rho[down.bit_length() - 1], j)
        counts[key] = counts.get(key, 0) + 1
    i, j = i + r - rho[pivot], j + 1 - rho[pivot]
    if up & (up - 1):
        m_c = _sub_scheme(m, up, rho[pivot])
        _delcon(m_c, counts, i - max(m_c.rhos), j)
    else:  # the contraction leaf {pivot}
        counts[i, j] = counts.get((i, j), 0) + 1


def tutte_point_checks(m: MatroidScheme) -> tuple[int, int]:
    """(T(1,1), T(2,2)), checked equal to the basis count and the element
    count respectively (``InvariantBroken`` otherwise)."""
    t = tutte_direct(m)
    at_11 = t(1, 1)
    at_22 = t(2, 2)
    if at_11 != len(bases(m)):
        raise InvariantBroken(f"T(1,1)={at_11} != |B|={len(bases(m))}")
    if at_22 != len(m.elements):
        raise InvariantBroken(f"T(2,2)={at_22} != |S|={len(m.elements)}")
    return at_11, at_22


def charpoly_identity(m: MatroidScheme) -> UnivariatePolynomial:
    """Characteristic polynomial of the flats poset, computed via Moebius
    summation AND via (-1)^rank * T(1-t, 0); the two must agree, and the
    Moebius values must match the signed count of elements closing to each
    flat (``InvariantBroken`` otherwise).  Requires a loopless scheme."""
    lps = sorted(loops(m), key=m.poset.idx)
    if lps:
        raise HasLoops(lps)
    fl = flats(m)
    chi_mobius = characteristic_polynomial(fl)
    rk = scheme_rank(m)
    t = tutte_direct(m)
    chi_tutte = t.substitute(one_minus_t(), 0) * ((-1) ** rk)
    if chi_mobius != chi_tutte:
        raise InvariantBroken(f"chi via Moebius {chi_mobius} != chi via Tutte {chi_tutte}")
    mu = mobius(fl)
    els = m.elements
    signed = dict.fromkeys(fl.elements, 0)
    for c, s in zip(_closure_map(m), m.s.support):
        signed[els[c]] += -1 if s.bit_count() & 1 else 1
    for w in fl.elements:
        if signed[w] != mu[w]:
            raise InvariantBroken(f"signed closure count at {w!r}: {signed[w]} != mu={mu[w]}")
    return chi_mobius
