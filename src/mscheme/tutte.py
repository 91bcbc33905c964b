"""Tutte and characteristic polynomials of matroid schemes.

The Tutte polynomial is the sum over all elements w of

    (x-1)^(rank(M) - rho(w)) * (y-1)^(|w| - rho(w))

computed two independent ways: by direct summation and by the three-case
deletion-contraction recurrence (non-loop/non-isthmus pivot first, then
loops, then isthmuses).  Arbitrary-precision integers throughout; no
floating point anywhere.
"""

from __future__ import annotations

from .errors import HasLoops, InvariantBroken
from .polynomials import BivariatePolynomial, UnivariatePolynomial, one_minus_t
from .poset import characteristic_polynomial, mobius
from .scheme import (
    MatroidScheme,
    _full,
    _sub_scheme,
    bases,
    closure,
    flats,
    loops,
    scheme_rank,
)

X_MINUS_1 = BivariatePolynomial({(1, 0): 1, (0, 0): -1})
Y_MINUS_1 = BivariatePolynomial({(0, 1): 1, (0, 0): -1})


def tutte_direct(m: MatroidScheme) -> BivariatePolynomial:
    """Direct summation over all elements, grouped by exponent pair."""
    rk = scheme_rank(m)
    counts: dict[tuple[int, int], int] = {}
    for w in m.elements:
        key = (rk - m.rho[w], m.size(w) - m.rho[w])
        counts[key] = counts.get(key, 0) + 1
    total = BivariatePolynomial()
    for (i, j), c in sorted(counts.items()):
        total = total + (X_MINUS_1**i) * (Y_MINUS_1**j) * c
    return total


def tutte_delcon(m: MatroidScheme) -> BivariatePolynomial:
    """Deletion-contraction recursion.

    Pivot rule: the first atom in declaration order that is neither loop nor
    isthmus splits as T(M-a) + T(M/a); with none left, loops contribute a
    factor y via contraction and isthmuses split as (x-1)T(M-a) + T(M/a).
    The base case (a single element) returns 1.  Both sub-schemes come from
    ``scheme._sub_scheme``: the deletion keeps the order ideal of elements
    not above a and the contraction the filter above a, so each reuses the
    parent's covers.  The two children partition their parent's elements,
    so no two nodes of the recursion have the same element set and nothing
    is memoized.

    Contracting a valid scheme can leave the class (the rank-3 two-top
    fixture contracted by an atom violates the atom-exchange axiom), so the
    recursion carries its own exponent bookkeeping: splitting the defining
    sum at an atom a gives, unconditionally,

        T = (x-1)^(r - r_del) T_del
          + (x-1)^((r - rho(a)) - r_con) (y-1)^(1 - rho(a)) T_con

    where r, r_del, r_con are the maximum labels of the object and of the
    two sub-objects.  On valid schemes this reduces exactly to the three
    cases above: an atom is a loop iff rho(a) = 0 and an isthmus iff
    deleting it lowers the maximum label.
    """
    return _delcon(m)


def _delcon(m: MatroidScheme) -> BivariatePolynomial:
    if len(m.elements) == 1:
        return BivariatePolynomial.constant(1)

    p = m.poset
    rho = m.rho
    r = max(rho.values())
    top = sum(1 << i for i, e in enumerate(m.elements) if rho[e] == r)
    # an atom is an isthmus iff every element of the top label lies above it
    pivot = loop = isthmus = None
    for a in m.atoms():
        if rho[a] == 0:
            if loop is None:
                loop = a
        elif top & ~p.above[p.index[a]]:
            pivot = a
            break
        elif isthmus is None:
            isthmus = a
    if pivot is None:
        pivot = isthmus if loop is None else loop
    up = p.above[p.index[pivot]]

    m_d = _sub_scheme(m, _full(p) & ~up)
    t_d = _delcon(m_d)
    r_d = max(m_d.rho.values())

    m_c = _sub_scheme(m, up, rho[pivot])
    t_c = _delcon(m_c)
    r_c = max(m_c.rho.values())

    return ((X_MINUS_1 ** (r - r_d)) * t_d
            + (X_MINUS_1 ** (r - rho[pivot] - r_c))
            * (Y_MINUS_1 ** (1 - rho[pivot])) * t_c)


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
    signed = dict.fromkeys(fl.elements, 0)
    for u in m.elements:
        signed[closure(m, u)] += (-1) ** m.size(u)
    for w in fl.elements:
        if signed[w] != mu[w]:
            raise InvariantBroken(f"signed closure count at {w!r}: {signed[w]} != mu={mu[w]}")
    return chi_mobius
