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
from .poset import _bits, _characteristic, _full, _mobius
from .scheme import (
    MatroidScheme,
    _closure_map,
    _less_than,
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
        for k, s in zip(m.rhos, m.ranks):
            key = (rk - k, s - k)
            counts[key] = counts.get(key, 0) + 1
        m._tutte = _expand(counts)
    return m._tutte


def tutte_delcon(m: MatroidScheme) -> BivariatePolynomial:
    """Deletion-contraction recursion.

    Pivot rule (``_pivot``): the first atom in declaration order that is
    neither loop nor isthmus splits as T(M-a) + T(M/a); with none left,
    loops contribute a factor y via contraction and isthmuses split as
    (x-1)T(M-a) + T(M/a).  The base case (a single element) returns 1.

    Every node is a convex set of m's elements, kept as a bitmask over
    m's indices with its minimum x: the deletion at a keeps the elements
    not above a and the contraction the filter above a, with its minimum
    a.  Nothing is built per node; labels, order and covers are read from
    m.  A one-element child is a leaf, and a two-element child {x < z}
    has the one atom z, whose split leaves {x} and {z}; both are counted
    from the labels.  The two children partition their parent's
    elements, so no two nodes of the recursion have the same element set
    and nothing is memoized.

    Contracting a valid scheme can leave the class (the rank-3 two-top
    fixture contracted by an atom violates the atom-exchange axiom), so the
    recursion carries its own exponent bookkeeping: splitting the defining
    sum at an atom a gives, unconditionally,

        T = (x-1)^(r - r_del) T_del
          + (x-1)^((r - rho(a)) - r_con) (y-1)^(1 - rho(a)) T_con

    where r, r_del, r_con are the maximum labels of the object and of the
    two sub-objects, and labels are read relative to the object's base
    (its minimum's label below a contraction, 0 at the root).  On valid
    schemes this reduces exactly to the three cases above: an atom is a
    loop iff its label equals the base and an isthmus iff deleting it
    lowers the maximum label.  So T is a sum of (x-1)^i (y-1)^j over the
    leaves, with (i, j) the exponents gathered on the way down;
    ``_leaf_counts`` counts the leaves per (i, j) and the sum is expanded
    once at the end.
    """
    return _expand(_leaf_counts(m))


def _pivot(mask: int, x: int, base: int, top: int, rho: tuple, above: tuple, up: list) -> int:
    """Index of the pivot of the node on ``mask`` with minimum x and base
    label ``base``, whose elements of the largest label are ``top``: of
    its atoms, the covers of x in ``mask`` (``up[x]``) in index order,
    the first that is neither loop nor isthmus, else the first loop, else
    the first isthmus.  A loop has the base label; an isthmus lies below
    every element of ``top``."""
    loop = isthmus = -1
    for a in _bits(up[x] & mask):
        if rho[a] == base:
            if loop < 0:
                loop = a
        elif top & ~above[a]:
            return a
        elif isthmus < 0:
            isthmus = a
    return isthmus if loop < 0 else loop


def _leaf_counts(m: MatroidScheme) -> dict:
    """The number of leaves of the deletion-contraction recursion on m per
    exponent pair (i, j) of (x-1) and (y-1).

    The recursion runs on an explicit stack of nodes ``(mask, x, base, i,
    j, r)`` over m's indices: the elements ``mask`` with minimum x, whose
    labels are m's lowered by ``base``, reached with the exponents
    (i + r - R, j), where r is the parent's largest label of m and R the
    node's, the highest k with an element of ``mask`` labelled k or more.
    A deletion is pushed above the contraction of its node, so the
    deletion subtree is handled first, in the order of a recursion.  A
    leaf {e} counts (i + r - rho(e), j); a two-element node {x < z} counts
    its leaves {x} and {z}, at (i + r - rho(x), j) and (i + r - rho(z),
    j + 1 - (rho(z) - base)).  No label is assumed to be 0: the root's
    base is 0 whatever its bottom's label."""
    rho, above = m.rhos, m.above
    up = [sum(1 << k for k in c) for c in m.covers_up]
    lt = _less_than(rho)
    counts: dict[tuple[int, int], int] = {}
    stack = [(_full(m), m.order[0], 0, 0, 0, max(rho))]
    while stack:
        mask, x, base, i, j, r = stack.pop()
        rest = mask & (mask - 1)  # mask without its lowest bit
        if not rest & (rest - 1):  # one or two elements: count the leaves
            key = (i + r - rho[x], j)
            counts[key] = counts.get(key, 0) + 1
            if rest:
                z = (mask ^ 1 << x).bit_length() - 1
                key = (i + r - rho[z], j + 1 - rho[z] + base)
                counts[key] = counts.get(key, 0) + 1
            continue
        r_node = r
        while not mask & ~lt[r_node]:
            r_node -= 1
        i += r - r_node
        a = _pivot(mask, x, base, mask & ~lt[r_node], rho, above, up)
        stack.append((mask & above[a], a, rho[a], i, j + 1 - rho[a] + base, r_node))
        stack.append((mask & ~above[a], x, base, i, j, r_node))
    return counts


def charpoly_identity(m: MatroidScheme) -> UnivariatePolynomial:
    """Characteristic polynomial of the flats poset, computed via Moebius
    summation AND via (-1)^rank * T(1-t, 0); the two must agree, and the
    Moebius values must match the signed count of elements closing to each
    flat (``InvariantBroken`` otherwise).  The flats' Moebius function is
    swept once, by index, for both checks.  Requires a loopless scheme."""
    lps = sorted(loops(m), key=m.idx)
    if lps:
        raise HasLoops(lps)
    fl = flats(m)
    mu = _mobius(fl)
    chi_mobius = _characteristic(fl, mu)
    rk = scheme_rank(m)
    t = tutte_direct(m)
    chi_tutte = t.substitute(one_minus_t(), 0) * ((-1) ** rk)
    if chi_mobius != chi_tutte:
        raise InvariantBroken(f"chi via Moebius {chi_mobius} != chi via Tutte {chi_tutte}")
    cl = _closure_map(m)
    signed = [0] * len(cl)
    for c, s in zip(cl, m.ranks):
        signed[c] += -1 if s & 1 else 1
    index = m.index
    for w, mu_w in zip(fl.elements, mu):
        count = signed[index[w]]
        if count != mu_w:
            raise InvariantBroken(f"signed closure count at {w!r}: {count} != mu={mu_w}")
    return chi_mobius
