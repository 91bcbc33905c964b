"""Referees shared by the Tutte and minor tests: the recursive
deletion-contraction that the explicit stack of ``tutte._leaf_counts``
replaced, and the scheme variants both are run on."""

from mscheme import AxiomViolation, build_poset, compute_rank, contract, validate_scheme, verify_simplicial
from mscheme.scheme import _full, _sub_scheme
from mscheme.tutte import _pivot


def recursive_leaf_counts(m, built=None) -> dict:
    """The leaf counts of the deletion-contraction recursion as it ran on
    Python frames, building every child of two or more elements and
    counting only one-element children from the parent's labels.  Each
    built child is appended to ``built`` as ``(parent, keep, child)``."""
    if len(m.elements) == 1:
        return {(0, 0): 1}
    counts = {}
    _delcon(m, counts, 0, 0, [] if built is None else built)
    return counts


def _delcon(m, counts, i, j, built):
    rho = m.rhos
    r = max(rho)
    pivot = _pivot(m, r)
    up = m.poset.above[pivot]
    down = _full(m.poset) & ~up
    if down & (down - 1):
        m_d = _sub_scheme(m, down)
        built.append((m, down, m_d))
        _delcon(m_d, counts, i + r - max(m_d.rhos), j, built)
    else:  # the deletion leaf {e}
        key = (i + r - rho[down.bit_length() - 1], j)
        counts[key] = counts.get(key, 0) + 1
    i, j = i + r - rho[pivot], j + 1 - rho[pivot]
    if up & (up - 1):
        m_c = _sub_scheme(m, up, rho[pivot])
        built.append((m, up, m_c))
        _delcon(m_c, counts, i - max(m_c.rhos), j, built)
    else:  # the contraction leaf {pivot}
        counts[i, j] = counts.get((i, j), 0) + 1


def left_class(nonpos):
    """The contractions of the two-top fixture that violate the axioms."""
    out = []
    for a in nonpos.atoms():
        minor = contract(nonpos, a)
        try:
            validate_scheme(minor.s, minor.rho)
        except AxiomViolation:
            out.append((f"nonpos/{a}", minor))
    assert out
    return out


def shuffled(corpus, rng):
    """The corpus schemes with their elements declared in a seeded random
    order, so that no minimum need come first."""
    out = []
    for name, m in corpus.schemes():
        order = list(m.elements)
        rng.shuffle(order)
        sp = verify_simplicial(compute_rank(build_poset(order, m.poset.covers)))
        out.append((f"{name} shuffled", validate_scheme(sp, m.rho)))
    return out
