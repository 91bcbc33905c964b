"""Brute-force oracle for the derived axiom systems of matroid schemes.

The closure axioms CL1-CL4, basis exchange, circuit elimination, the rank
facts, local flats, the closure-join lemma, the three-way loop and
isthmus equivalences and the loop deletion/contraction isomorphism are
theorems for valid schemes.  Each is re-checked here from its definition
on element ids, by exhaustive search, independent of the engine's index
masks: any failure on a valid scheme is an engine bug.
"""

from __future__ import annotations

import itertools

from mscheme import (
    InvariantBroken,
    MatroidScheme,
    MschemeError,
    Poset,
    SimplicialPoset,
    bases,
    circuits,
    closure,
    flats,
    localization,
    loops,
)
from mscheme.poset import _atoms, _bits
from referees import join_mask


class NotBelow(MschemeError):
    """``complement`` was asked for an element that is not below x."""


class NotALoop(MschemeError):
    """``check_loop_del_contr`` was given an element that is not a loop."""


def complement(sp: SimplicialPoset, x, a):
    """The unique element of the Boolean down-set of x whose atom set is
    that of x minus that of a."""
    p = sp.poset
    if not p.leq(a, x):
        raise NotBelow(f"{a!r} is not below {x!r}")
    i = p.idx(x)
    below, atoms = p.below, _atoms(sp.ranks)
    target = below[i] & atoms & ~below[p.idx(a)]
    for y in _bits(below[i]):
        if below[y] & atoms == target:
            return p.elements[y]
    raise InvariantBroken(f"no complement of {a!r} in down-set of {x!r}")  # pragma: no cover


def _meet_of_joinable(p: Poset, a, b):
    """The unique maximal lower bound of {a, b}; callers guarantee
    join(a,b) is nonempty, which forces uniqueness in a simplicial poset
    (``InvariantBroken`` otherwise)."""
    ids = p._ids(p.maximal_of_mask(p.below[p.idx(a)] & p.below[p.idx(b)]))
    if len(ids) != 1:
        raise InvariantBroken(f"meet of joinable pair {(a, b)} not unique")
    return ids[0]


def _loop_conditions(m: MatroidScheme, a) -> tuple:
    p = m.poset
    c1 = m.rho[a] == 0
    c2 = all(p.leq(a, x) for x in flats(m).elements)
    c3 = (all(p.leq(a, mx) for mx in p.maximal_elements())
          and not any(p.leq(a, b) for b in bases(m)))
    return c1, c2, c3


def _isthmus_conditions(m: MatroidScheme, a) -> tuple:
    p = m.poset
    c1 = True
    for x in m.elements:
        if p.leq(a, x):
            continue
        ups = p._ids(join_mask(p, (x, a)))
        if not ups or any(m.rho[u] != m.rho[x] + 1 for u in ups):
            c1 = False
            break
    c2 = all(p.leq(a, b) for b in bases(m))
    c3 = (all(p.leq(a, mx) for mx in p.maximal_elements())
          and not any(p.leq(a, c) for c in circuits(m)))
    return c1, c2, c3


def check_loop_del_contr(m: MatroidScheme, a) -> dict:
    """For a loop a, produce and verify the isomorphism between the
    contraction by a and the deletion of a via z -> complement of a in z
    (``InvariantBroken`` if it is not one)."""
    if a not in loops(m):
        raise NotALoop(f"{a!r} is not a loop")
    p = m.poset
    up = [z for z in m.elements if p.leq(a, z)]
    deleted = [e for e in m.elements if not p.leq(a, e)]
    phi = {z: complement(m.s, z, a) for z in up}
    if sorted(phi.values(), key=p.idx) != sorted(deleted, key=p.idx):
        raise InvariantBroken("complement map is not a bijection onto the deletion")
    for z, w in itertools.product(up, up):
        if p.leq(z, w) != p.leq(phi[z], phi[w]):
            raise InvariantBroken("complement map not an order iso")
    for z in up:
        if m.rho[z] - m.rho[a] != m.rho[phi[z]]:
            raise InvariantBroken("complement map not rank preserving")
    return phi


class DerivedAxiomReport:
    """Pass/fail per derived property with the first witness on failure.
    The properties are theorems for valid schemes, so any failure indicates
    an implementation bug; this is a cross-validation oracle."""

    def __init__(self):
        self.results: dict[str, tuple[bool, tuple | None]] = {}

    def record(self, name: str, ok: bool, witness=None):
        if name not in self.results or (self.results[name][0] and not ok):
            self.results[name] = (ok, witness)

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.results.values())

    def failures(self) -> dict:
        return {k: w for k, (ok, w) in self.results.items() if not ok}

    def __repr__(self):
        status = "pass" if self.ok else f"FAIL {sorted(self.failures())}"
        return f"DerivedAxiomReport({status})"


def check_derived_axioms(m: MatroidScheme) -> DerivedAxiomReport:
    """Brute-force re-verification of CL1-CL4, B1-B2, C1-C3, rho(c) = |c| - 1
    on circuits, the three rank facts, local flats, the closure-join lemma, and the loop/isthmus
    three-way equivalences.

    On corrupted input the closure operator or the flats poset may not even
    be well-defined; that is reported as a failing CL_STRUCTURE entry
    instead of propagating the internal error."""
    rep = DerivedAxiomReport()
    try:
        _check_derived(m, rep)
    except MschemeError as exc:
        rep.record("CL_STRUCTURE", False, (repr(exc),))
    for name in ("CL_STRUCTURE", "CL1", "CL2", "CL3", "CL4", "B1", "B2",
                 "C1", "C2", "C3", "C_RANK", "RK1", "RK2", "RK3", "LOCALFLATS",
                 "CLOSURE2", "LOOP_EQUIV", "ISTHMUS_EQUIV"):
        rep.results.setdefault(name, (True, None))
    return rep


def _check_derived(m: MatroidScheme, rep: DerivedAxiomReport) -> None:
    p = m.poset
    els = m.elements
    atoms = m.atoms()
    cl = {x: closure(m, x) for x in els}

    for x in els:
        rep.record("CL1", p.leq(x, cl[x]), (x,))
    for x, y in itertools.product(els, els):
        if p.leq(x, y):
            rep.record("CL2", p.leq(cl[x], cl[y]), (x, y))
    for x in els:
        rep.record("CL3", cl[cl[x]] == cl[x], (x,))
    for x in els:
        for b in atoms:
            for u in p._ids(join_mask(p, (x, b))):
                for a in atoms:
                    if p.leq(a, cl[u]) and not p.leq(a, cl[x]):
                        ok = any(p.leq(v, cl[u]) and p.leq(b, cl[v])
                                 for v in p._ids(join_mask(p, (x, a))))
                        rep.record("CL4", ok, (x, a, b, u))

    bs = sorted(bases(m), key=p.idx)
    rep.record("B1", len(bs) > 0)
    for x, y in itertools.product(bs, bs):
        if x == y:
            continue
        for a in atoms:
            if p.leq(a, x) and not p.leq(a, y):
                xa = complement(m.s, x, a)
                ok = False
                for b in atoms:
                    if p.leq(b, y) and not p.leq(b, x):
                        ups = p._ids(join_mask(p, (xa, b)))
                        if ups and all(u in set(bs) for u in ups):
                            ok = True
                            break
                rep.record("B2", ok, (x, y, a))

    cs = sorted(circuits(m), key=p.idx)
    rep.record("C1", m.bottom not in cs)
    for x, y in itertools.product(cs, cs):
        if x != y:
            rep.record("C2", not p.leq(x, y), (x, y))
    for x, y in itertools.combinations(cs, 2):
        ups = p._ids(join_mask(p, (x, y)))
        if not ups:
            continue
        meet = _meet_of_joinable(p, x, y)
        for u in ups:
            for a in atoms:
                if p.leq(a, meet):
                    ok = any(p.leq(z, u) and not p.leq(a, z) for z in cs)
                    rep.record("C3", ok, (x, y, u, a))
    for c in cs:
        rep.record("C_RANK", m.rho[c] == m.s.rank[c] - 1, (c,))

    for x in els:  # rank facts
        for a in atoms:
            for u in p._ids(join_mask(p, (x, a))):
                rep.record("RK1", m.rho[x] <= m.rho[u] <= m.rho[x] + 1, (x, a, u))
    for x, y in itertools.combinations(els, 2):
        ranks = {m.rho[u] for u in p._ids(join_mask(p, (x, y)))}
        rep.record("RK2", len(ranks) <= 1, (x, y))
    rep.record("RK3", len({m.rho[u] for u in p.maximal_elements()}) == 1)

    fl = flats(m)
    fl_set = set(fl.elements)
    for x in fl.elements:  # local flats
        local = flats(localization(m, x))
        expected = {f for f in fl_set if p.leq(f, x)}
        rep.record("LOCALFLATS",
                   set(local.elements) == expected
                   and all(local.rank[f] == m.rho[f] for f in local.elements),
                   (x,))

    fp = fl.poset
    for x, y in itertools.combinations(els, 2):  # closure-join lemma
        for u in fp._ids(join_mask(fp, (cl[x], cl[y]))):
            ok = any(cl[v] == u for v in p._ids(join_mask(p, (x, y))))
            rep.record("CLOSURE2", ok, (x, y, u))

    for a in atoms:
        lc = _loop_conditions(m, a)
        rep.record("LOOP_EQUIV", len(set(lc)) == 1, (a,) + lc)
        ic = _isthmus_conditions(m, a)
        rep.record("ISTHMUS_EQUIV", len(set(ic)) == 1, (a,) + ic)
