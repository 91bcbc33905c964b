"""Deterministic corpus of valid schemes for the property suite.

Random rho labels are almost never valid, so schemes are generated through
the constructions (matroids, quotients, group-colored partition posets,
toric arrangements) and closed under random delete/contract/restrict.
Contraction can leave the class of valid schemes, so every minor is
re-validated and invalid ones are dropped.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from mscheme import (
    AxiomViolation,
    Character,
    GroupAction,
    MschemeError,
    Semimatroid,
    SizeCapExceeded,
    ToricArrangement,
    contract,
    cyclic_group,
    delete,
    dowling_poset,
    layers_poset,
    linear_matroid,
    quotient_scheme,
    restrict,
    scheme_from_matroid,
    scheme_from_semimatroid,
    trivial_action,
    uniform_matroid,
    validate_scheme,
)
from mscheme import files

MINOR_SIZE_LIMIT = 200


@dataclass
class CorpusEntry:
    name: str
    scheme: object
    origin: str
    arrangement: object = None  # set for toric-derived entries


@dataclass
class Corpus:
    entries: list[CorpusEntry] = field(default_factory=list)
    arrangements: list[tuple[str, ToricArrangement]] = field(default_factory=list)

    def add(self, name, scheme, origin, arrangement=None):
        self.entries.append(CorpusEntry(name, scheme, origin, arrangement))

    def schemes(self):
        return [(e.name, e.scheme) for e in self.entries]

    def __len__(self):
        return len(self.entries)


def _is_valid(m) -> bool:
    try:
        validate_scheme(m.s, m.rho)
        return True
    except AxiomViolation:
        return False


def _random_arrangement(rng: random.Random, n: int, count: int) -> ToricArrangement | None:
    chars = []
    seen = set()
    for _ in range(count):
        for _attempt in range(30):
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
            g = 0
            for a in alpha:
                g = math.gcd(g, abs(a))
            if g != 1:
                continue
            q = rng.choice([1, 2, 3, 4])
            phase = Fraction(rng.randrange(q), q)
            c = Character(alpha, phase)
            if c.canonical_key() in seen:
                continue
            seen.add(c.canonical_key())
            chars.append(c)
            break
    if not chars:
        return None
    return ToricArrangement(n, chars)


def dowling_inputs() -> list:
    """(label, n, action) of the corpus Dowling posets."""
    z1 = cyclic_group(1)
    z2 = cyclic_group(2)
    one, two = ["+1"], ["+1", "-1"]
    swap2 = GroupAction(z2, two, {("e", "+1"): "+1", ("e", "-1"): "-1",
                                  ("g", "+1"): "-1", ("g", "-1"): "+1"})
    return [
        ("d1_triv", 1, trivial_action(z2, two)),
        ("d1_swap", 1, swap2),
        ("d2_triv", 2, trivial_action(z2, two)),
        ("d2_swap", 2, swap2),
        ("d2_point", 2, trivial_action(z2, one)),
        ("d3_plain", 3, trivial_action(z1, one)),
        ("d3_colors", 3, trivial_action(z1, two)),
        ("d3_group", 3, trivial_action(z2, one)),
    ]


def translative_complexes(rng, count) -> list:
    """Seeded semimatroids with a translative action of Z_m (m = 2, 3):
    g^i moves vertex j of a class of m vertices to j + i and fixes a class
    of one.  A face takes at most one vertex per class, every pair of its
    vertices from a G-invariant set of allowed pairs, and its rank counts
    its vertices outside the rank-0 fixed classes.  Candidates that break
    a semimatroid axiom are skipped.  Returns (semimatroid, action) pairs."""
    out = []
    while len(out) < count:
        m = rng.choice((2, 3))
        k = rng.randint(1, 4)
        sizes = [rng.choice((1, m, m)) for _ in range(k)]
        zero = {c for c in range(k) if sizes[c] == 1 and rng.random() < 0.5}
        verts = [(c, j) for c in range(k) for j in range(sizes[c])]

        def move(i, v):
            return v[0], (v[1] + i) % sizes[v[0]]

        allowed, seen = set(), set()
        for u, v in itertools.combinations(verts, 2):
            if u[0] != v[0] and frozenset((u, v)) not in seen:
                orbit = {frozenset((move(i, u), move(i, v))) for i in range(m)}
                seen |= orbit
                if {u[0], v[0]} & zero or rng.random() < 0.7:
                    allowed |= orbit
        name = {v: f"{'abcd'[v[0]]}{v[1]}" for v in verts}
        rank = {}
        for size in range(k + 1):
            for F in itertools.combinations(verts, size):
                if (len({c for c, _ in F}) == size
                        and all(frozenset(pair) in allowed for pair in itertools.combinations(F, 2))):
                    rank[frozenset(name[v] for v in F)] = sum(c not in zero for c, _ in F)
        try:
            sm = Semimatroid([name[v] for v in verts], list(rank), rank)
        except AxiomViolation:
            continue
        G = cyclic_group(m)
        out.append((sm, GroupAction(G, sm.vertices, {(g, name[v]): name[move(i, v)]
                                                    for i, g in enumerate(G.elements)
                                                    for v in verts})))
    return out


def build_corpus(seed: int = 0) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()

    for name in ("isth", "cw_l", "cw_r", "nonpos", "qfix", "qfix2",
                 "dow_triv", "dow_nontriv"):
        corpus.add(name, files.load_scheme(files.resolve_input(f"{name}.json")),
                   "fixture")

    for n in range(1, 5):
        for r in range(0, n + 1):
            corpus.add(f"uniform_{r}_{n}",
                       scheme_from_matroid(uniform_matroid(r, n)), "uniform")

    matrices = [
        ("id2", [[1, 0], [0, 1]]),
        ("tri", [[1, 0, 1], [0, 1, 1]]),
        ("dup", [[1, 1, 0], [0, 0, 1]]),
        ("zero_col", [[1, 0, 0], [0, 1, 0]]),
        ("rank1", [[1, 2, 3]]),
    ]
    for label, mat in matrices:
        corpus.add(f"linear_{label}", scheme_from_matroid(linear_matroid(mat)),
                   "linear")

    for label, n, act in dowling_inputs():
        _, scheme = dowling_poset(n, act)
        corpus.add(f"dowling_{label}", scheme, "dowling")

    sm4 = files.load_semimatroid(files.resolve_input("semi4.json"))
    grp = files.load_group(files.resolve_input("z2.json"))
    act4 = files.load_action(files.resolve_input("z2_swap.json"), grp)
    corpus.add("quot_semi4", quotient_scheme(sm4, act4).scheme, "quotient")
    corpus.add("quot_semi4_trivial",
               quotient_scheme(sm4, trivial_action(grp, sm4.vertices)).scheme,
               "quotient")
    sm4c = files.load_semimatroid(files.resolve_input("semi4c.json"))
    act4c = files.load_action(files.resolve_input("z2_swap_c.json"), grp)
    corpus.add("quot_semi4c", quotient_scheme(sm4c, act4c).scheme, "quotient")
    corpus.add("semi4_face_poset", scheme_from_semimatroid(sm4), "semimatroid")

    corpus.arrangements.append(
        ("toric1", files.load_arrangement(files.resolve_input("toric1.json"))))
    for i in range(14):
        n = rng.choice([1, 2, 2, 3])
        count = rng.randint(1, 5 if n > 1 else 3)
        arr = _random_arrangement(rng, n, count)
        if arr is None:
            continue
        corpus.arrangements.append((f"arr{i}_n{n}", arr))
    for label, arr in corpus.arrangements:
        try:
            result = layers_poset(arr)
        except SizeCapExceeded:  # pragma: no cover - caps are generous here
            continue
        if len(result.scheme.elements) > MINOR_SIZE_LIMIT:
            continue
        corpus.add(f"toric_{label}", result.scheme, "toric", arrangement=arr)

    # close under random minors; invalid contractions are dropped
    base = list(corpus.entries)
    for entry in base:
        m = entry.scheme
        if len(m.elements) > MINOR_SIZE_LIMIT:
            continue
        ops = rng.sample(["delete", "contract", "restrict"], k=3)
        for op in ops[:2]:
            try:
                if op == "delete" and m.atoms():
                    minor = delete(m, rng.choice(m.atoms()))
                elif op == "contract":
                    minor = contract(m, rng.choice(m.elements))
                elif op == "restrict" and m.atoms():
                    k = rng.randint(0, len(m.atoms()))
                    minor = restrict(m, rng.sample(m.atoms(), k))
                else:
                    continue
            except MschemeError:  # pragma: no cover - guarded choices
                continue
            if len(minor.elements) < 1 or not _is_valid(minor):
                continue
            corpus.add(f"{entry.name}__{op}", minor, f"minor:{op}")
    return corpus
