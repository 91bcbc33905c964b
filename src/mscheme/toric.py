"""Exact toric-arrangement engine over the circle group with rational
translation phases.

A hypersurface is cut out by a primitive integer character alpha and a
rational phase t: the points phi of the n-torus with phi(alpha) = t.  A
layer (connected component of an intersection) is encoded as a saturated
integer sublattice in canonical row Hermite normal form together with the
phases its basis rows must take; saturation makes the component connected
and the canonical form makes equality componentwise.

Intersecting a layer with a hypersurface has two halves.  The lattice half
depends only on the layer's basis B and the character vector: one Smith
form per distinct B completes it to a unimodular W, and one Hermite form
per (B, alpha) gives the saturated lattice and the number g of pieces (see
``_Cut``); ``_closure`` caches both in each call.  The phase half runs
on integers over one common denominator and gives reduced (num, den)
pairs; ``_closure`` keys its layers on them and builds Fractions once
per distinct layer.
Every exact invariant in this module raises InvariantBroken, so it holds
under ``python -O``.  Characters and layers are plain slotted classes, so
importing the module loads no ``dataclasses``.

Real and elliptic coefficient groups are out of scope: real factors make
the poset infinite in translation and elliptic curves change component
counts, so the module states the circle-group restriction instead of
parameterizing over it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .constructions import Matroid, linear_matroid, scheme_from_matroid
from .errors import (
    DimensionMismatch,
    InvariantBroken,
    MschemeError,
    NotALayer,
    NotInArrangement,
)
from .geometric import DEFAULT_ATOM_CAP, scheme_from_geometric, validate_geometric
from .poset import _bits, _certified, _convex, find_isomorphism
from .scheme import contract, delete, localization, scheme_isomorphism


# --- integer matrix normal forms --------------------------------------------------

def hnf(matrix: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form H with unimodular U such that U*M = H.

    Convention: pivots positive, entries above each pivot reduced into
    [0, pivot); zero rows sink to the bottom.  This fixes file-level
    canonical forms for lattices.
    """
    m = [list(r) for r in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        # euclidean elimination below row r in column c
        while True:
            nz = [i for i in range(r, rows) if m[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(m[i][c]))
            m[r], m[piv] = m[piv], m[r]
            u[r], u[piv] = u[piv], u[r]
            if m[r][c] < 0:
                m[r] = [-v for v in m[r]]
                u[r] = [-v for v in u[r]]
            done = True
            for i in range(r + 1, rows):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                if m[i][c] != 0:
                    done = False
            if done:
                break
        if any(m[i][c] != 0 for i in range(r, rows)):
            for i in range(r):  # reduce entries above the pivot
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
            if r == rows:
                break
    return m, u


def snf(matrix: list[list[int]]):
    """Smith normal form D = U*M*V with unimodular U, V and divisibility
    d1 | d2 | ... along the diagonal.  Returns (D, U, V)."""
    m = [list(r) for r in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        # find a pivot
        nz = [(i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j] != 0]
        if not nz:
            break
        i0, j0 = min(nz, key=lambda ij: abs(m[ij[0]][ij[1]]))
        swap_rows(t, i0)
        swap_cols(t, j0)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        dirty = False
        for i in range(t + 1, rows):
            q = m[i][t] // m[t][t]
            if q:
                add_row(t, i, -q)
            if m[i][t] != 0:
                dirty = True
        for j in range(t + 1, cols):
            q = m[t][j] // m[t][t]
            if q:
                add_col(t, j, -q)
            if m[t][j] != 0:
                dirty = True
        if dirty:
            continue
        # divisibility: fold any non-multiple into position t
        bad = next(((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols)
                    if m[i][j] % m[t][t] != 0), None)
        if bad is not None:
            add_row(bad[0], t, 1)
            continue
        t += 1
    return m, u, v


# --- characters and layers -----------------------------------------------------------

def _parse_phase(value) -> Fraction:
    t = Fraction(value)
    return t - (t.numerator // t.denominator)  # reduce into [0, 1)


def _entry(value) -> int:
    """A character entry: an int, or a float with no fractional part.  A
    bool or any other value is refused, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MschemeError(f"character entry {value!r} is not an integer")
    return value


class Character:
    """A primitive integer vector with a rational phase in [0, 1)."""

    __slots__ = ("alpha", "phase")

    def __init__(self, alpha, phase):
        self.alpha = tuple(_entry(a) for a in alpha)
        if not self.alpha or all(a == 0 for a in self.alpha):
            raise MschemeError("character vector must be nonzero")
        g = 0
        for a in self.alpha:
            g = gcd(g, abs(a))
        if g != 1:
            raise MschemeError(
                f"character {self.alpha} is not primitive (content {g}); "
                "non-primitive input is an error, not auto-normalized")
        self.phase = _parse_phase(phase)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alpha, self.phase) == (other.alpha, other.phase)

    def __hash__(self):
        return hash((self.alpha, self.phase))

    def canonical_key(self) -> tuple:
        """Sign-normalized key: negating the vector negates the phase."""
        first = next(a for a in self.alpha if a != 0)
        if first < 0:
            return (tuple(-a for a in self.alpha), _parse_phase(-self.phase))
        return (self.alpha, self.phase)

    @property
    def label(self) -> str:
        return f"({','.join(map(str, self.alpha))})@{self.phase}"

    def __repr__(self):
        return f"Character{self.label}"


class Layer:
    """A saturated sublattice (canonical triangular basis) plus the rational
    phases of its basis rows; one connected component of an intersection."""

    __slots__ = ("n", "basis", "phases", "layer_id")

    def __init__(self, n: int, basis: tuple[tuple[int, ...], ...],
                 phases: tuple[Fraction, ...]):
        self.n = n
        self.basis = basis
        self.phases = phases
        rows = ",".join("[" + ",".join(map(str, row)) + "]" for row in basis)
        self.layer_id = f"[{rows}]|[{','.join(map(str, phases))}]"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.basis, self.phases) == (other.n, other.basis, other.phases)

    def __hash__(self):
        return hash((self.n, self.basis, self.phases))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def express(self, alpha) -> list[int] | None:
        """Integer coordinates of alpha over the basis rows, or None when
        alpha is outside the lattice.  Back-substitution along the pivot
        columns, verified exactly."""
        residue = list(alpha)
        coeffs = []
        for row in self.basis:
            pivot_col = next(i for i, v in enumerate(row) if v)
            q, r = divmod(residue[pivot_col], row[pivot_col])
            if r:
                return None
            coeffs.append(q)
            residue = [a - q * b for a, b in zip(residue, row)]
        return None if any(residue) else coeffs

    def phase_of(self, alpha) -> Fraction | None:
        coeffs = self.express(alpha)
        if coeffs is None:
            return None
        total = sum((c * p for c, p in zip(coeffs, self.phases)), Fraction(0))
        return _parse_phase(total)

    def __repr__(self):
        return f"Layer({self.layer_id})"


def ambient_layer(n: int) -> Layer:
    return Layer(n, (), ())


def _completion(n: int, basis) -> tuple[tuple[int, ...], ...]:
    """The columns of W^-1 for a unimodular W whose first r rows are the
    basis, so that alpha * W^-1 gives alpha's coordinates over W.

    With D = U*B*V, every diagonal entry of D is 1 because the lattice is
    saturated, so B is U^-1 times the first r rows of V^-1: W is
    diag(U^-1, I) * V^-1 and W^-1 = V * diag(U, I).  One Smith form per
    basis."""
    r = len(basis)
    if not r:
        return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    d, u, v = snf([list(row) for row in basis])
    if any(d[i][i] != 1 for i in range(r)):
        raise InvariantBroken(f"layer basis {basis} is not saturated")
    head = [tuple(sum(v[i][k] * u[k][j] for k in range(r)) for i in range(n))
            for j in range(r)]
    return tuple(head) + tuple(tuple(row[j] for row in v) for j in range(r, n))


class _Cut:
    """The lattice half of cutting a layer (basis B of rank r, phases phi)
    with the hypersurfaces of a character alpha outside its lattice.

    With c = alpha * W^-1, alpha = c[:r]*B + g*beta where g = gcd(c[r:]) > 0
    and beta = (alpha - c[:r]*B)/g is primitive modulo the lattice, so the
    saturation of lattice + Z alpha is lattice + Z beta; with T*[B; beta] = H
    in Hermite form, ``sat`` is H.  A point with phases phi on B and theta
    on alpha has phase (theta - c[:r]*phi + k)/g on beta for one k in
    [0, g): the multiplicity g of the arithmetic matroid is the number of
    pieces.  Over the denominator q*g, with Phi, Theta the numerators over
    q, the phases on H are T*[g*Phi; Theta - c[:r]*Phi + k*q], that is
    ``mix`` * [Phi; Theta] plus k*q times ``shift``, the last column of T."""

    __slots__ = ("sat", "mix", "shift", "g")

    def __init__(self, basis, alpha, c, g):
        r = len(basis)
        head = c[:r]
        beta = [(a - sum(h * row[i] for h, row in zip(head, basis))) // g
                for i, a in enumerate(alpha)]
        h, t = hnf([list(row) for row in basis] + [beta])
        self.sat = tuple(tuple(row) for row in h)
        self.mix = [[g * t_i[j] - t_i[r] * head[j] for j in range(r)] + [t_i[r]]
                    for t_i in t]
        self.shift = [t_i[r] for t_i in t]
        self.g = g

    def pieces(self, phases) -> list[tuple[tuple[int, int], ...]]:
        """The phases of every piece, one tuple per k, given the layer's
        phases followed by the character's.  Each phase, given and
        returned, is a reduced pair (num, den) of ints with
        0 <= num < den: pairs hash and compare as tuples, and a caller
        builds a Fraction only for a layer it keeps."""
        q = 1
        for _, d in phases:
            q = lcm(q, d)
        nums = [n * (q // d) for n, d in phases]
        base = [sum(a * b for a, b in zip(row, nums)) for row in self.mix]
        big = q * self.g
        out = []
        for kq in range(0, big, q):
            piece = []
            for b, s in zip(base, self.shift):
                num = (b + kq * s) % big
                k = gcd(num, big)
                piece.append((num // k, big // k))
            out.append(tuple(piece))
        return out


def _fractions(phases) -> tuple[Fraction, ...]:
    """The Fractions of reduced (num, den) phase pairs."""
    return tuple(Fraction(n, d) for n, d in phases)


def _cut(basis, inverse, alpha) -> _Cut | None:
    """The cut by character alpha of a layer with this basis and
    completion ``inverse`` (see ``_completion``), or None when alpha lies
    in the lattice.  Phases play no part."""
    c = [sum(a * w for a, w in zip(alpha, col)) for col in inverse]
    g = gcd(*c[len(basis):])
    return _Cut(basis, alpha, c, g) if g else None


def intersect_layer(layer: Layer, c: Character) -> list[Layer]:
    """All layers of the intersection with one hypersurface.

    If alpha already lies in the layer's lattice the constraint is either
    redundant (one layer) or contradictory (none).  Otherwise the lattice
    grows to its saturation and the phases extend in g ways (see
    ``_Cut``).
    """
    if len(c.alpha) != layer.n:
        raise DimensionMismatch(f"character in rank {len(c.alpha)}, layer in {layer.n}")
    cut = _cut(layer.basis, _completion(layer.n, layer.basis), c.alpha)
    if cut is None:
        return [layer] if layer.phase_of(c.alpha) == c.phase else []
    given = tuple((t.numerator, t.denominator) for t in layer.phases + (c.phase,))
    out = [Layer(layer.n, cut.sat, _fractions(phases)) for phases in cut.pieces(given)]
    return sorted(out, key=lambda L: L.layer_id)


# --- arrangements ----------------------------------------------------------------------

class ToricArrangement:
    """A finite set of hypersurfaces in the n-torus, given by primitive
    characters with rational phases; duplicates (up to simultaneous sign
    change) are rejected."""

    __slots__ = ("n", "characters")

    def __init__(self, n: int, characters):
        if n < 0:
            raise DimensionMismatch(f"torus rank {n} is negative")
        self.n = n
        chars = []
        seen = set()
        for c in characters:
            if not isinstance(c, Character):
                c = Character(tuple(c[0]), Fraction(c[1]))
            if len(c.alpha) != n:
                raise DimensionMismatch(
                    f"character {c.label} does not live in rank {n}")
            key = c.canonical_key()
            if key in seen:
                raise MschemeError(f"duplicate hypersurface {c.label}")
            seen.add(key)
            chars.append(c)
        self.characters = tuple(chars)

    def __repr__(self):
        return f"ToricArrangement(n={self.n}, {len(self.characters)} characters)"


class LayersResult:
    """Poset of layers with its certificate and simple scheme, plus the
    dictionaries linking layer ids, Layer values, poset elements and scheme
    elements."""

    __slots__ = ("geometric", "scheme", "layers", "atom_of", "scheme_element_of")

    def __init__(self, geometric, scheme, layers, atom_of, scheme_element_of):
        self.geometric = geometric
        self.scheme = scheme
        self.layers = layers
        self.atom_of = atom_of
        self.scheme_element_of = scheme_element_of


def _closure(arr: ToricArrangement):
    """The layers of ``arr``, breadth first from the ambient layer, with the
    intersection steps (layer id, piece id) and each hypersurface's atom
    layer id by canonical key.  Its tables, keyed on the reduced phase
    pairs of ``_Cut.pieces``, are freed before the poset is built."""
    start = ambient_layer(arr.n)
    layers = {(start.basis, ()): start}  # (basis, phase pairs) -> its one Layer
    steps = set()
    completions = {}  # basis -> _completion, for this call only
    cuts = {}  # (basis, alpha) -> _cut, for this call only
    hypersurfaces = [(c.alpha, (c.phase.numerator, c.phase.denominator))
                     for c in arr.characters]
    frontier = [((), start)]
    while frontier:
        new = []
        for phases, layer in frontier:
            basis = layer.basis
            for alpha, t in hypersurfaces:
                key = (basis, alpha)
                if key not in cuts:
                    if basis not in completions:
                        completions[basis] = _completion(arr.n, basis)
                    cuts[key] = _cut(basis, completions[basis], alpha)
                cut = cuts[key]
                if cut is None:  # the piece is the layer itself, or nothing
                    continue
                for cut_phases in cut.pieces(phases + (t,)):
                    piece = layers.get((cut.sat, cut_phases))
                    if piece is None:
                        piece = Layer(arr.n, cut.sat, _fractions(cut_phases))
                        layers[cut.sat, cut_phases] = piece
                        new.append((cut_phases, piece))
                    steps.add((layer.layer_id, piece.layer_id))
        frontier = new

    atom_of = {}
    for c, (alpha, t) in zip(arr.characters, hypersurfaces):
        cut = cuts[((), alpha)]  # a primitive alpha cuts the torus in one piece
        (phases,) = cut.pieces((t,))
        atom_of[c.canonical_key()] = layers[cut.sat, phases].layer_id
    return list(layers.values()), steps, atom_of


def layers_poset(arr: ToricArrangement, atom_cap: int = DEFAULT_ATOM_CAP) -> LayersResult:
    """Breadth-first closure of the ambient layer under intersection with
    every hypersurface, ordered by reverse inclusion, certified geometric,
    with the simple scheme attached.  The covers are the intersection steps
    that cut a layer down: layers are saturated, so a piece of L meet H_c
    other than L has rank(L) + 1, and a layer M of rank(L) + 1 inside L is a
    piece of L meet H_c for any H_c that contains M but not L.  So the
    poset is built with the lattice ranks as given, not derived, and
    ``validate_geometric`` is its certificate.  ``scheme_element_of``
    names each layer's flat by its id in the scheme."""
    found, steps, atom_of = _closure(arr)
    ordered = sorted(found, key=lambda L: (L.rank, L.layer_id))
    ids = [L.layer_id for L in ordered]
    pos = {lid: k for k, lid in enumerate(ids)}
    rp = _certified(ids, sorted((pos[a], pos[b]) for a, b in steps), [L.rank for L in ordered])
    gp = validate_geometric(rp, atom_cap)
    scheme = scheme_from_geometric(gp)

    # the scheme's pairs (I, x) come in blocks of x in layer order, and in
    # each block only the flat (atoms below x, x) has no upper cover of
    # the same rho: every other misses an atom a below x, and (I + a, x)
    # covers it
    sp = scheme.poset
    r = scheme.rhos
    flat = [e for e, k, up in zip(sp.elements, r, sp.covers_up) if all(r[j] != k for j in up)]
    return LayersResult(gp, scheme, dict(zip(ids, ordered)), atom_of,
                        dict(zip(ids, flat)))


def arr_delete(arr: ToricArrangement, c: Character) -> ToricArrangement:
    key = c.canonical_key()
    kept = [x for x in arr.characters if x.canonical_key() != key]
    if len(kept) == len(arr.characters):
        raise NotInArrangement(f"{c.label} is not a hypersurface of the arrangement")
    return ToricArrangement(arr.n, kept)


def arr_restrict(arr: ToricArrangement, c: Character) -> ToricArrangement:
    """Change coordinates so the chosen hypersurface becomes the ambient
    torus: complete alpha to a unimodular W with first row alpha by
    ``_completion``, read the other characters over W, translate their
    phases, and split non-primitive images into their connected components
    (merging coincident ones).  The result is defined up to a unimodular
    change of coordinates and a translation of the chosen subtorus."""
    key = c.canonical_key()
    if all(x.canonical_key() != key for x in arr.characters):
        raise NotInArrangement(f"{c.label} is not a hypersurface of the arrangement")
    inverse = _completion(arr.n, (c.alpha,))

    chars = {}
    for other in arr.characters:
        if other.canonical_key() == key:
            continue
        c0, *beta_rest = [sum(a * w for a, w in zip(other.alpha, col)) for col in inverse]
        phase = _parse_phase(other.phase - c0 * c.phase)
        content = 0
        for b in beta_rest:
            content = gcd(content, abs(b))
        if content == 0:
            # parallel hypersurface: empty intersection with the chosen one
            # (a coincident one would be a duplicate, which is rejected)
            if phase == 0:
                raise InvariantBroken("duplicate hypersurface survived validation")
            continue
        gamma = tuple(b // content for b in beta_rest)
        for j in range(content):
            piece = Character(gamma, _parse_phase(Fraction(phase + j, content)))
            chars.setdefault(piece.canonical_key(), piece)
    return ToricArrangement(arr.n - 1, [chars[k] for k in sorted(chars)])


def arr_localize(arr: ToricArrangement, layer: Layer,
                 result: LayersResult | None = None) -> Matroid:
    """Linear matroid of the character vectors whose hypersurfaces contain
    the layer (for some phase)."""
    if result is None:
        result = layers_poset(arr)
    if layer.layer_id not in result.layers:
        raise NotALayer(f"{layer.layer_id} is not a layer of the arrangement")
    chosen = [c for c in arr.characters if layer.phase_of(c.alpha) == c.phase]
    matrix = [list(col) for col in zip(*[c.alpha for c in chosen])] if chosen else []
    return linear_matroid(matrix, [c.label for c in chosen])


class ThmArrReport:
    """Witness bijections for the three arrangement/scheme compatibilities:
    deletion, restriction-vs-contraction, and localization.

    The restriction witness is a scheme isomorphism whenever the contracted
    scheme is simple (``restriction_is_direct``); otherwise it is the
    layer-poset isomorphism between the restricted arrangement's layers and
    the sublayers of the chosen hypersurface, which is the part that holds
    unconditionally (two hypersurfaces can share a component inside the
    chosen one, making the contraction non-simple while the restricted
    arrangement forgets the multiplicity)."""

    __slots__ = ("deletion", "restriction", "localization",
                 "restriction_is_direct")

    def __init__(self, deletion, restriction, localization_, direct):
        self.deletion = deletion
        self.restriction = restriction
        self.localization = localization_
        self.restriction_is_direct = direct

    @property
    def ok(self) -> bool:
        return (self.deletion is not None and self.restriction is not None
                and self.localization is not None)


def verify_thm_arr(arr: ToricArrangement, c: Character, layer: Layer) -> ThmArrReport:
    """Compute both sides of each isomorphism (arrangement-level
    delete/restrict/localize against scheme-level delete/contract/localize)
    and return the witness bijections."""
    full = layers_poset(arr)
    atom_layer = full.atom_of[c.canonical_key()]
    atom_el = full.scheme_element_of[atom_layer]

    deleted = layers_poset(arr_delete(arr, c))
    iso_del = scheme_isomorphism(deleted.scheme, delete(full.scheme, atom_el))

    restricted = layers_poset(arr_restrict(arr, c))
    contraction = contract(full.scheme, atom_el)
    iso_restr = scheme_isomorphism(restricted.scheme, contraction)
    direct = iso_restr is not None
    if not direct:
        # layer-poset comparison: sublayers of the hypersurface, re-ranked
        fp = full.geometric.ranked
        sub = _convex(fp, list(_bits(fp.poset.above[fp.poset.idx(atom_layer)])))
        iso_restr = find_isomorphism(restricted.geometric.ranked, sub)

    if layer.layer_id not in full.layers:
        raise NotALayer(f"{layer.layer_id} is not a layer of the arrangement")
    local_arr = arr_localize(arr, layer, full)
    local_scheme = scheme_from_matroid(local_arr)
    layer_el = full.scheme_element_of[layer.layer_id]
    iso_local = scheme_isomorphism(local_scheme, localization(full.scheme, layer_el))
    return ThmArrReport(iso_del, iso_restr, iso_local, direct)
