"""Integer lattice algebra and the toric-arrangement engine."""

import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mscheme
from mscheme import (
    AtomCapExceeded,
    Character,
    DimensionMismatch,
    InvariantBroken,
    Layer,
    MschemeError,
    NotInArrangement,
    NotALayer,
    SizeCapExceeded,
    ToricArrangement,
    ambient_layer,
    arr_delete,
    arr_localize,
    arr_restrict,
    find_isomorphism,
    hnf,
    intersect_layer,
    layers_poset,
    scheme_isomorphism,
    snf,
    verify_thm_arr,
)
from mscheme.toric import _closure, _completion, _cut, _layer
from grid_oracle import _solution_points, check_arrangement
from referees import closure_reference, hermite_cut, hnf_reference, snf_reference

SRC = Path(mscheme.__file__).parents[1]


def test_snf_of_diagonal_pair():
    d, u, v = snf([[1, 1], [1, -1]])
    assert [d[0][0], d[1][1]] == [1, 2]


def test_hnf_identity_and_content():
    h, _ = hnf([[1, 0], [0, 1]])
    assert h == [[1, 0], [0, 1]]
    h2, _ = hnf([[2, 4]])
    assert h2 == [[2, 4]]


def test_hnf_transform_is_unimodular():
    m = [[4, 6, 2], [2, 8, 10]]
    h, u = hnf(m)
    assert _matmul(u, m) == h
    assert abs(_det2(u[:2])) in (1,) if len(u) == 2 else True


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _det2(rows):
    return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(n))


small_matrix = st.lists(
    st.lists(st.integers(-4, 4), min_size=2, max_size=3),
    min_size=1, max_size=3).filter(
        lambda m: len({len(r) for r in m}) == 1)


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_normal_form_properties(m):
    h, u = hnf(m)
    assert _matmul(u, m) == h
    if len(u) == len(u[0]):
        assert abs(_det(u)) == 1
    d, su, sv = snf(m)
    assert _matmul(_matmul(su, m), sv) == d
    assert abs(_det(su)) == 1 and abs(_det(sv)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    # hnf is canonical: re-running on the nonzero rows is the identity
    rows = [r for r in h if any(r)]
    if rows:
        assert hnf(rows)[0] == rows


def test_normal_forms_match_the_referees():
    """``hnf`` and ``snf``, whose rows carry their transform rows, give
    exactly the (H, U) and (D, U, V) of the referees, which keep the
    transforms apart, on 5,000 seeded matrices of 1-4 rows, 0-5 columns
    and entries in [-5, 5], zero rows and zero columns among them; the
    input is left as it was."""
    rng = random.Random(20261031)
    zero_rows = zero_cols = 0
    for k in range(5000):
        rows, cols = rng.randint(1, 4), rng.randint(0, 5)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        if k % 3 == 1:
            m[rng.randrange(rows)] = [0] * cols
        elif k % 3 == 2 and cols:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        given = [row[:] for row in m]
        assert hnf(m) == hnf_reference(m), m
        assert snf(m) == snf_reference(m), m
        assert m == given
        zero_rows += any(not any(row) for row in m)
        zero_cols += any(not any(col) for col in zip(*m))
    assert zero_rows >= 1000 and zero_cols >= 1000, (zero_rows, zero_cols)


def integer_kernel(matrix):
    """Basis of { v : M v = 0 }: the columns of V at the zero diagonal
    entries of the Smith form D = U*M*V."""
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    if rows == 0:
        return [[int(i == j) for j in range(cols)] for i in range(cols)]
    d, _, v = snf(matrix)
    return [[v[i][j] for i in range(cols)]
            for j in range(cols) if j >= rows or d[j][j] == 0]


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in integer_kernel(m):
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)


def test_character_validation():
    with pytest.raises(MschemeError):
        Character((0, 0), Fraction(0))
    with pytest.raises(MschemeError):
        Character((2, 4), Fraction(0))  # not primitive: error, not normalized
    c = Character((1, -1), Fraction(5, 2))
    assert c.phase == Fraction(1, 2)  # reduced into [0, 1)
    # entries are refused, not truncated: a fraction, a bool
    for bad in ((1.5, 0), (True, 0)):
        with pytest.raises(MschemeError, match="not an integer"):
            Character(bad, Fraction(0))
    assert Character((2.0, 1), Fraction(0)) == Character((2, 1), Fraction(0))
    assert repr(Character((2.0, 1), Fraction(0))) == "Character(2,1)@0"


def _unimodular_inverse(mat: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (Gauss over fractions,
    result converted back to ints)."""
    size = len(mat)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
         for i, row in enumerate(mat)]
    for col in range(size):
        piv = next(r for r in range(col, size) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        for r in range(size):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    inv = [[x for x in row[size:]] for row in a]
    out = [[int(x) for x in row] for row in inv]
    if any(Fraction(o) != x for row_o, row_x in zip(out, inv)
           for o, x in zip(row_o, row_x)):
        raise InvariantBroken("inverse is not integral")
    return out


def test_unimodular_inverse_refuses_a_non_integral_inverse():
    assert _unimodular_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    with pytest.raises(InvariantBroken, match="not integral"):
        _unimodular_inverse([[2]])


def test_duplicate_characters_rejected():
    with pytest.raises(MschemeError):
        ToricArrangement(2, [Character((1, -1), Fraction(1, 3)),
                             Character((-1, 1), Fraction(2, 3))])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ToricArrangement(2, [Character((1, 1, 1), Fraction(0))])
    with pytest.raises(DimensionMismatch):
        intersect_layer(ambient_layer(3), Character((1, 1), Fraction(0)))


def test_intersect_layer_steps(toric1):
    c1, c2 = toric1.characters
    first = intersect_layer(ambient_layer(2), c1)
    assert len(first) == 1 and first[0].rank == 1
    points = intersect_layer(first[0], c2)
    assert len(points) == 2
    phases = sorted(tuple(p) for p in (L.phases for L in points))
    assert phases == [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))]
    # idempotence: re-intersecting with a satisfied character
    assert intersect_layer(first[0], c1) == [first[0]]
    assert intersect_layer(points[0], c2) == [points[0]]


def test_layers_poset_toric1(toric1, isth):
    result = layers_poset(toric1)
    assert len(result.layers) == 5
    ranks = sorted(L.rank for L in result.layers.values())
    assert ranks == [0, 1, 1, 2, 2]
    assert scheme_isomorphism(result.scheme, isth) is not None


def test_layers_poset_edge_cases():
    empty = layers_poset(ToricArrangement(1, []))
    assert len(empty.layers) == 1
    point = layers_poset(ToricArrangement(0, []))  # the ambient layer is a point
    assert list(point.layers) == ["[]|[]"] and len(point.scheme.elements) == 1
    parallel = layers_poset(ToricArrangement(2, [
        Character((1, 0), Fraction(0)), Character((1, 0), Fraction(1, 2)),
        Character((0, 1), Fraction(0))]))
    assert len(parallel.layers) == 6  # ambient + 3 subtori + 2 points


def test_closure_caps_the_layers(monkeypatch, toric1):
    """Every layer is the second component of a pair of the simple scheme,
    so ``_closure`` counts layers against ``errors.ELEMENT_CAP`` and
    refuses one past it before the poset or the scheme is built."""
    import mscheme.geometric
    import mscheme.toric

    def unreachable(*args):
        raise AssertionError("built past the layer cap")

    monkeypatch.setattr(mscheme.toric, "_certified", unreachable)
    monkeypatch.setattr(mscheme.geometric, "_walk", unreachable)
    monkeypatch.setattr(mscheme.errors, "ELEMENT_CAP", 4)  # toric1 has 5 layers
    with pytest.raises(SizeCapExceeded) as err:
        layers_poset(toric1)
    assert str(err.value) == "layer poset size at least 5 exceeds the configured cap 4"


def test_layers_poset_refuses_atoms_past_the_cap_before_the_closure(monkeypatch):
    """The atoms of the layer poset are the hypersurfaces, one connected
    layer each, so more than ``atom_cap`` of them are refused before any
    layer is listed."""
    import mscheme.toric

    def closure(arr):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(mscheme.toric, "_closure", closure)
    arr = ToricArrangement(2, [Character((1, k), Fraction(0)) for k in range(21)])
    with pytest.raises(AtomCapExceeded) as err:
        layers_poset(arr)
    assert (err.value.count, err.value.cap) == (21, 20)
    with pytest.raises(AssertionError, match="the closure ran"):
        layers_poset(arr, atom_cap=21)


def test_arr_delete(toric1):
    h0 = Character((1, -1), Fraction(0))
    deleted = arr_delete(toric1, h0)
    assert len(deleted.characters) == 1
    chain = layers_poset(deleted)
    assert [chain.geometric.rank[e] for e in chain.geometric.elements] == [0, 1]
    with pytest.raises(NotInArrangement):
        arr_delete(deleted, h0)


def test_arr_restrict(toric1):
    h0 = Character((1, -1), Fraction(0))
    restricted = arr_restrict(toric1, h0)
    assert restricted.n == 1
    assert sorted(str(c.phase) for c in restricted.characters) == ["0", "1/2"]
    layers = layers_poset(restricted)
    assert len(layers.layers) == 3  # the circle and two points


def test_arr_localize(toric1):
    result = layers_poset(toric1)
    point = result.layers["[[1,0],[0,1]]|[1/2,1/2]"]
    mat = arr_localize(toric1, point, result)
    assert mat.rank[frozenset(mat.ground)] == 2
    ambient = result.layers["[]|[]"]
    empty = arr_localize(toric1, ambient, result)
    assert empty.ground == ()
    with pytest.raises(NotALayer):
        arr_localize(toric1, ambient_layer(3).__class__(
            2, ((1, 7),), (Fraction(0),)), result)


def test_verify_thm_arr(toric1):
    result = layers_poset(toric1)
    h0 = Character((1, -1), Fraction(0))
    point = result.layers["[[1,0],[0,1]]|[1/2,1/2]"]
    report = verify_thm_arr(toric1, h0, point)
    assert report.ok
    ambient = result.layers["[]|[]"]
    report2 = verify_thm_arr(toric1, h0, ambient)
    assert report2.localization is not None


def test_verify_thm_arr_refuses_a_foreign_character_then_a_foreign_layer(
        monkeypatch, toric1):
    """A character that is not a hypersurface of the arrangement raises
    the ``NotInArrangement`` of ``arr_delete``, with a foreign layer too,
    before any layer poset is built; a foreign layer with a hypersurface
    raises ``NotALayer`` once the arrangement's own poset is built, before
    the deleted and restricted posets are."""
    import mscheme.toric
    full = layers_poset(toric1)
    h0 = Character((1, -1), Fraction(0))
    foreign = Character((1, 0), Fraction(0))
    point = full.layers["[[1,0],[0,1]]|[1/2,1/2]"]
    stray = Layer(2, ((1, 7),), (Fraction(0),))
    with pytest.raises(NotInArrangement) as deleting:
        arr_delete(toric1, foreign)
    built = []

    def counting(arr, *args):
        built.append(arr)
        return layers_poset(arr, *args)

    monkeypatch.setattr(mscheme.toric, "layers_poset", counting)
    for layer in (point, stray):
        with pytest.raises(NotInArrangement) as err:
            verify_thm_arr(toric1, foreign, layer)
        assert str(err.value) == str(deleting.value)
    assert built == []
    with pytest.raises(NotALayer, match=r"\[\[1,7\]\]\|\[0\] is not a layer"):
        verify_thm_arr(toric1, h0, stray)
    assert built == [toric1]


def test_component_count_matches_diagonal_product():
    # two characters whose matrix has diagonal form (1, 2): two points
    arr = ToricArrangement(2, [Character((1, 1), Fraction(0)),
                               Character((1, -1), Fraction(0))])
    result = layers_poset(arr)
    points = [L for L in result.layers.values() if L.rank == 2]
    d, _, _ = snf([[1, 1], [1, -1]])
    assert len(points) == d[0][0] * d[1][1] == 2


def test_grid_oracle_on_toric1(toric1):
    result = layers_poset(toric1)
    stats = check_arrangement(toric1, result)
    assert not stats["skipped"]
    assert stats["layers"] == 5 and stats["full_rank_checks"] >= 1


def test_grid_oracle_on_phased_arrangement():
    arr = ToricArrangement(2, [Character((1, 1), Fraction(1, 2)),
                               Character((1, -1), Fraction(1, 3)),
                               Character((0, 1), Fraction(0))])
    stats = check_arrangement(arr, layers_poset(arr))
    assert not stats["skipped"]


def test_grid_oracle_checks_run_under_python_O():
    """The oracle's checks are plain asserts in a helper module, registered
    for assertion rewriting by the conftest, so ``python -O`` keeps them: a
    grid denominator that misses a phase is refused."""
    with pytest.raises(AssertionError, match="grid denominator misses a phase"):
        _solution_points([[1]], [Fraction(1, 3)], 2, 1)


def test_layer_canonicalization_from_alternative_generators(toric1):
    """The same point set reached through different intersection orders
    must produce the identical canonical layer."""
    c1, c2 = toric1.characters
    via_12 = intersect_layer(intersect_layer(ambient_layer(2), c1)[0], c2)
    via_21 = intersect_layer(intersect_layer(ambient_layer(2), c2)[0], c1)
    assert sorted(L.layer_id for L in via_12) == sorted(L.layer_id for L in via_21)


# --- referees for the layer enumeration ------------------------------------------------
#
# The reference below is the rational-arithmetic enumeration the engine
# used before its phase work moved to integers: saturation as a double
# integer kernel, the generators expressed over it by back-substitution,
# and the extension system solved over Q/Z with Fractions.

def _frac(t):
    return t - (t.numerator // t.denominator)


def _reference_express(basis, alpha):
    residue = list(alpha)
    coeffs = []
    for row in basis:
        pivot_col = next(i for i, v in enumerate(row) if v)
        q, r = divmod(residue[pivot_col], row[pivot_col])
        if r:
            return None
        coeffs.append(q)
        residue = [a - q * b for a, b in zip(residue, row)]
    return None if any(residue) else coeffs


def _reference_saturate(matrix):
    if not matrix:
        return []
    cols = len(matrix[0])
    orthogonal = integer_kernel(matrix)
    if not orthogonal:
        basis = [[int(i == j) for j in range(cols)] for i in range(cols)]
    else:
        basis = integer_kernel(orthogonal)
    h, _ = hnf(basis)
    return [row for row in h if any(row)]


def _reference_solve(cmat, gen_phases):
    """Phase tuples phi with C * phi = gen_phases over Q/Z, in the order of
    the Smith enumeration; None when the system is inconsistent."""
    d, u, v = snf(cmat)
    k = len(cmat[0])
    rhs = [sum((u[i][j] * gen_phases[j] for j in range(len(gen_phases))), Fraction(0))
           for i in range(len(cmat))]
    if any(rhs[i] != rhs[i].numerator // rhs[i].denominator
           for i in range(k, len(cmat))):
        return None
    choice_sets = []
    for i in range(k):
        di = d[i][i]
        assert di != 0
        choice_sets.append([_frac(rhs[i] / di + Fraction(j, di)) for j in range(di)])
    out = []
    for combo in itertools.product(*choice_sets):
        phi = [sum((Fraction(v[i][j]) * combo[j] for j in range(k)), Fraction(0))
               for i in range(k)]
        out.append(tuple(_frac(p) for p in phi))
    return out


def _reference_intersect(layer, c):
    coeffs = _reference_express(layer.basis, c.alpha)
    if coeffs is not None:
        known = _frac(sum((x * p for x, p in zip(coeffs, layer.phases)), Fraction(0)))
        return [layer] if known == c.phase else []
    gen_rows = [list(r) for r in layer.basis] + [list(c.alpha)]
    sat = _reference_saturate(gen_rows)
    cmat = [_reference_express(sat, row) for row in gen_rows]
    assert None not in cmat
    phases = _reference_solve(cmat, list(layer.phases) + [c.phase])
    out = [Layer(layer.n, tuple(tuple(r) for r in sat), ph) for ph in phases]
    return sorted(out, key=lambda L: L.layer_id)


def _random_character(rng, n):
    while True:
        alpha = [rng.randint(-3, 3) for _ in range(n)]
        if any(alpha) and math.gcd(*alpha) == 1:
            den = rng.randint(1, 6)
            return Character(tuple(alpha), Fraction(rng.randrange(den), den))


def _random_layer(rng, n):
    """A layer reached from the ambient torus by up to n - 1 random
    characters, each step taking a random piece."""
    layer = ambient_layer(n)
    for _ in range(rng.randint(0, n - 1)):
        pieces = _reference_intersect(layer, _random_character(rng, n))
        if pieces:
            layer = rng.choice(pieces)
    return layer


def _lattice_character(rng, layer, clash):
    """A primitive character of the layer's lattice, with the phase the
    layer gives it or, with ``clash``, a different one."""
    while True:
        alpha = [0] * layer.n
        for row in layer.basis:
            x = rng.randint(-2, 2)
            alpha = [a + x * b for a, b in zip(alpha, row)]
        if any(alpha):
            g = math.gcd(*alpha)
            alpha = tuple(a // g for a in alpha)
            break
    coeffs = _reference_express(layer.basis, alpha)
    phase = _frac(sum((x * p for x, p in zip(coeffs, layer.phases)), Fraction(0)))
    if clash:
        phase = _frac(phase + Fraction(1, rng.randint(2, 6)))
    return Character(alpha, phase)


def test_intersect_layer_matches_rational_reference():
    rng = random.Random(20261018)
    several = matching = clashing = 0
    for case in range(900):
        n = 2 + case % 3
        layer = _random_layer(rng, n)
        roll = rng.random()
        if layer.rank and roll < 0.2:
            clash = roll < 0.1
            c = _lattice_character(rng, layer, clash)
        else:
            c = _random_character(rng, n)
        expected = _reference_intersect(layer, c)
        assert intersect_layer(layer, c) == expected, (layer, c)
        if len(expected) > 1:
            several += 1
        if _reference_express(layer.basis, c.alpha) is not None:
            if expected:
                matching += 1
            else:
                clashing += 1
    assert several >= 50 and matching >= 20 and clashing >= 20, \
        (several, matching, clashing)


def test_cut_matches_rational_reference():
    """The per-basis completion and the per-key cut against the rational
    reference: W has the basis as its first rows and is unimodular, the
    cut is None exactly when alpha lies in the lattice, and otherwise its
    saturated basis is the double-kernel saturation, g is the number of
    pieces and the pieces are the reference's phases.  The cut takes the
    layer's phases as numerators over a common denominator and the
    character's as a (num, den) pair, and gives each piece's phases as
    ints (den, numerators) over their least common denominator, each
    numerator in [0, den)."""
    rng = random.Random(20261019)
    several = in_lattice = 0
    for case in range(900):
        n = 2 + case % 3
        layer = _random_layer(rng, n)
        roll = rng.random()
        if layer.rank and roll < 0.2:
            c = _lattice_character(rng, layer, clash=roll < 0.1)
        else:
            c = _random_character(rng, n)
        inverse = _completion(n, layer.basis)
        w = _unimodular_inverse([list(row) for row in zip(*inverse)])
        assert [tuple(row) for row in w[:layer.rank]] == list(layer.basis)
        cut = _cut(layer.basis, inverse, c.alpha)
        if _reference_express(layer.basis, c.alpha) is not None:
            in_lattice += 1
            assert cut is None, (layer, c)
            continue
        gen_rows = [list(r) for r in layer.basis] + [list(c.alpha)]
        sat = _reference_saturate(gen_rows)
        assert cut.sat == tuple(tuple(r) for r in sat), (layer, c)
        cmat = [_reference_express(sat, row) for row in gen_rows]
        expected = _reference_solve(cmat, list(layer.phases) + [c.phase])
        q = math.lcm(*(t.denominator for t in layer.phases))
        nums = [t.numerator * (q // t.denominator) for t in layer.phases]
        got = cut.pieces(q, nums, (c.phase.numerator, c.phase.denominator))
        assert all(isinstance(den, int) and all(isinstance(x, int) and 0 <= x < den
                                                for x in tops)
                   and math.gcd(den, *tops) == 1 for den, tops in got), (layer, c, got)
        got = [tuple(Fraction(x, den) for x in tops) for den, tops in got]
        assert cut.g == len(got) and sorted(got) == sorted(expected), (layer, c)
        if cut.g > 1:
            several += 1
    assert several >= 50 and in_lattice >= 20, (several, in_lattice)


def _rational_completion(alpha):
    """The completion ``arr_restrict`` used before it shared
    ``_completion``: the HNF transform U of alpha as a column, so that
    W = (U^-1)^T, inverted over the rationals, has first row alpha, and
    the columns of W^-1 are the rows of U."""
    _, u = hnf([[a] for a in alpha])
    w = [list(col) for col in zip(*_unimodular_inverse(u))]
    assert w[0] == list(alpha)
    return tuple(map(tuple, u))


def _reference_restrict(arr, c):
    """``arr_restrict`` with ``_rational_completion``."""
    key = c.canonical_key()
    inverse = _rational_completion(c.alpha)
    chars = {}
    for other in arr.characters:
        if other.canonical_key() == key:
            continue
        coords = [sum(b * col[i] for i, b in enumerate(other.alpha)) for col in inverse]
        c0, beta_rest = coords[0], coords[1:]
        phase = _frac(other.phase - c0 * c.phase)
        content = math.gcd(*beta_rest)
        if content == 0:
            assert phase != 0
            continue
        gamma = tuple(b // content for b in beta_rest)
        for j in range(content):
            piece = Character(gamma, _frac(Fraction(phase + j, content)))
            chars.setdefault(piece.canonical_key(), piece)
    return ToricArrangement(arr.n - 1, [chars[k] for k in sorted(chars)])


def _random_arrangement(rng, n, count):
    """Up to ``count`` distinct primitive characters with entries in
    [-3, 3] and phase denominators up to 4."""
    chars = {}
    for _ in range(count):
        alpha = [rng.randint(-3, 3) for _ in range(n)]
        if any(alpha) and math.gcd(*alpha) == 1:
            den = rng.randint(1, 4)
            c = Character(tuple(alpha), Fraction(rng.randrange(den), den))
            chars.setdefault(c.canonical_key(), c)
    return ToricArrangement(n, list(chars.values()))


def test_arr_restrict_matches_the_rational_completion_up_to_isomorphism(corpus):
    """On every corpus arrangement by each of its characters, and on random
    arrangements by their first, the restriction agrees with the one
    completed by the rational inverse: the same rank and number of
    characters; the same characters where ``_completion`` gives the
    rational completion's coordinates, which for a single character it
    does, both reading the Hermite transform of alpha as a column; and
    elsewhere isomorphic layer posets and schemes.  The isomorphism search
    runs on at most 12 characters: above that ``layers_poset`` refuses
    some arrangements by its atom cap."""
    cases = [(arr, c) for _, arr in corpus.arrangements for c in arr.characters]
    rng = random.Random(20261020)
    while len(cases) < 3000:
        arr = _random_arrangement(rng, rng.randint(2, 4), rng.randint(2, 5))
        if arr.characters:
            cases.append((arr, arr.characters[0]))
    agree = 0
    for arr, c in cases:
        got, expected = arr_restrict(arr, c), _reference_restrict(arr, c)
        assert got.n == expected.n and len(got.characters) == len(expected.characters)
        if _completion(arr.n, (c.alpha,)) == _rational_completion(c.alpha):
            agree += 1
            assert got.characters == expected.characters, (arr, c)
        elif len(got.characters) <= 12:
            ours, theirs = layers_poset(got), layers_poset(expected)
            assert find_isomorphism(ours.geometric, theirs.geometric), (arr, c)
            assert scheme_isomorphism(ours.scheme, theirs.scheme), (arr, c)
    assert agree == len(cases), (agree, len(cases))


def _random_unimodular(rng, n):
    """A seeded unimodular n x n matrix: the identity under 3n random row
    additions, its rows shuffled and their signs drawn."""
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        w[i] = [a + k * b for a, b in zip(w[i], w[j])]
    rng.shuffle(w)
    return [[a * sign for a in row] for row, sign in zip(w, rng.choices((-1, 1), k=n))]


def test_completion_inverts_a_completion_of_every_saturated_basis():
    """On seeded saturated bases in ranks 1 to 5, the first r rows of a
    seeded unimodular matrix, the completion's columns form a unimodular
    W^-1 that maps each basis row to its unit vector.  The same bases with
    a row multiplied by 2 or 3 (not saturated), with a row replaced by a
    combination of the others or by zero, or with a row added past rank r
    (not of full rank) raise "not saturated"."""
    rng = random.Random(20261121)
    refused = {"content": 0, "combination": 0, "zero": 0, "extra row": 0}
    for case in range(500):
        n = 1 + case % 5
        rows = _random_unimodular(rng, n)
        r = rng.randint(1, n)
        basis = tuple(map(tuple, rows[:r]))
        w_inv = [list(row) for row in zip(*_completion(n, basis))]
        assert abs(_det(w_inv)) == 1, basis
        assert _matmul([list(row) for row in basis], w_inv) \
            == [[int(i == j) for j in range(n)] for i in range(r)], basis
        k = rng.randrange(r)
        bad = [list(row) for row in basis]
        kind = list(refused)[case // 5 % 4]
        if kind == "combination" and r == 1:
            kind = "extra row"
        if kind == "content":
            content = rng.choice((2, 3))
            bad[k] = [content * a for a in bad[k]]
        elif kind == "combination":
            others = [(rng.randint(-2, 2), row) for i, row in enumerate(bad) if i != k]
            bad[k] = [sum(x * row[j] for x, row in others) for j in range(n)]
        elif kind == "zero":
            bad[k] = [0] * n
        else:
            bad.append([sum(row[j] for row in bad) for j in range(n)])
        with pytest.raises(InvariantBroken, match="not saturated"):
            _completion(n, tuple(map(tuple, bad)))
        refused[kind] += 1
    assert min(refused.values()) >= 50, refused


def test_invariant_checks_raise_not_assert():
    """A layer basis that is not saturated, or not of full rank, is an
    explicit InvariantBroken from the completion, so the check holds under
    ``python -O`` as well."""
    for basis in (((2, 0),), ((1, 1), (0, 2)), ((1, 0), (2, 0))):
        with pytest.raises(InvariantBroken, match="not saturated"):
            _completion(2, basis)
    code = ("from mscheme.errors import InvariantBroken\n"
            "from mscheme.toric import _completion\n"
            "try:\n    _completion(2, ((2, 0),))\n"
            "except InvariantBroken:\n    print('raised')\n")
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=60, cwd=SRC)
    assert run.stdout == "raised\n", run.stderr


# --- the closure against one Hermite form per cut --------------------------------------

def _catalogue_arrangements():
    """The 16 arrangements of the benchmark's toric catalogue, drawn with
    its seeds: in ranks 2 and 3, two each of 3, 4, 5 and 6 characters with
    entries in [-2, 2] and phase denominators up to 4."""
    out = []
    for rank in (2, 3):
        rng = random.Random(f"mscheme-perfbench-catalogue-1/toric/{rank}")
        for count in (3, 3, 4, 4, 5, 5, 6, 6):
            chars = {}
            while len(chars) < count:
                alpha = tuple(rng.randint(-2, 2) for _ in range(rank))
                if math.gcd(*alpha) == 1:
                    q = rng.choice((1, 2, 3, 4))
                    c = Character(alpha, Fraction(rng.randrange(q), q))
                    chars.setdefault(c.canonical_key(), c)
            out.append(ToricArrangement(rank, list(chars.values())))
    return out


def _seeded_arrangements(ranks, count):
    rng = random.Random(20261021)
    return [_random_arrangement(rng, ranks[k % len(ranks)], rng.randint(1, 5))
            for k in range(count)]


def _closure_by_ids(arr):
    """``_closure`` with its steps, pairs of layer indices, written as
    pairs of layer ids, as the reference gives them."""
    layers, steps, atom_of = _closure(arr)
    return layers, {(layers[a].layer_id, layers[b].layer_id) for a, b in steps}, atom_of


def test_closure_matches_the_hermite_reference():
    """``_closure`` against the closure with one Hermite form per cut
    (``referees.closure_reference``): the same layers in the same order,
    bases and phases included, the same steps and the same atom layer ids,
    on the catalogue arrangements and on seeded ones in ranks 1 to 4.
    Every form of the cut is met: on the ambient layer (r = 0), to full
    rank (r + 1 = n), by a Hermite form (1 <= r <= n - 2), with more than
    one piece (g > 1), and of a point (None, which ``_closure`` skips)."""
    met = {}
    for arr in _catalogue_arrangements() + _seeded_arrangements((1, 2, 3, 4), 240):
        layers, steps, atom_of = _closure_by_ids(arr)
        ref_layers, ref_steps, ref_atom_of = closure_reference(arr, met)
        assert [(L.basis, L.phases) for L in layers] \
            == [(L.basis, L.phases) for L in ref_layers], arr.characters
        assert steps == ref_steps and atom_of == ref_atom_of, arr.characters
    assert all(met[kind] >= 100 for kind in ("r = 0", "r + 1 = n", "hermite", "g > 1",
                                              "point")), met


def test_circle_cuts_are_one_form():
    """On the circle the ambient layer has rank n - 1, so the r = 0 and
    r + 1 = n forms of a cut are one: the point (1) with T = [sign alpha].
    Points on the circle at several phases match the reference closure."""
    for alpha in ((1,), (-1,)):
        inverse = _completion(1, ())
        cut, ref = _cut((), inverse, alpha), hermite_cut((), inverse, alpha)
        assert (cut.sat, cut.mix, cut.shift, cut.g) \
            == (ref.sat, ref.mix, ref.shift, ref.g) == (((1,),), [list(alpha)], list(alpha), 1)
    arr = ToricArrangement(1, [Character((1,), Fraction(0)), Character((-1,), Fraction(1, 3)),
                               Character((1,), Fraction(1, 2)), Character((-1,), Fraction(3, 4))])
    assert _closure_by_ids(arr) == closure_reference(arr)
    assert len(layers_poset(arr).layers) == 5


def test_closure_takes_no_hermite_form_below_rank_three_and_completes_no_point(monkeypatch):
    """Below rank 3 every cut is of the ambient layer or to full rank, so
    every such arrangement closes with ``hnf`` raising outside
    ``_completion``, which takes one Hermite form per basis; and in any
    rank neither the ambient layer (rank 0) nor a point (rank n) is
    completed."""
    import mscheme.toric

    completing = []  # the basis being completed, while ``_completion`` runs
    completed = []
    hermite = []

    def counting(n, basis):
        completed.append((n, len(basis)))
        completing.append(basis)
        try:
            return _completion(n, basis)
        finally:
            completing.pop()

    def only_in_completions(matrix):
        if not completing:
            raise AssertionError("a cut took a Hermite form")
        hermite.append(completing[-1])
        return hnf(matrix)

    catalogue = _catalogue_arrangements()
    monkeypatch.setattr(mscheme.toric, "_completion", counting)
    with monkeypatch.context() as mp:
        mp.setattr(mscheme.toric, "hnf", only_in_completions)
        low = [arr for arr in catalogue if arr.n <= 2] + _seeded_arrangements((1, 2), 60)
        assert sum(len(layers_poset(arr).layers) for arr in low) > 400
    assert len(hermite) == len(completed) > 80, (hermite, completed)
    for arr in catalogue + _seeded_arrangements((3, 4), 40):
        layers_poset(arr)
    assert len(completed) > 200 and all(0 < r < n for n, r in completed), completed


def test_the_ambient_layer_is_cut_without_a_completion():
    """Neither the closure of an arrangement nor ``intersect_layer`` builds
    the n x n identity that completes the ambient layer: in rank 3000, that
    identity alone would take tens of megabytes."""
    n = 3000
    alpha = (1,) + (0,) * (n - 1)
    tracemalloc.start()
    try:
        layers_poset(ToricArrangement(n, []))
        closed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cut = intersect_layer(ambient_layer(n), Character(alpha, Fraction(1, 2)))
        intersected = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [L.basis for L in cut] == [(alpha,)]
    assert closed < 1 << 20 and intersected < 1 << 20, (closed, intersected)


def _fraction_id(layer):
    """A layer's id written from its basis and its phases as ``Fraction``s."""
    rows = ",".join(f"[{','.join(map(str, row))}]" for row in layer.basis)
    return f"[{rows}]|[{','.join(map(str, layer.phases))}]"


def test_integer_phases_match_the_fraction_form():
    """A layer made from integer phases, by ``_closure`` or by
    ``intersect_layer``, has the id, equality, hash and ``phases`` of the
    same layer made from ``Fraction``s, and its numerators lie in [0, q)
    over their least common denominator q: on the catalogue arrangements,
    whose ``_closure`` layers make no ``Fraction`` until ``phases`` is
    read, and on seeded random layers and their cuts."""
    pairs = []
    for arr in _catalogue_arrangements():
        layers = _closure(arr)[0]
        assert all(L._phases is None for L in layers)
        pairs += zip(layers, closure_reference(arr)[0], strict=True)
    rng = random.Random(20261101)
    for k in range(300):
        layer = _random_layer(rng, 2 + k % 3)
        pairs.append((_layer(layer.n, layer.basis, layer.q, layer.nums), layer))
        c = _random_character(rng, layer.n)
        pairs += zip(intersect_layer(layer, c), _reference_intersect(layer, c), strict=True)
    assert len(pairs) > 1000 and sum(len(R.basis) > 1 for _, R in pairs) > 300
    for L, R in pairs:
        assert L.layer_id == R.layer_id == _fraction_id(R), (L, R)
        assert L == R and hash(L) == hash(R), (L, R)
        assert L.phases == R.phases and all(0 <= x < L.q for x in L.nums), (L, R)
        assert L.q == math.lcm(*(t.denominator for t in R.phases)), (L, R)
