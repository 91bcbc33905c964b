"""Exact polynomial ring: pinned strings plus algebraic properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from mscheme import BivariatePolynomial, UnivariatePolynomial
from mscheme.polynomials import one_minus_t

X1 = BivariatePolynomial({(1, 0): 1, (0, 0): -1})


def test_worked_square_expansion():
    # (x-1)^2 + 2(x-1) + 2 = x^2 + 1
    p = X1 * X1 + 2 * X1 + 2
    assert p == BivariatePolynomial({(2, 0): 1, (0, 0): 1})
    assert str(p) == "x^2 + 1"


def test_multiplicative_identity():
    p = BivariatePolynomial({(2, 0): 1, (1, 1): -3, (0, 0): 5})
    assert p * BivariatePolynomial.constant(1) == p


def test_substitute_into_characteristic_form():
    p = BivariatePolynomial({(2, 0): 1, (0, 0): 1})  # x^2 + 1
    assert str(p.substitute(one_minus_t(), 0)) == "t^2 - 2*t + 2"


def test_canonical_term_order():
    p = BivariatePolynomial({(0, 2): 2, (0, 1): 4, (0, 0): 3, (1, 0): 4, (2, 0): 1})
    assert str(p) == "x^2 + 4*x + 3 + 4*y + 2*y^2"
    q = BivariatePolynomial({(3, 0): 1, (1, 0): 3, (0, 0): -2})
    assert str(q) == "x^3 + 3*x - 2"


def test_univariate_strings():
    assert str(UnivariatePolynomial({2: 1, 1: -6, 0: 8})) == "t^2 - 6*t + 8"
    assert str(UnivariatePolynomial({1: 1, 0: -1})) == "t - 1"
    assert str(UnivariatePolynomial({})) == "0"
    assert str(UnivariatePolynomial.constant(1)) == "1"
    assert str(UnivariatePolynomial({1: -1})) == "-t"


def test_zero_coefficients_dropped():
    p = BivariatePolynomial({(1, 0): 1}) - BivariatePolynomial({(1, 0): 1})
    assert p.coeffs == {}
    assert str(p) == "0"


coeff = st.integers(min_value=-40, max_value=40)


@st.composite
def bivariates(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), coeff, max_size=6))
    return BivariatePolynomial(terms)


@given(bivariates(), bivariates(), bivariates())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(bivariates(), bivariates(),
       st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=120, deadline=None)
def test_evaluation_is_a_homomorphism(p, q, x, y):
    assert (p + q)(x, y) == p(x, y) + q(x, y)
    assert (p * q)(x, y) == p(x, y) * q(x, y)


@given(bivariates(), st.integers(-5, 5))
@settings(max_examples=80, deadline=None)
def test_substitution_commutes_with_evaluation(p, t):
    assert p.substitute(one_minus_t(), 0)(t) == p(1 - t, 0)


@given(bivariates(), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_string_evaluates_back_to_the_polynomial(p, x, y):
    expr = str(p).replace("^", "**")
    assert eval(expr, {"x": x, "y": y}) == p(x, y)


def _substitute_per_term(p, x_image, y_image):
    """Substitution as it was computed: both powers afresh for every term."""
    if isinstance(x_image, int):
        x_image = UnivariatePolynomial.constant(x_image)
    if isinstance(y_image, int):
        y_image = UnivariatePolynomial.constant(y_image)
    total = UnivariatePolynomial({})
    for (i, j), c in p.coeffs.items():
        total = total + (x_image**i) * (y_image**j) * c
    return total


univariates = st.dictionaries(st.integers(0, 3), coeff, max_size=4).map(UnivariatePolynomial)
images = st.one_of(st.integers(-3, 3), univariates, st.just(one_minus_t()))


@given(bivariates(), images, images)
@settings(max_examples=150, deadline=None)
def test_substitute_matches_per_term_expansion(p, x_image, y_image):
    assert p.substitute(x_image, y_image) == _substitute_per_term(p, x_image, y_image)
    assert p.substitute(one_minus_t(), 0) == _substitute_per_term(p, one_minus_t(), 0)
