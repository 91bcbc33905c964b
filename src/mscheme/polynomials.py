"""Exact integer-coefficient polynomials in one or two variables.

Coefficients are arbitrary-precision Python ints; no stored zero
coefficients; all ring operations are exact.  The canonical text forms are
part of the CLI contract:

* bivariate terms are sorted by x-degree descending, then y-degree
  ascending, e.g. ``x^2 + 4*x + 3 + 4*y + 2*y^2``;
* univariate terms are sorted by degree descending, e.g. ``t^2 - 6*t + 8``.
"""

from __future__ import annotations


def _strip(coeffs: dict) -> dict:
    return {k: c for k, c in coeffs.items() if c != 0}


def _render_term(coeff: int, factors: list[str], first: bool) -> str:
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    parts = ([] if mag == 1 and factors else [str(mag)]) + factors
    body = "*".join(parts)
    if first:
        return body if coeff > 0 else f"-{body}"
    return f" {sign} {body}"


class _Polynomial:
    """The ring of both polynomial classes: ``coeffs`` maps a monomial key
    to its coefficient.  A subclass names the constant key ``_ZERO`` and
    adds two keys in ``_key_sum``; it combines with itself and with ints."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = _strip(coeffs or {})

    @classmethod
    def constant(cls, c: int):
        return cls({cls._ZERO: c})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        key_sum = self._key_sum
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = key_sum(k1, k2)
                out[k] = out.get(k, 0) + c1 * c2
        return type(self)(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = self.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, int):
            return self.constant(other)
        raise TypeError(f"cannot combine polynomial with {type(other).__name__}")

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class UnivariatePolynomial(_Polynomial):
    """Polynomial in ``t`` over the integers; keys of ``coeffs`` are
    degrees."""

    __slots__ = ()
    _ZERO = 0

    @staticmethod
    def _key_sum(d1: int, d2: int) -> int:
        return d1 + d2

    def __call__(self, value):
        total = 0
        for d, c in self.coeffs.items():
            total += c * value**d
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs, reverse=True):
            factors = []
            if d == 1:
                factors = ["t"]
            elif d > 1:
                factors = [f"t^{d}"]
            parts.append(_render_term(self.coeffs[d], factors, first=not parts))
        return "".join(parts)


class BivariatePolynomial(_Polynomial):
    """Polynomial in ``x`` and ``y`` over the integers.

    Keys of ``coeffs`` are ``(x_degree, y_degree)`` pairs.
    """

    __slots__ = ()
    _ZERO = (0, 0)

    @staticmethod
    def _key_sum(k1: tuple, k2: tuple) -> tuple:
        return (k1[0] + k2[0], k1[1] + k2[1])

    def __call__(self, x_value, y_value):
        total = 0
        for (i, j), c in self.coeffs.items():
            total += c * x_value**i * y_value**j
        return total

    def substitute(self, x_image, y_image) -> UnivariatePolynomial:
        """Evaluate at univariate polynomials (or ints), e.g. x -> 1-t, y -> 0."""
        xs = _powers(x_image, self.x_degree())
        ys = _powers(y_image, self.y_degree())
        out: dict[int, int] = {}
        for (i, j), c in self.coeffs.items():
            for d1, c1 in xs[i].items():
                for d2, c2 in ys[j].items():
                    out[d1 + d2] = out.get(d1 + d2, 0) + c * c1 * c2
        return UnivariatePolynomial(out)

    def x_degree(self) -> int:
        return max((i for i, _ in self.coeffs), default=0)

    def y_degree(self) -> int:
        return max((j for _, j in self.coeffs), default=0)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        # x-degree descending, then y-degree ascending: pure powers of x
        # first, constant in the middle, powers of y after.
        for i, j in sorted(self.coeffs, key=lambda k: (-k[0], k[1])):
            factors = []
            if i == 1:
                factors.append("x")
            elif i > 1:
                factors.append(f"x^{i}")
            if j == 1:
                factors.append("y")
            elif j > 1:
                factors.append(f"y^{j}")
            parts.append(_render_term(self.coeffs[(i, j)], factors, first=not parts))
        return "".join(parts)


def _powers(image, top: int) -> list:
    """Coefficient dicts of image^0 .. image^top, each from the one before;
    an int's powers are taken directly, so a zero image leaves every power
    past the first empty."""
    if isinstance(image, int):
        return [_strip({0: image ** k}) for k in range(top + 1)]
    out = [{0: 1}]
    for _ in range(top):
        out.append((UnivariatePolynomial(out[-1]) * image).coeffs)
    return out


def one_minus_t() -> UnivariatePolynomial:
    return UnivariatePolynomial({0: 1, 1: -1})
