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


class UnivariatePolynomial:
    """Polynomial in one variable (``t`` by default) over the integers."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: dict[int, int] | None = None, var: str = "t"):
        self.coeffs = _strip(dict(coeffs or {}))
        self.var = var

    @classmethod
    def constant(cls, c: int, var: str = "t") -> "UnivariatePolynomial":
        return cls({0: c}, var)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) + c
        return UnivariatePolynomial(out, self.var)

    def __neg__(self):
        return UnivariatePolynomial({d: -c for d, c in self.coeffs.items()}, self.var)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[int, int] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return UnivariatePolynomial(out, self.var)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = UnivariatePolynomial.constant(1, self.var)
        for _ in range(n):
            result = result * self
        return result

    def _coerce(self, other) -> "UnivariatePolynomial":
        if isinstance(other, UnivariatePolynomial):
            return other
        if isinstance(other, int):
            return UnivariatePolynomial.constant(other, self.var)
        raise TypeError(f"cannot combine polynomial with {type(other).__name__}")

    def __call__(self, value):
        total = 0
        for d, c in self.coeffs.items():
            total += c * value**d
        return total

    def __eq__(self, other):
        return isinstance(other, UnivariatePolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs, reverse=True):
            factors = []
            if d == 1:
                factors = [self.var]
            elif d > 1:
                factors = [f"{self.var}^{d}"]
            parts.append(_render_term(self.coeffs[d], factors, first=not parts))
        return "".join(parts)

    def __repr__(self):
        return f"UnivariatePolynomial({self})"


class BivariatePolynomial:
    """Polynomial in ``x`` and ``y`` over the integers.

    Keys of ``coeffs`` are ``(x_degree, y_degree)`` pairs.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        self.coeffs = _strip(dict(coeffs or {}))

    @classmethod
    def constant(cls, c: int) -> "BivariatePolynomial":
        return cls({(0, 0): c})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return BivariatePolynomial(out)

    def __neg__(self):
        return BivariatePolynomial({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivariatePolynomial(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = BivariatePolynomial.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def _coerce(self, other) -> "BivariatePolynomial":
        if isinstance(other, BivariatePolynomial):
            return other
        if isinstance(other, int):
            return BivariatePolynomial.constant(other)
        raise TypeError(f"cannot combine polynomial with {type(other).__name__}")

    def __call__(self, x_value, y_value):
        total = 0
        for (i, j), c in self.coeffs.items():
            total += c * x_value**i * y_value**j
        return total

    def substitute(self, x_image, y_image, var: str = "t") -> UnivariatePolynomial:
        """Evaluate at univariate polynomials (or ints), e.g. x -> 1-t, y -> 0."""
        xs = _powers(x_image, self.x_degree(), var)
        ys = _powers(y_image, self.y_degree(), var)
        out: dict[int, int] = {}
        for (i, j), c in self.coeffs.items():
            for d1, c1 in xs[i].items():
                for d2, c2 in ys[j].items():
                    out[d1 + d2] = out.get(d1 + d2, 0) + c * c1 * c2
        return UnivariatePolynomial(out, var)

    def x_degree(self) -> int:
        return max((i for i, _ in self.coeffs), default=0)

    def y_degree(self) -> int:
        return max((j for _, j in self.coeffs), default=0)

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

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

    def __repr__(self):
        return f"BivariatePolynomial({self})"


def _powers(image, top: int, var: str) -> list:
    """Coefficient dicts of image^0 .. image^top, each from the one before."""
    if isinstance(image, int):
        image = UnivariatePolynomial.constant(image, var)
    out = [{0: 1}]
    for _ in range(top):
        out.append((UnivariatePolynomial(out[-1], var) * image).coeffs)
    return out


def one_minus_t() -> UnivariatePolynomial:
    return UnivariatePolynomial({0: 1, 1: -1})
