"""Exact rational polynomial arithmetic.

Coefficients are `fractions.Fraction` values (always stored reduced, positive
denominator), index i holding the coefficient of x^i. No floating point is
used anywhere: every downstream guarantee (no missed root, exact counts) is
unconditional only under exact arithmetic. `_product`, the one convolution,
multiplies integer rows (ints, den) standing for ints/den, which `*` and
`testkit.plant` build from their operands' Fractions; it and `eval` build
each result coefficient once, from a reduced integer pair (`_ratio`).

The zero polynomial is representable — it is what remainder sequences
terminate in — and is distinguished from degree-0 constants: its `degree`
is None.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Union

from .errors import DegreeTooLow, DivisionByZeroPolynomial, InvalidArgument, echo

Rat = Union[Fraction, int]

# A trailing exponent as Fraction reads one: e, a sign, digits maybe grouped by _.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _fraction_from_str(text: str) -> Fraction:
    """Fraction(text), with a value written with an exponent held to the rule a
    digit string already meets: a numerator or denominator over
    sys.get_int_max_str_digits() digits (0: no limit) is a ValueError. It is
    raised before 10**exponent is built, which Fraction does with no bound."""
    exp, limit = _EXPONENT.search(text), sys.get_int_max_str_digits()
    if exp is None or not limit:
        return Fraction(text)
    # Every exponent digit made 0 keeps the syntax, so Fraction accepts this iff
    # it accepts text; the value is the mantissa's.
    try:
        mantissa = Fraction(text[:exp.start(1)] + re.sub(r"\d", "0", exp[1]) + text[exp.end(1):])
    except ValueError:
        return Fraction(text)  # raises the same error, before any power is built
    if not mantissa:
        return mantissa
    # The mantissa's parts are below 2^margin <= 10^margin, so past the margin
    # 10**|power| leaves one part of the value over the limit; within it the
    # power is cheap, and the value's parts are measured.
    power = int(exp[1])
    margin = max(abs(mantissa.numerator), mantissa.denominator).bit_length()
    if abs(power) <= limit + margin:
        value = mantissa * Fraction(10) ** power
        if max(abs(value.numerator), value.denominator) < 10**limit:
            return value
    raise ValueError(f"a numerator or denominator over {limit} digits")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _fraction_from_str(value)
        except (ValueError, ZeroDivisionError):
            raise InvalidArgument(f"not an exact rational: {echo(value)}") from None
    raise TypeError(f"not an exact rational: {echo(value)}")


def _as_int(value, name: str, least: int | None = None) -> int:
    """value, through the one gate for int arguments: a float or a bool is a
    TypeError, as in _as_fraction, and a value below least an InvalidArgument,
    so 2.5, True or 0 fails where it is given, not deep in a call or in a repr."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {echo(value)}")
    if least is not None and value < least:
        raise InvalidArgument(f"{name} must be >= {least}")
    return value


class Polynomial:
    """Immutable univariate polynomial with exact rational coefficients.

    `coeffs` is trimmed so the last entry is nonzero, except for the zero
    polynomial which is stored as the single coefficient 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_as_fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not the guard
        return type(self), (self.coeffs,)

    # -- basic protocol ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and not self.coeffs[0]

    @property
    def degree(self):
        """Largest index with nonzero coefficient; None for the zero polynomial."""
        if self.is_zero():
            return None
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1]

    # -- evaluation and calculus ----------------------------------------------

    def eval(self, x: Rat) -> Fraction:
        """Exact value at x, by Horner on the integer row over the least common denominator.

        >>> Polynomial(["1/2", 0, 3]).eval("-2/3")
        Fraction(11, 6)
        """
        (n, d), (ints, den) = _as_fraction(x).as_integer_ratio(), _over_common_denominator(self)
        acc, dj = ints[-1], 1  # acc = acc*n + a_i*d^j at x = n/d, so p(x) = acc / (den*d^deg)
        for a in reversed(ints[:-1]):
            dj *= d
            acc = acc * n + a * dj
        return _ratio(acc, den * dj)

    def derivative(self) -> "Polynomial":
        """Formal derivative; the derivative of a constant is the zero polynomial."""
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- ring operations -------------------------------------------------------

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    # Any other operand gets NotImplemented, so Python raises TypeError in
    # either order; scale() multiplies by a rational.
    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Product, as _product of the two operands' common-denominator rows."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _product(map(_over_common_denominator, (self, other)))

    def scale(self, k: Rat) -> "Polynomial":
        k = _as_fraction(k)
        return Polynomial([k * c for c in self.coeffs])


def _over_common_denominator(p: Polynomial) -> tuple[list[int], int]:
    """(ints, den) with p = ints / den: den is the least common denominator of
    p's coefficients and ints[i] = c_i * den, built from integers alone."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _product(rows: Iterable[tuple[list[int], int]]) -> Polynomial:
    """The product of rows (1 for none), expanded once on one integer row.

    A row (ints, den) with den > 0 stands for ints/den and need not be reduced:
    __mul__ passes _over_common_denominator's rows, testkit.plant rows built
    from its factors' Fractions. The fold starts from the first row, with no
    seed [1], and convolves each next row into it over one running denominator,
    the product of the rows' denominators; one reduced Fraction per output
    coefficient is built at the end, and no intermediate Polynomial or Fraction.
    """
    rows = iter(rows)
    out, den = next(rows, ([1], 1))
    for ys, d in rows:
        acc = [0] * (len(out) + len(ys) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(ys, i):
                acc[j] += a * b
        out, den = acc, den * d
    return Polynomial([_ratio(c, den) for c in out])


def _from_coprime_ints(n: int, d: int) -> Fraction:
    """Fraction(n, d) for coprime ints n and d > 0, built without
    Fraction.__new__'s type checks and gcd (Python 3.12 names the same step
    Fraction._from_coprime_ints). The package's one writer of Fraction's
    internals; every read goes through the public numerator and denominator.

    Exact: n/d is already in lowest terms with d > 0, so the result equals
    Fraction(n, d) in value, hash, repr and pickling. It cannot fail silently:
    Fraction and its numbers bases declare __slots__ and give instances no
    __dict__, so were a slot ever renamed, the assignment would raise
    AttributeError, not build a wrong value.
    """
    q = object.__new__(Fraction)
    q._numerator, q._denominator = n, d
    return q


def _ratio(n: int, d: int) -> Fraction:
    """Fraction(n, d) for ints n and d > 0: reduced by one gcd, then built by
    _from_coprime_ints (gcd(0, d) = d, so 0 is 0/1)."""
    g = math.gcd(n, d)
    return _from_coprime_ints(n // g, d // g)


def _nonconstant_degree(p: Polynomial, message: str) -> int:
    """deg p, or DegreeTooLow(message) for a constant or the zero polynomial
    (whose degree is None, so it is tested first)."""
    if p.is_zero() or p.degree < 1:
        raise DegreeTooLow(message)
    return p.degree


def poly_divmod(p: Polynomial, q: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Exact Euclidean division: p = Q*q + R with deg R < deg q.

    Raises DivisionByZeroPolynomial if q is the zero polynomial.
    """
    if q.is_zero():
        raise DivisionByZeroPolynomial("division by the zero polynomial")
    rem = list(p.coeffs)
    qc = q.coeffs
    dq = len(qc) - 1
    lead = qc[-1]
    quot = [Fraction(0)] * (len(rem) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        factor = rem[i] / lead
        if factor == 0:
            continue
        quot[i - dq] = factor
        for j in range(dq + 1):
            rem[i - dq + j] -= factor * qc[j]
    return Polynomial(quot), Polynomial(rem[:dq])


def euclid_rem(p: Polynomial, q: Polynomial) -> Polynomial:
    """Remainder of the exact Euclidean division of p by q."""
    return poly_divmod(p, q)[1]
