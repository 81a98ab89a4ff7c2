"""Exact rational polynomial arithmetic.

Coefficients are `fractions.Fraction` values (always stored reduced, positive
denominator), index i holding the coefficient of x^i. No floating point is
used anywhere: every downstream guarantee (no missed root, exact counts) is
unconditional only under exact arithmetic.

The zero polynomial is representable — it is what remainder sequences
terminate in — and is distinguished from degree-0 constants: its `degree`
is None.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import DegreeTooLow, DivisionByZeroPolynomial, InvalidArgument, echo

Rat = Union[Fraction, int]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InvalidArgument(f"not an exact rational: {echo(value)}") from None
    raise TypeError(f"not an exact rational: {echo(value)}")


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
        return self.coeffs == (Fraction(0),)

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
        """Exact value at x, computed in Horner order."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, k: Rat) -> "Polynomial":
        k = _as_fraction(k)
        return Polynomial([k * c for c in self.coeffs])


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
    return Polynomial(quot), Polynomial(rem[:dq] if dq else [0])


def euclid_rem(p: Polynomial, q: Polynomial) -> Polynomial:
    """Remainder of the exact Euclidean division of p by q."""
    return poly_divmod(p, q)[1]
