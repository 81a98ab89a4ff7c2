"""Sturm chains, sign-variation counting, exact root counting, Cauchy bound.

The chain of p is P0 = p, P1 = p', and P_i = -rem(P_{i-2}, P_{i-1}) until a
remainder vanishes (the zero remainder is not stored). With sign variations
sigma(x) counted after deleting zero entries, Sturm's classical theorem gives

    sigma(a) - sigma(b) = number of distinct real roots of p in (a, b]

whenever neither endpoint is a root of p. Repeated roots are counted once;
no square-free decomposition is performed (the standard chain handles them:
the last chain element is then a gcd factor that divides every element).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import EndpointIsRoot, InvalidArgument, echo
from .polyalg import Polynomial, euclid_rem, _as_fraction, _nonconstant_degree

#: A Sturm chain is a plain tuple of Polynomial; an evaluation vector is a
#: tuple of Fraction. Both are kept as bare tuples on purpose — every
#: consumer treats them as immutable sequences.
SturmChain = tuple
EvaluationVector = tuple


def sturm_chain(p: Polynomial) -> SturmChain:
    """Build the Sturm chain of p.

    >>> from certiroot.polyalg import Polynomial
    >>> [q.coeffs for q in sturm_chain(Polynomial([-2, 0, 1]))]
    [(Fraction(-2, 1), Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(2, 1)), (Fraction(2, 1),)]

    Raises DegreeTooLow for constants and the zero polynomial. The chain has
    at most deg(p)+1 elements and degrees strictly decrease from P1 on.
    """
    _nonconstant_degree(p, "Sturm chain needs a non-constant polynomial")
    chain = [p, p.derivative()]
    while chain[-1].degree >= 1:
        r = euclid_rem(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return tuple(chain)


def sturm_eval(chain: SturmChain, alpha) -> EvaluationVector:
    """Evaluate every chain element at alpha, exactly."""
    alpha = _as_fraction(alpha)
    return tuple(q.eval(alpha) for q in chain)


def sign_variations(values: Sequence) -> int:
    """Number of sign alternations in `values` after deleting zero entries."""
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Polynomial, a, b) -> int:
    """Exact number of distinct real roots of p in (a, b].

    Endpoints must not be roots (EndpointIsRoot otherwise); a must be < b.
    A nonzero constant polynomial has no roots and returns 0.
    """
    return _count_in(sturm_chain(p) if p.degree else (p,), a, b)


def _count_in(chain: SturmChain, a, b) -> int:
    """count_roots for chain[0], from its Sturm chain (a constant's is itself)."""
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a >= b:
        raise InvalidArgument("count_roots needs a < b")
    at_a, at_b = sturm_eval(chain, a), sturm_eval(chain, b)
    if at_a[0] == 0 or at_b[0] == 0:
        raise EndpointIsRoot(f"endpoint of ({echo(a)}, {echo(b)}) is a root")
    return sign_variations(at_a) - sign_variations(at_b)


def cauchy_bound(p: Polynomial) -> Fraction:
    """Cauchy's root bound beta = 1 + max_i |c_i / c_d|.

    Every real root of p lies strictly inside (-beta, beta). Raises
    DegreeTooLow below degree 1.
    """
    _nonconstant_degree(p, "Cauchy bound needs a non-constant polynomial")
    return 1 + max(map(abs, p.coeffs[:-1])) / abs(p.leading)
