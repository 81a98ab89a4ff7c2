"""Sturm chains, sign-variation counting, exact root counting, Cauchy bound.

The chain of p is P0 = p, P1 = p', and P_i = -rem(P_{i-2}, P_{i-1}) until a
remainder vanishes (the zero remainder is not stored). With sign variations
sigma(x) counted after deleting zero entries, Sturm's classical theorem gives

    sigma(a) - sigma(b) = number of distinct real roots of p in (a, b]

whenever neither endpoint is a root of p. Repeated roots are counted once;
no square-free decomposition is performed (the standard chain handles them:
the last chain element is then a gcd factor that divides every element).

The chain is built in integers, by Collins' primitive remainder sequence
(1967), and rescaled to the exact Euclidean elements only when returned. Each
P_i is carried as lam_i * Q_i: Q_i a primitive integer vector, lam_i > 0 a
coprime integer pair (num, den). A remainder of a division by B does not
change when B is scaled, and is linear in the dividend, so with
d = deg Q_{i-2} - deg Q_{i-1} and L = lc(Q_{i-1})^(d+1),

    P_i = -rem(P_{i-2}, P_{i-1}) = -lam_{i-2} * prem(Q_{i-2}, Q_{i-1}) / L,

where the pseudo-remainder prem(A, B) = lc(B)^(d+1) * rem(A, B) is an
integer vector computed with no division. Its content g is divided out, and
the sign of -L goes to Q_i, so lam_i = lam_{i-2} * g / |L| > 0. Every step
is exact, so lam_i * Q_i is the Euclidean P_i coefficient by coefficient.
Division on Fractions would run a gcd at every operation; here one gcd keeps
each pair coprime, and each returned coefficient lam_i * c is built once,
reduced by gcd(c, den), a gcd of Q_i's small coefficient rather than of the
product num * c. Its row (num * Q_i, den) is reduced, as Q_i is primitive.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import EndpointIsRoot, InvalidArgument, echo
from .polyalg import Polynomial, _as_fraction, _from_row, _nonconstant_degree, _ratio
# Not called here. The benchmark's tracer counts Euclidean divisions by
# wrapping sturm.euclid_rem, so the name stays in this module's namespace.
from .polyalg import euclid_rem

#: A Sturm chain is a plain tuple of Polynomial; an evaluation vector is a
#: tuple of Fraction. Both are kept as bare tuples on purpose — every
#: consumer treats them as immutable sequences.
SturmChain = tuple
EvaluationVector = tuple


def sturm_chain(p: Polynomial) -> SturmChain:
    """Build the Sturm chain of p: P0 = p, P1 = p', P_i = -rem(P_{i-2}, P_{i-1}).

    >>> from certiroot.polyalg import Polynomial
    >>> [q.coeffs for q in sturm_chain(Polynomial([-2, 0, 1]))]
    [(Fraction(-2, 1), Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(2, 1)), (Fraction(2, 1),)]

    The remainders are taken in integers as pseudo-remainders of primitive
    vectors, each kept with the coprime pair (num, den) that scales it to the
    Euclidean element (the module docstring has the step and why it is
    exact), so every element equals -euclid_rem of its two predecessors.

    Raises DegreeTooLow for constants and the zero polynomial. The chain has
    at most deg(p)+1 elements and degrees strictly decrease from P1 on.
    """
    _nonconstant_degree(p, "Sturm chain needs a non-constant polynomial")
    ints, den = p._row
    rows = [_primitive(ints, 1, den)]
    num, den, q = rows[0]
    rows.append(_primitive([i * c for i, c in enumerate(q)][1:], num, den))
    while len(rows[-1][2]) > 1:
        (num, den, a), (_, _, b) = rows[-2], rows[-1]
        rem = _pseudo_remainder(a, b)
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            break
        lead = b[-1] ** (len(a) - len(b) + 1)
        rows.append(_primitive(rem if lead < 0 else [-c for c in rem], num, den * abs(lead)))
    chain = [p]
    for num, den, q in rows[1:]:
        chain.append(_from_row(tuple(_ratio(c, den, num) for c in q), (tuple(num * c for c in q), den)))
    return tuple(chain)


def _primitive(ints: list, num: int, den: int) -> tuple:
    """(num * g / h, den / h, ints / g) for the content g > 0 of the nonzero
    vector ints and h = gcd(num * g, den): the pair stays coprime."""
    g = math.gcd(*ints)
    num *= g
    h = math.gcd(num, den)
    return num // h, den // h, [c // g for c in ints]


def _pseudo_remainder(a: list, b: list) -> list:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * rem(a, b), in integers; both
    vectors low to high, b's last entry nonzero. Its deg b entries may end in
    zeros."""
    n, lead = len(b) - 1, b[-1]
    rem = list(a)
    for off in range(len(a) - 1 - n, -1, -1):
        top = rem.pop()
        rem = [lead * c for c in rem]
        if top:
            for j in range(n):
                rem[off + j] -= top * b[j]
    return rem


def sturm_eval(chain: SturmChain, alpha) -> EvaluationVector:
    """Evaluate every chain element at alpha, exactly."""
    alpha = _as_fraction(alpha)
    return tuple(q.eval(alpha) for q in chain)


def sign_variations(values: Sequence) -> int:
    """Number of sign alternations in `values` after deleting zero entries.

    One pass counts each change of nonzero sign, the first nonzero entry's
    from none included, and drops that one."""
    changes, last = 0, 0
    for v in values:
        if v:
            sign = 1 if v > 0 else -1
            if sign != last:
                changes += 1
                last = sign
    return changes - 1 if changes else 0


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

    Every real root of p lies strictly inside (-beta, beta). Read from p's
    row, where den cancels. Raises DegreeTooLow below degree 1.
    """
    _nonconstant_degree(p, "Cauchy bound needs a non-constant polynomial")
    *rest, lead = map(abs, p._row[0])
    return _ratio(lead + max(rest), lead)
