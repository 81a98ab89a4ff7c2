"""Brute-force oracles and exact instance generators.

Everything here is independent of the production code paths it checks:
planted polynomials are expanded as one product (polyalg._product) of integer
rows built straight from their factors' Fractions, which the descent never
calls; sign-change extremes are found by enumerating completions, and roots are
located by classical bisection. The oracles are deliberately slow and capped at
desk scale — independence from the code under test outranks speed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (DegreeOverflow, InvalidArgument, NoSignChange, ThresholdNonPositive,
                     TooLong, echo)
from .polyalg import Polynomial, _as_fraction, _as_int, _product


class PlantedSpec(NamedTuple):
    """Factored description of a test polynomial with exact ground truth.

    real_roots: ((root, multiplicity), ...) with multiplicity >= 1
    irreducible_quadratics: ((p, q), ...) for factors x^2 + p x + q with
        negative discriminant (no real roots)
    leading: nonzero leading factor
    """

    real_roots: tuple = ()
    irreducible_quadratics: tuple = ()
    leading: Fraction = Fraction(1)


class PlantedPolynomial(NamedTuple):
    """plant() result: the expanded polynomial plus exact metadata.

    delta_min is the minimum separation between distinct real roots (None
    when fewer than two exist). factor_floor = |leading| * prod(q - p^2/4)
    is a positive lower bound for |leading * prod(quadratic factors)| over
    all of R — the constant the small-value threshold needs.
    """

    polynomial: Polynomial
    spec: PlantedSpec
    delta_min: Fraction | None
    factor_floor: Fraction


def plant(spec: PlantedSpec, max_degree: int = 64) -> PlantedPolynomial:
    """Expand a PlantedSpec exactly and attach its ground-truth metadata. Each
    factor goes to _product as an integer row built from its Fractions, a root
    a/b as (b*x - a)/b and a quadratic over the lcm of p's and q's denominators."""
    leading = _as_fraction(spec.leading)
    if leading == 0:
        raise InvalidArgument("leading factor must be nonzero")
    roots = [(_as_fraction(r), _as_int(m, "multiplicity", 1)) for r, m in spec.real_roots]
    quads = [(_as_fraction(p), _as_fraction(q)) for p, q in spec.irreducible_quadratics]
    max_degree = _as_int(max_degree, "max_degree")
    if len({r for r, _ in roots}) != len(roots):
        raise InvalidArgument("planted real roots must be distinct")
    floor = abs(leading)
    for p, q in quads:
        disc_quarter = q - p * p / 4
        if disc_quarter <= 0:
            raise InvalidArgument(f"x^2 + {echo(p)}x + {echo(q)} has real roots")
        floor *= disc_quarter
    degree = sum(m for _, m in roots) + 2 * len(quads)
    if degree > max_degree:
        raise DegreeOverflow(f"degree {degree} exceeds cap {max_degree}")
    rows = [([leading.numerator], leading.denominator)]
    for r, m in roots:
        rows += [([-r.numerator, r.denominator], r.denominator)] * m
    for p, q in quads:
        c = math.lcm(p.denominator, q.denominator)
        rows.append(([q.numerator * (c // q.denominator), p.numerator * (c // p.denominator), c], c))
    poly = _product(rows)
    distinct = sorted(r for r, _ in roots)
    delta = None
    if len(distinct) >= 2:
        delta = min(b - a for a, b in zip(distinct, distinct[1:]))
    return PlantedPolynomial(poly, spec, delta, floor)


def sign_extremes(theta, gamma) -> tuple[int, int]:
    """Exact (min, max) sign-change counts over all completions of theta.

    A completion keeps the sign of every entry with |theta_i| >= gamma and
    chooses either sign for the rest. Choosing an exact zero instead can
    never raise the count and never beats the better of the two signs for
    lowering it (matching the left neighbor's sign is as good), so two-sign
    enumeration finds both extremes. Capped at 20 entries (TooLong).
    """
    n = len(theta)
    if n > 20:
        raise TooLong(f"{n} entries: enumeration is 2^k, cap is 20")
    if n == 0:
        raise InvalidArgument("empty vector")
    if not isinstance(gamma, (int, Fraction)) or isinstance(gamma, bool):
        raise TypeError(f"not an exact rational: {echo(gamma)}")
    if gamma <= 0:
        raise ThresholdNonPositive(f"gamma must be > 0, got {echo(gamma)}")
    fixed = []
    free_slots = []
    for i, v in enumerate(theta):
        if v >= gamma:
            fixed.append(1)
        elif v <= -gamma:
            fixed.append(-1)
        else:
            fixed.append(0)
            free_slots.append(i)
    lo, hi = None, None
    for choice in itertools.product((1, -1), repeat=len(free_slots)):
        signs = list(fixed)
        for slot, s in zip(free_slots, choice):
            signs[slot] = s
        count = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        if lo is None or count < lo:
            lo = count
        if hi is None or count > hi:
            hi = count
    return lo, hi


def bisect_root(p: Polynomial, lo, hi, r: int) -> Fraction:
    """Classical exact bisection: a point within 2^-r of a sign change of p.

    Requires eval(p, lo) * eval(p, hi) < 0 (NoSignChange otherwise). Exact
    rational arithmetic throughout; an exactly-hit root is returned as is.
    """
    lo, hi, r = _as_fraction(lo), _as_fraction(hi), _as_int(r, "r", 0)
    flo, fhi = p.eval(lo), p.eval(hi)
    if flo * fhi >= 0:
        raise NoSignChange(f"no sign change over [{echo(lo)}, {echo(hi)}]")
    tol = Fraction(1, 2**r)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fmid = p.eval(mid)
        if fmid == 0:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return (lo + hi) / 2
