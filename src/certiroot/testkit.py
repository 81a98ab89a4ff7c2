"""Brute-force oracles and exact instance generators.

Everything here is independent of the production code paths it checks:
planted polynomials are expanded as one product (polyalg._product) of integer
rows built straight from their factors' integer pairs, which the descent never
calls; sign-change extremes are found by enumerating completions, and roots are
located by classical bisection. The oracles are deliberately slow and capped at
desk scale — independence from the code under test outranks speed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DegreeOverflow, InvalidArgument, NoSignChange, TooLong, echo
from .polyalg import Polynomial, _as_fraction, _as_gamma, _as_int, _product, _ratio


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
    """Expand a PlantedSpec exactly and attach its ground-truth metadata, all
    on integer pairs: a root a/b is (a, b) and its row (b*x - a)/b, and a
    quadratic's row is over the lcm of p's and q's denominators."""
    leading = _as_fraction(spec.leading)
    if leading == 0:
        raise InvalidArgument("leading factor must be nonzero")
    roots = [(_as_fraction(r), _as_int(m, "multiplicity", 1)) for r, m in spec.real_roots]
    quads = [(_as_fraction(p), _as_fraction(q)) for p, q in spec.irreducible_quadratics]
    max_degree = _as_int(max_degree, "max_degree")
    pairs = [(r.numerator, r.denominator) for r, _ in roots]
    if len(set(pairs)) != len(pairs):
        raise InvalidArgument("planted real roots must be distinct")
    num, den = abs(leading.numerator), leading.denominator
    for p, q in quads:
        (a, b), (c, d) = p.as_integer_ratio(), q.as_integer_ratio()
        gap = 4 * c * b * b - a * a * d  # q - p^2/4 = gap / (4b^2 d)
        if gap <= 0:
            raise InvalidArgument(f"x^2 + {echo(p)}x + {echo(q)} has real roots")
        num, den = num * gap, den * 4 * b * b * d
    degree = sum(m for _, m in roots) + 2 * len(quads)
    if degree > max_degree:
        raise DegreeOverflow(f"degree {degree} exceeds cap {max_degree}")
    rows = [([leading.numerator], leading.denominator)]
    for (a, b), (_, m) in zip(pairs, roots):
        rows += [([-a, b], b)] * m
    for p, q in quads:
        c = math.lcm(p.denominator, q.denominator)
        rows.append(([q.numerator * (c // q.denominator), p.numerator * (c // p.denominator), c], c))
    delta = None
    if len(pairs) >= 2:
        lcd = math.lcm(*(b for _, b in pairs))
        keys = sorted(a * (lcd // b) for a, b in pairs)
        delta = _ratio(min(y - x for x, y in zip(keys, keys[1:])), lcd)
    return PlantedPolynomial(_product(rows), spec, delta, _ratio(num, den))


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
    gamma = _as_gamma(gamma)
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
