"""Grid enumeration of dyadic approximations to all real roots.

Given an exact coefficient vector c and a precision r, every real root of c
is within 2^-r of some emitted candidate (completeness holds for ANY
threshold gamma > 0; the 6*d^2 output-length bound additionally needs gamma
at or below the off-root floor, see errbounds.small_value_threshold).

Procedure: with beta the Cauchy bound and B = 2^ceil(log2 beta) the dyadic
outer bound, sweep the uniform grid of spacing 2^-r over [-B, B] (2^r'
cells, r' = r + 1 + ceil(log2 beta)). For a cell [z, z + 2^-r] compute
L = max_sign_change at z and R = min_sign_change at z + 2^-r over the Sturm
chain values; the cell fires iff L - R >= 1, emitting its midpoint — a
dyadic rational (2m+1)/2^(r+1). Adjacent firing cells are not merged.

Why a fired cell never misses and never lies (for the completeness half):
with sigma the zeros-deleted variation count, sigma(z) - sigma(z + 2^-r)
equals the number of distinct roots in (z, z + 2^-r], L >= sigma(z) and
R <= sigma(z + 2^-r) hold for every gamma > 0, so any cell whose half-open
interval holds a root fires. A root exactly on a grid point makes both
neighbors fire.

The literal sweep is Theta(2^r') evaluations — hopeless at r = 32 — so the
implementation descends over dyadic cell ranges with an explicit stack (depth
r' + 1 needs no recursion) and prunes any range on which every chain element
is certified to keep magnitude >= gamma: no chain element can vanish or go
small there, all signs are constant, L = R everywhere inside, and no cell
fires. A second prune decides a range of width >= 2 whole when each element
not certified off is certified to stay strictly inside (0, gamma) or
(-gamma, 0) on it: every grid point of the range then has one class vector,
so all its cells fire or none does, as one classify decides. A constant
chain element inside (-gamma, 0) u (0, gamma), always the last, fires every
cell of the grid, as the literal scan does: it makes L >= 1 and R <= the
variation count at z + 2^-r minus 1, or 0. The descent then splits only
ranges where another element is undecided. Certification is exact integer
arithmetic: each range carries, per undecided element, its centred Taylor
form, derived from the parent's by x -> (x +- 1)/2 with bit shifts,
additions and subtractions only (the bisection step of Collins-Akritas and
Rouillier-Zimmermann). A half is shifted only when it is split, or when its
exact centre value and two O(d) bounds on its coefficient sum leave its
certification open. Ranges pop left to right, so the pruned result is
bit-identical to the full sweep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .approxsign import max_changes_of_classes, min_changes_of_classes
from .errors import (
    DegreeUnresolved,
    IdenticalPolynomials,
    InvalidArgument,
    ThresholdNonPositive,
    echo,
)
from .polyalg import Polynomial, _as_fraction, _nonconstant_degree
from .sturm import cauchy_bound, sturm_chain


class PrecisionParams(NamedTuple("PrecisionParams", [("r", int), ("gamma", Fraction)])):
    """Target precision r (roots located to within 2^-r) and sign threshold."""

    __slots__ = ()

    def __new__(cls, r: int, gamma):
        g = _as_fraction(gamma)
        if g <= 0:
            raise ThresholdNonPositive(f"gamma must be > 0, got {echo(g)}")
        if r < 1:
            raise InvalidArgument("precision r must be >= 1")
        return super().__new__(cls, r, g)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: validate it too
        return cls(*iterable)


class RootCandidateList(NamedTuple):
    """Sorted dyadic candidates plus the grid metadata that produced them.

    candidates are strictly increasing Fractions of the form m/2^k;
    interval_width is the grid spacing 2^-r; length_bound is 6*d^2.
    beta/grid_bound/r_prime are None only on the degenerate constant-
    difference path of intersect().
    """

    candidates: tuple
    interval_width: Fraction
    length_bound: int
    beta: Fraction | None = None
    grid_bound: int | None = None
    r_prime: int | None = None


def ceil_log2(x) -> int:
    """Smallest integer e with 2^e >= x, for rational x > 0: the bit length of
    ceil(x) - 1 = (n - 1) // d if x > 1, else 1 - the bit length of floor(1/x)."""
    x = _as_fraction(x)
    if x <= 0:
        raise InvalidArgument("ceil_log2 needs x > 0")
    n, d = x.numerator, x.denominator
    return ((n - 1) // d).bit_length() if n > d else 1 - (d // n).bit_length()


def _taylor_shift(c: list, t: int) -> list:
    """Coefficients (low to high) of sum_j c_j (u + t)^j for t = +1 or -1.

    In-place synthetic division on a copy of c: round i divides the quotient
    held in positions i.. by (u - t) and leaves the remainder in position i,
    so t = -1 subtracts where t = +1 adds. c itself is not changed; both
    halves' pending forms share it.
    """
    c, n = list(c), len(c)
    if t > 0:
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                c[j] += c[j + 1]
    else:
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                c[j] -= c[j + 1]
    return c


def _settle(form: list) -> list:
    """The coefficients a of a form, shifting a pending one by its t once."""
    if form[3]:
        form[0], form[3] = _taylor_shift(form[0], form[3]), 0
    return form[0]


def _child_forms(form: list, width: int) -> tuple:
    """Pending forms of the left and right halves of a range of this width.

    A half of width >= 2 has hw/2 and centre c -+ hw/2, so its form is
    sum_j (a_j / 2^j)(u -+ 1)^j, exact because a_j carries hw^j, hw >= 2.
    A unit cell is centred on its left end with hw = 1, as a width-2 range
    is on m0 + 1, whose left cell is thus its form shifted by -1 and right
    cell its form. The parent's a_0 = V(c) is the shared endpoint value.
    The shift waits for _settle: c0, the half's a_0, is the scaled form at
    t = -+1, and its sum |a_i| <= bound = sum_j |a_j| 2^j, as sum_i C(j, i) = 2^j.
    """
    a, v0, v1 = _settle(form), form[1], form[2]
    if width > 2:
        bound, a = sum(map(abs, a)), [x >> j for j, x in enumerate(a)]
    else:
        bound = sum(abs(x) << j for j, x in enumerate(a))
    even, odd = sum(a[::2]), sum(a[1::2])
    right = [a, a[0], v1, 1, even + odd, bound] if width > 2 else [a, a[0], v1, 0, a[0], bound]
    return [a, v0, a[0], -1, even - odd, bound], right


class _ScaledChain:
    """Sturm chain with integer-rescaled coefficients for one grid.

    A grid point is m / 2^r. For chain element P of degree k with
    coefficients C_j / den (C_j integers over a common denominator), the
    integer V(m) = sum_j C_j * 2^(r(k-j)) * m^j satisfies
    P(m / 2^r) = V(m) / (den * 2^(rk)), so sign and |P| >= gamma tests are
    pure integer comparisons: with gamma = g_num / g_den,
    |P| < gamma  iff  |V| < lim = ceil(g_num * den * 2^(rk) / g_den).

    A range [m0, m1] with centre c and half-width hw (a unit cell: c = m0,
    hw = 1) carries [a, V(m0), V(m1), t, a_0, bound >= sum_j |a_j|] for the
    centred form V(c + hw*u) = sum_j a_j u^j, a_j = b_j * hw^j with b_j the
    Taylor coefficients of V about c; t != 0 marks a pending a (_child_forms).

    mirrored[idx] holds the Horner list of V(-m), the odd powers negated, so
    that certified_off evaluates a range left of 0 as its mirror right of 0.
    """

    def __init__(self, chain, r: int, gamma: Fraction):
        s = 1 << r
        g_num, g_den = gamma.numerator, gamma.denominator
        self.polys = []  # (horner coeffs high->low as ints, lim int)
        self.mirrored = []
        for p in chain:
            dens = math.lcm(*(c.denominator for c in p.coeffs))
            ints = [int(c * dens) for c in p.coeffs]
            k = len(ints) - 1
            horner = [ints[k - j] * s**j for j in range(k + 1)]
            self.polys.append((horner, -(-g_num * dens * s**k // g_den)))
            self.mirrored.append([-h if (k - j) & 1 else h for j, h in enumerate(horner)])
        # Leaves pop left to right, so the only grid point classified twice
        # is the previous leaf's right end: keep just the latest result.
        self._last = (None, ())

    def root_form(self, idx: int, half: int) -> list:
        """Centred form of chain[idx] over [-half, half]: c = 0, hw = half."""
        a = [h * half**j for j, h in enumerate(reversed(self.polys[idx][0]))]
        return [a, sum(a[::2]) - sum(a[1::2]), sum(a), 0, a[0], sum(map(abs, a))]

    def classify(self, m: int) -> tuple:
        """Entry classes ((sign, small), ...) of the chain at grid point m/2^r."""
        if m == self._last[0]:
            return self._last[1]
        out = []
        for horner, lim in self.polys:
            v = horner[0]
            for h in horner[1:]:
                v = v * m + h
            sign = 1 if v > 0 else (-1 if v < 0 else 0)
            out.append((sign, abs(v) < lim))
        self._last = (m, tuple(out))
        return self._last[1]

    def certified_off(self, idx: int, m0: int, m1: int, form: list) -> bool:
        """True if |chain[idx]| >= gamma provably holds on [m0/2^r, m1/2^r].

        form is chain[idx]'s centred form over the range. Checked in order:
        1. Exact values: if V(m0), V(m1) differ in sign or one is 0, or
           |V(c)| = |c0| < lim, the range holds a small point and no sound
           enclosure certifies it: False.
        2. Centred form: |V| >= |c0| - sum_{j>=1} |a_j| on the range. The
           a_j decay like distance^(mult-j) near a root, so ranges a few
           widths from a root certify and the descent stays near-linear in
           depth even around high-multiplicity roots. The sum lies between
           max(|V(m0)|, |V(m1)|), the form's values at the ends, and bound:
           only when these two leave the test open is the form settled.
        3. Plain interval Horner over [m0, m1] with m0 >= 0: tight far from
           the roots. Each step's [lo, hi] * [m0, m1] takes its ends at the
           corners, and as x >= 0 the sign of each y end picks its x end:
           two products. A range with m1 <= 0 runs the same loop on V(-m)
           over [-m1, -m0]; negation is exact, so the enclosure is V's.
        Only the whole grid [-half, half] holds 0 inside: every other range
        lies in one of its halves. There each step's product is
        +-half * max(|lo|, |hi|), so step 3 would give c0 +- sum_{j>=1}
        |a_j| and repeat step 2's exact test on the settled root form,
        which has failed: such a range returns False before step 3.
        """
        _, v0, v1, _, c0, bound = form
        horner, lim = self.polys[idx]
        c0 = abs(c0)
        if not (v0 > 0 < v1 or v0 < 0 > v1) or c0 < lim:
            return False
        if 2 * c0 - bound >= lim:
            return True
        if 2 * c0 - max(abs(v0), abs(v1)) >= lim and 2 * c0 - sum(map(abs, _settle(form))) >= lim:
            return True
        if m0 < 0 < m1:
            return False
        if m1 <= 0:
            horner, m0, m1 = self.mirrored[idx], -m1, -m0
        lo = hi = horner[0]
        for h in horner[1:]:
            lo, hi = lo * (m0 if lo >= 0 else m1) + h, hi * (m1 if hi >= 0 else m0) + h
        return lo >= lim or -hi >= lim

    def certified_small(self, idx: int, form: list) -> bool:
        """True if 0 < |chain[idx]| < gamma with one sign provably holds on a
        range of width >= 2, whose form's u runs over [-1, 1].

        |V - c0| <= S1 = sum_{j>=1} |a_j| on the range, so |c0| - S1 > 0 and
        |c0| + S1 < lim suffice. They imply that V(m0), V(m1) and c0 are
        nonzero, of one sign and below lim, which is checked first, in O(1).
        S1 <= bound - |c0| is tried next; the form is settled only when that
        leaves the test open.
        """
        _, v0, v1, _, c0, bound = form
        lim = self.polys[idx][1]
        if c0 < 0:
            v0, v1, c0 = -v0, -v1, -c0
        if not (0 < v0 < lim and 0 < v1 < lim and 0 < c0 < lim):
            return False
        if 2 * c0 > bound and bound < lim:
            return True
        s1 = sum(map(abs, _settle(form))) - c0
        return s1 < c0 and c0 + s1 < lim


def _grid(c: Polynomial, params: PrecisionParams) -> RootCandidateList:
    """root_enum's checks and grid, with no candidates: a report's fields
    that need no descent."""
    d = _nonconstant_degree(c, "root enumeration needs degree >= 1")
    if abs(c.leading) <= 2 * params.gamma:
        raise DegreeUnresolved(
            f"|leading coefficient| = {echo(abs(c.leading))} <= 2*gamma = {echo(2 * params.gamma)}"
        )
    beta, r = cauchy_bound(c), params.r
    e = ceil_log2(beta)  # >= 0, as beta >= 1
    return RootCandidateList((), Fraction(1, 1 << r), 6 * d * d, beta, 1 << e, r + 1 + e)


def root_enum(c: Polynomial, params: PrecisionParams) -> RootCandidateList:
    """Enumerate dyadic candidates within 2^-r of every real root of c.

    Raises DegreeTooLow below degree 1 and DegreeUnresolved when |leading|
    <= 2*gamma (an approximately-known vector whose top coefficient cannot
    be trusted to be nonzero would make the Euclidean divisions meaningless).
    """
    grid, r = _grid(c, params), params.r
    chain = sturm_chain(c)
    scaled = _ScaledChain(chain, r, params.gamma)
    half = grid.grid_bound << r  # grid numerators run over [-half, half]
    candidates: list[Fraction] = []
    two_r1 = 1 << (r + 1)
    certified_off, certified_small = scaled.certified_off, scaled.certified_small
    lims = [lim for _, lim in scaled.polys]

    # A stack entry is a range with the centred forms of its undecided chain
    # elements; right halves go first, so ranges pop left to right.
    forms = [(idx, scaled.root_form(idx, half)) for idx in range(len(chain))]
    forms = [(idx, f) for idx, f in forms if not certified_off(idx, -half, half, f)]
    stack = [(-half, half, forms)]
    while stack:
        m0, m1, forms = stack.pop()
        if m1 - m0 == 1:
            left = scaled.classify(m0)
            right = scaled.classify(m1)
            if max_changes_of_classes(left) - min_changes_of_classes(right) >= 1:
                candidates.append(Fraction(2 * m0 + 1, two_r1))
            continue
        for idx, form in forms:  # |c0| >= lim, the common case, needs no call
            if not -lims[idx] < form[4] < lims[idx] or not certified_small(idx, form):
                break
        else:  # one class vector at every grid point: all cells fire or none
            same = scaled.classify(m0)
            if max_changes_of_classes(same) - min_changes_of_classes(same) >= 1:
                candidates.extend(Fraction(2 * m + 1, two_r1) for m in range(m0, m1))
            continue
        mid = (m0 + m1) >> 1
        lefts, rights = [], []
        for idx, form in forms:
            left, right = _child_forms(form, m1 - m0)
            if not certified_off(idx, m0, mid, left):
                lefts.append((idx, left))
            if not certified_off(idx, mid, m1, right):
                rights.append((idx, right))
        if rights:
            stack.append((mid, m1, rights))
        if lefts:
            stack.append((m0, mid, lefts))
    return grid._replace(candidates=tuple(candidates))


def intersect(a: Polynomial, b: Polynomial, params: PrecisionParams) -> RootCandidateList:
    """Candidates for {x : a(x) = b(x)}, i.e. the real roots of a - b.

    Raises IdenticalPolynomials when the difference vanishes identically; a
    nonzero constant difference means no intersections and yields an empty
    list (a valid answer, not a failure).
    """
    diff = a - b
    if diff.is_zero():
        raise IdenticalPolynomials("the two coefficient vectors are identical")
    if diff.degree == 0:
        return RootCandidateList((), Fraction(1, 1 << params.r), length_bound=0)
    return root_enum(diff, params)
