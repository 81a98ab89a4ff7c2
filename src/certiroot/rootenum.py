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
certification open. The O(d^2) shift is generated once per length and sign,
written out up to _KERNEL_CAP coefficients and a loop above; the O(d) split,
which settles its own form, is written out once per length. Ranges pop left
to right, so the pruned result is bit-identical to the full sweep.

Most of a form's bits are one known power of two, and each form is stored
divided by it. The ranges are aligned: one of level h has half-width 2^h (a
unit cell, centred on its left end, has h = 0, as a width-2 range does), and
its ends and its centre c are multiples of 2^h. For chain element
V(m) = sum_i C_i 2^(r(k-i)) m^i, every coefficient of V(c + 2^h u) then has
valuation at least min_i (r(k-i) + h*i) = k*min(h, r), and so do V(m0),
V(m1), the centre value and the coefficient-sum bound. The range stores them
divided by 2^s, s = k*min(h, r), and compares them with ceil(lim / 2^s): for
an integer x, x*2^s >= lim iff x >= ceil(lim / 2^s), and x*2^s < lim iff
x < ceil(lim / 2^s), so every test decides as on the undivided values.
Above level r the power is 2^(kr) at every level; from level r down it falls
by 2^k a level, to 1 at width 2. The interval Horner pass evaluates V
itself.

Classification evaluates nothing. At a unit cell the power is 1, so the
form of each undecided element holds V(m0) and V(m1) exactly, and its class
(sign, |V| < lim) follows. Every other element was certified off on a range
holding the cell, where |V| >= lim with one sign: its class is (that sign,
False). Each range carries these classes, one list entry per chain element
(None for an undecided one). A half shares its parent's list, or, when an
element went off on it, gets a copy with that element's class written, its
sign taken from the half's V(m0). An element off on a range is off on every
range inside it, and no list is written after its range is pushed, so a
range's list holds the classes of exactly its off elements, and each class
vector starts as a copy of it (see _ScaledChain.classify). A range decided
whole is classified at m0 the same way, from V(m0) stored divided by 2^s
and its level's limit.

The descent records each fired cell [m, m + 1] as the odd numerator 2m + 1
of its midpoint, an int: a range decided whole adds all of its cells as one
range of odd ints. The candidate Fractions are built once, at the end, by
polyalg's _from_coprime_ints, which skips the gcd that an odd numerator over
2^(r+1) never needs: an odd n and a power of two share no factor.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .approxsign import max_changes_of_classes, min_changes_of_classes
from .errors import DegreeUnresolved, IdenticalPolynomials, InvalidArgument, echo
from .polyalg import (
    Polynomial,
    _as_fraction,
    _as_gamma,
    _as_int,
    _from_coprime_ints,
    _nonconstant_degree,
)
from .sturm import cauchy_bound, sturm_chain


class PrecisionParams(NamedTuple("PrecisionParams", [("r", int), ("gamma", Fraction)])):
    """Target precision r (roots located to within 2^-r) and sign threshold."""

    __slots__ = ()

    def __new__(cls, r: int, gamma):
        g = _as_gamma(_as_fraction(gamma))
        return super().__new__(cls, _as_int(r, "precision r", 1), g)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: validate it too
        return cls(*iterable)


class RootCandidateList(NamedTuple):
    """Sorted dyadic candidates plus the grid metadata that produced them.

    candidates are strictly increasing Fractions (2m+1)/2^(r+1), the fired
    cells' midpoints, in lowest terms; interval_width is the grid spacing
    2^-r; length_bound is 6*d^2.
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


# Longest coefficient list whose shift is written out, as n(n - 1)/2
# statements: compiling both signs' takes ~2 ms at n = 21 but ~70 ms at
# n = 129, and one of n = 257 peaks near 60 MB. A split has O(n) statements.
_KERNEL_CAP = 24


def _compile(name: str, lines: list, **namespace):
    """The function `kernel` that lines define, with namespace as its globals."""
    exec(compile("\n".join(lines), name, "exec"), namespace)
    return namespace["kernel"]


@functools.cache
def _shifts(n: int) -> tuple:
    """(None, shift by +1, shift by -1) of n coefficients, indexed by t: the
    kernels of _taylor_shift. Up to _KERNEL_CAP coefficients each is its loop
    written out on locals c0..c{n-1}, the same adds (or subtracts) in the same
    order; above, each runs the loop on a copy."""
    names = ", ".join(f"c{j}" for j in range(n))
    kernels = [None]
    for op in "+-":
        if n <= _KERNEL_CAP:
            steps = (f"c{j} {op}= c{j + 1}" for i in range(n - 1) for j in range(n - 2, i - 1, -1))
            body = [f"{names}, = c", *steps, f"return [{names}]"]
        else:
            body = ["c = list(c)", f"for i in range({n - 1}):",
                    f"    for j in range({n - 2}, i - 1, -1):", f"        c[j] {op}= c[j + 1]", "return c"]
        lines = ["def kernel(c):", *("    " + line for line in body)]
        kernels.append(_compile(f"<taylor shift, {n} coefficients, t = {op}1>", lines))
    return tuple(kernels)


def _taylor_shift(c: list, t: int) -> list:
    """Coefficients (low to high) of sum_j c_j (u + t)^j for t = +1 or -1.

    Synthetic division: round i divides the quotient held in positions i..
    by (u - t) and leaves the remainder in position i, so t = -1 subtracts
    where t = +1 adds. It runs as the kernel of c's length and t's sign (see
    _shifts). c itself is not changed; both halves' pending forms share it.
    """
    return _shifts(len(c))[t](c)


def _settle(form: list) -> list:
    """The coefficients a of a form, shifting a pending one by its t once."""
    if form[3]:
        form[0], form[3] = _taylor_shift(form[0], form[3]), 0
    return form[0]


@functools.cache
def _split_kernel(n: int):
    """Pending forms of the left and right halves of a range whose form has n
    coefficients: a function of (form, step), step 0 for a range of width 2,
    1 for one above level r and 2 for one at levels 1..r (see _ScaledChain).

    A half of width >= 2 has hw/2 and centre c -+ hw/2, so its form is
    sum_j (a_j / 2^j)(u -+ 1)^j, exact because a_j carries hw^j, hw >= 2.
    Stored divided by a power of 2 (see _ScaledChain), the halves' a_j / 2^j
    are a_j >> j above level r, where a range and its halves share the power
    2^(kr); at levels 1..r the halves' power is 2^k below the range's, so
    they are a_j << (k - j), with v0, v1, a_0 and bound shifted << k.
    A unit cell is centred on its left end with hw = 1, as a width-2 range
    is on m0 + 1, whose left cell is thus its form shifted by -1 and right
    cell its form. The parent's a_0 = V(c) is the shared endpoint value.
    Each half's shift waits for _settle: c0, its a_0, is the scaled form at
    t = -+1, and its sum |a_i| <= bound = sum_j |a_j| 2^j, as sum_i C(j, i) = 2^j.
    Generated once per length, on locals a0..a{n-1}: a pending form is
    settled in place first, as _settle does, by its length's shift kernel;
    both halves share one coefficient list, and the parent's is not changed.
    """
    names, k = [f"a{j}" for j in range(n)], n - 1

    def total(target, terms):  # 64 terms a statement: longer sums nest too deep to compile
        chunks = [" + ".join(terms[i:i + 64]) for i in range(0, len(terms), 64)] or ["0"]
        return [f"    {target} = {chunks[0]}", *(f"    {target} += {c}" for c in chunks[1:])]

    halve = [f"a{j} >>= {j}" for j in range(1, n)] or ["pass"]
    rescale = [*(f"{x} <<= {k}" for x in ("bound", "v0", "v1")),
               *(f"a{j} <<= {k - j}" for j in range(k))] if k else ["pass"]
    lines = [
        "def kernel(form, step):",
        "    a, v0, v1, t, _, _ = form",
        "    if t:",
        "        a = form[0] = shifts[t](a)",
        "        form[3] = 0",
        f"    {', '.join(names)}, = a",
        "    if step:",
        *("    " + line for line in total("bound", [f"abs({x})" for x in names])),
        "        if step == 1:",
        *("            " + line for line in halve),
        "        else:",
        *("            " + line for line in rescale),
        f"        a = [{', '.join(names)}]",
        "    else:",
        *("    " + line for line in total("bound", [f"(abs(a{j}) << {j})" for j in range(n)])),
        *total("even", names[::2]),
        *total("odd", names[1::2]),
        "    left = [a, v0, a0, -1, even - odd, bound]",
        "    return left, [a, a0, v1, 1, even + odd, bound] if step else [a, a0, v1, 0, a0, bound]",
    ]
    return _compile(f"<split, {n} coefficients>", lines, shifts=_shifts(n))


class _ScaledChain:
    """Sturm chain with integer-rescaled coefficients for one grid.

    A grid point is m / 2^r. For chain element P of degree k with integer
    row P._row = (C, den), coefficients C_j / den, the integer
    V(m) = sum_j C_j * 2^(r(k-j)) * m^j satisfies
    P(m / 2^r) = V(m) / (den * 2^(rk)), so sign and |P| >= gamma tests are
    pure integer comparisons: with gamma = g_num / g_den,
    |P| < gamma  iff  |V| < lim = ceil(g_num * den * 2^(rk) / g_den).

    A range [m0, m1] of level h has half-width hw = 2^h and centre c (a unit
    cell: c = m0, hw = 1, h = 0; a width-2 range: h = 0 too). It carries
    [a, V(m0), V(m1), t, a_0, bound >= sum_j |a_j|] for the centred form
    V(c + hw*u) = sum_j a_j u^j, a_j = b_j * hw^j with b_j the Taylor
    coefficients of V about c; t != 0 marks a pending a (_split_kernel).
    Every entry but t is stored divided by 2^s, s = k*min(h, r), and compared
    with lims[min(h, r)][idx] = ceil(lim / 2^s), which decides each test as
    the undivided entries and lim would (the module docstring has the proof).
    polys[idx] is element idx's one Horner row, with lim: certified_off's
    step 3 runs it on either side of 0.

    Nothing is written after __init__: classify builds each class vector
    from what root_enum passes it, the exact values its forms carry and the
    classes of the elements certified off, and evaluates no V.
    """

    def __init__(self, chain, r: int, gamma: Fraction):
        g_num, g_den = gamma.numerator, gamma.denominator
        self.r = r
        self.polys = []  # (horner coeffs high->low as ints, lim int)
        for p in chain:
            ints, den = p._row
            k = len(ints) - 1
            horner = [ints[k - j] << r * j for j in range(k + 1)]
            self.polys.append((horner, -(-(g_num * den << r * k) // g_den)))
        self.lims = [[-(-lim >> (len(horner) - 1) * h) for horner, lim in self.polys]
                     for h in range(r + 1)]

    def levels(self, top: int) -> list:
        """(split step, limits of a range's forms, limits of its halves') for
        the levels h = 0..top, the step and limits _split_kernel documents;
        the levels above r share one tuple."""
        lims, r = self.lims, self.r
        low = min(top, r)
        return ([(0, lims[0], lims[0])] + [(2, lims[h], lims[h - 1]) for h in range(1, low + 1)]
                + [(1, lims[r], lims[r])] * (top - low))

    def root_form(self, idx: int, half: int) -> list:
        """Centred form of chain[idx] over [-half, half] (c = 0, hw = half, a
        power of two, 2^t with t >= r), stored divided by 2^(k*r)."""
        horner, t = self.polys[idx][0], half.bit_length() - 1
        s = (len(horner) - 1) * self.r
        a = [h << t * j >> s for j, h in enumerate(reversed(horner))]
        return [a, sum(a[::2]) - sum(a[1::2]), sum(a), 0, a[0], sum(map(abs, a))]

    def classify(self, m: int, signs: list, forms: list, lims: list, at: int) -> list:
        """Entry classes [(sign, small), ...] of the chain at grid point m/2^r,
        from what the range [m0, m1] that root_enum pops already holds.

        signs has one entry per chain element: the class (sign, False) of
        each element certified off on the range, None for the others. Such an
        element has |V| >= lim with one sign on the range, so the vector
        starts as a copy of signs. forms holds the (idx, form) pairs of the
        undecided elements, whose form[at] is V(m) divided by 2^s (at = 1 for
        m = m0, 2 for m = m1), and lims their level's limits ceil(lim / 2^s):
        each gets class (sign of form[at], |form[at]| < lims[idx]), which
        decides as V(m) and lim would (see the module docstring); at a unit
        cell s = 0 and form[at] is V(m) itself.

        m is not read. It stays the first argument because the benchmark's
        tracer counts the distinct grid points classified by it.
        """
        out = signs.copy()
        for idx, form in forms:
            v, lim = form[at], lims[idx]
            out[idx] = (1 if v > 0 else (-1 if v < 0 else 0), -lim < v < lim)
        return out

    def certified_off(self, idx: int, m0: int, m1: int, form: list, lim: int) -> bool:
        """True if |chain[idx]| >= gamma provably holds on [m0/2^r, m1/2^r].

        form is chain[idx]'s centred form over the range and lim its level's
        limit, both divided by one power of 2. Checked in order:
        1. Exact values: if V(m0), V(m1) differ in sign or one is 0, or
           |V(c)| = |c0| < lim, the range holds a small point and no sound
           enclosure certifies it: False.
        2. Centred form: |V| >= |c0| - sum_{j>=1} |a_j| on the range. The
           a_j decay like distance^(mult-j) near a root, so ranges a few
           widths from a root certify and the descent stays near-linear in
           depth even around high-multiplicity roots. The sum lies between
           max(|V(m0)|, |V(m1)|), the form's values at the ends, and bound:
           only when these two leave the test open is the form settled.
        3. Plain interval Horner over [m0, m1], on V and the undivided lim:
           tight far from the roots. Each step's [lo, hi] * [m0, m1] takes its
           ends at the corners, and on one side of 0 the sign of each y end
           picks its x end. [lo, hi] holds V(m0), whose sign step 1 fixed,
           so as lim >= 1 only lo >= lim can hold for V > 0 and only
           -hi >= lim for V < 0: that one end is computed. For m1 <= 0 the
           corners reflect, the new lo coming from hi and the new hi from lo
           (the exact product for x <= 0), so the end's picks alternate step
           by step, the degree's parity setting the first. Both sides run
           V's one row.
        Only the whole grid [-half, half] holds 0 inside: every other range
        lies in one of its halves. There each step's product is
        +-half * max(|lo|, |hi|), so step 3 would give c0 +- sum_{j>=1}
        |a_j| and repeat step 2's exact test on the settled root form,
        which has failed: such a range returns False before step 3.
        """
        _, v0, v1, _, c0, bound = form
        c0 = abs(c0)
        if not (v0 > 0 < v1 or v0 < 0 > v1) or c0 < lim:
            return False
        if 2 * c0 - bound >= lim:
            return True
        if 2 * c0 - max(abs(v0), abs(v1)) >= lim and 2 * c0 - sum(map(abs, _settle(form))) >= lim:
            return True
        if m0 < 0 < m1:
            return False
        horner, lim = self.polys[idx]
        y, (p, q) = horner[0], (m0, m1) if v0 > 0 else (m1, m0)
        if m1 <= 0:
            if len(horner) % 2:
                p, q = q, p
            for h in horner[1:]:
                y, p, q = y * (p if y >= 0 else q) + h, q, p
        else:
            for h in horner[1:]:
                y = y * (p if y >= 0 else q) + h
        return (y if v0 > 0 else -y) >= lim

    @staticmethod
    def certified_small(form: list, lim: int) -> bool:
        """True if 0 < |chain element| < gamma with one sign provably holds on
        a range of width >= 2, whose form's u runs over [-1, 1]; lim is the
        level's limit, as in certified_off.

        |V - c0| <= S1 = sum_{j>=1} |a_j| on the range, so |c0| - S1 > 0 and
        |c0| + S1 < lim suffice. They imply that V(m0), V(m1) and c0 are
        nonzero, of one sign and below lim, which is checked first, in O(1).
        S1 <= bound - |c0| is tried next; the form is settled only when that
        leaves the test open.
        """
        _, v0, v1, _, c0, bound = form
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
    (ints, den), gamma = c._row, params.gamma
    if abs(ints[-1]) * gamma.denominator <= 2 * gamma.numerator * den:
        raise DegreeUnresolved(
            f"|leading coefficient| = {echo(abs(c.leading))} <= 2*gamma = {echo(2 * gamma)}"
        )
    beta, r = cauchy_bound(c), params.r
    e = ceil_log2(beta)  # >= 0, as beta >= 1
    return RootCandidateList((), _from_coprime_ints(1, 1 << r), 6 * d * d, beta, 1 << e, r + 1 + e)


def root_enum(c: Polynomial, params: PrecisionParams) -> RootCandidateList:
    """Enumerate dyadic candidates within 2^-r of every real root of c.

    Raises DegreeTooLow below degree 1 and DegreeUnresolved when |leading|
    <= 2*gamma (an approximately-known vector whose top coefficient cannot
    be trusted to be nonzero would make the Euclidean divisions meaningless).

    The descent gathers the fired cells as the odd numerators of their
    midpoints and builds the candidate Fractions over 2^(r+1) once, at the
    end, with no gcd (see _from_coprime_ints).
    """
    grid, r = _grid(c, params), params.r
    chain = sturm_chain(c)
    scaled = _ScaledChain(chain, r, params.gamma)
    half = grid.grid_bound << r  # grid numerators run over [-half, half]
    top = grid.r_prime - 1  # the whole grid's level: half = 2^top
    fired: list[int] = []  # the odd numerators 2m + 1 of the fired cells' midpoints
    certified_off, certified_small = scaled.certified_off, scaled.certified_small
    classify = scaled.classify
    levels = scaled.levels(top)
    unit_lims = levels[0][1]
    splits = [_split_kernel(len(horner)) for horner, _ in scaled.polys]

    # A stack entry is a range with the centred forms of its undecided chain
    # elements, its level and the classes of its elements certified off (see
    # _ScaledChain.classify); right halves go first, so ranges pop left to
    # right.
    lims, signs, forms = levels[top][1], [None] * len(chain), []
    for idx in range(len(chain)):
        form = scaled.root_form(idx, half)
        if certified_off(idx, -half, half, form, lims[idx]):
            signs[idx] = (1, False) if form[1] > 0 else (-1, False)
        else:
            forms.append((idx, form))
    stack = [(-half, half, forms, top, signs)]
    while stack:
        m0, m1, forms, h, signs = stack.pop()
        if m1 - m0 == 1:
            left = classify(m0, signs, forms, unit_lims, 1)
            right = classify(m1, signs, forms, unit_lims, 2)
            if max_changes_of_classes(left) - min_changes_of_classes(right) >= 1:
                fired.append(2 * m0 + 1)
            continue
        step, lims, halves = levels[h]
        for idx, form in forms:  # |c0| >= lim, the common case, needs no call
            lim = lims[idx]
            if not -lim < form[4] < lim or not certified_small(form, lim):
                break
        else:  # one class vector at every grid point: all cells fire or none
            same = classify(m0, signs, forms, lims, 1)
            if max_changes_of_classes(same) - min_changes_of_classes(same) >= 1:
                fired.extend(range(2 * m0 + 1, 2 * m1, 2))
            continue
        mid = (m0 + m1) >> 1
        lefts, rights, left_signs, right_signs = [], [], signs, signs
        for idx, form in forms:
            left, right = splits[idx](form, step)
            lim = halves[idx]
            if certified_off(idx, m0, mid, left, lim):
                if left_signs is signs:
                    left_signs = signs.copy()
                left_signs[idx] = (1, False) if left[1] > 0 else (-1, False)
            else:
                lefts.append((idx, left))
            if certified_off(idx, mid, m1, right, lim):
                if right_signs is signs:
                    right_signs = signs.copy()
                right_signs[idx] = (1, False) if right[1] > 0 else (-1, False)
            else:
                rights.append((idx, right))
        h -= 1
        if rights:
            stack.append((mid, m1, rights, h, right_signs))
        if lefts:
            stack.append((m0, mid, lefts, h, left_signs))
    return grid._replace(candidates=tuple(map(_from_coprime_ints, fired, repeat(1 << (r + 1)))))


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
