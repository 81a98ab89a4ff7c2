"""Dyadic-grid root enumeration and the intersection solver.

The oracle here is a literal, unoptimized scan of every grid cell using the
public Sturm and sign-change APIs. The library's pruned descent must produce
the *identical* candidate tuple — pruning is an optimization with no
licensed change in observable behavior.
"""

import copy
import functools
import hashlib
import math
import pickle
import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from certiroot import (
    ApproxContext,
    DegreeTooLow,
    DegreeUnresolved,
    IdenticalPolynomials,
    PlantedSpec,
    Polynomial,
    PrecisionParams,
    SeparationTooSmall,
    ThresholdNonPositive,
    cauchy_bound,
    ceil_log2,
    intersect,
    max_sign_change,
    min_sign_change,
    plant,
    root_enum,
    rootenum,
    small_value_threshold,
    sturm_chain,
    sturm_eval,
)
from certiroot.approxsign import entry_classes
from certiroot.polyalg import _from_coprime_ints

rng = random.Random(0x600D)

X2_MINUS_2 = Polynomial([-2, 0, 1])


@functools.lru_cache(maxsize=4)
def _grid_values(poly, r):
    """Sturm chain values at every grid point m/2^r of [-2^e, 2^e]."""
    chain = sturm_chain(poly)
    half = 1 << (max(0, ceil_log2(cauchy_bound(poly))) + r)
    return half, [sturm_eval(chain, Fraction(m, 1 << r)) for m in range(-half, half + 1)]


def naive_grid_scan(poly, params):
    """Fire every cell [m/2^r, (m+1)/2^r] with max(left) - min(right) >= 1,
    scanning the full grid over [-2^e, 2^e], 2^e >= cauchy_bound(poly)."""
    half, values = _grid_values(poly, params.r)
    gamma = Fraction(params.gamma)
    two_r = 1 << params.r
    out = []
    for i in range(2 * half):
        left = max_sign_change(values[i], gamma)
        right = min_sign_change(values[i + 1], gamma)
        if left - right >= 1:
            out.append(Fraction(2 * (i - half) + 1, 2 * two_r))
    return tuple(out)


def covers(candidates, point, radius):
    return any(abs(q - point) <= radius for q in candidates)


# --- frozen examples --------------------------------------------------------


def test_sqrt2_at_r4():
    result = root_enum(X2_MINUS_2, PrecisionParams(r=4, gamma=Fraction(1, 512)))
    assert result.candidates == (Fraction(-45, 32), Fraction(45, 32))
    assert result.beta == 3
    assert result.grid_bound == 4
    assert result.r_prime == 7
    assert result.interval_width == Fraction(1, 16)
    assert result.length_bound == 24
    assert len(result.candidates) <= 24
    # |q - sqrt(2)| <= 1/16, checked exactly: sqrt(2) in [q - 1/16, q + 1/16]
    q = result.candidates[1]
    assert (q - Fraction(1, 16)) ** 2 <= 2 <= (q + Fraction(1, 16)) ** 2
    qn = result.candidates[0]
    assert (qn + Fraction(1, 16)) ** 2 <= 2 <= (qn - Fraction(1, 16)) ** 2


def test_root_on_grid_point_fires_both_flanks():
    result = root_enum(Polynomial([-1, 1]), PrecisionParams(r=8, gamma=Fraction(1, 1024)))
    assert result.candidates == (Fraction(511, 512), Fraction(513, 512))
    assert len(result.candidates) <= 6
    assert all(abs(q - 1) <= Fraction(1, 256) for q in result.candidates)


def test_no_real_roots_empty():
    result = root_enum(Polynomial([1, 0, 1]), PrecisionParams(r=8, gamma=Fraction(1, 2**16)))
    assert result.candidates == ()


def test_root_at_zero():
    result = root_enum(Polynomial([0, 1]), PrecisionParams(r=4, gamma=Fraction(1, 256)))
    assert result.candidates == (Fraction(-1, 32), Fraction(1, 32))
    assert result.beta == 1
    assert result.grid_bound == 1
    assert result.r_prime == 5


# --- parameter validation ---------------------------------------------------


def test_precision_params_validation():
    with pytest.raises(ValueError):
        PrecisionParams(r=0, gamma=Fraction(1, 4))
    with pytest.raises(ThresholdNonPositive):
        PrecisionParams(r=4, gamma=0)
    with pytest.raises(ThresholdNonPositive):
        PrecisionParams(r=4, gamma=Fraction(-1, 4))
    p = PrecisionParams(r=4, gamma="1/512")
    assert p.gamma == Fraction(1, 512)


def test_degree_errors():
    params = PrecisionParams(r=4, gamma=Fraction(1, 512))
    with pytest.raises(DegreeTooLow):
        root_enum(Polynomial([7]), params)
    with pytest.raises(DegreeTooLow):
        root_enum(Polynomial([0]), params)


def test_untrusted_leading_coefficient():
    # |leading| <= 2*gamma: degree itself is in doubt
    with pytest.raises(DegreeUnresolved):
        root_enum(
            Polynomial([0, 1, Fraction(1, 2**20)]),
            PrecisionParams(r=4, gamma=Fraction(1, 2**12)),
        )


def test_grid_leading_test_is_exact_at_twice_gamma():
    """_grid raises DegreeUnresolved, with the Fractions in its text, at
    |leading| = 2*gamma exactly, and builds the grid just above it; rows
    whose denominators share factors with gamma's included."""
    for coeffs in ([0, 1, Fraction(1, 2**20)], [Fraction(1, 6), 0, Fraction(-35, 12)],
                   [3, Fraction(-5, 9), 2, Fraction(-7, 10**12)], [1, -2]):
        poly = Polynomial(coeffs)
        lead = abs(poly.leading)
        for r in 1, 7, 40:
            with pytest.raises(DegreeUnresolved) as err:
                rootenum._grid(poly, PrecisionParams(r=r, gamma=lead / 2))
            assert str(err.value) == f"|leading coefficient| = {lead} <= 2*gamma = {lead}"
            grid = rootenum._grid(poly, PrecisionParams(r=r, gamma=lead / 2 - Fraction(1, 3 * 10**15)))
            beta = cauchy_bound(poly)
            e = ceil_log2(beta)
            want = (Fraction(1, 2**r), 6 * poly.degree**2, beta, 2**e, r + 1 + e)
            assert (grid.interval_width, grid.length_bound, grid.beta, grid.grid_bound,
                    grid.r_prime) == want
            assert type(grid.interval_width) is Fraction and grid.candidates == ()


def test_levels_equal_the_per_level_definition():
    """levels(top) is (0, lims[0], lims[0]) and, for h = 1..top, (1 above r
    else 2, lims[min(h, r)], lims[min(h - 1, r)]), for top below, at and
    above r."""
    chain = sturm_chain(Polynomial([-6, 11, -6, 1]) * Polynomial([-2, 0, 1]))
    for r in 1, 3, 8:
        scaled = rootenum._ScaledChain(chain, r, Fraction(1, 64))
        lims = scaled.lims
        for top in {0, 1, r - 1, r, r + 1, r + 5}:
            want = [(0, lims[0], lims[0])] + [
                (1 if h > r else 2, lims[min(h, r)], lims[min(h - 1, r)]) for h in range(1, top + 1)]
            assert scaled.levels(top) == want


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(Fraction(5, 2)) == 2
    assert ceil_log2(Fraction(1, 3)) == -1
    assert ceil_log2(8) == 3
    # Powers of two +- 1 at both signs of e, and long numerators and denominators,
    # against the defining property 2^(e-1) < x <= 2^e.
    values = [Fraction(2**k + s, 2**j) for k in range(0, 70, 7) for j in (0, 1, 33, 90)
              for s in (-1, 0, 1) if 2**k + s > 0]
    values += [Fraction(10**29 + 7, 3), Fraction(3, 10**29 + 7), Fraction(7**34, 5**42)]
    for x in values:
        e = ceil_log2(x)
        assert Fraction(2) ** (e - 1) < x <= Fraction(2) ** e, x
    with pytest.raises(ValueError):
        ceil_log2(0)


# --- oracle equivalence: pruning must not change output ---------------------


def test_pruned_descent_equals_naive_scan_frozen():
    for poly, r in [
        (X2_MINUS_2, 4),
        (Polynomial([-1, 1]), 4),
        (Polynomial([1, 0, 1]), 3),
        (Polynomial([0, -1, 0, 1]), 3),  # x^3 - x
    ]:
        params = PrecisionParams(r=r, gamma=Fraction(1, 2**11))
        assert root_enum(poly, params).candidates == naive_grid_scan(poly, params)


def test_pruned_descent_equals_naive_scan_random():
    for _ in range(25):
        deg = rng.randint(1, 3)
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice([-2, -1, 1, 2])))
        poly = Polynomial(coeffs)
        params = PrecisionParams(r=rng.choice([2, 3]), gamma=Fraction(1, 2**10))
        assert root_enum(poly, params).candidates == naive_grid_scan(poly, params)


def test_pruned_descent_equals_naive_scan_random_integer_sweep():
    """Random integer degree <= 6 (roots mostly irrational, off the grid,
    some outside [-1, 1], repeated factors allowed), 2 <= r <= 10, and gamma
    at the floor's scale 2^(-d*r), at 2^-r and at the coarse 1/64."""
    local = random.Random(0x1D1FF)
    for i in range(14):
        deg = 6 if i == 0 else local.randint(1, 6)
        coeffs = [local.randint(-3, 3) for _ in range(deg)] + [local.choice([-2, -1, 1, 2])]
        poly = Polynomial(coeffs)
        r = 10 if i == 0 else local.randint(2, 10)
        for gamma in (Fraction(1, 2 ** (deg * r)), Fraction(1, 2**r), Fraction(1, 64)):
            params = PrecisionParams(r=r, gamma=gamma)
            assert root_enum(poly, params).candidates == naive_grid_scan(poly, params), (
                coeffs, r, gamma)


def test_pruned_descent_equals_naive_scan_planted_sweep():
    """Planted degree <= 6 (roots on the 1/4 lattice of [-1, 1], multiplicity
    <= 3, optional quadratic factor), 2 <= r <= 10, and gamma at the
    certified floor, at 2^-r and at the coarse 1/64."""
    local = random.Random(0xD1FF)
    for i in range(14):
        quad = local.random() < 0.25
        budget = 6 - 2 * quad
        k = local.randint(1, min(4, budget))
        mults = []
        for j in range(k):
            mults.append(local.randint(1, min(3, budget - sum(mults) - (k - 1 - j))))
        nums = local.sample(range(-4, 5), k)
        spec = PlantedSpec(
            real_roots=tuple((Fraction(v, 4), m) for v, m in zip(nums, mults)),
            irreducible_quadratics=((Fraction(local.randint(-1, 1)), Fraction(1)),) * quad,
            leading=Fraction(local.choice([1, -1, 2, -2])),
        )
        planted = plant(spec)
        poly = planted.polynomial
        r = 10 if i == 0 else local.randint(2, 10)
        gammas = [Fraction(1, 2**r), Fraction(1, 64)]
        try:
            gammas.append(small_value_threshold(
                poly, planted.delta_min or 1, ApproxContext(r=r, d=poly.degree),
                planted.factor_floor))
        except SeparationTooSmall:
            pass
        for gamma in gammas:
            params = PrecisionParams(r=r, gamma=gamma)
            assert root_enum(poly, params).candidates == naive_grid_scan(poly, params), (
                spec, r, gamma)


@st.composite
def planted_instances(draw):
    """A planted polynomial of degree <= 5 (distinct roots on the 1/4 lattice
    of [-1, 1], multiplicity <= 3, an optional x^2 + p x + 1), r in 4..6,
    and gamma at the certified floor, at 2^-r or at the coarse 1/64."""
    quad = draw(st.booleans())
    nums = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4 - 2 * quad, unique=True))
    budget, roots = 5 - 2 * quad, []
    for j, v in enumerate(nums):
        m = draw(st.integers(1, min(3, budget - (len(nums) - 1 - j))))
        budget -= m
        roots.append((Fraction(v, 4), m))
    spec = PlantedSpec(
        real_roots=tuple(roots),
        irreducible_quadratics=((Fraction(draw(st.integers(-1, 1))), Fraction(1)),) * quad,
        leading=Fraction(draw(st.sampled_from([1, -1, 2, -2]))),
    )
    planted = plant(spec)
    r = draw(st.integers(4, 6))
    kind = draw(st.sampled_from(["floor", "2^-r", "1/64"]))
    if kind == "floor":  # 2^-r < delta_min / 2 holds: roots are >= 1/4 apart
        gamma = small_value_threshold(
            planted.polynomial, planted.delta_min or 1,
            ApproxContext(r=r, d=planted.polynomial.degree), planted.factor_floor)
    else:
        gamma = Fraction(1, 2**r) if kind == "2^-r" else Fraction(1, 64)
    return planted.polynomial, PrecisionParams(r=r, gamma=gamma)


@settings(max_examples=60, deadline=None)
@given(planted_instances())
def test_pruned_descent_equals_naive_scan_hypothesis(instance):
    poly, params = instance
    assert root_enum(poly, params).candidates == naive_grid_scan(poly, params)


@st.composite
def integer_instances(draw):
    """A polynomial of degree 1..6 with integer coefficients in [-9, 9] and
    a nonzero leading one, gamma 2^-r or 1/64, and a grid of at most 2^11
    cells. Its roots are mostly irrational and need not be separated."""
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    poly = Polynomial(coeffs + [draw(st.integers(-9, 9).filter(bool))])
    r = draw(st.integers(2, 10))
    assume(r + 1 + max(0, ceil_log2(cauchy_bound(poly))) <= 11)  # r' <= 11
    gamma = draw(st.sampled_from([Fraction(1, 2**r), Fraction(1, 64)]))
    return poly, PrecisionParams(r=r, gamma=gamma)


@settings(max_examples=60, deadline=None)
@given(integer_instances())
def test_pruned_descent_equals_naive_scan_on_integer_polynomials(instance):
    poly, params = instance
    assert root_enum(poly, params).candidates == naive_grid_scan(poly, params)


def test_pruned_descent_equals_naive_scan_small_gamma_interactions():
    # gamma large enough to leave many grid values untrusted
    poly = Polynomial([0, -1, 0, 1])  # roots -1, 0, 1
    params = PrecisionParams(r=3, gamma=Fraction(1, 4))
    assert root_enum(poly, params).candidates == naive_grid_scan(poly, params)


def test_deep_descent_needs_no_recursion():
    # Cauchy exponent ~1000: unit cells lie ~1010 halvings below the whole
    # grid, deeper than the interpreter's default recursion limit.
    root, h = Fraction(1 << 500), Fraction(1, 512)
    result = root_enum(
        Polynomial([-(1 << 1000), 0, 1]), PrecisionParams(r=8, gamma=Fraction(1, 2**16))
    )
    assert result.r_prime == 1010
    assert result.candidates == (-root - h, -root + h, root - h, root + h)


# --- range certification: inherited forms against a from-scratch reference ---


def _horner(coeffs, m):
    v = 0
    for h in coeffs:
        v = v * m + h
    return v


def _direct_form(horner, m0, m1):
    """Centred form of V over [m0, m1] from scratch: synthetic division to
    the centre (m0 for a unit cell), Taylor coefficient j times hw^j."""
    k = len(horner) - 1
    mid = (m0 + m1) // 2
    hw = max(mid - m0, m1 - mid)
    b = list(horner)
    for i in range(k):
        for j in range(1, k - i + 1):
            b[j] += b[j - 1] * mid
    return [b[k - j] * hw**j for j in range(k + 1)], _horner(horner, m0), _horner(horner, m1)


def _reference_certified_off(horner, rhs, g_den, m0, m1):
    """Plain interval Horner, then the centred form rebuilt from scratch."""
    lo = hi = horner[0]
    for h in horner[1:]:
        ends = (lo * m0, lo * m1, hi * m0, hi * m1)
        lo, hi = min(ends) + h, max(ends) + h
    if lo * g_den >= rhs or hi * g_den <= -rhs:
        return True
    if len(horner) < 3:
        return False
    a = _direct_form(horner, m0, m1)[0]
    return (abs(a[0]) - sum(abs(x) for x in a[1:])) * g_den >= rhs


def test_inherited_forms_match_direct_shift_and_reference():
    """Walk from the whole grid down to a unit cell (toward a fired cell or
    a random one). certified_off, given the whole grid's form and, at every
    step, both halves' pending forms, with their level's limit, returns the
    reference's bool; each form then settles to the direct shift over its
    power of two, with its centre value c0 its a_0 and its bound at least its
    sum |a_j|. Where certified_small holds on a range
    of width >= 2, every grid point of it evaluates strictly inside (0,
    gamma) or (-gamma, 0), with one sign for all of them."""
    local = random.Random(0xF0E)
    outcomes, shifted, smalls = set(), set(), set()
    for _ in range(60):
        deg = local.randint(1, 8)
        coeffs = [local.randint(-9, 9) for _ in range(deg)] + [local.choice([-3, -1, 1, 2])]
        poly = Polynomial(coeffs)
        r = local.randint(2, 6)
        gamma = local.choice([Fraction(1, 2 ** (deg * r)), Fraction(1, 2**r), Fraction(1, 64)])
        chain = sturm_chain(poly)
        scaled = rootenum._ScaledChain(chain, r, gamma)
        half = 1 << (max(0, ceil_log2(cauchy_bound(poly))) + r)
        levels = scaled.levels(half.bit_length() - 1)
        fired = root_enum(poly, PrecisionParams(r=r, gamma=gamma)).candidates
        for idx, p in enumerate(chain):
            den = math.lcm(*(c.denominator for c in p.coeffs))
            k = p.degree
            horner = [int(c * den) << (r * (k - j)) for j, c in enumerate(p.coeffs)][::-1]
            rhs = gamma.numerator * den << (r * k)
            if fired and local.random() < 0.5:
                target = math.floor(local.choice(fired) * (1 << r))
            else:
                target = local.randrange(-half, half)
            ranges = [((-half, half), scaled.root_form(idx, half))]
            while True:
                for (c0, c1), form in ranges:
                    h = max((c1 - c0).bit_length() - 2, 0)
                    lim, s = levels[h][1][idx], k * min(h, r)
                    pending = form[3] != 0
                    expected = _reference_certified_off(horner, rhs, gamma.denominator, c0, c1)
                    assert scaled.certified_off(idx, c0, c1, form, lim) is expected
                    outcomes.add(expected)
                    if pending:  # did certified_off shift it, and what did it return
                        shifted.add((form[3] == 0, expected))
                    if c1 - c0 >= 2 and scaled.certified_small(form, lim):
                        values = [_horner(horner, m) for m in range(c0, c1 + 1)]
                        signs = {(v > 0) - (v < 0) for v in values}
                        assert len(signs) == 1 and 0 not in signs
                        assert all(abs(v) * gamma.denominator < rhs for v in values)
                        smalls.add(gamma in (Fraction(1, 2**r), Fraction(1, 64)))
                    a = rootenum._settle(form)
                    assert ([x << s for x in a], form[1] << s, form[2] << s) == _direct_form(
                        horner, c0, c1)
                    assert form[4] == a[0]
                    assert form[5] >= sum(abs(x) for x in a)
                    if c0 <= target < c1:
                        m0, m1, walked = c0, c1, form
                if m1 - m0 == 1:
                    break
                mid = (m0 + m1) // 2
                split = rootenum._split_kernel(len(walked[0]))
                step = levels[(m1 - m0).bit_length() - 2][0]
                ranges = zip(((m0, mid), (mid, m1)), split(walked, step))
    assert outcomes == {True, False}
    assert shifted == {(False, True), (False, False), (True, True), (True, False)}
    assert True in smalls  # certified_small held at gamma 2^-r or 1/64


def test_plain_interval_horner_on_both_sides_of_zero():
    """Where the exact values pass and the centred form leaves the test open,
    certified_off's answer is the plain interval Horner pass's. It runs on
    V's one row on ranges with m0 >= 0 (an end at 0 included) and, with the
    corners reflected, on ranges with m1 <= 0; gamma is drawn so that lim
    falls in the window the centred form leaves open, and the form and lim
    are passed undivided. A range holding 0 inside is drawn symmetric, as
    the whole grid is, and lim on both sides of its centred bound |a_0| -
    sum_{j>=1} |a_j|. Each side must give the four-product reference's bool,
    and each must give both bools."""
    local = random.Random(0x2B0)
    outcomes = {side: set() for side in ("m0 >= 0", "m1 <= 0", "m0 < 0 < m1")}
    ends_at_zero = set()
    for _ in range(2000):
        deg = local.randint(1, 5)
        coeffs = [local.randint(-9, 9) for _ in range(deg)] + [local.choice([-2, -1, 1, 3])]
        r = local.randint(1, 3)
        horner = rootenum._ScaledChain([Polynomial(coeffs)], r, Fraction(1)).polys[0][0]
        near, width = local.randint(0, 60), local.randint(1, 60)
        side = local.choice(list(outcomes))
        m0, m1 = {"m0 >= 0": (near, near + width), "m1 <= 0": (-near - width, -near),
                  "m0 < 0 < m1": (-width, width)}[side]
        a, v0, v1 = _direct_form(horner, m0, m1)
        centred = 2 * abs(a[0]) - sum(map(abs, a))
        if side == "m0 < 0 < m1":
            if centred < 1:
                continue  # no lim >= 1 certifies
            lim = local.choice((centred, centred + 1, local.randint(1, 2 * centred)))
        else:
            if not (v0 > 0 < v1 or v0 < 0 > v1) or abs(a[0]) <= max(centred, 0):
                continue  # the exact values decide at every lim
            low, high = max(centred, 0) + 1, abs(a[0])
            lim = local.choice((low, high, local.randint(low, high)))
        gamma = Fraction(lim, 1 << (r * deg))
        scaled = rootenum._ScaledChain([Polynomial(coeffs)], r, gamma)
        form = [a, v0, v1, 0, a[0], sum(map(abs, a))]
        rhs = gamma.numerator << (r * deg)
        expected = _reference_certified_off(horner, rhs, gamma.denominator, m0, m1)
        assert scaled.certified_off(0, m0, m1, form, scaled.polys[0][1]) is expected
        outcomes[side].add(expected)
        ends_at_zero.update(end for end, m in (("m0 == 0", m0), ("m1 == 0", m1)) if m == 0)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes
    assert ends_at_zero == {"m0 == 0", "m1 == 0"}


def test_only_the_whole_grid_holds_zero_inside(monkeypatch):
    """certified_off returns False on a range holding 0 inside before any
    interval Horner pass. That prunes nothing the pass would: the descent
    hands it no such range but the whole grid (-half, half), where the pass
    is step 2's exact test on the settled root form."""
    seen = []
    original = rootenum._ScaledChain.certified_off

    def spy(self, idx, m0, m1, form, lim):
        seen.append((m0, m1))
        return original(self, idx, m0, m1, form, lim)

    monkeypatch.setattr(rootenum._ScaledChain, "certified_off", spy)
    wilkinson10 = functools.reduce(lambda p, k: p * Polynomial([-k, 1]), range(1, 11),
                                   Polynomial([1]))
    cases = [
        (Polynomial([-1, 3]), 4, Fraction(1, 16)),
        (Polynomial([-2, 0, 1]), 6, Fraction(1, 64)),
        (Polynomial([0, -1, 0, 1]), 5, Fraction(1, 2**15)),
        (Polynomial([1, 0, 1]), 3, Fraction(1, 8)),
        (wilkinson10, 3, Fraction(1, 2**30)),
    ]
    for poly, r, gamma in cases:
        seen.clear()
        grid = root_enum(poly, PrecisionParams(r=r, gamma=gamma))
        half = grid.grid_bound << r
        assert (-half, half) in seen
        assert all(m0 >= 0 or m1 <= 0 for m0, m1 in seen if (m0, m1) != (-half, half))
        assert any(m0 == 0 for m0, _ in seen) and any(m1 == 0 for _, m1 in seen)


def test_taylor_shift_matches_binomial_definition():
    """_taylor_shift(c, t) is sum_j c_j (u + t)^j for t = +-1, over lengths
    1..25, 40 and 65, on both sides of the kernel cap, and signed
    coefficients of up to 2,000 bits, zeros included, and leaves c as it was."""
    local = random.Random(0x7A1)
    assert rootenum._KERNEL_CAP == 24
    for n in (*range(1, 26), 40, 65):
        for t in (1, -1):
            for _ in range(4):
                c = [local.choice([0, 1, -1]) * local.getrandbits(local.randint(1, 2000))
                     for _ in range(n)]
                before = list(c)
                expected = [sum(c[j] * math.comb(j, i) * t ** (j - i) for j in range(i, n))
                            for i in range(n)]
                assert rootenum._taylor_shift(c, t) == expected
                assert c == before


def test_taylor_shift_above_the_cap_generates_no_kernel():
    """Above the cap each sign's shift is the loop, not straight-line code:
    its bytecode has one size at every length, below that of the cap's."""
    def size(n, t):
        return len(rootenum._shifts(n)[t].__code__.co_code)

    cap = rootenum._KERNEL_CAP
    for t in (1, -1):
        assert size(cap + 1, t) == size(65, t) < size(cap, t)


def _reference_child_forms(form, width):
    """The split as a loop over the settled list: the reference for its kernel."""
    a, v0, v1 = rootenum._settle(form), form[1], form[2]
    if width > 2:
        bound, a = sum(map(abs, a)), [x >> j for j, x in enumerate(a)]
    else:
        bound = sum(abs(x) << j for j, x in enumerate(a))
    even, odd = sum(a[::2]), sum(a[1::2])
    right = [a, a[0], v1, 1, even + odd, bound] if width > 2 else [a, a[0], v1, 0, a[0], bound]
    return [a, v0, a[0], -1, even - odd, bound], right


def test_child_forms_match_the_list_code():
    """The split kernel gives the list code's two forms over lengths 1..25,
    40, 65 and 300, widths 2, 4 and 8, pending t in {-1, 0, +1} and signed
    coefficients of up to 2,000 bits, zeros included, a_j divisible by 2^j at
    width > 2. The parent's list is left as it was, its form is settled as the
    list code settles it, and both halves share one list."""
    local = random.Random(0x5B1)
    for n in (*range(1, 26), 40, 65, 300):
        for width in (2, 4, 8):
            for t in (-1, 0, 1):
                c = [local.choice([0, 1, -1]) * local.getrandbits(local.randint(1, 2000)) << j
                     for j in range(n)]
                v0, v1 = local.getrandbits(64) - (1 << 63), local.getrandbits(64) - (1 << 63)
                form, expected_form = [c, v0, v1, t, 0, 0], [list(c), v0, v1, t, 0, 0]
                before = list(c)
                left, right = rootenum._split_kernel(n)(form, width > 2)
                assert [left, right] == list(_reference_child_forms(expected_form, width))
                assert form == expected_form and c == before
                assert left[0] is right[0]


def test_stored_forms_are_the_undivided_forms_over_their_power_of_two():
    """Walk from the whole grid down to a unit cell, splitting the stored form
    with its level's kernel step and, alongside, the undivided form with the
    list code. At every level h the stored form times 2^(k*min(h, r)), pending
    and settled, is the undivided one, t included; the walks take all three
    steps: above level r, at levels 1..r and at width 2."""
    local = random.Random(0x5CA1E)
    steps = set()
    for _ in range(40):
        deg = local.randint(1, 7)
        coeffs = [local.randint(-40, 40) for _ in range(deg)] + [local.choice([-3, -1, 1, 2])]
        poly = Polynomial(coeffs)
        r = local.randint(1, 6)
        scaled = rootenum._ScaledChain(sturm_chain(poly), r, Fraction(1, 2 ** (deg * r)))
        top = max(0, ceil_log2(cauchy_bound(poly))) + r
        half, levels = 1 << top, scaled.levels(top)
        for idx, (horner, _) in enumerate(scaled.polys):
            k = len(horner) - 1
            a, v0, v1 = _direct_form(horner, -half, half)
            form, undivided = scaled.root_form(idx, half), [a, v0, v1, 0, a[0], sum(map(abs, a))]
            m0, m1, h = -half, half, top
            while True:
                s = k * min(h, r)
                for _ in "pending", "settled":
                    a, v0, v1, t, c0, bound = form
                    assert [[x << s for x in a], v0 << s, v1 << s, t, c0 << s,
                            bound << s] == undivided
                    rootenum._settle(form), rootenum._settle(undivided)
                if m1 - m0 == 1:
                    break
                step = levels[h][0]
                steps.add(step)
                side = local.randrange(2)
                form = rootenum._split_kernel(k + 1)(form, step)[side]
                undivided = _reference_child_forms(undivided, m1 - m0)[side]
                mid = (m0 + m1) // 2
                (m0, m1), h = ((m0, mid), (mid, m1))[side], max(h - 1, 0)
    assert steps == {0, 1, 2}


@pytest.mark.parametrize("r", [8, 64])
def test_scaled_rows_match_the_fraction_formula(chain_inputs, r):
    """_ScaledChain's integer rows and per-level limits are those of the
    Fraction formula: C_j = c_j * den with den the least common
    denominator, lim = ceil(g_num * den * 2^(rk) / g_den), and level h's
    limit ceil(lim / 2^(k*h)), on conftest's chain_inputs."""
    for poly in chain_inputs:
        chain = sturm_chain(poly)
        for gamma in Fraction(1, 2 ** (poly.degree * r)), Fraction(22, 7):
            scaled = rootenum._ScaledChain(chain, r, gamma)
            polys = []
            for p in chain:
                den = math.lcm(*(c.denominator for c in p.coeffs))
                k = p.degree
                row = [int(c * den) << (r * (k - i)) for i, c in enumerate(p.coeffs)][::-1]
                lim = math.ceil(gamma.numerator * den * Fraction(2 ** (r * k), gamma.denominator))
                polys.append((row, lim))
            assert scaled.polys == polys
            assert scaled.lims == [[math.ceil(Fraction(lim, 2 ** ((len(row) - 1) * h)))
                                    for row, lim in polys] for h in range(r + 1)]


# sha256 of the candidates' "num/den" strings, joined by spaces, as recorded
# before the forms were stored divided by their power of two.
WILKINSON_10_HIGH_R = {
    128: "3d011a7927e61c54a5b24148f90fd9014943dd99adea033a547c2607771e1e94",
    256: "bd37d377ea9791949f232c0eac8b2d553060d3fce70840c6dea45e3ae9b61a8e",
    512: "fdd0002ce60d1da6cb953618ff63bffee8012072e6106dbd552c614b62b1546a",
}


@pytest.mark.parametrize("r", WILKINSON_10_HIGH_R)
def test_wilkinson_10_at_high_precision(r):
    """At gamma = 2^-(10r) the forms shed the most bits, up to 10r a level:
    the candidates are the recorded tuple, and each root lies within 2^-r
    of one."""
    wilkinson10 = functools.reduce(lambda p, k: p * Polynomial([-k, 1]), range(1, 11),
                                   Polynomial([1]))
    result = root_enum(wilkinson10, PrecisionParams(r=r, gamma=Fraction(1, 2 ** (10 * r))))
    digest = hashlib.sha256(" ".join(map(str, result.candidates)).encode()).hexdigest()
    assert digest == WILKINSON_10_HIGH_R[r]
    assert all(min(abs(q - k) for q in result.candidates) <= Fraction(1, 2**r)
               for k in range(1, 11))


def test_split_kernels_are_generated_lazily(run_limited):
    """Importing rootenum generates no kernel, so neither set-up nor a CLI
    child pays for lengths it never splits; one split of a pending form of
    length n generates the split and shift kernels of length n alone."""
    code = (
        "from certiroot import rootenum\n"
        "split, shifts = rootenum._split_kernel, rootenum._shifts\n"
        "assert split.cache_info().currsize == shifts.cache_info().currsize == 0\n"
        "split(7)([[4, 6, 8, 16, 32, 64, 128], 1, 2, 1, 0, 0], True)\n"
        "assert split.cache_info().currsize == shifts.cache_info().currsize == 1\n"
        "split(7), shifts(7)\n"
        "assert split.cache_info().hits == shifts.cache_info().hits == 1\n"
    )
    proc = run_limited(code)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_certified_small_needs_both_halves_of_its_test():
    """P = 100 + 40x - 40x^3 over [-1, 1] (r = 2, so u = x): P is 100 at
    both ends and the centre, but 115 at x = 1/2, and 10 + P - 100 is -5 at
    x = -1/2. Each of |c0| - S1 > 0 and |c0| + S1 < lim rejects one."""
    def small(coeffs, gamma, child=None):
        scaled = rootenum._ScaledChain([Polynomial(coeffs)], 2, Fraction(gamma))
        step, lims, halves = scaled.levels(2)[2]  # the whole grid [-4, 4] is level 2
        form = scaled.root_form(0, 4)
        if child is not None:
            form, lims = rootenum._split_kernel(4)(form, step)[child], halves
        return scaled.certified_small(form, lims[0]), form[3]

    assert small([100, 40, 0, -40], 110) == (False, 0)  # 115 >= gamma inside
    assert small([10, 40, 0, -40], 100) == (False, 0)  # -5 inside
    assert small([100, 40, 0, -40], 200) == (True, 0)
    assert small([100, 40, 0, -40], 200, child=0) == (True, 0)  # settled to decide
    assert small([100, 40, 0, -40], 200, child=1) == (True, 1)  # its bound decides


def test_split_kernels_are_looked_up_once_per_chain_element(monkeypatch):
    """root_enum resolves each chain element's split kernel once per call, by
    the element's coefficient count, and not once per split."""
    lookups, splits = [], []
    generate = rootenum._split_kernel

    def lookup(n):
        lookups.append(n)
        kernel = generate(n)
        return lambda *args: splits.append(n) or kernel(*args)

    monkeypatch.setattr(rootenum, "_split_kernel", lookup)
    wilkinson10 = functools.reduce(lambda p, k: p * Polynomial([-k, 1]), range(1, 11),
                                   Polynomial([1]))
    root_enum(wilkinson10, PrecisionParams(r=32, gamma=Fraction(1, 2**320)))
    assert lookups == [p.degree + 1 for p in sturm_chain(wilkinson10)]
    assert len(splits) > 100 * len(lookups)


def test_constant_chain_element_below_gamma_fires_every_cell(monkeypatch):
    """The chain of 2x^3 - 7x^2 - 8x - 2 ends in the constant 108/9409, below
    gamma = 1/64, so every grid point has an untrusted entry and every cell
    fires, as in the literal scan. Ranges with one class vector are decided
    whole: far fewer points are classified than cells fire."""
    poly = Polynomial([-2, -8, -7, 2])
    assert sturm_chain(poly)[-1] == Polynomial([Fraction(108, 9409)])
    classify = rootenum._ScaledChain.classify
    for r in (3, 4, 5):
        points = []
        monkeypatch.setattr(rootenum._ScaledChain, "classify",
                            lambda self, m, *known: points.append(m) or classify(self, m, *known))
        params = PrecisionParams(r=r, gamma=Fraction(1, 64))
        result = root_enum(poly, params)
        assert len(result.candidates) == 1 << result.r_prime
        assert result.candidates == naive_grid_scan(poly, params)
        assert len(points) * 4 < len(result.candidates)


def _planted_floor_calls(seed, count):
    """count planted polynomials (roots on the 1/8 lattice of (-10, 10),
    multiplicity <= 3, total degree <= 6, an optional irreducible quadratic)
    at r in {8, 16, 32}, each at its certified floor."""
    local = random.Random(seed)
    for _ in range(count):
        quad = local.random() < 0.25
        budget = 6 - 2 * quad
        k = local.randint(1, min(4, budget))
        mults = []
        for j in range(k):
            mults.append(local.randint(1, min(3, budget - sum(mults) - (k - 1 - j))))
        nums = local.sample(range(-79, 80), k)
        p = Fraction(local.randint(-6, 6))
        planted = plant(PlantedSpec(
            real_roots=tuple((Fraction(v, 8), m) for v, m in zip(nums, mults)),
            irreducible_quadratics=((p, Fraction(int(p * p / 4) + local.randint(1, 3))),) * quad,
            leading=Fraction(local.choice([1, -1, 2, -2])),
        ))
        poly = planted.polynomial
        for r in (8, 16, 32):
            yield poly, r, small_value_threshold(
                poly, planted.delta_min or 1, ApproxContext(r=r, d=poly.degree),
                planted.factor_floor)


def test_carried_classes_equal_exact_classes(monkeypatch):
    """root_enum classifies each leaf cell's ends and each uniform range from
    what the descent carries: the forms' exact values for undecided elements
    and each range's classes of the elements certified off. Every class
    vector it gets equals the one that the public exact path gives at the
    same point, the chain evaluated in Fractions and classified against
    gamma: on Wilkinson d=20, on the cubic that fires every cell (most of its
    points classify uniform ranges), on x^2 - 2 at a coarse gamma (some
    uniform ranges too), on a degree-7 input where an element goes off on
    right halves with both signs, one inside the other's left sibling (a
    right half writing into its parent's list fails there), and on planted
    polynomials at the floor. Each is compared after root_enum returns, so a
    vector written after classify returned it fails too."""
    seen = []
    classify = rootenum._ScaledChain.classify

    def spy(self, m, *known):
        classes = classify(self, m, *known)
        seen.append((m, classes))
        return classes

    monkeypatch.setattr(rootenum._ScaledChain, "classify", spy)
    wilkinson20 = functools.reduce(lambda p, k: p * Polynomial([-k, 1]), range(1, 21),
                                   Polynomial([1]))
    calls = [
        *((wilkinson20, r, Fraction(1, 2 ** (20 * r))) for r in (32, 64)),
        *((Polynomial([-2, -8, -7, 2]), r, Fraction(1, 64)) for r in (3, 4, 5)),
        (X2_MINUS_2, 10, Fraction(1, 64)),
        (Polynomial([0, 11, 10, -12, -5, 8, 3, 2]), 4, Fraction(1, 4)),
        *_planted_floor_calls(0xC1A5, 50),
    ]
    checked = 0
    for poly, r, gamma in calls:
        seen.clear()
        root_enum(poly, PrecisionParams(r=r, gamma=gamma))
        chain = sturm_chain(poly)
        assert seen, (poly, r)
        for m, classes in seen:
            assert classes == entry_classes(sturm_eval(chain, Fraction(m, 1 << r)), gamma), (
                poly, r, gamma, m)
        checked += len(seen)
    assert checked > 2000


def test_taylor_shift_count_on_wilkinson_20(monkeypatch):
    """A half is shifted only when it descends, or when its centre value and
    its two bounds on sum |a_j| leave the centred-form test open. Shifting
    both halves of every undecided element took 34,792 shifts here. Split
    kernels are generated afresh, so that the shifts they make count too."""
    shifts = []

    def counted(shift):
        return lambda c: shifts.append(1) or shift(c)

    generate = rootenum._shifts.__wrapped__
    monkeypatch.setattr(rootenum, "_shifts",
                        functools.cache(lambda n: (None, *map(counted, generate(n)[1:]))))
    poly = Polynomial([1])
    for k in range(1, 21):
        poly = poly * Polynomial([-k, 1])
    rootenum._split_kernel.cache_clear()
    try:
        result = root_enum(poly, PrecisionParams(r=64, gamma=Fraction(1, 2**1280)))
    finally:
        rootenum._split_kernel.cache_clear()  # its kernels hold the counted shifts
    h = Fraction(1, 2**65)  # each root is a grid point: both flanking cells fire
    assert result.candidates == tuple(k + s * h for k in range(1, 21) for s in (-1, 1))
    assert len(shifts) == 18_106


# --- output invariants ------------------------------------------------------


def test_candidates_sorted_dyadic_and_deterministic(monkeypatch):
    """Every candidate is a plain Fraction (2m+1)/2^(r+1) in lowest terms,
    equal in value and hash to the one Fraction's own constructor builds.

    At gamma = 2^-14 no range is decided whole, so each candidate is a unit
    cell's; 1/64 and 2^-r may decide ranges whole, and x^2 - 2 at 1/64, r = 10
    and the every-cell constant-element input do: more cells fire there than
    half the classify calls, which no descent of unit cells alone can give."""
    cases = []
    for _ in range(10):
        deg = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(deg)] + [Fraction(1)]
        poly = Polynomial(coeffs)
        cases += [(poly, PrecisionParams(r=5, gamma=g), False)
                  for g in (Fraction(1, 2**14), Fraction(1, 64), Fraction(1, 2**5))]
    cases += [(X2_MINUS_2, PrecisionParams(r=10, gamma=Fraction(1, 64)), True),
              (Polynomial([-2, -8, -7, 2]), PrecisionParams(r=4, gamma=Fraction(1, 64)), True)]
    classify, calls = rootenum._ScaledChain.classify, []
    monkeypatch.setattr(rootenum._ScaledChain, "classify",
                        lambda self, *known: calls.append(1) or classify(self, *known))
    for poly, params, whole in cases:
        calls.clear()
        first = root_enum(poly, params)
        if whole:
            assert 2 * len(first.candidates) > len(calls)
        second = root_enum(poly, params)
        assert first.candidates == second.candidates
        assert list(first.candidates) == sorted(set(first.candidates))
        for q in first.candidates:
            assert type(q) is Fraction
            assert q.denominator == 2 ** (params.r + 1)
            assert q.numerator % 2 != 0
            assert math.gcd(q.numerator, q.denominator) == 1
            built = Fraction(q.numerator, q.denominator)
            assert q == built and hash(q) == hash(built)


@pytest.mark.parametrize("den", [2, 1 << 17, 1 << 1025])
@pytest.mark.parametrize("n", [1, -1, 3, -3, (1 << 200) + 1, -(1 << 200) - 1])
def test_dyadic_is_the_fraction_it_stands_for(n, den):
    """The candidates' builder, polyalg's _from_coprime_ints, sets Fraction's
    slots directly; on an odd n over a power of two it must build the same
    value Fraction(n, den) does on every supported Python, or fail loudly."""
    q, want = _from_coprime_ints(n, den), Fraction(n, den)
    assert type(q) is Fraction
    assert q == want and hash(q) == hash(want)
    assert repr(q) == repr(want) and str(q) == str(want)
    assert (q.numerator, q.denominator) == (want.numerator, want.denominator) == (n, den)
    for copied in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q)):
        assert type(copied) is Fraction and copied == want and hash(copied) == hash(want)
    assert q + q == 2 * want and q * q == want * want and q - want == 0
    assert q / 3 == want / 3 and -q == -want and abs(q) == abs(want)
    assert q < want + Fraction(1, den) and float(q) == float(want)


def test_length_bound_metadata():
    result = root_enum(X2_MINUS_2, PrecisionParams(r=6, gamma=Fraction(1, 2**12)))
    assert result.length_bound == 6 * 2 * 2
    result3 = root_enum(
        Polynomial([0, -1, 0, 1]), PrecisionParams(r=6, gamma=Fraction(1, 2**12))
    )
    assert result3.length_bound == 54


# --- completeness and soundness on planted instances ------------------------


def planted_battery(r_, count, max_deg=4):
    """Squarefree lattice-root instances with wide separation."""
    out = []
    for _ in range(count):
        deg = r_.randint(1, max_deg)
        roots = set()
        while len(roots) < deg:
            roots.add(Fraction(r_.randint(-12, 12), 2))
        spec = PlantedSpec(
            real_roots=tuple((rho, 1) for rho in sorted(roots)),
            leading=Fraction(r_.choice([-2, -1, 1, 2])),
        )
        out.append(plant(spec))
    return out


def test_completeness_on_planted_roots():
    """Every planted root has a candidate within 2^-r, at two precisions."""
    for planted in planted_battery(random.Random(11), 12):
        poly = planted.polynomial
        gamma = Fraction(1, 2 ** (poly.degree * 8 + 4))
        for r in (4, 6):
            result = root_enum(poly, PrecisionParams(r=r, gamma=gamma))
            assert len(result.candidates) <= result.length_bound
            for rho, _ in planted.spec.real_roots:
                assert covers(result.candidates, rho, Fraction(1, 2**r)), (
                    poly,
                    r,
                    rho,
                    result.candidates,
                )


def test_soundness_when_gamma_below_grid_minimum():
    """With gamma below every nonzero |chain value| on the grid, every
    candidate is within 2^-r of a true root (no spurious cells)."""
    for planted in planted_battery(random.Random(12), 8, max_deg=3):
        poly = planted.polynomial
        r = 4
        chain = sturm_chain(poly)
        e = max(0, ceil_log2(cauchy_bound(poly)))
        half = 1 << (e + r)
        floor = None
        for m in range(-half, half + 1):
            for v in sturm_eval(chain, Fraction(m, 1 << r)):
                if v != 0 and (floor is None or abs(v) < floor):
                    floor = abs(v)
        gamma = floor / 2
        result = root_enum(poly, PrecisionParams(r=r, gamma=gamma))
        roots = [rho for rho, _ in planted.spec.real_roots]
        for q in result.candidates:
            assert min(abs(q - rho) for rho in roots) <= Fraction(1, 2**r), (
                poly,
                q,
            )
        # and the same list must agree with the naive scan
        assert result.candidates == naive_grid_scan(
            poly, PrecisionParams(r=r, gamma=gamma)
        )


def test_repeated_roots_still_covered():
    planted = plant(
        PlantedSpec(real_roots=((Fraction(-1, 2), 2), (Fraction(3, 2), 1)))
    )
    poly = planted.polynomial
    result = root_enum(poly, PrecisionParams(r=6, gamma=Fraction(1, 2**30)))
    for rho, _ in planted.spec.real_roots:
        assert covers(result.candidates, rho, Fraction(1, 64))
    assert len(result.candidates) <= result.length_bound


def test_refinement_keeps_covering():
    planted = plant(
        PlantedSpec(real_roots=((Fraction(-2), 1), (Fraction(1, 4), 1)))
    )
    poly = planted.polynomial
    for r in (3, 4, 5, 6, 7):
        result = root_enum(poly, PrecisionParams(r=r, gamma=Fraction(1, 2**24)))
        for rho, _ in planted.spec.real_roots:
            assert covers(result.candidates, rho, Fraction(1, 2**r))


# --- completeness against sympy's exact isolating intervals ----------------
#
# Completeness holds for every gamma > 0, so each family runs at the floor's
# scale 2^(-d*r) and at 2^-r. At 2^-r the Sturm chains of the Mignotte and
# cluster families mostly end in a constant below gamma, and then every cell
# of the grid fires (the open "finite answers above the floor" item in
# ROADMAP.md); those runs keep r small enough that the whole grid stays
# within 2^15 cells.


def sympy_root_intervals(poly, r):
    """Isolating intervals [a, b] of the real roots of poly, computed and
    refined to width <= 2^-(r+1) by sympy, independently of this package."""
    sympy = pytest.importorskip("sympy")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly.coeffs)]
    eps = sympy.Rational(1, 2 ** (r + 1))
    return [
        (Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
        for (a, b), _ in sympy.Poly(coeffs, sympy.Symbol("x")).intervals(eps=eps)
    ]


def assert_complete(poly, r, gamma):
    """Each root interval [a, b] has a candidate q with b - 2^-r <= q <= a + 2^-r,
    so q is within 2^-r of the root wherever in [a, b] it lies."""
    candidates = root_enum(poly, PrecisionParams(r=r, gamma=gamma)).candidates
    h = Fraction(1, 2**r)
    for a, b in sympy_root_intervals(poly, r):
        assert b - a <= h / 2
        i = bisect_left(candidates, b - h)
        assert i < len(candidates) and candidates[i] <= a + h, (poly, r, gamma, a, b)


def test_completeness_against_sympy_random_integer():
    """Random integer polynomials of degree 8..12 at r = 16."""
    local = random.Random(0x5E1F)
    for _ in range(10):
        deg = local.randint(8, 12)
        poly = Polynomial([local.randint(-9, 9) for _ in range(deg)]
                          + [local.choice([-3, -1, 1, 2])])
        for gamma in (Fraction(1, 2 ** (deg * 16)), Fraction(1, 2**16)):
            assert_complete(poly, 16, gamma)


def test_completeness_against_sympy_mignotte():
    """x^d - 2(ax - 1)^2, whose two roots near 1/a are about 2a^(-(d+2)/2)
    apart (2^-15 at d = 10, a = 5): r = 16 separates them."""
    for d in range(3, 11):
        for a in (2, 3, 5):
            poly = Polynomial([0] * d + [1]) - (Polynomial([-1, a]) * Polynomial([-1, a])).scale(2)
            assert_complete(poly, 16, Fraction(1, 2 ** (d * 16)))
            assert_complete(poly, 6, Fraction(1, 2**6))


def test_completeness_against_sympy_clusters():
    """Two to four simple roots 2^-10 apart around a point of the 1/8 lattice."""
    local = random.Random(0xC1)
    for _ in range(4):
        c = Fraction(local.randint(-8, 8), 8)
        spec = PlantedSpec(
            real_roots=tuple((c + Fraction(j, 1024), 1) for j in range(local.randint(2, 4))),
            leading=Fraction(local.choice([1, -1, 2])),
        )
        poly = plant(spec).polynomial
        assert_complete(poly, 14, Fraction(1, 2 ** (poly.degree * 14)))
        assert_complete(poly, 11, Fraction(1, 2**11))


def test_completeness_against_sympy_multiplicities():
    """A root of each multiplicity 1..6 beside a second root of multiplicity 1 or 2."""
    local = random.Random(0x6)
    for m in range(1, 7):
        a = Fraction(local.randint(-8, 8), 4)
        spec = PlantedSpec(real_roots=((a, m), (a + Fraction(local.randint(1, 6), 4),
                                                local.randint(1, 2))))
        poly = plant(spec).polynomial
        assert_complete(poly, 16, Fraction(1, 2 ** (poly.degree * 16)))
        assert_complete(poly, 10, Fraction(1, 2**10))


# --- intersect --------------------------------------------------------------


def test_intersect_frozen_linear():
    result = intersect(
        Polynomial([0, 0, 1]),
        Polynomial([-1, 1, 1]),
        PrecisionParams(r=8, gamma=Fraction(1, 1024)),
    )
    assert result.candidates == (Fraction(511, 512), Fraction(513, 512))
    assert all(abs(q - 1) <= Fraction(1, 256) for q in result.candidates)


def test_intersect_constant_difference_is_empty():
    a = Polynomial([5, 1, 1])
    b = Polynomial([0, 1, 1])
    result = intersect(a, b, PrecisionParams(r=8, gamma=Fraction(1, 1024)))
    assert result.candidates == ()
    assert result.length_bound == 0
    assert result.beta is None
    assert result.grid_bound is None
    assert result.r_prime is None


def test_intersect_cubic_vs_line():
    result = intersect(
        Polynomial([0, 0, 0, 1]),
        Polynomial([0, 1]),
        PrecisionParams(r=8, gamma=Fraction(1, 2**20)),
    )
    for target in (-1, 0, 1):
        assert covers(result.candidates, Fraction(target), Fraction(1, 256))
    assert len(result.candidates) <= 6 * 9


def test_intersect_identical_rejected():
    a = Polynomial([1, 2, 3])
    with pytest.raises(IdenticalPolynomials):
        intersect(a, Polynomial(["1", "2", "3"]), PrecisionParams(r=4, gamma=Fraction(1, 16)))


def test_intersect_untrusted_difference_degree():
    a = Polynomial([0, 1, Fraction(1, 2**20)])
    b = Polynomial([0, 1])
    with pytest.raises(DegreeUnresolved):
        intersect(a, b, PrecisionParams(r=4, gamma=Fraction(1, 2**12)))


def test_intersect_matches_root_enum_of_difference():
    for _ in range(10):
        deg = rng.randint(1, 3)
        a = Polynomial([Fraction(rng.randint(-3, 3)) for _ in range(deg)] + [Fraction(1)])
        b = Polynomial([Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))])
        diff = a - b
        if diff.is_zero() or diff.degree < 1:
            continue
        params = PrecisionParams(r=4, gamma=Fraction(1, 2**12))
        assert intersect(a, b, params).candidates == root_enum(diff, params).candidates
