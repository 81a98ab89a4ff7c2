"""Dyadic-grid root enumeration and the intersection solver.

The oracle here is a literal, unoptimized scan of every grid cell using the
public Sturm and sign-change APIs. The library's pruned descent must produce
the *identical* candidate tuple — pruning is an optimization with no
licensed change in observable behavior.
"""

import functools
import math
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
    step, both halves' pending forms, returns the reference's bool; each form
    then settles to the direct shift, with its centre value c0 its a_0 and
    its bound at least its sum |a_j|. Where certified_small holds on a range
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
                    pending = form[3] != 0
                    expected = _reference_certified_off(horner, rhs, gamma.denominator, c0, c1)
                    assert scaled.certified_off(idx, c0, c1, form) is expected
                    outcomes.add(expected)
                    if pending:  # did certified_off shift it, and what did it return
                        shifted.add((form[3] == 0, expected))
                    if c1 - c0 >= 2 and scaled.certified_small(idx, form):
                        values = [_horner(horner, m) for m in range(c0, c1 + 1)]
                        signs = {(v > 0) - (v < 0) for v in values}
                        assert len(signs) == 1 and 0 not in signs
                        assert all(abs(v) * gamma.denominator < rhs for v in values)
                        smalls.add(gamma in (Fraction(1, 2**r), Fraction(1, 64)))
                    a = rootenum._settle(form)
                    assert (a, form[1], form[2]) == _direct_form(horner, c0, c1)
                    assert form[4] == a[0]
                    assert form[5] >= sum(abs(x) for x in a)
                    if c0 <= target < c1:
                        m0, m1, walked = c0, c1, form
                if m1 - m0 == 1:
                    break
                mid = (m0 + m1) // 2
                ranges = zip(((m0, mid), (mid, m1)), rootenum._child_forms(walked, m1 - m0))
    assert outcomes == {True, False}
    assert shifted == {(False, True), (False, False), (True, True), (True, False)}
    assert True in smalls  # certified_small held at gamma 2^-r or 1/64


def test_plain_interval_horner_on_both_sides_of_zero():
    """Where the exact values pass and the centred form leaves the test open,
    certified_off's answer is the plain interval Horner pass's. On ranges
    with m0 >= 0 (an end at 0 included) it runs on V, and on ranges with
    m1 <= 0 on V(-m) over the mirrored range; gamma is drawn so that lim
    falls in the window the centred form leaves open. A range holding 0
    inside is drawn symmetric, as the whole grid is, and lim on both sides
    of its centred bound |a_0| - sum_{j>=1} |a_j|. Each side must give the
    four-product reference's bool, and each must give both bools."""
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
        assert scaled.certified_off(0, m0, m1, form) is expected
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

    def spy(self, idx, m0, m1, form):
        seen.append((m0, m1))
        return original(self, idx, m0, m1, form)

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
    1..24 and signed coefficients of up to 2,000 bits, zeros included, and
    leaves c as it was."""
    local = random.Random(0x7A1)
    for n in range(1, 25):
        for t in (1, -1):
            for _ in range(4):
                c = [local.choice([0, 1, -1]) * local.getrandbits(local.randint(1, 2000))
                     for _ in range(n)]
                before = list(c)
                expected = [sum(c[j] * math.comb(j, i) * t ** (j - i) for j in range(i, n))
                            for i in range(n)]
                assert rootenum._taylor_shift(c, t) == expected
                assert c == before


def test_certified_small_needs_both_halves_of_its_test():
    """P = 100 + 40x - 40x^3 over [-1, 1] (r = 2, so u = x): P is 100 at
    both ends and the centre, but 115 at x = 1/2, and 10 + P - 100 is -5 at
    x = -1/2. Each of |c0| - S1 > 0 and |c0| + S1 < lim rejects one."""
    def small(coeffs, gamma, child=None):
        scaled = rootenum._ScaledChain([Polynomial(coeffs)], 2, Fraction(gamma))
        form = scaled.root_form(0, 4)
        if child is not None:
            form = rootenum._child_forms(form, 8)[child]
        return scaled.certified_small(0, form), form[3]

    assert small([100, 40, 0, -40], 110) == (False, 0)  # 115 >= gamma inside
    assert small([10, 40, 0, -40], 100) == (False, 0)  # -5 inside
    assert small([100, 40, 0, -40], 200) == (True, 0)
    assert small([100, 40, 0, -40], 200, child=0) == (True, 0)  # settled to decide
    assert small([100, 40, 0, -40], 200, child=1) == (True, 1)  # its bound decides


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
                            lambda self, m: points.append(m) or classify(self, m))
        params = PrecisionParams(r=r, gamma=Fraction(1, 64))
        result = root_enum(poly, params)
        assert len(result.candidates) == 1 << result.r_prime
        assert result.candidates == naive_grid_scan(poly, params)
        assert len(points) * 4 < len(result.candidates)


def test_taylor_shift_count_on_wilkinson_20(monkeypatch):
    """A half is shifted only when it descends, or when its centre value and
    its two bounds on sum |a_j| leave the centred-form test open. Shifting
    both halves of every undecided element took 34,792 shifts here."""
    shifts = []
    shift = rootenum._taylor_shift
    monkeypatch.setattr(rootenum, "_taylor_shift", lambda c, t: shifts.append(t) or shift(c, t))
    poly = Polynomial([1])
    for k in range(1, 21):
        poly = poly * Polynomial([-k, 1])
    result = root_enum(poly, PrecisionParams(r=64, gamma=Fraction(1, 2**1280)))
    h = Fraction(1, 2**65)  # each root is a grid point: both flanking cells fire
    assert result.candidates == tuple(k + s * h for k in range(1, 21) for s in (-1, 1))
    assert len(shifts) == 18_106


# --- output invariants ------------------------------------------------------


def test_candidates_sorted_dyadic_and_deterministic():
    for _ in range(10):
        deg = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(deg)] + [Fraction(1)]
        poly = Polynomial(coeffs)
        params = PrecisionParams(r=5, gamma=Fraction(1, 2**14))
        first = root_enum(poly, params)
        second = root_enum(poly, params)
        assert first.candidates == second.candidates
        assert list(first.candidates) == sorted(first.candidates)
        for q in first.candidates:
            assert q.denominator == 2 ** (params.r + 1)
            assert q.numerator % 2 != 0


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
