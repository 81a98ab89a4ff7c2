"""Exact polynomial arithmetic: construction, evaluation, division."""

import copy
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from certiroot import (
    DivisionByZeroPolynomial,
    InvalidArgument,
    Polynomial,
    PrecisionParams,
    euclid_rem,
    poly_divmod,
    sturm_chain,
)
from certiroot.polyalg import _product, _ratio
from certiroot.testkit import PlantedSpec, plant

rng = random.Random(0xC0FFEE)


def rand_fraction(r, span=50):
    return Fraction(r.randint(-span, span), r.randint(1, span))


def rand_poly(r, max_deg=6, span=50):
    deg = r.randint(0, max_deg)
    coeffs = [rand_fraction(r, span) for _ in range(deg + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return Polynomial(coeffs)


fraction_st = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64
)
poly_st = st.lists(fraction_st, min_size=1, max_size=7).map(Polynomial)


# --- construction -----------------------------------------------------------


def test_coeffs_are_fractions_low_to_high():
    p = Polynomial(["-2", 0, 1])
    assert p.coeffs == (Fraction(-2), Fraction(0), Fraction(1))
    assert all(isinstance(c, Fraction) for c in p.coeffs)


def test_trailing_zeros_trimmed():
    assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])


def test_zero_polynomial_normal_form():
    z = Polynomial([0, 0, 0])
    assert z.is_zero()
    assert z.coeffs == (Fraction(0),)
    assert z.degree is None
    assert z == Polynomial([0])


def test_degree_and_leading():
    p = Polynomial([-2, 0, 1])
    assert p.degree == 2
    assert p.leading == 1
    assert Polynomial([5]).degree == 0


def test_rejects_junk_coefficients():
    with pytest.raises(TypeError):
        Polynomial([0.5, 1])


@pytest.mark.parametrize(
    "make",
    [lambda v: Polynomial([v, 1]), lambda v: PrecisionParams(r=4, gamma=v)],
    ids=["Polynomial", "PrecisionParams"],
)
@pytest.mark.parametrize(
    "value", ["abc", "1/0", "", "7" * 5000, "1e4300", "3e-4300"],
    ids=["abc", "1/0", "empty", "5000-digits", "4301-digit-numerator", "4301-digit-denominator"],
)
def test_bad_rational_string_is_invalid_argument(make, value):
    with pytest.raises(InvalidArgument, match="not an exact rational"):
        make(value)
    with pytest.raises(TypeError):  # a value that is not a rational type at all
        make(0.5)


def test_exponent_is_checked_before_the_power_is_built(run_limited):
    """Fraction builds 10**exponent with no bound: 1e10000000 takes ~10 s, and
    1e1000000000 never ends. A zero mantissa stays 0 whatever its exponent."""
    proc = run_limited(
        "from certiroot import InvalidArgument, Polynomial\n"
        "for text in ('1e10000000', '-1.5e-10000000', '1e1_000_000_000'):\n"
        "    try:\n"
        "        Polynomial([text])\n"
        "    except InvalidArgument as exc:\n"
        "        print(exc)\n"
        "print(Polynomial(['0e99999999999', '-0.0E-99999999999', 1]).coeffs[0])\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "not an exact rational: '1e10000000'",
        "not an exact rational: '-1.5e-10000000'",
        "not an exact rational: '1e1_000_000_000'",
        "0",
    ]


def test_exponent_parses_as_fraction_does_within_the_digit_limit():
    """A value written with an exponent is Fraction(text) exactly when its
    reduced numerator and denominator have at most 4300 digits; a limit of 0
    lifts the check."""
    r = random.Random(0xE4)
    for _ in range(2000):
        mantissa = r.choice(["", "-", "+", " "]) + str(r.randint(0, 10**r.randint(0, 8)))
        mantissa += r.choice(["", ".", f".{r.randint(0, 999)}", "." + "0" * r.randint(0, 9) + "5"])
        text = f"{mantissa}{r.choice('eE')}{r.choice(['', '-', '+'])}{r.randint(0, 4400)}"
        value = Fraction(text)
        if max(abs(value.numerator), value.denominator) < 10**4300:
            assert Polynomial([text, 1]).coeffs[0] == value, text
        else:
            with pytest.raises(InvalidArgument):
                Polynomial([text, 1])
    assert Polynomial(["5e-4300", "1e4299"]).coeffs == (Fraction(1, 2 * 10**4299), 10**4299)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert Polynomial(["1e4300"]).coeffs == (10**4300,)
    finally:
        sys.set_int_max_str_digits(limit)


def test_empty_coefficients_mean_zero():
    assert Polynomial([]).is_zero()


def test_reduced_fractions():
    p = Polynomial([Fraction(2, 4), Fraction(6, 3)])
    assert p.coeffs == (Fraction(1, 2), Fraction(2))


# --- evaluation -------------------------------------------------------------


def test_eval_frozen_values():
    p = Polynomial([-2, 0, 1])  # x^2 - 2
    assert p.eval(0) == -2
    assert p.eval(Fraction(3, 2)) == Fraction(1, 4)
    assert Polynomial([0]).eval(Fraction(7, 3)) == 0


def test_eval_accepts_strings_and_ints():
    p = Polynomial([1, 1])
    assert p.eval("1/2") == Fraction(3, 2)
    assert p.eval(3) == 4


@given(poly_st, poly_st, fraction_st)
def test_eval_is_a_ring_homomorphism(p, q, t):
    assert (p + q).eval(t) == p.eval(t) + q.eval(t)
    assert (p * q).eval(t) == p.eval(t) * q.eval(t)
    assert (-p).eval(t) == -p.eval(t)
    assert (p - q).eval(t) == p.eval(t) - q.eval(t)


def schoolbook_product(a, b):
    """Plain-Fraction reference for p * q: every term multiplied and added as a
    Fraction, trailing zeros trimmed; no integer row is formed."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def fraction_horner(coeffs, x):
    """Plain-Fraction reference for p.eval(x), in Horner order."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def is_reduced(c):
    return type(c) is Fraction and c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


# Denominators up to 10^12, and zero often, so zero, constant and sparse
# polynomials come up next to dense ones.
wide_fraction_st = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
)
wide_poly_st = st.lists(wide_fraction_st, min_size=0, max_size=7).map(Polynomial)
point_fraction_st = st.fractions(min_value=-(10**3), max_value=10**3, max_denominator=10**12)
point_st = st.one_of(point_fraction_st, st.integers(-(10**3), 10**3), point_fraction_st.map(str))


@given(wide_poly_st, wide_poly_st, point_st)
@example(Polynomial([]), Polynomial(["-7/3", 1]), "-5/2")
@example(Polynomial(["3/10"]), Polynomial([0, 0, "1/999999999999"]), -4)
@example(Polynomial([5]), Polynomial(["-1/2"]), 0)
def test_mul_and_eval_match_plain_fraction_references(p, q, x):
    """The integer-row product and value equal the schoolbook product and the
    Fraction Horner value, and every result is a reduced Fraction. The
    references share no code with the integer rows, so the naive-scan oracles,
    which evaluate through eval, stay checked apart from _ScaledChain's rows."""
    product = p * q
    assert product.coeffs == schoolbook_product(p.coeffs, q.coeffs)
    assert all(is_reduced(c) for c in product.coeffs)
    value = p.eval(x)
    assert value == fraction_horner(p.coeffs, Fraction(x))
    assert is_reduced(value)


@given(st.lists(wide_poly_st, max_size=5))
@example([])
@example([Polynomial(["1/3"])])
@example([Polynomial(["-7/3", 1]), Polynomial([]), Polynomial(["1/999999999999", 0, 2])])
@example([Polynomial([Fraction(k, 3 * k + 1) - i for k in range(1, 8)]) for i in range(5)])
def test_product_matches_a_schoolbook_fold(factors):
    """_product of the rows of 0-5 factors equals the schoolbook Fraction fold
    from 1: the empty product is 1 and a zero factor gives the zero polynomial,
    and every coefficient is a reduced Fraction."""
    want = (Fraction(1),)
    for f in factors:
        want = schoolbook_product(want, f.coeffs)
    got = _product(f._row for f in factors)
    assert got.coeffs == want
    assert all(is_reduced(c) for c in got.coeffs)


def test_product_hands_over_the_reduced_row():
    """_product divides its convolution by gcd(den, *ints) once: rows that
    share a factor with their denominators give the reduced row, and a zero
    factor, trimmed or not, gives the zero polynomial's row ((0,), 1)."""
    p = _product([([2, 4], 6), ([3, 3], 9)])  # (1 + 2x)/3 * (1 + x)/3
    assert p._row == ((1, 3, 2), 9)
    assert p.coeffs == (Fraction(1, 9), Fraction(1, 3), Fraction(2, 9))
    for zero in ([0], 5), ([0, 0], 7):
        p = _product([([1, 2], 3), zero])
        assert p._row == ((0,), 1) and p.coeffs == (Fraction(0),)
        assert p == Polynomial([]) and p.is_zero()


@given(st.integers(), st.integers(min_value=1), st.integers() | st.just(1))
@example(0, 1, 1)
@example(0, 10**31, 1)
@example(-12, 18, 1)
@example(-(10**31), 6 * 10**30, 1)
@example(3**70 * 2**5, 2**9 * 3**40 * 7, 1)
@example(0, 18, 5)
@example(-12, 18, 35)
@example(-(10**31), 6 * 10**30, -7)
@example(3**70 * 2**5, 2**9 * 3**40 * 7, 5**90)
@example(-(2**40), 3 * 2**9, 11**60)
def test_ratio_is_fraction_n_over_d(n, d, k):
    """_ratio(n, d, k) is Fraction(k * n, d) for k coprime to d: k = 1 and
    k != 1, n = 0, negative n, n past 10^30 and k past 2^200 included,
    reduced with a positive denominator."""
    assume(math.gcd(k, d) == 1)
    q, want = _ratio(n, d, k), Fraction(k * n, d)
    assert is_reduced(q)
    assert (q.numerator, q.denominator) == (want.numerator, want.denominator)
    assert q == want and hash(q) == hash(want) and repr(q) == repr(want)


# --- derivative -------------------------------------------------------------


def test_derivative_frozen_values():
    assert Polynomial([-2, 0, 1]).derivative() == Polynomial([0, 2])
    assert Polynomial([5]).derivative().is_zero()
    assert Polynomial([0, -1, 0, 3]).derivative() == Polynomial([-1, 0, 9])


def test_derivative_drops_degree_by_one():
    for _ in range(50):
        p = rand_poly(rng)
        if p.degree in (None, 0):
            assert p.derivative().is_zero()
        else:
            assert p.derivative().degree == p.degree - 1


def test_derivative_linearity_and_product_rule():
    for _ in range(30):
        p, q = rand_poly(rng, 4), rand_poly(rng, 4)
        assert (p + q).derivative() == p.derivative() + q.derivative()
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_derivative_difference_quotient():
    """|p(x+h) - p(x)| <= |h| * sup|p'| locally, checked at sample points.

    A crude certified form: for x, x+h in [-1, 1], the mean value theorem
    gives |p(x+h)-p(x)| <= |h| * sum(i*|c_i|) since |p'(t)| <= sum i|c_i|
    on [-1, 1].
    """
    for _ in range(30):
        p = rand_poly(rng, 5, span=8)
        bound = sum(i * abs(c) for i, c in enumerate(p.coeffs))
        x = Fraction(rng.randint(-90, 90), 100)
        h = Fraction(rng.randint(1, 10), 100)
        if abs(x + h) > 1:
            h = -h
        assert abs(p.eval(x + h) - p.eval(x)) <= abs(h) * bound


# --- ring operations --------------------------------------------------------


def test_add_sub_mul_scale_basics():
    p = Polynomial([1, 1])
    q = Polynomial([-1, 1])
    assert p + q == Polynomial([0, 2])
    assert p - q == Polynomial([2])
    assert p * q == Polynomial([-1, 0, 1])
    assert p.scale(Fraction(1, 2)) == Polynomial([Fraction(1, 2), Fraction(1, 2)])
    assert (p - p).is_zero()


@pytest.mark.parametrize("other", [2, Fraction(1, 2), 1.5, "1", None])
def test_ring_operations_reject_other_operands_in_both_orders(other):
    p = Polynomial([1, 2])
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(p, other)
        with pytest.raises(TypeError):
            op(other, p)


def test_mul_degree_adds():
    for _ in range(30):
        p, q = rand_poly(rng, 5), rand_poly(rng, 5)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).degree == p.degree + q.degree


# --- division ---------------------------------------------------------------


def test_divmod_frozen_examples():
    x2m2 = Polynomial([-2, 0, 1])
    twox = Polynomial([0, 2])
    q, r = poly_divmod(x2m2, twox)
    assert q == Polynomial([0, Fraction(1, 2)])
    assert r == Polynomial([-2])
    assert euclid_rem(x2m2, twox) == Polynomial([-2])
    assert euclid_rem(twox, twox).is_zero()
    # degree already smaller: remainder is the dividend itself
    assert euclid_rem(Polynomial([0, 1]), Polynomial([1, 0, 1])) == Polynomial([0, 1])


def test_division_by_zero_polynomial():
    with pytest.raises(DivisionByZeroPolynomial):
        poly_divmod(Polynomial([1, 1]), Polynomial([0]))
    with pytest.raises(DivisionByZeroPolynomial):
        euclid_rem(Polynomial([1]), Polynomial([0, 0]))


def test_division_identity_at_random_points():
    """p = Q*q + R exactly, verified by evaluation at 20 rational points."""
    for _ in range(40):
        p = rand_poly(rng, 6)
        q = rand_poly(rng, 4)
        if q.is_zero():
            continue
        quo, rem = poly_divmod(p, q)
        assert rem.is_zero() or rem.degree < q.degree
        assert quo * q + rem == p
        for _ in range(20):
            t = rand_fraction(rng)
            assert p.eval(t) == quo.eval(t) * q.eval(t) + rem.eval(t)


def test_remainder_of_multiple_is_zero():
    for _ in range(20):
        q = rand_poly(rng, 3)
        f = rand_poly(rng, 3)
        if q.is_zero():
            continue
        assert euclid_rem(q * f, q).is_zero()


# --- value semantics --------------------------------------------------------


def test_hash_and_eq_consistent():
    a = Polynomial([1, 2, 3])
    b = Polynomial(["1", "2", "3"])
    assert a == b and hash(a) == hash(b)
    assert a != Polynomial([1, 2])
    assert a != "not a polynomial"


def test_repr_round_trips():
    p = Polynomial([Fraction(1, 3), -2])
    assert eval(repr(p), {"Polynomial": Polynomial, "Fraction": Fraction}) == p


def test_every_polynomial_carries_its_integer_row():
    """Each way the package makes a polynomial leaves _row a tuple pair
    (ints, L): L the lcm of the coefficient denominators, ints a tuple of
    ints with ints[i] = c_i * L, and ((0,), 1) for the zero polynomial."""
    local = random.Random(0x30)
    made = [Polynomial([]), Polynomial([0, 0])]
    for _ in range(40):
        p, q = rand_poly(local, span=10**6), rand_poly(local)
        made += [
            Polynomial([int(c) for c in p.coeffs]),
            Polynomial(q.coeffs),
            Polynomial([str(c) for c in p.coeffs]),
            p + q, p - q, p - p, -p, p * q, p.derivative(), p.scale(rand_fraction(local)),
            copy.copy(p), pickle.loads(pickle.dumps(p)),
        ]
        if p.degree:
            made += sturm_chain(p)
        roots = {rand_fraction(local): local.randint(1, 3) for _ in range(local.randint(0, 3))}
        made.append(plant(PlantedSpec(tuple(roots.items()), ((Fraction(1, 3), Fraction(7, 5)),),
                                      rand_fraction(local) or Fraction(1, 7))).polynomial)
    for f in made:
        ints, den = f._row
        assert type(f._row) is tuple and type(ints) is tuple
        assert all(type(a) is int for a in ints) and type(den) is int
        lcd = math.lcm(*(c.denominator for c in f.coeffs))
        assert f._row == (tuple(c * lcd for c in f.coeffs), lcd)
    assert Polynomial([])._row == ((0,), 1)
