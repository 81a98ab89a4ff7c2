"""Sturm chains, sign variations, exact root counting, Cauchy bound."""

import random
from fractions import Fraction

import pytest

from certiroot import (
    DegreeTooLow,
    EndpointIsRoot,
    PlantedSpec,
    Polynomial,
    cauchy_bound,
    count_roots,
    euclid_rem,
    plant,
    sign_variations,
    sturm_chain,
    sturm_eval,
)

rng = random.Random(0x5712)

X2_MINUS_2 = Polynomial([-2, 0, 1])
X2_PLUS_1 = Polynomial([1, 0, 1])


def random_squarefree(r, max_deg=5):
    """Leading * prod (x - rho_i) with distinct rational rho_i."""
    deg = r.randint(1, max_deg)
    roots = set()
    while len(roots) < deg:
        roots.add(Fraction(r.randint(-40, 40), r.randint(1, 8)))
    lead = Fraction(r.choice([-3, -1, 1, 2]))
    p = Polynomial([lead])
    for rho in roots:
        p = p * Polynomial([-rho, 1])
    return p, sorted(roots)


# --- chain construction -----------------------------------------------------


def test_chain_frozen_x2_minus_2():
    assert sturm_chain(X2_MINUS_2) == (
        X2_MINUS_2,
        Polynomial([0, 2]),
        Polynomial([2]),
    )


def test_chain_frozen_x2_plus_1():
    assert sturm_chain(X2_PLUS_1) == (
        X2_PLUS_1,
        Polynomial([0, 2]),
        Polynomial([-1]),
    )


def test_chain_degree_one_stops_at_derivative():
    assert sturm_chain(Polynomial([0, 1])) == (Polynomial([0, 1]), Polynomial([1]))


def test_chain_rejects_constants():
    with pytest.raises(DegreeTooLow):
        sturm_chain(Polynomial([5]))
    with pytest.raises(DegreeTooLow):
        sturm_chain(Polynomial([0]))


def test_chain_structure_random():
    """First two entries are p, p'; each later entry is minus the remainder
    of its two predecessors; degrees strictly decrease; length <= deg+1."""
    for _ in range(40):
        p, _ = random_squarefree(rng)
        chain = sturm_chain(p)
        assert chain[0] == p
        assert chain[1] == p.derivative()
        assert len(chain) <= p.degree + 1
        for i in range(2, len(chain)):
            assert chain[i] == -euclid_rem(chain[i - 2], chain[i - 1])
            assert chain[i].degree < chain[i - 1].degree
        assert not chain[-1].is_zero()


def test_chain_repeated_root_ends_above_constant():
    # (x-1)^2: gcd(p, p') is nonconstant, so the chain ends early
    p = Polynomial([1, -2, 1])
    chain = sturm_chain(p)
    assert chain[-1].degree >= 1 or len(chain) <= p.degree + 1


# --- evaluation and sign variations ----------------------------------------


def test_sturm_eval_frozen():
    chain = sturm_chain(X2_MINUS_2)
    assert sturm_eval(chain, 0) == (Fraction(-2), Fraction(0), Fraction(2))
    assert sturm_eval(chain, -3) == (Fraction(7), Fraction(-6), Fraction(2))
    linear = sturm_chain(Polynomial([0, 1]))
    assert sturm_eval(linear, 0) == (Fraction(0), Fraction(1))


def test_sign_variations_frozen():
    assert sign_variations((7, -6, 2)) == 2
    assert sign_variations((-2, 0, 2)) == 1
    assert sign_variations((1, 1, 1)) == 0
    assert sign_variations((0, 0, 0)) == 0
    assert sign_variations((1, -1, 1, -1)) == 3
    assert sign_variations(()) == 0


def test_sign_variations_zeros_deleted():
    assert sign_variations((1, 0, -1)) == sign_variations((1, -1))
    assert sign_variations((0, 5, 0, 5, 0)) == 0


# --- count_roots ------------------------------------------------------------


def test_count_roots_frozen():
    assert count_roots(X2_MINUS_2, -3, 3) == 2
    assert count_roots(X2_PLUS_1, -10, 10) == 0
    # repeated roots counted once
    assert count_roots(Polynomial([1, -2, 1]), 0, 2) == 1


def test_count_roots_errors():
    x2_minus_1 = Polynomial([-1, 0, 1])
    with pytest.raises(EndpointIsRoot):
        count_roots(x2_minus_1, 0, 1)  # b is a root
    with pytest.raises(EndpointIsRoot):
        count_roots(Polynomial([0, 1]), 0, 1)  # a is a root
    with pytest.raises(EndpointIsRoot):
        count_roots(Polynomial([0]), -1, 1)  # every point is a root of 0
    with pytest.raises(ValueError):
        count_roots(X2_MINUS_2, 3, -3)
    with pytest.raises(ValueError):
        count_roots(X2_MINUS_2, 1, 1)


def test_count_roots_nonzero_constant_is_zero():
    assert count_roots(Polynomial([7]), -1, 1) == 0


def test_count_roots_tight_brackets():
    p = Polynomial([0, 1])  # root at 0
    assert count_roots(p, -1, 1) == 1
    tiny = Fraction(1, 10**9)
    assert count_roots(p, -tiny, tiny) == 1
    assert count_roots(p, tiny, 1) == 0


def test_count_additivity():
    for _ in range(25):
        p, roots = random_squarefree(rng, 4)
        pts = sorted(
            Fraction(rng.randint(-500, 500), 7) for _ in range(3)
        )  # denominator 7 cannot hit roots with denominators <= 8 unless integral
        a, b, c = pts
        if len({a, b, c}) < 3 or any(p.eval(t) == 0 for t in (a, b, c)):
            continue
        assert count_roots(p, a, c) == count_roots(p, a, b) + count_roots(p, b, c)


# --- cauchy bound -----------------------------------------------------------


def test_cauchy_frozen():
    assert cauchy_bound(X2_MINUS_2) == 3
    assert cauchy_bound(Polynomial([-6, 11, -6, 1])) == 12
    assert cauchy_bound(Polynomial([0, 1])) == 1


def test_cauchy_rejects_constants():
    with pytest.raises(DegreeTooLow):
        cauchy_bound(Polynomial([3]))


def test_cauchy_contains_all_roots():
    for _ in range(30):
        p, roots = random_squarefree(rng)
        beta = cauchy_bound(p)
        assert all(-beta < rho < beta for rho in roots)


# --- oracle equivalence -----------------------------------------------------


def test_count_matches_planted_roots():
    """count_roots over (-beta, beta) equals the planted distinct-root count,
    and subinterval counts match the placement, for 100 random instances."""
    r = random.Random(7121)
    for _ in range(100):
        p, roots = random_squarefree(r, 5)
        beta = cauchy_bound(p)
        assert count_roots(p, -beta, beta) == len(roots)
        lo = -beta
        for _ in range(3):
            hi = lo + Fraction(r.randint(1, int(2 * beta) + 1), 3)
            if hi >= beta or p.eval(hi) == 0 or p.eval(lo) == 0:
                lo = hi
                continue
            expected = sum(1 for rho in roots if lo < rho <= hi)
            assert count_roots(p, lo, hi) == expected
            lo = hi


def test_count_with_multiplicities_counts_distinct():
    planted = plant(
        PlantedSpec(real_roots=((Fraction(0), 2), (Fraction(1), 3)), leading=Fraction(2))
    )
    p = planted.polynomial
    assert p.degree == 5
    beta = cauchy_bound(p)
    assert count_roots(p, -beta, beta) == 2


def test_against_sympy_on_a_handful():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for _ in range(10):
        p, _ = random_squarefree(rng, 4)
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
                   for i, c in enumerate(p.coeffs))
        a, b = Fraction(-101, 3), Fraction(101, 3)
        ours = count_roots(p, a, b)
        theirs = sympy.polys.polytools.count_roots(
            sympy.Poly(expr, x),
            inf=sympy.Rational(a.numerator, a.denominator),
            sup=sympy.Rational(b.numerator, b.denominator),
        )
        # sympy counts on [a, b]; our interval is (a, b]; endpoints are
        # non-roots here so the counts agree
        assert ours == theirs
