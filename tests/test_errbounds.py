"""Quantitative error bounds: power differences, evaluation tolerances,
coefficient snapping, Lipschitz constants, and the small-value floor."""

import random
from fractions import Fraction

import pytest

from certiroot import (
    ApproxContext,
    DegreeMismatch,
    DegreeTooLow,
    InvalidArgument,
    PlantedSpec,
    Polynomial,
    PreconditionViolated,
    SeparationTooSmall,
    cauchy_bound,
    eval_tolerance,
    intersection_predicate,
    lipschitz_constant,
    perturbation_bound,
    plant,
    power_diff_bound,
    small_value_threshold,
    snap_polynomial,
)

rng = random.Random(0xE22B)


def rand_frac(r, span, den=None):
    return Fraction(r.randint(-span, span), den or r.randint(1, span))


# --- power_diff_bound -------------------------------------------------------


def test_power_diff_frozen_k3():
    b = power_diff_bound(2, Fraction(15, 8), 3, 3)
    assert b == 3
    assert abs(Fraction(2) ** 3 - Fraction(15, 8) ** 3) == Fraction(721, 512)
    assert Fraction(721, 512) < b


def test_power_diff_frozen_k4():
    a = Fraction(1, 2)
    b_in = a - Fraction(1, 32)
    b = power_diff_bound(a, b_in, 4, 4)
    assert b == Fraction(1, 8)
    assert abs(a**4 - b_in**4) < b


def test_power_diff_equal_inputs():
    for k in (1, 2, 5):
        b = power_diff_bound(Fraction(3, 7), Fraction(3, 7), k, 6)
        assert abs(Fraction(3, 7) ** k - Fraction(3, 7) ** k) <= b


def test_power_diff_k1_needs_the_constant_one():
    """With a, b below 1 the naive 2^-r * max(|a|,|b|) would be smaller than
    |a - b| itself; the returned bound must still cover it."""
    a, b_in = Fraction(0), Fraction(1, 32)
    b = power_diff_bound(a, b_in, 1, 4)
    assert b == Fraction(1, 16)
    assert abs(a - b_in) < b


def test_power_diff_precondition():
    with pytest.raises(PreconditionViolated):
        power_diff_bound(0, Fraction(3, 16), 2, 4)
    # exactly 2^-r apart is accepted (the frozen k=3 example sits there)
    power_diff_bound(0, Fraction(1, 16), 2, 4)
    with pytest.raises(ValueError):
        power_diff_bound(1, 1, 0, 4)
    with pytest.raises(ValueError):
        power_diff_bound(1, 1, 2, 0)


def test_power_diff_random_battery():
    """|a^k - b^k| <= B on random admissible inputs, strict when a != b and
    strictly inside the precondition."""
    for _ in range(800):
        r = rng.randint(1, 16)
        k = rng.randint(1, 8)
        a = rand_frac(rng, 40)
        step = Fraction(1, 2**r)
        b = a + Fraction(rng.randint(-(2**r) + 1, 2**r - 1), 2 ** (2 * r))
        assert abs(a - b) < step
        bound = power_diff_bound(a, b, k, r)
        diff = abs(a**k - b**k)
        if a == b:
            assert diff <= bound
        else:
            assert diff < bound


# --- eval_tolerance / intersection_predicate --------------------------------


def test_eval_tolerance_frozen_linear():
    assert eval_tolerance(Polynomial([0, 1]), 0, 4) == Fraction(1, 64)


def test_eval_tolerance_frozen_quadratic():
    t2 = (Fraction(257, 256)) ** 2
    expected = 3 * Fraction(1, 256) * (t2 + 2 * t2 * 1)
    assert eval_tolerance(Polynomial([1, 0, 1]), 1, 8) == expected
    assert expected == Fraction(594441, 16777216)


def test_eval_tolerance_formula_replication():
    for _ in range(100):
        d = rng.randint(1, 6)
        coeffs = [rand_frac(rng, 9) for _ in range(d)] + [Fraction(rng.choice([1, -2]))]
        p = Polynomial(coeffs)
        x = rand_frac(rng, 12)
        r = rng.randint(1, 12)
        step = Fraction(1, 2**r)
        u = abs(x) + step
        t = max(u, u**d)
        expected = (d + 1) * step * (t + d * t * max(abs(c) for c in p.coeffs))
        assert eval_tolerance(p, x, r) == expected


def test_eval_tolerance_rejects_constants():
    """Both evaluation bounds reject a constant, and a precision r < 1 the way
    power_diff_bound does."""
    with pytest.raises(DegreeTooLow):
        eval_tolerance(Polynomial([3]), 0, 4)
    with pytest.raises(DegreeTooLow, match="predicate needs degree >= 1"):
        intersection_predicate(Polynomial([3]), 0, 3, 4)
    for r in (0, -1):
        with pytest.raises(InvalidArgument, match="r must be >= 1"):
            eval_tolerance(Polynomial([-2, 0, 1]), 1, r)
        with pytest.raises(InvalidArgument, match="r must be >= 1"):
            intersection_predicate(Polynomial([-2, 0, 1]), 1, -1, r)


def test_predicate_true_on_exact_triples():
    for _ in range(50):
        d = rng.randint(1, 5)
        coeffs = [rand_frac(rng, 8) for _ in range(d)] + [Fraction(1)]
        p = Polynomial(coeffs)
        x = rand_frac(rng, 6)
        assert intersection_predicate(p, x, p.eval(x), 8)


def predicate_threshold(p, x, r):
    """The acceptance radius the predicate uses, replicated independently:
    (d+1) 2^-r (t + d t max|a_i|) + 2^-r with t = max(1, u, u^d),
    u = |x| + 2^-r."""
    d = p.degree
    step = Fraction(1, 2**r)
    u = abs(x) + step
    t = max(Fraction(1), u, u**d)
    return (d + 1) * step * (t + d * t * max(abs(c) for c in p.coeffs)) + step


def test_predicate_boundary_is_strict():
    p = Polynomial([-2, 0, 1])
    x = Fraction(5, 4)
    r = 6
    tau = predicate_threshold(p, x, r)
    y = p.eval(x)
    assert not intersection_predicate(p, x, y + tau, r)
    assert not intersection_predicate(p, x, y - tau, r)
    assert intersection_predicate(p, x, y + tau - Fraction(1, 2**40), r)


def test_predicate_accepts_perturbed_true_triples():
    """No false rejections: perturb a true (coeffs, x, y) within 2^-r in
    every slot and the predicate must still accept (500 trials; the
    acceptance suite runs 10^4)."""
    for _ in range(500):
        d = rng.randint(1, 5)
        r = rng.randint(2, 12)
        true_coeffs = [rand_frac(rng, 10) for _ in range(d + 1)]
        if true_coeffs[-1] == 0:
            true_coeffs[-1] = Fraction(1)
        a = Polynomial(true_coeffs)
        x = rand_frac(rng, 8)
        y = a.eval(x)

        def wiggle(v):
            return v + Fraction(rng.randint(-(2**r) + 1, 2**r - 1), 2 ** (2 * r))

        approx = [wiggle(c) for c in true_coeffs]
        if approx[-1] == 0:
            approx[-1] = true_coeffs[-1]
        a_tilde = Polynomial(approx)
        if a_tilde.degree != d:
            continue
        assert intersection_predicate(a_tilde, wiggle(x), wiggle(y), r)


# --- snap_polynomial --------------------------------------------------------


def test_snap_frozen():
    a = Polynomial([0, 0, 1])
    a_approx = Polynomial([0, 0, Fraction(17, 16)])
    b = snap_polynomial(a, a_approx, 1)
    assert b == Polynomial([Fraction(-1, 16), 0, Fraction(17, 16)])
    assert b.eval(1) == a.eval(1) == 1


def test_snap_exact_approximation_is_identity():
    a = Polynomial([3, -1, 2])
    assert snap_polynomial(a, a, Fraction(7, 5)) == a


def test_snap_at_zero_keeps_constant_term():
    a = Polynomial([5, 1, 1])
    a_approx = Polynomial([99, 2, 3])
    b = snap_polynomial(a, a_approx, 0)
    assert b.coeffs[0] == 5
    assert b.coeffs[1:] == a_approx.coeffs[1:]


def test_snap_identity_random():
    for _ in range(200):
        d = rng.randint(1, 6)
        a = Polynomial([rand_frac(rng, 20) for _ in range(d)] + [Fraction(1)])
        approx = [c + rand_frac(rng, 5, den=64) for c in a.coeffs[:-1]] + [Fraction(1)]
        a_tilde = Polynomial(approx)
        x = rand_frac(rng, 10)
        b = snap_polynomial(a, a_tilde, x)
        assert b.eval(x) == a.eval(x)
        assert b.coeffs[1:] == a_tilde.coeffs[1:]


def test_snap_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        snap_polynomial(Polynomial([0, 1]), Polynomial([0, 0, 1]), 1)
    with pytest.raises(DegreeMismatch):
        snap_polynomial(Polynomial([1]), Polynomial([1]), 0)


# --- perturbation_bound -----------------------------------------------------


def test_perturbation_frozen():
    assert perturbation_bound(1, ApproxContext(r=4, d=2)) == Fraction(1, 32)
    assert perturbation_bound(0, ApproxContext(r=4, d=2)) == 4 * Fraction(1, 256)


def test_perturbation_covers_snap_distance():
    """||a - snap(a, a~, x)||^2 < W for strict componentwise 2^-r noise."""
    for _ in range(500):
        d = rng.randint(1, 5)
        r = rng.randint(2, 10)
        ctx = ApproxContext(r=r, d=d)
        a = Polynomial([rand_frac(rng, 10) for _ in range(d)] + [Fraction(2)])
        noise = [
            Fraction(rng.randint(-(2**r) + 1, 2**r - 1), 2 ** (2 * r))
            for _ in range(d + 1)
        ]
        a_tilde = Polynomial([c + n for c, n in zip(a.coeffs, noise)])
        if a_tilde.degree != d:
            continue
        x = Fraction(rng.randint(-199, 199), 100)
        b = snap_polynomial(a, a_tilde, x)
        dist2 = sum((ca - cb) ** 2 for ca, cb in zip(a.coeffs, b.coeffs))
        assert dist2 < perturbation_bound(x, ctx)


def test_context_validation():
    with pytest.raises(ValueError):
        ApproxContext(r=0, d=2)
    with pytest.raises(ValueError):
        ApproxContext(r=4, d=0)


# --- lipschitz_constant -----------------------------------------------------


def test_lipschitz_frozen():
    assert lipschitz_constant(Polynomial([0, 0, 1])) == 2
    assert lipschitz_constant(Polynomial([0, -1, 0, 3])) == 10
    assert lipschitz_constant(Polynomial([42])) == 0
    assert lipschitz_constant(Polynomial([0])) == 0


def test_lipschitz_holds_on_unit_interval():
    for _ in range(60):
        d = rng.randint(1, 6)
        p = Polynomial([rand_frac(rng, 8) for _ in range(d + 1)])
        if p.is_zero():
            continue
        c = lipschitz_constant(p)
        for _ in range(20):
            x = Fraction(rng.randint(0, 1000), 1000)
            y = Fraction(rng.randint(0, 1000), 1000)
            assert abs(p.eval(y) - p.eval(x)) <= c * abs(y - x)


# --- small_value_threshold --------------------------------------------------


def test_threshold_frozen():
    p = Polynomial([0, -1, 1])  # roots 0 and 1, delta_min = 1
    got = small_value_threshold(p, 1, ApproxContext(r=4, d=2))
    assert got == Fraction(1, 2**9)


def test_threshold_clamps_separation_at_one():
    p = Polynomial([0, -4, 1])  # roots 0 and 4
    got = small_value_threshold(p, 4, ApproxContext(r=4, d=2), factor_floor=3)
    assert got == 3 * Fraction(1, 2**8)


def test_threshold_errors():
    p = Polynomial([0, -1, 1])
    with pytest.raises(SeparationTooSmall):
        small_value_threshold(p, 1, ApproxContext(r=1, d=2))
    with pytest.raises(ValueError):
        small_value_threshold(p, 0, ApproxContext(r=4, d=2))
    with pytest.raises(ValueError):
        small_value_threshold(p, 1, ApproxContext(r=4, d=2), factor_floor=0)
    with pytest.raises(DegreeTooLow):
        small_value_threshold(Polynomial([1]), 1, ApproxContext(r=4, d=1))


def test_threshold_is_an_off_root_floor():
    """One concrete planted instance, checked on the whole dyadic grid:
    every grid point farther than 2^-r from all roots has |p| > gamma."""
    planted = plant(PlantedSpec(real_roots=((Fraction(0), 1), (Fraction(1), 1))))
    p = planted.polynomial
    r = 4
    gamma = small_value_threshold(
        p, planted.delta_min, ApproxContext(r=r, d=p.degree), planted.factor_floor
    )
    beta = cauchy_bound(p)
    step = Fraction(1, 2**r)
    grid_half = 2 ** (r + 1)  # beta = 2, so the grid spans [-2, 2]
    roots = [root for root, _ in planted.spec.real_roots]
    for m in range(-grid_half, grid_half + 1):
        y = Fraction(m, 2**r)
        if min(abs(y - rho) for rho in roots) > step:
            assert abs(p.eval(y)) > gamma
