"""The brute-force oracles themselves deserve tests."""

import random
from fractions import Fraction

import pytest

from certiroot import (
    DegreeOverflow,
    NoSignChange,
    PlantedSpec,
    Polynomial,
    ThresholdNonPositive,
    TooLong,
    bisect_root,
    cauchy_bound,
    count_roots,
    max_sign_change,
    plant,
    sign_extremes,
)

rng = random.Random(0x7E57)


# --- plant ------------------------------------------------------------------


def test_plant_frozen_cubic():
    planted = plant(
        PlantedSpec(real_roots=((Fraction(1), 1), (Fraction(2), 1), (Fraction(3), 1)))
    )
    assert planted.polynomial == Polynomial([-6, 11, -6, 1])
    assert planted.delta_min == 1
    assert planted.factor_floor == 1


def test_plant_double_root():
    planted = plant(PlantedSpec(real_roots=((Fraction(0), 2),)))
    assert planted.polynomial == Polynomial([0, 0, 1])
    assert planted.delta_min is None  # fewer than two distinct roots


def test_plant_pure_quadratic():
    planted = plant(PlantedSpec(irreducible_quadratics=((Fraction(0), Fraction(1)),)))
    assert planted.polynomial == Polynomial([1, 0, 1])
    assert planted.delta_min is None
    assert planted.factor_floor == 1  # q - p^2/4 = 1


def test_plant_metadata():
    planted = plant(
        PlantedSpec(
            real_roots=((Fraction(-1, 2), 1), (Fraction(5, 2), 2)),
            irreducible_quadratics=((Fraction(1), Fraction(1)),),
            leading=Fraction(-3),
        )
    )
    p = planted.polynomial
    assert p.degree == 5
    assert p.leading == -3
    assert planted.delta_min == 3
    assert planted.factor_floor == 3 * Fraction(3, 4)  # |lc| * (q - p^2/4)
    assert p.eval(Fraction(-1, 2)) == 0
    assert p.eval(Fraction(5, 2)) == 0


def test_plant_roots_are_exactly_the_planted_ones():
    for _ in range(30):
        deg = rng.randint(1, 4)
        roots = set()
        while len(roots) < deg:
            roots.add(Fraction(rng.randint(-20, 20), rng.randint(1, 4)))
        planted = plant(PlantedSpec(real_roots=tuple((rho, 1) for rho in sorted(roots))))
        p = planted.polynomial
        for rho in roots:
            assert p.eval(rho) == 0
        beta = cauchy_bound(p)
        assert count_roots(p, -beta, beta) == len(roots)
        if len(roots) >= 2:
            ordered = sorted(roots)
            gaps = [b - a for a, b in zip(ordered, ordered[1:])]
            assert planted.delta_min == min(gaps)


def random_planted_spec(k):
    """A spec with repeated roots whose denominators reach 10^12 in every other
    spec, the root 0 in every third, quadratics x^2 + p x + q whose p and q
    mostly have different denominators, and a rational leading factor of
    either sign."""
    most = (6, 10**12)[k % 2]
    distinct = set()
    for _ in range(rng.randint(0, 4)):
        b = rng.randint(1, most)
        distinct.add(Fraction(rng.randint(-20 * b, 20 * b), b))
    if k % 3 == 0:
        distinct.add(Fraction(0))
    roots = [(rho, rng.randint(1, 3)) for rho in sorted(distinct)]
    quads = []
    for _ in range(rng.randint(0, 2)):
        p = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 10**12 + 39]))
        q = p * p / 4 + Fraction(rng.randint(1, 9), rng.randint(1, 8))
        quads.append((p, q))
    leading = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    return PlantedSpec(tuple(roots), tuple(quads), leading)


def test_plant_equals_a_factor_by_factor_product():
    """plant's one product of integer rows equals the fold of binary products,
    factor by factor, over random specs and one that has each case at once."""
    every_case = PlantedSpec(
        ((Fraction(-5, 999999999989), 3), (Fraction(0), 2), (Fraction(7, 10**12), 1)),
        ((Fraction(1, 3), Fraction(3, 4)), (Fraction(-2, 5), Fraction(5, 7))), Fraction(-7, 3))
    for spec in [every_case] + [random_planted_spec(k) for k in range(60)]:
        want = Polynomial([spec.leading])
        for rho, m in spec.real_roots:
            for _ in range(m):
                want = want * Polynomial([-rho, 1])
        for p, q in spec.irreducible_quadratics:
            want = want * Polynomial([q, p, 1])
        planted = plant(spec)
        assert planted.polynomial == want
        assert planted.polynomial.degree == (sum(m for _, m in spec.real_roots)
                                             + 2 * len(spec.irreducible_quadratics))


def test_plant_validation():
    with pytest.raises(ValueError):
        plant(PlantedSpec(real_roots=((Fraction(1), 0),)))  # multiplicity < 1
    with pytest.raises(ValueError):
        plant(PlantedSpec(real_roots=((Fraction(1), 1), (Fraction(1), 2))))
    with pytest.raises(ValueError):
        plant(PlantedSpec(irreducible_quadratics=((Fraction(2), Fraction(1)),)))
    with pytest.raises(ValueError):
        plant(PlantedSpec(real_roots=((Fraction(0), 1),), leading=Fraction(0)))
    with pytest.raises(DegreeOverflow):
        plant(PlantedSpec(real_roots=((Fraction(0), 65),)))
    plant(PlantedSpec(real_roots=((Fraction(0), 65),)), max_degree=70)
    # empty spec degenerates to the constant leading factor
    assert plant(PlantedSpec()).polynomial == Polynomial([1])


# --- sign_extremes ----------------------------------------------------------


def test_sign_extremes_frozen():
    g = Fraction(1, 100)
    assert sign_extremes((1, Fraction(1, 1000), -1), g) == (1, 1)
    assert sign_extremes((1, Fraction(1, 1000), 1), g) == (0, 2)
    assert sign_extremes((1, -1), g) == (1, 1)


def test_sign_extremes_all_free():
    lo, hi = sign_extremes((0, 0, 0), Fraction(1, 2))
    assert (lo, hi) == (0, 2)


def test_sign_extremes_too_long():
    with pytest.raises(TooLong):
        sign_extremes((0,) * 21, Fraction(1, 2))
    with pytest.raises(ValueError):
        sign_extremes((), Fraction(1, 2))
    with pytest.raises(ThresholdNonPositive):
        sign_extremes((1,), 0)


@pytest.mark.parametrize("gamma", [0, -1, Fraction(-1, 3)])
def test_sign_extremes_refuses_gamma_as_approxsign_does(gamma):
    """The oracle and the code it checks raise the same type and message."""
    with pytest.raises(ThresholdNonPositive) as oracle:
        sign_extremes((1, -1), gamma)
    with pytest.raises(ThresholdNonPositive) as checked:
        max_sign_change((1, -1), gamma)
    assert type(oracle.value) is type(checked.value)
    assert str(oracle.value) == str(checked.value)


def test_sign_extremes_agrees_with_direct_enumeration():
    # re-derive with an independent (if slower) enumeration over sign tuples
    import itertools

    g = Fraction(1, 10)
    for _ in range(80):
        n = rng.randint(1, 7)
        theta = tuple(Fraction(rng.randint(-30, 30), 100) for _ in range(n))
        opts = [(1,) if v >= g else ((-1,) if v <= -g else (1, -1)) for v in theta]
        counts = {
            sum(1 for a, b in zip(sig, sig[1:]) if a != b)
            for sig in itertools.product(*opts)
        }
        assert sign_extremes(theta, g) == (min(counts), max(counts))


# --- bisect_root ------------------------------------------------------------


def test_bisect_frozen_sqrt2():
    q = bisect_root(Polynomial([-2, 0, 1]), 1, 2, 20)
    eps = Fraction(1, 2**20)
    assert (q - eps) ** 2 <= 2 <= (q + eps) ** 2


def test_bisect_exact_root():
    q = bisect_root(Polynomial([-1, 1]), 0, 2, 10)
    assert abs(q - 1) <= Fraction(1, 1024)


def test_bisect_cubic():
    q = bisect_root(Polynomial([0, -1, 0, 1]), Fraction(1, 2), 2, 10)
    assert abs(q - 1) <= Fraction(1, 1024)


def test_bisect_no_sign_change():
    with pytest.raises(NoSignChange):
        bisect_root(Polynomial([1, 0, 1]), -1, 1, 8)
    with pytest.raises(NoSignChange):
        bisect_root(Polynomial([-2, 0, 1]), 2, 3, 8)


def test_bisect_tracks_true_root():
    for _ in range(25):
        rho = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        p = Polynomial([-rho, 1]) * Polynomial([rng.randint(1, 3), 0, 1])
        lo, hi = rho - Fraction(3, 2), rho + Fraction(5, 3)
        if p.eval(lo) * p.eval(hi) >= 0:
            continue
        q = bisect_root(p, lo, hi, 16)
        assert abs(q - rho) <= Fraction(1, 2**16)
