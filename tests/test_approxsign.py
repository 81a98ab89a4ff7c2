"""Conservative sign-change counting under a trust threshold.

Entries with |theta_i| >= gamma have trusted signs; the rest could be
anything of magnitude below gamma, including zero. max_sign_change /
min_sign_change must bracket the sign-change count of every vector
compatible with that reading. The brute-force oracle sign_extremes
enumerates all compatible sign assignments.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from certiroot import (
    InvalidArgument,
    ThresholdNonPositive,
    max_sign_change,
    min_sign_change,
    sign_extremes,
    sign_variations,
)
from certiroot.approxsign import max_changes_of_classes, min_changes_of_classes

GAMMA = Fraction(1, 100)
rng = random.Random(0xA51C)


# --- frozen values ----------------------------------------------------------


def test_max_frozen():
    assert max_sign_change((1, Fraction(1, 1000), -1), GAMMA) == 1
    assert max_sign_change((1, Fraction(1, 1000), 1), GAMMA) == 2
    assert max_sign_change((Fraction(1, 1000), 1), GAMMA) == 1


def test_min_frozen():
    assert min_sign_change((1, Fraction(-1, 1000), 1), GAMMA) == 0
    assert min_sign_change((1, Fraction(1, 1000), -1), GAMMA) == 0
    assert min_sign_change((1, 1), GAMMA) == 0


def test_exact_zero_entries_are_deleted_not_subtracted():
    # (+, 0, -) has one guaranteed change however the 0 slot resolves
    assert min_sign_change((1, 0, -1), GAMMA) == 1
    assert max_sign_change((1, 0, -1), GAMMA) == 1
    # (+, 0, +) can gain two changes if the slot resolves negative
    assert min_sign_change((1, 0, 1), GAMMA) == 0
    assert max_sign_change((1, 0, 1), GAMMA) == 2


def test_single_entry():
    assert max_sign_change((1,), GAMMA) == 0
    assert min_sign_change((Fraction(1, 1000),), GAMMA) == 0


def test_all_untrusted_run():
    # n free slots allow alternation everywhere
    theta = (Fraction(1, 1000),) * 4
    assert max_sign_change(theta, GAMMA) == 3
    assert min_sign_change(theta, GAMMA) == 0


def test_interior_small_run_between_opposite_signs():
    # two free slots between + and -: best alternation is +,-,+,- (3 changes)
    theta = (1, Fraction(1, 1000), Fraction(-1, 1000), -1)
    assert max_sign_change(theta, GAMMA) == 3


def test_errors():
    with pytest.raises(ThresholdNonPositive):
        max_sign_change((1, 2), 0)
    with pytest.raises(ThresholdNonPositive):
        min_sign_change((1, 2), Fraction(-1, 2))
    with pytest.raises(ValueError):
        max_sign_change((), GAMMA)
    with pytest.raises(ValueError):
        min_sign_change((), GAMMA)


def test_empty_class_vector_is_an_error():
    """An empty vector has no variation count: both counters raise the error
    entry_classes raises, not -1 or 0."""
    with pytest.raises(InvalidArgument, match="empty class vector"):
        max_changes_of_classes(())
    with pytest.raises(InvalidArgument, match="empty class vector"):
        min_changes_of_classes(())


# --- the one-pass counters against the list code they replaced ---------------


def _reference_max_changes(classes):
    """max_changes_of_classes as a sum over the pairs of consecutive trusted
    entries, in list code: the reference for its one pass."""
    trusted = [(i, sign) for i, (sign, small) in enumerate(classes) if not small]
    return len(classes) - 1 - sum(
        (j - i) % 2 == (s1 == s2) for (i, s1), (j, s2) in zip(trusted, trusted[1:])
    )


def _reference_min_changes(classes):
    """min_changes_of_classes as the zeros-deleted variation count of the
    signs less the small entries' penalties, in list code: the reference for
    its one pass."""
    signs = [sign for sign, _ in classes if sign != 0]
    count = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    last = len(classes) - 1
    for i, (sign, small) in enumerate(classes):
        if small and sign != 0:
            count -= 1 if (i == 0 or i == last) else 2
    return max(count, 0)


# The classes an entry can have: a trusted entry is nonzero, an exact zero small.
REACHABLE_CLASSES = ((1, False), (-1, False), (1, True), (-1, True), (0, True))


def test_counters_match_the_list_code_on_every_short_class_vector():
    """Both counters equal their references on every class vector of length
    1..7 over the five reachable classes: 97,655 vectors."""
    vectors = 0
    for classes in exhaustive_vectors(REACHABLE_CLASSES, 7):
        assert max_changes_of_classes(classes) == _reference_max_changes(classes), classes
        assert min_changes_of_classes(classes) == _reference_min_changes(classes), classes
        vectors += 1
    assert vectors == 97_655


def test_importing_approxsign_loads_no_sturm(run_limited):
    """The counters need no Sturm code, so approxsign imports no sturm."""
    code = (
        "import sys\n"
        "import certiroot.approxsign\n"
        "assert 'certiroot.sturm' not in sys.modules, sorted(sys.modules)\n"
    )
    proc = run_limited(code)
    assert (proc.returncode, proc.stderr) == (0, "")


# --- oracle properties ------------------------------------------------------


def exhaustive_vectors(alphabet, max_len):
    for n in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_bracketing_exhaustive_short_vectors():
    """min <= oracle min <= oracle max <= max over the whole alphabet cube."""
    alphabet = (2 * GAMMA, -2 * GAMMA, GAMMA / 2, -GAMMA / 2, Fraction(0))
    for theta in exhaustive_vectors(alphabet, 6):
        lo, hi = sign_extremes(theta, GAMMA)
        assert min_sign_change(theta, GAMMA) <= lo
        assert max_sign_change(theta, GAMMA) >= hi


def test_max_is_exactly_the_oracle_max():
    """The implementation's upper bound is tight: equal to the enumerated
    maximum, not merely above it."""
    alphabet = (2 * GAMMA, -2 * GAMMA, GAMMA / 2, -GAMMA / 2, Fraction(0))
    for theta in exhaustive_vectors(alphabet, 6):
        _, hi = sign_extremes(theta, GAMMA)
        assert max_sign_change(theta, GAMMA) == hi


def test_bracketing_random_vectors():
    for _ in range(500):
        n = rng.randint(1, 10)
        theta = tuple(
            Fraction(rng.randint(-300, 300), rng.randint(1, 10000)) for _ in range(n)
        )
        lo, hi = sign_extremes(theta, GAMMA)
        assert min_sign_change(theta, GAMMA) <= lo <= hi <= max_sign_change(theta, GAMMA)


def test_exact_when_all_trusted():
    for _ in range(200):
        n = rng.randint(1, 12)
        theta = tuple(
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 50)) for _ in range(n)
        )
        expected = sign_variations(theta)
        assert max_sign_change(theta, GAMMA) == expected
        assert min_sign_change(theta, GAMMA) == expected


def test_ordering_min_below_max():
    for _ in range(300):
        n = rng.randint(1, 9)
        theta = tuple(
            Fraction(rng.randint(-4, 4), rng.choice([1, 50, 400])) for _ in range(n)
        )
        assert min_sign_change(theta, GAMMA) <= max_sign_change(theta, GAMMA)


def test_gamma_monotonicity_of_max():
    """Shrinking gamma can only shrink the set of free slots, so the upper
    bound can only go down."""
    for _ in range(200):
        n = rng.randint(1, 8)
        theta = tuple(
            Fraction(rng.randint(-200, 200), 1000) for _ in range(n)
        )
        g_small = Fraction(1, rng.randint(2, 2000))
        g_big = g_small * rng.randint(1, 500)
        assert max_sign_change(theta, g_small) <= max_sign_change(theta, g_big)
        assert min_sign_change(theta, g_small) >= min_sign_change(theta, g_big)


small_entry = st.fractions(
    min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=10**4
)


@given(st.lists(small_entry, min_size=1, max_size=9))
def test_bracketing_hypothesis(entries):
    theta = tuple(entries)
    gamma = Fraction(1, 10)
    lo, hi = sign_extremes(theta, gamma)
    assert min_sign_change(theta, gamma) <= lo
    assert max_sign_change(theta, gamma) == hi
