"""Conservative sign-change counting under a trust threshold.

An evaluation vector theta is only trusted entrywise up to gamma > 0: an
entry with |theta_i| >= gamma certainly has the sign it shows, while an
entry with |theta_i| < gamma (including exact zeros) could really be
negative, zero, or positive. Call the real vectors that agree with every
trusted sign the *completions* of theta.

`max_sign_change` returns the exact maximum number of sign alternations any
completion can exhibit; `min_sign_change` returns a lower bound on the
minimum. Root counting stays safe with any bracket [min, max] that contains
the true variation count, so the maximum is computed exactly (tight upper
bounds mean fewer spurious root cells) while the minimum trades a little
slack for a rule that is linear, local, and provably never exceeds any
completion's count.

Both counters agree with the plain zeros-deleted variation count when every
entry is trusted, and they bracket it for every gamma:

    min_sign_change(theta, g) <= variations(theta) <= max_sign_change(theta, g)

which is exactly what interval-endpoint root counting needs.

Each count is one pass over a vector of entry classes, with no list built:
`max_changes_of_classes` and `min_changes_of_classes` are what root_enum
runs at every cell end it classifies.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidArgument
from .polyalg import _as_gamma

# An entry class is (sign, small): sign in {-1, 0, +1} is the exact sign of
# the stored value, small means |value| < gamma (the sign is untrusted).
# Exact zeros are always small since gamma > 0.


def entry_classes(theta: Sequence, gamma) -> list[tuple[int, bool]]:
    """Classify each entry of theta as (exact sign, |entry| < gamma). gamma
    passes polyalg._as_gamma, the one gate for a threshold, and is compared
    unconverted; the entries are unchecked."""
    if len(theta) == 0:
        raise InvalidArgument("empty evaluation vector")
    gamma = _as_gamma(gamma)
    out = []
    for v in theta:
        sign = 1 if v > 0 else (-1 if v < 0 else 0)
        out.append((sign, -gamma < v < gamma))
    return out


def max_changes_of_classes(classes: Sequence[tuple[int, bool]]) -> int:
    """Exact maximum variation count over all completions.

    Free entries alternate freely, so n entries give at most n - 1 changes,
    one per adjacent pair. Between consecutive trusted entries (i, s1) and
    (j, s2) the j - i pairs must change an even number of times if s1 == s2
    and an odd number if not: when the parity of j - i is the wrong one,
    one change is lost, and only then.

    One pass: key is the sign that a change at every pair since the last
    trusted entry would give the current one, so it flips at each step. A
    trusted entry (nonzero) of another sign has the wrong parity and loses a
    change. The first one, met with key 0, is counted too, so the result is
    n - 1 - (lost - 1), or n - 1 with no trusted entry. Raises
    InvalidArgument on an empty vector.
    """
    if not classes:
        raise InvalidArgument("empty class vector")
    lost, key = 0, 0
    for sign, small in classes:
        key = -key
        if not small and sign != key:
            key = sign
            lost += 1
    return len(classes) - (lost or 1)


def min_changes_of_classes(classes: Sequence[tuple[int, bool]]) -> int:
    """Lower bound on the minimum variation count over all completions.

    Start from the zeros-deleted variation count of the stored values, then
    give back 1 for a *nonzero* small entry at either end and 2 for each
    nonzero small interior entry, clamping at 0. Exact zeros are already
    absent from the base count and cost nothing extra.

    Soundness: the true minimum equals the variation count of the trusted
    subsequence; deleting one entry from a sign sequence lowers its count by
    at most 2 (interior) or 1 (at an end), so peeling off the nonzero small
    entries one at a time never overshoots the subtraction budget.

    One pass counts each change of nonzero sign, the first nonzero entry's
    from none included, and takes 2 for every nonzero small entry; the one
    spurious change and the ends' refunds are settled after it. Raises
    InvalidArgument on an empty vector.
    """
    if not classes:
        raise InvalidArgument("empty class vector")
    count, last = 0, 0
    for sign, small in classes:
        if small:
            if not sign:
                continue
            count -= 2
        if sign != last:
            count += 1
            last = sign
    if last:
        count -= 1
    (first_sign, first_small), (end_sign, end_small) = classes[0], classes[-1]
    if first_small and first_sign:
        count += 1
    if end_small and end_sign:
        count += 1
    return count if count > 0 else 0


def max_sign_change(theta: Sequence, gamma) -> int:
    """Largest sign-alternation count achievable within gamma of theta.

    >>> from fractions import Fraction
    >>> max_sign_change((1, Fraction(1, 1000), -1), Fraction(1, 100))
    1
    >>> max_sign_change((1, Fraction(1, 1000), 1), Fraction(1, 100))
    2
    """
    return max_changes_of_classes(entry_classes(theta, gamma))


def min_sign_change(theta: Sequence, gamma) -> int:
    """Lower bound on the sign-alternation count within gamma of theta.

    >>> from fractions import Fraction
    >>> min_sign_change((1, -Fraction(1, 1000), 1), Fraction(1, 100))
    0
    """
    return min_changes_of_classes(entry_classes(theta, gamma))
