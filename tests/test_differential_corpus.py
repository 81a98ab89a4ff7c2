"""A committed differential corpus: root_enum's outputs on seeded calls.

The calls cover four families: random integer polynomials, planted ones
(roots on the 1/8 lattice, multiplicities up to 3, an optional rootless
quadratic), Mignotte's x^d - 2(ax - 1)^2, and clusters of simple roots 2^-10
apart. Each polynomial runs at up to four thresholds:

- "floor": the certified off-root floor small_value_threshold, for the
  families whose root separation is known exactly (planted, cluster);
- "dr": 2^-(d*r), the scale of the floor and the CLI's default;
- "r": 2^-r, and "64": 1/64, above the floor.

r is drawn with the polynomial, before any call runs. Above the floor many
cells can fire, up to the whole grid of 2^r' cells, so there r is lowered
until r' = r + 1 + ceil(log2 beta) is at most ABOVE_FLOOR_R_PRIME, but not
below 3. Every call then takes a few ms, and the corpus about 7 s on one
core of a shared 2-core machine.

differential_corpus.json maps each call's name to the first 16 hex digits
of the SHA-256 of its outcome: the candidate tuple, or the name of the error
it raised. test_corpus_digests checks every call. A change meant to keep
root_enum's candidates passes it unchanged. A change meant to alter them
re-records, from the root of the repository, with

    PYTHONPATH=src python3 tests/test_differential_corpus.py --record

and says which calls changed and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from certiroot import (
    ApproxContext,
    CertirootError,
    PlantedSpec,
    Polynomial,
    PrecisionParams,
    cauchy_bound,
    ceil_log2,
    plant,
    root_enum,
    small_value_threshold,
)

SEED = 0xD1FF
RECORD = Path(__file__).with_name("differential_corpus.json")
ABOVE_FLOOR_R_PRIME = 13
LEADS = (-3, -1, 1, 2)


def _random_integer(rng):
    deg = rng.randint(1, 8)
    return Polynomial([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice(LEADS)]), None


def _planted(rng):
    p = rng.randint(-6, 6)
    quads = ((Fraction(p), Fraction(p * p // 4 + rng.randint(1, 3))),) if rng.random() < 0.25 else ()
    budget = 6 - 2 * len(quads)  # degree <= 6
    mults = []
    for left in range(rng.randint(1, 4 - len(quads)), 0, -1):
        mults.append(rng.randint(1, min(3, budget - sum(mults) - left + 1)))
    nums = rng.sample(range(-79, 80), len(mults))
    roots = tuple((Fraction(v, 8), m) for v, m in zip(nums, mults))
    planted = plant(PlantedSpec(real_roots=roots, irreducible_quadratics=quads,
                                leading=Fraction(rng.choice(LEADS))))
    return planted.polynomial, planted


def _mignotte(rng):
    d, a = rng.randint(3, 10), rng.randint(2, 5)
    lin = Polynomial([-1, a])
    return Polynomial([0] * d + [1]) - (lin * lin).scale(2), None


def _cluster(rng):
    c = Fraction(rng.randint(-8, 8), 8)
    spec = PlantedSpec(real_roots=tuple((c + Fraction(j, 1024), 1)
                                        for j in range(rng.randint(2, 4))),
                       leading=Fraction(rng.choice(LEADS)))
    planted = plant(spec)
    return planted.polynomial, planted


# (family, draw, count, r at the floor and at 2^-(d*r), r above the floor)
FAMILIES = (
    ("integer", _random_integer, 240, (8, 16, 32), (3, 4, 5, 6)),
    ("planted", _planted, 240, (8, 16, 32), (3, 4, 6, 8)),
    ("mignotte", _mignotte, 48, (8, 16, 24), (3, 4, 5, 6)),
    ("cluster", _cluster, 80, (12, 16, 24), (4, 6, 8, 11)),
)


def corpus_calls(seed=SEED):
    """(name, polynomial, r, gamma) for every call, in a fixed order."""
    rng = random.Random(seed)
    calls = []
    for family, draw, count, deep_rs, coarse_rs in FAMILIES:
        for i in range(count):
            poly, planted = draw(rng)
            d = poly.degree
            deep_r = rng.choice(deep_rs)
            coarse_r = max(3, min(rng.choice(coarse_rs),
                                  ABOVE_FLOOR_R_PRIME - 1 - ceil_log2(cauchy_bound(poly))))
            name = f"{family}/{i}"
            if planted is not None:
                sep = planted.delta_min if planted.delta_min is not None else Fraction(1)
                gamma = small_value_threshold(poly, sep, ApproxContext(r=deep_r, d=d),
                                              planted.factor_floor)
                calls.append((f"{name}/floor/r{deep_r}", poly, deep_r, gamma))
            calls.append((f"{name}/dr/r{deep_r}", poly, deep_r, Fraction(1, 1 << (d * deep_r))))
            calls.append((f"{name}/r/r{coarse_r}", poly, coarse_r, Fraction(1, 1 << coarse_r)))
            calls.append((f"{name}/64/r{coarse_r}", poly, coarse_r, Fraction(1, 64)))
    return calls


def outcome_digest(poly, r, gamma) -> str:
    try:
        result = root_enum(poly, PrecisionParams(r=r, gamma=gamma))
    except CertirootError as exc:
        text = f"error:{type(exc).__name__}"
    else:
        text = ";".join(f"{q.numerator}/{q.denominator}" for q in result.candidates)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_corpus_digests():
    recorded = json.loads(RECORD.read_text())
    calls = corpus_calls()
    assert [name for name, *_ in calls] == list(recorded)
    changed = [name for name, poly, r, gamma in calls
               if outcome_digest(poly, r, gamma) != recorded[name]]
    assert not changed, f"{len(changed)} of {len(calls)} calls changed: {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    digests = {name: outcome_digest(poly, r, gamma) for name, poly, r, gamma in corpus_calls()}
    RECORD.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"recorded {len(digests)} calls in {RECORD}")
