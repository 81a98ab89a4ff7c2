"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# A child under a 60 s limit and a 1 GB address-space limit: an input that
# hangs or builds a huge power on a regression fails its test instead of
# stalling the run or exhausting the machine's memory.
LIMITS = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"


@pytest.fixture
def run_limited():
    """run(code, *args, env={}) runs python -c code with args in a limited child
    and returns the CompletedProcess (text stdout and stderr)."""

    def run(code, *args, env=()):
        return subprocess.run(
            [sys.executable, "-c", LIMITS + code, *args],
            env={**os.environ, "PYTHONPATH": SRC, **dict(env)},
            capture_output=True, text=True, timeout=60,
        )

    return run


@pytest.fixture(scope="session")
def chain_inputs():
    """Polynomials whose Sturm chains the integer build must rescale exactly:
    repeated factors, negative and non-unit rational leading coefficients,
    dense rational coefficients (denominators up to 10^12 to degree 12, up to
    10 to degree 24), Wilkinson d=20, Mignotte x^16 - 2(10x - 1)^2 and
    x^1000 - 2."""
    import functools
    import random
    from fractions import Fraction

    from certiroot import Polynomial

    rng = random.Random(0xC4A1)

    def rational_roots(deg):
        roots = {Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(deg)}
        lead = Polynomial([Fraction(rng.choice([-7, -2, -1, 3, 5]), rng.randint(1, 9))])
        return functools.reduce(lambda p, rho: p * Polynomial([-rho, 1]), roots, lead)

    inputs = []
    for _ in range(20):
        g = rational_roots(rng.randint(1, 3))
        inputs.append(rational_roots(rng.randint(1, 3)) * g * g
                      * (g if rng.random() < 0.5 else Polynomial([1])))
    for deg in [1, 2, 3, 5, 8, 12, 16, 20, 24]:
        digits = 12 if deg <= 12 else 1
        coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 10 ** rng.randint(0, digits)))
                  for _ in range(deg)]
        lead = Fraction(rng.choice([-7, -2, -1, 3, 5]), rng.randint(1, 10**6))
        inputs.append(Polynomial(coeffs + [lead]))
    inputs.append(functools.reduce(lambda p, k: p * Polynomial([-k, 1]), range(1, 21),
                                   Polynomial([1])))
    inputs.append(Polynomial([-2, 40, -200] + [0] * 13 + [1]))
    inputs.append(Polynomial([-2] + [0] * 999 + [1]))
    return inputs
