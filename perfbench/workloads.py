"""Seeded workloads for the certiroot benchmark.

A workload is a list of calls. One call is one library enumeration
(`small_value_threshold`, where the instance carries a certificate, then
`root_enum`) or one `python -m certiroot roots --format json` child process.
Every input is made here from the seed; the program under test only ever sees
the generated polynomials and files.

certiroot is imported from `src/` of the checkout this file sits in, never
from an installed copy, so a directory without the sources fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Reproduces the 200-polynomial acceptance corpus of tests/test_acceptance.py.
DEFAULT_SEED = 0xACCE55
#: Never used while tuning the program; check later speed claims on it too.
HELDOUT_SEED = 0x5EED5

MODULES = ("polyalg", "sturm", "approxsign", "errbounds", "rootenum", "testkit", "cli")

LEADS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
         Fraction(1, 2), Fraction(-1, 2))


class MissingProgram(RuntimeError):
    """The checkout holds no certiroot sources to benchmark."""


def load_certiroot() -> SimpleNamespace:
    """(Re-)import certiroot from the checkout and return its modules.

    Any certiroot modules already imported are dropped first, so repeated
    calls time a real import of the package's own modules.
    """
    if not (SRC / "certiroot" / "__init__.py").is_file():
        raise MissingProgram(f"no certiroot sources under {SRC}")
    for name in [n for n in sys.modules if n == "certiroot" or n.startswith("certiroot.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    pkg = importlib.import_module("certiroot")
    if Path(pkg.__file__).resolve().parent != SRC / "certiroot":
        raise MissingProgram(f"certiroot resolved to {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"certiroot.{name}") for name in MODULES}
    return SimpleNamespace(package=pkg, **mods)


def random_spec(mods, rng: Random, shape: tuple | None = None):
    """One planted specification, drawn exactly as the acceptance corpus draws
    it (`_random_planted(rng, 3, 8, 10, True)` in tests/test_acceptance.py):
    distinct roots on the k/8 lattice inside (-10, 10), multiplicities <= 3,
    total degree <= 6, optional irreducible quadratic factor, random leading
    unit. A given `shape` (number of quadratic factors, root multiplicities)
    replaces the drawn one; the rest is drawn as before."""
    n_quads = rng.choice((0, 0, 0, 1))
    budget = 6 - 2 * n_quads
    k = rng.randint(1, min(4, budget))
    mults, rem = [], budget
    for i in range(k):
        hi = min(3, rem - (k - 1 - i))
        mults.append(rng.randint(1, hi))
        rem -= mults[-1]
    if shape is not None:
        n_quads, mults = shape
    nums = rng.sample(range(-79, 80), len(mults))
    roots = tuple((Fraction(v, 8), m) for v, m in zip(nums, mults))
    quads = ()
    if n_quads:
        p = Fraction(rng.randint(-6, 6))
        q = Fraction(int(p * p / 4) + rng.randint(1, 3))
        quads = ((p, q),)
    return mods.testkit.PlantedSpec(real_roots=roots, irreducible_quadratics=quads,
                                    leading=rng.choice(LEADS))


def random_planted(mods, rng: Random):
    return mods.testkit.plant(random_spec(mods, rng))


def planted_corpus(mods, seed: int, size: int = 200) -> list:
    """`size` planted polynomials drawn from the seed, the i-th with the
    factor shape (root multiplicities and quadratic factors) of the i-th
    polynomial of the acceptance corpus.

    The default seed therefore gives the acceptance corpus itself. Another
    seed changes the roots, quadratics and leading units but not the shapes,
    which are what the cost of a pass depends on most, and costs the same
    number of draws to generate.
    """
    rng = Random(DEFAULT_SEED)
    shapes = []
    for _ in range(size):
        spec = random_spec(mods, rng)
        shapes.append((len(spec.irreducible_quadratics),
                       tuple(m for _, m in spec.real_roots)))
    rng = Random(seed)
    return [mods.testkit.plant(random_spec(mods, rng, shape)) for shape in shapes]


def candidates_digest(values) -> str:
    text = ";".join(f"{q.numerator}/{q.denominator}" for q in values)
    return hashlib.sha256(text.encode()).hexdigest()[:6]


def candidate_problems(candidates, roots, r: int, degree: int, certified: bool) -> list:
    """Known roots farther than 2^-r from every candidate, and more than
    6*d^2 candidates at the certified floor."""
    tol = Fraction(1, 1 << r)
    found = []
    missed = sum(1 for root in roots if not any(abs(c - root) <= tol for c in candidates))
    if missed:
        found.append(f"{missed} known roots farther than 2^-{r} from every candidate")
    if certified and len(candidates) > 6 * degree * degree:
        found.append(f"{len(candidates)} candidates at the certified floor > 6*d^2")
    return found


@dataclass
class LibCall:
    """small_value_threshold (when `cert` is given) then root_enum."""

    name: str
    poly: object
    r: int
    gamma: Fraction | None = None
    cert: tuple | None = None  # (delta_min, factor_floor) for the certified floor
    roots: tuple = ()          # exactly known real roots, for the completeness check
    seeded: bool = False       # digest recorded per seed rather than by name

    def run(self, mods, tracer=None):
        if tracer is None:
            return self._enumerate(mods)
        with tracer.span("call", call=self.name):
            return self._enumerate(mods)

    def _enumerate(self, mods):
        gamma = self.gamma
        if self.cert is not None:
            ctx = mods.errbounds.ApproxContext(r=self.r, d=self.poly.degree)
            gamma = mods.errbounds.small_value_threshold(self.poly, self.cert[0], ctx,
                                                         self.cert[1])
        return mods.rootenum.root_enum(self.poly,
                                       mods.rootenum.PrecisionParams(r=self.r, gamma=gamma))

    def digest(self, out) -> str:
        return candidates_digest(out.candidates)

    def problems(self, out) -> list[str]:
        return candidate_problems(out.candidates, self.roots, self.r, self.poly.degree,
                                  self.cert is not None)


@dataclass
class CliCall:
    """One `certiroot roots --format json` child process."""

    name: str
    poly_file: str
    r: int
    degree: int
    gamma: str | None = None  # the --gamma flag, if given
    roots: tuple = ()
    certified: bool = False   # gamma comes from a separation certificate
    seeded: bool = False

    def run(self, mods, tracer=None):
        args = ["roots", "--poly", self.poly_file, "--precision", str(self.r), "--format", "json"]
        if self.gamma is not None:
            args += ["--gamma", self.gamma]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if tracer is None:
            return subprocess.run([sys.executable, "-m", "certiroot", *args], env=env,
                                  capture_output=True, check=False)
        return tracer.run_child(self.name, HERE / "cli_traced.py", args, env)

    def digest(self, out) -> str:
        return hashlib.sha256(out.stdout).hexdigest()[:6]

    def problems(self, out) -> list[str]:
        if out.returncode != 0:
            return [f"exit {out.returncode}: {out.stderr.decode(errors='replace')[-300:]}"]
        report = json.loads(out.stdout)
        candidates = [Fraction(c["value"]) for c in report["candidates"]]
        return candidate_problems(candidates, self.roots, self.r, self.degree, self.certified)


def _product(mods, roots) -> object:
    p = mods.polyalg.Polynomial([1])
    for root in roots:
        p = p * mods.polyalg.Polynomial([-root, 1])
    return p


def _uncertified(name, poly, r, roots=()) -> LibCall:
    """No separation certificate: gamma = 2^(-d*r), as the CLI defaults to."""
    return LibCall(name, poly, r, gamma=Fraction(1, 1 << (poly.degree * r)), roots=roots)


def _planted_call(name, planted, r, gamma=None, seeded=True) -> LibCall:
    cert = None
    if gamma is None:
        sep = planted.delta_min if planted.delta_min is not None else Fraction(1)
        cert = (sep, planted.factor_floor)
    roots = tuple(root for root, _ in planted.spec.real_roots)
    return LibCall(name, planted.polynomial, r, gamma=gamma, cert=cert, roots=roots,
                   seeded=seeded)


def planted_calls(mods, seed):
    """The acceptance population: 200 planted polynomials x r in {8, 16, 32},
    each at its certified floor."""
    return [_planted_call(f"planted/{i}/r{r}", planted, r)
            for i, planted in enumerate(planted_corpus(mods, seed))
            for r in (8, 16, 32)]


def deep_calls(mods, seed):
    """A few hard instances where big-integer certification dominates."""
    Polynomial = mods.polyalg.Polynomial
    wilk10 = _product(mods, range(1, 11))
    wilk20 = _product(mods, range(1, 21))
    lin = Polynomial([-1, 10])
    mignotte = Polynomial([0] * 16 + [1]) - (lin * lin).scale(2)
    plant = lambda roots: mods.testkit.plant(mods.testkit.PlantedSpec(real_roots=roots))
    third = plant(((Fraction(1, 3), 5), (Fraction(-2), 3)))
    cluster = plant(tuple((Fraction(k, 1024), 1) for k in range(300, 306)))
    calls = [
        _uncertified("wilkinson10/r64", wilk10, 64, roots=tuple(range(1, 11))),
        _uncertified("wilkinson20/r32", wilk20, 32, roots=tuple(range(1, 21))),
        _uncertified("wilkinson20/r64", wilk20, 64, roots=tuple(range(1, 21))),
        _uncertified("mignotte16/r64", mignotte, 64),
        _planted_call("third5-minus2cubed/r128", third, 128, seeded=False),
        _planted_call("cluster6-1/1024/r64", cluster, 64, seeded=False),
    ]
    Random(seed).shuffle(calls)
    return calls


def coarse_calls(mods, seed):
    """gamma above the off-root floor: many cells fire, few ranges prune.

    The planted part is always the first 40 polynomials of the acceptance
    corpus and the seed only orders the calls: the cost of one polynomial at
    gamma = 2^-r grows steeply with its root multiplicities, so a subset drawn
    per seed moved calls per second by 2x between seeds.
    """
    Polynomial = mods.polyalg.Polynomial
    calls = [
        LibCall("x2-2/g1/64/r18", Polynomial([-2, 0, 1]), 18, Fraction(1, 64)),
        LibCall("x3-x/g1/256/r16", Polynomial([0, -1, 0, 1]), 16, Fraction(1, 256),
                roots=(-1, 0, 1)),
    ]
    for i, planted in enumerate(planted_corpus(mods, DEFAULT_SEED, size=40)):
        for r in (8, 16):
            calls.append(_planted_call(f"coarse/{i}/r{r}", planted, r, Fraction(1, 1 << r),
                                       seeded=False))
    Random(seed).shuffle(calls)
    return calls


def _rational(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _write(path: Path, coeffs, **blocks) -> str:
    body = {"coeffs": [_rational(c) for c in coeffs], **blocks}
    path.write_text(json.dumps(body), encoding="ascii")
    return str(path)


def cli_calls(mods, seed, workdir: Path):
    """CLI invocations over files written here: `x^2-2` at r=32, one planted
    file whose "roots" block sets gamma from the separation, Wilkinson d=10 at
    r=32, and `x^2-2 --gamma 1/64` at r=16, where rendering dominates."""
    rng = Random(seed)
    planted = random_planted(mods, rng)
    # gamma comes from the separation only with two distinct real roots.
    while len(planted.spec.real_roots) < 2:
        planted = random_planted(mods, rng)
    x2 = _write(workdir / "x2-2.json", (-2, 0, 1))
    wilk = _write(workdir / "wilkinson10.json", _product(mods, range(1, 11)).coeffs)
    path = _write(workdir / "planted.json", planted.polynomial.coeffs,
                  roots=[[_rational(root), m] for root, m in planted.spec.real_roots],
                  factor_floor=_rational(planted.factor_floor))
    calls = [
        CliCall("cli/x2-2/r32", x2, 32, 2),
        CliCall("cli/planted/r32", path, 32, planted.polynomial.degree,
                roots=tuple(root for root, _ in planted.spec.real_roots),
                certified=True, seeded=True),
        CliCall("cli/wilkinson10/r32", wilk, 32, 10, roots=tuple(range(1, 11))),
        CliCall("cli/x2-2/g1/64/r16", x2, 16, 2, gamma="1/64"),
    ]
    Random(seed).shuffle(calls)
    return calls


#: name -> builder(mods, seed, workdir) returning the calls of one pass.
WORKLOADS = {
    "planted": lambda mods, seed, workdir: planted_calls(mods, seed),
    "deep": lambda mods, seed, workdir: deep_calls(mods, seed),
    "coarse": lambda mods, seed, workdir: coarse_calls(mods, seed),
    "cli": cli_calls,
}


def build(name: str, mods, seed: int, workdir: Path) -> list:
    return WORKLOADS[name](mods, seed, workdir)
