"""The package shell and its value types: exports load on first use, a CLI
run imports only what it runs, and the immutable records keep the repr,
equality, hashing and validation they had as frozen dataclasses."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import certiroot
from certiroot import (
    ApproxContext,
    InvalidArgument,
    PlantedPolynomial,
    PlantedSpec,
    Polynomial,
    PrecisionParams,
    RootCandidateList,
    StageSchedule,
    ThresholdNonPositive,
    intersect,
    plant,
    root_enum,
)

SRC = str(Path(certiroot.__file__).resolve().parents[1])


def run_python(code: str, *args) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stderr


# --- lazy exports -----------------------------------------------------------


def test_every_export_resolves():
    for name in certiroot.__all__:
        value = getattr(certiroot, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(certiroot.__all__) <= set(dir(certiroot))
    with pytest.raises(AttributeError, match="no_such_name"):
        certiroot.no_such_name


def test_import_loads_no_submodule_and_each_is_an_attribute():
    loaded = run_python(
        "import sys, certiroot\n"
        "print(sorted(m for m in sys.modules if m.startswith('certiroot.')), file=sys.stderr)\n"
        "certiroot.rootenum.root_enum, certiroot.errors.echo\n"
        "print(sorted(m for m in sys.modules if m.startswith('certiroot.')), file=sys.stderr)\n"
    ).splitlines()
    assert loaded[0] == "[]"
    assert "'certiroot.rootenum'" in loaded[1] and "'certiroot.errors'" in loaded[1]
    assert "'certiroot.testkit'" not in loaded[1]


LAZY = ("certiroot.spectrum", "certiroot.testkit", "certiroot.errbounds", "dataclasses")

ROOTS_RUN = """
import json, sys
before = set(sys.modules)
from certiroot.cli import main
code = main(["roots", "--poly", sys.argv[1], "--precision", "8", "--format", "json"])
print(json.dumps([code, sorted(set(sys.modules) - before)]), file=sys.stderr)
"""


@pytest.mark.parametrize("blocks, loads", [
    ({}, ()),
    ({"roots": [["-1", 1], ["1/2", 2]], "factor_floor": "1"}, ("certiroot.errbounds",)),
])
def test_roots_run_imports_only_what_it_runs(tmp_path, blocks, loads):
    path = tmp_path / "p.json"
    # (x + 1)(x - 1/2)^2, with or without the block that sets gamma from its roots
    path.write_text(json.dumps({"coeffs": ["1/4", "-3/4", "0", "1"], **blocks}))
    code, added = json.loads(run_python(ROOTS_RUN, str(path)))
    assert code == 0
    assert "certiroot.rootenum" in added
    assert [m for m in LAZY if m in added] == list(loads)


# --- the immutable records --------------------------------------------------


def spec():
    return PlantedSpec(real_roots=((Fraction(1, 2), 2),), irreducible_quadratics=((0, 1),),
                       leading=-2)


# (a builder called twice, the repr the frozen dataclass printed)
RECORDS = {
    "PrecisionParams": (lambda: PrecisionParams(r=4, gamma="1/256"),
                        "PrecisionParams(r=4, gamma=Fraction(1, 256))"),
    "RootCandidateList": (
        lambda: root_enum(Polynomial([-2, 0, 1]), PrecisionParams(4, Fraction(1, 256))),
        "RootCandidateList(candidates=(Fraction(-45, 32), Fraction(45, 32)), "
        "interval_width=Fraction(1, 16), length_bound=24, beta=Fraction(3, 1), "
        "grid_bound=4, r_prime=7)"),
    "RootCandidateList-defaults": (
        lambda: intersect(Polynomial([5, 1]), Polynomial([0, 1]), PrecisionParams(4, 1)),
        "RootCandidateList(candidates=(), interval_width=Fraction(1, 16), length_bound=0, "
        "beta=None, grid_bound=None, r_prime=None)"),
    "ApproxContext": (lambda: ApproxContext(r=8, d=2), "ApproxContext(r=8, d=2)"),
    "StageSchedule": (lambda: StageSchedule(stages=[2, 4], s="1/2"),
                      "StageSchedule(stages=(2, 4), s=Fraction(1, 2))"),
    "PlantedSpec": (spec,
                    "PlantedSpec(real_roots=((Fraction(1, 2), 2),), "
                    "irreducible_quadratics=((0, 1),), leading=-2)"),
    "PlantedSpec-defaults": (
        PlantedSpec,
        "PlantedSpec(real_roots=(), irreducible_quadratics=(), leading=Fraction(1, 1))"),
    "PlantedPolynomial": (
        lambda: plant(spec()),
        "PlantedPolynomial(polynomial=Polynomial([Fraction(-1, 2), Fraction(2, 1), "
        "Fraction(-5, 2), Fraction(2, 1), Fraction(-2, 1)]), spec=PlantedSpec("
        "real_roots=((Fraction(1, 2), 2),), irreducible_quadratics=((0, 1),), "
        "leading=-2), delta_min=None, factor_floor=Fraction(2, 1))"),
}


@pytest.mark.parametrize("case", RECORDS)
def test_record_repr_equality_hash_and_immutability(case):
    build, text = RECORDS[case]
    a, b = build(), build()
    assert repr(a) == text
    assert a is not b and a == b and hash(a) == hash(b)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == text


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("case", ["Polynomial", *RECORDS])
def test_copy_deepcopy_and_pickle_round_trip(case):
    build = (lambda: Polynomial(["-1/2", 0, 3])) if case == "Polynomial" else RECORDS[case][0]
    a = build()
    for how, duplicate in COPIES.items():
        b = duplicate(a)
        assert type(b) is type(a) and b == a and hash(b) == hash(a), how
        assert repr(b) == repr(a), how
        with pytest.raises(AttributeError):
            b.extra = 1


# (type, valid keyword arguments, invalid overrides with the error each raises)
VALIDATED = [
    (PrecisionParams, {"r": 4, "gamma": "1/256"},
     [({"gamma": 0}, ThresholdNonPositive), ({"gamma": "-1/2"}, ThresholdNonPositive),
      ({"r": 0}, InvalidArgument), ({"gamma": "abc"}, InvalidArgument),
      ({"r": 2.5}, TypeError), ({"r": "4"}, TypeError)]),
    (ApproxContext, {"r": 8, "d": 2},
     [({"r": 0}, InvalidArgument), ({"d": 0}, InvalidArgument),
      ({"r": 2.5}, TypeError), ({"d": 2.0}, TypeError)]),
    (StageSchedule, {"stages": (2, 4), "s": "1/2"},
     [({"stages": ()}, InvalidArgument), ({"stages": (3,)}, InvalidArgument),
      ({"stages": (2, 3)}, InvalidArgument), ({"s": 2}, InvalidArgument),
      ({"stages": (2.9, 4.5)}, TypeError), ({"stages": (2, "4")}, TypeError)]),
]


@pytest.mark.parametrize("cls, good, bad", VALIDATED, ids=[v[0].__name__ for v in VALIDATED])
def test_validation_on_every_constructor_path(cls, good, bad):
    valid = cls(**good)
    assert cls(*good.values()) == valid == cls._make(good.values())
    for override, error in bad:
        kwargs = {**good, **override}
        paths = {
            "keywords": lambda: cls(**kwargs),
            "positional": lambda: cls(*kwargs.values()),
            "_make": lambda: cls._make(kwargs.values()),
            "_replace": lambda: valid._replace(**override),
        }
        for path, construct in paths.items():
            with pytest.raises(error):
                construct()


# (constructor given a bool where an int is asked, the name its TypeError gives)
BOOL_INTS = {
    "PrecisionParams": (lambda b: PrecisionParams(b, Fraction(1, 64)), "precision r"),
    "ApproxContext": (lambda b: ApproxContext(r=b, d=b), "ApproxContext r"),
    "StageSchedule": (lambda b: StageSchedule((2, b), "1/2"), "stage boundary"),
}


@pytest.mark.parametrize("case", BOOL_INTS)
def test_bool_is_refused_where_an_int_is_asked(case):
    """bool subclasses int, but True is no precision, degree or boundary: it
    raises the TypeError a float does, rather than reading r=True in a repr."""
    build, name = BOOL_INTS[case]
    for b in (True, False):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {b}$"):
            build(b)
