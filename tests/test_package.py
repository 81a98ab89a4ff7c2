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
    BitSource,
    InvalidArgument,
    PlantedPolynomial,
    PlantedSpec,
    Polynomial,
    PrecisionParams,
    RootCandidateList,
    StageSchedule,
    ThresholdNonPositive,
    bisect_root,
    ceil_log2,
    default_schedule,
    eval_tolerance,
    extract_blocks,
    interleave,
    intersect,
    intersection_predicate,
    max_sign_change,
    min_sign_change,
    plant,
    power_diff_bound,
    root_enum,
    sign_extremes,
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
      ({"r": 2.5}, TypeError), ({"r": "4"}, TypeError), ({"gamma": True}, TypeError)]),
    (ApproxContext, {"r": 8, "d": 2},
     [({"r": 0}, InvalidArgument), ({"d": 0}, InvalidArgument),
      ({"r": 2.5}, TypeError), ({"d": 2.0}, TypeError)]),
    (StageSchedule, {"stages": (2, 4), "s": "1/2"},
     [({"stages": ()}, InvalidArgument), ({"stages": (3,)}, InvalidArgument),
      ({"stages": (2, 3)}, InvalidArgument), ({"s": 2}, InvalidArgument),
      ({"stages": (2.9, 4.5)}, TypeError), ({"stages": (2, "4")}, TypeError),
      ({"s": True}, TypeError)]),
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


X2M2 = Polynomial([-2, 0, 1])
SCHEDULE = StageSchedule((2, 4), "1/2")

# (call given one int parameter's value, the name its errors give, a valid
# value, the least value or None)
INT_PARAMETERS = {
    "power_diff_bound-k": (lambda v: power_diff_bound("1/3", "1/3", v, 4), "k", 2, 1),
    "power_diff_bound-r": (lambda v: power_diff_bound("1/3", "1/3", 2, v), "r", 4, 1),
    "eval_tolerance-r": (lambda v: eval_tolerance(X2M2, 1, v), "r", 4, 1),
    "intersection_predicate-r": (lambda v: intersection_predicate(X2M2, 1, -1, v), "r", 4, 1),
    "default_schedule-j_max": (lambda v: default_schedule(v), "j_max", 2, 1),
    "default_schedule-max_bits": (lambda v: default_schedule(2, max_bits=v), "max_bits", 16, None),
    "extract_blocks-d": (lambda v: extract_blocks("0110", SCHEDULE, v), "d", 2, 1),
    "interleave-n": (lambda v: interleave(BitSource("11"), [BitSource("11")], SCHEDULE, v),
                     "n", 3, None),
    "plant-multiplicity": (lambda v: plant(PlantedSpec(real_roots=((0, v),))),
                           "multiplicity", 2, 1),
    "plant-max_degree": (lambda v: plant(PlantedSpec(), max_degree=v), "max_degree", 0, None),
    "bisect_root-r": (lambda v: bisect_root(X2M2, 0, 2, v), "r", 4, 0),
}


@pytest.mark.parametrize("case", INT_PARAMETERS)
def test_int_parameter_is_read_through_one_gate(case):
    """Every int parameter refuses a float with the TypeError that names it,
    and a value below its least with InvalidArgument, where it is given."""
    call, name, valid, least = INT_PARAMETERS[case]
    call(valid)
    for bad in (2.5, 1.0, -3.0):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {bad}$"):
            call(bad)
    if least is not None:
        with pytest.raises(InvalidArgument, match=f"^{name} must be >= {least}$"):
            call(least - 1)


# (call given a bool where an int is asked, the name its TypeError gives)
BOOL_INTS = {
    "PrecisionParams": (lambda b: PrecisionParams(b, Fraction(1, 64)), "precision r"),
    "ApproxContext": (lambda b: ApproxContext(r=b, d=b), "ApproxContext r"),
    "StageSchedule": (lambda b: StageSchedule((2, b), "1/2"), "stage boundary"),
    **{case: (call, name) for case, (call, name, _, _) in INT_PARAMETERS.items()},
}


@pytest.mark.parametrize("case", BOOL_INTS)
def test_bool_is_refused_where_an_int_is_asked(case):
    """bool subclasses int, but True is no precision, degree or boundary: it
    raises the TypeError a float does, rather than reading r=True in a repr."""
    build, name = BOOL_INTS[case]
    for b in (True, False):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {b}$"):
            build(b)


# (call given a value where an exact rational is asked)
RATIONALS = {
    "Polynomial": lambda v: Polynomial([v]),
    "ceil_log2": ceil_log2,
    "max_sign_change-gamma": lambda v: max_sign_change((1, Fraction(1, 1000), -1), v),
    "min_sign_change-gamma": lambda v: min_sign_change((1, Fraction(1, 1000), -1), v),
    "sign_extremes-gamma": lambda v: sign_extremes((1, Fraction(1, 1000), -1), v),
}


@pytest.mark.parametrize("case", RATIONALS)
def test_float_and_bool_are_not_exact_rationals(case):
    for bad in (0.01, True, False):
        with pytest.raises(TypeError, match=f"^not an exact rational: {bad}$"):
            RATIONALS[case](bad)
