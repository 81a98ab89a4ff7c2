"""End-to-end CLI behavior: file parsing, gamma resolution, report formats,
structured errors, and the JSON round-trip back into result objects."""

import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import certiroot
from certiroot import (
    CertirootError,
    InvalidArgument,
    PrecisionParams,
    Polynomial,
    RootCandidateList,
    root_enum,
)
from certiroot.cli import main


@pytest.fixture
def poly_file(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def report_to_candidates(report: dict) -> RootCandidateList:
    """Rebuild a RootCandidateList from a parsed JSON report (round-trip)."""
    return RootCandidateList(
        candidates=tuple(Fraction(c["value"]) for c in report["candidates"]),
        interval_width=Fraction(report["interval_width"]),
        length_bound=report["length_bound"],
        beta=None if report["beta"] is None else Fraction(report["beta"]),
        grid_bound=report["grid_bound"],
        r_prime=report["r_prime"],
    )


X2M2 = {"coeffs": ["-2", "0", "1"], "roots": [["-3/2", 1], ["3/2", 1]]}


# --- roots ------------------------------------------------------------------


def test_roots_text_report(capsys, poly_file):
    code, out = run(capsys, ["roots", "--poly", poly_file("p.json", X2M2), "--precision", "4"])
    assert code == 0
    assert "candidate: -45/32 -45/2^5" in out
    assert "candidate: 45/32 45/2^5" in out
    assert "gamma_source: separation" in out
    assert "length_bound: 24" in out


def test_roots_json_round_trip(capsys, poly_file):
    path = poly_file("p.json", X2M2)
    code, out = run(capsys, ["roots", "--poly", path, "--precision", "4", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["format"] == 1
    rebuilt = report_to_candidates(report)

    # the library result with the same resolved gamma must match exactly
    gamma = Fraction(report["gamma"])
    direct = root_enum(Polynomial([-2, 0, 1]), PrecisionParams(r=4, gamma=gamma))
    assert rebuilt.candidates == direct.candidates
    assert rebuilt.interval_width == direct.interval_width
    assert rebuilt.length_bound == direct.length_bound
    assert rebuilt.beta == direct.beta
    assert rebuilt.grid_bound == direct.grid_bound
    assert rebuilt.r_prime == direct.r_prime


def test_roots_deterministic_output(capsys, poly_file):
    path = poly_file("p.json", X2M2)
    argv = ["roots", "--poly", path, "--precision", "8", "--format", "json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_json_keys_sorted(capsys, poly_file):
    path = poly_file("p.json", X2M2)
    _, out = run(capsys, ["roots", "--poly", path, "--precision", "4", "--format", "json"])
    assert out.strip() == json.dumps(
        json.loads(out), sort_keys=True, separators=(", ", ": ")
    )


def test_roots_deep_precision(capsys, poly_file):
    # 1203 halvings from the whole grid to a unit cell: deeper than the
    # interpreter's default recursion limit.
    path = poly_file("p.json", X2M2)
    code, out = run(capsys, ["roots", "--poly", path, "--precision", "1200", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["r_prime"] == 1203
    assert report["cells_fired"] == 2
    for q in report_to_candidates(report).candidates:
        assert (abs(q) - Fraction(1, 2**1200)) ** 2 <= 2 <= (abs(q) + Fraction(1, 2**1200)) ** 2


def test_gamma_flag_wins(capsys, poly_file):
    path = poly_file("p.json", X2M2)
    code, out = run(
        capsys,
        ["roots", "--poly", path, "--precision", "4", "--gamma", "1/512",
         "--format", "json"],
    )
    report = json.loads(out)
    assert report["gamma"] == "1/512"
    assert report["gamma_source"] == "flag"
    assert report["warnings"] == []


def test_gamma_from_separation_block(capsys, poly_file):
    path = poly_file("p.json", {"coeffs": ["0", "-1", "1"], "separation": "1"})
    _, out = run(capsys, ["roots", "--poly", path, "--precision", "4", "--format", "json"])
    report = json.loads(out)
    # min(1, 1/2) * 1 * 2^-8
    assert report["gamma"] == "1/512"
    assert report["gamma_source"] == "separation"
    assert len(report["warnings"]) == 1 and "factor_floor defaulted to 1" in report["warnings"][0]
    # The same floor, given: the report is the same but for the warning.
    path = poly_file("q.json", {"coeffs": ["0", "-1", "1"], "separation": "1",
                                "factor_floor": "1"})
    _, out = run(capsys, ["roots", "--poly", path, "--precision", "4", "--format", "json"])
    assert json.loads(out) == {**report, "warnings": []}


def test_gamma_from_roots_block(capsys, poly_file):
    _, out = run(
        capsys,
        ["roots", "--poly", poly_file("p.json", X2M2), "--precision", "4",
         "--format", "json"],
    )
    report = json.loads(out)
    # delta = 3, clamped to 1; 2^-(2*4)
    assert report["gamma"] == "1/256"


def test_gamma_default_warns(capsys, poly_file):
    path = poly_file("p.json", {"coeffs": ["-2", "0", "1"]})
    _, out = run(capsys, ["roots", "--poly", path, "--precision", "4", "--format", "json"])
    report = json.loads(out)
    assert report["gamma_source"] == "default"
    assert report["gamma"] == "1/256"  # 2^-(2*4)
    assert any("heuristic" in w for w in report["warnings"])


def test_nonpositive_gamma_flag_is_structured_error(capsys, poly_file):
    path = poly_file("p.json", X2M2)
    code, out = run(capsys, ["roots", "--poly", path, "--precision", "4", "--gamma", "0"])
    assert code == 1
    assert out.startswith("error: ThresholdNonPositive")


# --- intersect --------------------------------------------------------------


def test_intersect_reports_candidates(capsys, poly_file):
    a = poly_file("a.json", {"coeffs": ["0", "0", "1"]})
    b = poly_file("b.json", {"coeffs": ["-1", "1", "1"]})
    code, out = run(
        capsys, ["intersect", "--a", a, "--b", b, "--precision", "8", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["difference_degree"] == 1
    values = [Fraction(c["value"]) for c in report["candidates"]]
    assert values == [Fraction(511, 512), Fraction(513, 512)]


def test_intersect_identical_is_error(capsys, poly_file):
    a = poly_file("a.json", {"coeffs": ["1", "2"]})
    b = poly_file("b.json", {"coeffs": ["1", "2"]})
    code, out = run(capsys, ["intersect", "--a", a, "--b", b, "--precision", "8"])
    assert code == 1
    assert out.startswith("error: IdenticalPolynomials")


def test_intersect_identical_json_error(capsys, poly_file):
    a = poly_file("a.json", {"coeffs": ["1", "2"]})
    b = poly_file("b.json", {"coeffs": ["1", "2"]})
    code, out = run(
        capsys, ["intersect", "--a", a, "--b", b, "--precision", "8", "--format", "json"]
    )
    assert code == 1
    record = json.loads(out)
    assert record["error"]["type"] == "IdenticalPolynomials"


def test_intersect_constant_difference(capsys, poly_file):
    a = poly_file("a.json", {"coeffs": ["5", "1", "1"]})
    b = poly_file("b.json", {"coeffs": ["0", "1", "1"]})
    code, out = run(
        capsys, ["intersect", "--a", a, "--b", b, "--precision", "8", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["candidates"] == []
    assert report["beta"] is None
    assert report["gamma"] is None


def test_intersect_constant_difference_checks_the_gamma_flag(capsys, poly_file):
    # (5 + x) - x = 5 is not enumerated, but a bad --gamma or --precision ends
    # in the record `roots` gives on x; a good --gamma changes no byte.
    a = poly_file("a.json", {"coeffs": ["5", "1"]})
    b = poly_file("b.json", {"coeffs": ["0", "1"]})
    for fmt in ("text", "json"):
        _, plain = run(capsys, ["intersect", "--a", a, "--b", b, "--precision", "8",
                                "--format", fmt])
        for precision in ("8", "0"):
            for flag in (["--gamma", "abc"], ["--gamma", "-1"], ["--gamma", "0"],
                         ["--gamma", "1/64"], []):
                args = ["--precision", precision, *flag, "--format", fmt]
                code, out = run(capsys, ["intersect", "--a", a, "--b", b, *args])
                roots_code, alone = run(capsys, ["roots", "--poly", b, *args])
                if roots_code:
                    assert (code, out) == (1, alone)
                else:
                    assert (code, out) == (0, plain)
    _, out = run(capsys, ["intersect", "--a", a, "--b", a, "--precision", "8", "--gamma", "abc"])
    assert out.startswith("error: ParseError")


def test_intersect_ignores_blocks_that_certify_only_a(capsys, poly_file):
    # The blocks are true of A = 1000x^2 + 10^6, not of A - B = (x - 1/3)^2:
    # a floor derived from them fires 2,001 cells where roots' run fires 3.
    a = poly_file("a.json", {"coeffs": ["1000000", "0", "1000"],
                             "separation": "2", "factor_floor": "1000000"})
    b = poly_file("b.json", {"coeffs": ["8999999/9", "2/3", "999"]})
    diff = poly_file("diff.json", {"coeffs": ["1/9", "-2/3", "1"]})
    _, out = run(capsys, ["intersect", "--a", a, "--b", b, "--precision", "12",
                          "--format", "json"])
    report = json.loads(out)
    assert report["gamma_source"] == "default"
    assert report["warnings"] and "heuristic" in report["warnings"][0]
    assert report["cells_fired"] <= report["length_bound"]
    _, out = run(capsys, ["roots", "--poly", diff, "--precision", "12", "--format", "json"])
    alone = json.loads(out)
    assert report.pop("difference_degree") == alone.pop("degree") == 2
    assert {**report, "command": "roots"} == alone


# --- sturm ------------------------------------------------------------------


def test_sturm_counts(capsys, poly_file):
    path = poly_file("p.json", {"coeffs": ["-2", "0", "1"]})
    code, out = run(
        capsys,
        ["sturm", "--poly", path, "--interval", "-3", "3", "--interval", "0", "2",
         "--interval", "-1/2", "1/2", "--interval", "-3/2", "3/2"],
    )
    assert code == 0
    assert "interval: -3/1 3/1 count 2" in out
    assert "interval: 0/1 2/1 count 1" in out
    assert "interval: -1/2 1/2 count 0" in out
    assert "interval: -3/2 3/2 count 2" in out
    assert "chain_length: 3" in out


def test_sturm_builds_one_chain_for_every_interval(capsys, poly_file, monkeypatch):
    built = []
    chain = certiroot.sturm.sturm_chain
    monkeypatch.setattr(certiroot.sturm, "sturm_chain", lambda p: built.append(p) or chain(p))
    path = poly_file("p.json", {"coeffs": ["-2", "0", "1"]})
    code, out = run(capsys, ["sturm", "--poly", path, "--interval", "-3", "3",
                             "--interval", "0", "2", "--interval", "-1/2", "1/2"])
    assert code == 0
    assert len(built) == 1


def test_sturm_interval_validation(capsys, poly_file):
    path = poly_file("p.json", {"coeffs": ["-2", "0", "1"]})
    code, out = run(capsys, ["sturm", "--poly", path, "--interval", "3", "-3"])
    assert code == 1
    assert out.startswith("error: ParseError")


def test_sturm_endpoint_root(capsys, poly_file):
    path = poly_file("p.json", {"coeffs": ["-1", "0", "1"]})
    code, out = run(capsys, ["sturm", "--poly", path, "--interval", "0", "1"])
    assert code == 1
    assert "EndpointIsRoot" in out


@pytest.mark.parametrize("written, plain", [
    (["bounds", "--point", "-1e-4", "--precision", "8"],
     ["bounds", "--point", "-1/10000", "--precision", "8"]),
    (["sturm", "--interval", "-1E-2", "1"], ["sturm", "--interval", "-1/100", "1"]),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_negative_value_with_an_exponent_is_a_value(capsys, poly_file, written, plain, fmt):
    """argparse would take "-1e-4" for an option and exit 2 with a usage error."""
    path = poly_file("p.json", {"coeffs": ["-2", "0", "1"]})
    code, out = run(capsys, written + ["--poly", path, "--format", fmt])
    assert (code, out) == run(capsys, plain + ["--poly", path, "--format", fmt])
    assert code == 0


# --- bounds -----------------------------------------------------------------


def test_bounds_frozen_values(capsys, poly_file):
    path = poly_file("p.json", {"coeffs": ["-2", "0", "1"]})
    code, out = run(
        capsys,
        ["bounds", "--poly", path, "--point", "1", "--precision", "8",
         "--format", "json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["lipschitz_constant"] == "2/1"
    assert report["cauchy_bound"] == "3/1"
    assert report["perturbation_bound"] == "1/8192"
    assert report["eval_tolerance"] == "990735/16777216"


# --- spectrum ---------------------------------------------------------------


def test_spectrum_command(capsys, tmp_path):
    y = tmp_path / "y.bits"
    y.write_text("1111\n")
    a1 = tmp_path / "a1.bits"
    a1.write_text("00\n")
    a2 = tmp_path / "a2.bits"
    a2.write_text("01\n")
    code, out = run(
        capsys,
        ["spectrum", "--y-bits", str(y), "--coeff-bits", str(a1),
         "--coeff-bits", str(a2), "--stages", "2,4", "--s", "1/2",
         "--length", "4", "--format", "json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["bits"] == "1000"
    assert report["d"] == 2


def test_spectrum_source_too_short(capsys, tmp_path):
    y = tmp_path / "y.bits"
    y.write_text("1\n")
    a1 = tmp_path / "a1.bits"
    a1.write_text("0\n")
    code, out = run(
        capsys,
        ["spectrum", "--y-bits", str(y), "--coeff-bits", str(a1),
         "--stages", "2,4", "--length", "4"],
    )
    assert code == 1
    assert "SourceExhausted" in out


# --- input validation -------------------------------------------------------


def test_bad_json_is_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run(capsys, ["roots", "--poly", str(path), "--precision", "4"])
    assert code == 1
    assert out.startswith("error: ParseError")


def test_missing_coeffs_key(capsys, poly_file):
    path = poly_file("p.json", {"stuff": [1]})
    code, out = run(capsys, ["roots", "--poly", path, "--precision", "4"])
    assert code == 1
    assert "coeffs" in out


def test_bad_fraction_text(capsys, poly_file):
    path = poly_file("p.json", {"coeffs": ["-2", "zero", "1"]})
    code, out = run(capsys, ["roots", "--poly", path, "--precision", "4"])
    assert code == 1
    assert out.startswith("error: ParseError")


def test_float_coefficients_rejected(capsys, poly_file):
    path = poly_file("p.json", {"coeffs": [0.5, 1]})
    code, out = run(capsys, ["roots", "--poly", path, "--precision", "4"])
    assert code == 1
    assert out.startswith("error: ParseError")


def test_missing_file(capsys, tmp_path):
    code, out = run(capsys, ["roots", "--poly", str(tmp_path / "nope.json"), "--precision", "4"])
    assert code == 1
    assert out.startswith("error: ParseError")


def test_degree_cap_env(capsys, poly_file, monkeypatch):
    payload = {"coeffs": ["1"] * 10}
    path = poly_file("p.json", payload)
    monkeypatch.setenv("CERTIROOT_MAX_DEGREE", "8")
    code, out = run(capsys, ["roots", "--poly", path, "--precision", "4"])
    assert code == 1
    assert "CERTIROOT_MAX_DEGREE" in out
    monkeypatch.setenv("CERTIROOT_MAX_DEGREE", "32")
    code, _ = run(capsys, ["roots", "--poly", path, "--precision", "4", "--gamma", "1/64"])
    # degree 9 polynomial with those coefficients has no real roots issue;
    # the point is only that the cap no longer rejects it
    assert code in (0, 1)
    assert "CERTIROOT_MAX_DEGREE" not in capsys.readouterr().out


def test_malformed_roots_block(capsys, poly_file):
    path = poly_file("p.json", {"coeffs": ["-2", "0", "1"], "roots": ["3/2"]})
    code, out = run(capsys, ["roots", "--poly", path, "--precision", "4"])
    assert code == 1
    assert out.startswith("error: ParseError")


# --- every bad argument ends in an error record -----------------------------


def test_invalid_argument_is_both_kinds():
    assert issubclass(InvalidArgument, CertirootError)
    assert issubclass(InvalidArgument, ValueError)


X2 = {"coeffs": ["-2", "0", "1"]}
BITS = {"y": "0101", "a": "0101"}
SPECTRUM = ["spectrum", "--y-bits", "{y}", "--coeff-bits", "{a}", "--length", "4", "--stages"]
# The largest precision whose 2^r prints within the default int-to-str digit
# limit: (10**4300).bit_length() - 1.
R_MAX = 14284

# A value of an integer flag that int() refuses, in BAD_ARGUMENTS's form.
INTEGER_FLAG_VALUES = {
    "roots-precision-not-an-integer": (
        "ParseError", {"p": X2}, ["roots", "--poly", "{p}", "--precision", "abc"],
        "bad --precision: 'abc'"),
    "roots-precision-exponent": (
        "ParseError", {"p": X2}, ["roots", "--poly", "{p}", "--precision", "3e2"],
        "bad --precision: '3e2'"),
    "intersect-precision-fraction": (
        "ParseError", {"p": X2, "q": {"coeffs": ["0"]}},
        ["intersect", "--a", "{p}", "--b", "{q}", "--precision", "1.5"], "bad --precision: '1.5'"),
    "bounds-precision-empty": (
        "ParseError", {"p": X2}, ["bounds", "--poly", "{p}", "--point", "1", "--precision", ""],
        "bad --precision: ''"),
    "spectrum-length-not-an-integer": (
        "ParseError", BITS, ["spectrum", "--y-bits", "{y}", "--coeff-bits", "{a}", "--stages",
                             "2,4", "--length", "abc"], "bad --length: 'abc'"),
}

# (expected error type, input files, argv with {name} standing for a file's
# path, a word the message must contain[, environment variables]). Each of
# these used to end in a traceback, a usage error, a hang, a MemoryError or
# an uncapped echo instead of an error record, or is the only input that
# reaches its raise.
BAD_ARGUMENTS = {
    "roots-precision-0": (
        "InvalidArgument", {"p": X2M2}, ["roots", "--poly", "{p}", "--precision", "0"],
        "precision"),
    "roots-precision-negative": (
        "InvalidArgument", {"p": X2M2}, ["roots", "--poly", "{p}", "--precision", "-3"],
        "precision"),
    "intersect-precision-0": (
        "InvalidArgument", {"a": X2M2, "b": {"coeffs": ["0", "1"]}},
        ["intersect", "--a", "{a}", "--b", "{b}", "--precision", "0"], "precision"),
    "bounds-precision-0": (
        "InvalidArgument", {"p": X2},
        ["bounds", "--poly", "{p}", "--point", "1", "--precision", "0"],
        "precision r must be >= 1"),
    "roots-precision-0-before-blocks": (
        "InvalidArgument", {"p": {**X2, "separation": "abc"}},
        ["roots", "--poly", "{p}", "--precision", "0"], "precision r must be >= 1"),
    "roots-precision-0-before-gamma": (
        "InvalidArgument", {"p": X2M2},
        ["roots", "--poly", "{p}", "--precision", "0", "--gamma", "0"],
        "precision r must be >= 1"),
    "separation-0": (
        "InvalidArgument", {"p": {**X2, "separation": "0"}},
        ["roots", "--poly", "{p}", "--precision", "4"], "delta_min"),
    "factor-floor-0": (
        "InvalidArgument", {"p": {**X2, "separation": "1", "factor_floor": "0"}},
        ["roots", "--poly", "{p}", "--precision", "4"], "factor_floor"),
    "non-ascii-poly": (
        "ParseError", {"p": '{"coeffs": ["1", "\u00e9"]}'.encode()},
        ["roots", "--poly", "{p}", "--precision", "4"], "ascii"),
    "over-long-int-literal": (
        "ParseError", {"p": '{"coeffs": [' + "7" * 5000 + ", 1]}"},
        ["roots", "--poly", "{p}", "--precision", "4"], "4300"),
    "deeply-nested-json": (
        "ParseError", {"p": '{"coeffs": ' + "[" * 100_000 + "]" * 100_000 + "}"},
        ["roots", "--poly", "{p}", "--precision", "4"], "recursion"),
    "non-ascii-bits": (
        "ParseError", {"y": "01\u00e9".encode(), "a": "0101"},
        ["spectrum", "--y-bits", "{y}", "--coeff-bits", "{a}", "--stages", "2,4",
         "--length", "4"], "ascii"),
    "zero-poly-with-separation": (
        "DegreeTooLow", {"p": {"coeffs": ["0"], "separation": "1"}},
        ["roots", "--poly", "{p}", "--precision", "4"], "degree"),
    "zero-poly": (
        "DegreeTooLow", {"p": {"coeffs": ["0"]}},
        ["roots", "--poly", "{p}", "--precision", "4"], "degree"),
    "negative-rational-gamma": (
        "ThresholdNonPositive", {"p": X2M2},
        ["roots", "--poly", "{p}", "--precision", "4", "--gamma", "-1/2"], "-1/2"),
    "negative-gamma-with-exponent": (
        "ThresholdNonPositive", {"p": X2M2},
        ["roots", "--poly", "{p}", "--precision", "4", "--gamma", "-3.E-5"], "got -3/100000"),
    "over-long-coefficient-string": (
        "ParseError", {"p": {"coeffs": ["1", "7" * 5000]}},
        ["roots", "--poly", "{p}", "--precision", "4"], "coeffs[1]"),
    "sturm-chain-past-int-str-limit": (
        "ParseError", {"p": {"coeffs": ["-32/1", "85/1", "-67/1", "28/1", "1/" + "3" * 3000]}},
        ["sturm", "--poly", "{p}"], "digits"),
    "long-negative-gamma": (
        "ThresholdNonPositive", {"p": X2M2},
        ["roots", "--poly", "{p}", "--precision", "4", "--gamma", "-" + "9" * 2000 + "/3"],
        "gamma must be > 0, got -333"),
    "long-gamma": (
        "DegreeUnresolved", {"p": X2M2},
        ["roots", "--poly", "{p}", "--precision", "4", "--gamma", "9" * 2000], "2*gamma = 1999"),
    "intersect-long-denominator": (
        "DegreeUnresolved", {"a": {"coeffs": ["0", "1/" + "7" * 3000]}, "b": {"coeffs": ["1"]}},
        ["intersect", "--a", "{a}", "--b", "{b}", "--precision", "4"], "= 1/777"),
    "max-degree-not-an-integer": (
        "ParseError", {"p": X2}, ["roots", "--poly", "{p}", "--precision", "4"],
        "bad CERTIROOT_MAX_DEGREE: 'abc'", {"CERTIROOT_MAX_DEGREE": "abc"}),
    "empty-coeffs": (
        "ParseError", {"p": {"coeffs": []}}, ["roots", "--poly", "{p}", "--precision", "4"],
        "non-empty list"),
    "non-binary-bits": (
        "ParseError", {"y": "0120", "a": "0101"},
        ["spectrum", "--y-bits", "{y}", "--coeff-bits", "{a}", "--stages", "2,4",
         "--length", "4"], "only '0'/'1' bits"),
    "non-integer-stage": (
        "ParseError", {"y": "0101", "a": "0101"},
        ["spectrum", "--y-bits", "{y}", "--coeff-bits", "{a}", "--stages", "2,x",
         "--length", "4"], "bad --stages: 'x'"),
    "exponent-coefficient": (
        "ParseError", {"p": {"coeffs": ["1", "1e10000000"]}},
        ["roots", "--poly", "{p}", "--precision", "4"], "coeffs[1]: '1e10000000' (a numerator"),
    "exponent-gamma": (
        "ParseError", {"p": X2},
        ["roots", "--poly", "{p}", "--precision", "4", "--gamma", "1e-10000000"],
        "bad rational for --gamma"),
    "exponent-point": (
        "ParseError", {"p": X2},
        ["bounds", "--poly", "{p}", "--point", "1e10000000", "--precision", "4"], "--point"),
    "exponent-interval": (
        "ParseError", {"p": X2},
        ["sturm", "--poly", "{p}", "--interval", "0", "1e1000000000"], "--interval"),
    "stage-past-2^40": (
        "InvalidArgument", BITS, SPECTRUM + ["2,40,1099511627776,1099511627777"],
        "stage boundary 1099511627777 < 2^1099511627776"),
    "stage-past-2^4000": (
        "InvalidArgument", BITS, SPECTRUM + [f"2,4000,{2 ** 4000},7"],
        "stage boundary 7 < 2^131820409343094310...2504575706910949376"),
    **{f"roots-entry-{name}": (
        "ParseError", {"p": {"coeffs": ["-1", "0", "1"], "roots": [entry]}},
        ["roots", "--poly", "{p}", "--precision", "4"], "roots[0] must be a [value, multiplicity]")
       for name, entry in (("one-item", ["1"]), ("string-multiplicity", ["1", "abc"]),
                           ("multiplicity-0", ["1", 0]), ("float-multiplicity", ["1", 1.5]),
                           ("three-items", ["1", 1, 2]))},
    "roots-entry-bad-value": (
        "ParseError", {"p": {"coeffs": ["-1", "0", "1"], "roots": [["abc", 1]]}},
        ["roots", "--poly", "{p}", "--precision", "4"], "bad rational for roots[0]: 'abc'"),
    "grid-bound-past-limit": (
        "ParseError", {"p": {"coeffs": ["9" + "0" * 4299, "0", "1"]}},
        ["roots", "--poly", "{p}", "--precision", "2"], "cannot print <14286-bit integer>"),
    **INTEGER_FLAG_VALUES,
    **{f"{command}-precision-{name}": (
        "ParseError", {"p": X2, "q": {"coeffs": ["0"]}},
        argv + ["--precision", str(r)], f"--precision {r} exceeds {R_MAX}")
       for command, argv in (
           ("roots", ["roots", "--poly", "{p}"]),
           ("intersect", ["intersect", "--a", "{p}", "--b", "{q}"]),
           ("bounds", ["bounds", "--poly", "{p}", "--point", "1"]))
       for name, r in (("r_max+1", R_MAX + 1), ("10^23", 10**23))},
}


MAIN = "import sys; from certiroot.cli import main; sys.exit(main(sys.argv[1:]))"


def run_bad_argument(run_limited, tmp_path, case, fmt):
    """BAD_ARGUMENTS[case] run in a limited child with --format fmt."""
    _, files, argv, _, *env = BAD_ARGUMENTS[case]
    paths = {}
    for name, content in files.items():
        path = paths[name] = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [a.format(**paths) for a in argv] + ["--format", fmt]
    return run_limited(MAIN, *argv, env=dict(*env))


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_is_an_error_record(run_limited, tmp_path, case):
    expected, _, _, word, *_ = BAD_ARGUMENTS[case]
    proc = run_bad_argument(run_limited, tmp_path, case, "json")
    assert (proc.returncode, proc.stderr) == (1, "")
    out = proc.stdout
    assert len(out) < 1000
    record = json.loads(out)
    assert record["format"] == 1
    assert record["error"]["type"] == expected
    assert word in record["error"]["message"]


@pytest.mark.parametrize("case", INTEGER_FLAG_VALUES)
def test_bad_integer_flag_value_is_a_text_record(run_limited, tmp_path, case):
    """argparse no longer converts --precision and --length, so a bad value is
    the same record in text as in json, and never a usage error (exit 2)."""
    expected, _, _, message = INTEGER_FLAG_VALUES[case]
    proc = run_bad_argument(run_limited, tmp_path, case, "text")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, f"error: {expected}: {message}\n", "")


@pytest.mark.parametrize("value", ["+4", " 4 ", "0_4", "04"])
def test_integer_flags_read_every_value_int_reads(capsys, poly_file, tmp_path, value):
    """--precision and --length take every value int() takes, as argparse's
    type=int did, and read it as int() reads it."""
    p = poly_file("p.json", X2)
    bits = tmp_path / "bits"
    bits.write_text("0101")
    for argv in (["roots", "--poly", p, "--precision"], ["bounds", "--poly", p, "--point", "1",
                 "--precision"], ["spectrum", "--y-bits", str(bits), "--coeff-bits", str(bits),
                                  "--stages", "2,4", "--length"]):
        assert run(capsys, argv + [value]) == run(capsys, argv + ["4"])
        assert run(capsys, argv + [value])[0] == 0


# At R_MAX the precision is read as before: x^2 - 2's default gamma 2^-28568,
# and the perturbation bound of `bounds`, still fail to print.
AT_R_MAX = {
    "roots": (["roots", "--poly", "{p}"], "cannot print 1/<28569-bit integer>"),
    "intersect": (["intersect", "--a", "{p}", "--b", "{q}"], "cannot print 1/<28569-bit integer>"),
    "bounds": (["bounds", "--poly", "{p}", "--point", "1"],
               "cannot print <28572-bit integer>/<42853-bit integer>"),
}


@pytest.mark.parametrize("command", AT_R_MAX)
def test_precision_r_max_is_read_as_before(run_limited, poly_file, command):
    argv, message = AT_R_MAX[command]
    paths = {"p": poly_file("p.json", X2), "q": poly_file("q.json", {"coeffs": ["0"]})}
    proc = run_limited(MAIN, *[a.format(**paths) for a in argv], "--precision", str(R_MAX))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, f"error: ParseError: {message}: over 4300 digits\n", "")


def test_a_dense_polynomial_at_the_degree_cap_gets_a_report(run_limited, poly_file):
    """A seeded dense rational polynomial of degree 64, the default
    CERTIROOT_MAX_DEGREE, ends in a report in the limited child (60 s, 1 GB).
    Its Sturm chain's coefficients reach 132,543 bits. With the chain built by
    Euclidean division on Fractions the run took 48 s on a 2-core host, and
    3.3 s with the integer build."""
    rng = random.Random(64)
    coeffs = [f"{rng.randint(-40, 40)}/{rng.randint(1, 40)}" for _ in range(64)]
    path = poly_file("dense64.json", {"coeffs": coeffs + ["7/9"]})
    proc = run_limited(MAIN, "roots", "--poly", path, "--precision", "4")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("command: roots\ndegree: 64\n")
    assert "\ncandidates: " in proc.stdout


# Wilkinson's polynomial (x - 1)(x - 2)...(x - 10).
W10 = {"coeffs": ["3628800", "-10628640", "12753576", "-8409500", "3416930", "-902055",
                  "157773", "-18150", "1320", "-55", "1"]}
UNPRINTABLE = "ParseError: cannot print 1/<14401-bit integer>: over 4300 digits"
PRECISION_PAST_LIMIT = ("ParseError: --precision 14400 exceeds 14284, above which 2^r has "
                        "over 4300 digits")

# Inputs whose report has a field past the int-to-str limit (the default
# gamma 2^-14400, or the interval width 2^-14400), with the record each
# gives. Each record comes back without a descent. A precision above 14284,
# whose 2^-r cannot print, is refused as soon as it is read, before the errors
# of PrecisionParams and of the degree checks.
PRINT_BEFORE_DESCENT = {
    "roots-default-gamma": (["roots", "--poly", "{w}", "--precision", "1440"], UNPRINTABLE),
    "intersect-default-gamma": (
        ["intersect", "--a", "{w}", "--b", "{zero}", "--precision", "1440"], UNPRINTABLE),
    "intersect-constant-difference": (
        ["intersect", "--a", "{five}", "--b", "{zero}", "--precision", "14400"],
        PRECISION_PAST_LIMIT),
    "constant-with-gamma": (
        ["roots", "--poly", "{five}", "--precision", "14400", "--gamma", "1/3"],
        PRECISION_PAST_LIMIT),
    "unresolved-leading": (
        ["roots", "--poly", "{small}", "--precision", "14400", "--gamma", "1"],
        PRECISION_PAST_LIMIT),
    "zero-gamma": (
        ["roots", "--poly", "{small}", "--precision", "14400", "--gamma", "0"],
        PRECISION_PAST_LIMIT),
}


@pytest.mark.parametrize("case", PRINT_BEFORE_DESCENT)
def test_unprintable_report_fails_before_the_descent(capsys, monkeypatch, poly_file, case):
    def descent(*args):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(certiroot.cli.rootenum, "root_enum", descent)
    argv, expected = PRINT_BEFORE_DESCENT[case]
    paths = {name: poly_file(f"{name}.json", payload) for name, payload in (
        ("w", W10), ("zero", {"coeffs": ["0"]}), ("five", {"coeffs": ["5"]}),
        ("small", {"coeffs": ["1", "1/1000"]}))}
    code, out = run(capsys, [a.format(**paths) for a in argv])
    assert (code, out) == (1, f"error: {expected}\n")


# --- golden output: every rendered byte, per subcommand and format ----------


GOLDEN_FILES = {
    "p": json.dumps(X2M2),
    "a": json.dumps({"coeffs": ["0", "0", "1"]}),
    "b": json.dumps({"coeffs": ["-1", "1", "1"]}),
    "y": "1111\n",
    "a1": "00\n",
    "a2": "01\n",
}

# argv with {name} standing for a GOLDEN_FILES path -> (exit code, text
# stdout, json stdout).
GOLDEN = {
    "roots": (
        ["roots", "--poly", "{p}", "--precision", "4"], 0,
        "command: roots\ndegree: 2\nprecision: 4\ngamma: 1/256\n"
        "gamma_source: separation\nwarning: factor_floor defaulted to 1; the 6*d^2 length "
        "bound then holds only if |leading coefficient| times the minimum of the rootless "
        "factor is >= 1\nbeta: 3/1\ngrid_bound: 4\nr_prime: 7\n"
        "interval_width: 1/16\nlength_bound: 24\ncells_fired: 2\ncandidates: 2\n"
        "candidate: -45/32 -45/2^5\ncandidate: 45/32 45/2^5\n",
        '{"beta": "3/1", "candidates": [{"dyadic": "-45/2^5", "value": "-45/32"}, '
        '{"dyadic": "45/2^5", "value": "45/32"}], "cells_fired": 2, "command": "roots", '
        '"degree": 2, "format": 1, "gamma": "1/256", "gamma_source": "separation", '
        '"grid_bound": 4, "interval_width": "1/16", "length_bound": 24, "precision": 4, '
        '"r_prime": 7, "warnings": ["factor_floor defaulted to 1; the 6*d^2 length bound '
        'then holds only if |leading coefficient| times the minimum of the rootless factor '
        'is >= 1"]}\n'),
    "intersect": (
        ["intersect", "--a", "{a}", "--b", "{b}", "--precision", "3"], 0,
        "command: intersect\ndifference_degree: 1\nprecision: 3\ngamma: 1/8\n"
        "gamma_source: default\nwarning: gamma defaulted to 2^(-d*r); the 6*d^2 "
        "length bound is heuristic without a certified root separation\nbeta: 2/1\n"
        "grid_bound: 2\nr_prime: 5\ninterval_width: 1/8\nlength_bound: 6\n"
        "cells_fired: 2\ncandidates: 2\ncandidate: 15/16 15/2^4\ncandidate: 17/16 17/2^4\n",
        '{"beta": "2/1", "candidates": [{"dyadic": "15/2^4", "value": "15/16"}, '
        '{"dyadic": "17/2^4", "value": "17/16"}], "cells_fired": 2, '
        '"command": "intersect", "difference_degree": 1, "format": 1, "gamma": "1/8", '
        '"gamma_source": "default", "grid_bound": 2, "interval_width": "1/8", '
        '"length_bound": 6, "precision": 3, "r_prime": 5, "warnings": ["gamma defaulted '
        'to 2^(-d*r); the 6*d^2 length bound is heuristic without a certified root '
        'separation"]}\n'),
    "sturm": (
        ["sturm", "--poly", "{p}", "--interval", "-3", "3", "--interval", "0", "2"], 0,
        "command: sturm\ndegree: 2\nbeta: 3/1\nchain_length: 3\nchain: -2/1 0/1 1/1\n"
        "chain: 0/1 2/1\nchain: 2/1\ninterval: -3/1 3/1 count 2\n"
        "interval: 0/1 2/1 count 1\n",
        '{"beta": "3/1", "chain": [["-2/1", "0/1", "1/1"], ["0/1", "2/1"], ["2/1"]], '
        '"chain_length": 3, "command": "sturm", "degree": 2, "format": 1, "intervals": '
        '[{"a": "-3/1", "b": "3/1", "count": 2}, {"a": "0/1", "b": "2/1", "count": 1}]}\n'),
    "bounds": (
        ["bounds", "--poly", "{p}", "--point", "1", "--precision", "8"], 0,
        "command: bounds\ndegree: 2\npoint: 1/1\nprecision: 8\nlipschitz_constant: 2/1\n"
        "cauchy_bound: 3/1\neval_tolerance: 990735/16777216\nperturbation_bound: 1/8192\n",
        '{"cauchy_bound": "3/1", "command": "bounds", "degree": 2, "eval_tolerance": '
        '"990735/16777216", "format": 1, "lipschitz_constant": "2/1", '
        '"perturbation_bound": "1/8192", "point": "1/1", "precision": 8}\n'),
    "spectrum": (
        ["spectrum", "--y-bits", "{y}", "--coeff-bits", "{a1}", "--coeff-bits",
         "{a2}", "--stages", "2,4", "--s", "1/2", "--length", "4"], 0,
        "command: spectrum\nstages: 2,4\ns: 1/2\nd: 2\nlength: 4\nbits: 1000\n",
        '{"bits": "1000", "command": "spectrum", "d": 2, "format": 1, "length": 4, '
        '"s": "1/2", "stages": "2,4"}\n'),
    "error": (
        ["roots", "--poly", "{p}", "--precision", "4", "--gamma", "0"], 1,
        "error: ThresholdNonPositive: gamma must be > 0, got 0\n",
        '{"error": {"message": "gamma must be > 0, got 0", "type": "ThresholdNonPositive"}, '
        '"format": 1}\n'),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", GOLDEN)
def test_golden_output(capsys, tmp_path, case, fmt):
    argv, expected_code, text, as_json = GOLDEN[case]
    paths = {}
    for name, content in GOLDEN_FILES.items():
        paths[name] = tmp_path / name
        paths[name].write_text(content)
    argv = [arg.format(**paths) for arg in argv] + ["--format", fmt]
    code, out = run(capsys, argv)
    assert code == expected_code
    assert out == (text if fmt == "text" else as_json)


# --- property: every input ends in a report or an error record --------------


def _rational(nums, dens=st.integers(1, 9)):
    return st.builds(lambda n, d: f"{n}/{d}", nums, dens)


# Values that a field holding a positive exact rational must reject.
_BAD = st.sampled_from([0.5, "abc", "1/0", None, [1], "", "0", "-1/2"])


def _mostly(good):
    return st.one_of(*[good] * 9, _BAD)


_POSITIVE = _rational(st.integers(1, 4))


def _poly_body(draw, den, degrees):
    """A JSON body of degree in `degrees`, with optional gamma blocks.

    Coefficients are n/den with |n| <= 100 and a leading |n| >= 50, so the
    Cauchy bound stays small (also for a difference with a lower-degree
    body over the same den) and a coarse gamma cannot make the sweep long.
    """
    degree = draw(st.sampled_from(degrees))
    nums = draw(st.lists(st.integers(-100, 100), min_size=degree + 1, max_size=degree + 1))
    if degree:
        nums[-1] = draw(st.integers(50, 100)) * draw(st.sampled_from([1, -1]))
    body = {"coeffs": [f"{n}/{den}" for n in nums]}
    if draw(st.integers(0, 9)) == 7:  # one in ten; hypothesis favours a range's ends
        body["coeffs"][draw(st.integers(0, degree))] = draw(_BAD)
    if draw(st.booleans()):
        body["separation"] = draw(_mostly(_POSITIVE))
    if draw(st.booleans()):
        root = _rational(st.integers(-8, 8), st.sampled_from([1, 2, 4]))
        pairs = st.lists(st.tuples(root, st.integers(1, 3)).map(list), max_size=4)
        body["roots"] = draw(_mostly(pairs))
    if draw(st.booleans()):
        body["factor_floor"] = draw(_mostly(_POSITIVE))
    return body


@st.composite
def cli_inputs(draw):
    """(argv with {a}/{b} standing for the body files, body a, body b)."""
    command = draw(st.sampled_from(["roots", "intersect", "bounds", "sturm"]))
    den = draw(st.sampled_from([1, 3, 8, 100]))
    a = _poly_body(draw, den, range(6))
    b = _poly_body(draw, den, range(max(1, len(a["coeffs"]) - 1)))
    argv = [command, "--format", "json"]
    argv += ["--a", "{a}", "--b", "{b}"] if command == "intersect" else ["--poly", "{a}"]
    if command != "sturm":
        argv.append(f"--precision={draw(st.integers(1, 8) | st.integers(-3, 8))}")  # mostly valid
    gamma = draw(st.sampled_from([None] * 4 + ["1/1024", "1/64", "0", "-1/2", "1/0", "abc"]))
    if command in ("roots", "intersect") and gamma is not None:
        argv += draw(st.sampled_from([[f"--gamma={gamma}"], ["--gamma", gamma]]))
    if command == "bounds":
        argv.append(f"--point={draw(_mostly(_rational(st.integers(-4, 4))))}")
    if command == "sturm" and draw(st.booleans()):
        ends = st.integers(-3, 3).map(str) | _rational(st.integers(-4, 4))
        argv += ["--interval", draw(ends), draw(ends)]
    return argv, a, b


@settings(max_examples=300, deadline=None)
@given(cli_inputs())
def test_every_cli_input_ends_in_a_report_or_an_error_record(case):
    argv, body_a, body_b = case
    out = StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"a": Path(tmp) / "a.json", "b": Path(tmp) / "b.json"}
        paths["a"].write_text(json.dumps(body_a))
        paths["b"].write_text(json.dumps(body_b))
        with redirect_stdout(out):
            code = main([arg.format(**paths) for arg in argv])
    assert code in (0, 1)
    record = json.loads(out.getvalue())
    assert record["format"] == 1
    assert ("error" in record) == (code == 1)
    if code == 1:
        assert record["error"]["type"] in certiroot.__all__


# --- module entry point -----------------------------------------------------


def test_python_dash_m_smoke(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"coeffs": ["-1", "1"]}))
    proc = subprocess.run(
        [sys.executable, "-m", "certiroot", "roots", "--poly", str(path),
         "--precision", "4", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert [c["value"] for c in report["candidates"]] == ["31/32", "33/32"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_ends_quietly(tmp_path, fmt):
    """`roots ... | head -c 50`: the report outgrows the pipe buffer, and the
    reader closes its end after 50 bytes. Exit 1, and nothing on stderr."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"coeffs": ["-2", "0", "1"]}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "certiroot", "roots", "--poly", str(path),
         "--gamma", "1/64", "--precision", "18", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (1, b"")
