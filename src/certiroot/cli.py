"""certiroot command-line front end.

Subcommands:

    roots      enumerate dyadic root candidates of one polynomial
    intersect  candidates for A(x) = B(x), i.e. roots of A - B
    sturm      print the Sturm chain and exact root counts per interval
    bounds     print the error-bound toolkit values for a point/precision
    spectrum   interleave bit sources according to a stage schedule

Polynomial files are JSON: {"coeffs": ["num/den", ...]} with index 0 the
constant term and rationals as strings to preserve exactness. Optional
blocks certify the file's own polynomial: "roots": [["num/den",
multiplicity], ...] and/or "separation": "num/den" (certified minimum root
separation) let `roots` derive the sign threshold gamma via the small-value
floor; "factor_floor": "num/den" supplies the rootless-factor constant. A block
without it uses 1, and the report warns when it does.
`intersect` reads no blocks; a certified gamma for A - B is passed with
--gamma. Without a block and without --gamma, gamma defaults to 2^(-d*r) and
the report carries a warning that the 6*d^2 length bound is then heuristic.

Reports are deterministic (byte-identical for identical inputs). `main` puts
each report and each error record in one envelope, "format": 1, and `emit`
renders it: "key: value" lines (an error: "error: Type: message") or one JSON
object. A CertirootError (a bad argument is InvalidArgument, also a ValueError)
exits 1; its message echoes a bad value shortened (errors.echo), and a value
past the int-to-str digit limit is a ParseError, raised before the descent for
gamma, beta, grid_bound and the grid width. The limit also bounds a rational
written with an exponent (its numerator and denominator) and the --precision
of roots, intersect and bounds (2^r), each checked before the power is built;
a limit of 0 lifts both. Negative rationals such as -1/2 are flag
values. Each integer (--precision, --length, a --stages entry and
CERTIROOT_MAX_DEGREE) is read by int_arg where a command reads it, so a bad
value is a ParseError record, not a usage error; --precision's whole range,
[1, r_max], is checked there, before any block or --gamma is read.
CERTIROOT_MAX_DEGREE (default 64) guards runaway inputs.
A reader that closes stdout early ends the run with status 1 and no traceback.
Modules a subcommand alone needs (errbounds, spectrum) are imported where used,
so a `roots` run without a separation block does not load them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import rootenum, sturm
from .errors import CertirootError, ParseError, echo
from .polyalg import Polynomial, _as_int, _fraction_from_str, _nonconstant_degree

FORMAT_VERSION = 1
DEFAULT_MAX_DEGREE = 64


# -- serialization helpers ---------------------------------------------------

def frac_str(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # a part past sys.get_int_max_str_digits()
        raise ParseError(f"cannot print {echo(q)}: over "
                         f"{sys.get_int_max_str_digits()} digits") from None


def dyadic_str(q: Fraction) -> str:
    """"m/2^k" rendering of a candidate, whose denominator is always 2^(r+1)."""
    return f"{q.numerator}/2^{q.denominator.bit_length() - 1}"


def parse_fraction(text: str, what: str) -> Fraction:
    """`text` as a Fraction; a bad one's message echoes it shortened, as '123...789'."""
    if isinstance(text, float):
        reason = ' (floats lose exactness; write the value as a string like "1/2")'
    elif not isinstance(text, (str, int)):
        reason = ""
    else:
        try:
            return _fraction_from_str(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            reason = f" ({exc})".replace(repr(text), echo(text))
    raise ParseError(f"bad rational for {what}: {echo(text)}{reason}")


def int_arg(text: str, flag: str) -> int:
    """An integer flag's or variable's value as int() reads it; a bad one is a
    ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {flag}: {echo(text)}") from None


def precision_arg(args) -> int:
    """--precision r of roots, intersect and bounds, its whole range [1, r_max]
    checked here, before any block or --gamma is read. Each report holds a
    denominator of at least 2^r, so above r_max, the largest r whose 2^r prints
    within the digit limit (0: none), r is a ParseError before 2^r is built."""
    r = _as_int(int_arg(args.precision, "--precision"), "precision r", 1)
    limit = sys.get_int_max_str_digits()
    r_max = (10**limit).bit_length() - 1
    if limit and r > r_max:
        raise ParseError(f"--precision {echo(r)} exceeds {r_max}, above which 2^r "
                         f"has over {limit} digits")
    return r


# -- input files -------------------------------------------------------------

def max_degree_limit() -> int:
    raw = os.environ.get("CERTIROOT_MAX_DEGREE", "")
    if not raw:
        return DEFAULT_MAX_DEGREE
    return int_arg(raw, "CERTIROOT_MAX_DEGREE")


def load_poly_file(path: str) -> tuple[Polynomial, dict]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also non-ASCII, long ints, nesting
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ParseError(f'{path} must be a JSON object with a "coeffs" list')
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise ParseError(f'"coeffs" in {path} must be a non-empty list')
    limit = max_degree_limit()
    if len(coeffs) - 1 > limit:
        raise ParseError(
            f"declared degree {len(coeffs) - 1} exceeds CERTIROOT_MAX_DEGREE={limit}"
        )
    return Polynomial([parse_fraction(c, f"coeffs[{i}]") for i, c in enumerate(coeffs)]), data


def load_bits_file(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = "".join(fh.read().split())
    except (OSError, ValueError) as exc:  # ValueError: non-ASCII text
        raise ParseError(f"cannot read {path}: {exc}") from None
    if set(text) - {"0", "1"}:
        raise ParseError(f"{path} must contain only '0'/'1' bits")
    return text


# -- gamma resolution --------------------------------------------------------

def resolve_gamma(poly: Polynomial, data: dict, r: int, flag_value):
    """Returns (gamma, source, warnings). Order: flag > certified block > default."""
    if flag_value is not None:
        return parse_fraction(flag_value, "--gamma"), "flag", []
    delta = None
    if "separation" in data:
        delta = parse_fraction(data["separation"], "separation")
    elif "roots" in data:
        entries = data["roots"]
        if not isinstance(entries, list):
            raise ParseError('"roots" must be a list of [value, multiplicity] pairs')
        for i, e in enumerate(entries):
            if not (isinstance(e, list) and len(e) == 2 and type(e[1]) is int and e[1] >= 1):
                raise ParseError(f"roots[{i}] must be a [value, multiplicity] pair with an "
                                 f"integer multiplicity >= 1, got {echo(e)}")
        values = sorted({parse_fraction(e[0], f"roots[{i}]") for i, e in enumerate(entries)})
        if len(values) >= 2:
            delta = min(b - a for a, b in zip(values, values[1:]))
    if delta is not None:
        floor = parse_fraction(data.get("factor_floor", "1"), "factor_floor")
    d = _nonconstant_degree(poly, "root enumeration needs degree >= 1")
    if delta is not None:
        from . import errbounds

        ctx = errbounds.ApproxContext(r=r, d=d)
        gamma = errbounds.small_value_threshold(poly, delta, ctx, factor_floor=floor)
        warnings = [] if "factor_floor" in data else [
            "factor_floor defaulted to 1; the 6*d^2 length bound then holds only if "
            "|leading coefficient| times the minimum of the rootless factor is >= 1"]
        return gamma, "separation", warnings
    warning = ("gamma defaulted to 2^(-d*r); the 6*d^2 length bound is heuristic "
               "without a certified root separation")
    return Fraction(1, 2 ** (d * r)), "default", [warning]


# -- report rendering --------------------------------------------------------

def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(", ", ": ")))
        return
    for key, value in report.items():
        if key == "error":
            print(f"error: {value['type']}: {value['message']}")
        elif key == "candidates":
            print(f"candidates: {len(value)}")
            for cand in value:
                print(f"candidate: {cand['value']} {cand['dyadic']}")
        elif key == "chain":
            for coeffs in value:
                print("chain: " + " ".join(coeffs))
        elif key == "intervals":
            for iv in value:
                print(f"interval: {iv['a']} {iv['b']} count {iv['count']}")
        elif key == "warnings":
            for w in value:
                print(f"warning: {w}")
        elif key != "format":
            print(f"{key}: {value}")


def candidate_report(result: rootenum.RootCandidateList, r: int, resolved: tuple) -> dict:
    """The fields `roots` and `intersect` share; `resolved` is resolve_gamma's triple."""
    gamma, source, warnings = resolved
    report = {
        "precision": r,
        "gamma": None if gamma is None else frac_str(gamma),
        "gamma_source": source,
        "warnings": warnings,
        "beta": None if result.beta is None else frac_str(result.beta),
        "grid_bound": result.grid_bound,
        "r_prime": result.r_prime,
        "interval_width": frac_str(result.interval_width),
        "length_bound": result.length_bound,
        "cells_fired": len(result.candidates),
        "candidates": [
            {"value": frac_str(q), "dyadic": dyadic_str(q)} for q in result.candidates
        ],
    }
    if result.grid_bound:  # a raw int in the report: frac_str's test, before emit
        frac_str(result.grid_bound)
    return report


# -- subcommands: each returns its own fields; main adds the envelope --------

def enumerate_report(poly: Polynomial, data: dict, r: int, flag_value) -> dict:
    """poly's candidate fields, gamma from flag_value or from data, poly's own
    blocks. The grid's fields render first: an unprintable report fails fast."""
    resolved = resolve_gamma(poly, data, r, flag_value)
    params = rootenum.PrecisionParams(r, resolved[0])
    candidate_report(rootenum._grid(poly, params), r, resolved)
    return candidate_report(rootenum.root_enum(poly, params), r, resolved)


def cmd_roots(args) -> dict:
    poly, data = load_poly_file(args.poly)
    return {"degree": poly.degree, **enumerate_report(poly, data, precision_arg(args), args.gamma)}


def cmd_intersect(args) -> dict:
    pa, _ = load_poly_file(args.a)
    pb, _ = load_poly_file(args.b)
    diff, r = pa - pb, precision_arg(args)
    if diff.is_zero() or diff.degree == 0:  # nothing to enumerate: a flag is checked, not used
        gamma = 1 if args.gamma is None else parse_fraction(args.gamma, "--gamma")
        result = rootenum.intersect(pa, pb, rootenum.PrecisionParams(r, gamma))
        fields = candidate_report(result, r, (None, None, []))
    else:  # A's blocks do not describe A - B: gamma comes from --gamma or the default
        fields = enumerate_report(diff, {}, r, args.gamma)
    return {"difference_degree": diff.degree, **fields}


def cmd_sturm(args) -> dict:
    poly, _ = load_poly_file(args.poly)
    chain = sturm.sturm_chain(poly)
    beta = sturm.cauchy_bound(poly)
    if args.interval:
        intervals = [
            (parse_fraction(a, "--interval"), parse_fraction(b, "--interval"))
            for a, b in args.interval
        ]
    else:
        intervals = [(-beta, beta)]
    rows = []
    for a, b in intervals:
        if a >= b:
            raise ParseError(f"--interval needs A < B, got {echo(a)} {echo(b)}")
        rows.append(
            {"a": frac_str(a), "b": frac_str(b), "count": sturm._count_in(chain, a, b)}
        )
    return {
        "degree": poly.degree,
        "beta": frac_str(beta),
        "chain_length": len(chain),
        "chain": [[frac_str(c) for c in q.coeffs] for q in chain],
        "intervals": rows,
    }


def cmd_bounds(args) -> dict:
    from . import errbounds

    poly, _ = load_poly_file(args.poly)
    x = parse_fraction(args.point, "--point")
    r = precision_arg(args)
    ctx = errbounds.ApproxContext(r=r, d=max(poly.degree or 0, 1))
    return {
        "degree": poly.degree,
        "point": frac_str(x),
        "precision": r,
        "lipschitz_constant": frac_str(errbounds.lipschitz_constant(poly)),
        "cauchy_bound": frac_str(sturm.cauchy_bound(poly)),
        "eval_tolerance": frac_str(errbounds.eval_tolerance(poly, x, r)),
        "perturbation_bound": frac_str(errbounds.perturbation_bound(x, ctx)),
    }


def cmd_spectrum(args) -> dict:
    from . import spectrum

    stages = tuple(int_arg(h, "--stages") for h in args.stages.split(","))
    sched = spectrum.StageSchedule(stages, parse_fraction(args.s, "--s"))
    y = spectrum.BitSource(load_bits_file(args.y_bits))
    coeff_sources = [spectrum.BitSource(load_bits_file(p)) for p in args.coeff_bits]
    length = int_arg(args.length, "--length")
    bits = spectrum.interleave(y, coeff_sources, sched, length)
    return {
        "stages": ",".join(str(h) for h in sched.stages),
        "s": frac_str(sched.s),
        "d": len(coeff_sources),
        "length": length,
        "bits": bits,
    }


# -- entry point -------------------------------------------------------------

# Every flag, declared once; a subcommand lists the flags it takes, in order.
FLAGS = {
    "--poly": {"required": True},
    "--a": {"required": True},
    "--b": {"required": True},
    "--precision": {"required": True},
    "--gamma": {},
    "--interval": {"nargs": 2, "action": "append", "metavar": ("A", "B")},
    "--point": {"required": True},
    "--y-bits": {"required": True},
    "--coeff-bits": {"action": "append", "required": True,
                     "help": "one file per coefficient source a_1..a_d, in order"},
    "--stages": {"required": True, "help": "comma-separated boundaries, e.g. 2,4,16"},
    "--s": {"default": "1/2"},
    "--length": {"required": True},
    "--format": {"choices": ("text", "json"), "default": "text"},
}

COMMANDS = (
    ("roots", cmd_roots, "enumerate dyadic root candidates", "--poly --precision --gamma"),
    ("intersect", cmd_intersect, "candidates for A(x) = B(x)", "--a --b --precision --gamma"),
    ("sturm", cmd_sturm, "Sturm chain and interval root counts", "--poly --interval"),
    ("bounds", cmd_bounds, "error-bound toolkit values", "--poly --point --precision"),
    ("spectrum", cmd_spectrum, "interleave bit sources per a schedule",
     "--y-bits --coeff-bits --stages --s --length"),
)

# argparse takes "-1/2" or "-1e-4" for an option. Any "-" then a digit, or "."
# and a digit, is a value here; parse_fraction accepts it or makes the record.
NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certiroot",
        description="certified real-root enumeration for exact-rational polynomials",
    )
    parser._negative_number_matcher = NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = NEGATIVE_NUMBER
        for flag in flags.split() + ["--format"]:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = {"format": FORMAT_VERSION, "command": args.command, **args.func(args)}
    except CertirootError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        report = {"format": FORMAT_VERSION, "error": error}
    try:
        emit(report, args.format)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # End like a Unix filter: point stdout at devnull so the exit-time flush
        # cannot raise again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if "error" in report else 0
