"""certiroot command-line front end.

Subcommands:

    roots      enumerate dyadic root candidates of one polynomial
    intersect  candidates for A(x) = B(x), i.e. roots of A - B
    sturm      print the Sturm chain and exact root counts per interval
    bounds     print the error-bound toolkit values for a point/precision
    spectrum   interleave bit sources according to a stage schedule

Polynomial files are JSON: {"coeffs": ["num/den", ...]} with index 0 the
constant term and rationals as strings to preserve exactness. Optional
blocks: "roots": [["num/den", multiplicity], ...] and/or "separation":
"num/den" (certified minimum root separation) let the tool derive the sign
threshold gamma via the small-value floor; "factor_floor": "num/den"
supplies the rootless-factor constant. Without any of these and without
--gamma, gamma defaults to 2^(-d*r) and the report carries a warning that
the 6*d^2 length bound is then heuristic.

Reports are deterministic (byte-identical for identical inputs): text is
"key: value" lines, JSON carries a top-level "format": 1. Every handled
failure is a CertirootError (a bad argument is InvalidArgument, also a
ValueError) and prints a structured record with exit status 1. The
environment variable CERTIROOT_MAX_DEGREE (default 64) guards runaway inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import errbounds, rootenum, spectrum, sturm
from .errors import CertirootError, DegreeTooLow, InvalidArgument, ParseError
from .polyalg import Polynomial

FORMAT_VERSION = 1
DEFAULT_MAX_DEGREE = 64


# -- serialization helpers ---------------------------------------------------

def frac_str(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def dyadic_str(q: Fraction) -> str | None:
    """"m/2^k" rendering when the denominator is a power of two, else None."""
    den = q.denominator
    if den & (den - 1):
        return None
    return f"{q.numerator}/2^{den.bit_length() - 1}"


def parse_fraction(text: str, what: str) -> Fraction:
    if isinstance(text, float):
        raise ParseError(
            f"bad rational for {what}: {text!r} (floats lose exactness; "
            'write the value as a string like "1/2")'
        )
    if not isinstance(text, (str, int)):
        raise ParseError(f"bad rational for {what}: {text!r}")
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational for {what}: {text!r} ({exc})") from None


# -- input files -------------------------------------------------------------

def max_degree_limit() -> int:
    raw = os.environ.get("CERTIROOT_MAX_DEGREE", "")
    if not raw:
        return DEFAULT_MAX_DEGREE
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"CERTIROOT_MAX_DEGREE is not an integer: {raw!r}") from None


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
        if not isinstance(entries, list) or not all(
            isinstance(e, list) and e for e in entries
        ):
            raise ParseError('"roots" must be a list of [value, multiplicity] pairs')
        values = sorted({parse_fraction(e[0], "roots") for e in entries})
        if len(values) >= 2:
            delta = min(b - a for a, b in zip(values, values[1:]))
    if delta is not None:
        floor = parse_fraction(data.get("factor_floor", "1"), "factor_floor")
    if r < 1:  # after the blocks parse (their errors come first), before r, d are used
        raise InvalidArgument("precision r must be >= 1")
    if poly.is_zero() or poly.degree < 1:
        raise DegreeTooLow("root enumeration needs degree >= 1")
    if delta is not None:
        ctx = errbounds.ApproxContext(r=r, d=poly.degree)
        gamma = errbounds.small_value_threshold(poly, delta, ctx, factor_floor=floor)
        return gamma, "separation", []
    warning = ("gamma defaulted to 2^(-d*r); the 6*d^2 length bound is heuristic "
               "without a certified root separation")
    return Fraction(1, 2 ** (poly.degree * r)), "default", [warning]


# -- report rendering --------------------------------------------------------

def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(", ", ": ")))
        return
    for key, value in report.items():
        if key == "format":
            continue
        if key == "candidates":
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
        else:
            print(f"{key}: {value}")


def candidate_report(result: rootenum.RootCandidateList) -> dict:
    return {
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


# -- subcommands -------------------------------------------------------------

def cmd_roots(args) -> dict:
    poly, data = load_poly_file(args.poly)
    gamma, source, warnings = resolve_gamma(poly, data, args.precision, args.gamma)
    params = rootenum.PrecisionParams(r=args.precision, gamma=gamma)
    result = rootenum.root_enum(poly, params)
    report = {
        "format": FORMAT_VERSION,
        "command": "roots",
        "degree": poly.degree,
        "precision": args.precision,
        "gamma": frac_str(gamma),
        "gamma_source": source,
        "warnings": warnings,
    }
    report.update(candidate_report(result))
    return report


def cmd_intersect(args) -> dict:
    pa, data_a = load_poly_file(args.a)
    pb, _ = load_poly_file(args.b)
    diff = pa - pb
    if diff.is_zero() or diff.degree == 0:
        gamma, source, warnings = None, None, []
    else:
        gamma, source, warnings = resolve_gamma(diff, data_a, args.precision, args.gamma)
    params = rootenum.PrecisionParams(
        r=args.precision, gamma=gamma if gamma is not None else Fraction(1)
    )
    result = rootenum.intersect(pa, pb, params)
    report = {
        "format": FORMAT_VERSION,
        "command": "intersect",
        "difference_degree": diff.degree,
        "precision": args.precision,
        "gamma": None if gamma is None else frac_str(gamma),
        "gamma_source": source,
        "warnings": warnings,
    }
    report.update(candidate_report(result))
    return report


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
            raise ParseError(f"--interval needs A < B, got {a} {b}")
        rows.append(
            {"a": frac_str(a), "b": frac_str(b), "count": sturm.count_roots(poly, a, b)}
        )
    return {
        "format": FORMAT_VERSION,
        "command": "sturm",
        "degree": poly.degree,
        "beta": frac_str(beta),
        "chain_length": len(chain),
        "chain": [[frac_str(c) for c in q.coeffs] for q in chain],
        "intervals": rows,
    }


def cmd_bounds(args) -> dict:
    poly, _ = load_poly_file(args.poly)
    x = parse_fraction(args.point, "--point")
    r = args.precision
    ctx = errbounds.ApproxContext(r=r, d=max(poly.degree or 0, 1))
    return {
        "format": FORMAT_VERSION,
        "command": "bounds",
        "degree": poly.degree,
        "point": frac_str(x),
        "precision": r,
        "lipschitz_constant": frac_str(errbounds.lipschitz_constant(poly)),
        "cauchy_bound": frac_str(sturm.cauchy_bound(poly)),
        "eval_tolerance": frac_str(errbounds.eval_tolerance(poly, x, r)),
        "perturbation_bound": frac_str(errbounds.perturbation_bound(x, ctx)),
    }


def cmd_spectrum(args) -> dict:
    try:
        stages = tuple(int(h) for h in args.stages.split(","))
    except ValueError:
        raise ParseError(f"bad --stages: {args.stages!r}") from None
    sched = spectrum.StageSchedule(stages, parse_fraction(args.s, "--s"))
    y = spectrum.BitSource(load_bits_file(args.y_bits))
    coeff_sources = [spectrum.BitSource(load_bits_file(p)) for p in args.coeff_bits]
    bits = spectrum.interleave(y, coeff_sources, sched, args.length)
    return {
        "format": FORMAT_VERSION,
        "command": "spectrum",
        "stages": ",".join(str(h) for h in sched.stages),
        "s": frac_str(sched.s),
        "d": len(coeff_sources),
        "length": args.length,
        "bits": bits,
    }


# -- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certiroot",
        description="certified real-root enumeration for exact-rational polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fmt(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("roots", help="enumerate dyadic root candidates")
    p.add_argument("--poly", required=True)
    p.add_argument("--precision", type=int, required=True)
    p.add_argument("--gamma")
    add_fmt(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("intersect", help="candidates for A(x) = B(x)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--precision", type=int, required=True)
    p.add_argument("--gamma")
    add_fmt(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("sturm", help="Sturm chain and interval root counts")
    p.add_argument("--poly", required=True)
    p.add_argument("--interval", nargs=2, action="append", metavar=("A", "B"))
    add_fmt(p)
    p.set_defaults(func=cmd_sturm)

    p = sub.add_parser("bounds", help="error-bound toolkit values")
    p.add_argument("--poly", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--precision", type=int, required=True)
    add_fmt(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("spectrum", help="interleave bit sources per a schedule")
    p.add_argument("--y-bits", required=True)
    p.add_argument("--coeff-bits", action="append", required=True,
                   help="one file per coefficient source a_1..a_d, in order")
    p.add_argument("--stages", required=True, help="comma-separated boundaries, e.g. 2,4,16")
    p.add_argument("--s", default="1/2")
    p.add_argument("--length", type=int, required=True)
    add_fmt(p)
    p.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except CertirootError as exc:
        record = {
            "format": FORMAT_VERSION,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        if args.format == "json":
            print(json.dumps(record, sort_keys=True, separators=(", ", ": ")))
        else:
            print(f"error: {type(exc).__name__}: {exc}")
        return 1
    emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
