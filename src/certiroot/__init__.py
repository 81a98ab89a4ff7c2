"""certiroot — certified real-root enumeration with exact rational arithmetic.

Core pieces: exact polynomial arithmetic (polyalg), Sturm chains and exact
root counting (sturm), trust-threshold sign-change brackets (approxsign),
the dyadic-grid root enumerator and intersection solver (rootenum), the
quantitative error-bound toolkit (errbounds), a bit-interleaving transducer
(spectrum), brute-force oracles for testing (testkit), and a batch CLI (cli).

Importing the package loads none of them: each export, and each module as
an attribute (``certiroot.rootenum``), loads on first use, so a CLI run
imports only what it runs.
"""

import importlib

__version__ = "0.1.0"

# Every export, by the module that defines it.
_EXPORTS = {
    "approxsign": "max_sign_change min_sign_change",
    "errbounds": "ApproxContext eval_tolerance intersection_predicate lipschitz_constant "
                 "perturbation_bound power_diff_bound small_value_threshold snap_polynomial",
    "errors": "CertirootError DegreeMismatch DegreeOverflow DegreeTooLow DegreeUnresolved "
              "DivisionByZeroPolynomial EndpointIsRoot IdenticalPolynomials InvalidArgument "
              "LengthMismatch NoSignChange ParseError PreconditionViolated ScheduleOverflow "
              "SeparationTooSmall SourceExhausted ThresholdNonPositive TooLong",
    "polyalg": "Polynomial euclid_rem poly_divmod",
    "rootenum": "PrecisionParams RootCandidateList ceil_log2 intersect root_enum",
    "spectrum": "BitSource StageSchedule default_schedule extract_blocks interleave",
    "sturm": "cauchy_bound count_roots sign_variations sturm_chain sturm_eval",
    "testkit": "PlantedPolynomial PlantedSpec bisect_root plant sign_extremes",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
