"""certiroot — certified real-root enumeration with exact rational arithmetic.

Core pieces: exact polynomial arithmetic (polyalg), Sturm chains and exact
root counting (sturm), trust-threshold sign-change brackets (approxsign),
the dyadic-grid root enumerator and intersection solver (rootenum), the
quantitative error-bound toolkit (errbounds), a bit-interleaving transducer
(spectrum), brute-force oracles for testing (testkit), and a batch CLI (cli).
"""

from .approxsign import max_sign_change, min_sign_change
from .errbounds import (
    ApproxContext,
    eval_tolerance,
    intersection_predicate,
    lipschitz_constant,
    perturbation_bound,
    power_diff_bound,
    small_value_threshold,
    snap_polynomial,
)
from .errors import (
    CertirootError,
    DegreeMismatch,
    DegreeOverflow,
    DegreeTooLow,
    DegreeUnresolved,
    DivisionByZeroPolynomial,
    EndpointIsRoot,
    IdenticalPolynomials,
    InvalidArgument,
    LengthMismatch,
    NoSignChange,
    ParseError,
    PreconditionViolated,
    ScheduleOverflow,
    SeparationTooSmall,
    SourceExhausted,
    ThresholdNonPositive,
    TooLong,
)
from .polyalg import Polynomial, euclid_rem, poly_divmod
from .rootenum import (
    PrecisionParams,
    RootCandidateList,
    ceil_log2,
    intersect,
    root_enum,
)
from .spectrum import (
    BitSource,
    StageSchedule,
    default_schedule,
    extract_blocks,
    interleave,
)
from .sturm import (
    cauchy_bound,
    count_roots,
    sign_variations,
    sturm_chain,
    sturm_eval,
)
from .testkit import PlantedPolynomial, PlantedSpec, bisect_root, plant, sign_extremes

__version__ = "0.1.0"

__all__ = [
    "ApproxContext",
    "BitSource",
    "CertirootError",
    "DegreeMismatch",
    "DegreeOverflow",
    "DegreeTooLow",
    "DegreeUnresolved",
    "DivisionByZeroPolynomial",
    "EndpointIsRoot",
    "IdenticalPolynomials",
    "InvalidArgument",
    "LengthMismatch",
    "NoSignChange",
    "ParseError",
    "PlantedPolynomial",
    "PlantedSpec",
    "Polynomial",
    "PrecisionParams",
    "PreconditionViolated",
    "RootCandidateList",
    "ScheduleOverflow",
    "SeparationTooSmall",
    "SourceExhausted",
    "StageSchedule",
    "ThresholdNonPositive",
    "TooLong",
    "bisect_root",
    "ceil_log2",
    "cauchy_bound",
    "count_roots",
    "default_schedule",
    "euclid_rem",
    "eval_tolerance",
    "extract_blocks",
    "interleave",
    "intersect",
    "intersection_predicate",
    "lipschitz_constant",
    "max_sign_change",
    "min_sign_change",
    "perturbation_bound",
    "plant",
    "poly_divmod",
    "power_diff_bound",
    "root_enum",
    "sign_extremes",
    "sign_variations",
    "small_value_threshold",
    "snap_polynomial",
    "sturm_chain",
    "sturm_eval",
]
