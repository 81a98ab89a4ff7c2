"""Exception hierarchy for certiroot.

Every failure mode that callers are expected to handle derives from
:class:`CertirootError`, so the CLI (and library users) can catch one base
class and map the concrete type to a structured error record. A bad
argument, an int below its least included, raises :class:`InvalidArgument`,
also a ``ValueError``; only programming errors (a float or a bool where an
exact rational or an int is asked, a bit index < 1) do not.
A message shows each value it names through :func:`echo`, so a long one is cut.
"""

import reprlib
from fractions import Fraction


def echo(value) -> str:
    """`value` as an error message shows it: reprlib's shortening to about 40
    characters ('123...789'), a Fraction as num/den the way str shows it, and
    an integer past the int-to-str digit limit as its bit length."""
    if isinstance(value, Fraction):
        num = echo(value.numerator)
        return num if value.denominator == 1 else f"{num}/{echo(value.denominator)}"
    try:
        return reprlib.repr(value)
    except ValueError:  # sys.get_int_max_str_digits()
        return f"<{value.bit_length()}-bit integer>"


class CertirootError(Exception):
    """Base class for all certiroot errors."""


class InvalidArgument(CertirootError, ValueError):
    """An argument outside its documented domain (e.g. precision r < 1)."""


# -- polynomial arithmetic ---------------------------------------------------

class DivisionByZeroPolynomial(CertirootError):
    """Polynomial division or remainder with a zero divisor."""


# -- Sturm machinery ---------------------------------------------------------

class DegreeTooLow(CertirootError):
    """The operation needs degree >= 1 (non-constant polynomial)."""


class EndpointIsRoot(CertirootError):
    """Root counting requires interval endpoints that are not roots."""


# -- threshold / enumeration -------------------------------------------------

class ThresholdNonPositive(CertirootError):
    """Sign-decision thresholds must be > 0."""


class DegreeUnresolved(CertirootError):
    """Leading coefficient within 2*gamma of zero: the effective degree of an
    approximately-known polynomial cannot be trusted."""


class IdenticalPolynomials(CertirootError):
    """Intersection of a polynomial with itself (difference is identically 0)."""


# -- error-bound toolkit -----------------------------------------------------

class PreconditionViolated(CertirootError):
    """A quantitative precondition (e.g. |a-b| < 2^-r) does not hold."""


class DegreeMismatch(CertirootError):
    """Two coefficient vectors that must share a degree do not."""


class SeparationTooSmall(CertirootError):
    """2^-r is not small enough for the certified root-separation bound."""


# -- bit interleaving --------------------------------------------------------

class ScheduleOverflow(CertirootError):
    """A stage boundary exceeds the configured bit budget."""


class SourceExhausted(CertirootError):
    """A bit source was asked for an index past its end."""


class LengthMismatch(CertirootError):
    """A bit string's length is inconsistent with the stage schedule."""


# -- test oracles ------------------------------------------------------------

class DegreeOverflow(CertirootError):
    """A planted polynomial would exceed the configured degree cap."""


class TooLong(CertirootError):
    """Brute-force enumeration refused: input longer than the oracle cap."""


class NoSignChange(CertirootError):
    """Bisection bracket endpoints do not straddle a sign change."""


# -- CLI ---------------------------------------------------------------------

class ParseError(CertirootError):
    """Malformed input file, flag value, or guarded resource limit."""
