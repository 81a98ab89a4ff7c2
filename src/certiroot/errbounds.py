"""Quantitative error bounds for 2^-r coefficient/point perturbations.

Everything a caller needs to reason about polynomials whose coefficients and
arguments are only known to within 2^-r: how far powers can drift
(power_diff_bound), how large an evaluation residual an honest approximate
triple can show (eval_tolerance / intersection_predicate), how to snap the
constant term so an approximate coefficient vector passes exactly through a
required point (snap_polynomial, perturbation_bound), a cheap Lipschitz
constant on [0,1], and the off-root magnitude floor that drives the sign
threshold of the root enumerator (small_value_threshold).

All bounds are exact rationals and all guarantees are proved strict where
the docstrings say so — the test suite checks them with exact arithmetic,
no epsilons.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DegreeMismatch,
    InvalidArgument,
    PreconditionViolated,
    SeparationTooSmall,
    echo,
)
from .polyalg import Polynomial, _as_fraction, _as_int, _nonconstant_degree


class ApproxContext(NamedTuple("ApproxContext", [("r", int), ("d", int)])):
    """Precision exponent r (approximations within 2^-r) and degree d."""

    __slots__ = ()

    def __new__(cls, r: int, d: int):
        r, d = _as_int(r, "ApproxContext r"), _as_int(d, "ApproxContext d")
        if r < 1 or d < 1:
            raise InvalidArgument("ApproxContext needs r >= 1 and d >= 1")
        return super().__new__(cls, r, d)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: validate it too
        return cls(*iterable)


def power_diff_bound(a, b, k: int, r: int) -> Fraction:
    """Bound B with |a^k - b^k| <= B (strict when a != b), given |a-b| < 2^-r.

    For k >= 2:  B = 2^-r * k * max(|a|, |a|^k, |b|, |b|^k), via the factor
    identity |a^k - b^k| = |a-b| * |sum a^i b^(k-1-i)| and
    max(|a|,|b|)^(k-1) <= max(M, M^k); strictness for a != b comes from the
    sum having fewer than k maximal same-sign terms. The k = 1 case needs
    the constant 1 in the max — max(|a|,|b|) alone fails below 1 — so
    B = 2^-r * max(1, |a|, |b|) (strict whenever |a-b| < 2^-r).

    Raises PreconditionViolated when |a - b| > 2^-r (inputs exactly 2^-r
    apart sit on the admissible boundary and are accepted).
    """
    a, b = _as_fraction(a), _as_fraction(b)
    k, r = _as_int(k, "k", 1), _as_int(r, "r", 1)
    step = Fraction(1, 2**r)
    if abs(a - b) > step:
        raise PreconditionViolated(f"|a-b| = {echo(abs(a - b))} exceeds 2^-{r}")
    if k == 1:
        return step * max(Fraction(1), abs(a), abs(b))
    return step * k * max(abs(a), abs(a) ** k, abs(b), abs(b) ** k)


def _drift_budget(coeffs: Polynomial, x_approx: Fraction, r: int, t_floor: int) -> Fraction:
    """(d+1) * 2^-r * (t + d*t*max|a_i|) with t = max(t_floor, u, u^d), u = |x~| + 2^-r."""
    r = _as_int(r, "r", 1)
    d = coeffs.degree
    step = Fraction(1, 2**r)
    u = abs(x_approx) + step
    t = max(t_floor, u, u**d)
    return (d + 1) * step * (t + d * t * max(abs(c) for c in coeffs.coeffs))


def eval_tolerance(coeffs: Polynomial, x_approx, r: int) -> Fraction:
    """Evaluation tolerance T = (d+1) * 2^-r * (t + d * t * max|a_i|).

    t = max(u, u^d) with u = |x_approx| + 2^-r. This is the raw drift budget
    of an exact Horner evaluation at x_approx when every coefficient and the
    point each move by less than 2^-r; see intersection_predicate for the
    acceptance test built on it. Raises DegreeTooLow below degree 1 and
    InvalidArgument for r < 1.
    """
    _nonconstant_degree(coeffs, "tolerance needs degree >= 1")
    return _drift_budget(coeffs, _as_fraction(x_approx), r, 0)


def intersection_predicate(coeffs: Polynomial, x_approx, y_approx, r: int) -> bool:
    """Accept (x_approx, y_approx) as a plausible point on the curve.

    True iff |y_approx - coeffs(x_approx)| < tau, where tau is the
    eval_tolerance formula with its scale t clamped below by 1, plus one
    extra 2^-r for the y perturbation itself:

        tau = (d+1) * 2^-r * (t^ + d * t^ * max|a_i|) + 2^-r,
        t^  = max(1, u, u^d),  u = |x_approx| + 2^-r.

    Guarantee (no false rejection): whenever there exist true (a, x, y) with
    y = a(x), every |a_i - coeffs_i| < 2^-r, |x - x_approx| < 2^-r and
    |y - y_approx| < 2^-r, the predicate is True. Proof sketch: the residual
    splits as |y_approx - y| + sum_i |a_i x^i - c_i x_approx^i|; with
    |x|^i <= t^ and |x^i - x_approx^i| <= i * 2^-r * t^ the sum is below
    (d+1)2^-r t^ + max|c_i| * 2^-r * t^ * d(d+1)/2, and the first term of the
    residual is strictly below the trailing 2^-r. Without the clamp at 1 the
    bound fails for |x_approx| + 2^-r < 1 (the y term alone can exceed the
    whole budget); with u >= 1 the clamp is inactive.
    """
    x_approx = _as_fraction(x_approx)
    y_approx = _as_fraction(y_approx)
    _nonconstant_degree(coeffs, "predicate needs degree >= 1")
    tau = _drift_budget(coeffs, x_approx, r, 1) + Fraction(1, 2**r)
    return abs(y_approx - coeffs.eval(x_approx)) < tau


def snap_polynomial(a: Polynomial, a_approx: Polynomial, x) -> Polynomial:
    """Adjust the constant term of a_approx so it agrees with a at x.

    Returns b with b_i = a_approx_i for i >= 1 and
    b_0 = a(x) - sum_{i>=1} a_approx_i x^i, so that b(x) = a(x) exactly.
    Raises DegreeMismatch unless deg(a) == deg(a_approx) >= 1.
    """
    if a.is_zero() or a_approx.is_zero() or a.degree != a_approx.degree or a.degree < 1:
        raise DegreeMismatch("snap needs two polynomials of the same degree >= 1")
    x = _as_fraction(x)
    b0 = a.eval(x) - a_approx.eval(x) + a_approx.coeffs[0]
    return Polynomial([b0] + list(a_approx.coeffs[1:]))


def perturbation_bound(x, ctx: ApproxContext) -> Fraction:
    """W = d^2 * 2^-2r * (1 + max(|x|, |x|^2d)): snap distance budget.

    If every |a_i - a_approx_i| < 2^-r then the snapped b = snap_polynomial
    (a, a_approx, x) satisfies ||a - b||^2 < W: the tail contributes less
    than d * 2^-2r and |b_0 - a_0| = |sum_{i>=1}(a_approx_i - a_i) x^i|
    < 2^-r * d * max(|x|, |x|^d).
    """
    x = _as_fraction(x)
    d = ctx.d
    spread = max(abs(x), abs(x) ** (2 * d))
    return d * d * Fraction(1, 2 ** (2 * ctx.r)) * (1 + spread)


def lipschitz_constant(p: Polynomial) -> Fraction:
    """c = sum_{i>=1} i * |c_i|: a Lipschitz constant for p on [0, 1].

    sup over [0,1] of |p'| is at most this, so |p(y) - p(x)| <= c |y - x|
    there. Constants (and the zero polynomial) give 0.
    """
    return sum((i * abs(c) for i, c in enumerate(p.coeffs)), Fraction(0))


def small_value_threshold(
    p: Polynomial, delta_min, ctx: ApproxContext, factor_floor=Fraction(1)
) -> Fraction:
    """Off-root magnitude floor gamma = min(1, delta_min/2) * factor_floor * 2^(-d*r).

    delta_min must be a positive caller-certified lower bound on the minimum
    separation between distinct real roots of p (any positive value is
    vacuously valid when fewer than two exist). factor_floor must be a
    positive lower bound for |leading coefficient| times the rootless factor
    of p over all of R (for lc * prod(x^2 + p_j x + q_j) that is
    |lc| * prod(q_j - p_j^2 / 4); the default 1 is only sound when that
    product is >= 1). Under those certificates, every y strictly farther
    than 2^-r from all real roots of p satisfies |p(y)| > gamma.

    Raises SeparationTooSmall when 2^-r >= delta_min / 2.
    """
    delta_min = _as_fraction(delta_min)
    factor_floor = _as_fraction(factor_floor)
    if delta_min <= 0:
        raise InvalidArgument("delta_min must be > 0")
    if factor_floor <= 0:
        raise InvalidArgument("factor_floor must be > 0")
    d = _nonconstant_degree(p, "threshold needs degree >= 1")
    step = Fraction(1, 2**ctx.r)
    if step >= delta_min / 2:
        raise SeparationTooSmall(f"2^-{ctx.r} >= {echo(delta_min)}/2")
    return min(Fraction(1), delta_min / 2) * factor_floor * Fraction(1, 2 ** (d * ctx.r))
