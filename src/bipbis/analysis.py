"""Closed-form thresholds, the first-moment exponent, and the phase classifier.

Densities are expressed in units of (log d)/d. The existence ceiling for
gamma-balanced independent sets is 1/(2*gamma*(1-gamma)); the local/low-degree
ceiling is 1/(2*gamma); their ratio is 1/(1-gamma).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .balance import check_gamma
from .errors import ParameterError

BOUNDARY_TOLERANCE = 1e-12


def check_density_scale(d: float) -> None:
    """Densities are in units of (log d)/d, which is positive only for d > 1."""
    if not d > 1:
        raise ParameterError(f"d must exceed 1 for a positive density scale, got {d}")


def existence_threshold(gamma: float) -> float:
    check_gamma(gamma)
    return 1.0 / (2.0 * gamma * (1.0 - gamma))


def algorithmic_threshold(gamma: float) -> float:
    check_gamma(gamma)
    return 1.0 / (2.0 * gamma)


class Sign(enum.Enum):
    NEGATIVE = "negative"
    ZERO = "zero"
    POSITIVE = "positive"

    @staticmethod
    def of(x: float) -> "Sign":
        if x < 0:
            return Sign.NEGATIVE
        if x > 0:
            return Sign.POSITIVE
        return Sign.ZERO


def _exponent_value(c: float, d: float, gamma: float) -> float:
    check_density_scale(d)
    f = c * math.log(d) / d
    gf = gamma * f
    hf = (1.0 - gamma) * f
    if 2.0 * gf >= 1.0 or 2.0 * hf >= 1.0:
        raise ParameterError(
            f"density out of range: need 2*gamma*f < 1 and 2*(1-gamma)*f < 1 "
            f"with f = c*log(d)/d (c={c}, d={d}, gamma={gamma})")
    return (
        -gf * math.log(2.0 * gf)
        - (0.5 - gf) * math.log(1.0 - 2.0 * gf)
        - hf * math.log(2.0 * hf)
        - (0.5 - hf) * math.log(1.0 - 2.0 * hf)
        - 2.0 * gamma * (1.0 - gamma) * f * f * d
    )


@dataclass(frozen=True)
class ExponentReport:
    """The per-vertex growth-rate exponent of the expected count of
    gamma-balanced independent sets at density c*(log d)/d."""

    c: float
    d: float
    gamma: float
    value: float
    leading_coefficient: float  # of the (log^2 d)/d term: c*(1 - 2*gamma*(1-gamma)*c)
    sign: Sign


def check_exponent_point(c: float, d: float) -> None:
    if not c > 0:
        raise ParameterError(f"c must be positive, got {c}")
    check_density_scale(d)


def first_moment_exponent(c: float, d: float, gamma: float) -> ExponentReport:
    check_gamma(gamma)
    check_exponent_point(c, d)
    value = _exponent_value(c, d, gamma)
    leading = c * (1.0 - 2.0 * gamma * (1.0 - gamma) * c)
    return ExponentReport(c=c, d=d, gamma=gamma, value=value,
                          leading_coefficient=leading, sign=Sign.of(value))


def optimal_local_threshold(d: float) -> float:
    """The root p* in (0, 1) of p = exp(-d*p), by 200 bisection steps: the
    1-local inclusion threshold that maximizes the balanced value
    min(p, exp(-d*p)) at gamma = 1/2."""
    if not d > 0:
        raise ParameterError(f"d must be positive, got {d}")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - math.exp(-d * mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class PhaseRegion(enum.Enum):
    EASY = "EASY"
    HARD = "HARD"
    NONEXISTENT = "NONEXISTENT"
    BOUNDARY = "BOUNDARY"


@dataclass(frozen=True)
class PhasePoint:
    """Per-side densities in units of (log d)/d."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.x >= 0 and self.y >= 0):
            raise ParameterError("phase coordinates must be non-negative")


def classify_phase(point: PhasePoint) -> PhaseRegion:
    """EASY when either density is below 1; with both above 1, NONEXISTENT
    when x+y < xy and HARD when x+y > xy; BOUNDARY on any defining curve."""
    x, y = point.x, point.y
    if (abs(x - 1.0) <= BOUNDARY_TOLERANCE or abs(y - 1.0) <= BOUNDARY_TOLERANCE
            or abs(x + y - x * y) <= BOUNDARY_TOLERANCE):
        return PhaseRegion.BOUNDARY
    if min(x, y) < 1.0:
        return PhaseRegion.EASY
    if x + y < x * y:
        return PhaseRegion.NONEXISTENT
    return PhaseRegion.HARD


def predicted_easy_point(epsilon: float, d: float) -> PhasePoint:
    """Operating point of the degree-1 algorithm in phase units:
    x = 1 - epsilon, y = (1-epsilon) * d^epsilon / log d."""
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    check_density_scale(d)
    return PhasePoint(1.0 - epsilon, (1.0 - epsilon) * d**epsilon / math.log(d))
