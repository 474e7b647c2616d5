"""Sketch configuration: thresholds, tolerances, and the table-size solver.

All thresholds live as exact rationals so that feasibility checks and report
thresholds never flip on float rounding; ``(0.4 - 0.1) * 10`` is exactly 3
here, not 3.0000000000000004.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Literal, Union

from .errors import InvalidParameterError, check_positive_int

FractionLike = Union[Fraction, int, float, str]

# The digit limit that int(str) puts on each side of the "num/den" form.
_MAX_DIGITS = sys.int_info.default_max_str_digits


def to_fraction(value: FractionLike, name: str = "value") -> Fraction:
    """Convert ``value`` to an exact rational.

    Floats are read through their shortest decimal repr, so 0.1 means exactly
    1/10 rather than the nearest binary double. Strings accept finite
    decimal ("0.35"), ratio ("7/20"), and scientific ("1e-3") forms. A
    decimal that spells out to more than 4300 digits is rejected, so
    "1e-999999999" fails at once instead of building ``10**999999999``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        return Fraction(Decimal(repr(value)))
    if isinstance(value, str):
        try:
            if "/" in value:
                return Fraction(value)
            decimal = Decimal(value)
            if decimal.is_finite():
                _, digits, exponent = decimal.as_tuple()
                if len(digits) + abs(exponent) > _MAX_DIGITS:
                    raise ValueError(f"more than {_MAX_DIGITS} digits when written out")
            return Fraction(decimal)
        except (ValueError, ZeroDivisionError, InvalidOperation, OverflowError) as exc:
            raise InvalidParameterError(f"cannot parse {name}={value!r}: {exc}") from exc
    raise InvalidParameterError(f"cannot interpret {name}={value!r} as a rational")


def _to_threshold(value: FractionLike, name: str) -> Fraction:
    """Convert one heavy-hitter fraction and check that it lies in (0, 1)."""
    value = to_fraction(value, name)
    if not 0 < value < 1:
        raise InvalidParameterError(f"{name} must lie in (0, 1), got {value}")
    return value


def to_thresholds(phi1: FractionLike, phi2: FractionLike) -> tuple[Fraction, Fraction]:
    """Convert both heavy-hitter fractions and check that each lies in (0, 1)."""
    return _to_threshold(phi1, "phi1"), _to_threshold(phi2, "phi2")


def _check_eps1(eps1: Fraction, phi1: Fraction) -> None:
    if not 0 < eps1 <= phi1 / 2:
        raise InvalidParameterError(
            f"eps1 must satisfy 0 < eps1 <= phi1/2 = {phi1 / 2}, got {eps1}"
        )


def _coupling(phi1: Fraction, phi2: Fraction, eps1: Fraction) -> Fraction:
    # alpha, the constant that couples s1 and s2.
    return (1 + phi2) / (phi1 - eps1)


def _secondary_lhs(alpha: Fraction, s1: int, s2: int) -> Fraction:
    # Left-hand side of the secondary feasibility constraint.
    return Fraction(1, s2) + alpha / s1


@dataclass(frozen=True)
class ChhParams:
    """Thresholds, tolerances, and table sizes for the two-dimensional sketch.

    ``phi1``/``phi2`` are the heavy-hitter fractions along the primary and
    secondary dimensions, ``eps1``/``eps2`` the report tolerances, and
    ``s1``/``s2`` the outer and inner table capacities. Instances normally
    come from :func:`solve_params` (tolerances drive the sizes) or
    :meth:`ChhParams.from_raw` (sizes fixed, tolerances implied by them).
    """

    phi1: Fraction
    phi2: Fraction
    eps1: Fraction
    eps2: Fraction
    s1: int
    s2: int

    def __post_init__(self):
        parts = [self.s1, self.s2]
        for field in ("phi1", "phi2", "eps1", "eps2"):
            value = to_fraction(getattr(self, field), field)
            object.__setattr__(self, field, value)
            parts += value.as_integer_ratio()
        # Checked first: later messages and the snapshot print these integers.
        limit = sys.get_int_max_str_digits()
        if limit and any(isinstance(v, int) and abs(v) >= 10**limit for v in parts):
            raise InvalidParameterError(
                f"s1, s2 and the terms of phi1, phi2, eps1, eps2 need at most {limit} digits"
            )
        to_thresholds(self.phi1, self.phi2)
        _check_eps1(self.eps1, self.phi1)
        if self.eps2 <= 0:
            raise InvalidParameterError(f"eps2 must be positive, got {self.eps2}")
        check_positive_int(self.s1, "s1")
        check_positive_int(self.s2, "s2")

    @classmethod
    def from_raw(
        cls, phi1: FractionLike, phi2: FractionLike, s1: int, s2: int
    ) -> "ChhParams":
        """Wrap caller-chosen table sizes, e.g. for parameter sweeps.

        The tolerances become the values the sizes actually deliver: ``eps1``
        is 1/s1 (capped at phi1/2 so downstream arithmetic stays defined) and
        ``eps2`` is the feasibility left-hand side at these sizes. The
        constraint checks below then report whether those implied tolerances
        are admissible, rather than refusing to build the sketch.
        """
        phi1, phi2 = to_thresholds(phi1, phi2)
        check_positive_int(s1, "s1")
        check_positive_int(s2, "s2")
        eps1 = min(Fraction(1, s1), phi1 / 2)
        eps2 = _secondary_lhs(_coupling(phi1, phi2, eps1), s1, s2)
        return cls(phi1, phi2, eps1, eps2, s1, s2)

    @property
    def alpha(self) -> Fraction:
        """(1 + phi2) / (phi1 - eps1), the constant coupling s1 and s2."""
        return _coupling(self.phi1, self.phi2, self.eps1)

    @property
    def case(self) -> Literal["I", "II"]:
        """Which sizing regime applies: "I" when eps1 >= eps2 / (2 alpha)."""
        return "I" if self.eps1 >= self.eps2 / (2 * self.alpha) else "II"

    def primary_slack(self, n: int) -> Fraction:
        """n/s1: how far a primary estimate can fall short after n tuples."""
        return Fraction(n, self.s1)

    def pair_slack(self, f_d: int | Fraction, n: int) -> Fraction:
        """f_d/s2 + n/s1: how far a pair estimate under a primary of count f_d can fall short."""
        return Fraction(f_d, self.s2) + self.primary_slack(n)

    def constraint1_satisfied(self) -> bool:
        """Outer table large enough for the primary tolerance: 1/s1 <= eps1."""
        return self.primary_slack(1) <= self.eps1

    def constraint2_satisfied(self) -> bool:
        """Secondary feasibility: 1/s2 + alpha/s1 <= eps2, with eps2 <= phi2.

        The range check rides along because an eps2 above phi2 promises
        nothing (every secondary would clear a negative floor); this is what
        turns the flag false for undersized raw tables, whose implied eps2
        equals the left-hand side by construction.
        """
        lhs = _secondary_lhs(self.alpha, self.s1, self.s2)
        return lhs <= self.eps2 and self.eps2 <= self.phi2

    def constraints_satisfied(self) -> bool:
        return self.constraint1_satisfied() and self.constraint2_satisfied()


def solve_params(
    phi1: FractionLike,
    phi2: FractionLike,
    eps1: FractionLike,
    eps2: FractionLike,
) -> ChhParams:
    """Pick the smallest table sizes that meet both feasibility constraints.

    Writing the sizes as rates u = 1/s1, v = 1/s2, the constraints are
    u <= eps1 and alpha*u + v <= eps2; minimizing s1*s2 means maximizing u*v.
    The product is maximized on the second constraint's boundary, giving two
    regimes:

    * eps1 >= eps2 / (2 alpha): the unconstrained optimum u = eps2/(2 alpha)
      is admissible, so s1 = 2 alpha / eps2 and s2 = 2 / eps2 (case "I").
    * otherwise the first constraint binds: s1 = 1/eps1 and
      s2 = 1/(eps2 - alpha*eps1) (case "II").

    Sizes are rounded up to integers, which can only slacken the
    constraints: in case I, 1/s2 + alpha/s1 <= eps2/2 + eps2/2, and in case
    II, 1/s2 + alpha/s1 <= (eps2 - alpha*eps1) + alpha*eps1.
    """
    phi1, phi2 = to_thresholds(phi1, phi2)
    eps1 = to_fraction(eps1, "eps1")
    eps2 = to_fraction(eps2, "eps2")
    _check_eps1(eps1, phi1)
    if not 0 < eps2 <= phi2:
        raise InvalidParameterError(
            f"eps2 must satisfy 0 < eps2 <= phi2 = {phi2}, got {eps2}"
        )

    alpha = _coupling(phi1, phi2, eps1)
    if eps1 >= eps2 / (2 * alpha):
        s1 = math.ceil(2 * alpha / eps2)
        s2 = math.ceil(2 / eps2)
    else:
        s1 = math.ceil(1 / eps1)
        s2 = math.ceil(1 / (eps2 - alpha * eps1))
    return ChhParams(phi1, phi2, eps1, eps2, s1, s2)
