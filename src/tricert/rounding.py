"""Outward-rounded scalar interval helpers.

Certified quantities are tracked as closed intervals [lo, hi] of Python
floats.  Every arithmetic step is evaluated in round-to-nearest and then
stepped outward with ``math.nextafter``; since a round-to-nearest result
is within half an ulp of the true value, one outward ulp step per
candidate dominates true directed rounding.  Library calls that are not
correctly rounded by IEEE (sin, cos) get two outward steps.

This is deliberately a minimal pairs-based kit, not a general interval
library: division by intervals containing zero and empty intervals are
rejected, because no certified formula in this package produces them.
"""

from __future__ import annotations

import math

_INF = math.inf

# machine epsilon, twice the unit roundoff: every gamma below is conservative
EPS = 2.0**-52


def up(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, _INF)
    return x


def dn(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, -_INF)
    return x


def gamma(k: int) -> float:
    """gamma_k = k EPS / (1 - k EPS), which bounds the relative error of
    k rounded operations; k EPS must stay below 1/2."""
    ke = k * EPS
    return ke / (1.0 - ke)


class Interval:
    """Closed interval with outward-rounded arithmetic.

    Supports +, -, *, / against Interval or real scalars, along with
    sqrt().  All results enclose the exact real-arithmetic image.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not (lo <= hi):
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __contains__(self, x):
        return self.lo <= x <= self.hi

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        o = _coerce(other)
        return Interval(dn(self.lo + o.lo), up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return Interval(dn(self.lo - o.hi), up(self.hi - o.lo))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        o = _coerce(other)
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(dn(min(cands)), up(max(cands)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError(f"division by interval {o} containing zero")
        cands = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(dn(min(cands)), up(max(cands)))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise ValueError(f"sqrt of interval {self} with negative lower end")
        # math.sqrt is correctly rounded, one step suffices
        return Interval(dn(math.sqrt(self.lo)), up(math.sqrt(self.hi)))

    def clamp_nonnegative(self) -> "Interval":
        """Intersect with [0, inf); valid when the enclosed true value is known >= 0."""
        return Interval(max(self.lo, 0.0), max(self.hi, 0.0))


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(float(x), float(x))


def cos_interval(theta: Interval) -> Interval:
    """Enclosure of cos over an angle interval inside [0, pi].

    cos is decreasing there, so the endpoint images bracket the range.
    Two extra ulps cover a non-correctly-rounded libm.
    """
    if theta.lo < 0.0 or theta.hi > math.pi:
        raise ValueError("cos_interval expects angles within [0, pi]")
    return Interval(dn(math.cos(theta.hi), 2), up(math.cos(theta.lo), 2))


def sin_interval(theta: Interval) -> Interval:
    """Enclosure of sin over an angle interval inside [0, pi]."""
    if theta.lo < 0.0 or theta.hi > math.pi:
        raise ValueError("sin_interval expects angles within [0, pi]")
    half = 0.5 * math.pi
    hi = 1.0 if theta.lo <= half <= theta.hi else up(max(math.sin(theta.lo), math.sin(theta.hi)), 2)
    return Interval(dn(min(math.sin(theta.lo), math.sin(theta.hi)), 2), hi)


def cot_interval(theta: Interval) -> Interval:
    """Enclosure of cot = cos/sin over an angle interval inside (0, pi)."""
    if theta.lo <= 0.0 or theta.hi >= math.pi:
        raise ValueError("cot_interval expects angles within (0, pi)")
    return cos_interval(theta) / sin_interval(theta)
