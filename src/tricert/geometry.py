"""Triangle family and certified perturbation factors between its members.

The normalized family: T(theta) has vertices O = (0,0), A = (1,0) and
B = (cos theta, sin theta), so the apex angle at O is theta and both legs
OA, OB have length 1.  Every unit-diameter triangle is congruent to a
scaled copy of some member with theta in (0, pi/3] after the usual
normalization (longest side on [0,1], apex in the lens above it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rounding import Interval, dn, up


@dataclass(frozen=True)
class Shear:
    """The triangle of apex (c, s) as its pencil on T_ref sees it (:mod:`fem`):
    the float c, and enclosures of kappa = c^2 + s^2 - 1 and s2 = s^2."""

    c: float
    kappa: Interval
    s2: Interval

    def mesh_size(self, n: int) -> float:
        """A certified upper bound on the longest edge of the n-fold
        uniform mesh: the sides have squared lengths 1, c^2 + s^2 = 1 +
        kappa and (1 - c)^2 + s^2 = 2 - 2c + kappa."""
        c = Interval(self.c)
        longest = max(1.0, (1.0 + self.kappa).hi, (2.0 - 2.0 * c + self.kappa).hi)
        return up(up(math.sqrt(longest)) / n)


@dataclass(frozen=True)
class TriangleShape:
    """A triangle O, A = (1,0), B, parametrized by the angle at O when isoceles.

    Instances from :func:`triangle_from_angle` stand for T_c, apex (c,
    sqrt(1 - c^2)) on the unit circle (``on_circle``), whose height ``by``
    holds to rounding; :func:`triangle_from_vertex` admits any apex above
    the base.  The certified solves read a triangle through :attr:`shear`.
    """

    theta: float
    bx: float
    by: float
    on_circle: bool = False

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi):
            raise ValueError(f"apex angle must lie in (0, pi), got {self.theta}")
        if self.by <= 0.0:
            raise ValueError("apex must lie strictly above the base line")

    @property
    def vertices(self) -> np.ndarray:
        return np.array([[0.0, 0.0], [1.0, 0.0], [self.bx, self.by]])

    @property
    def diameter(self) -> float:
        a = math.hypot(self.bx, self.by)            # |OB|
        b = math.hypot(self.bx - 1.0, self.by)      # |AB|
        return max(1.0, a, b)

    @property
    def area(self) -> float:
        return 0.5 * self.by

    @property
    def shear(self) -> Shear:
        """c = bx, and on the unit circle kappa = 0 and s^2 = 1 - c^2,
        elsewhere s^2 = by^2 and kappa = c^2 + s^2 - 1."""
        c = Interval(self.bx)
        if self.on_circle:
            return Shear(self.bx, Interval(0.0), 1.0 - c * c)
        s2 = Interval(self.by) * Interval(self.by)
        return Shear(self.bx, c * c + s2 - 1.0, s2)


def triangle_from_angle(theta: float) -> TriangleShape:
    """Member T_c of the isoceles-leg family, c = fl(cos theta): apex (c,
    sqrt(1 - c^2)) on the unit circle, at angle arccos c, within rounding
    of theta."""
    if not (0.0 < theta < math.pi):
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    return TriangleShape(theta, math.cos(theta), math.sin(theta), on_circle=True)


def triangle_from_vertex(bx: float, by: float) -> TriangleShape:
    """Triangle with base (0,0)-(1,0) and apex (bx, by), by > 0."""
    theta = math.atan2(by, bx)
    return TriangleShape(theta, bx, by)


def perturbation_factor_bounds(
    theta: float, theta_lo: float, theta_hi: float
) -> tuple[float, float]:
    """Certified (inf low, sup high) of the factors for theta_tilde in [theta_lo, theta_hi].

    The shear-scale map Q = [[1, alpha], [0, beta]] that fixes O and A and
    sends T(theta) onto T(theta_tilde) gives (Q Q^T)^{-1} the eigenvalues

        (cos theta - 1) / (cos theta_tilde - 1),
        (cos theta + 1) / (cos theta_tilde + 1).

    Pushing a function through Q scales its Rayleigh quotient by a
    factor between them, so with (low, high) = (min, max) of the pair
    every Laplacian eigenvalue, discrete or continuous, satisfies

        low * lambda_k(theta) <= lambda_k(theta_tilde) <= high * lambda_k(theta).

    Each ratio is a Moebius function of cos(theta_tilde), hence monotone in
    theta_tilde, so extremes sit at the interval endpoints.  Endpoint ratio
    values are evaluated with outward rounding and the result gets a final
    4-ulp outward inflation.  theta_lo = 0 is admitted as a closure point:
    the (cos-1) ratio diverges there and the inf/sup are taken over the
    remaining finite candidates, which is the correct limit since
    low -> (cos theta + 1)/2 and high -> infinity as theta_tilde -> 0.
    """
    if not (0.0 < theta < math.pi):
        raise ValueError("theta must lie in (0, pi)")
    if not (0.0 <= theta_lo <= theta_hi < math.pi):
        raise ValueError("need 0 <= theta_lo <= theta_hi < pi")
    # Endpoint extremality is not assumed: each ratio r(t) has
    # dr/dt proportional to sin(t) with a fixed-sign prefactor
    # (cos(theta) -+ 1), so verifying sin > 0 at both endpoints of an
    # interval inside [0, pi) certifies strict monotonicity across it.
    for tt in (theta_lo, theta_hi):
        if tt > 0.0 and not (math.sin(tt) > 0.0):
            raise ValueError(f"ratio monotonicity check failed at theta_tilde={tt}")
    if not (math.cos(theta) - 1.0 < 0.0 < math.cos(theta) + 1.0):
        raise ValueError(f"ratio monotonicity check failed at theta={theta}")
    ct = Interval(dn(math.cos(theta), 2), up(math.cos(theta), 2))
    lows: list[float] = []
    highs: list[float] = []
    for tt in (theta_lo, theta_hi):
        ctt = Interval(dn(math.cos(tt), 2), up(math.cos(tt), 2))
        num2 = ct + 1.0
        den2 = ctt + 1.0
        r2 = num2 / den2
        if tt == 0.0:
            # (cos theta - 1)/(cos theta_tilde - 1) -> +inf; only r2 is finite
            lows.append(r2.lo)
            highs.append(math.inf)
            continue
        num1 = ct - 1.0
        den1 = ctt - 1.0
        r1 = num1 / den1
        lows.extend((r1.lo, r2.lo))
        highs.extend((r1.hi, r2.hi))
    return dn(min(lows), 4), up(max(highs), 4)
