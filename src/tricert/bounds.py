"""Certified eigenvalue brackets and eigenfunction-error functionals.

Everything here is closed-form arithmetic on previously certified
numbers, evaluated with outward rounding so that each returned bound is
safe in its stated direction.

Core facts used (stated for a triangle T with mesh size h):

* Nonconforming correction.  With lambda_CR a Crouzeix-Raviart discrete
  eigenvalue and C_h = 0.1893 h,

      lambda_CR / (1 + C_h^2 lambda_CR) <= lambda_k(T),

  while the Rayleigh quotient R(u) of any nonzero conforming function u
  bounds lambda_1(T) from above.
  The constant 0.1893 is itself an upper bound for the interpolation
  constant of the unit-diameter family, which is what the certified
  pipeline ultimately re-establishes; its use here is a bootstrap on a
  previously published bound, not circular within one run.

* Eigenfunction defect.  If a <= lambda_1 <= b with b >= R(v) for the
  normalized conforming candidate v, and lambda_1 < c <= lambda_2, then
  the H1 defect between v and the exact normalized eigenfunction obeys

      ||grad(u - v)||^2 <= a + b - 2 a sqrt((c - b)/(c - a)) =: eta^2.

* Derivative transfer.  The shape derivative of lambda_1 at angle theta
  equals F(u) = -2 cot(theta) ||u_y||^2 + 2 (u_x, u_y) on the exact
  normalized eigenfunction, and replacing u by the candidate v costs at
  most Err = 2 sqrt(b) (2 cot(theta) + sqrt(2)) eta: splitting F(u)-F(v)
  into the cot term and the mixed term and applying Cauchy-Schwarz gives
  2 cot(theta) (||u_y|| + ||v_y||) eta + 2 sqrt(||grad u||^2+||grad v||^2) eta,
  and ||u_y||, ||v_y|| <= sqrt(b), ||grad u||^2 + ||grad v||^2 <= 2b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eigsolve import EigenEnclosure
from .rounding import Interval, cot_interval, dn, up

# upper bound for the interpolation constant over unit-diameter triangles,
# used in the nonconforming lower-bound correction
LEMMA_CONST = 0.1893


class BracketError(ValueError):
    """Certified lower bound exceeded the certified upper bound."""


@dataclass(frozen=True)
class EigBracket:
    """Two-sided bound lower <= lambda_k(T) <= upper.

    c_h records the dimensionless correction constant 0.1893 h that
    produced the lower bound.
    """

    k: int
    lower: float
    upper: float
    c_h: float = 0.0

    def __post_init__(self):
        if not (self.lower <= self.upper):
            raise BracketError(
                f"inverted bracket for k={self.k}: [{self.lower}, {self.upper}]"
            )
        if not (self.lower > 0.0):
            raise BracketError(f"bracket lower bound must be positive, got {self.lower}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def __contains__(self, x: float) -> bool:
        return self.lower <= x <= self.upper


@dataclass(frozen=True)
class DerivativePoint:
    """Derivative functional at one angle with its certified envelope.

    |dlambda_1/dtheta - f_value| <= err whenever the err inputs'
    preconditions held; the gram triple is that of the normalized
    discrete eigenfunction.
    """

    theta: float
    gram_xx: float
    gram_xy: float
    gram_yy: float
    f_value: float
    err: float


def _correction(h: float) -> Interval:
    """Enclosure of the correction constant C_h = 0.1893 h."""
    if h <= 0.0:
        raise ValueError("mesh size must be positive")
    return Interval(LEMMA_CONST) * Interval(dn(h, 4), up(h, 4))


def corrected_lower(cr: EigenEnclosure, h: float) -> float:
    """Certified lower bound on lambda_k(T) from the CR enclosure of mode k.

    lambda/(1 + C_h^2 lambda) is increasing in lambda and decreasing in
    C_h, so the safe corner is the enclosure's lower end with C_h
    rounded up.  h is the longest edge of the CR mesh.
    """
    ch = _correction(h)
    if cr.lower <= 0.0:
        raise BracketError(f"CR enclosure for k={cr.k} is not certifiably positive")
    lam = Interval(cr.lower)
    return (lam / (1.0 + ch * ch * lam)).lo


def bracket(cr: list[EigenEnclosure], cg_rho: Interval, h: float) -> list[EigBracket]:
    """Certified two-sided brackets from the CR enclosures and the CG
    Rayleigh quotient.

    Parameters
    ----------
    cr : enclosures of the lowest modes of the nonconforming problem,
        in order; one bracket is returned per enclosure.
    cg_rho : certified Rayleigh quotient R(u) of a nonzero conforming
        vector of the same continuous problem.
    h : longest mesh edge (of the CR mesh, used in the correction).

    Notes
    -----
    The lower ends are the corrected CR bounds of
    :func:`corrected_lower`.  The upper end of lambda_1 is the
    conforming Rayleigh bound lambda_1 <= R(u), which holds for any
    u != 0; the higher modes get +inf, since no conforming bound is
    computed for them.
    """
    c_h = _correction(h).hi
    return [
        EigBracket(
            k, corrected_lower(e_cr, h), up(cg_rho.hi, 4) if k == 1 else math.inf, c_h=c_h
        )
        for k, e_cr in enumerate(cr, start=1)
    ]


def eta(a: float, b: float, c: float) -> float:
    """Outward-rounded H1 eigenfunction-defect bound.

    Requires 0 < a <= b < c; returns exactly 0 for a == b (the radicand
    vanishes identically there).
    """
    if not (0.0 < a <= b < c):
        raise ValueError(f"eta needs 0 < a <= b < c, got {(a, b, c)}")
    if a == b:
        return 0.0
    q = (Interval(c) - b) / (Interval(c) - a)
    rad = Interval(a) + b - 2.0 * Interval(a) * q.sqrt()
    return up(math.sqrt(rad.clamp_nonnegative().hi), 2)


def eta_range(
    a_range: tuple[float, float],
    b_range: tuple[float, float],
    c_range: tuple[float, float],
) -> float:
    """Supremum of eta over a parameter box.

    eta^2 = a + b - 2 a sqrt(q), q = (c - b)/(c - a), is increasing in b
    (d(eta^2)/db = 1 + a / (sqrt(q)(c - a)) > 0) and decreasing in c
    (d(eta^2)/dc = -(a/sqrt(q)) (b - a)/(c - a)^2 <= 0), so those two
    directions always pin to the corner (b_hi, c_lo).  In a the sign of
    d(eta^2)/da = 1 - sqrt(q) (2 + a/(c - a)) can flip; when the
    sufficient condition sqrt(q)(2 + a/(c - a)) > 1 holds over the whole
    box the supremum is at a_lo, otherwise a certified grid scan over a
    with a Lipschitz margin on eta^2 takes over.
    """
    a_lo, a_hi = a_range
    b_lo, b_hi = b_range
    c_lo, c_hi = c_range
    if not (a_lo <= a_hi and b_lo <= b_hi and c_lo <= c_hi):
        raise ValueError("ranges must be ordered pairs")
    if not (0.0 < a_lo <= b_hi < c_lo):
        raise ValueError(
            f"eta_range needs 0 < a_lo <= b_hi < c_lo, got {(a_lo, b_hi, c_lo)}"
        )
    a_hi = min(a_hi, b_hi)  # a is a lower bound for lambda_1 <= b

    # sufficient monotonicity check at the minimizing corner of each factor
    q_min = (Interval(c_lo) - b_hi) / (Interval(c_lo) - a_lo)
    ratio_min = Interval(a_lo) / (Interval(c_hi) - a_lo)
    cond = q_min.sqrt() * (2.0 + ratio_min)
    if cond.lo > 1.0:
        return eta(a_lo, b_hi, c_lo)

    # fallback: scan a, bound the slope of eta^2 in a over the box;
    # |d(eta^2)/da| = |1 - sqrt(q)(2 + a/(c-a))| <= 3 + a_hi/(c_lo - a_hi) since q <= 1
    steps = 256
    slope = up((3.0 + Interval(a_hi) / (Interval(c_lo) - a_hi)).hi, 2)
    margin = up((a_hi - a_lo) / steps * slope, 2)
    best = 0.0
    for i in range(steps + 1):
        ai = min(a_lo + (a_hi - a_lo) * i / steps, a_hi)
        e = eta(ai, b_hi, c_lo)
        best = max(best, up(e * e, 2))
    return up(math.sqrt(up(best + margin, 2)), 2)


def F_of(gram: tuple[float, float, float], theta: float, mass: float = 1.0) -> float:
    """Discrete derivative functional -2 cot(theta) ||u_y||^2 + 2 (u_x, u_y), mass-normalized."""
    if not (0.0 < theta < math.pi):
        raise ValueError("theta must lie in (0, pi)")
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    _, C, Y = gram
    return (-2.0 / math.tan(theta) * Y + 2.0 * C) / mass


def F_interval(
    gram_xy: Interval, gram_yy: Interval, cot: Interval, mass: Interval
) -> Interval:
    """Certified enclosure of the derivative functional from interval data."""
    return (-2.0 * cot * gram_yy + 2.0 * gram_xy) / mass


def err_bound(
    lambda1_low: float,
    lambda1h_high: float,
    rho_low: float,
    theta,
    eta_value: float | None = None,
) -> float:
    """Certified bound on |F(u) - F(v)|: 2 sqrt(b) (2 cot(theta) + sqrt(2)) eta.

    Parameters
    ----------
    lambda1_low : certified lower bound a <= lambda_1.
    lambda1h_high : certified upper bound b >= max(lambda_1, R(v)).
    rho_low : certified spectral separator lambda_1 < c <= lambda_2.
    theta : angle, or (lo, hi) angle interval; the cot factor is taken
        at the supremum.
    eta_value : pre-certified defect bound to use instead of the point
        formula (callers working over parameter boxes pass the
        eta_range supremum here).
    """
    e = eta(lambda1_low, lambda1h_high, rho_low) if eta_value is None else eta_value
    if isinstance(theta, tuple):
        t = Interval(theta[0], theta[1])
    else:
        t = Interval(float(theta))
    cot = cot_interval(t)
    b = Interval(lambda1h_high)
    val = 2.0 * b.sqrt() * (2.0 * Interval(max(cot.hi, 0.0)) + Interval(2.0).sqrt()) * e
    return up(val.hi, 2)
