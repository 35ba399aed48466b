"""Directed rounding and interval kit.

The contract under test: every Interval operation returns an interval
that contains the exact real result for all real inputs drawn from the
operand intervals.  Fractions give an exact rational oracle for the
field operations; squaring gives one for sqrt.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tricert.rounding import (
    Interval,
    cos_interval,
    cot_interval,
    dn,
    sin_interval,
    up,
)

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
nonzero = finite.filter(lambda x: abs(x) > 1e-12)


@given(finite)
def test_up_dn_bracket_identity(x):
    assert dn(x) < x < up(x) or x in (math.inf, -math.inf)
    assert up(x, 3) > up(x, 1)
    assert dn(x, 3) < dn(x, 1)


def test_up_dn_zero():
    assert up(0.0) > 0.0 > dn(0.0)
    assert up(0.0) == math.ulp(0.0)


def test_interval_constructor_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan)
    iv = Interval(3.0)
    assert iv.lo == iv.hi == 3.0


@given(finite, finite, finite, finite)
def test_add_sub_mul_contain_exact(a, b, c, d):
    x = Interval(min(a, b), max(a, b))
    y = Interval(min(c, d), max(c, d))
    for op, frac_op in (
        (x + y, lambda p, q: p + q),
        (x - y, lambda p, q: p - q),
        (x * y, lambda p, q: p * q),
    ):
        exact = [
            frac_op(Fraction(p), Fraction(q))
            for p in (x.lo, x.hi)
            for q in (y.lo, y.hi)
        ]
        assert Fraction(op.lo) <= min(exact)
        assert Fraction(op.hi) >= max(exact)


@given(finite, finite, nonzero)
def test_division_contains_exact(a, b, c):
    x = Interval(min(a, b), max(a, b))
    y = Interval(c)
    q = x / y
    for p in (x.lo, x.hi):
        exact = Fraction(p) / Fraction(c)
        assert Fraction(q.lo) <= exact <= Fraction(q.hi)


def test_division_by_zero_straddling_interval():
    with pytest.raises(ZeroDivisionError):
        Interval(1.0) / Interval(-1.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        Interval(1.0) / Interval(0.0, 2.0)


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_sqrt_contains_exact(x):
    iv = Interval(x).sqrt()
    # a negative lower end (one step below zero) is conservative
    assert Fraction(iv.lo) <= 0 or Fraction(iv.lo) ** 2 <= Fraction(x)
    assert Fraction(iv.hi) >= 0
    assert Fraction(iv.hi) ** 2 >= Fraction(x)


def test_sqrt_negative_rejected():
    with pytest.raises(ValueError):
        Interval(-1.0).sqrt()


def test_clamp_nonnegative():
    iv = Interval(-1.0, 2.0).clamp_nonnegative()
    assert iv.lo == 0.0 and iv.hi == 2.0


@given(finite, finite)
def test_membership_and_width(a, b):
    iv = Interval(min(a, b), max(a, b))
    assert iv.lo in iv and iv.hi in iv
    assert iv.width >= 0.0
    assert iv.lo <= iv.mid <= iv.hi


# trig enclosures ----------------------------------------------------------

angle = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)


@given(angle, angle)
@example(2.7199505071359202, 0.6620588512772947)
def test_cos_interval_encloses_samples(a, b):
    lo, hi = min(a, b), max(a, b)
    iv = cos_interval(Interval(lo, hi))
    for k in range(33):
        # the rounded sample can land past hi, outside the operand interval
        t = min(hi, lo + (hi - lo) * k / 32)
        assert math.cos(t) in iv


@given(angle, angle)
@example(2.7199505071359202, 0.6620588512772947)
def test_sin_interval_encloses_samples(a, b):
    lo, hi = min(a, b), max(a, b)
    iv = sin_interval(Interval(lo, hi))
    for k in range(33):
        # the rounded sample can land past hi, outside the operand interval
        t = min(hi, lo + (hi - lo) * k / 32)
        assert math.sin(t) in iv
    assert iv.hi <= 1.0


def test_sin_interval_interior_maximum():
    iv = sin_interval(Interval(1.0, 2.5))  # pi/2 inside
    assert iv.hi == 1.0
    assert iv.lo <= math.sin(2.5)


@given(st.floats(min_value=1e-3, max_value=math.pi - 1e-3, allow_nan=False),
       st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
def test_cot_interval_encloses_samples(lo, width):
    hi = min(lo + width, math.pi - 1e-3)
    iv = cot_interval(Interval(lo, hi))
    for k in range(17):
        t = lo + (hi - lo) * k / 16
        assert 1.0 / math.tan(t) in iv


def test_cot_interval_domain():
    with pytest.raises(ValueError):
        cot_interval(Interval(0.0, 1.0))


def test_known_point_values():
    assert 1.0 in cos_interval(Interval(0.0))
    assert 0.5 in cos_interval(Interval(math.pi / 3))
    third = cos_interval(Interval(math.pi / 3))
    assert third.width < 1e-15
    assert 1.0 / math.sqrt(3.0) in cot_interval(Interval(math.pi / 3))
