"""Point/line duality and exact, division-free sign predicates.

The duality used throughout the package maps the plane z = a*x + b*y + c to
the point (a, b, -c) and the point (x0, y0, z0) to the plane
z = x0*x + y0*y - z0 (one dimension lower, the same with y in place of z).
The map is an involution and reverses above/below relations, which turns
upper envelopes of planes into lower convex hulls of points.

Sign predicates return an exact three-valued result.  The determinant sign
is evaluated with error-free float transforms (two-product / two-sum
expansions) after normalising exponents, so the result is exact for every
finite double, including denormals, without any epsilon.
"""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

from .errors import NonFiniteInput

__all__ = [
    "Sign",
    "Point2",
    "Point3",
    "Line2",
    "Plane3",
    "dual_of_plane",
    "dual_of_point",
    "dual_of_line",
    "dual_of_point2",
    "orientation_exact",
    "exact_product_compare",
]


class Sign(IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


class Point2(NamedTuple):
    x: float
    y: float


class Point3(NamedTuple):
    x: float
    y: float
    z: float


class Line2(NamedTuple):
    """The line y = m*x + c."""

    m: float
    c: float

    def value(self, x: float) -> float:
        return self.m * x + self.c


class Plane3(NamedTuple):
    """The plane z = a*x + b*y + c."""

    a: float
    b: float
    c: float

    def value(self, x: float, y: float) -> float:
        return self.a * x + self.b * y + self.c


def dual_of_plane(p: Plane3) -> Point3:
    """Dual point (a, b, -c) of the plane z = a*x + b*y + c."""
    return Point3(p.a, p.b, -p.c)


def dual_of_point(p: Point3) -> Plane3:
    """Dual plane z = x0*x + y0*y - z0 of the point (x0, y0, z0)."""
    return Plane3(p.x, p.y, -p.z)


def dual_of_line(l: Line2) -> Point2:
    """Dual point (m, -c) of the line y = m*x + c."""
    return Point2(l.m, -l.c)


def dual_of_point2(p: Point2) -> Line2:
    """Dual line y = px*x - py of the point (px, py)."""
    return Line2(p.x, -p.y)


# --- exact sign arithmetic ------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves
_EPS = 2.0 ** -53
_ERRBOUND = (3.0 + 16.0 * _EPS) * _EPS
# Below this magnitude the relative error bound no longer holds because the
# products may be denormal; such comparisons take the exact path directly.
_NO_UNDERFLOW = 1e-280


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _expansion_sum_zeroelim(e: list[float], f: list[float]) -> list[float]:
    """Sum two nonoverlapping increasing-magnitude expansions exactly.

    The result is zero-eliminated; its last component is the largest and
    carries the sign of the whole sum.
    """
    elen = len(e)
    flen = len(f)
    enow = e[0]
    fnow = f[0]
    eindex = findex = 0
    if (fnow > enow) == (fnow > -enow):
        q = enow
        eindex = 1
        enow = e[1] if elen > 1 else 0.0
    else:
        q = fnow
        findex = 1
        fnow = f[1] if flen > 1 else 0.0
    h: list[float] = []
    if eindex < elen and findex < flen:
        if (fnow > enow) == (fnow > -enow):
            qnew = enow + q
            hh = q - (qnew - enow)
            eindex += 1
            enow = e[eindex] if eindex < elen else 0.0
        else:
            qnew = fnow + q
            hh = q - (qnew - fnow)
            findex += 1
            fnow = f[findex] if findex < flen else 0.0
        q = qnew
        if hh != 0.0:
            h.append(hh)
        while eindex < elen and findex < flen:
            if (fnow > enow) == (fnow > -enow):
                qnew, hh = _two_sum(q, enow)
                eindex += 1
                enow = e[eindex] if eindex < elen else 0.0
            else:
                qnew, hh = _two_sum(q, fnow)
                findex += 1
                fnow = f[findex] if findex < flen else 0.0
            q = qnew
            if hh != 0.0:
                h.append(hh)
    while eindex < elen:
        qnew, hh = _two_sum(q, enow)
        eindex += 1
        enow = e[eindex] if eindex < elen else 0.0
        q = qnew
        if hh != 0.0:
            h.append(hh)
    while findex < flen:
        qnew, hh = _two_sum(q, fnow)
        findex += 1
        fnow = f[findex] if findex < flen else 0.0
        q = qnew
        if hh != 0.0:
            h.append(hh)
    if q != 0.0 or not h:
        h.append(q)
    return h


def _slow_sign(u1: float, v1: float, u2: float, v2: float) -> int:
    """Exact sign of u1*v2 - v1*u2, no magnitude restrictions."""
    s1 = ((u1 > 0.0) - (u1 < 0.0)) * ((v2 > 0.0) - (v2 < 0.0))
    s2 = ((v1 > 0.0) - (v1 < 0.0)) * ((u2 > 0.0) - (u2 < 0.0))
    if s1 != s2:
        return 1 if s1 > s2 else -1
    if s1 == 0:
        return 0
    # Both products share a strict sign; compare magnitudes on normalised
    # mantissas so the error-free products never overflow or underflow.
    m1, e1 = math.frexp(u1)
    m2, e2 = math.frexp(v2)
    m3, e3 = math.frexp(v1)
    m4, e4 = math.frexp(u2)
    d = (e1 + e2) - (e3 + e4)
    if d > 1:
        return s1
    if d < -1:
        return -s1
    ahi, alo = _two_prod(abs(m1), abs(m2))
    bhi, blo = _two_prod(abs(m3), abs(m4))
    if d:
        ahi = math.ldexp(ahi, d)
        alo = math.ldexp(alo, d)
    top = _expansion_sum_zeroelim([alo, ahi], [-blo, -bhi])[-1]
    if top > 0.0:
        return s1
    if top < 0.0:
        return -s1
    return 0


def _product_sign(u1: float, v1: float, u2: float, v2: float) -> int:
    """Exact sign of u1*v2 - v1*u2 as an int in {-1, 0, 1}.

    A rounded-float filter decides the easy cases; everything within the
    rounding error bound is resolved by the exact path.
    """
    if not (math.isfinite(u1) and math.isfinite(v1)
            and math.isfinite(u2) and math.isfinite(v2)):
        raise NonFiniteInput("sign predicate requires finite inputs")
    p = u1 * v2
    q = v1 * u2
    if p > 0.0:
        if q <= 0.0:
            return 1
        detsum = p + q
    elif p < 0.0:
        if q >= 0.0:
            return -1
        detsum = -p - q
    else:
        if q > 0.0:
            return -1
        if q < 0.0:
            return 1
        # p == q == 0.0 is conclusive only when neither product underflowed
        if (u1 == 0.0 or v2 == 0.0) and (v1 == 0.0 or u2 == 0.0):
            return 0
        return _slow_sign(u1, v1, u2, v2)
    if detsum >= _NO_UNDERFLOW:
        det = p - q
        err = _ERRBOUND * detsum
        if det > err:
            return 1
        if det < -err:
            return -1
    return _slow_sign(u1, v1, u2, v2)


def _sum_diff_sign(pos: tuple, neg: tuple) -> int:
    """Exact sign of sum(pos) - sum(neg) for finite doubles."""
    if max(abs(v) for v in pos + neg) < 1e300:
        e = [0.0]
        for v in pos:
            e = _expansion_sum_zeroelim(e, [v])
        for v in neg:
            e = _expansion_sum_zeroelim(e, [-v])
        top = e[-1]
        return (top > 0.0) - (top < 0.0)
    total = sum(map(Fraction, pos)) - sum(map(Fraction, neg))
    return (total > 0) - (total < 0)


def _orient_sign(ax: float, ay: float, bx: float, by: float,
                 cx: float, cy: float) -> int:
    """Exact sign of (bx - ax)*(cy - ay) - (by - ay)*(cx - ax).

    Decided on the six doubles themselves, not on their rounded
    differences, so it holds for every finite input, including coordinates
    whose differences overflow.  Each double is an integer over a power of
    two; scaled to the largest denominator all six become integers, and the
    integer determinant has the sign sought.
    """
    try:
        (nax, dax), (nay, day), (nbx, dbx), (nby, dby), (ncx, dcx), \
            (ncy, dcy) = (ax.as_integer_ratio(), ay.as_integer_ratio(),
                          bx.as_integer_ratio(), by.as_integer_ratio(),
                          cx.as_integer_ratio(), cy.as_integer_ratio())
    except (OverflowError, ValueError):
        raise NonFiniteInput(
            "orientation predicate requires finite inputs") from None
    den = max(dax, day, dbx, dby, dcx, dcy)
    ix = nax * (den // dax)
    iy = nay * (den // day)
    det = ((nbx * (den // dbx) - ix) * (ncy * (den // dcy) - iy)
           - (nby * (den // dby) - iy) * (ncx * (den // dcx) - ix))
    return (det > 0) - (det < 0)


def exact_product_compare(u1: float, v1: float, u2: float, v2: float) -> Sign:
    """Exact sign of u1*v2 - v1*u2.

    When v1 and v2 are positive this decides u1/v1 versus u2/v2 without
    forming either quotient.  Exact for all finite doubles.
    """
    return Sign(_product_sign(u1, v1, u2, v2))


def orientation_exact(p0: Point2, p1: Point2, p2: Point2) -> Sign:
    """Turn direction of the triple (p0, p1, p2).

    POSITIVE is counter-clockwise, NEGATIVE clockwise, ZERO collinear.
    The differences p1 - p0 and p2 - p0 are formed in double precision;
    the determinant sign of those differences is then exact.  Non-finite
    inputs, or differences that overflow, raise NonFiniteInput.
    """
    return Sign(_product_sign(p1[0] - p0[0], p1[1] - p0[1],
                              p2[0] - p0[0], p2[1] - p0[1]))
