"""Point/line duality and exact, division-free sign predicates.

The duality used throughout the package maps the plane z = a*x + b*y + c to
the point (a, b, -c) and the point (x0, y0, z0) to the plane
z = x0*x + y0*y - z0 (one dimension lower, the same with y in place of z).
The map is an involution and reverses above/below relations, which turns
upper envelopes of planes into lower convex hulls of points.

Sign predicates return an exact three-valued result.  A float filter with
a proven error bound (Shewchuk's orientation filter) decides almost every
sign; the rest are decided in integers: every finite double is an integer
over a power of two, so scaled to a common denominator the determinant or
sum becomes an integer expression of the same sign.  The result is exact
for every finite double, including denormals, without any epsilon.
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

_EPS = 2.0 ** -53
_ERRBOUND = (3.0 + 16.0 * _EPS) * _EPS
# Below this magnitude the relative error bound no longer holds because the
# products may be denormal; such comparisons take the exact path directly.
_NO_UNDERFLOW = 1e-280


def _orient(ax: float, ay: float, bx: float, by: float,
            cx: float, cy: float) -> int:
    """Exact sign of (bx - ax)*(cy - ay) - (by - ay)*(cx - ax).

    The float filter on the rounded differences decides every sign whose
    determinant clears the error bound; NaN and inf never clear it, and
    the additive _NO_UNDERFLOW covers products that underflow.  Every other
    case goes to the exact predicate of the six doubles themselves.
    ``_filtered_scan`` in solver2d runs the same filter vectorised.
    """
    p = (bx - ax) * (cy - ay)
    q = (by - ay) * (cx - ax)
    det = p - q
    bound = _ERRBOUND * (abs(p) + abs(q)) + _NO_UNDERFLOW
    if det > bound:
        return 1
    if det < -bound:
        return -1
    return _slow_sign(ax, ay, bx, by, cx, cy)


def _product_sign(u1: float, v1: float, u2: float, v2: float) -> int:
    """Exact sign of u1*v2 - v1*u2 as an int in {-1, 0, 1}.

    Differences from 0 are exact, so this is the turn of (0, 0), (u1, v1)
    and (u2, v2).  Raises NonFiniteInput for a non-finite input.
    """
    return _orient(0.0, 0.0, u1, v1, u2, v2)


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


# ``_orient`` reaches the exact predicate through this name, so a tracer
# that rebinds it (perfbench/spans.py) sees every float-filter miss.
_slow_sign = _orient_sign


def _sum_diff_sign(pos: tuple, neg: tuple) -> int:
    """Exact sign of sum(pos) - sum(neg) for finite doubles.

    As in ``_orient_sign``, every double scaled to the largest denominator
    is an integer, and the integer sum has the sign sought.
    """
    pr = [v.as_integer_ratio() for v in pos]
    nr = [v.as_integer_ratio() for v in neg]
    den = max(d for _, d in pr + nr)
    total = (sum(num * (den // d) for num, d in pr)
             - sum(num * (den // d) for num, d in nr))
    return (total > 0) - (total < 0)


def _line_through(x1: float, y1: float, x2: float, y2: float,
                  caller: str) -> tuple[float, float]:
    """Slope m and negated intercept t of the line through (x1, y1) and
    (x2, y2), so that the line is y = m*x - t; x1 != x2.

    Formed in floats, or exactly when a difference or a product overflows.
    Raises NonFiniteInput, naming ``caller``, when m or t lies outside the
    double range.
    """
    m = (y2 - y1) / (x2 - x1)
    t = m * x1 - y1
    if not (math.isfinite(m) and math.isfinite(t)):
        mq = (Fraction(y2) - Fraction(y1)) / (Fraction(x2) - Fraction(x1))
        try:
            m = float(mq)
            t = float(mq * Fraction(x1) - Fraction(y1))
        except OverflowError:
            raise NonFiniteInput(
                f"{caller}: the optimal x or t lies outside the double range"
            ) from None
    return m, t


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
