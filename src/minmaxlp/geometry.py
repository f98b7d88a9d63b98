"""Point/line duality and exact, division-free sign predicates.

The duality used throughout the package maps the plane z = a*x + b*y + c to
the point (a, b, -c) and the point (x0, y0, z0) to the plane
z = x0*x + y0*y - z0 (one dimension lower, the same with y in place of z).
The map is an involution and reverses above/below relations, which turns
upper envelopes of planes into lower convex hulls of points.

Sign predicates return an exact three-valued result.  There is one float
filter, ``_orient``'s (Shewchuk's orientation filter, with a proven error
bound), which decides almost every sign, and one exact arithmetic for the
rest, ``_settle`` on integer images.  The image of a point set
(``_images``) scales every x by one power of two S_x, and every y by one
S_y, chosen so that each product is an exact integer: S = 2**(53 - e)
with 2**(e - 1) <= |v| < 2**e for the least nonzero magnitude |v|, which
one float multiplication per value applies exactly (proof beside
``_images``), or, where that S is not a double or a product overflows,
the largest ``as_integer_ratio`` denominator.  The images' determinant is
the points' own times S_x * S_y > 0, and Python ints neither overflow
nor underflow, so its sign is the turn of the points themselves.
``_orient_sign`` settles one triple on the images of its three points;
solver2d's scans build the images of a whole point set at their first
miss and settle every miss of the solve on them.  The result is exact for
every finite double, including denormals and coordinates whose
differences overflow, without any epsilon.

``_slope_threshold`` is the proven bound behind solver2d's slope
prefilter, which compares rounded slopes instead of turns; its constants
sit beside the orientation filter's.
"""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Sequence

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
# The absolute term of the bounds that allow for underflow, 32 times the
# largest error, 2**-1075, of one product or quotient that underflows: the
# slope prefilter's (``_slope_threshold``) and ``model``'s value bounds.
_TINY = 2.0 ** -1070

# The slope prefilter's relative term K = 8u, and the largest threshold it
# accepts.
_SLOPE_REL = 8.0 * _EPS
_SLOPE_MAX = 2.0 ** 1000


def _orient(ax: float, ay: float, bx: float, by: float,
            cx: float, cy: float) -> int:
    """Exact sign of (bx - ax)*(cy - ay) - (by - ay)*(cx - ax).

    The float filter on the rounded differences decides every sign whose
    determinant clears the error bound; NaN and inf never clear it, and
    the additive _NO_UNDERFLOW covers products that underflow.  Every other
    case goes to the exact predicate of the six doubles themselves.
    solver2d's ``_scan`` runs the same filter inline, with its constants.
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


def _chain(xs: list[float], ys: list[float]) -> tuple[list[float], list[float]]:
    """Monotone-chain lower hull over (x, y)-sorted, distinct points
    (Andrew, IPL 1979); over them in reverse, the upper hull.

    Each turn is ``_orient`` of the original points, so a rounded or
    overflowing difference never decides a turn.
    """
    hx: list[float] = []
    hy: list[float] = []
    for px, py in zip(xs, ys):
        # Pop while the middle point is not strictly convex (collinear
        # points are dropped; the edge line is unchanged).
        while len(hx) >= 2 and _orient(hx[-2], hy[-2], hx[-1], hy[-1],
                                       px, py) <= 0:
            hx.pop()
            hy.pop()
        hx.append(px)
        hy.append(py)
    return hx, hy


def _slope_threshold(p: float) -> float:
    """A threshold T such that a candidate whose rounded slope exceeds T
    has a larger exact slope than the candidate whose rounded slope is
    ``p``; NaN when no such T is proven.

    A candidate c seen from a fixed point f has the exact slope
    s = (cy - fy) / (cx - fx), cx != fx, and the rounded slope
    p = fl(fl(cy - fy) / fl(cx - fx)), where neither difference overflows.
    A difference is exact when it is subnormal and otherwise within a
    factor 1 +- u of the truth (u = 2^-53).  The quotient is within
    1 +- u, or within 2^-1075 absolute where it is subnormal.  So, with
    Higham's gamma_3 = 3u / (1 - 3u) and a = 2^-1075,

        |p - s| <= gamma_3 |s| + a.                                  (1)

    Let p_w = ``p`` be candidate w's rounded slope, and s_c <= s_w.  As
    g(s) = s + gamma_3 |s| + a increases with s, (1) gives
    p_c <= g(s_c) <= g(s_w).  (1) at w bounds s_w from above, and with
    (1 + gamma_3) / (1 - gamma_3) = 1 / (1 - 6u) that gives

        g(s_w) <= (p_w + a) / (1 - 6u) + a    where p_w + a >= 0,
        g(s_w) <= (p_w + a) * (1 - 6u) + a    elsewhere.

    T is R / (1 - K) where R >= 0 and R / (1 + K) elsewhere, with
    R = p_w + K |p_w| + _TINY and K = _SLOPE_REL = 8u, in floats.
    Exactly, T is about p_w (1 + 16u) + 2^-1070 for p_w >= 0 and
    p_w (1 - 16u) + 2^-1070 below, against bounds of p_w (1 +- 6u) + 2a.
    The slack, 10u |p_w| and 30a, covers the four roundings that form T:
    K |p_w| is exact but for underflow, and each operation errs by at most
    u relative or a absolute.  So p_c > T proves s_c > s_w.

    A quotient that overflows is +-inf.  A +inf quotient has s_c > 2^1023,
    so T <= _SLOPE_MAX proves it larger than s_w <= T as well; a -inf p_w
    makes T NaN.  T is returned only when |T| <= _SLOPE_MAX.
    """
    r = p + _SLOPE_REL * abs(p) + _TINY
    t = r / (1.0 - _SLOPE_REL) if r >= 0.0 else r / (1.0 + _SLOPE_REL)
    return t if abs(t) <= _SLOPE_MAX else math.nan


def _product_sign(u1: float, v1: float, u2: float, v2: float) -> int:
    """Exact sign of u1*v2 - v1*u2 as an int in {-1, 0, 1}.

    Differences from 0 are exact, so this is the turn of (0, 0), (u1, v1)
    and (u2, v2).  Raises NonFiniteInput for a non-finite input.
    """
    return _orient(0.0, 0.0, u1, v1, u2, v2)


def _images(vs: Sequence[float]) -> list[int]:
    """The integer images v * S of the values ``vs``, for one power of
    two S > 0.

    S is 2**k, k = 53 - e, where 2**(e - 1) <= |v_min| < 2**e for the
    least nonzero magnitude |v_min| of the floats ``vs``, and each image
    is int(v * S).  That is exact wherever k <= 1023, so S is a double,
    and no product overflows:

    - k <= 1023 means e >= -970, so every nonzero |v| >= |v_min| is a
      normal double, in some [2**(j - 1), 2**j) with j >= e, and so a
      multiple of its ulp 2**(j - 53), a multiple of 2**(e - 53).  So
      v * S is an integer.
    - |v * S| >= |v_min| * S >= 2**52 is normal, so scaling v by a power
      of two keeps its significand: the product is v * S exactly, unless
      it overflows, that is unless the values span about 970 binades or
      more.

    Elsewhere, and for values that are not floats, such as ints, S is the
    largest denominator D of any v: every finite double, and every int, is
    an integer n over a power of two d (``as_integer_ratio``), so D is a
    multiple of every d and the image n * (D / d) is exactly v * D.
    Raises NonFiniteInput for a non-finite value.
    """
    try:
        lo = min(map(float.__abs__, vs))
        if not lo:
            lo = min([v for v in map(float.__abs__, vs) if v], default=1.0)
        k = 53 - math.frexp(lo)[1]
        if k <= 1023:
            # int() of an inf or NaN product raises, and the ratio path
            # below tells an overflow from a non-finite value.
            s = 2.0 ** k
            return [int(v * s) for v in vs]
    except (OverflowError, ValueError, TypeError):
        pass
    try:
        ratios = [v.as_integer_ratio() for v in vs]
    except (OverflowError, ValueError):
        raise NonFiniteInput(
            "orientation predicate requires finite inputs") from None
    k = max(ratios, key=itemgetter(1))[1].bit_length()
    return [n << (k - d.bit_length()) for n, d in ratios]


class _ExactPoints:
    """The points (xs, ys), and once ``_settle`` has built them, their
    integer images: ``_images`` of xs and of ys.

    Points made with ``mirrors`` negate that one's ys and share its
    images, since mirroring in y negates every turn.
    """

    __slots__ = ("xs", "ys", "mirrors", "ints")

    def __init__(self, xs: Sequence[float], ys: Sequence[float],
                 mirrors: _ExactPoints | None = None):
        self.xs = xs
        self.ys = ys
        self.mirrors = mirrors
        self.ints: tuple[list[int], list[int]] | None = None


def _settle(pts: _ExactPoints, a: int, b: int, c: int) -> int:
    """Exact sign of the turn of points a, b and c of ``pts``, decided on
    their integer images, which the first call builds.

    An image is x * S_x or y * S_y, for powers of two S_x, S_y > 0, so
    the images' determinant is the points' own times S_x * S_y > 0;
    Python ints neither overflow nor underflow, so its sign is exact.
    """
    base = pts.mirrors or pts
    ints = base.ints
    if ints is None:
        ints = base.ints = _images(base.xs), _images(base.ys)
    xs, ys = ints
    ax = xs[a]
    ay = ys[a]
    det = (xs[b] - ax) * (ys[c] - ay) - (ys[b] - ay) * (xs[c] - ax)
    if pts.mirrors:
        det = -det
    return (det > 0) - (det < 0)


def _orient_sign(ax: float, ay: float, bx: float, by: float,
                 cx: float, cy: float) -> int:
    """Exact sign of (bx - ax)*(cy - ay) - (by - ay)*(cx - ax).

    Decided on the integer images of the three points, not on their
    rounded differences, so it holds for every finite input, including
    coordinates whose differences overflow.
    """
    return _settle(_ExactPoints((ax, bx, cx), (ay, by, cy)), 0, 1, 2)


# ``_orient`` reaches the exact predicate through this name, so a tracer
# that rebinds it (perfbench/spans.py) sees every miss of ``_orient``;
# solver2d's scans settle their misses through ``solver2d._settle``.
_slow_sign = _orient_sign


def _line_through(x1: float, y1: float, x2: float, y2: float,
                  caller: str) -> tuple[float, float]:
    """Slope m and negated intercept t of the line through (x1, y1) and
    (x2, y2), so that the line is y = m*x - t; x1 != x2.

    Formed in floats, or exactly when a difference or a product overflows.
    An x difference that overflows leaves m finite, dy / inf = 0.0, so it
    is tested on its own.  Raises NonFiniteInput, naming ``caller``, when
    m or t lies outside the double range.
    """
    dx = x2 - x1
    m = (y2 - y1) / dx
    t = m * x1 - y1
    if not (math.isfinite(dx) and math.isfinite(m) and math.isfinite(t)):
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
