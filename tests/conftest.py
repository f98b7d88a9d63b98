"""Shared helpers: independent rational oracles and tolerance checks."""

from fractions import Fraction

from minmaxlp import GenSpec, gen2d, gen3d

# Zeros of both signs, subnormals, the normal range's edges and
# coordinates near +-1e308 whose differences overflow.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
               2.2250738585072014e-308, -2.2250738585072014e-308,
               1.0, -1.0, 0.1, 3.0, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308)


def close(got, want, tol):
    """Relative comparison with an absolute floor of 1."""
    return abs(got - want) <= tol * max(1.0, abs(want))


def orient_oracle(p0, p1, p2):
    """Sign of the orientation determinant, rational arithmetic.

    Mirrors the predicate contract: differences are taken in floats first,
    the determinant of those differences is then exact.
    """
    t1x = Fraction(p1[0] - p0[0])
    t1y = Fraction(p1[1] - p0[1])
    t2x = Fraction(p2[0] - p0[0])
    t2y = Fraction(p2[1] - p0[1])
    d = t1x * t2y - t1y * t2x
    return (d > 0) - (d < 0)


def orient_points_oracle(ax, ay, bx, by, cx, cy):
    """Sign of the orientation determinant of the points themselves.

    Unlike orient_oracle, the differences are rational too, so this is the
    turn of the three given points even when a float difference overflows.
    """
    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (d > 0) - (d < 0)


def product_compare_oracle(u1, v1, u2, v2):
    d = Fraction(u1) * Fraction(v2) - Fraction(v1) * Fraction(u2)
    return (d > 0) - (d < 0)


def exact_intercept(pair):
    """Rational y-intercept of the line through a recorded pivot pair."""
    (x1, y1), (x2, y2) = sorted(pair)
    x1, y1, x2, y2 = Fraction(x1), Fraction(y1), Fraction(x2), Fraction(y2)
    return (y1 * x2 - x1 * y2) / (x2 - x1)


def eval_max_2(cs, x):
    return max(c[0] * x + c[1] for c in cs)


def eval_max_3(cs, x, y):
    return max(c[0] * x + c[1] * y + c[2] for c in cs)


def ordered_pair(pair):
    """Pivot pair endpoints ordered left to right in x."""
    a, b = pair
    return (a, b) if a[0] <= b[0] else (b, a)


def corpus2d(n, count, seed):
    spec = GenSpec(n=n, seed=seed)
    return [gen2d(spec, index=k) for k in range(count)]


def corpus3d(n, count, seed):
    spec = GenSpec(n=n, seed=seed, dim=3)
    return [gen3d(spec, index=k) for k in range(count)]


def brute_edge_min(slopes_offsets):
    """Independent 1D oracle: min over [0, 1] of max(s*x + o).

    Enumerates the endpoints and every pairwise equal-value abscissa that
    falls inside the interval.
    """
    rows = list(slopes_offsets)
    xs = [0.0, 1.0]
    for i in range(len(rows)):
        si, oi = rows[i]
        for j in range(i + 1, len(rows)):
            sj, oj = rows[j]
            if si != sj:
                x = (oj - oi) / (si - sj)
                if 0.0 <= x <= 1.0:
                    xs.append(x)
    return min(max(s * x + o for s, o in rows) for x in xs)
