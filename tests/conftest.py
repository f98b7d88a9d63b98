"""Shared helpers: independent exact oracles, tolerance checks and
problem corpora."""

import math
import random
from fractions import Fraction

import numpy as np

from minmaxlp import GenSpec, Problem, gen2d, gen3d

# Zeros of both signs, subnormals, the normal range's edges and
# coordinates near +-1e308 whose differences overflow.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
               2.2250738585072014e-308, -2.2250738585072014e-308,
               1.0, -1.0, 0.1, 3.0, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308)


def assert_one_array(p, k=None):
    """``p`` is a problem held as one read-only float64 (k, n) array whose
    rows have unit stride."""
    assert isinstance(p, Problem)
    rows = p._rows
    assert rows.dtype == np.float64 and rows.ndim == 2
    assert rows.shape == (k or len(rows), len(p)) and len(rows) in (2, 3)
    assert not rows.flags.writeable
    assert len(p) < 2 or rows.strides[1] == rows.itemsize


def close(got, want, tol):
    """Relative comparison with an absolute floor of 1."""
    return abs(got - want) <= tol * max(1.0, abs(want))


def _cross_sign(a, b, c, d):
    """Sign of a*b - c*d for four rationals given as (numerator, positive
    denominator) pairs of Python ints, by cross-multiplication."""
    an, ad = a
    bn, bd = b
    cn, cd = c
    dn, dd = d
    x = an * bn * cd * dd - cn * dn * ad * bd
    return (x > 0) - (x < 0)


def _difference(p, q):
    """p - q of two floats or ints, exactly, as a (numerator, positive
    denominator) pair."""
    pn, pd = p.as_integer_ratio()
    qn, qd = q.as_integer_ratio()
    return pn * qd - qn * pd, pd * qd


def orient_oracle(p0, p1, p2):
    """Sign of the orientation determinant, in integer arithmetic.

    Mirrors the predicate contract: differences are taken in floats first,
    the determinant of those differences is then exact.
    """
    return _cross_sign((p1[0] - p0[0]).as_integer_ratio(),
                       (p2[1] - p0[1]).as_integer_ratio(),
                       (p1[1] - p0[1]).as_integer_ratio(),
                       (p2[0] - p0[0]).as_integer_ratio())


def orient_points_oracle(ax, ay, bx, by, cx, cy):
    """Sign of the orientation determinant of the points themselves.

    Unlike orient_oracle, the differences are exact too, so this is the
    turn of the three given points even when a float difference overflows.
    """
    return _cross_sign(_difference(bx, ax), _difference(cy, ay),
                       _difference(by, ay), _difference(cx, ax))


def product_compare_oracle(u1, v1, u2, v2):
    """Sign of u1 * v2 - v1 * u2, in integer arithmetic."""
    return _cross_sign(u1.as_integer_ratio(), v2.as_integer_ratio(),
                       v1.as_integer_ratio(), u2.as_integer_ratio())


def prune_oracle(rows):
    """(kept_indices, discarded_behind, discarded_steep, pmin_index) of the
    pruning rule on rows (a, b, c), in rational arithmetic: the dual points
    are (a, b, -c), the anchor is the least (z, x, y, index), and a point is
    dropped when it is behind the anchor or rises faster than its combined
    run above it."""
    pts = [(Fraction(r[0]), Fraction(r[1]), -Fraction(r[2])) for r in rows]
    anchor = min(range(len(pts)),
                 key=lambda i: (pts[i][2], pts[i][0], pts[i][1], i))
    ax, ay, az = pts[anchor]
    behind = [x < ax and y < ay and z > az for x, y, z in pts]
    steep = [x > ax and y > ay and z > az and z - az > (x - ax) + (y - ay)
             for x, y, z in pts]
    kept = tuple(i for i in range(len(pts)) if not (behind[i] or steep[i]))
    return kept, sum(behind), sum(steep), anchor


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


def grid_instances(count, seed, n_max=12, levels=2):
    """Small-integer planes: ties, duplicates and shared vertices abound."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        out.append([tuple(float(rng.randint(-levels, levels))
                          for _ in range(3)) for _ in range(n)])
    return out


def objective_corpus():
    """Gaussian problems, integer grids, the adversarial families (2^+-450
    is not rescaled, 2^+-600 and 2^+-1000 are) and planes through one
    point, at n = 1-3000."""
    out = [gen3d(GenSpec(n=1 + i % 134, seed=20261018, dim=3), index=i)
           for i in range(0, 2010, 5)]
    out += grid_instances(300, seed=1) + grid_instances(300, 2, 40)
    for cs in corpus3d(20, 10, seed=31):
        out.append([tuple(c) for c in cs] * 3)
    out += [[(-0.0, -0.0, -0.0)], [(1.0, -0.0, -0.0), (-1.0, 0.0, 0.0)]]
    for cs in corpus3d(6, 10, seed=32):
        out.append([(a, b, c + k) for a, b, c in cs for k in range(4)])
    for cs in corpus3d(15, 10, seed=33):
        out.append([tuple(c) for c in cs]
                   + [(0.0, 0.0, c[2]) for c in cs[:4]])
    for cs in corpus3d(40, 10, seed=36):
        out.append([(a, b, -(a * 0.25 + b * 0.75)) for a, b, _ in cs])
    for k in (450, -450, 600, -600, 1000, -1000):
        f = math.ldexp(1.0, k)
        out += [[(a * f, b * f, c * f) for a, b, c in cs]
                for cs in corpus3d(25, 5, seed=35)]
    rng = np.random.default_rng(48)
    for n in (30, 300, 3000):
        for _ in range(3):
            a, b = rng.normal(0.0, 3.0, (2, n))
            out.append(np.stack((a, b, 1.0 - a * 0.17925800707829326
                                 - b * 0.5062426186871909), axis=1))
    return out
