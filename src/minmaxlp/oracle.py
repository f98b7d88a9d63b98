"""Brute-force reference solvers.

These are the ground truth for every correctness property in the test
suite.  They enumerate candidate optima exhaustively and evaluate the
objective at each one, trading speed for being obviously right: the 1D
oracle is quadratic in the constraint count, the boxed 2D oracle cubic.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np

from .errors import NonFiniteInput
from .model import (Solution2, Solution3, Status, _to_float, columns,
                    objective)

__all__ = ["brute2d", "brute3d_box"]


def _eval_max_1d(a, b, xs):
    """max_i (a_i * x + b_i) for every x in xs.

    One in-place pass per constraint keeps the candidate vector cache
    resident instead of materialising the candidates-by-constraints matrix.
    """
    acc = np.full(xs.size, -np.inf)
    tmp = np.empty(xs.size)
    for i in range(a.size):
        np.multiply(xs, a[i], out=tmp)
        tmp += b[i]
        np.maximum(acc, tmp, out=acc)
    return acc


def brute2d(cs) -> Solution2:
    """Minimise max_i (a_i * x + b_i) by enumerating all crossings.

    The optimum of a convex piecewise-linear maximum is attained where two
    constraint lines meet, so evaluating the objective at every pairwise
    intersection abscissa and taking the smallest value is exact up to
    float evaluation.  Ties in t resolve to the smallest x.  Raises
    NonFiniteInput when the optimal x or t lies outside the double range,
    as solve does.

    The candidates are ranked on the columns scaled by the power of two
    that puts the largest magnitude in [0.5, 1), as brute3d_box does: then
    a * x does not overflow where a * x + b lies in the double range, so
    the values keep their order; the scaling is exact unless a
    coefficient or a product falls below the normal range.  t is taken on
    the original columns, so a coefficient that the scaling loses there
    still counts.
    """
    a, b = cols = columns(cs, 2)
    if (a > 0).all() or (a < 0).all():
        return Solution2(Status.UNBOUNDED)
    if (a == 0).all():
        return Solution2(Status.OPTIMAL, x=0.0, t=float(b.max()), iterations=0)
    ii, jj = np.triu_indices(a.size, k=1)
    # Near the ends of the double range a difference can overflow, and its
    # quotient is 0.0, inf or NaN where the crossing is not: those few
    # crossings are formed exactly instead.  One beyond the double range
    # is inf, and evaluates to inf or NaN, which sort last, so it is never
    # chosen over a finite one.
    with np.errstate(over="ignore", invalid="ignore"):
        da = a[ii] - a[jj]
        keep = da != 0.0
        ii, jj, da = ii[keep], jj[keep], da[keep]
        db = b[jj] - b[ii]
        xs = db / da
        for k in (np.isinf(da) | np.isinf(db)).nonzero()[0].tolist():
            i, j = ii[k], jj[k]
            xs[k] = _to_float((F(b[j]) - F(b[i])) / (F(a[i]) - F(a[j])))
        e = math.frexp(float(max(np.abs(a).max(), np.abs(b).max())))[1]
        ts = _eval_max_1d(np.ldexp(a, -e), np.ldexp(b, -e), xs)
        x = float(xs[np.lexsort((xs, ts))[0]])
    t = objective(cols, x) if math.isfinite(x) else math.inf
    if not math.isfinite(t):
        raise NonFiniteInput(
            "brute2d: the optimal x or t lies outside the double range")
    return Solution2(Status.OPTIMAL, x=x, t=t, iterations=0)


def _edge_candidates(s, o):
    """Candidate abscissas in [0, 1] for the 1D problem max(s*x + o)."""
    ii, jj = np.triu_indices(s.size, k=1)
    ds = s[ii] - s[jj]
    keep = ds != 0.0
    xs = (o[jj] - o[ii])[keep] / ds[keep]
    return xs[(xs >= 0.0) & (xs <= 1.0)]


def _triple_candidates(a, b, c):
    """In-box solutions (x, y) of all three-way equal-value systems.

    Triples i < j < k are enumerated in lexicographic order, in batches of
    consecutive first indices holding about max(n^2, 2^16) triples, so
    memory stays O(n^2) and small problems take one batch: the pairs (j, k)
    of a given i are a suffix of the pairs j < k of all constraints.
    """
    n = a.size
    if n < 3:
        return np.empty(0), np.empty(0)
    pj, pk = np.triu_indices(n, k=1)
    budget = max(n * n, 1 << 16)
    xs = []
    ys = []
    i = 0
    while i < n - 2:
        parts = []
        count = 0
        while i < n - 2 and count < budget:
            # the (i + 1)(2n - i - 2)/2 pairs with j <= i come first
            first = (i + 1) * (2 * n - i - 2) // 2
            parts.append((np.full(pj.size - first, i), pj[first:], pk[first:]))
            count += pj.size - first
            i += 1
        ii, jj, kk = (np.concatenate(col) for col in zip(*parts))
        a1 = a[ii] - a[jj]
        b1 = b[ii] - b[jj]
        r1 = c[jj] - c[ii]
        a2 = a[ii] - a[kk]
        b2 = b[ii] - b[kk]
        r2 = c[kk] - c[ii]
        det = a1 * b2 - b1 * a2
        ok = det != 0.0
        x = (r1 * b2 - b1 * r2) / det
        y = (a1 * r2 - r1 * a2) / det
        ok &= (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)
        xs.append(x[ok])
        ys.append(y[ok])
    return np.concatenate(xs), np.concatenate(ys)


def _eval_max_2d(a, b, c, xs, ys):
    """max_i (a_i*x + b_i*y + c_i) at every candidate point."""
    ts = np.full(xs.size, -np.inf)
    tmp = np.empty(xs.size)
    tmp2 = np.empty(xs.size)
    for i in range(a.size):
        np.multiply(xs, a[i], out=tmp)
        np.multiply(ys, b[i], out=tmp2)
        tmp += tmp2
        tmp += c[i]
        np.maximum(ts, tmp, out=ts)
    return ts


# A quotient of nearly parallel lines can overflow, and a singular triple
# system divides by zero; such candidates fall outside the box.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def brute3d_box(cs) -> Solution3:
    """Minimise max_i (a_i*x + b_i*y + c_i) over the unit box.

    Candidates cover every place the minimum can occur: points where three
    constraint planes meet at equal value (interior vertices of the upper
    envelope), the equal-value points of each induced one-variable problem
    on the four box edges, and the four corners.  Singular triple systems
    are skipped; whatever optimum they might describe is degenerate and is
    still covered by the remaining candidates.  Ties go to the smallest
    (x, y) lexicographically.  Raises NonFiniteInput when the optimal t
    lies outside the double range.

    The candidates are built from the columns scaled by the power of two
    that puts the largest magnitude in [0.5, 1), so no product or
    difference overflows; the scaling is exact unless a coefficient falls
    below the normal range.  t is taken on the original columns.
    """
    cols = columns(cs, 3)
    e = math.frexp(float(np.abs(cols).max()))[1]
    a, b, c = np.ldexp(cols, -e)

    px = [np.zeros(1), np.zeros(1), np.ones(1), np.ones(1)]
    py = [np.zeros(1), np.ones(1), np.zeros(1), np.ones(1)]

    tx, ty = _triple_candidates(a, b, c)
    px.append(tx)
    py.append(ty)

    x0 = _edge_candidates(b, c)                 # x = 0, free variable y
    px.append(np.zeros(x0.size))
    py.append(x0)
    x1 = _edge_candidates(b, a + c)             # x = 1
    px.append(np.ones(x1.size))
    py.append(x1)
    y0 = _edge_candidates(a, c)                 # y = 0, free variable x
    px.append(y0)
    py.append(np.zeros(y0.size))
    y1 = _edge_candidates(a, b + c)             # y = 1
    px.append(y1)
    py.append(np.ones(y1.size))

    cx = np.concatenate(px)
    cy = np.concatenate(py)
    ts = _eval_max_2d(a, b, c, cx, cy)
    k = np.lexsort((cy, cx, ts))[0]
    x, y = float(cx[k]), float(cy[k])
    t = objective(cols, x, y)
    if not math.isfinite(t):
        raise NonFiniteInput(
            "brute3d_box: the optimal t lies outside the double range")
    return Solution3(x=x, y=y, t=t)
