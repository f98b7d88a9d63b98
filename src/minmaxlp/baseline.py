"""Reference solver: sort, build the lower convex hull, take the crossing edge.

O(n log n) by construction, exact thanks to the shared sign predicates.
This module exists to cross-check the pivoting solver at sizes where the
quadratic oracle is out of reach; it is deliberately simple, not fast.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ContractViolation, EmptyProblem, NonFiniteInput
from .geometry import _ERRBOUND, _NO_UNDERFLOW, Point2, _orient_sign
from .model import Solution2, Status, as_rows

__all__ = ["HullChain", "lower_hull", "solve_baseline"]

# Ordered left to right; consecutive triples turn strictly counter-clockwise.
HullChain = list[Point2]

_NP_SORT_CUTOFF = 4096


def _sorted_unique_xy(xs: Sequence[float], ys: Sequence[float]):
    """Coordinates sorted by (x, y) with one point per x: the lowest.

    Points sharing an x but sitting higher can never be on the lower hull.
    """
    n = len(xs)
    if n > _NP_SORT_CUTOFF:
        ax = np.asarray(xs)
        ay = np.asarray(ys)
        order = np.lexsort((ay, ax))
        sx = ax[order]
        sy = ay[order]
        _, first = np.unique(sx, return_index=True)
        return sx[first].tolist(), sy[first].tolist()
    pts = sorted(zip(xs, ys))
    ux: list[float] = []
    uy: list[float] = []
    prev = None
    for x, y in pts:
        if x != prev:
            ux.append(x)
            uy.append(y)
            prev = x
    return ux, uy


def _chain(xs: list[float], ys: list[float]) -> tuple[list[float], list[float]]:
    """Monotone-chain lower hull over x-sorted, x-unique points.

    Each turn is decided on the original points: a float filter with the
    shared error bound settles almost all of them, and the exact
    orientation predicate of the three points settles the rest, so a
    rounded or overflowing difference never decides a turn.
    """
    hx: list[float] = []
    hy: list[float] = []
    for i in range(len(xs)):
        px = xs[i]
        py = ys[i]
        while len(hx) >= 2:
            ax = hx[-2]
            ay = hy[-2]
            bx = hx[-1] - ax
            by = hy[-1] - ay
            cx = px - ax
            cy = py - ay
            # Pop while the middle point is not strictly convex (collinear
            # points are dropped; the edge line is unchanged), i.e. while
            # the orientation bx*cy - by*cx is not positive.
            p = bx * cy
            q = by * cx
            detsum = abs(p) + abs(q)
            if detsum >= _NO_UNDERFLOW and abs(p - q) > _ERRBOUND * detsum:
                convex = p > q
            else:
                convex = _orient_sign(ax, ay, hx[-1], hy[-1], px, py) > 0
            if convex:
                break
            hx.pop()
            hy.pop()
        hx.append(px)
        hy.append(py)
    return hx, hy


def lower_hull(dp: Sequence[Point2]) -> HullChain:
    """Lower convex hull of a point set, left to right.

    Every input point lies on or above every edge of the returned chain.
    """
    if not dp:
        raise EmptyProblem("lower_hull: no points")
    xs, ys = _sorted_unique_xy([p[0] for p in dp], [p[1] for p in dp])
    hx, hy = _chain(xs, ys)
    return [Point2(x, y) for x, y in zip(hx, hy)]


def solve_baseline(cs: Sequence) -> Solution2:
    """Same contract as solver2d.solve, via an explicit hull.

    Accepts the same inputs: rows whose first two fields are (a, b), or an
    (n, k >= 2) array.
    """
    cs = as_rows(cs)
    if len(cs) == 0:
        raise EmptyProblem("solve_baseline: no constraints")
    isfin = math.isfinite
    dpx = []
    dpy = []
    any_left = False
    any_right = False
    for i, c in enumerate(cs):
        a = c[0]
        b = c[1]
        if not (isfin(a) and isfin(b)):
            raise NonFiniteInput(f"constraint {i} is not finite")
        dpx.append(a)
        dpy.append(-b)
        if a <= 0.0:
            any_left = True
        if a >= 0.0:
            any_right = True
    if not any_left or not any_right:
        # All dual points strictly on one side of the vertical axis.
        return Solution2(Status.UNBOUNDED)
    xs, ys = _sorted_unique_xy(dpx, dpy)
    hx, hy = _chain(xs, ys)
    if len(hx) == 1:
        # Only possible when every slope is zero.
        return Solution2(Status.OPTIMAL, x=0.0, t=-hy[0], iterations=0)
    for k in range(len(hx) - 1):
        if hx[k] <= 0.0 <= hx[k + 1]:
            x1, y1, x2, y2 = hx[k], hy[k], hx[k + 1], hy[k + 1]
            m = (y2 - y1) / (x2 - x1)
            t = m * x1 - y1
            if not (math.isfinite(m) and math.isfinite(t)):
                # A difference or a product overflowed: form the line exactly.
                mq = ((Fraction(y2) - Fraction(y1))
                      / (Fraction(x2) - Fraction(x1)))
                try:
                    m = float(mq)
                    t = float(mq * Fraction(x1) - Fraction(y1))
                except OverflowError:
                    raise NonFiniteInput(
                        "solve_baseline: the optimal x or t lies outside the "
                        "double range") from None
            return Solution2(Status.OPTIMAL, x=m, t=t, iterations=0)
    raise ContractViolation("hull spans the axis but no crossing edge found")
