"""Reference solver: sort, build the lower convex hull, take the crossing edge.

O(n log n) by construction, exact thanks to the shared sign predicates.
This module exists to cross-check the pivoting solver at sizes where the
quadratic oracle is out of reach; it is deliberately simple, not fast.
Points are read and sorted in numpy; the hull chain is built in Python,
one exact turn decision at a time (``geometry._chain``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .geometry import Point2, _chain, _line_through
from .model import Solution2, Status, columns

__all__ = ["lower_hull", "solve_baseline"]


def _sorted_unique_xy(xs: np.ndarray, ys: np.ndarray):
    """Coordinates sorted by (x, y) with one point per x: the lowest.

    Points sharing an x but sitting higher can never be on the lower hull.
    """
    order = np.lexsort((ys, xs))
    sx = xs[order]
    _, first = np.unique(sx, return_index=True)
    return sx[first].tolist(), ys[order[first]].tolist()


def lower_hull(dp: Sequence[Point2]) -> list[Point2]:
    """Lower convex hull of a point set, left to right.

    Consecutive triples of the chain turn strictly counter-clockwise, and
    every input point lies on or above every edge of it.
    """
    xs, ys = _sorted_unique_xy(*columns(dp, 2))
    hx, hy = _chain(xs, ys)
    return [Point2(x, y) for x, y in zip(hx, hy)]


def solve_baseline(cs: Sequence) -> Solution2:
    """Same contract as solver2d.solve, via an explicit hull.

    Accepts the same inputs: rows whose first two fields are (a, b), or an
    (n, k >= 2) array.
    """
    a, b = columns(cs, 2)
    if not ((a <= 0.0).any() and (a >= 0.0).any()):
        # All dual points strictly on one side of the vertical axis.
        return Solution2(Status.UNBOUNDED)
    xs, ys = _sorted_unique_xy(a, -b)
    hx, hy = _chain(xs, ys)
    if len(hx) == 1:
        # Only possible when every slope is zero.
        return Solution2(Status.OPTIMAL, x=0.0, t=-hy[0], iterations=0)
    for k in range(len(hx) - 1):
        if hx[k] <= 0.0 <= hx[k + 1]:
            m, t = _line_through(hx[k], hy[k], hx[k + 1], hy[k + 1],
                                 "solve_baseline")
            return Solution2(Status.OPTIMAL, x=m, t=t, iterations=0)
    raise ContractViolation("hull spans the axis but no crossing edge found")
