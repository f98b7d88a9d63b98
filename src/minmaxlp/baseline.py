"""Reference solver: sort, build the lower convex hull, take the crossing edge.

O(n log n) by construction, exact thanks to the shared sign predicates.
This module exists to cross-check the pivoting solver at sizes where the
quadratic oracle is out of reach; it is deliberately simple, not fast.
Points are read and sorted in numpy; the hull chain is built in Python,
one exact turn decision at a time.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, EmptyProblem
from .geometry import (_ERRBOUND, _NO_UNDERFLOW, Point2, _line_through,
                       _orient_sign)
from .model import Solution2, Status, columns

__all__ = ["lower_hull", "solve_baseline", "check2d"]


def _sorted_unique_xy(xs: np.ndarray, ys: np.ndarray):
    """Coordinates sorted by (x, y) with one point per x: the lowest.

    Points sharing an x but sitting higher can never be on the lower hull.
    """
    order = np.lexsort((ys, xs))
    sx = xs[order]
    _, first = np.unique(sx, return_index=True)
    return sx[first].tolist(), ys[order[first]].tolist()


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


def lower_hull(dp: Sequence[Point2]) -> list[Point2]:
    """Lower convex hull of a point set, left to right.

    Consecutive triples of the chain turn strictly counter-clockwise, and
    every input point lies on or above every edge of it.
    """
    if len(dp) == 0:
        raise EmptyProblem("lower_hull: no points")
    xs, ys = _sorted_unique_xy(*columns(dp, 2))
    hx, hy = _chain(xs, ys)
    return [Point2(x, y) for x, y in zip(hx, hy)]


def solve_baseline(cs: Sequence) -> Solution2:
    """Same contract as solver2d.solve, via an explicit hull.

    Accepts the same inputs: rows whose first two fields are (a, b), or an
    (n, k >= 2) array.
    """
    if len(cs) == 0:
        raise EmptyProblem("solve_baseline: no constraints")
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


def check2d(cs: Sequence, sol: Solution2,
            reference: Callable[[Sequence], Solution2]) -> None:
    """Raise ContractViolation unless ``reference(cs)`` agrees with ``sol``:
    the same status and, when optimal, t within 1e-12 * max(1, |sol.t|)."""
    ref = reference(cs)
    if sol.status is not ref.status:
        raise ContractViolation(
            f"validation failed: status {sol.status.value} vs "
            f"{ref.status.value}")
    if (sol.status is Status.OPTIMAL
            and not abs(sol.t - ref.t) <= 1e-12 * max(1.0, abs(sol.t))):
        raise ContractViolation(
            f"validation failed: t={sol.t} vs reference {ref.t}")
