"""Reference solver: sort, build the lower convex hull, take the crossing edge.

O(n log n) by construction, exact thanks to the shared sign predicates.
This module exists to cross-check the pivoting solver at sizes where the
quadratic oracle is out of reach; it is deliberately simple, not fast.
Points are read and sorted in numpy; the hull chain is built in Python,
one exact turn decision at a time.  ``check2d``, the certificate check of
a one-variable answer, lives here too; it calls no solver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .geometry import Point2, _line_through, _orient
from .model import Solution2, Status, certify, columns

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

    Each turn is ``geometry._orient`` of the original points, so a
    rounded or overflowing difference never decides a turn.
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


def check2d(cs: Sequence, sol: Solution2) -> None:
    """Raise ContractViolation unless ``sol`` answers ``cs``, by an exact
    weak-duality certificate.

    UNBOUNDED holds iff every slope is > 0 or every slope is < 0.  For an
    OPTIMAL answer, the best near-tight constraint at ``sol.x`` with a <= 0
    and the best with a >= 0 get multipliers lambda >= 0, summing to 1,
    with sum(lambda * a) = 0; the weighted intercept sum(lambda * b) is an
    exact lower bound on the optimum (``model.certify`` has the rule).
    Near-tight, not merely best: the best constraint at a rounded x can be
    a shallow one whose crossing lies far below the optimum, where the
    steep true support is still within its own rounding of the maximum.
    O(n) numpy work and O(1) Fraction work; no reference solver.
    """
    a, b = columns(cs, 2)
    unbounded = bool((a > 0.0).all() or (a < 0.0).all())
    if (sol.status is Status.UNBOUNDED) is not unbounded:
        raise ContractViolation(
            f"check2d: status {sol.status.value}, but "
            + ("every slope has one strict sign" if unbounded
               else "the slopes do not all share a strict sign"))
    if unbounded:
        return

    def lower_bound(idx, values):
        on_left = a[idx] <= 0.0
        on_right = a[idx] >= 0.0
        if not (on_left.any() and on_right.any()):
            return None
        i = idx[on_left][np.argmax(values[on_left])]
        j = idx[on_right][np.argmax(values[on_right])]
        ai, bi, aj, bj = map(Fraction, (a[i], b[i], a[j], b[j]))
        if ai == aj:
            return max(bi, bj)  # both slopes are 0
        return (aj * bi - ai * bj) / (aj - ai)

    certify((a, b), (sol.x,), sol.t, lower_bound, "check2d")
