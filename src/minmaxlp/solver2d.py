"""Pivoting solver for min over x of max_i (a_i * x + b_i).

Each constraint a*x + b <= t maps to the dual point (a, -b).  The optimal
objective is determined by the edge of the dual points' lower convex hull
that crosses the vertical axis.  The solver finds that edge by alternately
scanning the negative-x and positive-x dual sets for the extreme-slope
point, never touching points that cannot improve the current supporting
line.

Every comparison is exact on the original coordinates: a float filter with
a proven error bound decides almost all of them, and the few it cannot
decide go to the exact orientation predicate of the three points
themselves.  The only division happens once at the end, when the answer
line's slope is formed.

Problems of ``_COLUMNAR_MIN_N`` constraints or more are scanned in numpy:
the rows become float64 columns once, and each pivot scan takes the float
argmin of slopes in one vectorised pass, drops every candidate the error
bound proves worse than that provisional winner, and hands the survivors
(usually the winner alone) to the same exact scan loop that smaller
problems run over Python lists.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, EmptyProblem, NonFiniteInput
from .geometry import (_ERRBOUND, _NO_UNDERFLOW, Point2, _line_through,
                       _orient_sign)
# Unused here, but perfbench/spans.py traces solver2d._product_sign by
# rebinding it, so the name stays a module attribute.
from .geometry import _product_sign  # noqa: F401
from .model import Constraint2, Solution2, Status, as_rows, columns

__all__ = [
    "expand_absolute",
    "to_dual_points",
    "solve",
    "solve_boxed",
    "check_certificate",
]

# Problems with at least this many constraints take the numpy path.  Below
# it numpy's fixed per-call cost (about 80 us a solve) outweighs the
# vectorised scan: on Gaussian instances, on a 2-CPU x86-64 host with
# numpy 2.4, the two paths take the same time between 192 and 256
# constraints, and the list path is 1.5-3x faster at 64-128.
_COLUMNAR_MIN_N = 192


def expand_absolute(rows: Sequence) -> list[Constraint2]:
    """Rewrite residual terms |a*x + c| as constraint pairs.

    Each row contributes (a, c) and (-a, -c): both signed copies must stay
    below the objective bound, so the pair encodes the absolute value.
    ``rows`` may also be an (n, k >= 2) array; only (a, c) are read.
    """
    rows = as_rows(rows)
    if len(rows) == 0:
        raise EmptyProblem("no residuals to expand")
    out: list[Constraint2] = []
    for r in rows:
        a, c = r[0], r[1]
        out.append(Constraint2(a, c))
        out.append(Constraint2(-a, -c))
    return out


def to_dual_points(cs: Sequence) -> list[Point2]:
    """Map each constraint (a, b) to its dual point (a, -b)."""
    return [Point2(c[0], -c[1]) for c in cs]


def _scan(xs: Sequence[float], ys: Sequence[float], idxs: Sequence[int],
          fx: float, fy: float) -> int:
    """Index of the candidate with minimal slope seen from (fx, fy).

    Candidates must all lie strictly on one side of the fixed point in x.
    A candidate wins when it lies strictly below the line through the fixed
    point and the current best; exact collinear ties go to the candidate
    farthest from the fixed point in x, and identical points to the first
    in ``idxs``.  The float fast path only decides cases that are safely
    outside the rounding error bound, or whose products are exactly zero;
    every other case goes to the exact orientation of the original points.
    """
    it = iter(idxs)
    best = next(it)
    bx = xs[best] - fx
    by = ys[best] - fy
    babs = abs(bx)
    for j in it:
        cx = xs[j] - fx
        cy = ys[j] - fy
        p = bx * cy
        q = by * cx
        # Strictly signed rounded products carry the signs of the exact
        # ones; a zero product is trusted only when one of its factors is
        # zero, since a nonzero product can underflow to zero.
        if p > 0.0:
            if q < 0.0:
                continue
            detsum = p + q
        elif p < 0.0:
            if q > 0.0:
                best = j
                bx = cx
                by = cy
                babs = abs(cx)
                continue
            detsum = -p - q
        elif bx == 0.0 or cy == 0.0:
            if q > 0.0:
                best = j
                bx = cx
                by = cy
                babs = abs(cx)
                continue
            if q < 0.0:
                continue
            if by == 0.0 or cx == 0.0:
                s = 0
            else:
                s = _orient_sign(fx, fy, xs[best], ys[best], xs[j], ys[j])
            if s < 0 or (s == 0 and abs(cx) > babs):
                best = j
                bx = cx
                by = cy
                babs = abs(cx)
            continue
        else:
            detsum = 0.0  # p underflowed: only the exact predicate can tell
        det = p - q
        if detsum >= _NO_UNDERFLOW:
            err = _ERRBOUND * detsum
            if det > err:
                continue
            if det < -err:
                best = j
                bx = cx
                by = cy
                babs = abs(cx)
                continue
        s = _orient_sign(fx, fy, xs[best], ys[best], xs[j], ys[j])
        if s < 0 or (s == 0 and abs(cx) > babs):
            best = j
            bx = cx
            by = cy
            babs = abs(cx)
    return best


def _filtered_scan(xs: np.ndarray, ys: np.ndarray, fx: float, fy: float) -> int:
    """``_scan`` over numpy columns, with the float filter run vectorised.

    The float argmin of slopes from (fx, fy) gives a provisional winner.
    Every candidate whose determinant against that winner the error bound
    proves positive lies strictly above the winner's line and cannot win;
    NaN, inf and possible underflow count as not proven.  The survivors,
    the true winner always among them, go to ``_scan`` in index order, so
    ties resolve exactly as in a scan over all candidates.
    """
    with np.errstate(all="ignore"):
        dx = xs - fx
        dy = ys - fy
        p = np.divide(dy, dx)
        w = int(np.argmin(p))
        bx = float(dx[w])
        by = float(dy[w])
        # p = bx*cy and q = by*cx for every candidate c, in reused buffers.
        p = np.multiply(dy, bx, out=p)
        q = np.multiply(dx, by, out=dx)
        det = np.subtract(p, q, out=dy)
        detsum = np.abs(p, out=p)
        detsum += np.abs(q, out=q)
        proven = detsum >= _NO_UNDERFLOW
        proven &= det > np.multiply(detsum, _ERRBOUND, out=q)
    keep = np.flatnonzero(~proven)
    k = _scan(xs[keep].tolist(), ys[keep].tolist(), range(keep.size), fx, fy)
    return int(keep[k])


def solve(cs: Sequence) -> Solution2:
    """Minimise max_i (a_i * x + b_i) over all real x.

    ``cs`` is a sequence of rows whose first two fields are (a_i, b_i), or
    an (n, k >= 2) array.  Returns UNBOUNDED when every slope is strictly
    positive or strictly negative.  Otherwise the result is OPTIMAL; t is
    the unique optimal objective and x one point attaining it.  Raises
    ValueError for a row with fewer than two fields, NonFiniteInput for a
    non-finite coefficient, naming the first such constraint, and for an
    answer outside the double range.
    """
    n = len(cs)
    if n == 0:
        raise EmptyProblem("solve: no constraints")
    if n < _COLUMNAR_MIN_N:
        return _solve_rows(as_rows(cs))
    return _solve_columns(*columns(cs, 2))


def _solve_rows(cs: Sequence) -> Solution2:
    """``solve`` with the dual points held in Python lists."""
    n = len(cs)
    isfin = math.isfinite
    dpx = [0.0] * n
    dpy = [0.0] * n
    left: list[int] = []
    right: list[int] = []
    try:
        for i, c in enumerate(cs):
            # float() here, as the numpy path does, so int rows give float
            # answers and pivot pairs, with the same signed zeros.
            a = float(c[0])
            b = float(c[1])
            if not (isfin(a) and isfin(b)):
                raise NonFiniteInput(f"constraint {i} is not finite")
            dpx[i] = a
            dpy[i] = -b
            if a <= 0.0:
                left.append(i)
            else:
                right.append(i)
    except IndexError:
        raise ValueError("constraints need at least 2 fields") from None
    if not left:
        return Solution2(Status.UNBOUNDED)
    if not right:
        if all(dpx[i] == 0.0 for i in left):
            # Every slope is zero: the objective is the constant max b_i.
            return Solution2(Status.OPTIMAL, x=0.0, t=-min(dpy), iterations=0)
        # Slopes are all <= 0 with at least one negative: mirror x so the
        # strictly negative slopes land on the right side, solve, mirror back.
        return _mirror_back(
            _solve_rows([Constraint2(-c[0], c[1]) for c in cs]))

    dpy_neg = [-v for v in dpy]

    # Start from the lowest left point (ties to the smaller x); any left
    # point is a valid start, the lowest one just pivots less.
    i_l = left[0]
    ly = dpy[i_l]
    lx = dpx[i_l]
    for i in left:
        y = dpy[i]
        if y < ly or (y == ly and dpx[i] < lx):
            i_l = i
            ly = y
            lx = dpx[i]

    return _pivot(
        n, i_l,
        lambda i: _scan(dpx, dpy, right, dpx[i], dpy[i]),
        lambda i: _scan(dpx, dpy_neg, left, dpx[i], dpy_neg[i]),
        lambda i: (dpx[i], dpy[i]))


def _solve_columns(a: np.ndarray, b: np.ndarray) -> Solution2:
    """``solve`` on float64 columns of slopes ``a`` and intercepts ``b``.

    Every step makes the same choice as ``_solve_rows``, so both give
    bitwise the same solution; the dual y coordinate -b of a point is
    formed where it is needed, and the left side's scans read b itself.
    """
    n = a.size
    on_right = a > 0.0
    il = np.flatnonzero(~on_right)
    if il.size == 0:
        return Solution2(Status.UNBOUNDED)
    ir = np.flatnonzero(on_right)
    if ir.size == 0:
        if not a.any():
            # Every slope is zero: the objective is the constant max b_i.
            return Solution2(Status.OPTIMAL, x=0.0,
                             t=float(b[np.argmax(b)]), iterations=0)
        return _mirror_back(_solve_columns(-a, b))

    xl = a[il]
    yl_neg = b[il]
    xr = a[ir]
    yr = b[ir]
    np.negative(yr, out=yr)
    # The lowest left point, ties to the smaller x (first index on a tie).
    top = np.flatnonzero(yl_neg == yl_neg.max())
    i_l = int(il[top[np.argmin(xl[top])]])

    def point(i):
        return float(a[i]), -float(b[i])

    return _pivot(
        n, i_l,
        lambda i: int(ir[_filtered_scan(xr, yr, float(a[i]), -float(b[i]))]),
        lambda i: int(il[_filtered_scan(xl, yl_neg, float(a[i]), float(b[i]))]),
        point)


def _mirror_back(sol: Solution2) -> Solution2:
    """The solution of the x-mirrored problem, mapped back to x."""
    if sol.status is Status.UNBOUNDED:
        return sol
    pairs = tuple((Point2(-pl.x, pl.y), Point2(-pr.x, pr.y))
                  for pl, pr in sol.pivot_pairs)
    return Solution2(Status.OPTIMAL, x=-sol.x, t=sol.t,
                     iterations=sol.iterations, pivot_pairs=pairs)


def _pivot(n: int, i_l: int, scan_right: Callable[[int], int],
           scan_left: Callable[[int], int],
           point: Callable[[int], tuple[float, float]]) -> Solution2:
    """Alternate the two sides' scans from left point ``i_l`` to the answer.

    ``scan_right(i)`` is the right point of minimal slope seen from left
    point i, ``scan_left(i)`` the left point of maximal slope into right
    point i; ``point(i)`` is dual point i.  The loop stops when a scan
    returns the point it already has.
    """
    pairs: list[tuple[int, int]] = []
    iters = 1
    i_r = scan_right(i_l)
    pairs.append((i_l, i_r))
    limit = 2 * n * n + 64
    while True:
        j = scan_left(i_r)
        iters += 1
        if j == i_l:
            break
        i_l = j
        pairs.append((i_l, i_r))
        j = scan_right(i_l)
        iters += 1
        if j == i_r:
            break
        i_r = j
        pairs.append((i_l, i_r))
        if iters > limit:
            raise ContractViolation("pivot loop exceeded its iteration bound")

    m, t = _line_through(*point(i_l), *point(i_r), "solve")
    recorded = tuple((Point2(*point(i)), Point2(*point(j))) for i, j in pairs)
    return Solution2(Status.OPTIMAL, x=m, t=t, iterations=iters,
                     pivot_pairs=recorded)


def solve_boxed(cs: Sequence, lo: float, hi: float) -> Solution2:
    """Minimise max_i (a_i * x + b_i) over x in [lo, hi].

    Runs the unconstrained solver first; when its optimum falls outside the
    box (or the problem is unbounded) the objective is convex piecewise
    linear, so the boxed optimum sits at the nearer endpoint.
    """
    cs = as_rows(cs)
    if len(cs) == 0:
        raise EmptyProblem("solve_boxed: no constraints")
    if not lo <= hi:
        raise ValueError(f"invalid box: lo={lo!r} > hi={hi!r}")
    sol = solve(cs)
    if sol.status is Status.OPTIMAL and lo <= sol.x <= hi:
        return sol
    if sol.status is Status.OPTIMAL:
        end = lo if sol.x < lo else hi
    else:
        # All slopes share a strict sign: increasing means the minimum is at
        # the left endpoint, decreasing at the right one.
        end = lo if cs[0][0] > 0.0 else hi
    t = max(c[0] * end + c[1] for c in cs)
    return Solution2(Status.OPTIMAL, x=end, t=t, iterations=sol.iterations)


def check_certificate(cs: Sequence, sol: Solution2, eps: float) -> bool:
    """Linear-time global optimality check for a claimed optimum.

    True iff every constraint value at sol.x stays below sol.t + eps and the
    eps-active set contains both a slope <= 0 and a slope >= 0; for a convex
    piecewise-linear maximum that certifies a global minimum.
    """
    if sol.status is not Status.OPTIMAL:
        raise ValueError("certificate check requires an optimal solution")
    x = sol.x
    t_hi = sol.t + eps
    t_lo = sol.t - eps
    has_down = False
    has_up = False
    for c in cs:
        a = c[0]
        v = a * x + c[1]
        if v > t_hi:
            return False
        if v >= t_lo:
            if a <= 0.0:
                has_down = True
            if a >= 0.0:
                has_up = True
    return has_down and has_up
