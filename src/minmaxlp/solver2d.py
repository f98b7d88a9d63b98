"""Pivoting solver for min over x of max_i (a_i * x + b_i).

Each constraint a*x + b <= t maps to the dual point (a, -b).  The optimal
objective is determined by the edge of the dual points' lower convex hull
that crosses the vertical axis.  The solver finds that edge by alternately
scanning the negative-x and positive-x dual sets for the extreme-slope
point, never touching points that cannot improve the current supporting
line.

Every decision is exact on the original coordinates.  The scan loop
``_scan`` compares candidates with ``geometry._orient``: its float filter
decides almost every turn, and the few it cannot decide go to the exact
orientation predicate of the three points themselves.

Every input is read as float64 columns (``model.columns``; a ``Problem``
already holds them).  Problems of ``_COLUMNAR_MIN_N`` constraints or more
are scanned in numpy by the slope prefilter (``_filtered_scan``): each
pivot scan forms every candidate's rounded slope in one vectorised pass,
and one comparison against a threshold from ``geometry._slope_threshold``
drops every candidate whose exact slope is proven larger than the least
rounded slope's.  The survivors, if more than one, go to the same exact
loop that smaller problems run over the columns as Python lists.  The
threshold's proof needs coordinate differences that do not overflow, which
one range check per solve establishes; where it fails, or the threshold is
too large, the scan keeps the survivors of the determinant filter that
``_orient`` runs, vectorised (``_det_survivors``).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, EmptyProblem, NonFiniteInput
from .geometry import (_ERRBOUND, _NO_UNDERFLOW, Point2, _line_through,
                       _orient, _slope_threshold)
# Unused here, but perfbench/spans.py traces solver2d._product_sign by
# rebinding it, so the name stays a module attribute.
from .geometry import _product_sign  # noqa: F401
from .model import Problem, Solution2, Status, columns, objective, signed_pairs

__all__ = [
    "expand_absolute",
    "to_dual_points",
    "solve",
    "solve_boxed",
]

# Problems with at least this many constraints take the numpy path.  Below
# it numpy's fixed per-call cost (about 45 us a solve) outweighs the
# vectorised scan.  On Gaussian instances held as columns, on a 2-CPU
# x86-64 host with numpy 2.4 (medians of 9 runs), the list path takes 43 us
# at 48 constraints against 47 us, and 54 us at 64 against 46 us.  On exact
# fits, where the exact predicates dominate both paths, the numpy path is
# up to 10% slower from 48 to 80 constraints and level at 96.
_COLUMNAR_MIN_N = 64


def expand_absolute(rows: Sequence) -> Problem:
    """Rewrite residual terms |a*x + c| as constraint pairs.

    Each row contributes (a, c) and (-a, -c): both signed copies must stay
    below the objective bound, so the pair encodes the absolute value.
    ``rows`` is read like ``solve``'s; only (a, c) are read.
    """
    if len(rows) == 0:
        raise EmptyProblem("no residuals to expand")
    return signed_pairs(columns(rows, 2))


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
    in ``idxs``.  Every turn is ``geometry._orient`` of the original points.
    """
    it = iter(idxs)
    best = next(it)
    # Every candidate lies on side ``far`` of fx, so the farther of two
    # has the larger far * x; negation is exact, a difference would round.
    far = 1.0 if xs[best] > fx else -1.0
    for j in it:
        s = _orient(fx, fy, xs[best], ys[best], xs[j], ys[j])
        if s < 0 or (s == 0 and far * xs[j] > far * xs[best]):
            best = j
    return best


def _filtered_scan(xs: np.ndarray, ys: np.ndarray, fx: float, fy: float,
                   flip: bool, ranged: bool) -> int:
    """``_scan`` over the numpy columns of the points (xs, ys), or
    (xs, -ys) when ``flip``, seen from (fx, fy).

    The slope prefilter: every rounded slope p = dy / dx is formed, and
    ``geometry._slope_threshold`` of the least one gives a T such that
    p > T proves a candidate's exact slope larger than that least one's.
    The rest, the true winner and its exact ties always among them, go to
    ``_scan`` in index order, so ties resolve exactly as in a scan over all
    candidates.  The proof needs differences that do not overflow, which
    ``ranged`` vouches for, and a T of moderate size; without either the
    survivors are those of the determinant filter, ``_det_survivors``.
    Runs with numpy's floating-point warnings off, as ``_solve_columns``
    does.
    """
    dx = xs - fx
    # With flip the candidates' y is -ys: -fy - ys is their difference,
    # rounded once, as (-ys) - fy would be.
    dy = -fy - ys if flip else ys - fy
    # In dx's buffer: a solve at n = 1e6 is 10% slower with a third array.
    p = np.divide(dy, dx, out=dx)
    t = _slope_threshold(p.item(p.argmin())) if ranged else math.nan
    if math.isnan(t):
        keep = _det_survivors(xs - fx, dy)
    else:
        keep = (p <= t).nonzero()[0]
    if keep.size == 1:
        return keep.item(0)
    ks = -ys[keep] if flip else ys[keep]
    k = _scan(xs[keep].tolist(), ks.tolist(), range(keep.size), fx, fy)
    return int(keep[k])


def _det_survivors(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Indices of the candidates at rounded differences (dx, dy) from the
    fixed point that the determinant filter cannot prove worse than the
    candidate of least rounded slope dy / dx.

    A candidate whose determinant against that provisional winner the
    error bound of ``geometry._orient`` proves positive lies strictly above
    the winner's line and cannot win; NaN, inf and possible underflow count
    as not proven, so this holds however the differences rounded or
    overflowed.  Overwrites ``dx`` and ``dy``.
    """
    p = np.divide(dy, dx)
    w = int(p.argmin())
    bx = float(dx[w])
    by = float(dy[w])
    # p = bx*cy and q = by*cx for every candidate c, in reused buffers.
    p = np.multiply(dy, bx, out=p)
    q = np.multiply(dx, by, out=dx)
    det = np.subtract(p, q, out=dy)
    detsum = np.abs(p, out=p)
    detsum += np.abs(q, out=q)
    # The bound holds where detsum >= _NO_UNDERFLOW, which det > bound
    # implies, since detsum >= det.
    bound = np.multiply(detsum, _ERRBOUND, out=q)
    bound += _NO_UNDERFLOW
    return np.logical_not(det > bound).nonzero()[0]


def solve(cs: Sequence) -> Solution2:
    """Minimise max_i (a_i * x + b_i) over all real x.

    ``cs`` is a ``Problem``, a sequence of rows whose first two fields are
    (a_i, b_i), or an (n, k >= 2) array.  Returns UNBOUNDED when every
    slope is strictly positive or strictly negative.  Otherwise the result
    is OPTIMAL; t is the unique optimal objective and x one point attaining
    it.  Raises ValueError for a row with fewer than two fields,
    NonFiniteInput for a non-finite coefficient, naming the first such
    constraint, and for an answer outside the double range.
    """
    if len(cs) == 0:
        raise EmptyProblem("solve: no constraints")
    return _solve(*columns(cs, 2))


def _solve(a: np.ndarray, b: np.ndarray) -> Solution2:
    """``solve`` on finite float64 columns, on the path that suits n."""
    if a.size < _COLUMNAR_MIN_N:
        return _solve_lists(a.tolist(), b.tolist())
    with np.errstate(all="ignore"):
        return _solve_columns(a, b)


def _solve_lists(a: list, b: list) -> Solution2:
    """``solve`` with the dual points held in Python lists."""
    left = [i for i, v in enumerate(a) if v <= 0.0]
    if not left:
        return Solution2(Status.UNBOUNDED)
    right = [i for i, v in enumerate(a) if v > 0.0]
    dpy = [-v for v in b]
    if not right:
        if all(a[i] == 0.0 for i in left):
            # Every slope is zero: the objective is the constant max b_i.
            return Solution2(Status.OPTIMAL, x=0.0, t=-min(dpy), iterations=0)
        # Slopes are all <= 0 with at least one negative: mirror x so the
        # strictly negative slopes land on the right side, solve, mirror back.
        return _mirror_back(_solve_lists([-v for v in a], b))

    # Start from the lowest left point (ties to the smaller x); any left
    # point is a valid start, the lowest one just pivots less.
    i_l = left[0]
    ly = dpy[i_l]
    lx = a[i_l]
    for i in left:
        y = dpy[i]
        if y < ly or (y == ly and a[i] < lx):
            i_l = i
            ly = y
            lx = a[i]

    # The left side's scans see the points mirrored in y, (a, b) itself.
    return _pivot(
        len(a), i_l,
        lambda i: _scan(a, dpy, right, a[i], dpy[i]),
        lambda i: _scan(a, b, left, a[i], b[i]),
        lambda i: (a[i], dpy[i]))


def _solve_columns(a: np.ndarray, b: np.ndarray) -> Solution2:
    """``solve`` on float64 columns of slopes ``a`` and intercepts ``b``,
    run with numpy's floating-point warnings off.

    Every step makes the same choice as ``_solve_lists``, so both give
    bitwise the same solution.  The sides' columns hold b itself: the
    right side's scans form their dual differences -b - fy as -fy - b, and
    the left side's scans see the points mirrored in y, (a, b).
    """
    on_right = a > 0.0
    ir = on_right.nonzero()[0]
    if ir.size == a.size:
        return Solution2(Status.UNBOUNDED)
    if ir.size == 0:
        if not a.any():
            # Every slope is zero: the objective is the constant max b_i.
            return Solution2(Status.OPTIMAL, x=0.0,
                             t=float(b[np.argmax(b)]), iterations=0)
        return _mirror_back(_solve_columns(-a, b))
    il = np.logical_not(on_right, out=on_right).nonzero()[0]

    xl = a[il]
    bl = b[il]
    xr = a[ir]
    br = b[ir]
    # The lowest left point, ties to the smaller x (first index on a tie);
    # a unique one skips the tie break, which C5's n = 1e3 point feels.
    bl_max = bl.item(bl.argmax())
    top = (bl == bl_max).nonzero()[0]
    i_l = il.item(top.item(0) if top.size == 1 else top[xl[top].argmin()])
    # No difference the scans form overflows when the sides' extremes
    # differ by a finite double: rounding is monotone, and every difference
    # is at most that one.
    ranged = (math.isfinite(xr.item(xr.argmax()) - xl.item(xl.argmin()))
              and math.isfinite(max(bl_max, br.item(br.argmax()))
                                - min(bl.item(bl.argmin()),
                                      br.item(br.argmin()))))

    def point(i):
        return a.item(i), -b.item(i)

    return _pivot(
        a.size, i_l,
        lambda i: ir.item(_filtered_scan(xr, br, a.item(i), -b.item(i),
                                         True, ranged)),
        lambda i: il.item(_filtered_scan(xl, bl, a.item(i), b.item(i),
                                         False, ranged)),
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
    """Minimise max_i (a_i * x + b_i) over x in the finite box [lo, hi].

    ``cs`` is read like ``solve``'s.  The unconstrained optimum is returned
    unchanged when it lies in the box.  Otherwise the convex objective is
    monotone on the box, and the endpoint with the smaller objective value
    is the optimum, ``lo`` on a tie.  Raises ValueError for a box that is
    empty or not finite, and NonFiniteInput when the optimal t lies outside
    the double range.
    """
    cols = columns(cs, 2)
    if cols[0].size == 0:
        raise EmptyProblem("solve_boxed: no constraints")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"invalid box: lo={lo!r}, hi={hi!r}")
    try:
        sol = _solve(*cols)
    except NonFiniteInput:
        # The input is finite, and the unconstrained t lies between two
        # intercepts: only x is out of range, and so outside the box.
        sol = Solution2(Status.UNBOUNDED)
    if sol.status is Status.OPTIMAL and lo <= sol.x <= hi:
        return sol
    t_lo = objective(cols, lo)
    t_hi = objective(cols, hi)
    x, t = (lo, t_lo) if t_lo <= t_hi else (hi, t_hi)
    if not math.isfinite(t):
        raise NonFiniteInput(
            "solve_boxed: the optimal t lies outside the double range")
    return Solution2(Status.OPTIMAL, x=float(x), t=t,
                     iterations=sol.iterations)
