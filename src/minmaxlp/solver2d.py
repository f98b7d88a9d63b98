"""Pivoting solver for min over x of max_i (a_i * x + b_i).

Each constraint a*x + b <= t maps to the dual point (a, -b).  The optimal
objective is determined by the edge of the dual points' lower convex hull
that crosses the vertical axis.  The solver finds that edge by alternately
scanning the negative-x and positive-x dual sets for the extreme-slope
point, never touching points that cannot improve the current supporting
line.

Every decision is exact on the original coordinates.  The scan loop
``_scan`` compares candidates with ``geometry._orient``'s float filter,
inlined with its constants, which decides almost every turn.  Each turn
it misses goes to ``geometry._settle``, the package's one exact
arithmetic: an integer determinant on the integer images of the points
(``geometry._images``), which the first miss of a solve builds and every
later one reuses.  On the list path that is one set of images of all dual
points, shared by both sides (the left side's scans see the points
mirrored in y, which negates each turn); a numpy scan builds the images
of its survivors and its fixed point.  A solve that misses nowhere builds
no images.

Every input is read as float64 columns (``model.columns``; a ``Problem``
already holds them), and ``_solve`` decides the setup on them once: the
sides, UNBOUNDED, the constant answer and the x-mirror.  Only the start
search and the scans depend on size.  Below ``_COLUMNAR_MIN_N`` constraints
both run over the columns as Python lists.  From there on they run in
numpy, and each pivot scan is the slope prefilter (``_filtered_scan``), the
path's one filter: it forms every candidate's rounded slope in one
vectorised pass, and one comparison against a threshold from
``geometry._slope_threshold`` drops every candidate whose exact slope is
proven larger than the least rounded slope's.  The survivors, if more than
one, go to ``_scan``.  The threshold's proof needs coordinate differences
that do not overflow, which each scan checks on its side's extremes, and a
threshold of moderate size; a scan without both hands every candidate to
``_scan``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, NonFiniteInput
# ``_scan`` settles every float-filter miss through the module attribute
# ``_settle``, so a tracer that rebinds it counts them.
from .geometry import (_ERRBOUND, _NO_UNDERFLOW, Point2, _ExactPoints,
                       _line_through, _settle, _slope_threshold)
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
    return signed_pairs(columns(rows, 2))


def to_dual_points(cs: Sequence) -> list[Point2]:
    """Map each constraint (a, b) to its dual point (a, -b)."""
    return [Point2(c[0], -c[1]) for c in cs]


def _scan(pts: _ExactPoints, idxs: Sequence[int], f: int) -> int:
    """Index of the candidate with minimal slope seen from point f of
    ``pts``.

    Candidates must all lie strictly on one side of point f in x.  A
    candidate wins when it lies strictly below the line through point f
    and the current best; exact collinear ties go to the candidate farthest
    from point f in x, and identical points to the first in ``idxs``.
    Every turn is ``geometry._orient``'s float filter on the points
    themselves, and ``_settle`` decides each one the filter misses.
    """
    xs = pts.xs
    ys = pts.ys
    fx = xs[f]
    fy = ys[f]
    it = iter(idxs)
    best = next(it)
    bx = xs[best]
    by = ys[best]
    # Every candidate lies on side ``far`` of fx, so the farther of two
    # has the larger far * x; negation is exact, a difference would round.
    far = 1.0 if bx > fx else -1.0
    for j in it:
        cx = xs[j]
        cy = ys[j]
        p = (bx - fx) * (cy - fy)
        q = (by - fy) * (cx - fx)
        det = p - q
        bound = _ERRBOUND * (abs(p) + abs(q)) + _NO_UNDERFLOW
        if det > bound:
            continue
        # NaN and inf never clear the bound, as in ``_orient``.
        if not det < -bound:
            s = _settle(pts, f, best, j)
            if s > 0 or (s == 0 and far * cx <= far * bx):
                continue
        best = j
        bx = cx
        by = cy
    return best


def _filtered_scan(xs: np.ndarray, ys: np.ndarray, fx: float, fy: float,
                   flip: bool, ranged: bool) -> int:
    """``_scan`` over the numpy columns of the points (xs, ys), or
    (xs, -ys) when ``flip``, seen from (fx, fy).

    The slope prefilter: every rounded slope p = dy / dx is formed, and
    ``geometry._slope_threshold`` of the least one gives a T such that
    p > T proves a candidate's exact slope larger than that least one's.
    The rest, the true winner and its exact ties always among them, go to
    ``_scan`` in index order, with (fx, fy) after them, so ties resolve
    exactly as in a scan over all candidates.  The proof needs a T of
    moderate size and differences dx, dy that do not overflow, which
    ``ranged`` vouches for; without either, every candidate goes to
    ``_scan``.  Runs with numpy's floating-point warnings off, as
    ``_solve`` calls it.
    """
    t = math.nan
    if ranged:
        dx = xs - fx
        # With flip the candidates' y is -ys: -fy - ys is their difference,
        # rounded once, as (-ys) - fy would be.
        dy = -fy - ys if flip else ys - fy
        # In dx's buffer: a third array slows a solve at n = 1e6 by 10%.
        p = np.divide(dy, dx, out=dx)
        t = _slope_threshold(p.item(p.argmin()))
    keep = np.arange(xs.size) if math.isnan(t) else (p <= t).nonzero()[0]
    if keep.size == 1:
        return keep.item(0)
    kx = xs[keep].tolist()
    ky = (-ys[keep] if flip else ys[keep]).tolist()
    kx.append(fx)
    ky.append(fy)
    k = _scan(_ExactPoints(kx, ky), range(keep.size), keep.size)
    return int(keep[k])


def _ranged(ext: tuple[float, float], fx: float, fb: float) -> bool:
    """Whether a numpy scan from dual point (fx, -fb) forms no difference
    that overflows, given ``ext``: its side's x farthest from the other
    side, and least intercept.  Rounding is monotone, so the differences
    from those two bound all others but those toward the largest
    intercept; one of these that overflows makes the least rounded slope
    -inf, whose ``_slope_threshold`` is NaN.
    """
    return math.isfinite(ext[0] - fx) and math.isfinite(ext[1] - fb)


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
    return _solve(*columns(cs, 2))


def _solve(a: np.ndarray, b: np.ndarray) -> Solution2:
    """``solve`` on finite float64 columns of slopes ``a`` and intercepts
    ``b``.

    The sides, UNBOUNDED, the constant answer and the x-mirror are decided
    here once; only the start search and the scans differ by size.  The
    dual points are (a, -b); the left side's scans see them mirrored in y,
    (a, b).
    """
    on_right = a > 0.0
    ir = on_right.nonzero()[0]
    if ir.size == a.size:
        return Solution2(Status.UNBOUNDED)
    if ir.size == 0:
        if not a.any():
            # Every slope is zero: the objective is the constant max b_i.
            return Solution2(Status.OPTIMAL, x=0.0, t=b.item(b.argmax()),
                             iterations=0)
        # Slopes are all <= 0 with at least one negative: mirror x so the
        # strictly negative slopes land on the right side, solve, mirror back.
        return _mirror_back(_solve(-a, b))
    il = np.logical_not(on_right, out=on_right).nonzero()[0]

    # Start from the lowest left point, ties to the smaller x and then the
    # first index; any left point is a valid start, the lowest one just
    # pivots less.
    if a.size < _COLUMNAR_MIN_N:
        xs = a.tolist()
        ys = b.tolist()
        dpy = [-v for v in ys]
        left = il.tolist()
        right = ir.tolist()
        i_l = left[0]
        ly = dpy[i_l]
        lx = xs[i_l]
        for i in left:
            y = dpy[i]
            if y < ly or (y == ly and xs[i] < lx):
                i_l = i
                ly = y
                lx = xs[i]
        # Both sides' fixed points are dual points too, so one set of
        # images serves every scan of the solve.
        dual = _ExactPoints(xs, dpy)
        mirrored = _ExactPoints(xs, ys, dual)
        return _pivot(
            len(xs), i_l,
            lambda i: _scan(dual, right, i),
            lambda i: _scan(mirrored, left, i),
            lambda i: (xs[i], dpy[i]))

    xl = a[il]
    bl = b[il]
    xr = a[ir]
    br = b[ir]
    # A unique lowest point skips the tie break, which C5's n = 1e3 point
    # feels.
    bl_max = bl.item(bl.argmax())
    top = (bl == bl_max).nonzero()[0]
    i_l = il.item(top.item(0) if top.size == 1 else top[xl[top].argmin()])
    # Each side's extremes, which bound its scans' differences.
    ext_r = (xr.item(xr.argmax()), br.item(br.argmin()))
    ext_l = (xl.item(xl.argmin()), bl.item(bl.argmin()))
    # The right side's scans form their dual differences -b - fy as -fy - b.
    with np.errstate(all="ignore"):
        return _pivot(
            a.size, i_l,
            lambda i: ir.item(_filtered_scan(
                xr, br, a.item(i), -b.item(i), True,
                _ranged(ext_r, a.item(i), b.item(i)))),
            lambda i: il.item(_filtered_scan(
                xl, bl, a.item(i), b.item(i), False,
                _ranged(ext_l, a.item(i), b.item(i)))),
            lambda i: (a.item(i), -b.item(i)))


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
