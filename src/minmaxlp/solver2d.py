"""Pivoting solver for min over x of max_i (a_i * x + b_i).

Each constraint a*x + b <= t maps to the dual point (a, -b).  The optimal
objective is determined by the edge of the dual points' lower convex hull
that crosses the vertical axis.  The solver finds that edge by repeating
one alternating step (``_pivot``): each step scans the negative-x or the
positive-x dual set, in turn, for the extreme-slope point seen from the
other set's current end, never touching points that cannot improve the
current supporting line.

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

Every input is read as the two unit-stride rows, slopes and intercepts,
of one float64 (2, n) array (``model._held``; a ``Problem`` holds its
constraints so, and hands over its array without a copy).  Below
``_COLUMNAR_MIN_N`` constraints ``_solve_lists`` reads the columns once,
as Python lists, and takes the sides, their counts and the start point
from those lists, with no numpy mask; ``expand_absolute`` writes a short
list of float rows straight into its problem's (2, n) array.  From there
on the start search and the scans run in numpy.  Up to two blocks of
``_BLOCK`` rows, ``_solve`` copies the columns once, side by side: a
(2, n) buffer of the left rows, then the right rows, each in input order,
which the scans read as slices and the pivots index.  Larger problems are
read where they lie (``_solve_blocks``): one pass over blocks of
``_BLOCK`` rows records each side as offsets within their blocks, two
bytes a row, and finds the start point and the range of all values; each
scan of a side gathers it through those offsets a block at a time, in
input order.  So a solve holds its input once, and its offsets and a few
blocks besides.  Every setup leaves rows that all lie on one side to one
rule (``_one_sided``): UNBOUNDED, the constant answer, or the x-mirror.
The mirror solves slopes all <= 0, some negative, on the rows where they
lie: its side test puts the negative slopes on the right, so the left
side holds only the zero-slope rows, and each side's scans read the
other side's frame.  That is the point reflection of the frames of the
negated slopes' solve, which picks the same winners, and every dual point
is reported as it is, (a, -b).

A pairs problem (``expand_absolute``, the residuals |a*x + c|) is solved
on its n rows (``_solve_pairs``): the dual points of a row's pair are
reflections of each other through the origin, so one (2, n) buffer of
the left side's constraints serves both sides, and a right scan from
left point f is the left side's scan from -f.  It gives the answer,
iterations and pivot points of its 2n constraints written out, bit for
bit.

The numpy setups end alike.  The start point is ``_start`` of the left
side's rows (of each block's, and then of those, for the offsets); the
range of all values, which tells the scans whether a difference may
overflow, is ``_span``; and ``_pivot_on`` hands the sides, however they
are held, to ``_pivot`` through ``_filtered_scan``.  The list path keeps
its own start loop and scans its lists with ``_scan`` alone, as numpy's
fixed cost per call outweighs the vectorised scan below
``_COLUMNAR_MIN_N`` constraints.

Each numpy pivot scan is the slope prefilter (``_filtered_scan``): it
forms every candidate's rounded slope, and a threshold from
``geometry._slope_threshold`` drops every candidate whose exact slope is
proven larger than the least rounded slope's.  The survivors, if more
than one, go to ``_scan``.  The threshold's proof needs coordinate
differences that do not overflow: a candidate whose own differences
overflow is kept beside the survivors, and a scan whose least slope is
too large for a threshold keeps every candidate.
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
from .model import (Problem, Solution2, Status, _held, columns, objective,
                    signed_pairs)

__all__ = [
    "expand_absolute",
    "to_dual_points",
    "solve",
    "solve_boxed",
]

# Problems with at least this many constraints take the numpy path.  Below
# it numpy's fixed per-call cost outweighs the vectorised scan.  On a 2-CPU
# x86-64 host with numpy 2.4 (medians of 15 interleaved rounds over 9
# instances), on Gaussian instances held as columns the list path takes
# 20.8 us at 16 constraints against 33.3 us, 27.9 us at 32 against 33.0 us,
# 34.6 us at 48 against 33.7 us and 40.9 us at 63 against 33.5 us.  On
# exact fits, where the exact predicates dominate both paths, the numpy
# path is 1.3-1.7 times slower from 32 to 128 constraints.  So the cut
# stays here, between the small fits of 8-12 residuals below it and
# Gaussian problems of 1e3 constraints and more far above it.
_COLUMNAR_MIN_N = 64
# The numpy path's block of rows, at least _COLUMNAR_MIN_N: the index pass
# of a problem larger than two blocks reads its rows, and each scan of an
# indexed side or of a side larger than one block forms its differences,
# this many rows at a time; an offset within a block fits 16 bits.  At 1e5
# constraints each side fits in one block: smaller blocks made that size
# 6% slower, and the index pass with each side gathered once made it
# 1.2-1.3 times slower than the side-ordered copy, which up to two blocks
# of rows still take.
_BLOCK = 1 << 16


def expand_absolute(rows: Sequence) -> Problem:
    """Rewrite residual terms |a*x + c| as constraint pairs.

    Each row contributes (a, c) and (-a, -c): both signed copies must stay
    below the objective bound, so the pair encodes the absolute value.
    ``rows`` is read like ``solve``'s; only (a, c) are read.  The result
    is a pairs problem (``model.signed_pairs``): the 2n constraints, held
    as the n rows (a, c), with no copy of a ``Problem``'s array.
    """
    # A list of rows whose pairs take solve's list path is read by a Python
    # loop, which outruns the general reader at that size.
    if type(rows) is list and 2 * len(rows) < _COLUMNAR_MIN_N:
        pairs = _float_pairs(rows)
        if pairs is not None:
            return pairs
    return signed_pairs(columns(rows, 2))


def _float_pairs(rows: list) -> Problem | None:
    """``expand_absolute`` of a short list of rows whose fields a and c are
    all finite Python floats, written straight into the (2, n) array of
    its rows; None for any other list, which the general reader then
    reads, or rejects with its own error.
    """
    xs = []
    ys = []
    try:
        for r in rows:
            x = r[0]
            y = r[1]
            if type(x) is not float or type(y) is not float:
                return None
            xs.append(x)
            ys.append(y)
    except IndexError:  # a row of one field, which the general reader rejects
        return None
    xs += ys
    # The sum is NaN or inf from the first inf or NaN on, and finite
    # values whose sum overflows go to the general reader too.
    if not (xs and math.isfinite(sum(xs))):
        return None
    return signed_pairs(np.fromiter(xs, float, len(xs)).reshape(2, -1))


def _both_signs(vs: list) -> list:
    """v0, -v0, v1, -v1, ... for the floats ``vs``."""
    out = vs * 2
    out[::2] = vs
    out[1::2] = [-v for v in vs]
    return out


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


def _filtered_scan(xs: np.ndarray, ys: np.ndarray, fx: float, fb: float,
                   flip: bool, span: float, blocks: list | None = None) -> int:
    """``_scan`` over the numpy columns of the points (xs, ys), seen from
    (fx, fb), or over (xs, -ys) from (fx, -fb) when ``flip``; with
    ``blocks``, over the rows of xs and ys that ``blocks`` names
    (``_solve_blocks``), in their order, and the winner is given as its
    row of xs and ys.

    The slope prefilter: every rounded slope p = dy / dx is formed, and
    ``geometry._slope_threshold`` of the least one gives a T such that
    p > T proves a candidate's exact slope larger than that least one's.
    The rest, the true winner and its exact ties always among them, go to
    ``_scan`` in index order, with (fx, fy) after them, so ties resolve
    exactly as in a scan over all candidates.  The proof needs a T of
    moderate size, and a scan without one hands every candidate to
    ``_scan``.  It also needs differences dx, dy that do not overflow: a
    candidate whose own dx or dy does is kept whatever its slope, and T
    comes from the others.

    ``span`` bounds every |dx| and |dy| of the solve, and is inf where
    some dx or dy may overflow.  Every |dx| is at least |fx|, as the candidates lie
    on the other side of x = 0, so where span / |fx| is finite no
    difference or quotient overflows, and the scan runs with numpy's
    floating-point warnings as they are; otherwise it runs with them off.
    A side of at most ``_BLOCK`` rows is one block, and the common case
    there, one survivor, is found by a second least slope above T; larger
    sides, indexed ones, and scans that may overflow, take
    ``_survivors``' blocked pass.
    """
    n = xs.size
    if not (fx and math.isfinite(span / fx)):
        with np.errstate(all="ignore"):
            keep = _survivors(xs, ys, fx, fb, flip, not math.isfinite(span),
                              blocks)
    elif n > _BLOCK or blocks is not None:
        keep = _survivors(xs, ys, fx, fb, flip, False, blocks)
    else:
        dx = xs - fx
        p = np.divide(np.subtract(fb, ys) if flip else ys - fb, dx, dx)
        w = int(p.argmin())
        least = p.item(w)
        t = _slope_threshold(least)
        p[w] = math.inf
        # A second least slope above T: w alone survives.  (Never so for
        # a NaN T.)
        if p.item(p.argmin()) > t:
            return w
        p[w] = least
        keep = (p <= t).nonzero()[0] if t == t else None
    if keep is None:
        keep = np.arange(n) if blocks is None else np.concatenate(
            [np.add(off, s, dtype=np.intp) for s, off in blocks])
    elif len(keep) == 1:
        return int(keep[0])
    kx = xs.take(keep).tolist()
    ky = ys.take(keep)
    ky = (-ky if flip else ky).tolist()
    kx.append(fx)
    ky.append(-fb if flip else fb)
    k = _scan(_ExactPoints(kx, ky), range(len(keep)), len(keep))
    return int(keep[k])


def _survivors(xs: np.ndarray, ys: np.ndarray, fx: float, fb: float,
               flip: bool, wide: bool, blocks: list | None = None):
    """The ascending indices of the candidates that ``_filtered_scan``'s
    threshold keeps, seen from (fx, fb) in the frame of ``ys`` (dy is
    fb - ys with ``flip``, ys - fb without), or None when no threshold is
    proven.  With ``wide``, the candidates whose own dx or dy overflows are kept as
    well, and the threshold comes from the others.  With ``blocks``, the
    candidates are the rows of xs and ys that it names, and the indices
    are those rows.

    One pass over blocks of ``_BLOCK`` rows, their differences formed in
    one reused (2, block) buffer, keeps the least slope so far, its
    threshold, and the candidates at or below that threshold with their
    slopes.  A block of ``blocks``, one start row and its offsets, is
    gathered into that buffer, in order, through one reused index array:
    ``take`` would convert the offsets to a new one in each call.
    ``_slope_threshold`` is monotone, so the threshold only
    falls, and a final filter against the last one leaves exactly the
    candidates that one pass over all of them would keep.  A block whose
    least slope lies above the threshold keeps nothing.
    """
    if blocks is None:
        n = xs.size
        work = np.empty((2, min(n, _BLOCK)))
        blocks = [(s, None) for s in range(0, n, _BLOCK)]
    else:
        widest = max(off.size for _, off in blocks)
        work = np.empty((2, widest))
        at = np.empty(widest, np.intp)
    inf = math.inf
    least = t = inf  # no threshold yet: every candidate stays
    found = []
    for s, off in blocks:
        if off is None:
            xb = xs[s:s + _BLOCK]
            k = xb.size
            dx = np.subtract(xb, fx, work[0, :k])
            yb = ys[s:s + _BLOCK]
        else:
            k = off.size
            rows = at[:k]
            np.copyto(rows, off)
            dx = xs[s:s + _BLOCK].take(rows, None, work[0, :k], "clip")
            dx -= fx
            yb = ys[s:s + _BLOCK].take(rows, None, work[1, :k], "clip")
        dy = work[1, :k]
        if flip:
            np.subtract(fb, yb, dy)
        else:
            np.subtract(yb, fb, dy)
        if wide:
            over = np.isinf(dx)
            over |= np.isinf(dy)
        p = np.divide(dy, dx, dx)
        if wide:
            p[over] = inf
        pj = p.item(p.argmin())
        if pj < least:
            least = pj
            t = _slope_threshold(pj)
            if t != t:
                if not pj > 0.0:
                    return None  # the least slope only falls
                t = inf
        if wide and over.any():
            p[over] = -inf  # kept against every threshold
        elif pj > t:
            continue
        j = (p <= t).nonzero()[0]
        found.append((j + s if off is None else rows.take(j) + s, p.take(j)))
    if t == inf:
        return None
    keep = np.concatenate([k for k, _ in found])
    return keep.compress(np.concatenate([q for _, q in found]) <= t)


def solve(cs: Sequence) -> Solution2:
    """Minimise max_i (a_i * x + b_i) over all real x.

    ``cs`` is a ``Problem``, a sequence of rows whose first two fields are
    (a_i, b_i), or an (n, k >= 2) array.  Returns UNBOUNDED when every
    slope is strictly positive or strictly negative.  Otherwise the result
    is OPTIMAL; t is the unique optimal objective and x one point attaining
    it.  Raises ValueError for a row with fewer than two fields,
    NonFiniteInput for a non-finite coefficient, naming the first such
    constraint, and for an answer outside the double range.  A pairs
    problem (``expand_absolute``) is solved on its n rows, with the answer
    of its 2n constraints, bit for bit.
    """
    cols, pairs = _held(cs, 2)
    return (_solve_pairs if pairs else _solve)(cols[0], cols[1])


def _solve(a: np.ndarray, b: np.ndarray, mirror: bool = False) -> Solution2:
    """``solve`` on finite float64 columns of slopes ``a`` and intercepts
    ``b``; with ``mirror``, their x-mirror (``_one_sided``).

    The dual points are (a, -b); the left side's scans see them mirrored
    in y, (a, b).  The sides are a > 0 on the right and a <= 0 on the
    left, and rows that all lie on one side go to ``_one_sided``.  Slopes
    all <= 0, some negative, are solved as their x-mirror, which
    ``_one_sided`` alone asks for: the side test is a < 0 on the right, so
    the left side holds only the zero-slope rows, and the right side's
    scans see (a, b), the left side's (a, -b).  That is the point
    reflection through the origin of what the scans of the negated slopes
    (-a, b) would see: each difference is negated exactly and each slope
    is the same up to the sign of a zero, and a point reflection keeps
    every orientation, so every scan picks the same winner.  The points
    are reported as they are, (a, -b), each pair (the point on x = 0, the
    point with x < 0), and the line through them is the negated slopes'
    answer mirrored back, bit for bit.

    Below ``_COLUMNAR_MIN_N`` constraints ``_solve_lists`` solves them as
    Python lists, and above two blocks of ``_BLOCK`` rows
    ``_solve_blocks`` solves them where they lie.  In between, the columns
    are copied once, side by side, into a (2, n) buffer: a mask, its
    ``nonzero`` and ``take`` into the buffer for each block of ``_BLOCK``
    rows (one take a side and column where one block holds them all).
    Both forks pay.  On a 2-CPU x86-64 host with numpy 2.4, in a steady
    loop of 1e5-row solves in each of 8 fresh processes, one take a side
    cost 749 minor page faults an op and 2.0-3.2 ms, against none and
    0.82-1.21 ms for the blocked loop; and the blocked loop at every size
    made the solve 1.11 times slower at 1e3 rows and 1.04 times at 1e4
    (medians of 15 interleaved rounds).  The side order keeps the tie
    rules, as each side stays in input order.  The start point
    (``_start`` of the left rows) and the range of all values (``_span``)
    come from the buffer, and ``_pivot_on`` scans its two slices.
    """
    n = a.size
    if n < _COLUMNAR_MIN_N:
        return _solve_lists(a.tolist(), b.tolist(), mirror)
    if n > 2 * _BLOCK:
        return _solve_blocks(a, b, mirror)
    on_right = a < 0.0 if mirror else a > 0.0
    # A one-block copy takes the right rows' indices, and counts them by
    # those; more blocks count them alone.
    ir = on_right.nonzero()[0] if n <= _BLOCK else None
    nr = np.count_nonzero(on_right) if ir is None else ir.size
    if nr == n or nr == 0:
        return _one_sided(a, b, nr == n, _solve)
    nl = n - nr
    buf = np.empty((2, n))
    xs, ys = buf[0], buf[1]
    xl, yl, xr, yr = xs[:nl], ys[:nl], xs[nl:], ys[nl:]
    if n <= _BLOCK:
        # One block: each side in one take a column.
        il = np.logical_not(on_right, out=on_right).nonzero()[0]
        a.take(il, None, xl, "clip")
        b.take(il, None, yl, "clip")
        a.take(ir, None, xr, "clip")
        b.take(ir, None, yr, "clip")
    else:
        lo, hi = 0, nl  # where the next left and right rows go
        for s in range(0, n, _BLOCK):
            e = s + _BLOCK
            m = on_right[s:e]
            ir = m.nonzero()[0]
            il = np.logical_not(m, out=m).nonzero()[0]
            ab = a[s:e]
            bb = b[s:e]
            kl = lo + il.size
            kr = hi + ir.size
            ab.take(il, None, xs[lo:kl], "clip")
            bb.take(il, None, ys[lo:kl], "clip")
            ab.take(ir, None, xs[hi:kr], "clip")
            bb.take(ir, None, ys[hi:kr], "clip")
            lo = kl
            hi = kr
    return _pivot_on(n, xs, ys, _start(yl, xl.take), _span(buf), xl, yl, xr,
                     yr, -nr, mirror)


def _start(y: np.ndarray, x: Callable[[np.ndarray], np.ndarray]) -> int:
    """Index of the first largest of ``y``, ties to the least x, where
    ``x(k)`` gives the x's of the indices k of y (an array's ``take``):
    of the left rows' intercepts, the start point, the lowest left dual
    point, ties to the smaller x and then the first row.  Every numpy
    setup finds its start so: the side-ordered copy and the pairs buffer
    on their left columns, and the offsets pass on each block's left rows
    and then on the blocks' starts, in block order.  Any left point is a
    valid start; the lowest one just pivots less.  Only a tie reads x."""
    i = int(y.argmax())
    top = y.item(i)
    # argmax finds the first largest; a unique one skips the tie break,
    # which C5's n = 1e3 point feels.
    rest = y[i + 1:]
    if rest.size and rest.item(rest.argmax()) == top:
        tied = (y == top).nonzero()[0]
        i = int(tied[x(tied).argmin()])
    return i


def _span(v: np.ndarray, both_signs: bool = False) -> float:
    """The range of the values ``v``, or of v and -v with ``both_signs``.
    Every dx and dy of a scan is a difference of two slopes or of two
    intercepts, so the range of all values of a solve bounds its
    magnitude; it is inf where some difference may overflow."""
    hi = v.item(v.argmax())
    lo = v.item(v.argmin())
    if both_signs:
        hi, lo = max(hi, -lo), min(lo, -hi)
    return hi - lo


def _pivot_on(n: int, xs, ys, i_l: int, span: float, xl, yl, xr, yr, r: int,
              mirror: bool = False, s: float = 1.0,
              blocks: tuple = (None, None)) -> Solution2:
    """``_pivot`` from left point ``i_l`` over the rows (a, b) held as the
    columns ``xs``, ``ys``, each side read by ``_filtered_scan``: the left
    side's columns ``xl``, ``yl`` and the right side's ``xr``, ``yr``, with
    ``blocks``, the sides' blocks as ``_filtered_scan`` takes them.

    Left point i is column i.  Right point j < 0 is column j counted from
    the end, as a negative index counts: a right scan's winner k, a
    position in ``xr`` (a row of ``xs`` with blocks), is point r + k, r
    being minus the columns from its own to the end of ``xs``.  So
    ``_pivot``'s indices of the two sides never meet, and both are read
    alike.  With ``s`` = -1.0 (a pairs buffer, ``_solve_pairs``)
    the right side is the reflection of its columns through the origin,
    and so is every right point: a scan of the reflected side from a point
    is the scan of its columns from the point's reflection, and a scan of
    the left side from a right point is from its column reflected back.
    Negation is exact.  Each point is built by ``tuple.__new__``, which
    skips NamedTuple's ``__new__``, a Python function.
    """
    bl, br = blocks
    new = tuple.__new__
    return _pivot(
        n, i_l,
        lambda i: r + _filtered_scan(xr, yr, s * xs.item(i), s * ys.item(i),
                                     not mirror, span, br),
        lambda i: _filtered_scan(xl, yl, s * xs.item(i), s * ys.item(i),
                                 mirror, span, bl),
        lambda i: new(Point2, (s * xs.item(i), -s * ys.item(i)) if i < 0 else
                      (xs.item(i), -ys.item(i))))


def _one_sided(a: np.ndarray | list, b: np.ndarray | list, all_right: bool,
               solve: Callable[..., Solution2]) -> Solution2:
    """The answer of the slopes ``a`` and intercepts ``b``, columns or
    lists, whose rows all lie on the right side (``all_right``) or all on
    the left: UNBOUNDED on the right; on the left, where every slope is
    zero, the constant max b_i, the first largest; and otherwise, slopes
    all <= 0 with some negative, ``solve(a, b, True)``, their x-mirror."""
    if all_right:
        return Solution2(Status.UNBOUNDED)
    if not np.count_nonzero(a):
        return Solution2(Status.OPTIMAL, x=0.0, t=float(b[np.argmax(b)]),
                         iterations=0)
    return solve(a, b, True)


def _solve_blocks(a: np.ndarray, b: np.ndarray, mirror: bool) -> Solution2:
    """``_solve`` of more than two blocks of rows, with no copy of its
    input.

    One pass over blocks of ``_BLOCK`` rows writes each block's right
    rows, then its left rows, into the block's slot of one array of
    offsets from the block's first row, and records each side as a list
    of (first row of the block, the side's offsets in it).  An offset lies
    below ``_BLOCK``, so the least unsigned type that holds ``_BLOCK - 1``
    holds it.  While each block is read, the same pass finds the block's
    start, ``_start`` of its left rows, where the block's largest
    intercept reaches the lowest start so far, and the block's extreme
    values.  The start point is then ``_start`` of the blocks' starts, in
    block order, so an earlier block keeps a tie of both y and x, and the
    range of all values is ``_span`` of the extremes.  Each scan reads its
    side through these offsets (``_filtered_scan`` with ``blocks``), in
    input order, so every winner and tie is the side-ordered copy's.  Rows
    on one side drop their offsets before ``_one_sided``, whose mirror
    writes its own.
    """
    n = a.size
    offsets = np.empty(n, np.min_scalar_type(_BLOCK - 1))
    mask = np.empty(_BLOCK, bool)
    on_right = np.less if mirror else np.greater
    left = []
    right = []
    starts = []  # each block's start point, where it may be the lowest
    top = hi = -math.inf  # the lowest start's intercept, the largest value
    lo = math.inf
    for s in range(0, n, _BLOCK):
        ab = a[s:s + _BLOCK]
        bb = b[s:s + _BLOCK]
        m = on_right(ab, 0.0, mask[:ab.size])
        ir = m.nonzero()[0]
        il = np.logical_not(m, m).nonzero()[0]
        o = offsets[s:s + _BLOCK]
        k = ir.size
        o[:k] = ir
        o[k:] = il
        if k:
            right.append((s, o[:k]))
        if il.size:
            left.append((s, o[k:]))
        high = np.maximum.reduce(bb)
        hi = max(hi, np.maximum.reduce(ab), high)
        lo = min(lo, np.minimum.reduce(ab), np.minimum.reduce(bb))
        if il.size and high >= top:
            i = s + il.item(_start(bb.take(il), lambda k: ab.take(il.take(k))))
            starts.append(i)
            top = max(top, b.item(i))
    if not (left and right):
        all_right = not left
        del offsets, o, left, right
        return _one_sided(a, b, all_right, _solve)
    # the lowest of the blocks' starts, ties to the earlier block
    starts = np.array(starts)
    i_l = starts.item(_start(b.take(starts), lambda k: a.take(starts.take(k))))
    return _pivot_on(n, a, b, i_l, _span(np.array([lo, hi])), a, b, a, b, -n,
                     mirror, blocks=(left, right))


def _solve_lists(xs: list, ys: list, mirror: bool = False) -> Solution2:
    """``_solve`` on the slopes ``xs`` and intercepts ``ys`` as lists of
    Python floats: one pass over the slopes splits the indices into the
    sides, and the start point comes from those lists, with no numpy
    mask.  The dual points (xs, -ys) and their mirror in y, (xs, ys),
    share one set of images; the x-mirror swaps the sides' frames."""
    n = len(xs)
    left = []
    right = []
    for i, v in enumerate(xs):
        (right if (v < 0.0 if mirror else v > 0.0) else left).append(i)
    nr = len(right)
    if nr == n or nr == 0:
        return _one_sided(xs, ys, nr == n, _solve_lists)
    dpy = [-v for v in ys]
    i_l = left[0]
    ly = dpy[i_l]
    lx = xs[i_l]
    for i in left:
        y = dpy[i]
        if y < ly or (y == ly and xs[i] < lx):
            i_l = i
            ly = y
            lx = xs[i]
    # Both sides' fixed points are dual points too, so one set of images
    # serves every scan of the solve.
    dual = _ExactPoints(xs, dpy)
    mirrored = _ExactPoints(xs, ys, dual)
    on_r, on_l = (mirrored, dual) if mirror else (dual, mirrored)
    return _pivot(
        n, i_l,
        lambda i: _scan(on_r, right, i),
        lambda i: _scan(on_l, left, i),
        lambda i: Point2(xs[i], dpy[i]))


def _solve_pairs(a: np.ndarray, c: np.ndarray) -> Solution2:
    """``solve`` of the 2n constraints r, -r for the n rows r = (a, c) of
    a pairs problem, with the answer, ``iterations`` and ``pivot_pairs``
    of those constraints written out, bit for bit.

    Below ``_COLUMNAR_MIN_N`` constraints they are written out, as lists,
    for ``_solve_lists``.  From there on, each row with a != 0 has one
    constraint on each side: the left one is (-|a|, -sgn(a) c), and the
    right one its negation, whose dual point is the left one's reflected
    through the origin.  One (2, m) buffer holds the left constraints, in
    row order, filled a block at a time with no other copy, and written
    on the bits (sign bits set and flipped), so with no more passes than
    the right constraints would take.  The buffer is read as the
    side-ordered copy's left side is: ``_start`` finds the start point in
    it, and the left scans read it.  A right scan from left point f is the
    scan of the buffer from -f: negation is exact and rounding symmetric,
    so every difference and slope is the same up to the sign of a zero,
    and a point reflection keeps every orientation, so ``_filtered_scan``
    and ``_scan`` pick the same winner (``_pivot_on`` with s = -1.0).
    Right point k - w, w the buffer's width, is the reflection of left
    point k.

    A row with a = +-0.0 gives two left constraints on x = +-0.0, (a, c)
    and (-a, -c), and none on the right.  Seen from any right point, the
    one with the larger intercept has the smaller slope, so of all of them
    only the first with the largest intercept, Z, can win a scan or start
    one: the others lose to it, or are identical to it and later.  The
    buffer holds Z in its last column, which the left scans and the start
    read and the right scans do not.  Z is never identical to another
    left point, and loses an exact tie to every one, as those lie farther
    from the right side, so where it stands among them changes no
    winner.  With every a zero, Z's intercept is the constant answer.
    The range of all values is that of the written-out constraints, the
    buffer and its reflection (``_span`` with both signs).
    """
    n = a.size
    if 2 * n < _COLUMNAR_MIN_N:
        return _solve_lists(_both_signs(a.tolist()), _both_signs(c.tolist()))
    m = np.count_nonzero(a)
    flat = m < n  # rows with a = +-0.0
    buf = np.empty((2, m + flat))
    xs, ys = buf[0], buf[1]
    if flat:
        zero = (a == 0.0).nonzero()[0]
        j = zero[np.abs(c[zero]).argmax()].item()
        xz, bz = a.item(j), c.item(j)
        if bz < 0.0:  # (-a, -c) is the first with the largest intercept
            xz, bz = -xz, -bz
        if not m:
            return Solution2(Status.OPTIMAL, x=0.0, t=bz, iterations=0)
        buf[:, m] = xz, bz
    bits = buf.view(np.int64)
    lo = 0
    for s in range(0, n, _BLOCK):
        ab = a[s:s + _BLOCK]
        cb = c[s:s + _BLOCK]
        if flat:
            k = ab.nonzero()[0]
            ab, cb = ab[k], cb[k]
        ab = ab.view(np.int64)
        x, y = bits[0, lo:lo + ab.size], bits[1, lo:lo + ab.size]
        # (-|a|, -sgn(a) c) on the bits, exactly: a with its sign bit set,
        # and c with its sign bit flipped where a's was clear
        np.bitwise_or(ab, -1 << 63, out=x)
        np.bitwise_xor(x, ab, out=y)
        y ^= cb.view(np.int64)
        lo += ab.size
    return _pivot_on(2 * n, xs, ys, _start(ys, xs.take), _span(buf, True), xs,
                     ys, xs[:m], ys[:m], -m - flat, s=-1.0)


def _pivot(n: int, i_l: int, scan_right: Callable[[int], int],
           scan_left: Callable[[int], int],
           point: Callable[[int], Point2]) -> Solution2:
    """Alternate the two sides' scans from left point ``i_l`` to the answer.

    ``scan_right(i)`` is the right point of minimal slope seen from left
    point i, ``scan_left(i)`` the left point of maximal slope into right
    point i; ``point(i)`` is dual point i as the solve reports it.

    One step, the first right scan included, scans one side from the other
    side's current end.  The loop stops when the scan returns the end it
    would move; otherwise that end moves, its point is built once, and the
    pair (left end's point, right end's point) is recorded.  An x-mirrored
    solve (``_one_sided``) puts the points with x < 0 on the right side and
    those on x = 0 on the left, and its scans read the mirrored frame, so
    there each pair is (the point on x = 0, the point with x < 0).  Scans
    that never settle raise ContractViolation after 2n^2 + 65 of them.
    """
    ends = [i_l, None]  # left, right: no right end yet, so the first moves
    at = [point(i_l), None]
    pairs = []
    # Odd scans move the right end, even ones the left; scan 2n^2 + 65 is
    # the last the bound allows.
    for iterations in range(1, 2 * n * n + 66):
        side = iterations & 1
        j = scan_right(ends[0]) if side else scan_left(ends[1])
        if j == ends[side]:
            break
        ends[side] = j
        at[side] = point(j)
        pairs.append((at[0], at[1]))
    else:
        raise ContractViolation("pivot loop exceeded its iteration bound")
    m, t = _line_through(*at[0], *at[1], "solve")
    return Solution2(Status.OPTIMAL, m, t, iterations, tuple(pairs))


def solve_boxed(cs: Sequence, lo: float, hi: float) -> Solution2:
    """Minimise max_i (a_i * x + b_i) over x in the finite box [lo, hi].

    ``cs`` is read like ``solve``'s.  The unconstrained optimum is returned
    unchanged when it lies in the box.  Otherwise the convex objective is
    monotone on the box, and the endpoint with the smaller objective value
    is the optimum, ``lo`` on a tie.  Raises ValueError for a box that is
    empty or not finite, and NonFiniteInput when the optimal t lies outside
    the double range.
    """
    p = cs if isinstance(cs, Problem) else Problem._of(columns(cs, 2))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"invalid box: lo={lo!r}, hi={hi!r}")
    try:
        sol = solve(p)
    except NonFiniteInput:
        # The input is finite, and the unconstrained t lies between two
        # intercepts: only x is out of range, and so outside the box.
        sol = Solution2(Status.UNBOUNDED)
    if sol.status is Status.OPTIMAL and lo <= sol.x <= hi:
        return sol
    t_lo = objective(p, lo)
    t_hi = objective(p, hi)
    x, t = (lo, t_lo) if t_lo <= t_hi else (hi, t_hi)
    if not math.isfinite(t):
        raise NonFiniteInput(
            "solve_boxed: the optimal t lies outside the double range")
    return Solution2(Status.OPTIMAL, x=float(x), t=t,
                     iterations=sol.iterations)
