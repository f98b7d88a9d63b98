"""The box-constrained two-variable problem: an exact-decision LP solver,
safe constraint discarding, and the four box-edge reductions.  Its
answers are checked by ``model.check3d``.

``solve3d`` minimises max_i (a_i*x + b_i*y + c_i) over the unit box as the
linear program min t subject to a_i*x + b_i*y + c_i <= t, by Seidel's
randomized incremental algorithm run on a working set of the constraints,
in the manner of Clarkson's iteration.  A first numpy pass gives the
largest coefficient magnitude and the constraints highest at a 3x3 grid
of box points, with which the working set starts.  Seidel's loop takes its
constraints in the order of a fixed integer hash of their row indices,
which looks random and needs no generator; one that the current optimum
violates pins the optimum to its plane, which leaves a two-variable
problem on that plane, and a violated half-plane there leaves an interval
on its line.  Another numpy pass then tests every constraint against the
working set's optimum, with the loop's own test; the violated ones join
the set and the loop runs again, until none is violated.  That last pass
has formed every constraint's value at the optimum, and its maximum is
the returned t.  The passes read the constraints in blocks of
``model._BLOCK``, so their scratch does not grow with n.  Every violation
test is decided exactly: a float filter on ``model._evaluate``'s values,
with the error bound proven beside it, settles almost all of them, and
rational arithmetic on the same doubles settles the rest.

The pruner maps constraints to dual points (a, b, -c).  Relative to a dual
point of minimal z, two classes of points can be dropped without changing
the objective anywhere on the closed unit box: points "behind" it (smaller
x and y, larger z), whose supporting planes all slope downward in x or y,
and points "too steep" with respect to it, whose supporting planes all rise
faster than 1 in x or in y.  Either way the supporting slope leaves the
box, so at every box point some surviving constraint attains the maximum
and the pruned problem is exactly equivalent.  The pruner is one numpy pass
over the input's columns; its "too steep" test is a float filter with a
proven bound, and only the rows the filter leaves undecided are compared
in rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolation, NonFiniteInput
from . import model
from .geometry import _product_sign
from .model import (_EVAL_ERR, Problem, Solution2, Solution3, _evaluate,
                    columns, objective)
# Unused here, but perfbench/spans.py traces prune3d.brute3d_box by
# rebinding it, so the name stays a module attribute.
from .oracle import brute3d_box  # noqa: F401
from .solver2d import solve_boxed

__all__ = [
    "PruneReport",
    "prune",
    "solve3d",
    "boundary_via_2d",
]

EDGE_IDS = ("x=0", "x=1", "y=0", "y=1")


@dataclass(frozen=True)
class PruneReport:
    """Result of one pruning pass.

    ``kept`` is the problem of the kept rows, in input order;
    ``pmin_index`` refers to the original constraint list and always
    appears in ``kept_indices``.
    """

    kept: Problem
    kept_indices: tuple[int, ...]
    discarded_behind: int
    discarded_steep: int
    pmin_index: int


# The "too steep" filter's error bound is ``model._EVAL_ERR`` = 4u times
# the rounded summed differences.  Against the anchor, a candidate's exact
# differences P = z - az, Q = a - ax, R = b - ay are positive, with
# rounded values dz, da, db, d = fl(fl(dz - da) - db) and s = dz + da + db.
# A sum or difference of doubles is exact when subnormal and otherwise
# within a factor 1 +- u (u = 2^-53); with no products, no error term is
# absolute:
#
#     |d - (P - Q - R)| <= u |fl(dz - da) - db| + u |dz - da| + u (P + Q + R)
#                       <= u (1 + u) s + u s + u s / (1 - u)  <  3.01 u s.
#
# The bound is fl(K * s') with s' = fl(fl(dz + da) + db) >= (1 - u)^2 s,
# and K (1 - u)^2 s > 3.01 u s for K = 4u.  K is a power of two, so the
# product is exact unless subnormal, and then the error, a multiple of
# 2^-1074 below it, rounds no higher.  So |d| > bound proves the sign of
# P - Q - R.  An overflowed difference makes the bound inf, and inf or NaN
# never clears it.


def prune(cs: Sequence) -> PruneReport:
    """Drop every dual point behind or too steep with respect to the anchor.

    ``cs`` is read like ``solve3d``'s; its dual points are (a, b, z) with
    z = -c.  The anchor has minimal z, ties going to the smallest a, then
    b, then index.  A point is behind when a < ax, b < ay and z > az, and
    too steep when it exceeds the anchor in all three coordinates and
    z - az > (a - ax) + (b - ay).  The combined run is what makes this
    safe: any plane through the point that supports the point set from
    below satisfies A*(a - ax) + B*(b - ay) >= z - az at the anchor, so a
    rise exceeding the summed runs forces A > 1 or B > 1, while testing
    each run alone would also drop points that support faces with both
    slopes inside the unit box.  Equality keeps the point.  Rows the float
    filter (``_EVAL_ERR``) leaves undecided are compared in Fractions.
    """
    a, b, c = cols = columns(cs, 3)
    z = -c
    low = (z == z.min()).nonzero()[0]
    anchor = int(low[np.lexsort((b[low], a[low]))[0]])
    ax, ay, az = a[anchor].item(), b[anchor].item(), z[anchor].item()
    drop = (a < ax) & (b < ay) & (z > az)
    n_behind = int(drop.sum())
    above = ((a > ax) & (b > ay) & (z > az)).nonzero()[0]
    with np.errstate(over="ignore", invalid="ignore"):
        dz, da, db = z[above] - az, a[above] - ax, b[above] - ay
        d = (dz - da) - db
        bound = _EVAL_ERR * ((dz + da) + db)
        steep = d > bound
        undecided = ~(steep | (d < -bound))
    F = Fraction
    rows = above[undecided]
    steep[undecided] = [F(zi) - F(az) > F(ai) - F(ax) + F(bi) - F(ay)
                        for ai, bi, zi in zip(a[rows].tolist(),
                                              b[rows].tolist(),
                                              z[rows].tolist())]
    drop[above[steep]] = True
    keep = (~drop).nonzero()[0]
    # The rows ``columns`` checked finite, gathered one column at a time:
    # a take of the whole array would first copy one whose rows are apart.
    kept = np.empty((3, keep.size))
    for col, out in zip(cols, kept):
        col.take(keep, out=out)
    return PruneReport(kept=Problem._of(kept),
                       kept_indices=tuple(keep.tolist()),
                       discarded_behind=n_behind,
                       discarded_steep=int(steep.sum()), pmin_index=anchor)


def boundary_via_2d(cs: Sequence) -> list[tuple[str, Solution2]]:
    """Solve the four box-edge restrictions as one-variable problems.

    Fixing one coordinate of the box turns every constraint into a line in
    the free variable; each edge is then exactly a boxed one-variable
    min-max over [0, 1].  An offset a + c or b + c that overflows raises
    NonFiniteInput, naming the constraint.
    """
    a, b, c = cols = columns(cs, 3)
    with np.errstate(over="ignore"):
        induced = (Problem._of(cols[1:]), Problem(b, a + c),
                   Problem._of(cols[::2]), Problem(a, b + c))
    return [(edge, solve_boxed(p, 0.0, 1.0))
            for edge, p in zip(EDGE_IDS, induced)]


# An interval that comes out empty is accepted when some point of it misses
# every constraint by at most this much, relative to the largest
# coefficient; rounding accounts for about 2**-47.
_SLACK = 2.0 ** -40
# Coefficients of magnitude inside [1/_SAFE, _SAFE] keep every product of
# two of them normal and finite; other problems are rescaled by a power of
# two, which is exact.
_SAFE = 2.0 ** 500
# The working set of solve3d starts as the rows highest at the box points
# (x, y) of this grid, {0, 1/2, 1}^2, each as the row (x, y, 1).  On a
# 2-CPU x86-64 host with numpy 2.4 (gen3d seeds 3-5, 150 instances per
# size, medians over 7 interleaved rounds of the median per-instance best
# of 3), solve3d takes 31-39 us at n = 60-134 in 1.17-1.19 rounds on
# average, against 49-55 us (1.83-1.92 rounds) for the centre alone,
# 31-37 us (1.29-1.33) for the four corners and 34-38 us (1.09-1.11) for
# the 5x5 grid; at n = 1e3, 54 us against 71, 56 and 68 us.  No grid took
# more than 3 rounds.  The corners tie this grid within the host's noise,
# and the answer's rounding depends on the working set, so the grid stays.
_PROBES = np.array([(x, y, 1.0) for x in (0.0, 0.5, 1.0)
                    for y in (0.0, 0.5, 1.0)])
_POINTS = np.arange(len(_PROBES))


def solve3d(cs: Sequence) -> Solution3:
    """Minimise max_i (a_i*x + b_i*y + c_i) over the unit box.

    ``cs`` is a sequence of rows whose first three fields are
    (a_i, b_i, c_i), or an (n, k >= 3) array.  Among the optimal points the
    one with the smallest x, then the smallest y, is sought: the objective
    is lexicographic in (t, x, y).  The returned t is the objective at
    the returned point over all constraints, bit for bit as
    ``model.objective`` gives it.  Raises
    ValueError for a row with fewer than three fields, NonFiniteInput for a
    non-finite coefficient, naming the first such constraint, and
    ContractViolation if a subproblem comes out empty by more than
    rounding, which exact arithmetic rules out.  ``model.check3d``
    checks the answer.
    """
    x, y, t = _box_point(columns(cs, 3))
    if not math.isfinite(t):
        raise NonFiniteInput(
            "solve3d: the optimal t lies outside the double range")
    return Solution3(x=x, y=y, t=t)


def _exceeds(a: float, b: float, c: float, x: float, y: float,
             t: float) -> bool:
    """a*x + b*y + c > t, decided exactly on the given doubles."""
    F = Fraction
    return F(a) * F(x) + F(b) * F(y) + F(c) > F(t)


def _clamp(v: float) -> float:
    """``v`` clamped to [0, 1], with -0.0 mapped to 0.0."""
    return 0.0 if v <= 0.0 else (1.0 if v >= 1.0 else v)


def _key(i: int) -> int:
    """splitmix64's finalizer (Steele, Lea and Flood, OOPSLA 2014): a fixed
    bijection of the 64-bit integers whose order looks random."""
    z = (i ^ (i >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _order(rows: Iterable[int]) -> list[int]:
    """The row indices ``rows`` (Python ints) in ``solve3d``'s insertion
    order, increasing ``_key``: random-looking, the same for the same
    rows, and the order of all rows restricted to them."""
    return sorted(rows, key=_key)


def _box_point(cols: np.ndarray) -> tuple[float, float, float]:
    """The lexicographically smallest (t, x, y) optimum as (x, y, t) of
    the rows of the (3, n) array ``cols``, by ``_seidel`` over a working
    set W of them.

    A first pass (``_scale_and_probes``) gives the largest coefficient
    magnitude and the rows highest at the probe points, with which W
    starts.  Each round runs ``_seidel`` over W's rows in ``_order``,
    which is the order of all rows restricted to W, then tests every
    other row against its point in one blocked pass (``_violated``), with
    the very test ``_seidel`` applies to a row inserted after its last
    step; the rows found violated join W.  No row of W is ever found
    violated, as ``_seidel``'s t lies above each of them by its pad (one
    that were would raise ContractViolation), so W grows each round and
    the rounds end.  The last one, which finds no row violated, is a valid
    ``_seidel`` run over W's rows followed by the rest.  In exact
    arithmetic each round's violators hold a constraint of the optimal
    basis (Clarkson's lemma), and a basis has at most three, so there are
    at most four rounds.

    The last pass has formed every row's value at (x, y) as ``objective``
    does, so its largest value is t.  A problem rescaled by a power of two
    takes t from ``objective`` on its own columns instead, since scaled
    products can underflow.
    """
    scale, probes = _scale_and_probes(cols)
    unscaled = None
    if scale > _SAFE or 0.0 < scale < 1.0 / _SAFE:
        unscaled = cols
        cols = np.ldexp(cols, -math.frexp(scale)[1])
        # the probes on the rescaled columns, whose sums cannot overflow
        scale, probes = _scale_and_probes(cols)
    elif scale == 0.0:
        scale = 1.0
    w = _order(probes)
    while True:
        x, y, t = _seidel(*cols[:, w].tolist(), scale)
        new, top = _violated(cols, x, y, t, scale)
        if not new:
            return x, y, (top if unscaled is None
                          else objective(unscaled, x, y))
        if not set(w).isdisjoint(new):
            raise ContractViolation(
                "solve3d: a row of the working set is violated at its "
                "optimum")
        w = _order(w + new)


def _scale_and_probes(cols: np.ndarray) -> tuple[float, set[int]]:
    """The largest coefficient magnitude of the (3, n) array ``cols``,
    and the rows highest at some point of the ``_PROBES`` grid, the first
    such row for each point.

    One pass over (3, block) views of ``model._BLOCK`` rows, serving both,
    so the scratch is a (points, block) matrix whatever the rows.
    """
    scale = 0.0
    for i in range(0, cols.shape[1], model._BLOCK):
        m = cols[:, i:i + model._BLOCK]
        scale = max(scale, float(np.abs(m).max()))
        # einsum's own loop, not BLAS.  With numpy 2.4 on x86-64, a block
        # of two or more rows gets _evaluate's (a*x + b*y) + c bit for bit
        # (a test pins this); a one-row block gets (a*x + c) + b*y.
        v = np.einsum("pk,kn->pn", _PROBES, m)
        k = v.argmax(axis=1)
        high = v[_POINTS, k]
        if i == 0:
            top, rows = high, k
        else:
            up = high > top
            top = np.where(up, high, top)
            rows = np.where(up, k + i, rows)
    return scale, set(rows.tolist())


def _violated(cols: np.ndarray, x: float, y: float, t: float,
              scale: float) -> tuple[list[int], float]:
    """The rows of the (3, n) array ``cols`` that ``_seidel``, having
    ended at (x, y) with bound t, would find violated, and the largest
    value (a*x + b*y) + c: bit for bit what ``objective`` gives on these
    columns at (x, y).

    One pass over blocks of ``model._BLOCK`` rows, with ``model._evaluate``'s
    values, ``_seidel``'s bound, and ``_exceeds`` for the rows the bound
    leaves undecided.
    """
    err = 2.0 * _EVAL_ERR * (3.0 * scale + abs(t))
    top = -math.inf
    new = []
    for i in range(0, cols.shape[1], model._BLOCK):
        v = _evaluate(cols[:, i:i + model._BLOCK], (x, y))
        high = float(v.max())
        top = max(top, high)
        # v - t rounds monotonically in v: when it is below -err at the
        # block's maximum, it is below -err at every row of the block
        if high - t < -err:
            continue
        v -= t
        near = (v >= -err).nonzero()[0]
        new += [i + k for k, d in zip(near.tolist(), v[near].tolist())
                if d > err or _exceeds(*cols[:, i + k].tolist(), x, y, t)]
    # as objective's, with -0.0 made 0.0
    return new, top + 0.0


def _seidel(a: list, b: list, c: list,
            scale: float) -> tuple[float, float, float]:
    """The lexicographically smallest (t, x, y) optimum of the rows
    (a, b, c) as (x, y, t), ``t`` an upper bound of the objective at
    (x, y) padded by the evaluation error.

    Outer level of the incremental LP: constraint k is inserted in turn,
    and when it lies strictly above ``t``, an upper bound of the objective
    at the current point over the constraints inserted so far, the new
    optimum lies on its plane.  ``t`` is recomputed after each such step
    from all inserted constraints, padded by the evaluation error, so a
    constraint found above it is above each of them.  ``scale`` bounds
    every coefficient's magnitude.
    """
    x = y = 0.0
    # Nothing is inserted yet: d is inf, and both tests send constraint 0
    # to its plane.
    t = err = -math.inf
    for k, (ak, bk, ck) in enumerate(zip(a, b, c)):
        d = ak * x + bk * y + ck - t
        if d < -err or (d <= err and not _exceeds(ak, bk, ck, x, y, t)):
            continue
        x, y = _solve_on_plane(a, b, c, k, scale)
        # zip stops at the shortest list, so one slice bounds all three
        top = max([u * x + v * y + w for u, v, w in zip(a, b, c[:k + 1])])
        t = top + 4.0 * _EVAL_ERR * (3.0 * scale + abs(top))
        err = 2.0 * _EVAL_ERR * (3.0 * scale + abs(t))
    return x, y, t


def _solve_on_plane(a: list, b: list, c: list, m: int,
                    scale: float) -> tuple[float, float]:
    """Minimise constraint m's plane over the box where it is the highest
    of constraints 0..m, lexicographically in (value, x, y).

    Constraint j < m becomes the half-plane u_j*x + v_j*y <= w_j with
    (u_j, v_j, w_j) = (a_j - a_m, b_j - b_m, c_m - c_j), in rounded
    differences; the half-planes are inserted in order, and one violated
    by the current point pins the point to its line.
    """
    am, bm, cm = a[m], b[m], c[m]
    x = 0.0 if am >= 0.0 else 1.0
    y = 0.0 if bm >= 0.0 else 1.0
    us = [v - am for v in a[:m]]
    vs = [v - bm for v in b[:m]]
    ws = [cm - v for v in c[:m]]
    err = 2.0 * _EVAL_ERR * 6.0 * scale
    for j, (u, v, w) in enumerate(zip(us, vs, ws)):
        d = u * x + v * y - w
        if d < -err or (d <= err and not _exceeds(u, v, 0.0, x, y, w)):
            continue
        x, y = _solve_on_line(us, vs, ws, j, am, bm, scale)
    return x, y


def _solve_on_line(us: list, vs: list, ws: list, j: int, am: float,
                   bm: float, scale: float) -> tuple[float, float]:
    """The lexicographically smallest (am*x + bm*y, x, y) point of the box
    on the line u_j*x + v_j*y = w_j that satisfies half-planes 0..j-1.

    The line is parametrised by the coordinate whose coefficient is smaller
    in magnitude, s in [0, 1], so the other one, r = (w - u*s)/v, stays
    well conditioned.  Every half-plane p*s + q*r <= r0 becomes a bound on
    s, and so do the box's -r <= 0 and r <= 1, as (0, -1, 0) and (0, 1, 1).
    """
    u, v, w = us[j], vs[j], ws[j]
    swap = abs(v) < abs(u)
    # gs and gr: the objective's coefficients of s and of r
    if swap:
        u, v = v, u
        ps, qs, gs, gr = vs, us, bm, am
    else:
        ps, qs, gs, gr = us, vs, am, bm
    if v == 0.0:
        raise ContractViolation(
            "solve3d: a half-plane with zero normal is violated")
    if v < 0.0:
        u, v, w = -u, -v, -w
    lo, hi = 0.0, 1.0
    # Set when the floats say some half-plane misses the line: exactly,
    # none can, so the point found is then checked to miss by rounding only.
    missed = False
    # Half-planes 0..j-1, then the box's two: zip stops with ws[:j], the
    # one slice it needs.
    for p, q, r0 in chain(zip(ps, qs, ws[:j]),
                          ((0.0, -1.0, 0.0), (0.0, 1.0, 1.0))):
        # p*s + q*(w - u*s)/v <= r0, times v > 0
        den = p * v - q * u
        num = r0 * v - q * w
        if den > 0.0:
            bound = num / den
            if bound < hi:
                hi = bound
        elif den < 0.0:
            bound = num / den
            if bound > lo:
                lo = bound
        elif num < 0.0:
            missed = True
    # The objective rises along s by g = sign(gs*v - gr*u).  On a level
    # line the smaller x wins: s itself, or, when s is y, x = r, which
    # falls along s when u > 0.
    g = _product_sign(gs, gr, u, v)
    at_lo = g > 0 or (g == 0 and not (swap and u > 0.0))
    ends = (lo, hi) if at_lo else (hi, lo)
    worst = math.inf
    for s in ends:
        s = _clamp(s)
        r = _clamp((w - u * s) / v)
        x, y = (r, s) if swap else (s, r)
        if lo <= hi and not missed:
            return x, y
        worst = max([p * x + q * y - r0
                     for p, q, r0 in zip(us[:j + 1], vs[:j + 1], ws[:j + 1])])
        if worst <= _SLACK * scale:
            return x, y
    raise ContractViolation(
        f"solve3d: a subproblem is empty by {worst!r}, more than rounding")
