"""The box-constrained two-variable problem: an exact-decision LP solver,
its certificate check, safe constraint discarding, and the four box-edge
reductions.

``solve3d`` minimises max_i (a_i*x + b_i*y + c_i) over the unit box as the
linear program min t subject to a_i*x + b_i*y + c_i <= t, by Seidel's
randomized incremental algorithm in expected linear time.  Constraints are
taken in a fixed-seed random order; one that the current optimum violates
pins the optimum to its plane, which leaves a two-variable problem on that
plane, and a violated half-plane there leaves an interval on its line.
Every violation test is decided exactly: a float filter with a proven error
bound settles almost all of them, and rational arithmetic on the same
doubles settles the rest.

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
from functools import cache
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import ContractViolation, NonFiniteInput
from .geometry import _EPS, _product_sign
from .baseline import lower_hull
from .model import (Problem, Solution2, Solution3, certify, columns,
                    objective, require_finite)
# Unused here, but perfbench/spans.py traces prune3d.brute3d_box by
# rebinding it, so the name stays a module attribute.
from .oracle import brute3d_box  # noqa: F401
from .solver2d import solve_boxed

__all__ = [
    "PruneReport",
    "prune",
    "solve3d",
    "check3d",
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


# The "too steep" filter's error bound.  Against the anchor, a candidate's
# exact differences P = z - az, Q = a - ax, R = b - ay are positive, with
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
_STEEP_REL = 4.0 * _EPS


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
    filter (``_STEEP_REL``) leaves undecided are compared in Fractions.
    """
    a, b, c = columns(cs, 3)
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
        bound = _STEEP_REL * ((dz + da) + db)
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
    # Fresh gathers of columns ``columns`` checked finite, frozen here.
    kept = (a[keep], b[keep], c[keep])
    for col in kept:
        col.flags.writeable = False
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
    a, b, c = columns(cs, 3)
    with np.errstate(over="ignore"):
        induced = (Problem._of((b, c)), Problem(b, a + c),
                   Problem._of((a, c)), Problem(a, b + c))
    return [(edge, solve_boxed(p, 0.0, 1.0))
            for edge, p in zip(EDGE_IDS, induced)]


# The order in which solve3d inserts constraints: random, so the expected
# running time is linear for every input, and seeded, so the same input
# always gives the same answer.
_ORDER_SEED = 0x5E1DE1
# Error bound of the float filters, relative to the sum of the magnitudes
# involved: each filtered value takes at most five roundings (4u), and the
# factor 2 covers the rounding of the bound itself.
_EVAL = 8.0 * _EPS
# An interval that comes out empty is accepted when some point of it misses
# every constraint by at most this much, relative to the largest
# coefficient; rounding accounts for about 2**-47.
_SLACK = 2.0 ** -40
# Coefficients of magnitude inside [1/_SAFE, _SAFE] keep every product of
# two of them normal and finite; other problems are rescaled by a power of
# two, which is exact.
_SAFE = 2.0 ** 500


def solve3d(cs: Sequence) -> Solution3:
    """Minimise max_i (a_i*x + b_i*y + c_i) over the unit box.

    ``cs`` is a sequence of rows whose first three fields are
    (a_i, b_i, c_i), or an (n, k >= 3) array.  Among the optimal points the
    one with the smallest x, then the smallest y, is sought: the objective
    is lexicographic in (t, x, y).  The returned t is the objective
    re-evaluated at the returned point over all constraints.  Raises
    ValueError for a row with fewer than three fields, NonFiniteInput for a
    non-finite coefficient, naming the first such constraint, and
    ContractViolation if a subproblem comes out empty by more than
    rounding, which exact arithmetic rules out.  ``check3d`` checks the
    answer.
    """
    a0, b0, c0 = columns(cs, 3)
    x, y = _seidel(a0, b0, c0)
    t = objective((a0, b0, c0), x, y)
    if not math.isfinite(t):
        raise NonFiniteInput(
            "solve3d: the optimal t lies outside the double range")
    return Solution3(x=x, y=y, t=t)


def check3d(cs: Sequence, sol: Solution3) -> None:
    """Raise ContractViolation unless ``sol`` answers the box problem ``cs``,
    by an exact weak-duality certificate.

    ``cs`` is read like ``solve3d``'s.  (x, y) must lie in the unit box.
    Any multipliers lambda >= 0 summing to 1 give the exact lower bound
    sum(lambda * c) + min(0, sum(lambda * a)) + min(0, sum(lambda * b)) on
    the optimum over the box; ``model.certify`` compares the best one
    found with t and with the objective at (x, y).  The multipliers are
    sought among the near-tight constraints: their gradients (a, b),
    deduplicated to the largest c, and of those only the h vertices of the
    convex hull, since the bound is concave in sum(lambda * (a, b)).  Each
    hull vertex, each hull edge where sum(lambda * a) or sum(lambda * b)
    is 0, and the fan triangle holding (0, 0) is tried.  O(n) numpy work,
    O(h) Fraction work and no reference solver.
    """
    a, b, c = columns(cs, 3)
    x, y = sol.x, sol.y
    require_finite((x, y), sol.t, "check3d")
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ContractViolation(f"check3d: ({x}, {y}) lies outside the box")
    certify((a, b, c), (x, y), sol.t,
            lambda idx, _: _box_lower_bound(a[idx], b[idx], c[idx]),
            "check3d")


def _box_lower_bound(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> Fraction:
    """The best lower bound of the box problem over rows (a, b, c) that
    the multipliers on hull vertices, hull edges and fan triangles of the
    gradients give, in Fractions."""
    # in increasing c, so each gradient keeps its largest c
    order = np.argsort(c)
    best_c = dict(zip(zip(a[order].tolist(), b[order].tolist()),
                      c[order].tolist()))
    lower = lower_hull(np.stack((a, b), axis=1))
    upper = [(p, -q) for p, q in lower_hull(np.stack((a, -b), axis=1))][::-1]
    if upper[0] == lower[-1]:
        upper = upper[1:]
    if upper and upper[-1] == lower[0]:
        upper = upper[:-1]
    F = Fraction
    poly = [(F(p), F(q), F(best_c[p, q])) for p, q in lower + upper]

    def bound(rows, lams):
        sa, sb, sc = (sum(lam * r[g] for lam, r in zip(lams, rows))
                      for g in range(3))
        return sc + min(0, sa) + min(0, sb)

    best = max(bound((r,), (1,)) for r in poly)
    h = len(poly)
    for k in range(h if h > 2 else h - 1):
        p, q = poly[k], poly[(k + 1) % h]
        for g in (0, 1):
            if p[g] != q[g] and min(p[g], q[g]) <= 0 <= max(p[g], q[g]):
                lam = q[g] / (q[g] - p[g])
                best = max(best, bound((p, q), (lam, 1 - lam)))
    p = poly[0]
    for q, r in zip(poly[1:], poly[2:]):
        # barycentric coordinates of (0, 0) in the triangle p, q, r
        det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        lq = (r[0] * p[1] - r[1] * p[0]) / det
        lr = (p[0] * q[1] - p[1] * q[0]) / det
        if lq >= 0 and lr >= 0 and lq + lr <= 1:
            best = max(best, bound((p, q, r), (1 - lq - lr, lq, lr)))
    return best


def _exceeds(a: float, b: float, c: float, x: float, y: float,
             t: float) -> bool:
    """a*x + b*y + c > t, decided exactly on the given doubles."""
    F = Fraction
    return F(a) * F(x) + F(b) * F(y) + F(c) > F(t)


def _clamp(v: float) -> float:
    """``v`` clamped to [0, 1], with -0.0 mapped to 0.0."""
    return 0.0 if v <= 0.0 else (1.0 if v >= 1.0 else v)


@cache
def _seed_sequence() -> np.random.SeedSequence:
    """The hashed ``_ORDER_SEED``, built on first use: importing
    numpy.random at package import would cost every user of the package
    about 5 MB and some milliseconds."""
    return np.random.SeedSequence(_ORDER_SEED)


def _seidel(a0: np.ndarray, b0: np.ndarray,
            c0: np.ndarray) -> tuple[float, float]:
    """The lexicographically smallest (t, x, y) optimum's (x, y).

    Outer level of the incremental LP: constraint k is inserted in turn,
    and when it lies strictly above ``t``, an upper bound of the objective
    at the current point over the constraints inserted so far, the new
    optimum lies on its plane.  ``t`` is recomputed after each such step
    from all inserted constraints, padded by the evaluation error, so a
    constraint found above it is above each of them.
    """
    n = a0.size
    rng = np.random.Generator(np.random.SFC64(_seed_sequence()))
    order = rng.permutation(n)
    scale = float(max(np.abs(a0).max(), np.abs(b0).max(), np.abs(c0).max()))
    if scale > _SAFE or 0.0 < scale < 1.0 / _SAFE:
        e = math.frexp(scale)[1]
        a0, b0, c0 = np.ldexp(a0, -e), np.ldexp(b0, -e), np.ldexp(c0, -e)
        scale = math.ldexp(scale, -e)
    elif scale == 0.0:
        scale = 1.0
    # Gathered in insertion order as fresh floats, so the loops below walk
    # memory in order.
    a, b, c = a0[order].tolist(), b0[order].tolist(), c0[order].tolist()
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
        t = top + 2.0 * _EVAL * (3.0 * scale + abs(top))
        err = _EVAL * (3.0 * scale + abs(t))
    return x, y


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
    err = _EVAL * 6.0 * scale
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
