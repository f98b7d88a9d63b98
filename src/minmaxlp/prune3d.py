"""The box-constrained two-variable problem: an exact-decision LP solver,
safe constraint discarding, and the four box-edge reductions.

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
and the pruned problem is exactly equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from .errors import ContractViolation, EmptyProblem, NonFiniteInput
from .geometry import Point3, _product_sign, _sum_diff_sign
from .model import Constraint2, Constraint3, Solution2, Solution3, columns
from .oracle import _exact_max, brute3d_box
from .solver2d import solve_boxed

__all__ = [
    "PruneReport",
    "find_pmin",
    "is_behind",
    "is_too_steep",
    "prune",
    "solve3d",
    "check3d",
    "boundary_via_2d",
]

EDGE_IDS = ("x=0", "x=1", "y=0", "y=1")


@dataclass(frozen=True)
class PruneReport:
    """Result of one pruning pass.

    ``kept`` preserves input order; ``pmin_index`` refers to the original
    constraint list and always appears in ``kept_indices``.
    ``pairs_examined`` counts behind/steep evaluations (one per non-anchor
    point, the pass is single-sweep).
    """

    kept: tuple[Constraint3, ...]
    kept_indices: tuple[int, ...]
    discarded_behind: int
    discarded_steep: int
    pmin_index: int
    pairs_examined: int


def find_pmin(dp: Sequence[Point3]) -> int:
    """Index of a point with minimal z; ties resolve to the smallest (x, y).

    Any minimal-z point works as the pruning anchor, the tie rule only
    pins determinism.
    """
    if not dp:
        raise EmptyProblem("find_pmin: no points")
    best = 0
    bz, bx, by = dp[0][2], dp[0][0], dp[0][1]
    for i in range(1, len(dp)):
        x, y, z = dp[i][0], dp[i][1], dp[i][2]
        if z < bz or (z == bz and (x < bx or (x == bx and y < by))):
            best, bx, by, bz = i, x, y, z
    return best


def is_behind(p: Point3, q: Point3) -> bool:
    """True iff p.x < q.x, p.y < q.y and p.z > q.z, all strictly."""
    return p[0] < q[0] and p[1] < q[1] and p[2] > q[2]


def is_too_steep(p: Point3, q: Point3) -> bool:
    """True iff p exceeds q in every coordinate and rises faster than the
    combined run: (p.z - q.z) > (p.x - q.x) + (p.y - q.y).

    The combined-run form is what makes discarding safe.  Any plane through
    p that supports the point set from below satisfies
    A*(p.x - q.x) + B*(p.y - q.y) >= (p.z - q.z) at q, so a rise exceeding
    the summed runs forces A > 1 or B > 1; testing each run separately
    would also discard points that support faces with both slopes inside
    the unit box.  The comparison is evaluated exactly and division-free;
    equality keeps the point.
    """
    if not (p[0] > q[0] and p[1] > q[1] and p[2] > q[2]):
        return False
    return _sum_diff_sign((p[2], q[0], q[1]), (q[2], p[0], p[1])) > 0


def prune(cs: Sequence) -> PruneReport:
    """Single pass dropping every dual point behind or too steep w.r.t. the anchor."""
    a, b, c = columns(cs, 3)
    if a.size == 0:
        raise EmptyProblem("prune: no constraints")
    rows = list(zip(a.tolist(), b.tolist(), c.tolist()))
    dp = [Point3(ai, bi, -ci) for ai, bi, ci in rows]
    anchor_i = find_pmin(dp)
    anchor = dp[anchor_i]
    kept: list[Constraint3] = []
    kept_idx: list[int] = []
    n_behind = 0
    n_steep = 0
    examined = 0
    for i, p in enumerate(dp):
        if i == anchor_i:
            kept.append(Constraint3(*rows[i]))
            kept_idx.append(i)
            continue
        examined += 1
        if is_behind(p, anchor):
            n_behind += 1
            continue
        if is_too_steep(p, anchor):
            n_steep += 1
            continue
        kept.append(Constraint3(*rows[i]))
        kept_idx.append(i)
    return PruneReport(kept=tuple(kept), kept_indices=tuple(kept_idx),
                       discarded_behind=n_behind, discarded_steep=n_steep,
                       pmin_index=anchor_i, pairs_examined=examined)


def boundary_via_2d(cs: Sequence) -> list[tuple[str, Solution2]]:
    """Solve the four box-edge restrictions as one-variable problems.

    Fixing one coordinate of the box turns every constraint into a line in
    the free variable; each edge is then exactly a boxed one-variable
    min-max over [0, 1].
    """
    if len(cs) == 0:
        raise EmptyProblem("boundary_via_2d: no constraints")
    rows = list(zip(*(col.tolist() for col in columns(cs, 3))))
    induced = {
        "x=0": [Constraint2(b, c) for a, b, c in rows],
        "x=1": [Constraint2(b, a + c) for a, b, c in rows],
        "y=0": [Constraint2(a, c) for a, b, c in rows],
        "y=1": [Constraint2(a, b + c) for a, b, c in rows],
    }
    return [(edge, solve_boxed(induced[edge], 0.0, 1.0)) for edge in EDGE_IDS]


# Problems up to this size are checked against the cubic oracle.
_ORACLE_MAX_N = 60
# The order in which solve3d inserts constraints: random, so the expected
# running time is linear for every input, and seeded, so the same input
# always gives the same answer.
_ORDER_SEED = 0x5E1DE1
# Error bound of the float filters, relative to the sum of the magnitudes
# involved: each filtered value takes at most five roundings (4u), and the
# factor 2 covers the rounding of the bound itself.
_EVAL = 8.0 * 2.0 ** -53
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
    if a0.size == 0:
        raise EmptyProblem("solve3d: no constraints")
    x, y = _seidel(a0, b0, c0)
    t = _objective(a0, b0, c0, x, y)
    if not math.isfinite(t):
        raise NonFiniteInput(
            "solve3d: the optimal t lies outside the double range")
    return Solution3(x=x, y=y, t=t)


def check3d(cs: Sequence, sol: Solution3) -> None:
    """Raise ContractViolation unless ``sol`` answers the box problem ``cs``.

    ``cs`` is read like ``solve3d``'s.  In order: (x, y) lies in the unit
    box; t is finite and equals, bitwise, the objective at (x, y) as
    ``solve3d`` evaluates it; no box-edge optimum (``boundary_via_2d``)
    undercuts t, and when the point is on the boundary the best edge
    optimum matches t; for at most ``_ORACLE_MAX_N`` constraints, t matches
    ``brute3d_box``.  Matches are relative to the checked t, 1e-9 * max(1,
    |t|), so a non-finite reference value never passes.
    """
    a, b, c = columns(cs, 3)
    if a.size == 0:
        raise EmptyProblem("check3d: no constraints")
    x, y, t = sol.x, sol.y, sol.t
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ContractViolation(f"check3d: ({x}, {y}) lies outside the box")
    value = _objective(a, b, c, x, y)
    if not (math.isfinite(t) and value == t):
        raise ContractViolation(
            f"check3d: the objective at ({x}, {y}) is {value}, not t={t}")
    tol = 1e-9 * max(1.0, abs(t))
    edge_best = min(s.t for _, s in boundary_via_2d(cs))
    if not edge_best >= t - tol:
        raise ContractViolation(
            f"check3d: boundary value {edge_best} undercuts t={t}")
    on_edge = x in (0.0, 1.0) or y in (0.0, 1.0)
    if on_edge and not abs(edge_best - t) <= tol:
        raise ContractViolation(
            f"check3d: t={t} on the boundary, but the best boundary value "
            f"is {edge_best}")
    if a.size <= _ORACLE_MAX_N:
        ref = brute3d_box(cs).t
        if not abs(ref - t) <= tol:
            raise ContractViolation(f"check3d: t={t} vs oracle {ref}")


def _objective(a, b, c, x: float, y: float) -> float:
    """max_i (a_i*x + b_i*y + c_i) in floats, evaluated again exactly when
    that overflows; -inf or inf when it lies outside the double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = float(np.max(a * x + b * y + c)) + 0.0
    return t if math.isfinite(t) else _exact_max(a, b, c, x, y)


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
        f = math.ldexp(1.0, -math.frexp(scale)[1])
        a0, b0, c0 = a0 * f, b0 * f, c0 * f
        scale *= f
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
        k1 = k + 1
        top = max([u * x + v * y + w
                   for u, v, w in zip(a[:k1], b[:k1], c[:k1])])
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
    in magnitude, s, so the other one, r = (w - u*s)/v, stays well
    conditioned; every half-plane p*s + q*r <= r0 becomes a bound on s.
    """
    u, v, w = us[j], vs[j], ws[j]
    swap = abs(v) < abs(u)
    if swap:
        u, v = v, u
        ps, qs = vs, us
    else:
        ps, qs = us, vs
    if v == 0.0:
        raise ContractViolation(
            "solve3d: a half-plane with zero normal is violated")
    if v < 0.0:
        u, v, w = -u, -v, -w
    lo, hi = 0.0, 1.0
    # Set when the floats say some half-plane misses the line: exactly,
    # none can, so the point found is then checked to miss by rounding only.
    missed = False
    # r = (w - u*s)/v in [0, 1] means u*s <= w and u*s >= w - v.
    if u > 0.0:
        hi = min(hi, w / u)
        lo = max(lo, (w - v) / u)
    elif u < 0.0:
        lo = max(lo, w / u)
        hi = min(hi, (w - v) / u)
    elif not 0.0 <= w <= v:
        missed = True
    for p, q, r0 in zip(ps[:j], qs[:j], ws[:j]):
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
    if swap:
        # s is y and r is x: the objective rises along s by
        # sign(bm*v - am*u), and x = (w - u*s)/v falls along s when u > 0.
        g = _product_sign(bm, am, u, v)
        at_lo = g > 0 or (g == 0 and u <= 0.0)
    else:
        # s is x: the objective rises along s by sign(am*v - bm*u).
        at_lo = _product_sign(am, bm, u, v) >= 0
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
