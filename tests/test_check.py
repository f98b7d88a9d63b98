"""The answer checks: exact weak-duality certificates for both problem kinds.

Every solver's answers on the corpora below must pass; answers with t
raised by 1e-13 relative, or with the box point moved by 1e-3, must not.
Where the constraint terms cancel to a t far below their magnitudes, the
rounding bound of the certificate is wider than 1e-13 * |t|, so the
mutant corpora hold no such cases.  One digest pins the verdicts, and the
messages with their rounded bounds, of every answer whose problem rests
on IEEE arithmetic alone.  On small exact box problems, the multipliers
on the rows tight at the optimum reach it with no slack, the paper's
claim in 3D.
"""

import ast
import hashlib
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from minmaxlp import (ContractViolation, GenSpec, NonFiniteInput, Solution2,
                      Solution3, Status, brute2d, brute3d_box, check2d,
                      check3d, expand_absolute, gen2d, gen3d, solve,
                      solve3d, solve_baseline)
from minmaxlp import baseline, geometry, model, oracle, prune3d, solver2d
from minmaxlp.model import columns, objective, signed_pairs


def _fit(family, m, seed):
    """Residual rows |a*x + c| of an exact, dyadic, equiripple or noisy
    line fit, as constraint pairs."""
    rng = np.random.default_rng([seed, m])
    a = rng.normal(0.0, math.sqrt(10.0), m)
    e = {"exact": 0.0, "dyadic": 0.0,
         "equiripple": rng.choice((0.25, -0.25), m),
         "noisy": rng.normal(0.0, 1e-9, m)}[family]
    s = 0.125 if family == "dyadic" else 0.1
    return expand_absolute(np.stack([a, -(s * a + e)], axis=1))


def _corpus2d():
    cases = [(f"gauss/{n}/{k}", gen2d(GenSpec(n=n, seed=70 + n), index=k))
             for n in (1, 2, 3, 10, 200, 2000) for k in range(8)]
    cases += [(f"{fam}/{m}/{k}", _fit(fam, m, k))
              for fam in ("exact", "dyadic", "equiripple", "noisy")
              for m in (1, 8, 12, 40) for k in range(4)]
    cases += [(f"scaled/{s}/{k}",
               np.asarray(gen2d(GenSpec(n=20, seed=3), index=k)) * s)
              for s in (1e299, 1e-301, 2.0 ** -1060) for k in range(4)]
    return cases


CORPUS2D = _corpus2d()
# terms of up to 1e308 cancel to t = 0 and t = -1
CANCELLING2D = [
    ("found", [(1e308, 1e308), (-1e308, -1e308), (1.0, 0.0)]),
    ("overflowing product", [(1.5e308, -1.5e308), (-1.0, 0.0)]),
]


def _points(m, count, seed):
    """Planes through one point in or near the box, at height 1."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a, b = rng.normal(0.0, 3.0, m), rng.normal(0.0, 3.0, m)
        x0, y0 = rng.uniform(0.0, 1.0, 2)
        out.append(np.stack([a, b, 1.0 - a * x0 - b * y0], axis=1))
    return out


def _corpus3d():
    cases = [(f"gauss/{n}/{k}", gen3d(GenSpec(n=n, seed=90 + n, dim=3),
                                      index=k))
             for n in (1, 2, 3, 10, 30, 60, 3000) for k in range(6)]
    rng = np.random.default_rng(1)
    cases += [(f"grid/{k}", rng.integers(-2, 3, size=(30, 3)) / 2.0)
              for k in range(12)]
    cases += [(f"point/{k}", p) for k, p in enumerate(_points(40, 6, 2))]
    for k in range(6):
        g = np.asarray(gen3d(GenSpec(n=15, seed=4, dim=3), index=k))
        cases.append((f"dup/{k}", np.concatenate([g, g[::2], g[:3]])))
    cases += [("found", [(1e308, 0.0, 1e308), (-1e308, 0.5, 0.0)]),
              ("edge", [(0.0, 0.0, 1e308), (0.0, 0.5, 0.0)]),
              ("corner", [(-9e307, -9e307, 9e307)])]
    return cases


CORPUS3D = _corpus3d()
IDS2D = [name for name, _ in CORPUS2D]
IDS3D = [name for name, _ in CORPUS3D]


@pytest.mark.parametrize("solver", [solve, solve_baseline, brute2d],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("cs", [cs for _, cs in CORPUS2D + CANCELLING2D],
                         ids=IDS2D + [n for n, _ in CANCELLING2D])
def test_2d_right_answers_pass(cs, solver):
    if solver is brute2d and len(cs) > 200:
        pytest.skip("brute2d is quadratic")
    check2d(cs, solver(cs))


@pytest.mark.parametrize("cs", [cs for _, cs in CORPUS2D], ids=IDS2D)
def test_2d_raised_t_fails(cs):
    sol = solve(cs)
    if sol.status is Status.UNBOUNDED:
        pytest.skip("no t to raise")
    wrong = Solution2(Status.OPTIMAL, x=sol.x,
                      t=sol.t + 1e-13 * max(1.0, abs(sol.t)))
    with pytest.raises(ContractViolation, match="lower bound"):
        check2d(cs, wrong)


@pytest.mark.parametrize("solver", [solve3d, brute3d_box],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("cs", [cs for _, cs in CORPUS3D], ids=IDS3D)
def test_3d_right_answers_pass(cs, solver):
    if solver is brute3d_box and len(cs) > 60:
        pytest.skip("brute3d_box is cubic")
    check3d(cs, solver(cs))


# Gaussian box problems scaled near the ends of the double range, and
# into the subnormals
SCALED3D = [np.asarray(gen3d(GenSpec(n=20, seed=6, dim=3), index=k)) * s
            for s in (1e299, 1e-301, 1e160, 2.0 ** -1060) for k in range(3)]


@pytest.mark.parametrize("cs", SCALED3D)
def test_3d_scaled_answers(cs):
    check3d(cs, solve3d(cs))
    check3d(cs, brute3d_box(cs))


@pytest.mark.parametrize("cs", _points(10_000, 2, 3), ids=["p0", "p1"])
def test_3d_planes_through_one_point_pass(cs):
    check3d(cs, solve3d(cs))


def test_3d_large_gaussian_passes():
    cs = gen3d(GenSpec(n=100_000, seed=41, dim=3))
    check3d(cs, solve3d(cs))


GAUSS3D = [(name, cs) for name, cs in CORPUS3D if name.startswith("gauss")]


@pytest.mark.parametrize("cs", [cs for _, cs in GAUSS3D],
                         ids=[name for name, _ in GAUSS3D])
def test_3d_raised_t_fails(cs):
    sol = solve3d(cs)
    wrong = Solution3(x=sol.x, y=sol.y,
                      t=sol.t + 1e-13 * max(1.0, abs(sol.t)))
    with pytest.raises(ContractViolation, match="lower bound"):
        check3d(cs, wrong)


@pytest.mark.parametrize("cs", [cs for _, cs in GAUSS3D],
                         ids=[name for name, _ in GAUSS3D])
def test_3d_moved_point_fails(cs):
    # t is the objective at the moved point, so only the lower bound
    # can tell the point is not optimal
    sol = solve3d(cs)
    x = sol.x + 1e-3 if sol.x <= 0.5 else sol.x - 1e-3
    wrong = Solution3(x=x, y=sol.y, t=objective(columns(cs, 3), x, sol.y))
    with pytest.raises(ContractViolation, match="lower bound"):
        check3d(cs, wrong)


def test_found_offset_overflow_input():
    # solve3d answers (0, 0, 1e308); the x = 1 edge offset a + c
    # overflows, which the certificate never forms
    cs = [(1e308, 0.0, 1e308), (-1e308, 0.5, 0.0)]
    sol = solve3d(cs)
    assert (sol.x, sol.y, sol.t) == (0.0, 0.0, 1e308)
    check3d(cs, sol)


def test_statuses():
    check2d([(1.0, 0.0), (2.0, 1.0)], Solution2(Status.UNBOUNDED))
    check2d([(1, 0)], Solution2(Status.UNBOUNDED))
    check2d([(-1.0, 0.0)], Solution2(Status.UNBOUNDED))
    check2d([(1, 0), (-1, 0)], Solution2(Status.OPTIMAL, x=0.0, t=0.0))
    check2d([(0.0, 1.0), (0.0, -2.0)], Solution2(Status.OPTIMAL, x=5.0, t=1.0))
    with pytest.raises(ContractViolation, match="status unbounded"):
        check2d([(1.0, 0.0), (0.0, 1.0)], Solution2(Status.UNBOUNDED))
    with pytest.raises(ContractViolation, match="status optimal"):
        check2d([(1.0, 0.0), (2.0, 1.0)],
                Solution2(Status.OPTIMAL, x=0.0, t=1.0))


def test_box_answers_are_optimal():
    # the box problem always has an optimum, so any other status is wrong,
    # whatever the point and t
    check3d([(1.0, 0.0, 0.0)], Solution3(0.0, 0.0, 0.0, Status.OPTIMAL))
    with pytest.raises(ContractViolation,
                       match="check3d: status unbounded"):
        check3d([(1.0, 0.0, 0.0)], Solution3(0.0, 0.0, 0.0, Status.UNBOUNDED))


@pytest.mark.filterwarnings("error")
def test_malformed_answers():
    with pytest.raises(ContractViolation, match="outside the box"):
        check3d([(1.0, 0.0, 0.0)], Solution3(x=1.5, y=0.0, t=1.5))
    with pytest.raises(ContractViolation, match="not finite"):
        check3d([(1.0, 0.0, 0.0)], Solution3(x=0.0, y=0.0, t=math.nan))
    with pytest.raises(ContractViolation, match="not finite"):
        check2d([(1.0, 0.0), (-1.0, 0.0)],
                Solution2(Status.OPTIMAL, x=0.0, t=math.inf))
    # a missing field is no finite answer either
    with pytest.raises(ContractViolation, match="check2d: .*not finite"):
        check2d([(1.0, 0.0), (-1.0, 0.0)], Solution2(Status.OPTIMAL))
    for x, t in [(None, 1.0), (0.0, None)]:
        with pytest.raises(ContractViolation, match="check3d: .*not finite"):
            check3d([(1.0, 0.0, 0.0)], Solution3(x=x, y=0.0, t=t))
    # a feasible point that is not optimal, and an infeasible one
    with pytest.raises(ContractViolation, match="no near-tight"):
        check2d([(1, 0), (-1, 0)], Solution2(Status.OPTIMAL, x=0.5, t=0.5))
    with pytest.raises(ContractViolation, match="objective"):
        check2d([(1, 0), (-1, 0)], Solution2(Status.OPTIMAL, x=0.0, t=-0.1))
    with pytest.raises(NonFiniteInput, match="constraint 1 "):
        check2d([(1.0, 0.0), (math.nan, 0.0)],
                Solution2(Status.OPTIMAL, x=0.0, t=0.0))
    # a point whose objective overflows certifies no finite t
    with pytest.raises(ContractViolation, match="objective"):
        check2d([(1e308, 1e308), (-1.0, 0.0)],
                Solution2(Status.OPTIMAL, x=1e10, t=0.0))


def test_no_reference_solver_is_called(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a check called a reference solver")
    for module, name in [(baseline, "solve_baseline"), (oracle, "brute2d"),
                         (oracle, "brute3d_box"), (prune3d, "brute3d_box"),
                         (prune3d, "boundary_via_2d"),
                         (prune3d, "solve_boxed"),
                         (solver2d, "solve_boxed")]:
        monkeypatch.setattr(module, name, forbidden)
    for _, cs in CORPUS2D[::7]:
        check2d(cs, solve(cs))
    for _, cs in CORPUS3D[::5]:
        check3d(cs, solve3d(cs))


def _answers(cases2d, cases3d):
    """(check, problem, answer): the solver's answer to each problem, with
    t raised by 1e-13 relative, and each box point moved by 1e-3."""
    out = []
    for cs in cases2d:
        sol = solve(cs)
        out.append((check2d, cs, sol))
        if sol.status is Status.OPTIMAL:
            out.append((check2d, cs, Solution2(
                Status.OPTIMAL, x=sol.x,
                t=sol.t + 1e-13 * max(1.0, abs(sol.t)))))
    for cs in cases3d:
        sol = solve3d(cs)
        x = sol.x + 1e-3 if sol.x <= 0.5 else sol.x - 1e-3
        out += [(check3d, cs, sol),
                (check3d, cs, Solution3(x=sol.x, y=sol.y, t=sol.t + 1e-13
                                        * max(1.0, abs(sol.t)))),
                (check3d, cs, Solution3(x=x, y=sol.y,
                                        t=objective(columns(cs, 3), x,
                                                    sol.y)))]
    return out


def _probes():
    """Many planes through one point: rows near-tight at the answer by
    various small amounts."""
    probes = []
    for m in (300, 3000):
        rng = np.random.default_rng(m)
        for _ in range(3):
            a, b = rng.normal(0.0, 3.0, m), rng.normal(0.0, 3.0, m)
            probes.append(np.stack([a, b, 1.0 - a * 0.17925800707829326
                                    - b * 0.5062426186871909], axis=1))
    return probes


def _pairs3d(rows):
    """The box problem of the residuals |r| of the (n, 3) rows ``rows``."""
    return signed_pairs(np.ascontiguousarray(np.asarray(rows).T))


def _by_gen(name):
    return name.startswith(("gauss/", "scaled/", "dup/"))


# The answers to problems whose bits rest on PCG64 and IEEE arithmetic
# alone: fits, cancelling and huge rows, grids, planes through one point,
# and pairs problems in 2D and 3D, of more than one block of rows too.
PINNED = _answers(
    [cs for name, cs in CORPUS2D + CANCELLING2D if not _by_gen(name)]
    + [_fit("noisy", 5000, 0)],
    [cs for name, cs in CORPUS3D if not _by_gen(name)] + _probes()
    + [_pairs3d(p) for m in (10, 300, 5000) for p in _points(m, 2, m)])
# ``gen``'s bits rest on numpy's SIMD log1p, cos and sin as well.
ANSWERS = PINNED + _answers(
    [cs for name, cs in CORPUS2D if _by_gen(name)],
    [cs for name, cs in CORPUS3D if _by_gen(name)]
    + [_pairs3d(gen3d(GenSpec(n=n, seed=5, dim=3))) for n in (10, 60, 3000)])


@pytest.fixture
def drawn(monkeypatch):
    """The near-tight rows each certificate draws on, as (indices,
    values) lists, one entry per check."""
    calls = []
    certify = model.certify

    def spy(rows, pairs, point, t, lower_bound, who):
        def recorded(idx, values):
            calls.append((idx.tolist(), values.tolist()))
            return lower_bound(idx, values)
        return certify(rows, pairs, point, t, recorded, who)

    monkeypatch.setattr(model, "certify", spy)
    return calls


def _verdicts(answers=ANSWERS):
    """The verdict of each check: "ok", or its ContractViolation's
    message."""
    out = []
    for check, cs, sol in answers:
        try:
            check(cs, sol)
            out.append("ok")
        except ContractViolation as e:
            out.append(str(e))
    return out


def test_blocks_give_the_same_verdicts(monkeypatch, drawn):
    # Blocks of 5 rows: every problem of more than 5 rows takes both
    # passes, with the top and the near-tight rows in different blocks.
    got = []
    for block in (model._BLOCK, 5):
        monkeypatch.setattr(model, "_BLOCK", block)
        drawn.clear()
        got.append((_verdicts(), list(drawn)))
    assert got[0] == got[1]
    assert sum(v == "ok" for v in got[0][0]) < len(ANSWERS)


VERDICT_SHA256 = (
    "f8a8eb7d6a282b5942c960e01f0911b623a2bdb57b20adf0fb37a0f6a2792614")


def test_verdicts_as_pinned():
    # Each message holds the rounded bounds, so the digest pins the float
    # and Fraction paths bit for bit.
    digest = hashlib.sha256("\n".join(_verdicts(PINNED)).encode())
    assert digest.hexdigest() == VERDICT_SHA256


def _near_rows(cols, point):
    """The near-tight rows by ``certify``'s rule, from one pass over every
    row, where no term overflows; None otherwise."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = model._evaluate(cols, point)
        s = model._evaluate([abs(col) for col in cols],
                            [abs(p) for p in point])
    if not np.isfinite(s).all():
        return None
    tight, tiny, F = model._TIGHT, geometry._TINY, Fraction
    top = int(np.argmax(v))
    near = v >= v[top] - tight * s[top] - tight * s - 2 * tiny
    bound = ((2 * F(tight) + F(model._EVAL_ERR)) * F(s[near].max())
             + 3 * F(tiny))
    near |= v >= float(F(v[top]) - 2 * bound)
    return near.nonzero()[0].tolist()


@pytest.mark.parametrize("block", [model._BLOCK, 5])
def test_near_rows_are_those_of_a_pass_over_every_row(monkeypatch, drawn,
                                                      block):
    monkeypatch.setattr(model, "_BLOCK", block)
    compared = 0
    for check, cs, sol in ANSWERS:
        if check is check2d and sol.status is not Status.OPTIMAL:
            continue
        k = 2 if check is check2d else 3
        point = (sol.x,) if k == 2 else (sol.x, sol.y)
        if k == 3 and not (0.0 <= sol.x <= 1.0):
            continue
        want = _near_rows(columns(cs, k), point)
        drawn.clear()
        try:
            check(cs, sol)
        except ContractViolation:
            pass
        if want is None or not drawn:
            continue
        assert drawn[0][0] == want
        compared += 1
    assert compared > 200


def test_the_checks_import_no_solver():
    # model holds certify, check2d and check3d; of the package it imports
    # errors and geometry alone, so no check can call a solver
    tree = ast.parse(Path(model.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else [node.module])
            assert not any(n.startswith("minmaxlp") for n in names)
    assert imported == {"errors", "geometry"}
    assert check2d is model.check2d and check3d is model.check3d


def _box_optima(A, B, C):
    """The exact optimum of the box problem on the integer rows (A, B, C)
    as (top, q), t* = top / q, and the optimal points among the corners,
    the crossings of two rows' planes on an edge and the crossings of
    three rows' planes, as (px, py, q): the point (px / q, py / q), q > 0.
    The objective is convex and piecewise linear, so it attains its least
    value over the box at one of these points."""
    rows = list(zip(A, B, C))
    points = [(x, y, 1) for x in (0, 1) for y in (0, 1)]
    for (ai, bi, ci), (aj, bj, cj) in combinations(rows, 2):
        for fixed in (0, 1):
            # on x = fixed, the planes cross where (bi - bj) y equals
            # (cj - ci) + (aj - ai) fixed, and likewise on y = fixed
            for d, num, on_x in ((bi - bj, cj - ci + (aj - ai) * fixed, 1),
                                 (ai - aj, cj - ci + (bj - bi) * fixed, 0)):
                if d:
                    q, p = abs(d), num if d > 0 else -num
                    points.append((fixed * q, p, q) if on_x
                                  else (p, fixed * q, q))
    for (ai, bi, ci), (aj, bj, cj), (ak, bk, ck) in combinations(rows, 3):
        u1, v1, w1 = ai - aj, bi - bj, cj - ci
        u2, v2, w2 = ai - ak, bi - bk, ck - ci
        det = u1 * v2 - v1 * u2
        if det:
            s = 1 if det > 0 else -1
            points.append((s * (w1 * v2 - v1 * w2), s * (u1 * w2 - w1 * u2),
                           s * det))
    best, optima = None, set()
    for px, py, q in points:
        if not (0 <= px <= q and 0 <= py <= q):
            continue
        top = max(a * px + b * py + c * q for a, b, c in rows)
        if best is None or top * best[1] < best[0] * q:
            best, optima = (top, q), set()
        if top * best[1] == best[0] * q:
            g = math.gcd(px, py, q)
            optima.add((px // g, py // g, q // g))
    return best, optima


def _origin_in_hull(gradients):
    """Whether (0, 0) lies in the convex hull of the integer points
    ``gradients``: in that of one, two or three of them (Caratheodory)."""
    def cross(p, q):
        return p[0] * q[1] - p[1] * q[0]
    g = set(gradients)
    if (0, 0) in g:
        return True
    for p, q in combinations(g, 2):
        if cross(p, q) == 0 and p[0] * q[0] + p[1] * q[1] < 0:
            return True  # on the segment p, q
    for p, q, r in combinations(g, 3):
        s = (cross(p, q), cross(q, r), cross(r, p))
        if cross((q[0] - p[0], q[1] - p[1]), (r[0] - p[0], r[1] - p[1])) \
                and (min(s) >= 0 or max(s) <= 0):
            return True
    return False


def test_the_tight_rows_multipliers_reach_the_box_optimum():
    # The paper's claim in 3D: the optimum is the face of the dual points'
    # lower hull over the rows tight there, so the multipliers on those
    # rows alone bound the optimum with no slack; at an interior optimum
    # (0, 0) lies in the hull of their gradients.  Coefficients are k / d
    # with |k| <= 4 and d in {1, 2, 4}: 4 times each is an integer.
    rng = np.random.default_rng(2011)
    interior = 0
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        rows = rng.integers(-4, 5, (3, n)) / rng.choice([1.0, 2.0, 4.0],
                                                         (3, n))
        A, B, C = (4 * rows).astype(int).tolist()
        (top, q), optima = _box_optima(A, B, C)
        t = Fraction(top, 4 * q)
        for px, py, qp in optima:
            tight = [(a * px + b * py + c * qp) * q == top * qp
                     for a, b, c in zip(A, B, C)]
            assert model._box_lower_bound(*rows[:, tight]) == t
            if 0 < px < qp and 0 < py < qp:
                interior += 1
                assert _origin_in_hull(
                    [(a, b) for a, b, k in zip(A, B, tight) if k])
    assert interior > 50
