import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (EDGE_VALUES, close, corpus2d, eval_max_2,
                      exact_intercept, ordered_pair, orient_points_oracle)
from minmaxlp import (Constraint2, ContractViolation, EmptyProblem, GenSpec,
                      NonFiniteInput, Point2, Sign, Solution2, Status,
                      boundary_via_2d, brute2d, brute3d_box, check2d,
                      expand_absolute, gen2d, gen3d, geometry,
                      orientation_exact, solve, solve3d, solve_baseline,
                      solve_boxed, solver2d, to_dual_points)
from minmaxlp.geometry import _orient_sign

# Coefficients on a coarse grid keep every pairwise crossing well
# conditioned, so the oracle comparison tolerance is honest while ties and
# duplicates still occur often.
grid_coeff = st.integers(-8000, 8000).map(lambda k: k / 1000.0)
grid_constraints = st.lists(
    st.tuples(grid_coeff, grid_coeff).map(lambda ab: Constraint2(*ab)),
    min_size=1, max_size=24)


class TestExpandAbsolute:
    @pytest.mark.parametrize("row,expected", [
        ((1, 0), [(1, 0), (-1, 0)]),
        ((2, -1), [(2, -1), (-2, 1)]),
        ((0, 5), [(0, 5), (0, -5)]),
    ])
    def test_examples(self, row, expected):
        assert expand_absolute([row]) == [Constraint2(*e) for e in expected]

    def test_accepts_residual_type(self):
        # residual rows (a, c); a third field (a y-coefficient) is ignored
        got = expand_absolute([(2, -1), (0, 5, 7)])
        assert got == [Constraint2(2, -1), Constraint2(-2, 1),
                       Constraint2(0, 5), Constraint2(0, -5)]

    def test_length_doubles(self):
        rows = [(1.5, 2.0), (0.0, -3.0), (7.0, 7.0)]
        assert len(expand_absolute(rows)) == 6

    def test_empty_rejected(self):
        with pytest.raises(EmptyProblem):
            expand_absolute([])


class TestDualAndPartition:
    def test_to_dual_points(self):
        assert to_dual_points([(1, 0)]) == [Point2(1, 0)]
        assert to_dual_points([(0.5, 0)]) == [Point2(0.5, 0)]
        assert to_dual_points([(2, -1)]) == [Point2(2, 1)]

    def test_partition_examples(self):
        # solve splits the dual points at x = 0, axis points going left:
        # every pivot pair is (left point, right point)
        sol = solve([(1, 0), (-1, 0)])
        assert sol.pivot_pairs[0] == (Point2(-1, 0), Point2(1, 0))
        sol = solve([(0, 0.5), (1, 0)])
        assert sol.pivot_pairs[0] == (Point2(0, -0.5), Point2(1, 0))
        assert solve([(2, -1), (3, 0)]).status is Status.UNBOUNDED


def _advance(fixed, cands, side):
    """The pivot's advance step as solve runs it, through ``_scan``.

    Side "R" takes the candidate of minimal slope from the fixed point,
    side "L" the one of maximal slope into it: the scan over negated y.
    """
    sgn = 1 if side == "R" else -1
    i = _scan_from([p[0] for p in cands], [sgn * p[1] for p in cands],
                   fixed[0], sgn * fixed[1])
    return cands[i]


def _scan_from(xs, ys, fx, fy):
    """``_scan`` over the candidates (xs, ys), seen from (fx, fy)."""
    pts = solver2d._ExactPoints(list(xs) + [fx], list(ys) + [fy])
    return solver2d._scan(pts, range(len(xs)), len(xs))


def _rational_scan(xs, ys, fx, fy):
    """``_scan``'s contract in rationals: the minimal slope from (fx, fy),
    exact ties to the largest |x - fx|, identical points to the first."""
    F = Fraction

    def key(j):
        dx = F(xs[j]) - F(fx)
        return (F(ys[j]) - F(fy)) / dx, -abs(dx), j

    return min(range(len(xs)), key=key)


class TestAdvance:
    def test_scanning_right_takes_min_slope(self):
        got = _advance(Point2(-1, 0), [Point2(1, 0), Point2(2, 1)], "R")
        assert got == Point2(1, 0)

    def test_scanning_left_takes_max_slope(self):
        got = _advance(Point2(1, 0), [Point2(-1, 0), Point2(0, -0.5)], "L")
        assert got == Point2(0, -0.5)

    def test_singleton(self):
        assert _advance(Point2(-1, 0), [Point2(1, 0)], "R") == Point2(1, 0)

    def test_chosen_line_supports_candidates(self):
        rng = random.Random(4)
        fixed = Point2(-1.0, 0.25)
        cands = [Point2(rng.uniform(0.1, 5), rng.uniform(-5, 5))
                 for _ in range(60)]
        best = _advance(fixed, cands, "R")
        for c in cands:
            assert orientation_exact(fixed, best, c) is not Sign.NEGATIVE

    def test_collinear_tiebreak_prefers_far_point(self):
        cands = [Point2(1, 1), Point2(3, 3), Point2(2, 2)]
        assert _advance(Point2(0, 0), cands, "R") == Point2(3, 3)

    @pytest.mark.parametrize("side", [1, -1])
    def test_edge_value_candidates_match_rational_scan(self, side):
        # Among these candidates the farther of two collinear ones can
        # round to the same distance from the fixed point (1e308 - 0.1
        # and 1e308 - 2.2e-308 are both 1e308), so the tie must be broken
        # on the coordinates themselves.
        rng = random.Random(20261018 + side)
        for _ in range(4000):
            fx, fy = rng.choice(EDGE_VALUES), rng.choice(EDGE_VALUES)
            pool = [v for v in EDGE_VALUES if side * v > side * fx]
            if not pool:
                continue
            n = rng.randint(1, 6)
            xs = [rng.choice(pool) for _ in range(n)]
            ys = [rng.choice(EDGE_VALUES) for _ in range(n)]
            got = _scan_from(xs, ys, fx, fy)
            assert got == _rational_scan(xs, ys, fx, fy), (fx, fy, xs, ys)

    def test_empty_candidates(self, monkeypatch):
        # solve settles a side without candidates before any scan
        scan = solver2d._scan

        def nonempty_scan(pts, idxs, *args):
            assert len(idxs) > 0
            return scan(pts, idxs, *args)

        monkeypatch.setattr(solver2d, "_scan", nonempty_scan)
        for k in (1, LARGE):
            assert solve([(1, 0), (2, 1)] * k).status is Status.UNBOUNDED
            assert solve([(-1, 0), (-2, 1)] * k).status is Status.UNBOUNDED
            assert solve([(0, 1), (0, 3)] * k).t == 3
            assert solve([(0, 1), (-1, 3)] * k).t == 1


class TestSolve:
    def test_symmetric_v(self):
        sol = solve([(1, 0), (-1, 0)])
        assert sol.status is Status.OPTIMAL
        assert sol.x == 0 and sol.t == 0

    def test_three_constraint_instance(self):
        sol = solve([(2, -1), (-1, 0), (0.5, 0)])
        assert sol.status is Status.OPTIMAL
        assert sol.x == 0 and sol.t == 0

    def test_shifted_v(self):
        sol = solve([(1, 0), (-1, 1)])
        assert sol.x == 0.5 and sol.t == 0.5

    def test_unbounded_when_slopes_share_sign(self):
        assert solve([(1, 0), (2, 3)]).status is Status.UNBOUNDED
        assert solve([(-1, 0), (-2, 3)]).status is Status.UNBOUNDED
        assert solve([(5, 1)]).status is Status.UNBOUNDED

    def test_all_zero_slopes(self):
        sol = solve([(0, 5), (0, 3)])
        assert sol.status is Status.OPTIMAL
        assert sol.x == 0 and sol.t == 5

    def test_zero_and_negative_slopes(self):
        # not unbounded: the flat constraint caps the objective from below
        sol = solve([(0, 5), (-1, 3)])
        assert sol.status is Status.OPTIMAL
        assert sol.t == 5
        assert eval_max_2([(0, 5), (-1, 3)], sol.x) == pytest.approx(5)

    def test_zero_and_positive_slopes(self):
        sol = solve([(0, 5), (1, 3)])
        assert sol.status is Status.OPTIMAL
        assert sol.t == 5

    def test_single_flat_constraint(self):
        sol = solve([(0, -2)])
        assert sol.status is Status.OPTIMAL and sol.t == -2

    def test_empty_rejected(self):
        with pytest.raises(EmptyProblem):
            solve([])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            solve([(float("nan"), 0), (1, 0)])
        with pytest.raises(NonFiniteInput):
            solve([(1, float("inf")), (-1, 0)])

    def test_duplicates_and_collinear_duals(self):
        cs = [(1, 0), (1, 0), (-1, 0), (-1, 0), (0, 0), (2, 0), (-2, 0)]
        sol = solve(cs)
        assert sol.status is Status.OPTIMAL
        assert close(sol.t, brute2d(cs).t, 1e-12)

    @settings(max_examples=400, deadline=None)
    @given(grid_constraints)
    def test_matches_oracle(self, cs):
        got = solve(cs)
        ref = brute2d(cs)
        assert got.status is ref.status
        if ref.status is Status.OPTIMAL:
            assert close(got.t, ref.t, 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(grid_constraints, st.randoms(use_true_random=False))
    def test_permutation_invariant_t(self, cs, rng):
        base = solve(cs)
        shuffled = list(cs)
        rng.shuffle(shuffled)
        other = solve(shuffled)
        assert base.status is other.status
        if base.status is Status.OPTIMAL:
            assert close(other.t, base.t, 1e-12)


class TestSolveOnCorpus:
    corpus = None

    @classmethod
    def setup_class(cls):
        cls.corpus = [inst for n in (2, 3, 5, 10, 40)
                      for inst in corpus2d(n, 40, seed=1000 + n)]

    def test_certificate_holds(self):
        for cs in self.corpus:
            sol = solve(cs)
            check2d(cs, sol)

    def test_intercepts_strictly_decrease(self):
        seen_multi = 0
        for cs in self.corpus:
            sol = solve(cs)
            if sol.status is Status.UNBOUNDED:
                continue
            cuts = [exact_intercept(p) for p in sol.pivot_pairs]
            seen_multi += len(cuts) > 1
            assert all(a > b for a, b in zip(cuts, cuts[1:]))
        assert seen_multi > 0  # the check must have exercised real pivots

    def test_final_line_supports_all_duals(self):
        for cs in self.corpus:
            sol = solve(cs)
            if sol.status is Status.UNBOUNDED:
                continue
            pl, pr = ordered_pair(sol.pivot_pairs[-1])
            for p in to_dual_points(cs):
                assert orientation_exact(pl, pr, p) is not Sign.NEGATIVE

    def test_iterations_bounded_by_n(self):
        for cs in self.corpus:
            sol = solve(cs)
            assert sol.iterations <= len(cs)

    def test_final_pair_straddles_axis(self):
        for cs in self.corpus:
            sol = solve(cs)
            if sol.status is Status.UNBOUNDED or not sol.pivot_pairs:
                continue
            pl, pr = ordered_pair(sol.pivot_pairs[-1])
            assert pl.x <= 0.0 <= pr.x


class TestSolveBoxed:
    def test_interior_optimum(self):
        sol = solve_boxed([(1, 0), (-1, 0)], -1, 1)
        assert sol.x == 0 and sol.t == 0

    def test_clamps_left(self):
        sol = solve_boxed([(1, 0), (-1, 0)], 2, 3)
        assert sol.x == 2 and sol.t == 2

    def test_clamps_right(self):
        sol = solve_boxed([(1, 0), (-1, 0)], -3, -2)
        assert sol.x == -2 and sol.t == 2

    def test_unbounded_direction_clipped(self):
        sol = solve_boxed([(1, 0)], 0, 1)
        assert sol.x == 0 and sol.t == 0
        sol = solve_boxed([(-1, 0)], 0, 1)
        assert sol.x == 1 and sol.t == -1

    def test_bad_box(self):
        with pytest.raises(ValueError):
            solve_boxed([(1, 0)], 2, 1)

    def test_empty(self):
        with pytest.raises(EmptyProblem):
            solve_boxed([], 0, 1)

    @pytest.mark.filterwarnings("error")
    def test_answers_near_the_double_range(self):
        # the unconstrained optimum x = 2e308 is out of range, but the
        # boxed one is finite
        sol = solve_boxed([(0.0, 1e308), (0.5, 0.0)], 0.0, 1.0)
        assert (sol.status, sol.x, sol.t) == (Status.OPTIMAL, 0.0, 1e308)
        # the only box point's value, 3e308, is not a double
        with pytest.raises(NonFiniteInput):
            solve_boxed([(1.5e308, 1.5e308), (-1.0, 0.0)], 1.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(-math.inf, 0.0), (0.0, math.inf),
                                       (math.nan, 1.0)])
    def test_non_finite_box_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            solve_boxed([(1.0, 0.0)], lo, hi)

    def test_endpoint_tie_goes_to_lo(self):
        # a flat objective; the unconstrained answer x = 0 is right of the box
        sol = solve_boxed([(0.0, 1.0)], -3.0, -2.0)
        assert (sol.x, sol.t) == (-3.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(grid_constraints)
    def test_boxed_is_min_over_box(self, cs):
        sol = solve_boxed(cs, -2.0, 2.0)
        assert sol.status is Status.OPTIMAL
        assert -2.0 <= sol.x <= 2.0
        got = eval_max_2(cs, sol.x)
        assert close(got, sol.t, 1e-9)
        for x in (-2.0, -1.3, -0.5, 0.0, 0.4, 1.1, 2.0):
            assert sol.t <= eval_max_2(cs, x) + 1e-9 * max(1, abs(sol.t))


class TestCertificate:
    def test_accepts_true_optimum(self):
        cs = [(1, 0), (-1, 0)]
        check2d(cs, solve(cs))

    def test_rejects_feasible_non_optimum(self):
        cs = [(1, 0), (-1, 0)]
        fake = Solution2(Status.OPTIMAL, x=0.5, t=0.5)
        with pytest.raises(ContractViolation, match="no near-tight"):
            check2d(cs, fake)

    def test_rejects_infeasible(self):
        cs = [(1, 0), (-1, 0)]
        fake = Solution2(Status.OPTIMAL, x=0.0, t=-0.1)
        with pytest.raises(ContractViolation, match="objective"):
            check2d(cs, fake)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_row_rejected(self):
        sol = Solution2(Status.OPTIMAL, x=0.0, t=0.0)
        with pytest.raises(NonFiniteInput, match="constraint 1 "):
            check2d([(1.0, 0.0), (math.nan, 0.0)], sol)

    def test_requires_optimal_status(self):
        # a bounded problem must be answered OPTIMAL, with a point
        with pytest.raises(ContractViolation, match="status unbounded"):
            check2d([(1, 0), (-1, 0)], Solution2(Status.UNBOUNDED))


# --- exactness on the original points, and the numpy path ----------------

def _fit_rows(m, slope, seed, ripple=0.0):
    """m residual rows (a, c) of |a*x + c| fitted exactly at x = slope.

    With ripple > 0 every residual is off by +-ripple at x = slope.  The
    sign of the offset times a alternates from row to row, so moving x
    either way makes some residual grow: the optimum is t = ripple.
    """
    rng = random.Random(seed)
    a = [rng.gauss(0.0, 10 ** 0.5) for _ in range(m)]
    return [(x, -(slope * x + math.copysign(ripple, x) * (-1) ** i))
            for i, x in enumerate(a)]


def _supports_all(cs, sol):
    """The final pivot pair straddles the axis and, by rational arithmetic
    on the original coordinates, no dual point lies below its line."""
    (lx, ly), (rx, ry) = ordered_pair(sol.pivot_pairs[-1])
    if not lx <= 0.0 <= rx:
        return False
    for a, b in ((c[0], c[1]) for c in cs):
        if orient_points_oracle(lx, ly, rx, ry, a, -b) < 0:
            return False
    return True


def _bits(sol):
    """(status, x, t, iterations, pivot_pairs) with every float as hex, so
    equal values differ when their bits do (0.0 against -0.0)."""
    h = lambda v: None if v is None else float(v).hex()  # noqa: E731
    return (sol.status, h(sol.x), h(sol.t), sol.iterations,
            tuple((h(p.x), h(p.y), h(q.x), h(q.y))
                  for p, q in sol.pivot_pairs))


@pytest.fixture
def columnar_path(monkeypatch):
    """Force every problem onto the numpy path."""
    monkeypatch.setattr(solver2d, "_COLUMNAR_MIN_N", 1)


def _on_both_paths(monkeypatch, fn):
    """[fn() on the list path, fn() on the numpy path]."""
    out = []
    for cut in (10 ** 9, 1):
        monkeypatch.setattr(solver2d, "_COLUMNAR_MIN_N", cut)
        out.append(fn())
    return out


class TestExactFits:
    """Fits whose residuals vanish (or equioscillate) at one x: every dual
    point is nearly collinear with every pair, so nearly every comparison
    goes to the exact predicate."""

    @pytest.mark.parametrize("m", [8, 10, 12])
    @pytest.mark.parametrize("slope", [0.1, 0.125])
    def test_exact_fit_has_zero_objective(self, m, slope):
        for seed in range(15):
            cs = expand_absolute(_fit_rows(m, slope, seed))
            sol = solve(cs)
            assert sol.status is Status.OPTIMAL
            assert abs(sol.t) <= 1e-12
            assert close(sol.t, solve_baseline(cs).t, 1e-12)
            assert close(sol.t, brute2d(cs).t, 1e-9)
            assert close(sol.x, slope, 1e-12)
            assert _supports_all(cs, sol)

    @pytest.mark.parametrize("m", [8, 10, 12])
    def test_equiripple_fit(self, m):
        for seed in range(15):
            cs = expand_absolute(_fit_rows(m, 0.1, seed, ripple=0.25))
            sol = solve(cs)
            assert close(sol.t, 0.25, 1e-12)
            assert close(sol.t, solve_baseline(cs).t, 1e-12)
            assert _supports_all(cs, sol)

    def test_exact_fit_on_numpy_path(self, columnar_path):
        for seed in range(10):
            cs = expand_absolute(_fit_rows(12, 0.1, seed))
            sol = solve(cs)
            assert abs(sol.t) <= 1e-12 and _supports_all(cs, sol)

    def test_large_exact_fit(self):
        # above the size threshold nearly every candidate survives the
        # vectorised filter and the exact loop decides
        cs = expand_absolute(_fit_rows(400, 0.1, 7))
        sol = solve(cs)
        assert abs(sol.t) <= 1e-12
        assert close(sol.t, solve_baseline(cs).t, 1e-12)
        assert _supports_all(cs, sol)


class TestNonFiniteAnswer:
    def test_overflowing_differences_give_exact_answer(self, monkeypatch):
        # finite input whose dual coordinate differences overflow; the
        # objective max(|1e308*(x + 1)|, x) is 0 at x = -1
        cs = [(1e308, 1e308), (-1e308, -1e308), (1.0, 0.0)]
        for sol in _on_both_paths(monkeypatch, lambda: solve(cs)):
            assert sol.status is Status.OPTIMAL
            assert (sol.x, sol.t) == (-1.0, 0.0)

    def test_unrepresentable_answer_raises(self, monkeypatch):
        # the two lines cross at x = 5e599
        cs = [(1e-300, 0.0), (-1e-300, 1e300)]

        def raises():
            with pytest.raises(NonFiniteInput):
                solve(cs)

        _on_both_paths(monkeypatch, raises)


SMALL = 5
LARGE = 201  # a fixed size, so test ids stay put when the threshold moves
assert SMALL < solver2d._COLUMNAR_MIN_N <= LARGE


class TestInputEdge:
    """Arrays, long rows and bad values on both sides of the size threshold."""

    @pytest.mark.parametrize("n", [SMALL, LARGE])
    def test_array_input(self, n):
        rows = gen2d(GenSpec(n=n, seed=31))
        arr = np.array(rows)
        assert _bits(solve(arr)) == _bits(solve(rows))
        got, want = solve_baseline(arr), solve_baseline(rows)
        assert (got.status, got.x, got.t) == (want.status, want.x, want.t)
        assert type(got.t) is float and type(solve(arr).t) is float
        assert expand_absolute(arr) == expand_absolute(rows)
        assert solve_boxed(arr, -1.0, 1.0) == solve_boxed(rows, -1.0, 1.0)
        rows3 = gen3d(GenSpec(n=n, seed=31, dim=3))
        assert boundary_via_2d(np.array(rows3)) == boundary_via_2d(rows3)

    def test_empty_array_rejected(self):
        empty = np.empty((0, 2))
        for fn in (solve, solve_baseline, expand_absolute):
            with pytest.raises(EmptyProblem):
                fn(empty)

    @pytest.mark.parametrize("k", [1, LARGE // 2 + 1])
    def test_rows_with_extra_fields(self, k):
        rows = [(1.0, 0.0, 99.0), (-1.0, 1.0, 7.0)] * k
        sol = solve(rows)
        assert (sol.status, sol.x, sol.t) == (Status.OPTIMAL, 0.5, 0.5)
        assert solve_baseline(rows).t == 0.5
        assert _bits(solve(np.array(rows))) == _bits(sol)
        assert expand_absolute(rows)[:2] == [Constraint2(1.0, 0.0),
                                             Constraint2(-1.0, -0.0)]

    @pytest.mark.parametrize("n", [SMALL, LARGE])
    @pytest.mark.parametrize("fn,k", [(solve, 2), (solve_baseline, 2),
                                      (brute2d, 2), (solve3d, 3),
                                      (brute3d_box, 3)])
    def test_short_rows_rejected(self, fn, k, n):
        rows = [(1.0, 0.0, 0.0)[:k], (-1.0, 1.0, 0.0)[:k]] * n
        rows[3] = rows[3][:k - 1]
        with pytest.raises(ValueError, match="at least"):
            fn(rows)

    @pytest.mark.parametrize("n", [SMALL, LARGE])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_names_first_bad_constraint(self, n, bad):
        rows = [(1.0, 0.0), (-1.0, 1.0)] * n
        rows[3] = (bad, 0.0)
        rows[4] = (1.0, bad)
        for fn in (solve, solve_baseline):
            for cs in (rows, np.array(rows)):
                with pytest.raises(NonFiniteInput, match="constraint 3 "):
                    fn(cs)


def _int_rows(n, seed):
    rng = random.Random(seed)
    return [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)]


def _differential_cases():
    """Float inputs, and int inputs on both sides of the size threshold."""
    cases = {}
    for n in (1, 2, 3, 10, 57, 300):
        for k in range(6):
            cases[f"gauss/{n}/{k}"] = gen2d(GenSpec(n=n, seed=90 + n), index=k)
    cases["duplicates"] = [(1.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (-1.0, 0.0),
                           (0.0, 0.0), (2.0, 0.0), (-2.0, 0.0)]
    cases["collinear"] = [(float(k), 0.5 * k) for k in range(-6, 7)] * 2
    cases["repeated"] = [(2.0, -1.0), (-1.0, 0.0), (0.5, 0.0)] * 5
    for slope in (0.1, 0.125):
        for m in (8, 12):
            cases[f"fit/{slope}/{m}"] = expand_absolute(
                _fit_rows(m, slope, m))
    cases["mirrored"] = [(-1.0, 0.0), (-2.0, 1.0), (0.0, 0.5), (-0.5, -1.0),
                         (-3.0, 2.0), (-0.0, -4.0)]
    cases["all-negative"] = [(-1.0, 0.0), (-2.0, 3.0)]
    cases["all-positive"] = [(1.0, 0.0), (2.0, 3.0)]
    cases["zero-slopes"] = [(0.0, 5.0), (0.0, 3.0), (-0.0, 5.0)]
    cases["signed-zeros"] = [(0.0, -0.0), (-0.0, 0.0), (1.0, 0.0),
                             (-1.0, -0.0), (0.0, 0.0)]
    cases["zero-slopes-signed"] = [(-0.0, -0.0), (0.0, 0.0), (0.0, -0.0)]
    cases["zero-slopes-signed-2"] = [(0.0, 0.0), (-0.0, -0.0)]
    cases["int/duplicates"] = [(1, 0), (1, 0), (-1, 0), (-1, 0), (0, 0),
                               (2, 0), (-2, 0)]
    for n in (SMALL, LARGE):
        cases[f"int/grid/{n}"] = _int_rows(n, seed=n)
    return cases


def _outcome(cs):
    """``_bits`` of solve(cs), or the error it raises."""
    try:
        return _bits(solve(cs))
    except NonFiniteInput as e:
        return ("NonFiniteInput", str(e))


# zeros of both signs and subnormals, with a few moderate values
_TINY = tuple(v for v in EDGE_VALUES if abs(v) <= 3.0)
_DBL_MAX = sys.float_info.max
# Magnitudes from 2^1021 to DBL_MAX, mixed with moderate values: a scan's
# differences overflow in some problems and not in others, so both the
# slope prefilter and the scans that hand over every candidate run.
_huge = st.builds(lambda v, neg: -v if neg else v,
                  st.floats(min_value=2.0 ** 1021, max_value=_DBL_MAX)
                  | st.floats(min_value=-1e3, max_value=1e3),
                  st.booleans())

_FAMILIES = {
    "gauss": st.builds(lambda n, seed, k: gen2d(GenSpec(n=n, seed=seed),
                                                index=k),
                       st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
                       st.integers(0, 5)),
    # small integers: duplicate and collinear duals, ties in every scan
    "grid": st.lists(st.tuples(st.integers(-4, 4).map(float),
                               st.integers(-4, 4).map(float)),
                     min_size=1, max_size=150),
    "exact-fit": st.builds(
        lambda m, slope, seed, ripple: expand_absolute(
            _fit_rows(m, slope, seed, ripple)),
        st.integers(48, 120), st.sampled_from([0.1, 0.125, -3.0]),
        st.integers(0, 10 ** 6), st.sampled_from([0.0, 0.25])),
    "zeros-subnormals": st.lists(st.tuples(st.sampled_from(_TINY),
                                           st.sampled_from(_TINY)),
                                 min_size=1, max_size=120),
    "scaled": st.builds(
        lambda n, seed, ka, kb: [(math.ldexp(a, ka), math.ldexp(b, kb))
                                 for a, b in gen2d(GenSpec(n=n, seed=seed))],
        st.integers(1, 200), st.integers(0, 10 ** 6),
        st.sampled_from([-1000, 0, 1000]), st.sampled_from([-1000, 0, 1000])),
    "huge": st.lists(st.tuples(_huge, _huge), min_size=1, max_size=120),
}


class TestPathsAgree:
    """The list path and the numpy path take the same decision at every
    step, so their solutions agree bit for bit."""

    @pytest.mark.parametrize("name,cs", list(_differential_cases().items()))
    def test_bitwise_equal(self, monkeypatch, name, cs):
        rows, cols = _on_both_paths(monkeypatch, lambda: _bits(solve(cs)))
        assert rows == cols

    @pytest.mark.parametrize("n", [7, SMALL, LARGE])
    def test_int_rows_solve_as_floats(self, n):
        rows = (_int_rows(n, seed=n) if n != 7 else
                [(1, 0), (1, 0), (-1, 0), (-1, 0), (0, 0), (2, 0), (-2, 0)])
        as_floats = [(float(a), float(b)) for a, b in rows]
        sol = solve(rows)
        assert _bits(sol) == _bits(solve(as_floats))
        assert all(type(v) is float for pair in sol.pivot_pairs
                   for p in pair for v in p)

    @pytest.mark.parametrize("n", [SMALL, LARGE])
    def test_int_residuals_expand_as_floats(self, monkeypatch, n):
        # Residuals negate in float64, so an int 0 becomes -0.0 in the
        # negated copy, where a Python int negation kept 0.
        rows = _int_rows(n, seed=n + 1) + [(0, 0), (2, 0), (0, -3)]
        cs = expand_absolute(rows)
        want = [(float(a), float(c), -float(a), -float(c)) for a, c in rows]
        assert [[v.hex() for v in r] for r in cs] == \
            [[v.hex() for v in w[k:k + 2]] for w in want for k in (0, 2)]
        as_floats = [tuple(r) for r in cs]
        got = _on_both_paths(monkeypatch, lambda: _bits(solve(cs)))
        assert got[0] == got[1] == _bits(solve(as_floats))

    def test_large_gaussian_instances(self, monkeypatch):
        for n in (200, 2000):
            for k in range(3):
                cs = gen2d(GenSpec(n=n, seed=5), index=k)
                rows, cols = _on_both_paths(monkeypatch,
                                            lambda: _bits(solve(cs)))
                assert rows == cols

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_random_problems_bitwise_equal(self, monkeypatch, family, data):
        cs = data.draw(_FAMILIES[family])
        rows, cols = _on_both_paths(monkeypatch, lambda: _outcome(cs))
        assert rows == cols


def _fit_degenerate(family, m, seed):
    """Residual rows (a, c) of |a*x + c| with c = -(s*a + e): "exact"
    (s = 0.1, e = 0), "dyadic" (s = 0.125, e = 0), "equiripple" (s = 0.1,
    e = +-0.25 at random) and "noisy" (s = 0.1, e ~ N(0, 1e-9))."""
    rng = np.random.default_rng([seed, m])
    a = rng.normal(0.0, 10 ** 0.5, m)
    if family in ("exact", "dyadic"):
        c = -((0.125 if family == "dyadic" else 0.1) * a)
    elif family == "equiripple":
        c = -(0.1 * a + rng.choice((0.25, -0.25), m))
    else:
        c = -(0.1 * a + rng.normal(0.0, 1e-9, m))
    return list(zip(a.tolist(), c.tolist()))


def _per_call_settle(pts, a, b, c):
    """``geometry._settle`` by the per-call predicate ``_orient_sign``:
    the turn of the points as the scan sees them, with no shared images."""
    xs, ys = pts.xs, pts.ys
    return _orient_sign(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c])


@pytest.fixture
def settled(monkeypatch):
    """Every miss a scan settles, as (points, a, b, c)."""
    calls = []
    settle = solver2d._settle

    def spy(pts, a, b, c):
        calls.append((pts, a, b, c))
        return settle(pts, a, b, c)

    monkeypatch.setattr(solver2d, "_settle", spy)
    return calls


@pytest.fixture
def image_builds(monkeypatch):
    """The length of every column whose images are built."""
    builds = []
    images = geometry._images

    def spy(vs):
        builds.append(len(vs))
        return images(vs)

    monkeypatch.setattr(geometry, "_images", spy)
    return builds


class TestSharedImages:
    """The scans settle float-filter misses on integer images, built at
    the first miss: once per solve on the list path, once per scan of its
    survivors on the numpy path."""

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_random_problems_match_per_call_predicate(self, monkeypatch,
                                                      family, data):
        cs = data.draw(_FAMILIES[family])
        want = _on_both_paths(monkeypatch, lambda: _outcome(cs))
        monkeypatch.setattr(solver2d, "_settle", _per_call_settle)
        assert _on_both_paths(monkeypatch, lambda: _outcome(cs)) == want

    @pytest.mark.parametrize("family",
                             ["dyadic", "equiripple", "exact", "noisy"])
    def test_fit_degenerate_matches_per_call_predicate(self, monkeypatch,
                                                       family):
        cases = [expand_absolute(_fit_degenerate(family, m, seed))
                 for m in (8, 10, 12) for seed in range(20)]
        want = [_on_both_paths(monkeypatch, lambda: _bits(solve(cs)))
                for cs in cases]
        misses = []
        monkeypatch.setattr(solver2d, "_settle",
                            lambda *args: misses.append(args)
                            or _per_call_settle(*args))
        assert [_on_both_paths(monkeypatch, lambda: _bits(solve(cs)))
                for cs in cases] == want
        # noisy fits are far enough from collinear for the filter alone
        assert bool(misses) is (family != "noisy")

    def test_no_miss_builds_no_images(self, monkeypatch, settled,
                                      image_builds):
        for n in (2, 10, 60, SMALL, LARGE, 2000):
            for k in range(3):
                cs = gen2d(GenSpec(n=n, seed=7), index=k)
                _on_both_paths(monkeypatch, lambda: solve(cs))
        assert not settled
        assert not image_builds

    def test_list_path_builds_images_once(self, settled, image_builds):
        # Both sides miss, and every scan reads the images of all 24 dual
        # points that the first miss built; the left side's are mirrored.
        cs = expand_absolute(_fit_degenerate("exact", 12, 0))
        solve(cs)
        assert {pts.mirrors is None for pts, *_ in settled} == {True, False}
        assert image_builds == [24, 24]

    def test_numpy_path_builds_images_per_scan(self, monkeypatch, settled,
                                               image_builds):
        # each scan that misses builds the images of its survivors and
        # the fixed point, once
        monkeypatch.setattr(solver2d, "_COLUMNAR_MIN_N", 1)
        solve(expand_absolute(_fit_degenerate("exact", 200, 0)))
        scanned = list({id(pts): len(pts.xs) for pts, *_ in settled}.values())
        assert len(scanned) >= 2
        assert image_builds == [n for n in scanned for _ in "xy"]


@pytest.fixture
def scanned(monkeypatch):
    """Every ``_scan`` call as (candidates handed over, fixed point's x)."""
    calls = []
    scan = solver2d._scan

    def spy(pts, idxs, f):
        calls.append((len(idxs), pts.xs[f]))
        return scan(pts, idxs, f)

    monkeypatch.setattr(solver2d, "_scan", spy)
    return calls


def _numpy_scans(monkeypatch, scanned, cs):
    """The ``_scan`` calls of solve(cs) on the numpy path, as (candidates
    handed over, candidates on the scanned side), once both paths have
    agreed bit for bit."""
    rows, cols = _on_both_paths(monkeypatch,
                                lambda: scanned.clear() or _outcome(cs))
    assert rows == cols
    n_right = sum(a > 0 for a, _ in cs)
    # A right-side scan is seen from a left point, x <= 0, and vice versa.
    return [(k, n_right if fx <= 0 else len(cs) - n_right)
            for k, fx in scanned]


class TestSlopePrefilter:
    """``_filtered_scan``: the slope prefilter, and the scans without a
    proven threshold, which hand every candidate to ``_scan``."""

    @pytest.mark.parametrize("flip", [False, True])
    def test_edge_value_candidates_match_rational_scan(self, flip):
        rng = random.Random(20261018 + flip)
        for _ in range(3000):
            fx, fy = rng.choice(EDGE_VALUES), rng.choice(EDGE_VALUES)
            side = rng.choice((1, -1))
            pool = [v for v in EDGE_VALUES if side * v > side * fx]
            if not pool:
                continue
            n = rng.randint(1, 6)
            xs = [rng.choice(pool) for _ in range(n)]
            ys = [rng.choice(EDGE_VALUES) for _ in range(n)]
            ranged = all(math.isfinite(x - fx) for x in xs) and \
                all(math.isfinite(y - fy) for y in ys)
            col = np.array([-y for y in ys] if flip else ys)
            want = _rational_scan(xs, ys, fx, fy)
            for guard in {ranged, False}:
                with np.errstate(all="ignore"):
                    got = solver2d._filtered_scan(np.array(xs), col, fx, fy,
                                                  flip, guard)
                assert got == want, (fx, fy, xs, ys, guard)

    def test_reordered_subnormal_slopes(self, monkeypatch):
        # Seen from f, b's and c's slopes are subnormal, and c's difference
        # in x rounds: the rounded slopes come out one unit apart in the
        # wrong order, so c, the winner, survives only by the threshold's
        # absolute term.
        h = float.fromhex
        fx = h("-0x1.f4p-34")
        bx, by = h("0x1.d7045a4339b98p+10"), h("0x1.7f15bfae23622p-1019")
        cx, cy = h("0x1.0067f76631607p+20"), h("0x1.a113df58c6acfp-1010")
        F = Fraction
        assert cy / (cx - fx) > by / (bx - fx)
        assert F(cy) / (F(cx) - F(fx)) < F(by) / (F(bx) - F(fx))
        with np.errstate(all="ignore"):
            assert solver2d._filtered_scan(np.array([bx, cx]),
                                           np.array([-by, -cy]), fx, 0.0,
                                           True, True) == 1
        cs = [(fx, 0.0), (bx, -by), (cx, -cy)]
        rows, cols = _on_both_paths(monkeypatch, lambda: solve(cs))
        assert _bits(rows) == _bits(cols)
        assert cols.pivot_pairs[0][1] == (cx, cy)

    def test_underflowing_triple_among_far_rows(self, monkeypatch,
                                                scanned):
        # The geometry test's triple whose products underflow and reorder:
        # c is the winner, with the threshold and without.
        h = float.fromhex
        fx = h("-0x1.38792b613f371p-556")
        bx, by = h("0x1.6a7e3c198c20cp-502"), h("0x1.72d0637cc2346p-529")
        cx, cy = h("0x1.004f98994958ep-502"), h("0x1.0631c7f99c9c6p-529")
        for ranged in (True, False):
            with np.errstate(all="ignore"):
                assert solver2d._filtered_scan(np.array([bx, cx]),
                                               np.array([by, cy]), fx, 0.0,
                                               False, ranged) == 1
        # Two far rows put the sides' x extremes 3.4e308 apart, but the
        # first scan's differences from (fx, 0) stay finite, so it is
        # filtered: b and c reach ``_scan``, the far right row does not.
        cs = [(fx, 0.0), (bx, -by), (cx, -cy),
              (1.7e308, -1e307), (-1.7e308, -1e307)]
        assert _numpy_scans(monkeypatch, scanned, cs)[0] == (2, 3)
        assert solve(cs).pivot_pairs[0][1] == (cx, cy)

    @pytest.mark.parametrize("scale,extremes_overflow", [
        (1.0, False), (2.0 ** 1021, False), (2.0 ** 1022, True),
        (_DBL_MAX / 3, True)])
    def test_guard_falls_back_only_where_differences_may_overflow(
            self, monkeypatch, scanned, scale, extremes_overflow):
        # Slopes within +-2 * scale, both extremes taken: the sides' x
        # extremes differ by 4 * scale, which overflows from 2^1022 on,
        # but no fixed point lies far enough out for its own scan's
        # differences to overflow, so every scan stays filtered.
        rows = [(scale * math.tanh(a), b) for a, b in
                gen2d(GenSpec(n=LARGE, seed=3))]
        rows += [(2 * scale, 0.0), (-2 * scale, 0.0)]
        assert math.isinf(4 * scale) is extremes_overflow
        assert all(k < side
                   for k, side in _numpy_scans(monkeypatch, scanned, rows))

    @pytest.mark.parametrize("extreme", ["x", "b_lo", "b_hi", "T"])
    def test_unproven_scan_hands_every_candidate_to_scan(
            self, monkeypatch, scanned, extreme):
        # The first scan runs from the left point of largest b, fb.  Rows
        # make its dx to the farthest right x overflow; or its dy to the
        # right side's least b, while a right row at b = fb keeps the
        # least rounded slope at 0; or its dy to the largest b, which makes
        # that slope -inf; or that slope finite but below -2^1000, where
        # the threshold stops.
        rows = [tuple(r) for r in gen2d(GenSpec(n=LARGE, seed=4))]
        if extreme == "x":
            rows += [(-1e308, 100.0), (1e308, 0.0)]
        elif extreme == "b_lo":
            rows += [(-1.0, 1e308), (1.0, 1e308), (1.0, -1e308)]
        elif extreme == "b_hi":
            rows = [(a, b - 1e308 if a <= 0 else b) for a, b in rows]
            rows.append((1.0, 1e308))
        else:
            rows.append((1.0, 1e305))
        k, side = _numpy_scans(monkeypatch, scanned, rows)[0]
        assert k == side

    @pytest.mark.parametrize("n", [64, LARGE, 2000])
    @pytest.mark.parametrize("far", [
        [(1.7e308, -1e307), (-1.7e308, -1e307)],
        [(1e308, 1e308), (-1e308, -1.7e308)],
        [(-1.0, 1.7e308), (1.0, -1.7e308)]])
    def test_gaussian_with_far_rows_agrees_across_paths(
            self, monkeypatch, scanned, n, far):
        for k in range(3):
            rows = [tuple(r) for r in gen2d(GenSpec(n=n, seed=5), index=k)]
            _numpy_scans(monkeypatch, scanned, rows + far)
