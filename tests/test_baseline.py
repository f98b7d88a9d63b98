import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import close, corpus2d
from minmaxlp import (EmptyProblem, Point2, Sign, Status, lower_hull,
                      orientation_exact, solve, solve_baseline,
                      to_dual_points)

coord = st.integers(-500, 500).map(lambda k: k / 50.0)
point_lists = st.lists(st.tuples(coord, coord).map(lambda p: Point2(*p)),
                       min_size=1, max_size=30)


class TestLowerHull:
    def test_keeps_dipping_middle(self):
        pts = [Point2(-1, 0), Point2(0, -0.5), Point2(1, 0)]
        assert lower_hull(pts) == pts

    def test_drops_raised_middle(self):
        pts = [Point2(-1, 0), Point2(0, 0.5), Point2(1, 0)]
        assert lower_hull(pts) == [Point2(-1, 0), Point2(1, 0)]

    def test_singleton(self):
        assert lower_hull([Point2(0, 0)]) == [Point2(0, 0)]

    def test_equal_x_keeps_lowest(self):
        pts = [Point2(0, 3), Point2(0, -1), Point2(0, 2)]
        assert lower_hull(pts) == [Point2(0, -1)]

    def test_collinear_middle_dropped(self):
        pts = [Point2(0, 0), Point2(1, 1), Point2(2, 2)]
        assert lower_hull(pts) == [Point2(0, 0), Point2(2, 2)]

    def test_empty_rejected(self):
        with pytest.raises(EmptyProblem):
            lower_hull([])

    @settings(max_examples=200, deadline=None)
    @given(point_lists)
    def test_hull_supports_every_point(self, pts):
        chain = lower_hull(pts)
        assert all(a.x < b.x for a, b in zip(chain, chain[1:]))
        for a, b, c in zip(chain, chain[1:], chain[2:]):
            assert orientation_exact(a, b, c) is Sign.POSITIVE
        for a, b in zip(chain, chain[1:]):
            for p in pts:
                assert orientation_exact(a, b, p) is not Sign.NEGATIVE

    @settings(max_examples=200, deadline=None)
    @given(point_lists)
    def test_idempotent(self, pts):
        chain = lower_hull(pts)
        assert lower_hull(chain) == chain

    def test_numpy_sort_path_matches_python_path(self):
        # the large-input branch must build the identical hull
        inst = corpus2d(6000, 1, seed=77)[0]
        pts = to_dual_points(inst)
        via_numpy = lower_hull(pts)
        from minmaxlp import baseline
        old = baseline._NP_SORT_CUTOFF
        baseline._NP_SORT_CUTOFF = 10 ** 9
        try:
            assert lower_hull(pts) == via_numpy
        finally:
            baseline._NP_SORT_CUTOFF = old


class TestSolveBaseline:
    def test_symmetric_v(self):
        sol = solve_baseline([(1, 0), (-1, 0)])
        assert sol.status is Status.OPTIMAL
        assert sol.x == 0 and sol.t == 0

    def test_three_constraint_instance(self):
        sol = solve_baseline([(2, -1), (-1, 0), (0.5, 0)])
        assert sol.x == 0 and sol.t == 0

    def test_unbounded(self):
        assert solve_baseline([(1, 0), (2, 3)]).status is Status.UNBOUNDED

    def test_all_zero_slopes(self):
        sol = solve_baseline([(0, 5), (0, 3)])
        assert sol.x == 0 and sol.t == 5

    def test_zero_and_negative_slopes(self):
        sol = solve_baseline([(0, 5), (-1, 3)])
        assert sol.status is Status.OPTIMAL and sol.t == 5

    def test_empty_rejected(self):
        with pytest.raises(EmptyProblem):
            solve_baseline([])

    def test_agreement_on_corpus(self):
        for n, count in ((2, 100), (3, 100), (7, 100), (25, 50), (150, 20)):
            for cs in corpus2d(n, count, seed=9000 + n):
                a = solve(cs)
                b = solve_baseline(cs)
                assert a.status is b.status
                if a.status is Status.OPTIMAL:
                    assert close(a.t, b.t, 1e-12)

    def test_overflowing_differences_give_exact_answer(self):
        # p1 - p0 overflows for the first two dual points; every turn is
        # decided on the points themselves, and the answer line exactly
        cs = [(1e308, 1e308), (-1e308, -1e308), (1.0, 0.0)]
        sol = solve_baseline(cs)
        assert (sol.status, sol.x, sol.t) == (Status.OPTIMAL, -1.0, 0.0)
        ref = solve(cs)
        assert (ref.x, ref.t) == (sol.x, sol.t)

    def test_hull_turns_exact_near_double_range(self):
        # collinear and barely convex triples whose differences overflow
        big = 1.5e308
        pts = [Point2(-big, big), Point2(0.0, 0.0), Point2(big, -big)]
        assert lower_hull(pts) == [pts[0], pts[2]]
        dip = [Point2(-big, big), Point2(0.0, -1.0), Point2(big, -big)]
        assert lower_hull(dip) == dip

    def test_agreement_through_numpy_sort_path(self):
        for cs in corpus2d(6000, 3, seed=31):
            a = solve(cs)
            b = solve_baseline(cs)
            assert close(a.t, b.t, 1e-12)
