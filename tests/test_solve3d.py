"""The box solver: differential tests against the cubic oracle, adversarial
families, the tie rule, input handling and a large smoke test."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import close, corpus3d, eval_max_3
from minmaxlp import (ContractViolation, EmptyProblem, GenSpec,
                      NonFiniteInput, boundary_via_2d, brute3d_box, gen3d,
                      prune3d, solve3d)


def assert_answer(cs, sol, tol=1e-9, scale=1.0):
    """In the box, t is the objective there, and t matches the oracle."""
    assert 0.0 <= sol.x <= 1.0 and 0.0 <= sol.y <= 1.0
    assert sol.t == eval_max_3(cs, sol.x, sol.y)
    ref = brute3d_box(cs)
    assert abs(sol.t - ref.t) <= tol * max(scale, abs(ref.t)), (sol, ref)


def grid_instances(count, seed, n_max=12, levels=2):
    """Small-integer planes: ties, duplicates and shared vertices abound."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        out.append([tuple(float(rng.randint(-levels, levels))
                          for _ in range(3)) for _ in range(n)])
    return out


class TestAgainstOracle:
    def test_gaussian_corpus(self):
        # 2010 instances, n = 1..134
        for i in range(2010):
            n = 1 + i % 134
            cs = gen3d(GenSpec(n=n, seed=20261018, dim=3), index=i)
            assert_answer(cs, solve3d(cs))

    def test_integer_grids(self):
        for cs in grid_instances(1500, seed=1):
            assert_answer(cs, solve3d(cs))

    def test_tie_rule_matches_oracle_on_grids(self):
        # the oracle picks the smallest (t, x, y) among its candidates
        for cs in grid_instances(1500, seed=2, n_max=10):
            got, want = solve3d(cs), brute3d_box(cs)
            assert abs(got.x - want.x) <= 1e-12, (cs, got, want)
            assert abs(got.y - want.y) <= 1e-12, (cs, got, want)


class TestAdversarialFamilies:
    def test_duplicate_planes(self):
        for cs in corpus3d(20, 40, seed=31):
            rows = [tuple(c) for c in cs]
            assert_answer(rows * 3, solve3d(rows * 3))
            sol = solve3d(rows + rows[::-1])
            assert close(sol.t, solve3d(rows).t, 1e-12)

    def test_planes_differing_only_in_c(self):
        rng = random.Random(32)
        for cs in corpus3d(6, 40, seed=32):
            rows = [(a, b, c + rng.uniform(-1, 1))
                    for a, b, c in cs for _ in range(4)]
            assert_answer(rows, solve3d(rows))

    def test_flat_rows(self):
        for cs in corpus3d(15, 40, seed=33):
            rows = [tuple(c) for c in cs] + [(0.0, 0.0, c[2]) for c in cs[:4]]
            assert_answer(rows, solve3d(rows))
        sol = solve3d([(0.0, 0.0, 2.0), (0.0, 0.0, -1.0)])
        assert (sol.x, sol.y, sol.t) == (0.0, 0.0, 2.0)

    @pytest.mark.parametrize("corner", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
                                        (1.0, 1.0)])
    def test_optimum_at_each_corner(self, corner):
        # both slopes point out of the box at that corner
        sa = 1.0 if corner[0] == 0.0 else -1.0
        sb = 1.0 if corner[1] == 0.0 else -1.0
        cs = [(sa * 2.0, sb * 3.0, 0.5), (sa * 0.5, sb * 1.0, 1.0)]
        sol = solve3d(cs)
        assert (sol.x, sol.y) == corner
        assert_answer(cs, sol)

    @pytest.mark.parametrize("edge", ["x=0", "x=1", "y=0", "y=1"])
    def test_optimum_on_each_edge(self, edge):
        # a V-shaped valley along the edge's free variable at 0.3, and a
        # slope pushing onto the edge
        v = [(1.0, -0.3), (-1.0, 0.3)]
        if edge.startswith("x"):
            push = 1.0 if edge == "x=0" else -1.0
            cs = [(push, s, o) for s, o in v]
            want = (0.0 if edge == "x=0" else 1.0, 0.3)
        else:
            push = 1.0 if edge == "y=0" else -1.0
            cs = [(s, push, o) for s, o in v]
            want = (0.3, 0.0 if edge == "y=0" else 1.0)
        sol = solve3d(cs)
        assert close(sol.x, want[0], 1e-15) and close(sol.y, want[1], 1e-15)
        assert_answer(cs, sol)
        best_edge = dict(boundary_via_2d(cs))[edge].t
        assert close(best_edge, sol.t, 1e-12)

    def test_optimum_in_the_interior(self):
        # a pyramid whose apex is at (0.25, 0.625)
        cs = [(1.0, 0.0, -0.25), (-1.0, 0.0, 0.25),
              (0.0, 1.0, -0.625), (0.0, -1.0, 0.625)]
        sol = solve3d(cs)
        assert (sol.t, sol.x) == (0.0, 0.25)
        assert 0.375 - 1e-15 <= sol.y <= 0.625 + 1e-15
        assert_answer(cs, sol)

    def test_signed_zeros(self):
        cases = [[(-0.0, -0.0, -0.0)], [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)],
                 [(1.0, -0.0, -0.0), (-1.0, 0.0, 0.0), (-0.0, 1.0, -0.0)]]
        for cs in cases:
            sol = solve3d(cs)
            assert math.copysign(1.0, sol.x) == 1.0
            assert math.copysign(1.0, sol.y) == 1.0
            assert math.copysign(1.0, sol.t) == 1.0
            assert_answer(cs, sol)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_magnitudes_near_1e150(self, scale):
        for cs in corpus3d(30, 30, seed=34):
            rows = [(a * scale, b * scale, c * scale) for a, b, c in cs]
            assert_answer(rows, solve3d(rows), scale=scale)

    @pytest.mark.parametrize("k", [1000, 600, -600, -1000])
    def test_power_of_two_scaling_is_exact(self, k):
        # beyond 1e+-150 the oracle's products overflow or underflow, but
        # scaling by a power of two must leave the optimal point unchanged
        f = math.ldexp(1.0, k)
        for cs in corpus3d(25, 20, seed=35):
            sol = solve3d(cs)
            big = solve3d([(a * f, b * f, c * f) for a, b, c in cs])
            assert (big.x, big.y) == (sol.x, sol.y)
            assert math.isfinite(big.t)

    def test_planes_through_one_point(self):
        for cs in corpus3d(40, 20, seed=36):
            rows = [(a, b, -(a * 0.25 + b * 0.75)) for a, b, _ in cs]
            sol = solve3d(rows)
            assert abs(sol.t) <= 1e-14
            assert_answer(rows, sol)


class TestContract:
    def test_single_flat_constraint_at_origin(self):
        sol = solve3d([(0, 0, 0)])
        assert (sol.x, sol.y, sol.t) == (0.0, 0.0, 0.0)

    def test_tie_rule_smallest_x_then_y(self):
        # t is constant on the segment x + y = 1: the smallest x wins
        sol = solve3d([(1, 1, -1), (-1, -1, 1)])
        assert (sol.x, sol.y, sol.t) == (0.0, 1.0, 0.0)
        # t is constant in y: the smallest y wins
        sol = solve3d([(1, 0, -0.5), (-1, 0, 0.5)])
        assert (sol.x, sol.y, sol.t) == (0.5, 0.0, 0.0)

    def test_int_rows_give_floats(self):
        sol = solve3d([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
        assert (sol.x, sol.y, sol.t) == (0.0, 0.0, 0.0)
        assert all(type(v) is float for v in (sol.x, sol.y, sol.t))

    def test_deterministic(self):
        for cs in corpus3d(80, 10, seed=37):
            assert solve3d(cs) == solve3d(list(cs))

    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_array_input(self, n):
        rows = gen3d(GenSpec(n=n, seed=38, dim=3))
        assert solve3d(np.array(rows)) == solve3d(rows)
        wide = np.hstack([np.array(rows), np.ones((n, 1))])
        assert solve3d(wide) == solve3d(rows)

    def test_narrow_array_rejected(self):
        with pytest.raises(ValueError):
            solve3d(np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_non_finite_names_constraint(self, bad, field):
        rows = [[1.0, 0.0, 0.0] if k % 2 else [-1.0, 0.5, 0.0]
                for k in range(6)]
        rows[3][field] = bad
        for cs in (rows, np.array(rows)):
            with pytest.raises(NonFiniteInput, match="constraint 3 "):
                solve3d(cs)

    def test_empty(self):
        with pytest.raises(EmptyProblem):
            solve3d([])
        with pytest.raises(EmptyProblem):
            solve3d(np.empty((0, 3)))

    def test_oracle_and_pruner_stay_off_the_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve3d must not call this")
        monkeypatch.setattr(prune3d, "brute3d_box", forbidden)
        monkeypatch.setattr(prune3d, "prune", forbidden)
        for cs in corpus3d(50, 5, seed=39):
            solve3d(cs)

    def test_memory_is_linear(self):
        cs = gen3d(GenSpec(n=3000, seed=40, dim=3))
        tracemalloc.start()
        try:
            solve3d(cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few lists of n floats; an n^3 grid would be 2e11 bytes
        assert peak < 4_000_000


class TestEmptySubproblem:
    """An interval on a line that comes out empty is accepted only when
    the miss is rounding."""

    def test_empty_by_more_than_rounding_raises(self):
        # line x = 0.5, earlier half-plane x <= 0.2
        us, vs, ws = [1.0, -1.0], [0.0, 0.0], [0.2, -0.5]
        with pytest.raises(ContractViolation, match="empty"):
            prune3d._solve_on_line(us, vs, ws, 1, 1.0, 1.0, 1.0)

    def test_empty_by_rounding_is_accepted(self):
        # line x = 0.5, earlier half-plane x <= 0.5 - 1 ulp
        below = math.nextafter(0.5, 0.0)
        us, vs, ws = [1.0, -1.0], [0.0, 0.0], [below, -0.5]
        x, y = prune3d._solve_on_line(us, vs, ws, 1, 1.0, 1.0, 1.0)
        assert below <= x <= 0.5 and y == 0.0


    def test_line_outside_the_box_by_rounding(self):
        # half-plane y >= 1 + 1 ulp misses the box by rounding; y >= 1.5
        # misses it by far
        above = math.nextafter(1.0, 2.0)
        x, y = prune3d._solve_on_line([0.0], [-1.0], [-above], 0,
                                      1.0, 1.0, 1.0)
        assert (x, y) == (0.0, 1.0)
        with pytest.raises(ContractViolation, match="empty"):
            prune3d._solve_on_line([0.0], [-1.0], [-1.5], 0, 1.0, 1.0, 1.0)


class TestLarge:
    def test_1e5_constraints(self):
        cs = gen3d(GenSpec(n=100_000, seed=41, dim=3))
        sol = solve3d(cs)
        assert 0.0 <= sol.x <= 1.0 and 0.0 <= sol.y <= 1.0
        arr = np.array(cs)
        assert sol.t == float(np.max(arr @ np.array([sol.x, sol.y, 1.0])))
        edge_best = min(s.t for _, s in boundary_via_2d(cs))
        tol = 1e-9 * max(1.0, abs(sol.t))
        assert edge_best >= sol.t - tol
        if sol.x in (0.0, 1.0) or sol.y in (0.0, 1.0):
            assert abs(edge_best - sol.t) <= tol
