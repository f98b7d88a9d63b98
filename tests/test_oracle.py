import random
import warnings

import numpy as np
import pytest

from conftest import brute_edge_min, close, corpus3d, eval_max_3
from minmaxlp import (EmptyProblem, NonFiniteInput, Status, brute2d,
                      brute3d_box, check2d, expand_absolute, solve, solve3d,
                      solve_boxed)


class TestBrute2d:
    def test_symmetric_v(self):
        sol = brute2d([(1, 0), (-1, 0)])
        assert sol.x == 0 and sol.t == 0

    def test_three_constraint_instance(self):
        sol = brute2d([(2, -1), (-1, 0), (0.5, 0)])
        assert sol.x == 0 and sol.t == 0

    def test_all_zero_slopes(self):
        sol = brute2d([(0, 5), (0, 3)])
        assert sol.x == 0 and sol.t == 5

    def test_unbounded(self):
        assert brute2d([(1, 0), (2, 3)]).status is Status.UNBOUNDED

    def test_empty(self):
        with pytest.raises(EmptyProblem):
            brute2d([])

    def test_no_warnings_near_double_range(self):
        # pairwise differences overflow, so those crossings are formed
        # exactly; nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = brute2d([(1e308, 1e308), (-1e308, -1e308), (1.0, 0.0)])
        assert (sol.x, sol.t) == (-1.0, 0.0)

    def test_crossings_whose_differences_overflow(self):
        # The CI's huge.txt residuals: a float crossing dy / inf is 0.0,
        # and the optimal one lies between two rows whose slopes differ by
        # more than the double range.
        r = random.Random(1)
        cs = expand_absolute([(r.uniform(-1, 1) * 1.7e308,
                               r.uniform(-1, 0) * 1.7e308)
                              for _ in range(200)])
        sol = brute2d(cs)
        want = solve(cs)
        assert (sol.x, sol.t) == (want.x, want.t)
        check2d(cs, sol)

    def test_far_rows_are_certified(self):
        # a * x overflows on rows near the double range, where a * x + b
        # does not; evaluated unscaled, those values lost their order and
        # 6 of these answers were not optimal (seed 1, n = 5: t =
        # 4.411e307 where solve finds 2.790e307).
        for seed in range(40):
            r = random.Random(seed)
            for n in (2, 5, 9, 10):
                cs = [(r.uniform(-1, 1) * 1.7e308,
                       r.uniform(-1, 1) * 1.7e308) for _ in range(n)]
                check2d(cs, brute2d(cs))

    def test_t_taken_on_the_unscaled_rows(self):
        # scaled by 2**-997, the 1e-300 intercept underflows to 0, so the
        # scaled values read t = 0, which no certificate holds
        cs = [(1e300, 0.0), (-1e300, 0.0), (0.0, 1e-300)]
        sol = brute2d(cs)
        assert (sol.x, sol.t) == (0.0, 1e-300)
        check2d(cs, sol)
        cs = [(1e308, 0.0), (-1e308, 0.0), (0.0, 1.2345678901234567)]
        assert brute2d(cs).t == 1.2345678901234567

    def test_optimum_outside_the_double_range(self):
        # the lines cross at x = 5e309, where t = 5e9: solve raises too
        with pytest.raises(NonFiniteInput, match="brute2d: the optimal x"):
            brute2d([(1e-300, 0.0), (-1e-300, 1e10)])

    def test_permutation_invariant(self):
        rng = random.Random(0)
        cs = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(12)]
        cs[0] = (-abs(cs[0][0]), cs[0][1])
        cs[1] = (abs(cs[1][0]), cs[1][1])
        base = brute2d(cs)
        for _ in range(10):
            rng.shuffle(cs)
            got = brute2d(cs)
            assert got.status is base.status
            assert close(got.t, base.t, 1e-12)


class TestBrute3dBox:
    def test_single_flat_constraint(self):
        sol = brute3d_box([(0, 0, 0)])
        assert sol.t == 0 and (sol.x, sol.y) == (0.0, 0.0)

    def test_cross_instance(self):
        sol = brute3d_box([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
        assert sol.t == 0 and (sol.x, sol.y) == (0.0, 0.0)

    def test_flat_valley_on_edge(self):
        sol = brute3d_box([(1, 1, -1), (-1, -1, 1)])
        assert sol.t == 0
        assert close(sol.x + sol.y, 1.0, 1e-12)

    def test_empty(self):
        with pytest.raises(EmptyProblem):
            brute3d_box([])

    def test_values_near_the_double_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the corner value -9e307 - 9e307 + 9e307 overflows in floats
            sol = brute3d_box([(-9e307, -9e307, 9e307)])
            assert (sol.x, sol.y, sol.t) == (1.0, 1.0, -9e307)
            # the minimum, at x = 1, lies below the double range
            for fn in (brute3d_box, solve3d):
                with pytest.raises(NonFiniteInput, match="double range"):
                    fn([(-1e308, 0.0, -1e308)])

    def test_duplication_invariant(self):
        for cs in corpus3d(9, 10, seed=5):
            base = brute3d_box(cs)
            for k in (0, 4, 8):
                dup = list(cs) + [cs[k]]
                assert close(brute3d_box(dup).t, base.t, 1e-12)

    def test_feasible_and_in_box(self):
        for cs in corpus3d(15, 20, seed=6):
            sol = brute3d_box(cs)
            assert 0.0 <= sol.x <= 1.0 and 0.0 <= sol.y <= 1.0
            got = eval_max_3(cs, sol.x, sol.y)
            assert close(got, sol.t, 1e-9)

    def test_grid_sanity(self):
        grid = np.linspace(0.0, 1.0, 101)
        gx, gy = np.meshgrid(grid, grid)
        for cs in corpus3d(12, 10, seed=7):
            a = np.array([c[0] for c in cs])
            b = np.array([c[1] for c in cs])
            c0 = np.array([c[2] for c in cs])
            vals = (gx[..., None] * a + gy[..., None] * b + c0).max(axis=-1)
            grid_min = float(vals.min())
            sol = brute3d_box(cs)
            lipschitz = max(abs(u) + abs(v) for u, v, _ in cs)
            assert sol.t <= grid_min + 1e-9
            assert sol.t >= grid_min - lipschitz * 0.01

    def test_edge_restriction_matches_solve_boxed(self):
        # ties the two oracles together through the induced 1D problems
        for cs in corpus3d(10, 15, seed=8):
            rows = [tuple(c) for c in cs]
            induced = {
                "x=0": [(b, c) for a, b, c in rows],
                "x=1": [(b, a + c) for a, b, c in rows],
                "y=0": [(a, c) for a, b, c in rows],
                "y=1": [(a, b + c) for a, b, c in rows],
            }
            for rows2 in induced.values():
                want = brute_edge_min(rows2)
                got = solve_boxed(rows2, 0.0, 1.0)
                assert close(got.t, want, 1e-9)
