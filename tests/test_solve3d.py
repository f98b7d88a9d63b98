"""The box solver: differential tests against the cubic oracle and the
full-order Seidel run, adversarial families, the working set's rounds, the
tie rule, input handling and a large smoke test."""

import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (close, corpus3d, eval_max_3, grid_instances,
                      objective_corpus)
from minmaxlp import (ContractViolation, EmptyProblem, GenSpec,
                      NonFiniteInput, boundary_via_2d, brute3d_box, check3d,
                      gen3d, prune3d, solve3d)
from minmaxlp import model
from minmaxlp.model import columns, objective


def assert_answer(cs, sol, tol=1e-9, scale=1.0):
    """In the box, t is the objective there, and t matches the oracle."""
    assert 0.0 <= sol.x <= 1.0 and 0.0 <= sol.y <= 1.0
    assert sol.t == eval_max_3(cs, sol.x, sol.y)
    ref = brute3d_box(cs)
    assert abs(sol.t - ref.t) <= tol * max(scale, abs(ref.t)), (sol, ref)


def full_order_answer(cs):
    """(x, y, t) of one Seidel run over every row in the insertion order,
    for coefficients that need no rescaling."""
    a, b, c = columns(cs, 3)
    scale = float(max(np.abs(a).max(), np.abs(b).max(), np.abs(c).max()))
    assert 2.0 ** -500 <= scale <= 2.0 ** 500
    order = prune3d._order(range(a.size))
    x, y, _ = prune3d._seidel(a[order].tolist(), b[order].tolist(),
                              c[order].tolist(), scale)
    return x, y, objective((a, b, c), x, y)


def probe_missing_instances(count, seed):
    """Problems whose optimal basis the probe grid misses.

    Four planes through (X, 0), sloping away from X along each axis, set
    the optimum t = 0 at X, a point at least 0.2 from the probe grid in
    each coordinate.  A steep plane through each probe point stands 10
    high there and about -18 or lower at X, so the probes pick only such
    planes.  Low Gaussian planes fill the rest.  The rows come shuffled,
    beside a mask of the steep ones.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        X = rng.choice([0.25, 0.75], 2) + rng.uniform(-0.05, 0.05, 2)
        s = rng.uniform(0.5, 2.0, 4)
        basis = [(s[0], 0.0, -s[0] * X[0]), (-s[1], 0.0, s[1] * X[0]),
                 (0.0, s[2], -s[2] * X[1]), (0.0, -s[3], s[3] * X[1])]
        spikes = []
        for x0, y0, _ in prune3d._PROBES:
            g = (X - (x0, y0)) / np.hypot(*(X - (x0, y0)))
            a, b = -100.0 * g
            spikes.append((a, b, 10.0 - a * x0 - b * y0))
        a, b = rng.normal(0.0, 3.0, (2, 20))
        low = np.stack((a, b, -(abs(a) + abs(b)) - rng.uniform(1.0, 5.0, 20)),
                       axis=1)
        rows = np.vstack((basis, spikes, low))
        steep = np.repeat([False, True, False],
                          [len(basis), len(spikes), len(low)])
        perm = rng.permutation(len(rows))
        out.append((rows[perm], steep[perm]))
    return out


@pytest.fixture
def rounds(monkeypatch):
    """The number of Seidel runs each solve3d call made, one entry per
    call, with the base loop wrapped."""
    counts = []
    seidel, box_point = prune3d._seidel, prune3d._box_point

    def counting_seidel(*args):
        counts[-1] += 1
        return seidel(*args)

    def counting_box_point(*args):
        counts.append(0)
        return box_point(*args)

    monkeypatch.setattr(prune3d, "_seidel", counting_seidel)
    monkeypatch.setattr(prune3d, "_box_point", counting_box_point)
    return counts


@pytest.fixture
def at_most_four_rounds(rounds):
    """Every solve3d call of the test takes at most four rounds."""
    yield
    assert rounds and max(rounds) <= 4, rounds


class TestAgainstOracle:
    def test_gaussian_corpus(self):
        # 2010 instances, n = 1..134
        for i in range(2010):
            n = 1 + i % 134
            cs = gen3d(GenSpec(n=n, seed=20261018, dim=3), index=i)
            assert_answer(cs, solve3d(cs))

    def test_gaussian_corpus_matches_full_order_run(self):
        # the working set leaves every answer of this corpus bitwise that
        # of a single run over all rows
        for i in range(2010):
            n = 1 + i % 134
            cs = gen3d(GenSpec(n=n, seed=20261018, dim=3), index=i)
            sol = solve3d(cs)
            assert (sol.x, sol.y, sol.t) == full_order_answer(cs), i

    @pytest.mark.usefixtures("at_most_four_rounds")
    def test_integer_grids(self):
        for cs in grid_instances(1500, seed=1):
            assert_answer(cs, solve3d(cs))

    @pytest.mark.usefixtures("at_most_four_rounds")
    def test_tie_rule_matches_oracle_on_grids(self):
        # the oracle picks the smallest (t, x, y) among its candidates
        for cs in grid_instances(1500, seed=2, n_max=10):
            got, want = solve3d(cs), brute3d_box(cs)
            assert abs(got.x - want.x) <= 1e-12, (cs, got, want)
            assert abs(got.y - want.y) <= 1e-12, (cs, got, want)


@pytest.mark.usefixtures("at_most_four_rounds")
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


class TestWorkingSet:
    def test_probes_missing_the_basis_take_more_rounds(self, rounds):
        for rows, steep in probe_missing_instances(60, seed=42):
            _, seed = prune3d._scale_and_probes(columns(rows, 3))
            assert seed and steep[list(seed)].all()
            sol = solve3d(rows)
            assert 2 <= rounds[-1] <= 4, rounds
            assert_answer(rows, sol)
            check3d(rows, sol)

    @pytest.mark.parametrize("block", [5, 7, 1 << 13])
    def test_probe_rows_are_the_grid_maximisers(self, block, monkeypatch):
        monkeypatch.setattr(model, "_BLOCK", block)
        for n in (1, 5, 6, 40, 134):
            for cs in corpus3d(n, 5, seed=43) + grid_instances(5, 44, n, 1):
                a, b, c = cols = columns(cs, 3)
                want = {int(np.argmax((a * x + b * y) + c))
                        for x, y, _ in prune3d._PROBES}
                scale, probes = prune3d._scale_and_probes(cols)
                assert probes == want
                assert scale == np.abs([a, b, c]).max()

    def test_probe_values_are_the_evaluators(self):
        # _scale_and_probes' einsum forms a block's values at the probes
        # as _evaluate does, (a*x + b*y) + c, for blocks of two or more
        # rows, also where the rows nearly cancel; a one-row block sums
        # (a*x + c) + b*y instead
        rng = np.random.default_rng(46)
        for n in (2, 3, 5, 8, 17, 134, 1000):
            for _ in range(20):
                a, b = rng.uniform(-1.0, 1.0, (2, n))
                x, y = rng.uniform(0.0, 1.0, 2)
                c = rng.normal(0.0, 1e-12, n) - (a * x + b * y)
                v = np.einsum("pk,kn->pn", prune3d._PROBES,
                              np.array((a, b, c)))
                for got, (px, py, _) in zip(v, prune3d._PROBES):
                    want = model._evaluate((a, b, c), (px, py))
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [5, 7, 1 << 13])
    def test_t_is_the_objective(self, block, monkeypatch):
        # the last violation pass's running maximum is objective's t bit
        # for bit, also across block edges; rescaled problems (2^+-600,
        # 2^+-1000) take t from objective itself
        monkeypatch.setattr(model, "_BLOCK", block)
        for cs in objective_corpus():
            sol = solve3d(cs)
            want = objective(columns(cs, 3), sol.x, sol.y)
            assert sol.t == want and (math.copysign(1.0, sol.t)
                                      == math.copysign(1.0, want)), cs

    def test_violated_rows_are_those_seidel_rejects(self, monkeypatch):
        # rows within a few ulps of the plane through (x, y, t), most of
        # them left undecided by the float bound, but for runs of ten
        # rows far below it, which fill whole blocks of 5 rows
        rng = np.random.default_rng(45)
        for _ in range(40):
            x, y = rng.uniform(0.0, 1.0, 2).tolist()
            a, b = rng.normal(0.0, 3.0, (2, 200))
            c = 2.0 - a * x - b * y
            c += rng.integers(-4, 5, 200) * np.spacing(c)
            c[np.arange(200) // 10 % 2 == 1] -= 1.0
            t, scale = 2.0, float(np.abs([a, b, c]).max())
            err = 2.0 * model._EVAL_ERR * (3.0 * scale + abs(t))
            want = [i for i, (ai, bi, ci) in
                    enumerate(zip(a.tolist(), b.tolist(), c.tolist()))
                    if not ((d := ai * x + bi * y + ci - t) < -err or
                            (d <= err and
                             not prune3d._exceeds(ai, bi, ci, x, y, t)))]
            for block in (5, 7, 1 << 13):
                monkeypatch.setattr(model, "_BLOCK", block)
                got, top = prune3d._violated(np.array((a, b, c)), x, y, t,
                                             scale)
                assert got == want and 0 < len(want) < 100
                assert top == objective((a, b, c), x, y)
        # at x = fl(1/3), -3x + 2 rounds to 1 but exceeds it, and 3x rounds
        # to 1 but falls short of it
        a, b, c = np.array([3.0, -3.0]), np.zeros(2), np.array([0.0, 2.0])
        assert prune3d._violated(np.array((a, b, c)), 1 / 3, 0.0, 1.0,
                                 3.0)[0] == [1]

    def test_a_violated_row_of_the_working_set_raises(self, monkeypatch):
        # the rounds end because no row of W is ever found violated; one
        # that were would stop them rather than repeat a round
        monkeypatch.setattr(prune3d, "_violated",
                            lambda a, *rest: (list(range(a.size)), 0.0))
        with pytest.raises(ContractViolation, match="working set"):
            solve3d(corpus3d(10, 1, seed=46)[0])

    def test_no_probe_matrix(self):
        # every pass reads the rows in blocks, so the scratch is a few
        # blocks whatever the rows: a column of n values alone would be
        # 8 MB at 1e6, and the values at all nine probe points 72 MB
        for n in (100_000, 1_000_000):
            cs = gen3d(GenSpec(n=n, seed=40, dim=3))
            tracemalloc.start()
            try:
                solve3d(cs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 << 20, (n, peak)

    def test_same_answers_under_threads(self):
        # the order is a function of the row indices alone, so threads
        # switching every microsecond share no state that could move it.
        # Planes through one point: their answers move with the order.
        rng = np.random.default_rng(47)
        corpus = []
        for n in (7, 30, 300):
            for _ in range(8):
                a, b = rng.normal(0.0, 3.0, (2, n))
                corpus.append(np.stack((a, b, 1.0 - a * 0.17925800707829326
                                        - b * 0.5062426186871909), axis=1))
        want = [solve3d(cs) for cs in corpus]

        def wrong(k):
            picks = [(i + 7 * k) % len(corpus)
                     for i in range(30 * len(corpus))]
            return [j for j in picks if solve3d(corpus[j]) != want[j]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                # result() raises what a thread raised
                runs = [f.result(timeout=120)
                        for f in [pool.submit(wrong, k) for k in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        assert runs == [[]] * 4


class TestOrder:
    """The insertion order: a fixed hash of the row indices."""

    def test_is_a_permutation(self):
        rng = np.random.default_rng(48)
        for n in (0, 1, 2, 9, 1000):
            w = rng.choice(10 ** 7, n, replace=False).tolist()
            assert sorted(prune3d._order(w)) == sorted(w)

    def test_is_the_all_rows_order_restricted(self):
        # so the last round of the working set is one Seidel run over all
        # rows in this order
        n = 3000
        full = prune3d._order(range(n))
        rng = np.random.default_rng(49)
        for size in (1, 3, 10, 30, 300, n):
            w = rng.choice(n, size, replace=False).tolist()
            member = set(w)
            assert prune3d._order(w) == [i for i in full if i in member]

    def test_looks_random(self):
        # Spearman's rank correlation of position and index: the position
        # is a rank and the index its own rank
        n = 10_000
        pos = np.empty(n)
        pos[prune3d._order(range(n))] = np.arange(n)
        rho = np.corrcoef(np.arange(n), pos)[0, 1]
        assert abs(rho) < 0.05

    def test_known_values(self):
        # splitmix64's output for state 0, whose first step adds the golden
        # gamma before the finalizer
        assert prune3d._key(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
        assert prune3d._key(0) == 0


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
        check3d(wide, solve3d(wide))

    def test_checked_near_the_double_range(self):
        # the objective at the optimum (1, 1) overflows in floats, and the
        # exact value is -9e307
        cs = [(-9e307, -9e307, 9e307)]
        sol = solve3d(cs)
        assert (sol.x, sol.y, sol.t) == (1.0, 1.0, -9e307)
        check3d(cs, sol)

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
