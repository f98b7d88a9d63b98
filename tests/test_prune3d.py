import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import EDGE_VALUES, close, corpus3d, prune_oracle
from minmaxlp import (Constraint3, EmptyProblem, GenSpec, NonFiniteInput,
                      boundary_via_2d, brute3d_box, check3d, gen3d, prune,
                      solve3d)


def constraints_for_duals(duals):
    """Constraints whose dual points are exactly the given triples."""
    return [Constraint3(x, y, -z) for x, y, z in duals]


def pruned(*duals):
    """prune's report on the constraints with the given dual points."""
    return prune(constraints_for_duals(duals))


def is_too_steep(p, q):
    """Whether prune drops dual point p against the anchor q, whose z is
    lower, as too steep."""
    report = pruned(q, p)
    assert report.pmin_index == 0 and report.discarded_behind == 0
    return report.discarded_steep == 1


class TestFindPmin:
    """prune's anchor: a dual point of minimal z, ties going to the
    smallest x, then the smallest y, then the first index."""

    def test_picks_min_z(self):
        assert pruned((0, 0, 1), (0.5, 0.5, 0)).pmin_index == 1

    def test_tie_breaks_on_x_then_y(self):
        assert pruned((1, 1, 0), (2, 2, 0)).pmin_index == 0
        assert pruned((1, 5, 0), (1, 2, 0)).pmin_index == 1
        assert pruned((1, 2, 0), (1, 2, 0)).pmin_index == 0
        assert pruned((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)).pmin_index == 0

    def test_singleton(self):
        report = pruned((0, 0, -3))
        assert report.pmin_index == 0 and report.kept_indices == (0,)

    def test_empty(self):
        with pytest.raises(EmptyProblem):
            prune(np.empty((0, 3)))


class TestDiscardPredicates:
    def test_behind_examples(self):
        assert pruned((0.5, 0.5, 0), (0, 0, 1)).discarded_behind == 1
        assert pruned((0.5, 0.5, 0), (0.5, 0, 1)).kept_indices == (0, 1)
        # the lower point is the anchor, and the higher one is not behind it
        report = pruned((1, 1, 1), (0, 0, 0))
        assert report.pmin_index == 1 and report.kept_indices == (0, 1)

    def test_too_steep_examples(self):
        assert is_too_steep((1, 1, 3), (0, 0, 0))
        assert not is_too_steep((2, 1, 1.5), (0, 0, 0))
        assert not is_too_steep((1, 1, 1), (1, 1, 0))

    def test_rise_must_beat_combined_run(self):
        # steep in each coordinate alone is not enough: such points can
        # still carry faces with both slopes inside the unit box
        assert not is_too_steep((1, 1, 1.5), (0, 0, 0))
        assert is_too_steep((1, 1, 2.5), (0, 0, 0))

    def test_rise_equal_to_combined_run_is_kept(self):
        # strict definitions: equality keeps the point
        assert not is_too_steep((1, 1, 2), (0, 0, 0))
        assert not is_too_steep((2, 1, 2), (1, 0, 0))

    def test_one_ulp_above_combined_run_is_discarded(self):
        z = math.nextafter(2.0, 3.0)
        assert is_too_steep((1, 1, z), (0, 0, 0))

    def test_huge_coordinates_fall_back_gracefully(self):
        assert is_too_steep((1e301, 1e301, 3e301), (0, 0, 0))
        assert not is_too_steep((1e301, 1e301, 2e301), (0, 0, 0))
        # differences that overflow are compared exactly
        big = 1.7976931348623157e308
        assert is_too_steep((1, 1, big), (0, 0, -big))
        assert not is_too_steep((big, big, 1e308), (-big, -big, 0))

    def test_slope_comparison_is_exact(self):
        # stress with values whose differences round away the decision
        cases = [
            ((0.1 + (1.1 - 1.0), 0.2, 0.3 + (1.1 - 1.0)), (0.1, 0.1, 0.3)),
            ((1e16 + 2, 1e16 + 2, 2e16 + 3), (1e16, 1e16, 2e16)),
            ((0.3, 0.3, 0.6), (0.1, 0.1, 0.4)),
            ((1.0, 1.0, math.nextafter(2.0, 3.0)), (0, 0, 0)),
        ]
        for p, q in cases:
            F = Fraction
            truth = F(p[2]) - F(q[2]) > (F(p[0]) - F(q[0])) + \
                (F(p[1]) - F(q[1]))
            bigger = p[0] > q[0] and p[1] > q[1] and p[2] > q[2]
            assert is_too_steep(p, q) == (bigger and truth)


def _c6_corpus(rng):
    """The instances of acceptance criterion C6."""
    return [gen3d(GenSpec(n=4 + (i % 57), seed=20260600, dim=3), index=i)
            for i in range(500)]


def _tie_grids(rng):
    """Half-integer coefficients: duplicate points, equal z and exact
    rise-equals-run ties."""
    return [[tuple(rng.randint(-4, 4) / 2 for _ in range(3))
             for _ in range(rng.randint(1, 40))] for _ in range(300)]


def _edge_mixes(rng):
    """Zeros of both signs, subnormals and coordinates near +-1e308."""
    return [[tuple(rng.choice(EDGE_VALUES) for _ in range(3))
             for _ in range(rng.randint(1, 30))] for _ in range(300)]


def _steep_ties(rng):
    """Points whose rise above one anchor is within a few ulps of their
    combined run, at scales from 2^-1072 to 1e300."""
    anchors = (0.0, -0.0, 0.1, -3.0, 1e16, 1e-300, 5e-324, 1e300)
    runs = (1.0, 0.1, 0.2, 0.3, 0.7, 1e16, 1e-300, 2.0 ** -1072, 1e300)
    problems = []
    for _ in range(300):
        ax, ay, az = (rng.choice(anchors) for _ in range(3))
        rows = [(ax, ay, -az)]
        for _ in range(rng.randint(1, 30)):
            x = ax + rng.choice(runs + (rng.random(),))
            y = ay + rng.choice(runs + (rng.random(),))
            z = az + ((x - ax) + (y - ay))
            for _ in range(rng.randint(0, 3)):
                z = math.nextafter(z, rng.choice((-math.inf, math.inf)))
            if all(map(math.isfinite, (x, y, z))):
                rows.append((x, y, -z))
        rng.shuffle(rows)
        problems.append(rows)
    return problems


class TestAgainstRationalRule:
    @pytest.mark.parametrize("family", [_c6_corpus, _tie_grids, _edge_mixes,
                                        _steep_ties],
                             ids=lambda f: f.__name__.strip("_"))
    def test_report_matches_fraction_reference(self, family):
        for rows in family(random.Random(2026)):
            report = prune(rows)
            kept, behind, steep, anchor = prune_oracle(rows)
            assert (report.kept_indices, report.discarded_behind,
                    report.discarded_steep, report.pmin_index) == \
                (kept, behind, steep, anchor), rows
            assert report.kept == [rows[i] for i in kept]


class TestPrune:
    def test_discards_behind(self):
        cs = constraints_for_duals([(0.5, 0.5, 0), (0, 0, 1)])
        report = prune(cs)
        assert report.kept_indices == (0,)
        assert report.discarded_behind == 1 and report.discarded_steep == 0

    def test_discards_too_steep(self):
        cs = constraints_for_duals([(0, 0, 0), (1, 1, 3)])
        report = prune(cs)
        assert report.kept_indices == (0,)
        assert report.discarded_steep == 1 and report.discarded_behind == 0

    def test_keeps_moderate_slopes(self):
        cs = constraints_for_duals([(0, 0, 0), (0.5, 0.5, 0.25)])
        report = prune(cs)
        assert report.kept_indices == (0, 1)

    def test_anchor_always_kept(self):
        for cs in corpus3d(25, 30, seed=11):
            report = prune(cs)
            assert report.pmin_index in report.kept_indices

    def test_idempotent(self):
        for cs in corpus3d(30, 30, seed=13):
            first = prune(cs)
            second = prune(first.kept)
            assert second.kept == first.kept
            assert second.discarded_behind == 0
            assert second.discarded_steep == 0

    def test_counts_add_up(self):
        for cs in corpus3d(40, 10, seed=14):
            r = prune(cs)
            assert len(r.kept) + r.discarded_behind + r.discarded_steep == len(cs)

    def test_empty(self):
        with pytest.raises(EmptyProblem):
            prune([])

    @pytest.mark.parametrize("as_array", [False, True])
    def test_reads_rows_and_arrays_alike(self, as_array):
        rows = [list(c) for c in gen3d(GenSpec(n=40, seed=15, dim=3))]
        read = np.array if as_array else list
        report = prune(read(rows))
        assert report == prune([tuple(r) for r in rows])
        assert all(type(c) is Constraint3 for c in report.kept)
        with pytest.raises(ValueError):
            prune(read([r[:2] for r in rows]))
        rows[7][1] = math.nan
        with pytest.raises(NonFiniteInput, match="constraint 7 "):
            prune(read(rows))

    def test_soundness_small_corpus(self):
        for cs in corpus3d(12, 25, seed=15):
            full = brute3d_box(cs)
            kept = brute3d_box(prune(cs).kept)
            assert close(kept.t, full.t, 1e-9)

    def test_each_single_discard_is_safe(self):
        # removing any one flagged point alone must preserve the optimum
        checked = 0
        for cs in corpus3d(10, 20, seed=16):
            report = prune(cs)
            dropped = set(range(len(cs))) - set(report.kept_indices)
            full = brute3d_box(cs)
            for i in dropped:
                rest = [c for k, c in enumerate(cs) if k != i]
                assert close(brute3d_box(rest).t, full.t, 1e-9)
                checked += 1
        assert checked > 0

    def test_coordinatewise_steep_point_is_kept(self):
        # regression witness: this dual rises faster than 1 in x and in y
        # but not faster than the combined run; discarding it would lower
        # the boxed optimum of the remaining problem by ~0.33
        cs = [Constraint3(-0.5604216831908005, -1.7010945202788417,
                          0.08200204133715511),
              Constraint3(-1.2702983316042409, -2.997364334029148,
                          1.754912736840812),
              Constraint3(3.9061954611907246, -5.370930676156333,
                          -1.7672705067181307)]
        report = prune(cs)
        assert report.kept_indices == (0, 1, 2)
        full = brute3d_box(cs)
        without_first = brute3d_box(cs[1:])
        assert without_first.t < full.t - 0.1
        assert close(solve3d(cs).t, full.t, 1e-9)


class TestSolve3d:
    def test_single_flat_constraint(self):
        sol = solve3d([(0, 0, 0)])
        assert sol.t == 0 and (sol.x, sol.y) == (0.0, 0.0)

    def test_cross_instance(self):
        sol = solve3d([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
        assert sol.t == 0 and (sol.x, sol.y) == (0.0, 0.0)

    def test_matches_unpruned_oracle(self):
        for cs in corpus3d(20, 15, seed=17):
            assert close(solve3d(cs).t, brute3d_box(cs).t, 1e-9)

    def test_validate_mode(self):
        for cs in corpus3d(15, 10, seed=18):
            check3d(cs, solve3d(cs))  # must not raise

    def test_empty(self):
        with pytest.raises(EmptyProblem):
            solve3d([])


class TestBoundaryVia2d:
    def test_single_plane_x0(self):
        results = dict(boundary_via_2d([(1, 1, 0)]))
        assert results["x=0"].x == 0 and results["x=0"].t == 0

    def test_single_plane_x1(self):
        results = dict(boundary_via_2d([(1, 1, 0)]))
        assert results["x=1"].x == 0 and results["x=1"].t == 1

    def test_cross_instance_edge(self):
        results = dict(boundary_via_2d(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]))
        assert results["x=0"].t == 0 and results["x=0"].x == 0

    def test_returns_all_four_edges(self):
        results = boundary_via_2d([(1, 2, 3), (-1, 0, 1)])
        assert [e for e, _ in results] == ["x=0", "x=1", "y=0", "y=1"]

    def test_edge_values_bound_the_optimum(self):
        for cs in corpus3d(12, 15, seed=19):
            t = solve3d(cs).t
            for _, sol in boundary_via_2d(cs):
                assert sol.t >= t - 1e-9 * max(1.0, abs(t))

    def test_empty(self):
        with pytest.raises(EmptyProblem):
            boundary_via_2d([])
