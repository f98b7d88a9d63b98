"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest

from conftest import (brute_edge_min, close, exact_intercept,
                      orient_oracle, product_compare_oracle)
from minmaxlp import (GenSpec, Point2, Point3, Sign, Status, brute2d,
                      brute3d_box, check2d, dual_of_line,
                      dual_of_plane, dual_of_point, dual_of_point2,
                      exact_product_compare, gen2d, gen3d, lower_hull,
                      orientation_exact, prune, run_scaling, solve,
                      solve_baseline, to_dual_points)
from minmaxlp.cli import _format_constraints
from minmaxlp.geometry import Line2, Plane3


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {label}: PASS", flush=True)


def _witness_check(cs, sol):
    """Criterion 4 bookkeeping for one solved instance."""
    assert sol.iterations <= len(cs), \
        f"pivot count {sol.iterations} exceeds n={len(cs)}"
    cuts = [exact_intercept(p) for p in sol.pivot_pairs]
    assert all(a > b for a, b in zip(cuts, cuts[1:])), \
        "pivot-line intercepts are not strictly decreasing"
    return len(cuts)


@pytest.fixture(scope="module")
def c1_data():
    sizes = (2, 3, 5, 10, 50, 200)
    per_size = 1000
    stats = {"checked": 0, "unbounded": 0, "multi_pivot": 0, "max_pivots": 0}
    t0 = perf_counter()
    for n in sizes:
        spec = GenSpec(n=n, seed=20260100 + n)
        for k in range(per_size):
            cs = gen2d(spec, index=k)
            got = solve(cs)
            ref = brute2d(cs)
            assert got.status is ref.status, (n, k)
            if ref.status is Status.OPTIMAL:
                assert close(got.t, ref.t, 1e-9), \
                    f"n={n} k={k}: solver t={got.t} oracle t={ref.t}"
            else:
                stats["unbounded"] += 1
            if got.status is Status.OPTIMAL:
                stats["multi_pivot"] += _witness_check(cs, got) > 1
                stats["max_pivots"] = max(stats["max_pivots"],
                                          got.iterations)
            stats["checked"] += 1
    stats["elapsed"] = perf_counter() - t0
    return stats


@pytest.fixture(scope="module")
def c2_data():
    plan = ((1000, 100), (10_000, 100), (100_000, 20), (1_000_000, 5))
    stats = {"checked": 0, "multi_pivot": 0, "max_pivots": 0}
    t0 = perf_counter()
    for n, count in plan:
        spec = GenSpec(n=n, seed=20260200 + n)
        for k in range(count):
            cs = gen2d(spec, index=k)
            got = solve(cs)
            ref = solve_baseline(cs)
            assert got.status is Status.OPTIMAL
            assert ref.status is Status.OPTIMAL
            assert close(got.t, ref.t, 1e-12), \
                f"n={n} k={k}: solver t={got.t} baseline t={ref.t}"
            check2d(cs, got)
            check2d(cs, ref)
            stats["multi_pivot"] += _witness_check(cs, got) > 1
            stats["max_pivots"] = max(stats["max_pivots"], got.iterations)
            stats["checked"] += 1
    stats["elapsed"] = perf_counter() - t0
    return stats


def test_c1_oracle_equivalence_2d(c1_data):
    with criterion("C1 (2D oracle equivalence, 6000 instances)"):
        assert c1_data["checked"] == 6000
        assert c1_data["elapsed"] < 30.0, \
            f"criterion 1 took {c1_data['elapsed']:.1f}s (budget 30s)"
        print(f"  [{c1_data['elapsed']:.1f}s, "
              f"{c1_data['unbounded']} unbounded instances]", flush=True)


def test_c2_baseline_equivalence_at_scale(c2_data):
    with criterion("C2 (baseline equivalence, n up to 1e6)"):
        assert c2_data["checked"] == 225
        assert c2_data["elapsed"] < 120.0, \
            f"criterion 2 took {c2_data['elapsed']:.1f}s (budget 120s)"
        print(f"  [{c2_data['elapsed']:.1f}s]", flush=True)


def test_c3_predicate_exactness():
    with criterion("C3 (exact predicates vs rational oracle)"):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([911, 0], dtype=np.uint64)))

        def random_values(count):
            mant = rng.uniform(-1.0, 1.0, count)
            expo = rng.integers(-40, 41, count)
            return np.ldexp(mant, expo)

        mismatches = 0

        # 10^6 random triples for the orientation predicate
        coords = random_values(6 * 1_000_000).reshape(-1, 6).tolist()
        for ax, ay, bx, by, cx, cy in coords:
            p0, p1, p2 = Point2(ax, ay), Point2(bx, by), Point2(cx, cy)
            if int(orientation_exact(p0, p1, p2)) != orient_oracle(p0, p1, p2):
                mismatches += 1
        assert mismatches == 0, f"{mismatches} orientation mismatches"

        # 10^6 random quadruples for the product comparison
        quads = random_values(4 * 1_000_000).reshape(-1, 4).tolist()
        for u1, v1, u2, v2 in quads:
            if int(exact_product_compare(u1, v1, u2, v2)) != \
                    product_compare_oracle(u1, v1, u2, v2):
                mismatches += 1
        assert mismatches == 0, f"{mismatches} product-compare mismatches"

        # 10^4 constructed near-collinear triples: dyadic coordinates make
        # the base points exactly collinear, then one coordinate of the far
        # point is nudged by at most one ulp
        base = (rng.integers(-2 ** 20, 2 ** 20, (10_000, 4)) / 1024.0).tolist()
        scale = rng.integers(1, 9, (10_000, 2)).tolist()
        nudge = rng.integers(-1, 2, (10_000, 2)).tolist()
        zeros = 0
        for (px, py, dx, dy), (s, r), (n1, n2) in zip(base, scale, nudge):
            p0 = Point2(px, py)
            p1 = Point2(px + s * dx, py + s * dy)
            p2x = px + r * dx
            p2y = py + r * dy
            for _ in range(abs(n1)):
                p2x = math.nextafter(p2x, math.inf if n1 > 0 else -math.inf)
            for _ in range(abs(n2)):
                p2y = math.nextafter(p2y, math.inf if n2 > 0 else -math.inf)
            p2 = Point2(p2x, p2y)
            got = int(orientation_exact(p0, p1, p2))
            if got != orient_oracle(p0, p1, p2):
                mismatches += 1
            zeros += got == 0
        assert mismatches == 0, f"{mismatches} near-collinear mismatches"
        assert zeros > 100  # the construction must actually hit degeneracy

        # 10^4 constructed near-tie quadruples
        pairs = rng.uniform(-10.0, 10.0, (10_000, 2)).tolist()
        nudges = rng.integers(-1, 2, 10_000).tolist()
        for (x, y), k in zip(pairs, nudges):
            u2 = x
            for _ in range(abs(k)):
                u2 = math.nextafter(u2, math.inf if k > 0 else -math.inf)
            if int(exact_product_compare(x, y, u2, y)) != \
                    product_compare_oracle(x, y, u2, y):
                mismatches += 1
        assert mismatches == 0, f"{mismatches} near-tie mismatches"


def test_c4_termination_witness(c1_data, c2_data):
    with criterion("C4 (termination witness on criteria 1-2 corpora)"):
        # the per-instance checks ran inside the corpus fixtures; this
        # asserts they covered real multi-pivot runs
        assert c1_data["checked"] == 6000 and c2_data["checked"] == 225
        assert c1_data["multi_pivot"] + c2_data["multi_pivot"] > 0
        print(f"  [max pivots seen: "
              f"{max(c1_data['max_pivots'], c2_data['max_pivots'])}]",
              flush=True)


def test_c5_scaling_slope():
    with criterion("C5 (log-log scaling slope in [0.8, 1.25])"):
        from minmaxlp import fit_loglog_slope
        sizes = [1000, 10_000, 100_000, 1_000_000]
        results = run_scaling("hough2d", sizes, batch=2000, seed=77)
        slope = fit_loglog_slope(results)
        for r in results:
            print(f"  n={r.n:>8} batch={r.batch:>5} "
                  f"mean={r.mean_s * 1e3:9.3f} ms "
                  f"pivots={r.mean_iterations:.1f}", flush=True)
        print(f"  [slope: {slope:.3f}]", flush=True)
        # reported, not asserted: in-repo baseline-vs-pivot time ratio
        base = run_scaling("baseline_hull", sizes, batch=200, seed=77)
        for r, b in zip(results, base):
            print(f"  n={r.n:>8} baseline/hough time ratio: "
                  f"{b.mean_s / r.mean_s:.2f}", flush=True)
        assert 0.8 <= slope <= 1.25, f"slope {slope:.3f} outside [0.8, 1.25]"


def test_c6_pruning_soundness():
    with criterion("C6 (pruning soundness, 500 instances)"):
        t0 = perf_counter()
        discarded = kept_total = 0
        for i in range(500):
            n = 4 + (i % 57)
            cs = gen3d(GenSpec(n=n, seed=20260600, dim=3), index=i)
            report = prune(cs)
            assert report.pmin_index in report.kept_indices, i
            again = prune(report.kept)
            assert again.kept == report.kept, i
            assert again.discarded_behind == 0 and again.discarded_steep == 0
            full = brute3d_box(cs)
            reduced = brute3d_box(report.kept)
            assert close(reduced.t, full.t, 1e-9), \
                f"instance {i} (n={n}): pruned t={reduced.t} full t={full.t}"
            discarded += len(cs) - len(report.kept)
            kept_total += len(cs)
        elapsed = perf_counter() - t0
        assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"
        print(f"  [{elapsed:.1f}s, discard fraction "
              f"{discarded / kept_total:.2f}]", flush=True)


def test_c7_duality_property_suite():
    with criterion("C7 (duality properties on 200 instances)"):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([707, 0], dtype=np.uint64)))
        # involution on random planes, points and lines
        for a, b, c in rng.uniform(-50, 50, (500, 3)).tolist():
            plane = Plane3(a, b, c)
            assert dual_of_point(dual_of_plane(plane)) == plane
            point = Point3(a, b, c)
            assert dual_of_plane(dual_of_point(point)) == point
            p2 = Point2(a, b)
            assert dual_of_line(dual_of_point2(p2)) == p2
            line = Line2(a, b)
            assert dual_of_point2(dual_of_line(line)) == line
        # above/below reversal with a safe margin
        for a, b, c, px, py, m in rng.uniform(-20, 20, (500, 6)).tolist():
            plane = Plane3(a, b, c)
            margin = 1e-9 + abs(m)
            for sgn in (1.0, -1.0):
                pz = plane.value(px, py) + sgn * margin
                point = Point3(px, py, pz)
                lhs = dual_of_point(point).value(a, b)
                rhs = dual_of_plane(plane).z
                assert (lhs < rhs) if sgn > 0 else (lhs > rhs)
        # every lower-hull edge supports the whole dual set, exactly
        for k in range(200):
            cs = gen2d(GenSpec(n=40, seed=20260700), index=k)
            dp = to_dual_points(cs)
            chain = lower_hull(dp)
            for u, v in zip(chain, chain[1:]):
                for r in dp:
                    assert orientation_exact(u, v, r) is not Sign.NEGATIVE
            # the crossing edge's dual point lies on the upper envelope:
            # its objective value equals the envelope maximum at its x
            sol = solve_baseline(cs)
            g_at = max(c[0] * sol.x + c[1] for c in cs)
            assert close(g_at, sol.t, 1e-9)


def test_c8_boundary_reduction_consistency():
    with criterion("C8 (boundary reduction on 200 instances)"):
        from minmaxlp import boundary_via_2d
        for k in range(200):
            n = 3 + (k % 38)
            cs = gen3d(GenSpec(n=n, seed=20260800, dim=3), index=k)
            rows = [tuple(c) for c in cs]
            induced = {
                "x=0": [(b, c) for a, b, c in rows],
                "x=1": [(b, a + c) for a, b, c in rows],
                "y=0": [(a, c) for a, b, c in rows],
                "y=1": [(a, b + c) for a, b, c in rows],
            }
            for edge, sol in boundary_via_2d(cs):
                want = brute_edge_min(induced[edge])
                assert close(sol.t, want, 1e-9), (k, edge, sol.t, want)


def test_c9_determinism(tmp_path):
    with criterion("C9 (byte-identical corpora, identical outputs)"):
        spec2 = GenSpec(n=50, seed=5)
        spec3 = GenSpec(n=20, seed=5, dim=3)
        corpus_a = "".join(_format_constraints(gen2d(spec2, index=k))
                           for k in range(20))
        corpus_b = "".join(_format_constraints(gen2d(spec2, index=k))
                           for k in range(20))
        assert corpus_a.encode() == corpus_b.encode()
        assert gen3d(spec3) == gen3d(spec3)

        def outputs():
            out = []
            for k in range(30):
                cs = gen2d(GenSpec(n=30, seed=99), index=k)
                s = solve(cs)
                b = solve_baseline(cs)
                o = brute2d(cs)
                out.append((s.status, s.x, s.t, b.status, b.x, b.t,
                            o.status, o.x, o.t))
            return out

        assert outputs() == outputs()
