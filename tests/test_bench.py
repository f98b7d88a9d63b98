import importlib.util
from pathlib import Path

import pytest

from minmaxlp import BenchResult, fit_loglog_slope, run_scaling


class TestRunScaling:
    def test_smoke_fields(self):
        results = run_scaling("hough2d", sizes=[20, 40], batch=6, seed=1)
        assert [r.n for r in results] == [20, 40]
        assert results[0].batch == 6
        assert results[1].batch == 3  # scaled down by n
        for r in results:
            assert r.solver == "hough2d"
            assert r.total_s > 0 and r.mean_s > 0 and r.median_s > 0
            assert r.mean_iterations is not None
            assert r.max_iterations <= r.n

    def test_baseline_solver(self):
        (r,) = run_scaling("baseline_hull", sizes=[30], batch=4, seed=2)
        assert r.solver == "baseline_hull"
        assert r.mean_iterations is None

    def test_brute_solver_small(self):
        (r,) = run_scaling("brute2d", sizes=[15], batch=4, seed=3)
        assert r.solver == "brute2d"

    def test_box3d_solver(self):
        # every instance is certified
        results = run_scaling("box3d", sizes=[20, 80], batch=4, seed=6)
        assert [r.n for r in results] == [20, 80]
        assert all(r.solver == "box3d" and r.mean_s > 0 for r in results)
        assert results[0].mean_iterations is None

    def test_box3d_check_rejects_a_wrong_answer(self):
        from minmaxlp import (ContractViolation, GenSpec, Solution3, check3d,
                              gen3d)
        for n in (20, 80):
            inst = gen3d(GenSpec(n=n, seed=7, dim=3))
            # the right objective, but at a point of an edge that is not
            # optimal: no multipliers bound the optimum up to t
            t = max(a * 0.0 + b * 0.5 + c for a, b, c in inst)
            with pytest.raises(ContractViolation, match="lower bound"):
                check3d(inst, Solution3(x=0.0, y=0.5, t=t))
            with pytest.raises(ContractViolation, match="objective"):
                check3d(inst, Solution3(x=0.0, y=0.5, t=t - 1.0))

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            run_scaling("simplex", sizes=[10], batch=1, seed=0)

    @pytest.mark.parametrize("sizes,batch,bad", [
        ([0], 1, "sizes .* got 0"), ([10, -5], 4, "sizes .* got -5"),
        ([10], 0, "batch .* got 0"), ([10], -3, "batch .* got -3"),
        ([], 1, "empty")])
    def test_bad_sizes_and_batch_raise_before_timing(self, monkeypatch,
                                                     sizes, batch, bad):
        import minmaxlp.bench as bench

        def forbidden():
            raise AssertionError("timed before checking its arguments")

        monkeypatch.setattr(bench, "perf_counter", forbidden)
        with pytest.raises(ValueError, match=bad):
            run_scaling("hough2d", sizes=sizes, batch=batch, seed=0)

    def test_brute_size_guard(self):
        with pytest.raises(ValueError):
            run_scaling("brute2d", sizes=[10_000], batch=1, seed=0)


class TestIterationStats:
    def test_two_point_instances_pivot_at_most_twice(self):
        (r,) = run_scaling("hough2d", sizes=[2], batch=50, seed=4)
        assert r.n == 2
        assert r.max_iterations <= 2

    def test_rows_and_bound(self):
        rows = run_scaling("hough2d", sizes=[10, 100], batch=10, seed=5)
        assert [r.n for r in rows] == [10, 100]
        for r in rows:
            assert 1 <= r.mean_iterations <= r.max_iterations <= r.n


def test_trace_points_resolve():
    # The benchmark traces the package by rebinding module attributes; a
    # renamed or deleted one would break every traced run.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, name, _, _ in spans.rebind_points():
        assert callable(getattr(module, attr, None)), name


class TestSlopeFit:
    def _results(self, times):
        return [BenchResult("hough2d", n, 1, t, t, t)
                for n, t in times.items()]

    def test_exact_linear_data(self):
        res = self._results({10: 1e-3, 100: 1e-2, 1000: 1e-1})
        assert fit_loglog_slope(res) == pytest.approx(1.0)

    def test_quadratic_data(self):
        res = self._results({10: 1e-4, 100: 1e-2, 1000: 1.0})
        assert fit_loglog_slope(res) == pytest.approx(2.0)

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(self._results({10: 1e-3}))
