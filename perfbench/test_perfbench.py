"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

import dataclasses
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import minmaxlp  # noqa: E402
from minmaxlp.bench import BenchResult, fit_loglog_slope  # noqa: E402

import checks  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_spec():
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    assert set(spec.WORKLOADS) == set(workloads.WORKLOADS)


def test_layer_map_names_known_metrics_and_workloads():
    for metric, (_, _, moves) in spec.PER_LAYER.items():
        for target, workload in moves:
            assert target in spec.END_TO_END or target == "fail_frac", metric
            assert workload in spec.WORKLOADS, metric


# --- the percentile rule ---------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert measure.percentile(values, 0.50) == 50
    assert measure.percentile(values, 0.90) == 90
    assert measure.percentile([7.0], 0.9) == 7.0
    assert measure.percentile([1, 2, 3, 4], 0.5) == 2
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


def test_p90_needs_one_hundred_samples():
    assert measure.samples_beyond(measure.MIN_OPS, 0.90) == 10
    assert measure.samples_beyond(99, 0.90) == 9
    assert all(measure.samples_beyond(n, 0.90) >= 10 for n in range(100, 400))


@pytest.mark.parametrize("plan", [workloads.CLI_FIT, workloads.LIB_GAUSS2D,
                                  workloads.BOX3D])
def test_percentile_ranks_fall_inside_a_size_class(plan):
    # Whole passes keep each class's share fixed; the p50 and p90 ranks must
    # sit away from every class boundary, or a single op flips them between
    # classes that differ by 3-10x in latency.
    per_pass = sum(ops for _, ops, _ in plan)
    bounds = [0]
    for _, ops, _ in plan:
        bounds.append(bounds[-1] + ops)
    for passes in range(1, 20):
        total = per_pass * passes
        for q in (0.5, 0.9):
            rank = math.ceil(q * total)
            margin = min(abs(rank - b * passes) for b in bounds)
            assert margin >= passes, (q, passes, rank)


def test_runs_make_a_fixed_number_of_passes():
    assert measure.passes_for(20, 2.2, 20) == 9
    assert measure.passes_for(1, 2.2, 20) == 5   # at least MIN_OPS ops
    assert measure.passes_for(1, 2.2, 300) == 1
    calls = []
    records = measure.run_closed_loop(lambda p: [_item(p, 1)] * 3,
                                      lambda it: calls.append(it.data),
                                      passes=4, speed=measure.HostSpeed())
    assert calls == [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3
    assert all(r.scaled >= 0.0 for r in records)


# --- scaling to the reference speed ------------------------------------------

def test_scaling_uses_the_nearest_reference_samples():
    speed = measure.HostSpeed()
    # the host runs at reference speed until t = 100, then 1.5x slower
    speed.at = [float(t) for t in range(200)]
    speed.seconds = [measure.REFERENCE_S * (1.0 if t < 100 else 1.5) for t in range(200)]
    assert speed.reference_at(10.0) == measure.REFERENCE_S
    assert speed.reference_at(150.0) == 1.5 * measure.REFERENCE_S
    assert speed.reference_at(-5.0) == measure.REFERENCE_S     # before the first
    assert speed.reference_at(500.0) == 1.5 * measure.REFERENCE_S
    assert speed.scale(150.0, 0.3) == pytest.approx(0.2)
    assert speed.scale(10.0, 0.3) == pytest.approx(0.3)
    # a window that straddles the change takes the side holding most samples
    assert speed.reference_at(97.6) == measure.REFERENCE_S


def test_reference_loop_runs_no_package_code():
    # The reference must not move when the program changes.
    code = measure.reference_loop.__code__
    assert not set(code.co_names) & set(dir(minmaxlp))
    speed = measure.HostSpeed()
    speed.sample(3)
    assert len(speed.seconds) == 3 and all(s > 0.0 for s in speed.seconds)


# --- the answer checker ----------------------------------------------------

def _item(data, n):
    return workloads.Item("test", "test", n, data)


def test_checker_accepts_and_rejects_2d():
    cs = minmaxlp.gen2d(minmaxlp.GenSpec(n=200, seed=3))
    w = workloads.WORKLOADS["lib-gauss2d"]
    checker = checks.Checker(w)
    sol = minmaxlp.solve(cs)
    assert checker.check(_item(cs, 200), sol)
    bumped = dataclasses.replace(sol, t=sol.t + 1e-9 * max(1.0, abs(sol.t)))
    assert not checker.check(_item(cs, 200), bumped)
    assert checker.messages


def test_checker_rejects_perturbed_cli_output():
    w = workloads.WORKLOADS["cli-fit"]
    item = _item(("unused", 50, 4, 0), 50)
    cs = w.constraints(item)
    sol = minmaxlp.solve(cs)
    good = json.dumps({"status": "optimal", "x": sol.x, "t": sol.t})
    bad = json.dumps({"status": "optimal", "x": sol.x, "t": sol.t * (1 + 1e-10)})
    checker = checks.Checker(w)
    assert checker.check(item, good)
    assert not checker.check(item, bad)


@pytest.mark.parametrize("n", [40, 120])
def test_checker_accepts_and_rejects_3d(n):
    cs = minmaxlp.gen3d(minmaxlp.GenSpec(n=n, seed=5, dim=3))
    checker = checks.Checker(workloads.WORKLOADS["box3d"])
    sol = minmaxlp.solve3d(cs)
    assert checker.check(_item(cs, n), sol)
    worse = dataclasses.replace(sol, t=sol.t * (1 + 1e-6) + 1e-6)
    assert not checker.check(_item(cs, n), worse)


# --- failures and the deadline ---------------------------------------------

def test_contract_violation_counts_as_failure():
    def op(item):
        raise minmaxlp.ContractViolation("pivot loop exceeded its iteration bound")

    items = [_item(None, 3)] * 4
    speed = measure.HostSpeed()
    records = measure.run_pass(items, op, speed=speed)
    assert [r.failure for r in records] == ["raise"] * 4
    assert all(r.seconds >= 0.0 for r in records)
    records += measure.run_pass([_item(None, 5)], lambda it: 1, speed=speed)
    speed.scale_records(records)
    m = measure.end_to_end(records, setup_s=1.0, peak_rss_mb=1.0)
    assert m["constraints_per_s"] > 0.0  # only the op that answered counts


def test_exit_code_and_deadline_are_their_own_kinds(monkeypatch):
    def exits(item):
        raise measure.ExitStatus(3, "internal error")

    def hangs(item):
        time.sleep(5.0)

    monkeypatch.setattr(measure, "DEADLINE_S", 0.05)
    kinds = [r.failure for r in measure.run_pass([_item(None, 1)], exits)
             + measure.run_pass([_item(None, 1)], hangs)]
    assert kinds == ["exit", "deadline"]


# --- tracing ---------------------------------------------------------------

def test_self_times_add_up_to_the_root_span():
    rec = spans.Recorder()

    def leaf(x):
        time.sleep(0.002)
        return x

    inner = rec.wrap("geometry._product_sign", leaf)

    def middle(x):
        time.sleep(0.002)
        return inner(x) + inner(x)

    root = rec.wrap("bench.op", rec.wrap("solver2d.solve", middle, sized=True))
    for _ in range(3):
        rec.op_id += 1
        root([1, 2])
    m = spans.layer_metrics(rec, n_ops=3, n_setups=1)
    dur = (sum(rec.end[i] - rec.start[i] for i in range(len(rec.name))
               if rec.names[rec.name[i]] == "bench.op") / 1e9 / 3)
    assert spans.op_self_sum(m) == pytest.approx(dur, rel=1e-9)
    assert m["geometry.exact_s"] >= 0.004
    assert m["geometry.scan_exact_calls"] == 2.0


def test_slope_agrees_with_fit_loglog_slope():
    ns, secs = [], []
    for n in (1_000, 10_000, 100_000, 1_000_000):
        for k in range(3):
            ns.append(n)
            secs.append(2e-7 * n ** 1.1 * (1.0 + 0.01 * k))
    results = []
    for n in sorted(set(ns)):
        v = [s for m, s in zip(ns, secs) if m == n]
        results.append(BenchResult("hough2d", n, len(v), sum(v), sum(v) / len(v),
                                   sorted(v)[1]))
    got = spans.loglog_slope(ns, secs)
    assert got == pytest.approx(fit_loglog_slope(results), rel=1e-12)
    assert got == pytest.approx(1.1, abs=1e-9)
