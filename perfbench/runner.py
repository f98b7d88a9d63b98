"""One run of one workload: set-up, the timed closed loop, checking, and,
for the traced run, the per-layer metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

import checks
import measure
import spans

SETUP_REPEATS = 3
# The traced run stops alternating passes once it holds this many spans
# (48 bytes each); one traced fit-degenerate pass records about 760k.
SPAN_CAP = 500_000


def warm_up(w, corpus) -> None:
    try:
        w.op(corpus.smallest())
    except Exception:  # the timed ops record every outcome, warm-up's is moot
        pass


def check_answers(checker, records) -> None:
    """Mark ops whose answer the checker rejects as failed (kind mismatch)."""
    for r in records:
        if r.failure is not None:
            continue
        try:
            ok = checker.check(r.item, r.answer)
        except Exception as e:  # the answer cannot be read or the reference raised
            checker.messages.append(f"{r.item.key}: {type(e).__name__}: {e}")
            ok = False
        if not ok:
            r.failure = "mismatch"


def fail_frac(records) -> float:
    return sum(r.failure is not None for r in records) / len(records)


def sample_counts(records) -> dict:
    counts: dict[str, int] = {}
    for r in records:
        counts[r.item.label] = counts.get(r.item.label, 0) + 1
    return counts


def class_p50_ms(records) -> dict:
    """Median op time per size class, at reference speed."""
    by_class: dict[str, list[float]] = {}
    for r in records:
        by_class.setdefault(r.item.label, []).append(r.scaled)
    return {k: statistics.median(v) * 1e3 for k, v in sorted(by_class.items())}


def ops_per_pass(corpus) -> int:
    return sum(c.ops for c in corpus.classes)


def run_untraced(w, seed, seconds, workdir, speed, import_s):
    """End-to-end metrics; returns (records, checker, metrics, report extras).

    `import_s` is (wall, scaled) seconds of the package import.
    """
    def setup():
        corpus = w.build(seed, workdir)
        warm_up(w, corpus)
        return corpus

    t0 = time.perf_counter()
    corpus, setup_med, setup_times = measure.median_setup(setup, SETUP_REPEATS, speed)
    gc.collect()
    gc.freeze()  # the corpus is the harness's, not the measured program's
    passes = measure.passes_for(seconds, w.pass_seconds, ops_per_pass(corpus))
    t1 = time.perf_counter()
    records = measure.run_closed_loop(corpus.pass_order, w.op, passes, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t2 = time.perf_counter()
    checker = checks.Checker(w)
    check_answers(checker, records)
    phases = {"setups": t1 - t0, "loop": t2 - t1, "check": time.perf_counter() - t2}
    metrics = measure.end_to_end(records, import_s[1] + setup_med, peak_rss_mb)
    raw_setup = import_s[0] + statistics.median(wall for wall, _ in setup_times)
    extra = {
        "fail_frac": fail_frac(records),
        "passes": passes,
        "samples": {"ops": len(records),
                    "beyond_p90": measure.samples_beyond(len(records), 0.90),
                    "per_class": sample_counts(records)},
        "class_p50_ms": class_p50_ms(records),
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        # the same metrics from wall times, before scaling to reference speed
        "wall_metrics": measure.end_to_end(records, raw_setup, peak_rss_mb, raw=True),
        "host_speed": speed.summary(),
        "phase_wall_s": phases,
    }
    return records, checker, metrics, extra


def run_traced(w, seed, seconds, workdir, spans_path):
    """Per-layer metrics from alternating untraced and traced passes."""
    rec = spans.Recorder()
    with spans.Rebound(rec):
        corpus = w.build(seed, workdir)
    warm_up(w, corpus)
    gc.collect()
    gc.freeze()
    root = rec.wrap("bench.op", w.op)

    def traced_op(item):
        rec.op_id += 1
        return root(item)

    # A traced pass costs about two untraced ones, so half the passes of an
    # untraced run, each made once untraced and once traced, take about as
    # long; like the untraced run, a count ends it.
    pairs = max(1, measure.passes_for(seconds, w.pass_seconds, ops_per_pass(corpus)) // 2)
    untraced, traced = [], []
    stop_at = time.perf_counter() + measure.HARD_CAP_S
    p = 0
    while p < pairs and len(rec.name) < SPAN_CAP and time.perf_counter() < stop_at:
        order = corpus.pass_order(p)
        # alternate which side goes first, so neither gains from warming up
        for side in ((0, 1) if p % 2 == 0 else (1, 0)):
            if side:
                with spans.Rebound(rec):
                    traced += measure.run_pass(order, traced_op, stop_at)
            else:
                untraced += measure.run_pass(order, w.op, stop_at)
        p += 1
    checker = checks.Checker(w)
    check_answers(checker, untraced + traced)
    metrics = spans.layer_metrics(rec, n_ops=len(traced), n_setups=1)
    metrics["baseline.time_ratio"] = baseline_time_ratio(rec, traced, checker)
    untraced_s = sum(r.seconds for r in untraced)
    overhead = sum(r.seconds for r in traced) / untraced_s - 1.0
    self_sum_frac = spans.op_self_sum(metrics) / (untraced_s / len(untraced)) - 1.0
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.self_sum_frac"] = self_sum_frac
    rec.save(spans_path)
    extra = {
        "fail_frac": fail_frac(traced),
        "passes": p,
        "samples": {"untraced_ops": len(untraced), "traced_ops": len(traced),
                    "spans": len(rec.name)},
        # the self times must account for the untraced latency to within
        # the tracing overhead
        "self_times_add_up": abs(self_sum_frac) <= abs(overhead) + 0.01,
        "span_errors": {f"{k[0]}:{k[1]}": v for k, v in rec.errors.items()},
    }
    return untraced + traced, checker, metrics, extra


def baseline_time_ratio(rec, traced, checker) -> float:
    """Checker's solve_baseline time over the traced solve time, same inputs."""
    per_op = spans.solve_seconds_per_op(rec, len(traced))
    solve_s: dict[str, list[float]] = {}
    for r, s in zip(traced, per_op):
        if r.failure is None and r.item.key in checker.baseline_s:
            solve_s.setdefault(r.item.key, []).append(s)
    if not solve_s:
        return 0.0
    base = sum(checker.baseline_s[k] for k in solve_s)
    return base / sum(sum(v) / len(v) for v in solve_s.values())
