"""What the benchmark measures: workloads, metrics, units, bounds, and the
layer -> end-to-end map.  BENCHMARK.json at the repository root is this
module's `benchmark_json()`; a self-test keeps the two equal.
"""

from __future__ import annotations

RUN_SECONDS = 15

WORKLOADS = {
    "cli-fit": "L-inf fit from text: cli solve2d --mode abs --validate on gen-written files, "
               "n 1e3..1e5 rows; parse and the validating baseline dominate",
    "lib-gauss2d": "solve() on in-memory gen2d instances, n 1e3..1e6: the convert loop and "
                   "pivot scans alone, no parse or baseline",
    "fit-degenerate": "expand_absolute + solve on small exact and equiripple L-inf fits; "
                      "exact predicates decide; known defect at the seed commit: about 0.33 of ops "
                      "raise ContractViolation",
    "box3d": "solve3d (prune + cubic brute3d_box) on gen3d instances, n 60..134; "
             "the only workload that runs prune3d and the oracle",
}

# name -> (unit, which direction is better, regression bound as a share
# of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "constraints_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

# name -> (unit, which direction is better, [(end-to-end metric, workload)
# it should move]).  Times are self times: a span minus its child spans.
PER_LAYER = {
    "cli.main_s": ("s/op", "lower", [("latency_p50_ms", "cli-fit")]),
    "cli.parse_s": ("s/op", "lower", [("latency_p50_ms", "cli-fit"),
                                      ("constraints_per_s", "cli-fit")]),
    "cli.gen_s": ("s/setup", "lower", [("setup_s", "cli-fit")]),
    "instances.gen_s": ("s/setup", "lower", [("setup_s", "lib-gauss2d"),
                                             ("setup_s", "box3d")]),
    "solver2d.expand_s": ("s/op", "lower", [("latency_p50_ms", "cli-fit"),
                                            ("latency_p50_ms", "fit-degenerate")]),
    "solver2d.solve_s": ("s/op", "lower", [("latency_p50_ms", "lib-gauss2d"),
                                           ("constraints_per_s", "lib-gauss2d"),
                                           ("latency_p90_ms", "fit-degenerate")]),
    "solver2d.solve_ns_per_constraint": ("ns/constraint", "lower", [("constraints_per_s", "lib-gauss2d")]),
    "solver2d.pivots_mean": ("count/op", "lower", [("latency_p90_ms", "fit-degenerate")]),
    "solver2d.pivots_max": ("count", "lower", [("latency_p90_ms", "fit-degenerate")]),
    "solver2d.contract_violations": ("count", "lower", [("fail_frac", "fit-degenerate")]),
    "solver2d.loglog_slope": ("1", "lower", [("latency_p90_ms", "lib-gauss2d")]),
    "geometry.scan_exact_calls": ("count/op", "lower", [("latency_p90_ms", "fit-degenerate"),
                                                       ("fail_frac", "fit-degenerate")]),
    "geometry.slow_sign_calls": ("count/op", "lower", [("latency_p90_ms", "fit-degenerate"),
                                                      ("fail_frac", "fit-degenerate")]),
    "geometry.exact_s": ("s/op", "lower", [("latency_p90_ms", "fit-degenerate"),
                                           ("fail_frac", "fit-degenerate")]),
    "baseline.solve_s": ("s/op", "lower", [("latency_p50_ms", "cli-fit"),
                                           ("latency_p90_ms", "cli-fit")]),
    "baseline.time_ratio": ("1", "higher", []),
    "prune3d.solve3d_s": ("s/op", "lower", [("latency_p50_ms", "box3d")]),
    "prune3d.prune_s": ("s/op", "lower", [("latency_p50_ms", "box3d"),
                                          ("peak_rss_mb", "box3d")]),
    "prune3d.kept_frac": ("1", "lower", [("latency_p90_ms", "box3d"),
                                         ("peak_rss_mb", "box3d")]),
    "prune3d.discarded_behind": ("count/op", "higher", [("latency_p90_ms", "box3d"),
                                                       ("peak_rss_mb", "box3d")]),
    "prune3d.discarded_steep": ("count/op", "higher", [("latency_p90_ms", "box3d"),
                                                      ("peak_rss_mb", "box3d")]),
    "oracle.brute3d_s": ("s/op", "lower", [("latency_p90_ms", "box3d"),
                                           ("peak_rss_mb", "box3d")]),
    "bench.harness_s": ("s/op", "lower", []),
    "trace.overhead_frac": ("1", "lower", []),
    "trace.self_sum_frac": ("1", "lower", []),
}


def benchmark_json() -> dict:
    """The content BENCHMARK.json must hold."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": k, "unit": u, "better": b, "bound": bound}
                       for k, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": k, "unit": u, "better": b}
                      for k, (u, b, _) in PER_LAYER.items()],
    }
