"""Tracing from outside the program: rebind the names each layer imports
from the next, record one span per rebound call, and derive the per-layer
metrics from the spans.

A span is (name, start, end, parent, op id, n), held in flat int64 arrays
until the run ends.  A layer's self time is its spans' durations minus
the durations of their direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import minmaxlp
import minmaxlp.cli
import minmaxlp.geometry
import minmaxlp.prune3d
import minmaxlp.solver2d
from minmaxlp.bench import BenchResult, fit_loglog_slope

SETUP = -1  # op id of spans recorded while building the corpus


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.n = array("q")
        self.op_id = SETUP
        self.errors: Counter = Counter()   # (span name, exception type) -> count
        self.prune_counts: list[tuple[int, int, int]] = []
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, sized: bool = False, observe=None):
        """`fn`, recording a span named `name` around every call."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.n.append(len(args[0]) if sized else -1)
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                self.errors[name, type(e).__name__] += 1
                raise
            finally:
                self.end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, out)
            return out

        return traced

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names),
                 **{k: np.frombuffer(getattr(self, k), dtype=np.int64)
                    for k in ("name", "start", "end", "parent", "op", "n")})


def _observe_prune(rec: Recorder, report) -> None:
    rec.prune_counts.append((len(report.kept), report.discarded_behind,
                             report.discarded_steep))


def rebind_points():
    """(module, attribute, span name, record len(arg 0), observer)."""
    cli = minmaxlp.cli
    return [
        # the benchmark -> the package's entry points
        (cli, "main", "cli.main", False, None),
        (minmaxlp, "gen2d", "instances.gen", False, None),
        (minmaxlp, "gen3d", "instances.gen", False, None),
        (minmaxlp, "expand_absolute", "solver2d.expand_absolute", False, None),
        (minmaxlp, "solve", "solver2d.solve", True, None),
        (minmaxlp, "solve3d", "prune3d.solve3d", False, None),
        # cli -> the layers it calls
        (cli, "parse_constraints", "cli.parse_constraints", False, None),
        (cli, "gen2d", "instances.gen", False, None),
        (cli, "expand_absolute", "solver2d.expand_absolute", False, None),
        (cli, "solve", "solver2d.solve", True, None),
        (cli, "solve_baseline", "baseline.solve_baseline", False, None),
        # solver2d -> its pivot scan and geometry's exact predicate
        (minmaxlp.solver2d, "_scan", "solver2d._scan", False, None),
        (minmaxlp.solver2d, "_product_sign", "geometry._product_sign", False, None),
        (minmaxlp.geometry, "_slow_sign", "geometry._slow_sign", False, None),
        # prune3d -> the pruner and the oracle
        (minmaxlp.prune3d, "prune", "prune3d.prune", False, _observe_prune),
        (minmaxlp.prune3d, "brute3d_box", "oracle.brute3d_box", False, None),
    ]


class Rebound:
    """Context manager: every rebind point traced by `rec` while inside."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, attr, name, sized, observe in rebind_points():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.rec.wrap(name, fn, sized, observe))
        return self.rec

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


# per-layer time metric -> the spans whose self time it sums
OP_SELF = {
    "bench.harness_s": ("bench.op",),
    "cli.main_s": ("cli.main",),
    "cli.parse_s": ("cli.parse_constraints",),
    "solver2d.expand_s": ("solver2d.expand_absolute",),
    "solver2d.solve_s": ("solver2d.solve", "solver2d._scan"),
    "geometry.exact_s": ("geometry._product_sign", "geometry._slow_sign"),
    "baseline.solve_s": ("baseline.solve_baseline",),
    "prune3d.solve3d_s": ("prune3d.solve3d",),
    "prune3d.prune_s": ("prune3d.prune",),
    "oracle.brute3d_s": ("oracle.brute3d_box",),
}
SETUP_SELF = {
    "cli.gen_s": ("cli.main",),
    "instances.gen_s": ("instances.gen",),
}


def loglog_slope(ns, seconds) -> float:
    """C5 slope of mean time against n, by minmaxlp.bench.fit_loglog_slope."""
    by_n: dict[int, list[float]] = {}
    for n, s in zip(ns, seconds):
        by_n.setdefault(int(n), []).append(float(s))
    if len(by_n) < 2:
        return 0.0
    results = [BenchResult(solver="hough2d", n=n, batch=len(v), total_s=sum(v),
                           mean_s=sum(v) / len(v), median_s=float(np.median(v)))
               for n, v in sorted(by_n.items())]
    return fit_loglog_slope(results)


def _columns(rec: Recorder):
    """(name id, parent, op id, duration in ns) of every span, as arrays."""
    col = {k: np.frombuffer(getattr(rec, k), dtype=np.int64)
           for k in ("name", "parent", "op", "start", "end")}
    return (col["name"], col["parent"], col["op"],
            (col["end"] - col["start"]).astype(float))


def solve_seconds_per_op(rec: Recorder, n_ops: int) -> np.ndarray:
    """Time inside solver2d.solve spans, child spans included, per op."""
    name, _, op, dur = _columns(rec)
    mask = (op >= 0) & (name == rec._ids.get("solver2d.solve", -1))
    return np.bincount(op[mask], weights=dur[mask], minlength=n_ops) / 1e9


def layer_metrics(rec: Recorder, n_ops: int, n_setups: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `n_ops` traced ops and `n_setups` setups."""
    name, parent, op, dur = _columns(rec)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_s = (dur - child) / 1e9
    in_op = op >= 0

    def is_(*names):
        ids = [rec._ids[x] for x in names if x in rec._ids]
        return np.isin(name, ids)

    covered = set(x for names in OP_SELF.values() for x in names)
    stray = set(rec.names[i] for i in np.unique(name[in_op])) - covered
    if stray:
        raise RuntimeError(f"op spans outside every layer metric: {stray}")

    out: dict[str, float] = {}
    for metric, names in OP_SELF.items():
        out[metric] = float(self_s[in_op & is_(*names)].sum()) / n_ops
    for metric, names in SETUP_SELF.items():
        out[metric] = float(self_s[~in_op & is_(*names)].sum()) / n_setups

    solve = in_op & is_("solver2d.solve")
    solve_ops = np.unique(op[solve])
    scans = np.bincount(op[in_op & is_("solver2d._scan")],
                        minlength=n_ops)[solve_ops]
    solved_n = np.frombuffer(rec.n, dtype=np.int64)[solve]
    out["solver2d.solve_ns_per_constraint"] = (
        float(dur[solve].sum() / solved_n.sum()) if solve.any() else 0.0)
    out["solver2d.pivots_mean"] = float(scans.mean()) if scans.size else 0.0
    out["solver2d.pivots_max"] = float(scans.max()) if scans.size else 0.0
    out["solver2d.contract_violations"] = float(
        rec.errors["solver2d.solve", "ContractViolation"])
    out["solver2d.loglog_slope"] = loglog_slope(solved_n, dur[solve] / 1e9)
    out["geometry.scan_exact_calls"] = float(
        (in_op & is_("geometry._product_sign")).sum()) / n_ops
    out["geometry.slow_sign_calls"] = float(
        (in_op & is_("geometry._slow_sign")).sum()) / n_ops
    if rec.prune_counts:
        kept, behind, steep = np.array(rec.prune_counts, dtype=float).T
        out["prune3d.kept_frac"] = float(kept.sum() / (kept + behind + steep).sum())
        out["prune3d.discarded_behind"] = float(behind.mean())
        out["prune3d.discarded_steep"] = float(steep.mean())
    else:
        out.update({"prune3d.kept_frac": 0.0, "prune3d.discarded_behind": 0.0,
                    "prune3d.discarded_steep": 0.0})
    return out


def op_self_sum(metrics: dict[str, float]) -> float:
    """Sum of the per-op self times: the traced latency of a mean op."""
    return sum(metrics[m] for m in OP_SELF)
