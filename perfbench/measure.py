"""Closed-loop timing: whole passes over a corpus, a per-op deadline, the
host-speed reference, and the percentile rule.

One client in one process sends the next op only after the previous one
has returned; there are no worker threads or child processes.  A run is a
fixed whole number of passes, so every run with a given seed makes the same
ops, holds each size class in the same proportion, and a percentile always
lands at the same place in that mix.

The host is shared: from one second to the next, the same CPU-bound code
runs up to about 1.6x slower or faster, and a state can outlast a run.  So
a fixed pure-Python reference loop (`reference_loop`, stdlib only, no
package code) is timed between ops every SPEED_PERIOD_S, and every timed
interval is also given at reference speed: its wall time times
REFERENCE_S over the median reference time of the SPEED_WINDOW samples
nearest to it.  The end-to-end times are these scaled times; the raw wall
times are kept next to them in the report.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

# Per-op deadline.  The slowest op at the seed commit (a 1e5-row cli-fit
# file, about 1.6 s on a 2-CPU Xeon) stays far below it, so the deadline
# changes no outcome there; it catches a hang without a thread or process.
DEADLINE_S = 30.0
# A p90 needs ten samples beyond it: ceil(0.9 * 100) leaves exactly ten.
MIN_OPS = 100
# No op starts past this, whatever the op count, so a run that has become
# very slow still exits well inside three minutes.
HARD_CAP_S = 100.0

FAILURE_KINDS = ("raise", "exit", "deadline", "mismatch")

# The reference loop's nominal time: scaled times are what the op would
# take on a host where reference_loop() takes 1.000 ms (about the fast
# state of a 2-CPU Xeon VM; its slow state takes 1.4-1.7 ms).
REFERENCE_S = 1.0e-3
# At most one reference sample per this many seconds of the loop (about 1%
# of the run), and each interval is scaled by the median of the nearest
# SPEED_WINDOW samples, about a second of the run.
SPEED_PERIOD_S = 0.1
SPEED_WINDOW = 9


class DeadlineExceeded(Exception):
    """An op ran longer than DEADLINE_S."""


class ExitStatus(Exception):
    """A command-line op returned a non-zero exit code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit code {code}: {stderr.strip()[:200]}")
        self.code = code


@dataclass
class OpRecord:
    item: Any               # the corpus item the op consumed
    start: float            # perf_counter when the op started
    seconds: float          # wall time of the op, failed or not
    failure: str | None     # None, or one of FAILURE_KINDS
    answer: Any = None      # what the op returned, for the checker
    error: str = ""
    scaled: float = math.nan  # `seconds` at reference speed, see HostSpeed


def reference_loop() -> float:
    """Fixed interpreter work: float arithmetic, tuples, a list and a sort.

    It calls no package code, so a change to the program cannot change it.
    """
    s = 0.0
    xs = []
    for i in range(3000):
        x = (i * 0.5 + 1.25) * 1.0001
        s += x if x > s * 0.001 else -x
        xs.append((x, s))
    xs.sort(key=lambda p: p[1])
    return s


class HostSpeed:
    """Reference-loop timings along a run, to scale wall times by."""

    def __init__(self):
        self.at: list[float] = []       # perf_counter mid-sample
        self.seconds: list[float] = []  # reference_loop() wall time

    def sample(self, count: int = 1) -> None:
        # The collector stays on: its young-generation passes are part of
        # the work a slow host slows, as they are in the program's ops.  A
        # rare full collection that lands in one sample is outvoted in the
        # window's median.
        for _ in range(count):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.seconds.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= SPEED_PERIOD_S:
            self.sample()

    def reference_at(self, t: float) -> float:
        """Median reference time of the SPEED_WINDOW samples nearest to t."""
        if not self.at:
            raise ValueError("no reference samples")
        i = bisect.bisect_left(self.at, t)
        lo, hi = i, i  # grow [lo, hi) towards the nearer neighbour
        while hi - lo < min(SPEED_WINDOW, len(self.at)):
            if lo > 0 and (hi == len(self.at) or t - self.at[lo - 1] <= self.at[hi] - t):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.seconds[lo:hi])

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` of wall time starting at `start`, at reference speed."""
        return seconds * REFERENCE_S / self.reference_at(start + seconds / 2)

    def scale_records(self, records: Sequence["OpRecord"]) -> None:
        for r in records:
            r.scaled = self.scale(r.start, r.seconds)

    def summary(self) -> dict:
        s = sorted(self.seconds)
        return {"samples": len(s), "reference_s": REFERENCE_S,
                "min_s": s[0], "median_s": statistics.median(s), "max_s": s[-1]}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q * N)-th smallest of N values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of `count` samples lie strictly above the q-percentile rank."""
    return count - math.ceil(q * count)


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"op exceeded the {DEADLINE_S} s deadline")


def _timed_op(op: Callable, item) -> OpRecord:
    clock = time.perf_counter
    t0 = clock()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        answer = op(item)
        failure = None
        error = ""
    except DeadlineExceeded as e:
        answer, failure, error = None, "deadline", str(e)
    except ExitStatus as e:
        answer, failure, error = None, "exit", str(e)
    except Exception as e:  # any raise from the program is a failed op
        answer, failure, error = None, "raise", f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    return OpRecord(item, t0, clock() - t0, failure, answer, error)


def run_pass(order: Sequence, op: Callable, stop_at: float = math.inf,
             speed: HostSpeed | None = None) -> list[OpRecord]:
    """One closed-loop pass: each item in order, one op at a time.

    No op starts once the perf_counter clock has passed `stop_at`.  With
    `speed`, the reference loop is sampled between ops.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    try:
        for item in order:
            if time.perf_counter() >= stop_at:
                break
            if speed is not None:
                speed.maybe_sample()
            records.append(_timed_op(op, item))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return records


def passes_for(seconds: float, pass_seconds: float, ops_per_pass: int) -> int:
    """Passes in a run: about `seconds` at `pass_seconds` a pass, and at
    least MIN_OPS ops.  A count, not a clock, ends the run, so two runs with
    the same seed make the same ops whatever the host's speed."""
    return max(round(seconds / pass_seconds), math.ceil(MIN_OPS / ops_per_pass))


def run_closed_loop(pass_order: Callable[[int], Sequence], op: Callable,
                    passes: int, speed: HostSpeed) -> list[OpRecord]:
    """`passes` whole passes, sampling the host's speed between ops.

    Only a run that passes HARD_CAP_S stops early.
    """
    records: list[OpRecord] = []
    stop_at = time.perf_counter() + HARD_CAP_S
    for p in range(passes):
        records += run_pass(pass_order(p), op, stop_at, speed)
    speed.sample()
    speed.scale_records(records)
    return records


def end_to_end(records: Sequence[OpRecord], setup_s: float, peak_rss_mb: float,
               raw: bool = False) -> dict[str, float]:
    """The untraced metrics; failed ops count at their elapsed time.

    Times are at reference speed, or wall times with `raw`.
    """
    lat = [r.seconds if raw else r.scaled for r in records]
    good_n = sum(r.item.n for r in records if r.failure is None)
    return {
        "setup_s": setup_s,
        "constraints_per_s": good_n / sum(lat),
        "latency_p50_ms": percentile(lat, 0.50) * 1e3,
        "latency_p90_ms": percentile(lat, 0.90) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def median_setup(build: Callable[[], Any], repeats: int,
                 speed: HostSpeed) -> tuple[Any, float, list[tuple[float, float]]]:
    """Run `build` `repeats` times; keep the last result and the median time
    at reference speed.  Also returns each (wall, scaled) time."""
    times = []
    result = None
    for _ in range(repeats):
        result = None  # let the previous corpus go before building the next
        t0 = time.perf_counter()
        result = build()
        times.append((t0, time.perf_counter() - t0))
        speed.sample(SPEED_WINDOW // 2 + 1)
    pairs = [(s, speed.scale(t0, s)) for t0, s in times]
    return result, statistics.median(sc for _, sc in pairs), pairs
