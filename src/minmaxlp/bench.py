"""Timing harness for the scaling experiment.

Times solve calls only; instance generation happens outside the clock and
one warm-up solve per size is discarded.  Batch sizes shrink with n so a
full sweep stays desk-scale: at size n the harness runs
``max(1, batch * min(sizes) // n)`` instances.  Every answer is certified
after the timed loop of its size: the 2D solvers run on ``gen2d``
instances and are checked by ``check2d``, ``box3d`` runs ``solve3d`` on
``gen3d`` instances and is checked by ``check3d``; each check is an exact
weak-duality certificate in O(n).

At the default batch of 100 and sizes 1e3..1e5, the 1e5 point is one
instance, so the ``box3d`` log-log slope swings from run to run; quote
box slopes from ``minmaxlp bench --solver box3d --batch 1000``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

from .baseline import check2d, solve_baseline
from .instances import GenSpec, gen2d, gen3d
from .oracle import brute2d
from .prune3d import check3d, solve3d
from .solver2d import solve

__all__ = ["BenchResult", "run_scaling", "fit_loglog_slope"]

SOLVERS: dict[str, Callable] = {
    "hough2d": solve,
    "baseline_hull": solve_baseline,
    "brute2d": brute2d,
    "box3d": solve3d,
}

_BRUTE2D_MAX_N = 2000


@dataclass(frozen=True)
class BenchResult:
    solver: str
    n: int
    batch: int
    total_s: float
    mean_s: float
    median_s: float
    mean_iterations: float | None = None
    max_iterations: int | None = None


def run_scaling(solver: str, sizes: Sequence[int], batch: int,
                seed: int) -> list[BenchResult]:
    """Time ``solver`` over the given sizes on seeded Gaussian instances.

    Raises ValueError before any solve for bad arguments, such as no
    sizes, or a size or batch below 1.
    """
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    if min(sizes) < 1:
        raise ValueError(f"sizes must be at least 1, got {min(sizes)}")
    try:
        fn = SOLVERS[solver]
    except KeyError:
        raise ValueError(f"unknown solver {solver!r}; "
                         f"choose from {sorted(SOLVERS)}") from None
    if solver == "brute2d" and max(sizes) > _BRUTE2D_MAX_N:
        raise ValueError(f"brute2d is quadratic; limit n to {_BRUTE2D_MAX_N}")
    dim, make, check = ((3, gen3d, check3d) if solver == "box3d"
                        else (2, gen2d, check2d))
    n_min = min(sizes)
    results = []
    for n in sizes:
        eff = max(1, (batch * n_min) // n)
        spec = GenSpec(n=n, seed=seed, dim=dim)
        fn(make(spec, index=0))  # warm-up, excluded from timing
        times = []
        sols = []
        for k in range(1, eff + 1):
            inst = make(spec, index=k)
            t0 = perf_counter()
            sols.append(fn(inst))
            times.append(perf_counter() - t0)
        # Checked after the timed loop, so no check runs between two
        # timed solves; the instances are generated again.
        for k, sol in enumerate(sols, 1):
            check(make(spec, index=k), sol)
        iters = [sol.iterations for sol in sols] if solver == "hough2d" else []
        results.append(BenchResult(
            solver=solver,
            n=n,
            batch=eff,
            total_s=sum(times),
            mean_s=statistics.fmean(times),
            median_s=statistics.median(times),
            mean_iterations=statistics.fmean(iters) if iters else None,
            max_iterations=max(iters) if iters else None,
        ))
    return results


def fit_loglog_slope(results: Sequence[BenchResult]) -> float:
    """Least-squares slope of log(mean time) against log(n)."""
    if len(results) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    xs = [math.log(r.n) for r in results]
    ys = [math.log(r.mean_s) for r in results]
    mx = statistics.fmean(xs)
    my = statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
