"""Timing harness for the scaling experiment.

Times solve calls only; instance generation happens outside the clock and
one warm-up solve per size is discarded.  Batch sizes shrink with n so a
full sweep stays desk-scale: at size n the harness runs
``max(1, batch * min(sizes) // n)`` instances.  A sample of results is
re-checked on every run.  The 2D solvers run on ``gen2d`` instances and
are checked by ``check2d`` against ``solve_baseline`` (``solve`` for the
baseline itself); ``box3d`` runs ``solve3d`` on ``gen3d`` instances and
is checked by ``check3d``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import partial
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


def run_scaling(solver: str, sizes: Sequence[int], batch: int, seed: int,
                validate_fraction: float = 0.01) -> list[BenchResult]:
    """Time ``solver`` over the given sizes on seeded Gaussian instances."""
    try:
        fn = SOLVERS[solver]
    except KeyError:
        raise ValueError(f"unknown solver {solver!r}; "
                         f"choose from {sorted(SOLVERS)}") from None
    if solver == "brute2d" and max(sizes) > _BRUTE2D_MAX_N:
        raise ValueError(f"brute2d is quadratic; limit n to {_BRUTE2D_MAX_N}")
    if solver == "box3d":
        dim, make, check = 3, gen3d, check3d
    else:
        reference = solve_baseline if solver != "baseline_hull" else solve
        dim, make, check = 2, gen2d, partial(check2d, reference=reference)
    n_min = min(sizes)
    results = []
    for n in sizes:
        eff = max(1, (batch * n_min) // n)
        spec = GenSpec(n=n, seed=seed, dim=dim)
        fn(make(spec, index=0))  # warm-up, excluded from timing
        n_checks = max(1, round(eff * validate_fraction))
        times = []
        iters = []
        for k in range(1, eff + 1):
            inst = make(spec, index=k)
            t0 = perf_counter()
            sol = fn(inst)
            times.append(perf_counter() - t0)
            if solver == "hough2d":
                iters.append(sol.iterations)
            if k <= n_checks:
                check(inst, sol)
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
