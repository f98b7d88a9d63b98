"""Timing harness for the scaling experiment.

Times solve calls only; instance generation happens outside the clock and
one warm-up solve per size is discarded.  Batch sizes shrink with n so a
full sweep stays desk-scale: at size n the harness runs
``max(1, batch * min(sizes) // n)`` instances.  A sample of results is
re-checked against an independent solver on every run.  The 2D solvers
run on ``gen2d`` instances; ``box3d`` runs ``solve3d`` on ``gen3d``
instances.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, NamedTuple, Sequence

from .baseline import solve_baseline
from .errors import ContractViolation
from .instances import GenSpec, gen2d, gen3d
from .model import Status
from .oracle import brute2d, brute3d_box
from .prune3d import _check_edges, solve3d
from .solver2d import solve

__all__ = ["BenchResult", "IterationRow", "run_scaling", "iteration_stats",
           "fit_loglog_slope"]

SOLVERS: dict[str, Callable] = {
    "hough2d": solve,
    "baseline_hull": solve_baseline,
    "brute2d": brute2d,
    "box3d": solve3d,
}

_BRUTE2D_MAX_N = 2000
# box3d answers up to this size are re-checked against the cubic oracle,
# larger ones against the four box-edge restrictions.
_BRUTE3D_CHECK_MAX_N = 60


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


class IterationRow(NamedTuple):
    n: int
    mean_pivots: float
    max_pivots: int


def _check_against(reference: Callable, inst, sol) -> None:
    ref = reference(inst)
    if ref.status is not sol.status:
        raise ContractViolation(
            f"validation mismatch: status {sol.status} vs {ref.status}")
    if sol.status is Status.OPTIMAL:
        tol = 1e-12 * max(1.0, abs(ref.t))
        if abs(sol.t - ref.t) > tol:
            raise ContractViolation(
                f"validation mismatch: t {sol.t} vs {ref.t}")


def _check_box3d(inst, sol) -> None:
    """Re-check a box3d answer: in the box, t the objective there, and t
    equal to the oracle's (small n) or consistent with the edge optima."""
    if not (0.0 <= sol.x <= 1.0 and 0.0 <= sol.y <= 1.0):
        raise ContractViolation(
            f"validation mismatch: ({sol.x}, {sol.y}) outside the box")
    value = max(c[0] * sol.x + c[1] * sol.y + c[2] for c in inst)
    if value != sol.t:
        raise ContractViolation(
            f"validation mismatch: objective {value} at the answer, t {sol.t}")
    if len(inst) <= _BRUTE3D_CHECK_MAX_N:
        ref = brute3d_box(inst).t
        if abs(sol.t - ref) > 1e-9 * max(1.0, abs(ref)):
            raise ContractViolation(
                f"validation mismatch: t {sol.t} vs oracle {ref}")
        return
    _check_edges(inst, sol)


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
        dim, make, check = 3, gen3d, _check_box3d
    else:
        reference = solve_baseline if solver != "baseline_hull" else solve
        dim, make, check = 2, gen2d, partial(_check_against, reference)
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


def iteration_stats(sizes: Sequence[int], batch: int,
                    seed: int) -> list[IterationRow]:
    """Mean and max pivot scans per size for the pivoting solver."""
    rows = []
    n_min = min(sizes)
    for n in sizes:
        eff = max(1, (batch * n_min) // n)
        spec = GenSpec(n=n, seed=seed)
        counts = [solve(gen2d(spec, index=k)).iterations
                  for k in range(1, eff + 1)]
        rows.append(IterationRow(n, statistics.fmean(counts), max(counts)))
    return rows


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
