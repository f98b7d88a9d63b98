"""The four workloads: how each builds its inputs from the seed, what one op
is, and how an op's output reads as an answer for the checker.

Ops reach the package only through module attributes looked up at call
time (`minmaxlp.solve`, `minmaxlp.cli.main`, ...), so the traced run can
rebind those names.  The plans below fix each pass's mix of size classes;
`pass_order` rotates through each class's distinct inputs.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import minmaxlp
import minmaxlp.cli

from measure import ExitStatus

SIGMA = math.sqrt(10.0)  # the generator's default spread


@dataclass(frozen=True)
class Item:
    key: str    # names the distinct input; reference answers are cached by it
    label: str  # size class, for per-class sample counts
    n: int      # constraints (residual rows for |.| fits) credited to goodput
    data: Any   # what the op consumes


@dataclass
class SizeClass:
    label: str
    ops: int           # ops per pass
    items: list[Item]  # distinct inputs, used in rotation


class Corpus:
    def __init__(self, seed: int, classes: list[SizeClass]):
        self.seed = seed
        self.classes = classes

    def pass_order(self, p: int) -> list[Item]:
        """Pass p: each class's `ops` next inputs in rotation, shuffled."""
        order = [c.items[(p * c.ops + j) % len(c.items)]
                 for c in self.classes for j in range(c.ops)]
        random.Random(f"{self.seed}:{p}").shuffle(order)
        return order

    def smallest(self) -> Item:
        return min((c.items[0] for c in self.classes), key=lambda it: it.n)


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int                                   # 2: one variable, 3: the box problem
    build: Callable[[int, Path], Corpus]       # (seed, scratch dir) -> corpus
    op: Callable[[Item], Any]
    constraints: Callable[[Item], list]        # the op's problem, for the checker
    answer: Callable[[Any], tuple]             # op output -> (status, t) or (x, y, t)
    # Seconds a run budgets for one pass: a run of S seconds makes
    # round(S / pass_seconds) passes, the same on any host.  At the seed
    # commit one pass takes about this long at reference speed.
    pass_seconds: float


def _solution2(sol) -> tuple:
    return sol.status.value, sol.t


# --- cli-fit -------------------------------------------------------------
# (rows, ops per pass, distinct files).  With 20 ops a pass the p50 rank
# falls mid-way through the 3162-row files and the p90 rank mid-way through
# the 1e4-row ones, so neither sits on a class boundary; the 1e5-row file
# (about 60% of the time) sets the goodput.
CLI_FIT = ((1_000, 3, 3), (3_162, 14, 14), (10_000, 2, 2), (100_000, 1, 1))


def build_cli_fit(seed: int, workdir: Path) -> Corpus:
    classes = []
    index = 0
    for rows, ops, distinct in CLI_FIT:
        items = []
        for _ in range(distinct):
            path = workdir / f"fit_{index:03d}.txt"
            argv = ["gen", "--n", str(rows), "--seed", str(seed),
                    "--index", str(index), "--out", str(path)]
            if minmaxlp.cli.main(argv) != 0:
                raise RuntimeError(f"minmaxlp gen failed: {argv}")
            items.append(Item(f"cli-fit/{index}", f"rows={rows}", rows,
                              (str(path), rows, seed, index)))
            index += 1
        classes.append(SizeClass(f"rows={rows}", ops, items))
    return Corpus(seed, classes)


def op_cli_fit(item: Item) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = minmaxlp.cli.main(["solve2d", item.data[0], "--mode", "abs",
                                  "--validate"])
    if code != 0:
        raise ExitStatus(code, err.getvalue())
    return out.getvalue()


def constraints_cli_fit(item: Item) -> list:
    # Regenerated, not re-parsed: the file's text is the generator's output
    # in shortest round-trip form, so this is the same problem.
    _, rows, seed, index = item.data
    spec = minmaxlp.GenSpec(n=rows, seed=seed)
    return minmaxlp.expand_absolute(minmaxlp.gen2d(spec, index=index))


def answer_cli_fit(raw: str) -> tuple:
    d = json.loads(raw)
    return d["status"], d.get("t")


# --- lib-gauss2d ---------------------------------------------------------
# (n, ops per pass, distinct instances).  Every instance is a disjoint
# slice of one n = 1e6 gen2d instance; a prefix of the stream is exactly
# what gen2d returns for the smaller n, and disjoint slices are independent
# Gaussian instances.  With 60 ops a pass the p50 rank falls mid-way
# through the 1e4 class and the p90 rank mid-way through the 1e5 class.
LIB_GAUSS2D = ((1_000, 11, 2), (10_000, 38, 96), (100_000, 10, 10),
               (1_000_000, 1, 1))
LIB_POOL_N = 1_000_000


def build_lib_gauss2d(seed: int, workdir: Path) -> Corpus:
    pool = minmaxlp.gen2d(minmaxlp.GenSpec(n=LIB_POOL_N, seed=seed))
    classes = []
    for n, ops, distinct in LIB_GAUSS2D:
        items = [Item(f"lib-gauss2d/{n}/{k}", f"n={n}", n,
                      pool[k * n:(k + 1) * n]) for k in range(distinct)]
        classes.append(SizeClass(f"n={n}", ops, items))
    return Corpus(seed, classes)


def op_lib_gauss2d(item: Item):
    return minmaxlp.solve(item.data)


# --- fit-degenerate ------------------------------------------------------
# Residual rows (a, c) of |a*x + c| with c = -(s*a + e):
#   exact       s = 0.1, e = 0: every fit is exact (t = 0);
#   equiripple  s = 0.1, e = +-0.25 at random: t = 0.25;
#   dyadic      s = 0.125, e = 0: exact fit with a slope that is a power of 2;
#   noisy       s = 0.1, e ~ N(0, 1e-9): nearly exact.
# At the seed commit solve() raises ContractViolation on every exact fit and
# on about half the equiripple ones; the other two families solve.  Ops per
# pass and residual count; shares 0.6 / 0.2 / 0.2 keep the p50 rank among
# solved ops and the p90 rank inside the exact-fit failures.  Each pass
# takes new inputs, so the random share of failing equiripple fits averages
# over hundreds of them.
FIT_FAMILIES = {"dyadic": 15, "noisy": 15, "equiripple": 10, "exact": 10}
FIT_RESIDUALS = (8, 10, 12)
FIT_DISTINCT_PASSES = 12


def _fit_rows(family: str, m: int, rng: np.random.Generator) -> list:
    a = rng.normal(0.0, SIGMA, m)
    if family == "exact":
        c = -(0.1 * a)
    elif family == "dyadic":
        c = -(0.125 * a)
    elif family == "equiripple":
        c = -(0.1 * a + rng.choice((0.25, -0.25), m))
    elif family == "noisy":
        c = -(0.1 * a + rng.normal(0.0, 1e-9, m))
    else:
        raise ValueError(f"unknown family {family!r}")
    return list(zip(a.tolist(), c.tolist()))


def build_fit_degenerate(seed: int, workdir: Path) -> Corpus:
    classes = []
    for fi, (family, ops) in enumerate(FIT_FAMILIES.items()):
        for m in FIT_RESIDUALS:
            label = f"{family}/m={m}"
            items = [Item(f"fit-degenerate/{label}/{k}", label, m,
                          _fit_rows(family, m,
                                    np.random.default_rng([seed, fi, m, k])))
                     for k in range(ops * FIT_DISTINCT_PASSES)]
            classes.append(SizeClass(label, ops, items))
    return Corpus(seed, classes)


def op_fit_degenerate(item: Item):
    return minmaxlp.solve(minmaxlp.expand_absolute(item.data))


# --- box3d ---------------------------------------------------------------
# Latency grows with the cube of the constraints prune keeps, and the kept
# share varies from instance to instance (at n = 300 one solve takes
# 0.09-0.46 s), so a percentile is only steady across seeds when it is
# taken over hundreds of distinct instances.  Sizes stop at 134 so that
# several hundred distinct instances per class fit a run; each pass uses
# new ones.  The p50 rank falls 44% into n = 90 and the p90 rank mid-way
# through n = 134, where that class's latencies lie densest; a rank in its
# long upper tail moved 10% from seed to seed.
BOX3D = ((60, 80, 480), (90, 160, 960), (134, 60, 360))


def build_box3d(seed: int, workdir: Path) -> Corpus:
    classes = []
    for n, ops, distinct in BOX3D:
        spec = minmaxlp.GenSpec(n=n, seed=seed, dim=3)
        items = [Item(f"box3d/{n}/{k}", f"n={n}", n,
                      minmaxlp.gen3d(spec, index=k)) for k in range(distinct)]
        classes.append(SizeClass(f"n={n}", ops, items))
    return Corpus(seed, classes)


def op_box3d(item: Item):
    return minmaxlp.solve3d(item.data)


WORKLOADS = {w.name: w for w in (
    Workload("cli-fit", 2, build_cli_fit, op_cli_fit, constraints_cli_fit,
             answer_cli_fit, 1.5),
    Workload("lib-gauss2d", 2, build_lib_gauss2d, op_lib_gauss2d,
             lambda item: item.data, _solution2, 2.0),
    Workload("fit-degenerate", 2, build_fit_degenerate, op_fit_degenerate,
             lambda item: minmaxlp.expand_absolute(item.data), _solution2, 2.0),
    Workload("box3d", 3, build_box3d, op_box3d, lambda item: item.data,
             lambda sol: (sol.x, sol.y, sol.t), 2.5),
)}
