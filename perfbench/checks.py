"""Answer checker, run after the timed loop.

2D answers are compared with `solve_baseline` on every input, and with
`brute2d` where the problem has at most BRUTE2D_MAX_N constraints.  3D
answers are re-evaluated over all constraints, compared with the best of
the four `boundary_via_2d` edge solves, and with the unpruned `brute3d_box`
where n <= BRUTE3D_MAX_N.  Tolerances are the acceptance tests' own:
1e-12 against the baseline (C2), 1e-9 against an oracle (C1, C6).
References are computed once per distinct input.
"""

from __future__ import annotations

import time

import numpy as np

import minmaxlp

BASELINE_TOL = 1e-12
ORACLE_TOL = 1e-9
# brute2d evaluates every crossing against every constraint, O(n^3): on a
# 2-CPU Xeon it takes 10 ms at 200 constraints, 1.3 s at 1000 and 18 s at
# 2000, so only the small fit-degenerate problems get it; every 2D answer
# is still compared with the exact-predicate baseline.
BRUTE2D_MAX_N = 200
BRUTE3D_MAX_N = 60


def close(got, want, tol) -> bool:
    """Relative comparison with an absolute floor of 1."""
    return abs(got - want) <= tol * max(1.0, abs(want))


class Checker:
    def __init__(self, workload):
        self.workload = workload
        self._refs: dict[str, tuple] = {}
        self.baseline_s: dict[str, float] = {}  # key -> solve_baseline seconds
        self.messages: list[str] = []

    def check(self, item, raw_answer) -> bool:
        """True iff the op's output is a correct answer for its input."""
        got = self.workload.answer(raw_answer)
        if self.workload.dim == 2:
            problems = self._check_2d(item, *got)
        else:
            problems = self._check_3d(item, *got)
        if problems and len(self.messages) < 20:
            self.messages.append(f"{item.key}: {'; '.join(problems)}")
        return not problems

    def _reference_2d(self, item):
        ref = self._refs.get(item.key)
        if ref is None:
            cs = self.workload.constraints(item)
            t0 = time.perf_counter()
            base = minmaxlp.solve_baseline(cs)
            self.baseline_s[item.key] = time.perf_counter() - t0
            brute = minmaxlp.brute2d(cs) if len(cs) <= BRUTE2D_MAX_N else None
            ref = self._refs[item.key] = (base, brute)
        return ref

    def _check_2d(self, item, status, t) -> list[str]:
        problems = []
        for name, ref, tol in zip(("baseline", "brute2d"),
                                  self._reference_2d(item),
                                  (BASELINE_TOL, ORACLE_TOL)):
            if ref is None:
                continue
            if status != ref.status.value:
                problems.append(f"status {status} vs {name} {ref.status.value}")
            elif ref.t is not None and not close(t, ref.t, tol):
                problems.append(f"t={t!r} vs {name} {ref.t!r}")
        return problems

    def _reference_3d(self, item):
        ref = self._refs.get(item.key)
        if ref is None:
            cs = self.workload.constraints(item)
            edges = [sol.t for _, sol in minmaxlp.boundary_via_2d(cs)]
            brute = (minmaxlp.brute3d_box(cs).t if len(cs) <= BRUTE3D_MAX_N
                     else None)
            ref = self._refs[item.key] = (np.asarray(cs, dtype=float),
                                          min(edges), brute)
        return ref

    def _check_3d(self, item, x, y, t) -> list[str]:
        coeffs, edge_best, brute = self._reference_3d(item)
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            return [f"({x!r}, {y!r}) outside the unit box"]
        problems = []
        value = float(np.max(coeffs @ np.array([x, y, 1.0])))
        if not close(value, t, ORACLE_TOL):
            problems.append(f"objective at the answer is {value!r}, t={t!r}")
        tol = ORACLE_TOL * max(1.0, abs(t))
        if edge_best < t - tol:
            problems.append(f"edge value {edge_best!r} undercuts t={t!r}")
        on_edge = x in (0.0, 1.0) or y in (0.0, 1.0)
        if on_edge and abs(edge_best - t) > tol:
            problems.append(f"boundary t={t!r} but best edge {edge_best!r}")
        if brute is not None and not close(t, brute, ORACLE_TOL):
            problems.append(f"t={t!r} vs unpruned brute3d_box {brute!r}")
        return problems
