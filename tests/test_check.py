"""The answer checks: exact weak-duality certificates for both problem kinds.

Every solver's answers on the corpora below must pass; answers with t
raised by 1e-13 relative, or with the box point moved by 1e-3, must not.
Where the constraint terms cancel to a t far below their magnitudes, the
rounding bound of the certificate is wider than 1e-13 * |t|, so the
mutant corpora hold no such cases.
"""

import math

import numpy as np
import pytest

from minmaxlp import (ContractViolation, GenSpec, NonFiniteInput, Solution2,
                      Solution3, Status, brute2d, brute3d_box, check2d,
                      check3d, expand_absolute, gen2d, gen3d, solve,
                      solve3d, solve_baseline)
from minmaxlp import baseline, oracle, prune3d, solver2d
from minmaxlp.model import columns, objective


def _fit(family, m, seed):
    """Residual rows |a*x + c| of an exact, dyadic, equiripple or noisy
    line fit, as constraint pairs."""
    rng = np.random.default_rng([seed, m])
    a = rng.normal(0.0, math.sqrt(10.0), m)
    e = {"exact": 0.0, "dyadic": 0.0,
         "equiripple": rng.choice((0.25, -0.25), m),
         "noisy": rng.normal(0.0, 1e-9, m)}[family]
    s = 0.125 if family == "dyadic" else 0.1
    return expand_absolute(np.stack([a, -(s * a + e)], axis=1))


def _corpus2d():
    cases = [(f"gauss/{n}/{k}", gen2d(GenSpec(n=n, seed=70 + n), index=k))
             for n in (1, 2, 3, 10, 200, 2000) for k in range(8)]
    cases += [(f"{fam}/{m}/{k}", _fit(fam, m, k))
              for fam in ("exact", "dyadic", "equiripple", "noisy")
              for m in (1, 8, 12, 40) for k in range(4)]
    cases += [(f"scaled/{s}/{k}",
               np.asarray(gen2d(GenSpec(n=20, seed=3), index=k)) * s)
              for s in (1e299, 1e-301, 2.0 ** -1060) for k in range(4)]
    return cases


CORPUS2D = _corpus2d()
# terms of up to 1e308 cancel to t = 0 and t = -1
CANCELLING2D = [
    ("found", [(1e308, 1e308), (-1e308, -1e308), (1.0, 0.0)]),
    ("overflowing product", [(1.5e308, -1.5e308), (-1.0, 0.0)]),
]


def _points(m, count, seed):
    """Planes through one point in or near the box, at height 1."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a, b = rng.normal(0.0, 3.0, m), rng.normal(0.0, 3.0, m)
        x0, y0 = rng.uniform(0.0, 1.0, 2)
        out.append(np.stack([a, b, 1.0 - a * x0 - b * y0], axis=1))
    return out


def _corpus3d():
    cases = [(f"gauss/{n}/{k}", gen3d(GenSpec(n=n, seed=90 + n, dim=3),
                                      index=k))
             for n in (1, 2, 3, 10, 30, 60, 3000) for k in range(6)]
    rng = np.random.default_rng(1)
    cases += [(f"grid/{k}", rng.integers(-2, 3, size=(30, 3)) / 2.0)
              for k in range(12)]
    cases += [(f"point/{k}", p) for k, p in enumerate(_points(40, 6, 2))]
    for k in range(6):
        g = np.asarray(gen3d(GenSpec(n=15, seed=4, dim=3), index=k))
        cases.append((f"dup/{k}", np.concatenate([g, g[::2], g[:3]])))
    cases += [("found", [(1e308, 0.0, 1e308), (-1e308, 0.5, 0.0)]),
              ("edge", [(0.0, 0.0, 1e308), (0.0, 0.5, 0.0)]),
              ("corner", [(-9e307, -9e307, 9e307)])]
    return cases


CORPUS3D = _corpus3d()
IDS2D = [name for name, _ in CORPUS2D]
IDS3D = [name for name, _ in CORPUS3D]


@pytest.mark.parametrize("solver", [solve, solve_baseline, brute2d],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("cs", [cs for _, cs in CORPUS2D + CANCELLING2D],
                         ids=IDS2D + [n for n, _ in CANCELLING2D])
def test_2d_right_answers_pass(cs, solver):
    if solver is brute2d and len(cs) > 200:
        pytest.skip("brute2d is quadratic")
    check2d(cs, solver(cs))


@pytest.mark.parametrize("cs", [cs for _, cs in CORPUS2D], ids=IDS2D)
def test_2d_raised_t_fails(cs):
    sol = solve(cs)
    if sol.status is Status.UNBOUNDED:
        pytest.skip("no t to raise")
    wrong = Solution2(Status.OPTIMAL, x=sol.x,
                      t=sol.t + 1e-13 * max(1.0, abs(sol.t)))
    with pytest.raises(ContractViolation, match="lower bound"):
        check2d(cs, wrong)


@pytest.mark.parametrize("solver", [solve3d, brute3d_box],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("cs", [cs for _, cs in CORPUS3D], ids=IDS3D)
def test_3d_right_answers_pass(cs, solver):
    if solver is brute3d_box and len(cs) > 60:
        pytest.skip("brute3d_box is cubic")
    check3d(cs, solver(cs))


# Gaussian box problems scaled near the ends of the double range, and
# into the subnormals
SCALED3D = [np.asarray(gen3d(GenSpec(n=20, seed=6, dim=3), index=k)) * s
            for s in (1e299, 1e-301, 1e160, 2.0 ** -1060) for k in range(3)]


@pytest.mark.parametrize("cs", SCALED3D)
def test_3d_scaled_answers(cs):
    check3d(cs, solve3d(cs))
    check3d(cs, brute3d_box(cs))


@pytest.mark.parametrize("cs", _points(10_000, 2, 3), ids=["p0", "p1"])
def test_3d_planes_through_one_point_pass(cs):
    check3d(cs, solve3d(cs))


def test_3d_large_gaussian_passes():
    cs = gen3d(GenSpec(n=100_000, seed=41, dim=3))
    check3d(cs, solve3d(cs))


GAUSS3D = [(name, cs) for name, cs in CORPUS3D if name.startswith("gauss")]


@pytest.mark.parametrize("cs", [cs for _, cs in GAUSS3D],
                         ids=[name for name, _ in GAUSS3D])
def test_3d_raised_t_fails(cs):
    sol = solve3d(cs)
    wrong = Solution3(x=sol.x, y=sol.y,
                      t=sol.t + 1e-13 * max(1.0, abs(sol.t)))
    with pytest.raises(ContractViolation, match="lower bound"):
        check3d(cs, wrong)


@pytest.mark.parametrize("cs", [cs for _, cs in GAUSS3D],
                         ids=[name for name, _ in GAUSS3D])
def test_3d_moved_point_fails(cs):
    # t is the objective at the moved point, so only the lower bound
    # can tell the point is not optimal
    sol = solve3d(cs)
    x = sol.x + 1e-3 if sol.x <= 0.5 else sol.x - 1e-3
    wrong = Solution3(x=x, y=sol.y, t=objective(columns(cs, 3), x, sol.y))
    with pytest.raises(ContractViolation, match="lower bound"):
        check3d(cs, wrong)


def test_found_offset_overflow_input():
    # solve3d answers (0, 0, 1e308); the x = 1 edge offset a + c
    # overflows, which the certificate never forms
    cs = [(1e308, 0.0, 1e308), (-1e308, 0.5, 0.0)]
    sol = solve3d(cs)
    assert (sol.x, sol.y, sol.t) == (0.0, 0.0, 1e308)
    check3d(cs, sol)


def test_statuses():
    check2d([(1.0, 0.0), (2.0, 1.0)], Solution2(Status.UNBOUNDED))
    check2d([(1, 0)], Solution2(Status.UNBOUNDED))
    check2d([(-1.0, 0.0)], Solution2(Status.UNBOUNDED))
    check2d([(1, 0), (-1, 0)], Solution2(Status.OPTIMAL, x=0.0, t=0.0))
    check2d([(0.0, 1.0), (0.0, -2.0)], Solution2(Status.OPTIMAL, x=5.0, t=1.0))
    with pytest.raises(ContractViolation, match="status unbounded"):
        check2d([(1.0, 0.0), (0.0, 1.0)], Solution2(Status.UNBOUNDED))
    with pytest.raises(ContractViolation, match="status optimal"):
        check2d([(1.0, 0.0), (2.0, 1.0)],
                Solution2(Status.OPTIMAL, x=0.0, t=1.0))


@pytest.mark.filterwarnings("error")
def test_malformed_answers():
    with pytest.raises(ContractViolation, match="outside the box"):
        check3d([(1.0, 0.0, 0.0)], Solution3(x=1.5, y=0.0, t=1.5))
    with pytest.raises(ContractViolation, match="not finite"):
        check3d([(1.0, 0.0, 0.0)], Solution3(x=0.0, y=0.0, t=math.nan))
    with pytest.raises(ContractViolation, match="not finite"):
        check2d([(1.0, 0.0), (-1.0, 0.0)],
                Solution2(Status.OPTIMAL, x=0.0, t=math.inf))
    # a missing field is no finite answer either
    with pytest.raises(ContractViolation, match="check2d: .*not finite"):
        check2d([(1.0, 0.0), (-1.0, 0.0)], Solution2(Status.OPTIMAL))
    for x, t in [(None, 1.0), (0.0, None)]:
        with pytest.raises(ContractViolation, match="check3d: .*not finite"):
            check3d([(1.0, 0.0, 0.0)], Solution3(x=x, y=0.0, t=t))
    # a feasible point that is not optimal, and an infeasible one
    with pytest.raises(ContractViolation, match="no near-tight"):
        check2d([(1, 0), (-1, 0)], Solution2(Status.OPTIMAL, x=0.5, t=0.5))
    with pytest.raises(ContractViolation, match="objective"):
        check2d([(1, 0), (-1, 0)], Solution2(Status.OPTIMAL, x=0.0, t=-0.1))
    with pytest.raises(NonFiniteInput, match="constraint 1 "):
        check2d([(1.0, 0.0), (math.nan, 0.0)],
                Solution2(Status.OPTIMAL, x=0.0, t=0.0))
    # a point whose objective overflows certifies no finite t
    with pytest.raises(ContractViolation, match="objective"):
        check2d([(1e308, 1e308), (-1.0, 0.0)],
                Solution2(Status.OPTIMAL, x=1e10, t=0.0))


def test_no_reference_solver_is_called(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a check called a reference solver")
    for module, name in [(baseline, "solve_baseline"), (oracle, "brute2d"),
                         (oracle, "brute3d_box"), (prune3d, "brute3d_box"),
                         (prune3d, "boundary_via_2d"),
                         (prune3d, "solve_boxed"),
                         (solver2d, "solve_boxed")]:
        monkeypatch.setattr(module, name, forbidden)
    for _, cs in CORPUS2D[::7]:
        check2d(cs, solve(cs))
    for _, cs in CORPUS3D[::5]:
        check3d(cs, solve3d(cs))
