"""Pairs problems: ``expand_absolute`` and ``signed_pairs`` hold the n
rows of a residual fit once, and every reader answers as on the 2n
constraints r, -r written out.

The differential tests compare each pairs problem with ``Problem`` of the
(k, 2n) array ``columns`` writes out, bit for bit: the solve's x, t,
iterations and pivot points as float hex, objective values, raised errors,
and the verdicts and messages of the answer checks.
"""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from conftest import EDGE_VALUES
from minmaxlp import (Constraint2, Constraint3, ContractViolation, GenSpec,
                      Problem, Solution2, Status, check2d, check3d, cli,
                      expand_absolute, gen2d, gen3d, solve, solve3d,
                      solve_boxed)
from minmaxlp.model import columns, exact_objective, objective, signed_pairs


def _written_out(p):
    """``Problem`` of the array of every constraint of ``p``."""
    return Problem(np.array(columns(p, len(p._rows))))


def _hex(v):
    return v.hex() if isinstance(v, float) else repr(v)


def _outcome(fn, *args):
    """What ``fn(*args)`` gives, bit for bit, or the error it raises."""
    try:
        got = fn(*args)
    except (ValueError, ArithmeticError, ContractViolation) as e:
        return type(e).__name__, str(e)
    if isinstance(got, Solution2):
        return (got.status, _hex(got.x), _hex(got.t), got.iterations,
                [tuple(map(_hex, (*p, *q))) for p, q in got.pivot_pairs])
    return _hex(got)


def _answers(cs):
    """Every 2D reader's outcome on ``cs``: solve, objective at the answer
    and at a few other points, the checks of the answer and of its
    mutants (t off by 1e-11 and 1e-13 relative, a wrong status), and
    solve_boxed on a box about the answer and one away from it."""
    out = [_outcome(solve, cs)]
    try:
        sol = solve(cs)
    except (ValueError, ArithmeticError):
        return out
    xs = [0.0, -0.0, 1.5, -2.5e-300, 1e300]
    sols = [sol, Solution2(Status.UNBOUNDED)]
    if sol.status is Status.OPTIMAL:
        xs += [sol.x, sol.x + 1e-3]
        sols += [Solution2(Status.OPTIMAL, sol.x, sol.t + r * max(1.0,
                                                                  abs(sol.t)))
                 for r in (1e-11, 1e-13)]
    out += [_outcome(objective, cs, x) for x in xs]
    out += [_outcome(check2d, cs, s) for s in sols]
    out += [_outcome(solve_boxed, cs, lo, hi)
            for lo, hi in ((-1.0, 1.0), (5.0, 6.0))]
    return out


def _assert_same(rows):
    """The pairs of ``rows`` answer as their constraints written out."""
    pairs = expand_absolute(rows)
    assert pairs._pairs
    assert _answers(pairs) == _answers(_written_out(pairs))


def _fit(family, m, seed):
    """Residual rows (a, c) of an exact, dyadic, equiripple or noisy line
    fit |a*x + c|, as the fit-degenerate benchmark draws them."""
    rng = np.random.default_rng([seed, m])
    a = rng.normal(0.0, math.sqrt(10.0), m)
    e = {"exact": 0.0, "dyadic": 0.0,
         "equiripple": rng.choice((0.25, -0.25), m),
         "noisy": rng.normal(0.0, 1e-9, m)}[family]
    s = 0.125 if family == "dyadic" else 0.1
    return list(zip(a.tolist(), (-(s * a + e)).tolist()))


FAMILIES = ("exact", "dyadic", "equiripple", "noisy")


class TestDifferential:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_small_fits(self, family):
        for m in (8, 10, 12):
            for seed in range(6):
                _assert_same(_fit(family, m, seed))

    @pytest.mark.parametrize("family,m", [
        ("exact", 1000), ("dyadic", 1000), ("equiripple", 1000),
        ("noisy", 1000), ("exact", 10_000), ("equiripple", 10_000),
        ("dyadic", 100_000), ("equiripple", 100_000)])
    def test_large_fits(self, family, m):
        _assert_same(np.array(_fit(family, m, 1)))

    @pytest.mark.parametrize("m", [1, 2, 5, 31, 32, 40, 1000, 70_000])
    def test_slopes_of_both_zero_signs(self, m):
        # rows with a = +0.0 and a = -0.0 are left points only, at
        # x = +-0.0; some intercepts are zeros of both signs
        rng = np.random.default_rng(m)
        a = rng.normal(0.0, 3.0, m)
        c = rng.normal(0.0, 3.0, m)
        flat = rng.random(m) < 0.25
        a[flat] = rng.choice((0.0, -0.0), flat.sum())
        signed = c.copy()
        signed[rng.random(m) < 0.3] = rng.choice((0.0, -0.0))
        for rows in (np.stack([a, c], 1), np.stack([a, signed], 1),
                     np.stack([a * 0.0, signed], 1),
                     np.stack([np.where(flat, a, 0.0), -np.abs(c)], 1)):
            _assert_same(rows)

    @pytest.mark.parametrize("rows", [
        [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)],
        [(-0.0, 0.0), (0.0, 0.0)],
        [(0.0, 1.0), (-0.0, -1.0), (1.0, 0.0)],
        [(5e-324, 1.7e308), (-0.0, 1.7e308), (0.0, -1.7e308)],
        [(1e308, 1e308), (-1e308, -1e308), (1.0, 0.0)],
        [(1.5e308, -1.5e308), (-1.0, 0.0)],
        [(1.7976931348623157e308, -1e-310), (-5e-324, 2.5)],
    ], ids=["zeros", "flat-first", "flat-and-slope", "far", "cancelling",
            "overflowing-product", "extremes"])
    def test_edge_rows(self, rows):
        _assert_same(rows)

    @pytest.mark.parametrize("m", [3, 40, 300])
    def test_edge_values_and_duplicates(self, m):
        rng = np.random.default_rng(m)
        rows = rng.choice(EDGE_VALUES, (m, 2))
        _assert_same(rows)
        _assert_same(np.concatenate([rows, rows[::-1], rows]))

    @pytest.mark.parametrize("m", [200, 5000])
    def test_huge_rows(self, m):
        # rows as the CI's huge.txt holds them: dual xs whose differences
        # exceed the double range
        r = np.random.default_rng(m)
        rows = np.stack([r.uniform(-1, 1, m) * 1.7e308,
                         r.uniform(-1, 0, m) * 1.7e308], 1)
        _assert_same(rows)

    @pytest.mark.parametrize("m", [1, 30, 1000])
    def test_box_problems(self, m, tmp_path, capsys):
        rows = np.asarray(gen3d(GenSpec(n=m, seed=m, dim=3)))
        pairs = signed_pairs(columns(rows, 3))
        out = _written_out(pairs)
        got, want = solve3d(pairs), solve3d(out)
        assert tuple(map(_hex, (got.x, got.y, got.t))) == tuple(
            map(_hex, (want.x, want.y, want.t)))
        check3d(pairs, got)
        assert _hex(objective(pairs, 0.25, 0.5)) == _hex(
            objective(out, 0.25, 0.5))
        wrong = type(got)(x=got.x, y=got.y, t=got.t * 0.5 - 1.0)
        verdicts = []
        for p in (pairs, out):
            with pytest.raises(ContractViolation) as e:
                check3d(p, wrong)
            verdicts.append(str(e.value))
        assert verdicts[0] == verdicts[1]
        # the CLI's --mode abs answers as on the rows written out
        printed = []
        for name, p, mode in (("rows.txt", Problem(rows.T),
                               ["--mode", "abs"]), ("out.txt", out, [])):
            (tmp_path / name).write_text(cli._format_constraints(p))
            assert cli.main(["solve3d", str(tmp_path / name), "--validate",
                             *mode]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_exact_objective(self):
        rows = [(1e308, 1e308), (-1.5e308, 2.0), (3.0, -1e308)]
        pairs = expand_absolute(rows)
        for x in (1.0, -2.0, 1e300):
            assert _hex(exact_objective(pairs, x)) == _hex(
                exact_objective(columns(pairs, 2), x))
        # terms of opposite infinite sign make a NaN value
        box = signed_pairs(columns([(1e308, -1e308, 1.0),
                                    (2.0, 3.0, -1e308)], 3))
        for point in ((10.0, 10.0), (0.5, 0.5), (1e300, -1e300)):
            assert _hex(objective(box, *point)) == _hex(
                objective(_written_out(box), *point))


class TestSequence:
    """A pairs problem reads as the list of its 2n constraints."""

    ROWS = [(1.5, -0.0), (-0.0, 2.0), (-3.0, 0.25)]

    def test_reads_as_its_constraints(self):
        pairs = expand_absolute(self.ROWS)
        want = [Constraint2(*s) for a, c in self.ROWS
                for s in ((a, c), (-a, -c))]
        assert len(pairs) == 6
        assert pairs == want and list(pairs) == want
        assert [pairs[i] for i in range(-6, 6)] == want * 2
        assert [[v.hex() for v in pairs[i]] for i in range(6)] == [
            [v.hex() for v in r] for r in want]
        for i in (6, -7):
            with pytest.raises(IndexError):
                pairs[i]
        assert pairs[1:5] == want[1:5] and pairs[::-2] == want[::-2]
        assert np.asarray(pairs).tolist() == [list(r) for r in want]

    def test_equals_its_constraints_written_out(self):
        pairs = expand_absolute(self.ROWS)
        out = _written_out(pairs)
        assert pairs == out and out == pairs
        assert pairs != Problem(columns(self.ROWS, 2))
        assert pairs == expand_absolute(Problem(columns(self.ROWS, 2)))

    def test_whole_pair_slices_are_views(self):
        pairs = expand_absolute(self.ROWS)
        want = list(pairs)
        for i in (slice(None), slice(2, 6), slice(-4, None), slice(0, 4, 1),
                  slice(-2, 2), slice(4, 2), slice(6, 100)):
            part = pairs[i]
            assert part._pairs and part == want[i]
            assert np.shares_memory(part._rows, pairs._rows) or not part
        for i in (slice(1, 5), slice(0, 5), slice(None, None, 2),
                  slice(None, None, -1), slice(-3, None)):
            part = pairs[i]
            assert not part._pairs and part == want[i]

    def test_a_whole_pair_slice_of_a_large_fit_allocates_no_rows(self):
        pairs = expand_absolute(gen2d(GenSpec(n=10**6, seed=8)))
        tracemalloc.start()
        try:
            part = pairs[:10]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024
        assert part._pairs and part._rows.base is not None
        out = columns(pairs, 2)[:, :10]
        assert part == Problem(out) and Problem(out) == part
        got = np.asarray(part)
        assert got.shape == (10, 2) and got.tobytes() == out.T.tobytes()

    def test_copies_keep_the_mark(self):
        pairs = expand_absolute(self.ROWS)
        for got in (pickle.loads(pickle.dumps(pairs)), copy.copy(pairs),
                    copy.deepcopy(pairs)):
            assert got._pairs and len(got) == 6 and got == pairs
            assert not got._rows.flags.writeable

    def test_three_fields(self):
        rows = [(1.0, -2.0, 0.0), (-0.0, 3.5, -1e308)]
        pairs = signed_pairs(columns(rows, 3))
        assert list(pairs) == [Constraint3(*s) for r in rows
                               for s in (r, tuple(-v for v in r))]

    def test_holds_the_rows_without_a_copy(self):
        cs = gen2d(GenSpec(n=1000, seed=4))
        pairs = expand_absolute(cs)
        assert pairs._rows is columns(cs, 2)
        assert len(pairs) == 2000
        out = columns(pairs, 2)
        assert out.shape == (2, 2000) and not out.flags.writeable
        assert out.flags.c_contiguous
        assert not np.shares_memory(out, pairs._rows)
