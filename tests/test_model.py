import copy
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from minmaxlp import (Constraint2, Constraint3, ContractViolation,
                      EmptyProblem, GenSpec, NonFiniteInput, Problem,
                      Solution2, Solution3, Status, boundary_via_2d, brute2d,
                      brute3d_box, check2d, check3d, expand_absolute, gen2d,
                      gen3d, lower_hull, prune, solve, solve3d,
                      solve_baseline, solve_boxed)
from conftest import assert_one_array, corpus2d, objective_corpus
from minmaxlp import cli, model, prune3d, reader
from minmaxlp.model import columns, exact_objective, objective, signed_pairs

ROWS = [Constraint2(1.0, -2.0), Constraint2(-0.0, 3.5), Constraint2(2.5, 0.0),
        Constraint2(-4.0, 1e308), Constraint2(5e-324, -1.0)]


@pytest.fixture
def prob():
    return Problem([r.a for r in ROWS], [r.b for r in ROWS])


class TestSequence:
    """A problem reads like the list of its rows."""

    def test_len_iter_unpack(self, prob):
        assert len(prob) == len(ROWS)
        assert list(prob) == ROWS
        first, *_, last = prob
        assert (first, last) == (ROWS[0], ROWS[-1])
        assert all(type(r) is Constraint2 for r in prob)
        assert all(type(v) is float for r in prob for v in r)

    @pytest.mark.parametrize("i", range(-len(ROWS), len(ROWS)))
    def test_index(self, prob, i):
        row = prob[i]
        assert type(row) is Constraint2 and row == ROWS[i]
        assert [v.hex() for v in row] == [v.hex() for v in ROWS[i]]
        assert all(type(v) is float for v in row)

    @pytest.mark.parametrize("i", [len(ROWS), -len(ROWS) - 1])
    def test_index_out_of_range(self, prob, i):
        with pytest.raises(IndexError):
            prob[i]

    def test_non_integer_index(self, prob):
        with pytest.raises(TypeError):
            prob[1.0]

    @pytest.mark.parametrize("outer,inner", [
        (slice(None), slice(None)), (slice(1, 4), slice(1, None)),
        (slice(None, None, -1), slice(1, None, 2)), (slice(-3, None), slice(-1)),
        (slice(4, 1), slice(None)), (slice(0, 5, 2), slice(None, None, -1))])
    def test_slices_of_slices(self, prob, outer, inner):
        got = prob[outer][inner]
        assert isinstance(got, Problem)
        assert got == ROWS[outer][inner]
        assert list(got) == ROWS[outer][inner]
        assert len(got) == len(ROWS[outer][inner])

    def test_equality_both_orders(self, prob):
        same = Problem(np.array([r.a for r in ROWS]),
                       np.array([r.b for r in ROWS]))
        other = prob[:-1]
        assert prob == ROWS and ROWS == prob
        assert prob == same and same == prob
        assert not (prob != ROWS) and not (ROWS != prob)
        assert prob != other and other != prob
        assert prob != ROWS[:-1] and ROWS[:-1] != prob
        assert prob != [tuple(r) for r in ROWS][::-1]
        assert prob != tuple(ROWS)  # a list is never equal to a tuple
        three = Problem(*([r[j] for r in ROWS] for j in range(2)),
                        [0.0] * len(ROWS))
        assert prob != three and three != prob
        assert three == [Constraint3(*r, 0.0) for r in ROWS]

    def test_as_array(self, prob):
        arr = np.asarray(prob)
        assert arr.shape == (len(ROWS), 2) and arr.dtype == np.float64
        assert arr.tolist() == [list(r) for r in ROWS]
        assert np.asarray(prob, dtype=float).shape == (len(ROWS), 2)
        assert np.asarray(prob[:0]).shape == (0, 2)

    def test_as_array_is_a_read_only_view(self, prob):
        # The (n, k) rows are the transpose of the problem's (k, n) array:
        # np.asarray gives that view, read-only, and np.array a copy.
        for get in (lambda: np.asarray(prob, copy=False),
                    lambda: prob.__array__(copy=False), lambda: np.asarray(prob)):
            arr = get()
            assert np.shares_memory(arr, columns(prob, 2))
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 7.0
        arr = np.array(prob)
        assert not np.shares_memory(arr, columns(prob, 2))
        arr[0, 0] = 7.0
        assert prob == ROWS

    def test_writes_raise(self, prob):
        with pytest.raises(TypeError):
            prob[0] = Constraint2(0.0, 0.0)
        with pytest.raises(TypeError):
            del prob[0]
        for col in [*columns(prob, 2), *columns(prob[1:3], 2)]:
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 7.0
        assert prob == ROWS

    def test_built_from_a_writable_array_stays_put(self):
        a = np.array([1.0, -1.0])
        p = Problem(a, np.zeros(2))
        with pytest.raises(ValueError, match="read-only"):
            columns(p, 2)[0][0] = 3.0
        assert p[0] == (1.0, 0.0)

    def test_copies_stay_read_only(self, prob):
        for got in (pickle.loads(pickle.dumps(prob)), copy.deepcopy(prob),
                    copy.copy(prob)):
            assert isinstance(got, Problem) and got == prob
            assert not any(c.flags.writeable for c in columns(got, 2))

    def test_unhashable(self, prob):
        with pytest.raises(TypeError):
            hash(prob)


class TestBuild:
    def test_checked_finite_once(self):
        with pytest.raises(NonFiniteInput, match="constraint 2 "):
            Problem([0.0, 1.0, np.nan], [1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteInput, match="constraint 1 "):
            Problem([0.0, 1.0], [1.0, -np.inf], [0.0, 0.0])
        # sums that overflow are not themselves a fault
        Problem([1e308, 1e308], [1e308, -1e308])

    def test_first_non_finite_row_over_all_columns(self):
        # the columns are checked one at a time; the least row is named
        for cols in (([0.0, 0.0, np.inf, 0.0], [0.0, np.nan, 0.0, np.nan]),
                     ([0.0, -np.inf, 0.0], [0.0, 0.0, 0.0], [0, 0, np.nan])):
            with pytest.raises(NonFiniteInput, match="constraint 1 "):
                Problem(*cols)
            with pytest.raises(NonFiniteInput, match="constraint 1 "):
                columns(np.array(cols).T, len(cols))

    @pytest.mark.parametrize("cols", [
        ([1.0],), ([1.0], [1.0], [1.0], [1.0]), ([1.0, 2.0], [1.0]),
        ([[1.0]], [[2.0]])])
    def test_bad_shapes(self, cols):
        with pytest.raises(ValueError):
            Problem(*cols)

    def test_columns_of_a_problem(self):
        p = gen3d(GenSpec(n=7, seed=3, dim=3))
        a, b = columns(p, 2)
        assert a.tolist() == [r.a for r in p] and b.tolist() == [r.b for r in p]
        assert len(columns(p, 3)) == 3
        with pytest.raises(ValueError, match="at least 3"):
            columns(gen2d(GenSpec(n=7, seed=3)), 3)


class TestLayout:
    """Every problem the package builds is one read-only (k, n) array
    with unit-stride rows."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8193])
    def test_generators(self, n):
        assert_one_array(gen2d(GenSpec(n=n, seed=5)), 2)
        assert_one_array(gen3d(GenSpec(n=n, seed=5, dim=3)), 3)

    @pytest.mark.parametrize("n", [1, 5, 31, 32, 1000])
    def test_expand_absolute_and_signed_pairs(self, n):
        # A pairs problem holds its n rows, a problem's own array without a
        # copy, and writes out its 2n constraints as one such array.
        cs = gen2d(GenSpec(n=n, seed=6))
        box = gen3d(GenSpec(n=n, dim=3))
        rows = [tuple(r) for r in cs]  # the short-list path below 32 rows
        for got, k, held in ((expand_absolute(rows), 2, None),
                             (expand_absolute(cs), 2, columns(cs, 2)),
                             (signed_pairs(columns(cs, 2)), 2, columns(cs, 2)),
                             (signed_pairs(columns(box, 3)), 3,
                              columns(box, 3))):
            assert got._pairs and len(got) == 2 * n
            assert got._rows.shape == (k, n) and not got._rows.flags.writeable
            assert got._rows.strides[1] == 8 or n == 1
            assert held is None or got._rows is held
            assert_one_array(Problem._of(columns(got, k)), k)
            assert columns(got, k).tolist() == [
                [w for v in col for w in (v, -v)]
                for col in got._rows.tolist()]
        assert expand_absolute(rows) == expand_absolute(cs)

    def test_every_reader_route_is_one_contiguous_array(self, tmp_path):
        # the decimal pass, loadtxt and the line scan, from a path and
        # from text
        text2 = cli._format_constraints(gen2d(GenSpec(n=3000, seed=9)))
        text3 = cli._format_constraints(
            gen3d(GenSpec(n=3000, seed=9, dim=3)))
        path = tmp_path / "rows.txt"
        for text in (text2, text3, "1.5,-0.0\n", text3.replace(",", " "),
                     "# \u00e9\n" + text2):
            path.write_text(text, encoding="utf-8")
            for got in (reader.parse_constraints(path),
                        reader.parse_constraints(text)):
                _assert_no_slack(got)
                assert got == reader._parse_lines(text)

    @pytest.mark.skipif(not reader._LONG_SIGNIFICAND,
                        reason="the decimal pass needs x87 longdouble")
    @pytest.mark.parametrize("size", [1, 10**7])
    def test_decimal_rows_end_as_one_array(self, size):
        # A file size far below the file's makes the array grow with every
        # chunk; one far above leaves most of it spare.  Either way the
        # rows end as one array with no capacity left over.
        cs = gen3d(GenSpec(n=20_000, seed=9, dim=3))
        text = cli._format_constraints(cs).encode()
        rows = reader._DecimalRows(size)
        step = reader._READ_CHUNK
        assert all(rows.feed(text[i:i + step])
                   for i in range(0, len(text), step))
        got = rows.result()
        _assert_no_slack(got)
        assert got == cs

    def test_pairs_problem_slices_and_reads_written_out(self):
        pairs = expand_absolute(gen2d(GenSpec(n=40, seed=2)))
        assert_one_array(pairs[3:70], 2)
        assert np.asarray(pairs).shape == (80, 2)

    def test_pruned_rows_and_box_edges(self, monkeypatch):
        edges = []
        solve_boxed = prune3d.solve_boxed
        monkeypatch.setattr(prune3d, "solve_boxed", lambda cs, lo, hi: (
            edges.append(cs) or solve_boxed(cs, lo, hi)))
        for n in (1, 3, 40, 1000):
            cs = gen3d(GenSpec(n=n, seed=7, dim=3))
            assert_one_array(prune(cs).kept, 3)
            edges.clear()
            boundary_via_2d(cs)
            assert len(edges) == 4
            for edge in edges:
                assert_one_array(edge, 2)

    def test_built_from_columns_and_arrays(self):
        wide = np.arange(24.0).reshape(4, 6)
        for got in (Problem([1.0, 2.0], [3, 4]),
                    Problem([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                    Problem(wide[0, ::2], wide[1, 1::2], wide[2, 1::2]),
                    Problem(wide[:3, ::2]), Problem(wide[:2].T.T),
                    Problem(np.asfortranarray(wide[:2])),
                    Problem([10**300, 2**70], [-10**300, 1])):
            assert_one_array(got)
        assert Problem(wide[:3, ::2]) == Problem(*wide[:3, ::2])
        assert Problem([10**300, 2**70], [-10**300, 1]) == [
            (1e300, -1e300), (float(2**70), 1.0)]

    def test_an_array_of_rows_is_held_without_a_copy(self):
        rows = np.arange(10.0).reshape(2, 5)
        p = Problem(rows)
        assert np.shares_memory(columns(p, 2), rows) and rows.flags.writeable
        assert_one_array(p[1:4])
        assert np.shares_memory(columns(p[1:4], 2), rows)

    def test_slicing_allocates_no_rows(self):
        cs = gen2d(GenSpec(n=10**6, seed=8))
        tracemalloc.start()
        try:
            part = cs[1000:900_000]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 and len(part) == 899_000


def test_generator_slices_share_memory():
    pool = gen2d(GenSpec(n=1000, seed=8))
    part = pool[250:500]
    for whole, col in zip(columns(pool, 2), columns(part, 2)):
        assert np.shares_memory(whole, col)
        assert col.tolist() == whole[250:500].tolist()
    # no copy per read: both are views of the generator's one array
    assert columns(part, 2).base is columns(pool, 2).base is not None
    assert part == list(pool)[250:500]


# Every entry point that reads constraints, with the fields it reads.
_READERS = {
    "solve": (2, solve),
    "expand_absolute": (2, expand_absolute),
    "solve_boxed": (2, lambda cs: solve_boxed(cs, 0.0, 1.0)),
    "solve_baseline": (2, solve_baseline),
    "lower_hull": (2, lower_hull),
    "check2d": (2, lambda cs: check2d(cs, Solution2(Status.UNBOUNDED))),
    "brute2d": (2, brute2d),
    "brute3d_box": (3, brute3d_box),
    "prune": (3, prune),
    "boundary_via_2d": (3, boundary_via_2d),
    "solve3d": (3, solve3d),
    "check3d": (3, lambda cs: check3d(cs, Solution3(0.0, 0.0, 0.0))),
}


def _assert_no_slack(p):
    """``p`` is one C-contiguous array with no capacity left over."""
    assert_one_array(p)
    rows = p._rows
    assert rows.flags.c_contiguous
    assert rows.base is None or rows.base.nbytes == rows.nbytes


class TestRequireFinite:
    """``require_finite``'s verdicts, with the fast path for floats."""

    @pytest.mark.parametrize("v", [0.0, -0.0, 1.5, 5e-324, -1.7e308, 3,
                                   True, np.float64(2.5), np.float32(0.5),
                                   np.int64(-4), Fraction(1, 3)],
                             ids=repr)
    def test_finite_numbers_pass(self, v):
        model.require_finite((v,), 1.0, "who")
        model.require_finite((0.5, v), v, "who")

    @pytest.mark.parametrize("v", [None, math.nan, math.inf, -math.inf,
                                   np.float64(math.nan), np.float32(math.inf),
                                   "1.0", 1j],
                             ids=repr)
    def test_others_raise(self, v):
        for point, t in (((v,), 1.0), ((1.0,), v), ((1.0, v), 0.0)):
            with pytest.raises(ContractViolation,
                               match="who: the answer is not finite"):
                model.require_finite(point, t, "who")

    def test_an_int_beyond_the_double_range(self):
        with pytest.raises(OverflowError):
            model.require_finite((10**400,), 1.0, "who")


class TestEmpty:
    """``columns`` is the one gate for inputs without constraints.  Empty
    lists for the other ten readers, and empty arrays for the four in
    ``_ARRAYS_ELSEWHERE``, are tested beside each reader."""

    _ARRAYS_ELSEWHERE = {"solve", "solve_baseline", "expand_absolute", "prune"}

    @pytest.mark.parametrize("name", sorted(_READERS))
    def test_zero_row_problem(self, name):
        k, fn = _READERS[name]
        with pytest.raises(EmptyProblem, match="^no constraints$"):
            fn(Problem(*np.empty((k, 0))))

    @pytest.mark.parametrize("name", sorted(set(_READERS) - _ARRAYS_ELSEWHERE))
    def test_zero_row_array(self, name):
        k, fn = _READERS[name]
        with pytest.raises(EmptyProblem, match="^no constraints$"):
            fn(np.empty((0, k)))

    @pytest.mark.parametrize("name", ["check2d", "check3d"])
    def test_empty_list(self, name):
        with pytest.raises(EmptyProblem, match="^no constraints$"):
            _READERS[name][1]([])

    def test_flat_empty_array(self):
        with pytest.raises(EmptyProblem):
            solve(np.array([]))

    @pytest.mark.parametrize("name", sorted(_READERS))
    def test_zero_dim_array_is_a_shape_error(self, name):
        with pytest.raises(ValueError, match="shape"):
            _READERS[name][1](np.array(1.0))


class TestBeyondDoubleRange:
    """A number that no double holds, such as the int 10**400, is a
    non-finite field: every reader raises NonFiniteInput naming its row,
    never the OverflowError of its conversion."""

    @staticmethod
    def rows(k, huge=10**400):
        return [(1.0, 0.0, 0.0)[:k], (huge, 0, 0)[:k], (-1.0, 0.0, 0.0)[:k]]

    @pytest.mark.parametrize("name", sorted(_READERS))
    @pytest.mark.parametrize("huge", [10**400, -10**400,
                                      Fraction(10**400, 3)])
    def test_rows(self, name, huge):
        k, fn = _READERS[name]
        with pytest.raises(NonFiniteInput, match="^constraint 1 is not finite$"):
            fn(self.rows(k, huge))

    @pytest.mark.parametrize("name", sorted(_READERS))
    def test_object_array(self, name):
        k, fn = _READERS[name]
        with pytest.raises(NonFiniteInput, match="^constraint 1 is not finite$"):
            fn(np.array(self.rows(k), dtype=object))

    @pytest.mark.parametrize("cols", [
        ([1.0, 10**400], [0.0, 0.0]),
        ([1.0, 2.0], [0.0, 0.0], [0, -10**400]),
        (np.array([1.0, 10**400], dtype=object), [0.0, 0.0]),
    ])
    def test_problem(self, cols):
        with pytest.raises(NonFiniteInput, match="^constraint 1 is not finite$"):
            Problem(*cols)

    def test_first_bad_row_is_named(self):
        # a nan before the huge int, and a huge int before an inf
        with pytest.raises(NonFiniteInput, match="^constraint 0 "):
            solve([(np.nan, 0.0), (10**400, 0.0), (-1.0, 0.0)])
        with pytest.raises(NonFiniteInput, match="^constraint 1 "):
            Problem([1.0, 10**400, np.inf], [0.0, 0.0, 0.0])

    def test_large_ints_in_range_are_read(self):
        assert columns([(10**300, 0), (-1, 2)], 2).tolist() == [
            [1e300, -1.0], [0.0, 2.0]]
        assert Problem([10**300, 1], [0, 2]) == [(1e300, 0.0), (1.0, 2.0)]


def full_length_objective(cols, *point):
    """``objective`` formed over every row at once, in full-length arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = cols[0] * point[0]
        for col, p in zip(cols[1:-1], point[1:]):
            v += col * p
        v += cols[-1]
        t = float(np.max(v)) + 0.0
    return t if math.isfinite(t) else exact_objective(cols, *point)


@pytest.fixture(scope="module")
def box_corpus():
    return [columns(cs, 3) for cs in objective_corpus()]


class TestObjective:
    """``objective`` reads blocks of ``model._BLOCK`` rows: a maximum,
    a NaN or an overflow may lie in any block."""

    @pytest.fixture(params=[5, 7, 1 << 13], autouse=True)
    def block(self, request, monkeypatch):
        monkeypatch.setattr(model, "_BLOCK", request.param)
        return request.param

    def test_nan_in_a_later_block_takes_the_exact_path(self, block):
        # The last row is inf - inf, a NaN, at (1e10, 1e10), and exactly
        # ulp(1e300) * 1e10, above the finite maximum of the first block.
        big = 1e300
        rows = [(1.0, 1.0, 3.0)] * block + [(big, math.ulp(big) - big, 0.0)]
        t = objective(columns(rows, 3), 1e10, 1e10)
        assert t == 1.487016908477783e+294

    def test_every_sum_overflowing_below_takes_the_exact_path(self, block):
        # -1e308 - 1e308 is -inf in floats, and -inf + 1e308 stays so
        rows = [(-1e308, -1e308, 1e308)] * (block + 1)
        assert objective(columns(rows, 3), 1.0, 1.0) == -1e308

    def test_negative_zero_comes_out_as_zero(self, block):
        rows = [(0.0, 0.0, -1.0)] * block + [(-1.0, -1.0, -0.0)]
        for cols, point in ((columns(rows, 3), (0.0, 0.0)),
                            (columns(rows, 3)[::2], (0.0,))):
            t = objective(cols, *point)
            assert t == 0.0 and math.copysign(1.0, t) == 1.0

    def test_maximum_beyond_the_double_range(self, block):
        # above: the rows of the last block overflow; below: every row does
        for rows, t in (([(1.0, 1.0, 1.0)] * block + [(1e308,) * 3] * 3,
                         math.inf),
                        ([(-1e308,) * 3] * 8, -math.inf)):
            cols = columns(rows, 3)
            assert objective(cols, 1.0, 1.0) == t
            assert objective(cols[::2], 1.0) == t

    def test_box_corpus_matches_a_full_length_pass(self, box_corpus):
        rng = np.random.default_rng(49)
        for k, cols in enumerate(box_corpus):
            points = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0),
                      tuple(rng.uniform(-2.0, 2.0, 2).tolist())]
            if k % 10 == 0:
                points.append((1e308, -1e308))
            for point in points:
                got = objective(cols, *point)
                assert got.hex() == full_length_objective(cols, *point).hex()

    def test_2d_corpus_matches_a_full_length_pass(self):
        rng = np.random.default_rng(50)
        for n in (1, 5, 6, 7, 8, 40, 1000, 20000):
            for cs in corpus2d(n, 5, seed=51):
                a, b = columns(cs, 2)
                # up to 1e3 rows, also with two far rows, whose values
                # overflow at most x and take the exact path
                far = (np.append(a, [1.7e308, -1.7e308]),
                       np.append(b, [-1e307, -1e307]))
                for cols in ((a, b), far)[:1 + (n <= 1000)]:
                    for x in [0.0, -0.0, 1e300, *rng.normal(0.0, 10.0, 3)]:
                        got = objective(cols, float(x))
                        want = full_length_objective(cols, float(x))
                        assert got.hex() == want.hex()


def test_eval_err_bounds_the_box_filters_rounding():
    # prune3d's filters rest on this: at a box point, with every
    # coefficient at most ``scale`` in magnitude, ((a*x + b*y) + c) - t
    # errs by less than gamma_4 * (3 * scale + |t|), which their err,
    # 2 * _EVAL_ERR times it, covers.  Rows that nearly cancel at the
    # point keep every rounding in play, yet the worst error among them
    # is about 0.6u times 3 * scale + |t|: within half of err.
    F, u = Fraction, 2.0 ** -53
    rng = np.random.default_rng(52)
    worst = 0
    for e in range(-500, 501, 125):
        a, b = rng.uniform(-1.0, 1.0, (2, 150)) * 2.0 ** e
        for x, y in [(0.5, 1.0), *rng.uniform(0.0, 1.0, (3, 2)).tolist()]:
            c = rng.normal(0.0, 2.0 ** (e - 30), 150) - (a * x + b * y)
            c = np.clip(c, -(2.0 ** e), 2.0 ** e)
            scale = float(np.abs([a, b, c]).max())
            v = model._evaluate((a, b, c), (x, y))
            for t in (0.0, v[0].item(), scale / 1024):
                mag = 3.0 * scale + abs(t)
                for ai, bi, ci, d in zip(a.tolist(), b.tolist(), c.tolist(),
                                         (v - t).tolist()):
                    err = abs(F(d) - (F(ai) * F(x) + F(bi) * F(y) + F(ci)
                                      - F(t)))
                    assert err <= F(model._EVAL_ERR * mag)
                    worst = max(worst, err / F(u * mag))
    assert 0.25 < worst < 1
