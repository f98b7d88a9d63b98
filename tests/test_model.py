import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from minmaxlp import (Constraint2, Constraint3, EmptyProblem, GenSpec,
                      NonFiniteInput, Problem, Solution2, Solution3, Status,
                      boundary_via_2d, brute2d, brute3d_box, check2d, check3d,
                      expand_absolute, gen2d, gen3d, lower_hull, prune,
                      solve, solve3d, solve_baseline, solve_boxed)
from minmaxlp.model import columns

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

    def test_as_array_without_a_copy_raises(self, prob):
        # The rows are stacked from the columns, so no copy-free view exists.
        for get in (lambda: np.asarray(prob, copy=False),
                    lambda: prob.__array__(copy=False)):
            with pytest.raises(ValueError, match="built by a copy"):
                get()

    def test_writes_raise(self, prob):
        with pytest.raises(TypeError):
            prob[0] = Constraint2(0.0, 0.0)
        with pytest.raises(TypeError):
            del prob[0]
        for col in columns(prob, 2) + columns(prob[1:3], 2):
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


def test_generator_slices_share_memory():
    pool = gen2d(GenSpec(n=1000, seed=8))
    part = pool[250:500]
    for whole, col in zip(columns(pool, 2), columns(part, 2)):
        assert np.shares_memory(whole, col)
        assert col.tolist() == whole[250:500].tolist()
    assert columns(part, 2)[0] is columns(part, 2)[0]  # no copy per read
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
