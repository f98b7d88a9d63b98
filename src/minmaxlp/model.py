"""Problem and solution value types, the reader of in-memory rows, the
one row evaluator, ``_evaluate``, behind every pass that forms row
values, and the answer certificate: ``certify``, and ``check2d`` and
``check3d``, which prove an answer of either problem by weak duality over
the rows near-tight at it.

The certificate is the checker of a certifying algorithm: it reads the
rows and the answer alone.  This module imports no solver (only
``errors`` and ``geometry`` of the package), so no check can reach one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Real
from operator import index, itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, EmptyProblem, NonFiniteInput
from .geometry import _EPS, _TINY, Point2, _chain


class Status(str, Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


class Constraint2(NamedTuple):
    """One inequality a*x + b <= t of a one-variable min-max problem."""

    a: float
    b: float


class Constraint3(NamedTuple):
    """One inequality a*x + b*y + c <= t of the box-constrained problem."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class Solution2:
    """Outcome of a one-variable solve.

    ``x`` and ``t`` are set only when ``status`` is OPTIMAL.  ``iterations``
    counts pivot scans (diagnostic).  ``pivot_pairs`` records the successive
    (left point, right point) pairs visited by the pivoting solver so that
    tests can verify the strictly decreasing intercept sequence; reference
    solvers leave it empty.  When every slope is <= 0 the solver pivots on
    the x-mirror of its sides, with the rows where they lie: the points with
    x < 0 take the right side's place and those on x = 0 the left's, so each
    pair is (the point on x = 0, the point with x < 0): for example
    ((0.0, -0.5), (-3.0, -2.0)).
    """

    status: Status
    x: float | None = None
    t: float | None = None
    iterations: int = 0
    pivot_pairs: tuple[tuple[Point2, Point2], ...] = ()


@dataclass(frozen=True)
class Solution3:
    """Optimal point of the box-constrained two-variable problem."""

    x: float
    y: float
    t: float
    status: Status = Status.OPTIMAL


class Problem(Sequence):
    """A min-max problem held as one read-only float64 (k, n) array, k = 2
    or 3, whose rows are its columns a, b[, c], each with unit stride.

    ``Problem(a, b)`` is the one-variable problem with slopes ``a`` and
    intercepts ``b``, ``Problem(a, b, c)`` the box problem, and
    ``Problem(m)`` either one on the rows of the (k, n) array ``m``.  The
    columns are converted to float64 and checked finite once, here.
    Separate columns are written into one new array; an array whose rows
    have unit stride is held as a read-only view, and any other is copied
    once.  A problem also reads as the list of its constraints,
    ``Constraint2`` or ``Constraint3`` of Python floats: ``len``, indexing,
    slicing, iteration and ``==`` against a list of constraints or another
    problem behave as on that list.  A slice is a view of the same array,
    never a copy (with a step, its rows are strided).  ``np.asarray(p)`` is
    the read-only (n, k) transposed view of the array, and ``np.array(p)``
    a copy.  ``columns`` hands the array to the solvers.  A number beyond
    the double range, such as the int 10**400, is not finite either:
    ``Problem([1.0, 10**400], [0.0, 0.0])`` raises NonFiniteInput naming
    constraint 1.

    ``signed_pairs`` builds the other kind of problem: its array's n rows
    each stand for the pair r, -r, and it reads as the 2n constraints
    r0, -r0, r1, -r1, ...  Its mark, ``_pairs``, is what tells the kinds
    apart.  ``solve``, ``objective``, ``check2d`` and ``check3d`` read its
    n rows once.  A slice with step 1 that starts and ends on a pair
    boundary is a pairs problem on a view of its rows; ``columns``, any
    other slice, iteration and ``np.asarray`` write out the 2n
    constraints, each time.
    """

    __slots__ = ("_rows", "_pairs")

    def __init__(self, *cols):
        given = cols[0] if len(cols) == 1 else cols
        try:
            rows = np.asarray(given, dtype=float)
        except OverflowError:
            read = np.frompyfunc(_read_float, 1, 1)
            rows = read(np.asarray(given, dtype=object)).astype(float)
        if not (rows.ndim == 2 and rows.shape[0] in (2, 3)):
            raise ValueError("a problem needs 2 or 3 columns of one length")
        _check_finite(rows)
        if rows.strides[1] != rows.itemsize and rows.shape[1] > 1:
            rows = rows.copy()
        self._rows = rows.view()
        self._rows.flags.writeable = False
        self._pairs = False

    @classmethod
    def _of(cls, rows: np.ndarray, pairs: bool = False) -> Problem:
        """A problem on the finite float64 (k, n) array ``rows``, whose rows
        have unit stride unless it is a slice with a step, and which nothing
        writes while the problem lives; the array is made read-only here.
        With ``pairs``, each of its rows stands for the pair r, -r."""
        p = object.__new__(cls)
        rows.flags.writeable = False
        p._rows = rows
        p._pairs = pairs
        return p

    @property
    def _row(self):
        return Constraint2 if len(self._rows) == 2 else Constraint3

    def _written_out(self) -> np.ndarray:
        """The array of every constraint: the one held, or for pairs a new
        (k, 2n) one."""
        return _both_signs(self._rows) if self._pairs else self._rows

    def __len__(self) -> int:
        return self._rows.shape[1] << self._pairs

    def __getitem__(self, i):
        if isinstance(i, slice):
            if self._pairs:
                start, stop, step = i.indices(len(self))
                if step == 1 and not (start | stop) & 1:
                    # whole pairs: rows start // 2 to stop // 2, as pairs
                    return Problem._of(self._rows[:, start >> 1:stop >> 1],
                                       True)
            return Problem._of(self._written_out()[:, i])
        if not self._pairs:
            return self._row._make(self._rows[:, index(i)].tolist())
        # constraint i of pairs is row i // 2, negated where i is odd
        i = index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"index {i} is out of bounds for a problem "
                             f"of {len(self)} constraints")
        row = self._rows[:, i >> 1].tolist()
        return self._row._make([-v for v in row] if i & 1 else row)

    def __iter__(self):
        return map(self._row, *self._written_out().tolist())

    def __eq__(self, other):
        if isinstance(other, Problem):
            if self._pairs is other._pairs:
                return np.array_equal(self._rows, other._rows)
            return np.array_equal(self._written_out(), other._written_out())
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        # Copies and unpickled problems are built, and frozen, anew.
        return (signed_pairs if self._pairs else Problem), (self._rows,)

    def __array__(self, dtype=None, copy=None):
        return np.array(self._written_out().T, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"<Problem: {len(self)} {self._row.__name__} rows>"


def _check_shape(arr: np.ndarray, k: int) -> None:
    if arr.ndim != 2 or arr.shape[1] < k:
        raise ValueError(
            f"constraint array must have shape (n, k >= {k}), got {arr.shape}")


def _check_finite(rows: np.ndarray) -> None:
    """Raise NonFiniteInput naming the first constraint (column) of the
    (k, n) array ``rows`` with a non-finite field.  Its least and largest
    values, which a NaN or an infinity would be, are reductions that hold
    no scratch."""
    if rows.size and not (math.isfinite(rows.min())
                          and math.isfinite(rows.max())):
        bad = int(np.isfinite(rows).all(axis=0).argmin())
        raise NonFiniteInput(f"constraint {bad} is not finite")


def columns(cs, k: int) -> np.ndarray:
    """The first ``k`` fields of every constraint as the rows of a (k, n)
    float64 array, each with unit stride.

    ``cs`` is a ``Problem``, whose array, or a view of its first k rows,
    comes back without a copy, or a sequence of rows or an (n, >= k) array,
    written once into a new array.  A pairs problem (``signed_pairs``)
    writes out its 2n constraints into a new read-only (k, 2n) array on
    each call; ``_held`` gives its n rows.  Raises ValueError for a
    problem, row or array with fewer than ``k`` fields and for an array of
    any other shape, EmptyProblem for no constraints at all, and
    NonFiniteInput for a non-finite field, naming the first such
    constraint.  A number beyond the double range, such as the int 10**400
    in a row or an object array, is a non-finite field.
    """
    if isinstance(cs, Problem):
        rows, pairs = _held(cs, k)
        return _both_signs(rows) if pairs else rows
    if isinstance(cs, np.ndarray) and cs.ndim == 0:
        _check_shape(cs, k)  # a 0-d array has no rows to count
    if len(cs) == 0:
        raise EmptyProblem("no constraints")
    try:
        if isinstance(cs, np.ndarray):
            _check_shape(cs, k)
            rows = np.ascontiguousarray(cs[:, :k].T, dtype=float)
        else:
            rows = _fields(cs, k)
    except OverflowError:  # a number no double holds, such as 10**400
        rows = _fields(cs, k, _read_float)
    _check_finite(rows)
    return rows


def _held(cs, k: int) -> tuple[np.ndarray, bool]:
    """The first ``k`` rows of a ``Problem``'s array, without a copy, and
    its mark: True where each row stands for the pair r, -r.  Any other
    ``cs`` gives ``columns(cs, k)`` and False.  Raises as ``columns``."""
    if not isinstance(cs, Problem):
        return columns(cs, k), False
    rows = cs._rows
    if rows.shape[1] == 0:
        raise EmptyProblem("no constraints")
    if len(rows) < k:
        raise ValueError(f"constraints need at least {k} fields")
    return rows if len(rows) == k else rows[:k], cs._pairs


def _rows_of(cols, k: int) -> tuple[np.ndarray, bool]:
    """``objective``'s columns as it reads them: a ``Problem``'s ``_held``
    rows and mark, and any other ``cols`` as given, not pairs."""
    return _held(cols, k) if isinstance(cols, Problem) else (cols, False)


def _constraints_at(rows: np.ndarray, pairs: bool,
                    idx: np.ndarray) -> np.ndarray:
    """Constraints ``idx`` of the rows ``rows`` held as ``_held`` gives
    them, as the columns of a new array: rows[:, idx], or of pairs, row
    i // 2 times +1.0 or -1.0 by i & 1, which is exact."""
    if not pairs:
        return rows[:, idx]
    out = rows[:, idx >> 1]
    out *= _SIGNS[idx & 1]
    return out


# The sign of constraint i of a pairs problem, by i & 1.
_SIGNS = np.array([1.0, -1.0])


def _both_signs(rows: np.ndarray) -> np.ndarray:
    """The read-only (k, 2n) array of the rows r, -r for each row r of the
    (k, n) array ``rows``, in row order."""
    k, n = rows.shape
    out = np.empty((k, n, 2))
    out[:, :, 0] = rows
    np.negative(rows, out=out[:, :, 1])
    out = out.reshape(k, 2 * n)
    out.flags.writeable = False
    return out


def _fields(rows, k: int, read=None) -> np.ndarray:
    """The first ``k`` fields of the ``rows`` as the rows of one (k, n)
    float64 array, field j of every row written into row j, each read by
    ``read`` first when one is given."""
    out = np.empty((k, len(rows)))
    try:
        for j in range(k):
            fields = map(itemgetter(j), rows)
            out[j] = np.fromiter(fields if read is None else map(read, fields),
                                 float, len(rows))
    except IndexError:
        raise ValueError(f"constraints need at least {k} fields") from None
    return out


def _read_float(v) -> float:
    """float(v), or an infinity where v lies beyond the double range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def signed_pairs(cols: np.ndarray) -> Problem:
    """The problem of the constraints r, -r for each row r of the finite
    (k, n) array of columns ``cols``, in row order: the residuals |r| as
    constraints.  It holds ``cols`` itself, made read-only, with the mark
    that each row stands for such a pair: its length is 2n, and every
    reader that does not read pairs gets the (k, 2n) array of the
    constraints from ``columns``."""
    return Problem._of(cols, True)


def objective(cols, *point: float) -> float:
    """max_i (a_i*x + b_i) over columns (a, b) at x, or
    max_i (a_i*x + b_i*y + c_i) over columns (a, b, c) at (x, y).

    ``cols`` is a (k, n) array, as ``columns`` gives, a sequence of k
    columns, or a ``Problem``.  Summed by ``_evaluate``, a block at a
    time, and exactly again when that overflows; -inf or inf when the
    maximum lies outside the double range.  Each row of a pairs problem
    is evaluated once: the pair's values are v and -v, as negating a row
    negates each rounded term and sum, so the block's maximum is
    max(max v, -min v).
    """
    rows, pairs = _rows_of(cols, len(point) + 1)
    top = -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, rows[0].size, _BLOCK):
            if isinstance(rows, np.ndarray):
                v = _evaluate(rows[:, i:i + _BLOCK], point)
            else:
                v = _evaluate([col[i:i + _BLOCK] for col in rows], point)
            high = float(v.max())
            if pairs:  # a NaN high stays NaN: max keeps its first argument
                high = max(high, -float(v.min()))
            if not high < math.inf:  # inf, or a NaN that max() would drop
                return exact_objective(cols, *point)
            top = max(top, high)
    return top + 0.0 if top > -math.inf else exact_objective(cols, *point)


def _evaluate(cols, point) -> np.ndarray:
    """Each row's value at ``point``, a*x + b or (a*x + b*y) + c, summed
    left to right: rounded from float columns, exact from Fraction ones.
    Every value pass forms its values here, so they agree bit for bit."""
    v = cols[0] * point[0]
    if len(cols) == 3:
        v += cols[1] * point[1]
    v += cols[-1]
    return v


# The rounding bounds of ``_evaluate``, in units of the unit roundoff.  A
# float value is within gamma_3 * S of the exact one, S the sum of its
# terms' magnitudes (Higham, Accuracy and Stability of Numerical
# Algorithms, 3.1); S formed in floats loses at most three roundings, so
# _EVAL_ERR times it covers gamma_3 * S, and ``geometry._TINY`` covers
# products that underflow (each off by at most 2**-1075).  ``prune3d``'s
# filters test v - t at a box point, with every coefficient at most
# ``scale`` >= 2**-500 in magnitude: each term takes four roundings, so
# the error is below gamma_4 * (3 * scale + |t|), which 2 * _EVAL_ERR
# times the rounded 3 * scale + |t| covers with its own rounding and any
# underflow.  Their half-planes take three roundings on at most
# 6 * scale, likewise.  ``prune``'s "too steep" filter, on differences
# and sums alone, errs by less than 3.01u times its summed differences,
# which _EVAL_ERR times their rounded sum covers (proof beside ``prune``).
_EVAL_ERR = 4.0 * _EPS
# A right answer is exact up to the roundings that form it.  The
# one-variable solvers form x with three roundings and t by evaluating one
# supporting constraint at x, so at x both supports, and every constraint
# that can attain the maximum, evaluate within about (3 + 2)u times their
# own and the top constraint's magnitude sums of the top value.  _TIGHT
# keeps a margin over that.  The box solver's point comes from float
# quotients on the lines of rounded plane differences; its error is not
# bounded this way, and on near-degenerate inputs it can be larger.
_TIGHT = 8.0 * _EPS
# ``objective``, ``certify`` and ``prune3d.solve3d``'s passes read the
# rows in blocks of this many: 64 KiB a column, below the C
# library's 128 KiB threshold for mapping each allocation on its own.
# Blocks of 16384 rows, at the threshold, made 2e4-row checks bimodal and
# up to 1.4 times slower.
_BLOCK = 1 << 13
# ``certify``'s one pass keeps every row whose value v is not below
# top - _NEAR * M' - 8 * _TINY, top the largest value of the rows read so
# far and M' the value of the columns' largest magnitudes at |point|.  The
# near-tight sets are then drawn from those rows as from all rows.  That
# loses none of them:
#
# * M' bounds every row's magnitude sum s.  Both are ``_evaluate``'s
#   products and sums of nonnegative doubles in the same order, each
#   operand of M' is at least the same operand of s, and rounding is
#   monotone, so M' >= s term by term.  So M' >= M, the largest magnitude
#   sum, without a margin.
# * The top value T is at most M in magnitude, since |fl(v)| <= fl(s).
#   Each near-tight cut lies at most 2 * (2 * _TIGHT + _EVAL_ERR) * M
#   + 6 * _TINY, 40u * M + 6 tiny, below T, and a few units of roundoff
#   of M more once rounded.  _NEAR is 80u, twice that, which also covers
#   the rounding of the cut formed here, so T - _NEAR * M - 8 * _TINY lies
#   below every cut.
# * The running top never exceeds T, and M' >= M, so the floor formed
#   here never lies above T - _NEAR * M - 8 * _TINY: every row that a cut
#   keeps is kept here, and the sets come out the same bit for bit.
#
# Where M' overflows the floor is -inf and every row is kept, their
# magnitude sums are formed, and where one of those overflows too the
# Fraction path forms them all again, exactly.
_NEAR = 4.0 * (2.0 * _TIGHT + _EVAL_ERR)
# ``certify``'s bounds in exact arithmetic, each formed once: the factor of
# W, the rounding bound of a value, and the underflow term.
_Q_ERR, _Q_TINY = Fraction(_EVAL_ERR), Fraction(_TINY)
_Q_WIDTH = 2 * Fraction(_TIGHT) + _Q_ERR


def require_finite(point: tuple, t: float, who: str) -> None:
    """Raise ContractViolation unless t and every coordinate of ``point``
    are finite numbers; a missing one (None) is not.  A Python float,
    what every solver returns, skips the ``numbers.Real`` check, which
    costs several times the test of its type."""
    for v in (t, *point):
        if not (math.isfinite(v) if type(v) is float
                else isinstance(v, Real) and math.isfinite(v)):
            raise ContractViolation(f"{who}: the answer is not finite")


def certify(rows: np.ndarray, pairs: bool, point: tuple, t: float,
            lower_bound, who: str) -> None:
    """Raise ContractViolation unless ``t`` is the optimum up to rounding,
    by weak duality, over the constraints of the (k, n) array ``rows``
    with the mark ``pairs``, as ``_held`` gives them.

    The constraints near-tight at ``point`` are those whose values there
    lie within _TIGHT times their own and the top constraint's magnitude
    sums (|a*x| + |b| or |a*x| + |b*y| + |c|) of the top value, and those
    within 2 W of it.  ``lower_bound(idx, values)`` gets their indices and
    values and returns an exact lower bound L on the optimum (a Fraction)
    built from them, or None.  The top value plus its proven rounding
    bound is an upper bound U on the objective at ``point``.  The optimum
    lies in [L, U]; both ends must lie within W of t, where W is
    (2 * _TIGHT + _EVAL_ERR) times the largest magnitude sum S among the
    first set: a supporting constraint evaluates at most _TIGHT * 2S below
    the top value, and at most _EVAL_ERR * S from its own float value.
    Where the terms far exceed |t| (cancellation), W is wider than a few
    ulps of t.

    Each row's value is formed once, in one pass over blocks of ``_BLOCK``
    rows, which keeps the rows within _NEAR * M' of the running top, M'
    the value of the columns' largest magnitudes at |point| (proof beside
    ``_NEAR``).  Only the kept rows' magnitude sums are formed, and the
    sets are drawn from those rows as from all rows.  So its scratch is a
    few blocks and the kept rows, whatever the number of rows.

    A pairs problem's rows are evaluated once.  Constraints 2i and 2i + 1,
    row i and its negation, take the values v and -v: negating a row
    negates each rounded term and sum, and their magnitude sums are the
    same.  Their indices, values and verdicts are those of the (k, 2n)
    array that ``columns`` writes out, which the Fraction path, where a
    term overflows, reads.
    """
    require_finite(point, t, who)
    F = Fraction
    n = rows.shape[1]
    size = tuple(map(abs, point))
    # M', in Python floats, which round as numpy's do and overflow to inf
    wide = _NEAR * _evaluate([max(hi, -lo) for hi, lo in zip(
        rows.max(axis=1).tolist(), rows.min(axis=1).tolist())], size)
    # a pairs block of half the rows covers the same constraints
    step = _BLOCK >> pairs
    with np.errstate(over="ignore", invalid="ignore"):
        top = -math.inf
        found = []
        for i in range(0, n, step):
            v = _evaluate(rows[:, i:i + step], point)
            if pairs:  # the values of constraints 2i, 2i + 1, ...
                w = np.empty((v.size, 2))
                w[:, 0] = v
                np.negative(v, out=w[:, 1])
                v = w.reshape(-1)
            top = max(top, float(v.max()))
            # not below the floor: where M' overflows, the floor is -inf
            # or NaN, and every row, NaN values too, is kept
            k = np.logical_not(v < top - wide - 8 * _TINY).nonzero()[0]
            found.append((k + (i << pairs), v[k]))
        idx, v = (np.concatenate(z) for z in zip(*found))
        s = _evaluate(np.abs(rows[:, idx >> pairs]), size)
    if wide < math.inf or np.isfinite(s).all():
        # Every magnitude sum is finite where M' is, and every value is
        # finite where every magnitude sum is, since |fl(v)| <= fl(s).
        j = int(np.argmax(v))
        top, top_s = v.item(j), s.item(j)
        tight, tiny = _TIGHT, _TINY
        width, err, exact_tiny = _Q_WIDTH, _Q_ERR, _Q_TINY
    else:
        # A term overflows, so M' does and every row was kept: every value
        # and magnitude sum again, in Fractions.
        exact = _fractions(_both_signs(rows) if pairs else rows)
        v = _evaluate(exact, tuple(map(F, point)))
        s = _evaluate(np.abs(exact), tuple(map(F, size)))
        j = int(np.argmax(v))
        top, top_s = v[j], s[j]
        tight, tiny = F(_TIGHT), 0
        width, err, exact_tiny = 2 * tight, 0, 0
    # Every constraint outside ``near`` evaluates below the top value by
    # more than both rounding bounds, so it cannot attain the maximum.
    near = v >= top - tight * top_s - tight * s - 2 * tiny
    scale = F(s[near].max())
    exact_top, exact_t = F(top), F(t)
    bound = width * scale + 3 * exact_tiny
    upper = exact_top + err * scale + exact_tiny
    # A certificate that holds can put only little weight on constraints
    # more than 2 W below the top; all others may take part.  At a point
    # off by rounding from a vertex where many constraints meet, the first
    # set alone can miss the supports on one side.
    cut = exact_top - 2 * bound
    near |= v >= (cut if v.dtype == object else float(cut))
    keep = near.nonzero()[0]
    if upper - exact_t > bound:
        raise ContractViolation(
            f"{who}: the objective at {point} reaches {_to_float(upper)!r},"
            f" above t={t} by more than the rounding bound "
            f"{_to_float(bound)!r}")
    lower = lower_bound(idx[keep], v[keep])
    if lower is None:
        raise ContractViolation(
            f"{who}: no near-tight constraints certify t={t} at {point}")
    if exact_t - lower > bound:
        raise ContractViolation(
            f"{who}: t={t} lies above the lower bound {_to_float(lower)!r} "
            f"by more than the rounding bound {_to_float(bound)!r}")


def check2d(cs: Sequence, sol: Solution2) -> None:
    """Raise ContractViolation unless ``sol`` answers ``cs``, by an exact
    weak-duality certificate.

    UNBOUNDED holds iff every slope is > 0 or every slope is < 0.  For an
    OPTIMAL answer, the best near-tight constraint at ``sol.x`` with a <= 0
    and the best with a >= 0 get multipliers lambda >= 0, summing to 1,
    with sum(lambda * a) = 0; the weighted intercept sum(lambda * b) is an
    exact lower bound on the optimum (``certify`` has the rule).
    Near-tight, not merely best: the best constraint at a rounded x can be
    a shallow one whose crossing lies far below the optimum, where the
    steep true support is still within its own rounding of the maximum.
    O(n) numpy work and O(1) Fraction work; no reference solver.  A pairs
    problem is read on its n rows: its slopes a, -a never share a strict
    sign.
    """
    rows, pairs = _held(cs, 2)
    a = rows[0]
    unbounded = not pairs and bool(a.min() > 0.0 or a.max() < 0.0)
    if (sol.status is Status.UNBOUNDED) is not unbounded:
        raise ContractViolation(
            f"check2d: status {sol.status.value}, but "
            + ("every slope has one strict sign" if unbounded
               else "the slopes do not all share a strict sign"))
    if unbounded:
        return

    def lower_bound(idx, values):
        ra, rb = _constraints_at(rows, pairs, idx)
        on_left = ra <= 0.0
        on_right = ra >= 0.0
        if not (on_left.any() and on_right.any()):
            return None
        i = np.argmax(values[on_left])
        j = np.argmax(values[on_right])
        ai, bi, aj, bj = map(Fraction, (ra[on_left][i], rb[on_left][i],
                                        ra[on_right][j], rb[on_right][j]))
        if ai == aj:
            return max(bi, bj)  # both slopes are 0
        return (aj * bi - ai * bj) / (aj - ai)

    certify(rows, pairs, (sol.x,), sol.t, lower_bound, "check2d")


def check3d(cs: Sequence, sol: Solution3) -> None:
    """Raise ContractViolation unless ``sol`` answers the box problem ``cs``,
    by an exact weak-duality certificate.

    ``cs`` is read like ``prune3d.solve3d``'s, a pairs problem on its n
    rows.  The status must be OPTIMAL, as the box problem always has an
    optimum, and (x, y) must lie in the unit box.  Any multipliers
    lambda >= 0 summing to 1 give the exact lower bound
    sum(lambda * c) + min(0, sum(lambda * a)) + min(0, sum(lambda * b)) on
    the optimum over the box; ``certify`` compares the best one found with
    t and with the objective at (x, y).  The multipliers are
    sought among the near-tight constraints: their gradients (a, b),
    deduplicated to the largest c, and of those only the h vertices of the
    convex hull, since the bound is concave in sum(lambda * (a, b)).  The
    hull is one monotone chain over the gradients in (a, b) order, run
    forward for its lower half and back for its upper half.  Each hull
    vertex, each hull edge where sum(lambda * a) or sum(lambda * b) is 0,
    and the fan triangle holding (0, 0) is tried.  O(n) numpy work, O(h)
    Fraction work and no reference solver.
    """
    rows, pairs = _held(cs, 3)
    x, y = sol.x, sol.y
    if sol.status is not Status.OPTIMAL:
        raise ContractViolation(
            f"check3d: status {sol.status.value}, but the box problem "
            "always has an optimum")
    require_finite((x, y), sol.t, "check3d")
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ContractViolation(f"check3d: ({x}, {y}) lies outside the box")
    certify(rows, pairs, (x, y), sol.t, lambda idx, _: _box_lower_bound(
        *_constraints_at(rows, pairs, idx)), "check3d")


def _box_lower_bound(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> Fraction:
    """The best lower bound of the box problem over rows (a, b, c) that
    the multipliers on hull vertices, hull edges and fan triangles of the
    gradients give, in Fractions.

    The hull is Andrew's monotone chain: ``geometry._chain`` over the
    distinct gradients in (a, b) order gives the lower chain, and over
    them in reverse the upper one.  Each chain ends where the other
    starts, so the polygon, counter-clockwise from the least gradient, is
    both without their last points, or the one gradient there is.
    """
    # in increasing c, so each gradient keeps its largest c
    order = np.argsort(c)
    best_c = dict(zip(zip(a[order].tolist(), b[order].tolist()),
                      c[order].tolist()))
    xs, ys = zip(*sorted(best_c))
    lower, upper = (list(zip(*_chain(xs[::d], ys[::d]))) for d in (1, -1))
    F = Fraction
    poly = [(F(p), F(q), F(best_c[p, q]))
            for p, q in lower[:-1] + upper[:-1] or lower]

    def bound(rows, lams):
        sa, sb, sc = (sum(lam * r[g] for lam, r in zip(lams, rows))
                      for g in range(3))
        return sc + min(0, sa) + min(0, sb)

    best = max(bound((r,), (1,)) for r in poly)
    h = len(poly)
    for k in range(h if h > 2 else h - 1):
        p, q = poly[k], poly[(k + 1) % h]
        for g in (0, 1):
            if p[g] != q[g] and min(p[g], q[g]) <= 0 <= max(p[g], q[g]):
                lam = q[g] / (q[g] - p[g])
                best = max(best, bound((p, q), (lam, 1 - lam)))
    p = poly[0]
    for q, r in zip(poly[1:], poly[2:]):
        # barycentric coordinates of (0, 0) in the triangle p, q, r
        det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        lq = (r[0] * p[1] - r[1] * p[0]) / det
        lr = (p[0] * q[1] - p[1] * q[0]) / det
        if lq >= 0 and lr >= 0 and lq + lr <= 1:
            best = max(best, bound((p, q, r), (1 - lq - lr, lq, lr)))
    return best


def _fractions(cols) -> list[np.ndarray]:
    """The float columns ``cols`` as object columns of exact Fractions."""
    return [np.array(list(map(Fraction, col.tolist())), dtype=object)
            for col in cols]


def exact_objective(cols, *point: float) -> float:
    """``objective`` in rational arithmetic, rounded to a double; -inf or
    inf when it lies outside the double range."""
    rows, pairs = _rows_of(cols, len(point) + 1)
    v = _evaluate(_fractions(rows), tuple(map(Fraction, point)))
    return _to_float(max(max(v), -min(v)) if pairs else max(v))


def _to_float(q: Fraction) -> float:
    """``q`` rounded to a double; -inf or inf outside the double range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf
