"""Problem and solution value types, the constraint reader, and the one
row evaluator, ``_evaluate``, behind every pass that forms row values."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from numbers import Real
from operator import index, itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, EmptyProblem, NonFiniteInput
from .geometry import _EPS, _TINY, Point2


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
    the problem mirrored in x and reports its points mirrored back, so each
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
    """A min-max problem held as k = 2 or 3 read-only float64 columns.

    ``Problem(a, b)`` is the one-variable problem with slopes ``a`` and
    intercepts ``b``, ``Problem(a, b, c)`` the box problem; the columns are
    converted to float64 and checked finite once, here.  A problem also
    reads as the list of its rows, ``Constraint2`` or ``Constraint3`` of
    Python floats: ``len``, indexing, slicing (a view of the same type),
    iteration and ``==`` against a list of rows or another problem behave
    as on that list, and ``np.asarray(p)`` is the (n, k) array of its rows.
    ``columns`` hands the columns to the solvers without a copy.  A
    number beyond the double range, such as the int 10**400, is not finite
    either: ``Problem([1.0, 10**400], [0.0, 0.0])`` raises NonFiniteInput
    naming constraint 1.
    """

    __slots__ = ("_cols",)

    def __init__(self, *cols):
        try:
            cols = [np.asarray(col, dtype=float) for col in cols]
        except OverflowError:
            read = np.frompyfunc(_read_float, 1, 1)
            cols = [read(np.asarray(col, dtype=object)).astype(float)
                    for col in cols]
        if not (len(cols) in (2, 3) and all(col.ndim == 1 for col in cols)
                and len({col.size for col in cols}) == 1):
            raise ValueError("a problem needs 2 or 3 columns of one length")
        _check_finite(cols)
        for i, col in enumerate(cols):
            cols[i] = col.view()
            cols[i].flags.writeable = False
        self._cols = tuple(cols)

    @classmethod
    def _of(cls, cols) -> Problem:
        """A problem on float64 columns known to be finite, which nothing
        writes while the problem lives."""
        p = object.__new__(cls)
        p._cols = tuple(cols)
        return p

    @property
    def _row(self):
        return Constraint2 if len(self._cols) == 2 else Constraint3

    def __len__(self) -> int:
        return self._cols[0].size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Problem._of(col[i] for col in self._cols)
        i = index(i)
        return self._row._make([float(col[i]) for col in self._cols])

    def __iter__(self):
        return map(self._row, *(col.tolist() for col in self._cols))

    def __eq__(self, other):
        if isinstance(other, Problem):
            return (len(self._cols) == len(other._cols)
                    and len(self) == len(other)
                    and all(np.array_equal(p, q)
                            for p, q in zip(self._cols, other._cols)))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        # Copies and unpickled problems are built, and frozen, anew.
        return Problem, self._cols

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("the rows of a problem are built by a copy")
        return np.stack(self._cols, axis=1).astype(dtype or float, copy=False)

    def __repr__(self) -> str:
        return f"<Problem: {len(self)} {self._row.__name__} rows>"


def _check_shape(arr: np.ndarray, k: int) -> None:
    if arr.ndim != 2 or arr.shape[1] < k:
        raise ValueError(
            f"constraint array must have shape (n, k >= {k}), got {arr.shape}")


def _check_finite(cols) -> None:
    """Raise NonFiniteInput naming the first row of ``cols``, a (k, n)
    array or k separate columns, with a non-finite field.  Separate columns
    are checked one at a time, not stacked into a copy."""
    blocks = (cols,) if isinstance(cols, np.ndarray) else cols
    bad = [int(np.argmin(np.atleast_2d(np.isfinite(block)).all(axis=0)))
           for block in blocks if not np.isfinite(block).all()]
    if bad:
        raise NonFiniteInput(f"constraint {min(bad)} is not finite")


def columns(cs, k: int) -> Sequence[np.ndarray]:
    """The first ``k`` fields of every constraint as k float64 columns.

    ``cs`` is a ``Problem``, whose columns come back as they are, a
    sequence of rows or an (n, >= k) array, whose columns come back as one
    (k, n) array.  Raises ValueError for a problem, row or array with fewer
    than ``k`` fields and for an array of any other shape, EmptyProblem for
    no constraints at all, and NonFiniteInput for a non-finite field,
    naming the first such constraint.  A number beyond the double range,
    such as the int 10**400 in a row or an object array, is a non-finite
    field.
    """
    if isinstance(cs, Problem):
        cols = cs._cols
        if cols[0].size == 0:
            raise EmptyProblem("no constraints")
        if len(cols) < k:
            raise ValueError(f"constraints need at least {k} fields")
        return cols[:k]
    if isinstance(cs, np.ndarray) and cs.ndim == 0:
        _check_shape(cs, k)  # a 0-d array has no rows to count
    if len(cs) == 0:
        raise EmptyProblem("no constraints")
    try:
        if isinstance(cs, np.ndarray):
            _check_shape(cs, k)
            cols = np.asarray(cs[:, :k], dtype=float).T
        else:
            cols = _fields(cs, k)
    except OverflowError:  # a number no double holds, such as 10**400
        cols = _fields(cs, k, _read_float)
    _check_finite(cols)
    return cols


def _fields(rows, k: int, read=None) -> np.ndarray:
    """The first ``k`` fields of the ``rows`` as one (k, n) float64 array,
    each read by ``read`` first when one is given."""
    n = len(rows)
    fields = chain.from_iterable(map(itemgetter(*range(k)), rows))
    try:
        return np.fromiter(fields if read is None else map(read, fields),
                           float, k * n).reshape(n, k).T
    except IndexError:
        raise ValueError(f"constraints need at least {k} fields") from None


def _read_float(v) -> float:
    """float(v), or an infinity where v lies beyond the double range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def signed_pairs(cols) -> Problem:
    """The problem whose rows are r, -r for each row r of the finite
    columns ``cols``, in row order: the residuals |r| as constraints."""
    n = cols[0].size
    out = np.empty((len(cols), n, 2))
    out[:, :, 0] = cols
    np.negative(out[:, :, 0], out=out[:, :, 1])
    out.flags.writeable = False
    return Problem._of(out.reshape(len(cols), 2 * n))


def objective(cols, *point: float) -> float:
    """max_i (a_i*x + b_i) over columns (a, b) at x, or
    max_i (a_i*x + b_i*y + c_i) over columns (a, b, c) at (x, y).

    Summed by ``_evaluate``, a block at a time, and exactly again when that
    overflows; -inf or inf when the maximum lies outside the double range.
    """
    top = -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, cols[0].size, _BLOCK):
            v = _evaluate([col[i:i + _BLOCK] for col in cols], point)
            high = float(v.max())
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
# ``certify``'s second pass keeps every row whose value lies within
# _NEAR * M + 8 * _TINY of the top, M the largest magnitude sum.  The top
# value is at most M in magnitude, so each near-tight cut lies at most
# 2 * (2 * _TIGHT + _EVAL_ERR) * M + 6 * _TINY, 40u * M + 6 tiny, below
# it, and a few units of roundoff of M more once rounded; _NEAR is 80u,
# twice that, which also covers the rounding of the pass's own cut.
_NEAR = 4.0 * (2.0 * _TIGHT + _EVAL_ERR)


def require_finite(point: tuple, t: float, who: str) -> None:
    """Raise ContractViolation unless t and every coordinate of ``point``
    are finite numbers; a missing one (None) is not."""
    if not all(isinstance(v, Real) and math.isfinite(v) for v in (t, *point)):
        raise ContractViolation(f"{who}: the answer is not finite")


def certify(cols, point: tuple, t: float, lower_bound, who: str) -> None:
    """Raise ContractViolation unless ``t`` is the optimum up to rounding,
    by weak duality.

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

    The float pass reads the rows in blocks of ``_BLOCK``, twice where
    there is more than one.  The first keeps the top value, its magnitude
    sum and the largest magnitude sum M; the second keeps the rows within
    _NEAR * M of the top, which hold both sets of near-tight rows, and
    the sets are then drawn from them as from all rows.  So its scratch is
    a few blocks and the near-tight rows, whatever the number of rows.
    """
    require_finite(point, t, who)
    F = Fraction
    tight, err, tiny = _TIGHT, _EVAL_ERR, _TINY
    n = cols[0].size

    def blocks(cols=cols, point=point, size=_BLOCK):
        # the values, and the magnitude sums as the values of the |columns|
        # at the |point|, since fl(|a|*|x|) = |fl(a*x)|
        for i in range(0, n, size):
            block = [col[i:i + size] for col in cols]
            yield (i, _evaluate(block, point),
                   _evaluate(list(map(abs, block)), list(map(abs, point))))

    with np.errstate(over="ignore", invalid="ignore"):
        # One block is read once, for both passes.
        first = list(blocks()) if n <= _BLOCK else blocks()
        top = -math.inf
        top_s = most = 0.0
        for _, v, s in first:
            j = v.argmax()
            if v[j] > top:
                top = v.item(j)
                top_s = s.item(j)
            most = max(most, s.item(s.argmax()))
        # Every value is finite where every magnitude sum is, since
        # |fl(v)| <= fl(s) term by term.
        if math.isfinite(most):
            floor = top - _NEAR * most - 8 * tiny
            found = [(k + i, v[k], s[k])
                     for i, v, s in (blocks() if n > _BLOCK else first)
                     for k in [(v >= floor).nonzero()[0]]]
            idx, v, s = (np.concatenate(z) for z in zip(*found))
    if not math.isfinite(most):
        # A term overflows: every value and scale again, in Fractions.
        [(_, v, s)] = blocks(_fractions(cols), tuple(map(F, point)), n)
        idx = np.arange(n)
        j = int(np.argmax(v))
        top, top_s = v[j], s[j]
        tight, err, tiny = F(_TIGHT), 0, 0
    # Every constraint outside ``near`` evaluates below the top value by
    # more than both rounding bounds, so it cannot attain the maximum.
    near = v >= top - tight * top_s - tight * s - 2 * tiny
    scale = F(s[near].max())
    bound = (2 * F(_TIGHT) + F(err)) * scale + 3 * F(tiny)
    upper = F(top) + F(err) * scale + F(tiny)
    # A certificate that holds can put only little weight on constraints
    # more than 2 W below the top; all others may take part.  At a point
    # off by rounding from a vertex where many constraints meet, the first
    # set alone can miss the supports on one side.
    cut = F(top) - 2 * bound
    near |= v >= (cut if v.dtype == object else float(cut))
    keep = near.nonzero()[0]
    if upper - F(t) > bound:
        raise ContractViolation(
            f"{who}: the objective at {point} reaches {_to_float(upper)!r},"
            f" above t={t} by more than the rounding bound "
            f"{_to_float(bound)!r}")
    lower = lower_bound(idx[keep], v[keep])
    if lower is None:
        raise ContractViolation(
            f"{who}: no near-tight constraints certify t={t} at {point}")
    if F(t) - lower > bound:
        raise ContractViolation(
            f"{who}: t={t} lies above the lower bound {_to_float(lower)!r} "
            f"by more than the rounding bound {_to_float(bound)!r}")


def _fractions(cols) -> list[np.ndarray]:
    """The float columns ``cols`` as object columns of exact Fractions."""
    return [np.array(list(map(Fraction, col.tolist())), dtype=object)
            for col in cols]


def exact_objective(cols, *point: float) -> float:
    """``objective`` in rational arithmetic, rounded to a double; -inf or
    inf when it lies outside the double range."""
    return _to_float(max(_evaluate(_fractions(cols),
                                   tuple(map(Fraction, point)))))


def _to_float(q: Fraction) -> float:
    """``q`` rounded to a double; -inf or inf outside the double range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf
