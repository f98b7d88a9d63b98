"""Problem and solution value types, the constraint reader and the
objective evaluator shared by the solver modules."""

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
from .geometry import _EPS, Point2


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
    solvers leave it empty.
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
    if isinstance(cs, np.ndarray) and cs.ndim == 0:
        _check_shape(cs, k)  # a 0-d array has no rows to count
    if len(cs) == 0:
        raise EmptyProblem("no constraints")
    if isinstance(cs, Problem):
        if len(cs._cols) < k:
            raise ValueError(f"constraints need at least {k} fields")
        return cs._cols[:k]
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

    Summed left to right in floats, and evaluated again exactly when that
    overflows; -inf or inf when the maximum lies outside the double range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v = cols[0] * point[0]
        for col, p in zip(cols[1:-1], point[1:]):
            v += col * p
        v += cols[-1]
        t = float(np.max(v)) + 0.0
    return t if math.isfinite(t) else exact_objective(cols, *point)


# The answer checks' rounding bounds, in units of the unit roundoff.  A
# constraint value a*x + b or a*x + b*y + c formed in floats is within
# gamma_3 * S of the exact one, S the sum of its terms' magnitudes
# (Higham, Accuracy and Stability of Numerical Algorithms, 3.1); S formed
# in floats loses at most three roundings, so _EVAL_ERR times it covers
# gamma_3 * S, and _EVAL_TINY covers products that underflow (each off by
# at most 2**-1075).
_EVAL_ERR = 4.0 * _EPS
_EVAL_TINY = 2.0 ** -1070
# A right answer is exact up to the roundings that form it.  The
# one-variable solvers form x with three roundings and t by evaluating one
# supporting constraint at x, so at x both supports, and every constraint
# that can attain the maximum, evaluate within about (3 + 2)u times their
# own and the top constraint's magnitude sums of the top value.  _TIGHT
# keeps a margin over that.  The box solver's point comes from float
# quotients on the lines of rounded plane differences; its error is not
# bounded this way, and on near-degenerate inputs it can be larger.
_TIGHT = 8.0 * _EPS


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
    """
    require_finite(point, t, who)
    with np.errstate(over="ignore", invalid="ignore"):
        v, s = _values(cols, point)
    F = Fraction
    tight, err, tiny = _TIGHT, _EVAL_ERR, _EVAL_TINY
    if not (np.isfinite(v).all() and np.isfinite(s).all()):
        # A term overflows: every value and scale again, in Fractions.
        v, s = _values(_fractions(cols), tuple(map(F, point)))
        tight, err, tiny = F(_TIGHT), 0, 0
    top = int(np.argmax(v))
    # Every constraint outside ``near`` evaluates below the top value by
    # more than both rounding bounds, so it cannot attain the maximum.
    near = v >= v[top] - tight * s[top] - tight * s - 2 * tiny
    scale = F(s[near].max())
    bound = (2 * F(_TIGHT) + F(err)) * scale + 3 * F(tiny)
    upper = F(v[top]) + F(err) * scale + F(tiny)
    # A certificate that holds can put only little weight on constraints
    # more than 2 W below the top; all others may take part.  At a point
    # off by rounding from a vertex where many constraints meet, the first
    # set alone can miss the supports on one side.
    cut = F(v[top]) - 2 * bound
    near |= v >= (cut if v.dtype == object else float(cut))
    idx = near.nonzero()[0]
    if upper - F(t) > bound:
        raise ContractViolation(
            f"{who}: the objective at {point} reaches {_to_float(upper)!r},"
            f" above t={t} by more than the rounding bound "
            f"{_to_float(bound)!r}")
    lower = lower_bound(idx, v[idx])
    if lower is None:
        raise ContractViolation(
            f"{who}: no near-tight constraints certify t={t} at {point}")
    if F(t) - lower > bound:
        raise ContractViolation(
            f"{who}: t={t} lies above the lower bound {_to_float(lower)!r} "
            f"by more than the rounding bound {_to_float(bound)!r}")


def _terms(cols, point) -> list:
    """Each constraint's terms at ``point``, in the order ``objective`` sums
    them: a*x and b, or a*x, b*y and c."""
    return [col * p for col, p in zip(cols, point)] + [cols[-1]]


def _values(cols, point):
    """Each constraint's value at ``point`` and the sum of its terms'
    magnitudes, as ``objective`` forms them."""
    v, *rest = _terms(cols, point)
    s = abs(v)
    for term in rest:
        v = v + term
        s = s + abs(term)
    return v, s


def _fractions(cols) -> list[np.ndarray]:
    """The float columns ``cols`` as object columns of exact Fractions."""
    return [np.array(list(map(Fraction, col.tolist())), dtype=object)
            for col in cols]


def exact_objective(cols, *point: float) -> float:
    """``objective`` in rational arithmetic, rounded to a double; -inf or
    inf when it lies outside the double range."""
    terms = _terms(_fractions(cols), tuple(map(Fraction, point)))
    return _to_float(max(sum(terms[1:], terms[0])))


def _to_float(q: Fraction) -> float:
    """``q`` rounded to a double; -inf or inf outside the double range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf
