"""Problem and solution value types shared by the solver modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteInput
from .geometry import Point2


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


def _check_shape(arr: np.ndarray, k: int) -> None:
    if arr.ndim != 2 or arr.shape[1] < k:
        raise ValueError(
            f"constraint array must have shape (n, k >= {k}), got {arr.shape}")


def columns(cs, k: int) -> list[np.ndarray]:
    """The first ``k`` fields of every constraint as float64 columns.

    ``cs`` is a sequence of rows or an (n, >= k) array.  Raises ValueError
    for a row or array with fewer than ``k`` fields, and NonFiniteInput for
    a non-finite field, naming the first such constraint.
    """
    if isinstance(cs, np.ndarray):
        _check_shape(cs, k)
        cols = [np.asarray(cs[:, j], dtype=float) for j in range(k)]
    else:
        n = len(cs)
        try:
            cols = [np.fromiter(map(itemgetter(j), cs), float, n)
                    for j in range(k)]
        except IndexError:
            raise ValueError(f"constraints need at least {k} fields") from None
    # A sum is finite only if every term is; a sum that overflows merely
    # sends the check on to the elementwise test.
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(col.sum() for col in cols)
    if not math.isfinite(total):
        finite = np.logical_and.reduce([np.isfinite(col) for col in cols])
        if not finite.all():
            raise NonFiniteInput(
                f"constraint {int(np.argmin(finite))} is not finite")
    return cols


def as_rows(cs):
    """``cs`` itself, or the rows of an (n, k >= 2) array as Python lists.

    Row consumers read the first fields of each row, so an array reads the
    same as the list of its rows.
    """
    if isinstance(cs, np.ndarray):
        _check_shape(cs, 2)
        return cs.tolist()
    return cs
