"""Problem and solution value types shared by the solver modules."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

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


class Residual2(NamedTuple):
    """An absolute-value term |a*x + c|.

    The ``b`` field carries the y-coefficient of the full two-variable
    residual |a*x + b*y + c|; the one-variable pipeline ignores it.
    """

    a: float
    c: float
    b: float = 0.0


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


def checked_array(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, once checked to hold one constraint per row."""
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError(
            f"constraint array must have shape (n, k >= 2), got {arr.shape}")
    return arr


def as_rows(cs):
    """``cs`` itself, or the rows of an (n, k >= 2) array as Python lists.

    Row consumers read the first fields of each row, so an array reads the
    same as the list of its rows.
    """
    if isinstance(cs, np.ndarray):
        return checked_array(cs).tolist()
    return cs
