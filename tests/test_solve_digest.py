"""One SHA-256 over every outcome of ``solve`` and ``solve_boxed`` on a
seeded corpus that reaches each of the 2D solver's setups and forks: the
list path (below 64 constraints), the side-ordered copy in one take and
in blocks (up to two blocks of rows), the block offsets (above two
blocks), and pairs problems on the list path, in one block and above
one.  At each size there are rows of both slope signs, slopes all <= 0
(a third of them zero, the x-mirror), and ties and duplicates at the
start point; beside them, rows near +-1.7e308 whose differences or
slopes overflow, all-zero slopes and one-sided problems.

The inputs are Philox uniforms combined by +, - and * alone, and copied
by assignment, so they are the same bits on every IEEE host, whatever
numpy's SIMD dispatch; the solver's answers must then be too.  The scans
run with numpy's floating-point warnings as errors: a scan may only let
them fire where the range of the solve's values proves that no
difference or slope overflows.
"""

import hashlib
import warnings

import numpy as np

from minmaxlp import (ContractViolation, Problem, expand_absolute, solve,
                      solve_boxed)

# Constraint counts: the list path, the one-take copy, the blocked copy
# and the block offsets.
SIZES = (5, 40, 63, 64, 1000, 65537, 100_000, 131_073, 200_000)
# Rows of pairs problems: the list path (below 64 constraints), one block,
# and more than one block of rows.
PAIR_ROWS = (3, 20, 31, 32, 500, 70_000)
BOXES = ((-0.25, 0.5), (0.75, 2.0), (1.0, 0.5))

SOLVE_SHA256 = (
    "b2aa43f6421a3cb43bbbfa8c972cae8f762758ae8ca2181d4103f5c37e715866")


def _uniforms(seed: int, n: int) -> np.ndarray:
    return np.random.Generator(np.random.Philox(seed)).random((2, n))


def _mixed(n, seed):
    u, v = _uniforms(seed, n)
    return (u - 0.5) * 6.0, (v - 0.5) * 6.0


def _nonpositive(n, seed):
    """Slopes all <= 0, every third one zero."""
    u, v = _uniforms(seed, n)
    a = u * -3.0
    a[::3] = 0.0
    return a, (v - 0.5) * 6.0


def _ties(rows, left):
    """The rows ``rows`` where each fifth row repeats the row before it, a
    few rows on the ``left`` side share the side's largest intercept at
    other slopes, and the last row repeats the start point: the largest of
    those intercepts with the least slope."""
    a, b = rows
    a[1::5] = a[:-1:5]
    b[1::5] = b[:-1:5]
    side = left(a).nonzero()[0][:-1]
    if not side.size:
        return a, b
    top = b[side].max()
    b[side[1::max(1, side.size // 4)][:4]] = top
    tied = side[b[side] == top]
    start = tied[a[tied].argmin()]
    a[-1], b[-1] = a[start], b[start]
    return a, b


def _huge(n, seed):
    """Slopes and intercepts near +-1.7e308: some differences overflow."""
    u, v = _uniforms(seed, n)
    return (u * 2.0 - 1.0) * 1.7e308, (v * 2.0 - 1.0) * 1.7e308


def _far(n, seed):
    """Mixed rows and two far ones, whose differences overflow."""
    a, b = _mixed(n, seed)
    a[n // 3], b[n // 3] = 1.7e308, -1e307
    a[n // 2], b[n // 2] = -1.7e308, -1e307
    return a, b


def _steep(n, seed):
    """Slopes in (-1, 1), every third one tiny, and intercepts in
    (-0.8e308, 0.8e308): no difference overflows, but slopes seen from
    the start point, row 1 of slope -0.625, do."""
    u, v = _uniforms(seed, n)
    a = u * 2.0 - 1.0
    a[::3] = u[::3] * 1e-300
    b = (v - 0.5) * 1.6e308
    a[1], b[1] = -0.625, 0.8e308
    return a, b


def _problems():
    """(label, problem) for the whole corpus, the problem as columns or as
    a pairs problem."""
    for n in SIZES:
        yield f"mixed {n}", _mixed(n, n)
        yield f"nonpositive {n}", _nonpositive(n, n + 1)
        yield f"ties {n}", _ties(_mixed(n, n + 2), lambda a: a <= 0.0)
        yield f"mirrored ties {n}", _ties(_nonpositive(n, n + 3),
                                          lambda a: a == 0.0)
    # the wide scans of each numpy setup; the list path has none
    for n in (5, 63, 1000, 65537, 131_073):
        yield f"huge {n}", _huge(n, n + 4)
    for n in (40, 1000, 65537, 131_073):
        yield f"steep {n}", _steep(n, n + 6)
    for n in (40, 1000, 131_073):
        yield f"far {n}", _far(n, n + 5)
        u, v = _uniforms(n + 7, n)
        yield f"flat {n}", (u * 0.0, v - 0.5)
        yield f"rising {n}", (u + 0.5, v - 0.5)
        yield f"falling {n}", (u - 1.5, v - 0.5)
    for n in (2, 64):
        # the optimal x, about -1e600, lies outside the double range
        a = np.tile([1e-300, -1e-300], n // 2)
        yield f"beyond {n}", (a, a * 1e300 * 1e300)
    for n in PAIR_ROWS:
        a, c = _mixed(n, n + 8)
        yield f"pairs {n}", _pairs(a, c)
        a, c = _mixed(n, n + 9)
        a[::4] = 0.0
        a[1::8] = -0.0
        yield f"pairs with flat rows {n}", _pairs(a, c)
        # ties of the left constraints' intercepts -sgn(a) c, and repeats
        a, c = _ties(_mixed(n, n + 10), lambda a: a < 0.0)
        a[2::7] = -a[2::7]
        c[2::7] = -c[2::7]
        yield f"pairs ties {n}", _pairs(a, c)
        u, v = _uniforms(n + 12, n)
        yield f"pairs flat {n}", _pairs(u * 0.0, v - 0.5)
    for n in (3, 31, 500):
        yield f"pairs huge {n}", _pairs(*_huge(n, n + 11))
        yield f"pairs steep {n}", _pairs(*_steep(n, n + 13))


def _pairs(a, c):
    return expand_absolute(Problem(a, c))


def _hex(v) -> str:
    return v.hex() if isinstance(v, float) else repr(v)


def _outcome(fn, *args) -> str:
    """What ``fn(*args)`` gives, bit for bit, or the error it raises."""
    try:
        sol = fn(*args)
    except (ValueError, ArithmeticError, ContractViolation) as e:
        return f"{type(e).__name__}: {e}"
    return " ".join([sol.status.value, _hex(sol.x), _hex(sol.t),
                     str(sol.iterations),
                     *(_hex(v) for pair in sol.pivot_pairs for p in pair
                       for v in p)])


def _lines() -> list[str]:
    """One line per outcome of the corpus, with numpy's floating-point
    warnings raised as errors."""
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label, p in _problems():
            if not isinstance(p, Problem):
                p = Problem(*p)
            lines.append(f"{label}: {_outcome(solve, p)}")
            # objective sums such rows exactly: boxed at small sizes only
            wide = label.startswith(("huge", "far", "steep"))
            if wide and len(p) > 1000:
                continue
            for lo, hi in BOXES:
                lines.append(f"  box {lo} {hi}: "
                             f"{_outcome(solve_boxed, p, lo, hi)}")
    return lines


def test_every_setup_answers_as_pinned():
    digest = hashlib.sha256("\n".join(_lines()).encode()).hexdigest()
    assert digest == SOLVE_SHA256
