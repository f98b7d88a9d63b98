"""Scratch memory of the text and generator layers, traced by tracemalloc:
the formatter streams, the parser holds one byte copy of its text, and
neither a problem's build nor the generator copies its columns more than
once."""

import os
import tracemalloc

import numpy as np
import pytest

from minmaxlp import GenSpec, Problem, gen2d
from minmaxlp import cli
from minmaxlp.model import columns


def _peak(fn, *args) -> int:
    """Bytes allocated at the peak of ``fn(*args)`` above what was held
    before the call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_holds_one_block_whatever_the_rows():
    peaks = []
    for n in (100_000, 400_000):
        cs = gen2d(GenSpec(n=n, seed=1))
        with open(os.devnull, "w", encoding="utf-8") as sink:
            peaks.append(_peak(cli._write_constraints, cs, sink))
    assert peaks[1] <= 1.25 * peaks[0]


def test_parse_holds_one_byte_copy():
    text = cli._format_constraints(gen2d(GenSpec(n=100_000, seed=1)))
    assert _peak(cli.parse_constraints, text) <= 2 * len(text)


def test_problem_does_not_stack_its_columns():
    cs = gen2d(GenSpec(n=100_000, seed=1))
    a, b = map(np.array, columns(cs, 2))
    assert _peak(Problem, a, b) < 0.1 * (a.nbytes + b.nbytes)


def test_gen2d_holds_the_uniforms_and_one_pair_of_columns():
    # 16 MB of uniforms and the 16 MB result, and 4 MB to spare
    assert _peak(gen2d, GenSpec(n=10**6)) <= 36e6
