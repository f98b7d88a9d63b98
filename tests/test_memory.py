"""Scratch memory, traced by tracemalloc: the formatter streams, the
parser holds one byte copy of its text, the file and the pipe reader one
copy of their rows and a few chunks, a problem's build copies its columns
at most once, the generator holds its output and a few blocks, the 2D
solver holds a few blocks besides its input, its x-mirror too, and the
answer checks and the objective hold a few blocks of rows."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from minmaxlp import (ContractViolation, GenSpec, Problem, Solution3,
                      check2d, check3d, expand_absolute, gen2d, gen3d, solve)
from minmaxlp import cli
from minmaxlp.model import columns, objective


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


def test_file_reader_holds_its_rows_and_a_few_chunks(tmp_path,
                                                     monkeypatch):
    # A gen file is read by _DecimalRows into one array sized from the
    # file's size, a sixteenth over, and shrunk in place; each chunk's
    # scratch is a few times its size.  Rows gathered chunk by chunk and
    # joined at the end would hold them twice.
    path = tmp_path / "g.txt"
    assert cli.main(["gen", "--n", "100000", "--seed", "1",
                     "--out", str(path)]) == 0
    monkeypatch.setattr(cli, "_parse_lines", None)  # the chunk pass only
    rows = 100_000 * 2 * 8
    assert (_peak(cli.parse_constraints, path)
            <= 17 / 16 * rows + 12 * cli._READ_CHUNK)


def test_stream_reader_holds_its_bytes_and_rows_and_a_few_chunks(
        monkeypatch):
    # A pipe is read as its chunks arrive, as a file is, into one array
    # grown in place a sixteenth over what it holds, since its size is not
    # known: neither its bytes nor a decoded copy of its text are held.
    data = cli._format_constraints(gen2d(GenSpec(n=100_000, seed=1))).encode()
    monkeypatch.setattr(cli, "_parse_lines", None)  # the chunk pass only
    r, w = os.pipe()

    def write():
        with open(w, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    with open(r, "rb") as f:
        peak = _peak(cli.parse_constraints, f)
    writer.join(30)
    assert not writer.is_alive()
    rows = 100_000 * 2 * 8
    assert peak <= 17 / 16 * rows + 12 * cli._READ_CHUNK


@pytest.mark.parametrize("end", [b"\r"])
def test_file_reader_holds_no_unended_line(tmp_path, monkeypatch, end):
    # A file with no '\n', of '\r'-ended lines, is converted a chunk at a
    # time as a '\n'-ended one is: no line of it is held past its chunk.
    path = tmp_path / "g.txt"
    assert cli.main(["gen", "--n", "100000", "--seed", "1",
                     "--out", str(path)]) == 0
    path.write_bytes(path.read_bytes().replace(b"\n", end))
    monkeypatch.setattr(cli, "_parse_lines", None)  # the chunk pass only
    assert b"\n" not in path.read_bytes()
    rows = 100_000 * 2 * 8
    assert (_peak(cli.parse_constraints, path)
            <= 17 / 16 * rows + 12 * cli._READ_CHUNK)


def _held(fn, *args) -> tuple[int, int]:
    """Bytes that ``fn(*args)``'s result holds, and bytes allocated at
    its peak, both above what was held before the call."""
    tracemalloc.start()
    try:
        got = fn(*args)  # noqa: F841 -- held while measured
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_problem_copies_separate_columns_once():
    # A problem is one (k, n) array.  One such array, and the generator's
    # output, are held as they are; separate columns are written once into
    # a new one.
    rows = np.array(columns(gen2d(GenSpec(n=100_000, seed=1)), 2))
    assert max(_held(Problem, rows)) < 0.1 * rows.nbytes
    held = _held(gen2d, GenSpec(n=100_000, seed=1))[0]
    assert rows.nbytes <= held < 1.1 * rows.nbytes
    held, peak = _held(Problem, *rows.copy())
    assert rows.nbytes <= held and peak < 1.1 * rows.nbytes


def test_gen2d_holds_its_output_and_a_few_blocks():
    # the 16 MB result, and a few blocks of uniforms and columns
    assert _peak(gen2d, GenSpec(n=10**6)) <= 20e6


def test_gen3d_holds_its_output_and_a_few_blocks():
    # the 24 MB result, and a few blocks of uniforms and columns
    assert _peak(gen3d, GenSpec(n=10**6, dim=3)) <= 30e6


def test_solve_holds_a_few_blocks_besides_its_input():
    # 2 bytes of offsets a row (2 MB), and a few blocks besides; a
    # side-ordered copy of the 16 MB input would not fit
    cs = gen2d(GenSpec(n=10**6, seed=1))
    assert _peak(solve, cs) <= 5e6


def test_nonpositive_solve_holds_no_mirrored_copy():
    # Slopes all <= 0, a third of them zero, are solved as their x-mirror
    # on the rows where they lie: the mirror's pass writes its own 2 MB of
    # offsets once the first pass's are dropped.  A negated copy of the
    # slopes would take 8 MB more.
    a, b = columns(gen2d(GenSpec(n=10**6, seed=1)), 2)
    a = -np.abs(a)
    a[::3] = 0.0
    assert _peak(solve, Problem(a, b)) <= 4e6


def test_pairs_solve_and_check_hold_one_copy_of_the_rows():
    # A pairs problem holds its n rows once; the solve fills one (2, n)
    # buffer of the right side's points, and the check reads the rows in
    # blocks.  Pairs written out would hold 32 MB, and the solve's copy of
    # them 32 MB more.
    cs = gen2d(GenSpec(n=10**6, seed=1))
    size = sum(col.nbytes for col in columns(cs, 2))

    def fit():
        pairs = expand_absolute(cs)
        check2d(pairs, solve(pairs))

    assert _peak(fit) <= 1.1 * size


def _rejected(check, cs, sol):
    try:
        check(cs, sol)
    except ContractViolation:
        pass


def test_checks_hold_a_few_blocks_whatever_the_rows():
    peaks2, peaks3 = [], []
    for n in (100_000, 10**6):
        cs = gen2d(GenSpec(n=n, seed=2))
        peaks2.append(_peak(check2d, cs, solve(cs)))
        # A point that is not the optimum: the check reads every row and
        # rejects it on the lower bound.
        cs = gen3d(GenSpec(n=n, seed=2, dim=3))
        sol = Solution3(x=0.5, y=0.5, t=objective(columns(cs, 3), 0.5, 0.5))
        peaks3.append(_peak(_rejected, check3d, cs, sol))
    assert peaks2[1] <= 1.25 * peaks2[0]
    assert peaks3[1] <= 1.25 * peaks3[0]
    assert max(peaks2 + peaks3) <= 4e6


def test_objective_holds_a_few_blocks():
    cs = gen3d(GenSpec(n=10**6, seed=3, dim=3))
    assert _peak(objective, columns(cs, 3), 0.5, 0.5) <= 4e6
