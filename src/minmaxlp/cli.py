"""Command-line frontend.

Constraint files hold one constraint per line, fields comma- or
whitespace-separated: two fields (a, b) for the one-variable problem,
three (a, b, c) for the boxed two-variable problem.  Blank lines, lines
starting with '#' and a leading byte-order mark are ignored; the field
count must be uniform.  Floats are printed as repr prints them, in the
shortest form that reads back as the same double, so emitted corpora
re-parse to bit-identical values; gen's writer (the shortest module) forms
those digits with numpy and leaves to repr only the fields it cannot decide.

The answering subcommands, solve2d, solve3d, prune3d and oracle, share one
path: read the input, check its field count (2 for solve2d, 3 for solve3d
and prune3d, either for oracle), apply --mode, answer, certify the answer
on --validate (for prune3d, the kept rows' optimum) and print it.

Input is UTF-8; bytes that do not decode are an input error naming their
line.  Every input is read once, forward, by one byte reader: a file from
its opened handle, stdin from its binary stream, and a pipe, a FIFO or
``<(...)`` as its bytes arrive.  Its whole lines are converted a chunk at a
time, one of two ways.  On x87, a chunk of plain decimals, comma-separated
``[-]I.F`` fields as gen writes them, is divided out: the digits of each
field, up to 19 from its first non-zero one, are read as an unsigned
64-bit integer and divided by a power of ten in extended precision; a
field of more digits, or one whose quotient lands on a midpoint of two
doubles, is read by float().  Any other chunk (blank-separated fields,
integer, '+' or exponent fields, blank lines, whole-line '#' comments),
and every chunk elsewhere, is read by numpy's fromstring as doubles;
'\r\n' and a lone '\r' end a line as '\n' does.  Neither holds a decoded
copy of the text.  From the first line of a chunk that both turn down,
the rest of the input is decoded and parsed line by line, which names
the first bad line.  ``gen`` writes its rows in blocks as it formats
them, so it holds one block of text at a time, never the whole file.

Exit codes: 0 success (an unbounded verdict is a valid answer),
1 stdout closed before the output was written (a broken pipe, as in
``minmaxlp prune3d big.txt | head``; nothing is reported), 2 input error,
including undecodable input, or out of memory (the input or the requested
instance is too large for this machine; the message names the command),
3 internal contract violation.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import stat
import sys
import warnings
from dataclasses import asdict, astuple, fields
from functools import cache, partial
from itertools import chain
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import bench as bench_mod
# Unused here, but perfbench/spans.py traces cli.solve_baseline by
# rebinding it, so the name stays a module attribute.
from .baseline import solve_baseline  # noqa: F401
from .errors import ContractViolation, EmptyProblem, MixedArity, ParseError
from .instances import GenSpec, gen2d, gen3d
from .model import (Problem, Solution2, Solution3, Status, check2d, check3d,
                    columns, objective, signed_pairs)
from .oracle import brute2d, brute3d_box
from .prune3d import PruneReport, prune, solve3d
from .solver2d import expand_absolute, solve

__all__ = ["parse_constraints", "emit_solution", "main"]


def parse_constraints(source: str | os.PathLike | BinaryIO) -> Problem:
    """Parse constraints from text, from the file at a path, or from a
    binary stream read to its end; arity (2 or 3 fields) picks the problem
    type.

    One reader (_read) reads every source as bytes, in one forward pass: a
    path as its opened file, and ASCII text as its bytes once one leading
    U+FEFF is dropped.  Other text goes to the line scan, which names the
    first bad line.  Every route reads each field as ``float(field)`` does,
    and gives the line scan's rows, bit for bit, or its error and line.
    Only the line scan holds a decoded copy of the text.
    """
    if isinstance(source, str):
        text = source.removeprefix("\ufeff")
        if not text.isascii():
            return _parse_lines(text)
        return _read(io.BytesIO(data := text.encode()), len(data))
    if isinstance(source, os.PathLike):
        with open(source, "rb") as f:
            return _read(f)
    return _read(source)


def _read(f, size: int = 0) -> Problem:
    """``parse_constraints`` on the binary stream ``f``, read once, from
    where it stands to its end, _READ_CHUNK bytes at a time.

    One leading byte-order mark is dropped, and _DecimalRows converts the
    whole lines of each chunk as they arrive; ``size``, or a regular
    file's size, sizes its array.  Where it turns a chunk's lines down, the
    line scan reads the text from their first line on, with the line
    number, the field count and the rows of the lines before: its rows,
    error and line are those of a scan of the whole text.  Undecodable
    bytes raise ParseError naming their line.
    """
    try:
        st = os.fstat(f.fileno())
        size = st.st_size if stat.S_ISREG(st.st_mode) else size
    except OSError:  # io.UnsupportedOperation: no file descriptor
        pass
    rows = _DecimalRows(size)
    # read up to the first chunk turned down; an empty chunk ends the input
    if all(map(rows.feed, chain([f.read(len(_BOM)).removeprefix(_BOM)],
                                iter(partial(f.read, _READ_CHUNK), b""),
                                [b""]))) and rows.n:
        return rows.result()
    # no rows, or a chunk turned down
    text = _decode(b"".join((*rows.tail, f.read())), rows.lines)
    return _parse_lines(text, rows.lines, rows.k or None,
                        rows.rows[:, :rows.n] if rows.n else None)


# Bytes that _read reads, and _DecimalRows converts, at a time.  Chunks of
# 1 MiB raised a process's peak RSS by 2 MB over 20 solves of 1e3-1e5-row
# files (glibc's malloc then serves reads of that size from its heap),
# where 64 KiB left it 1.1 MB below reading the decoded text; the checks of
# a 1e6-row file take 16-19 ms at 64 KiB, 256 KiB and 1 MiB alike (2-CPU
# x86-64 host, glibc, Python 3.11).  A 64 KiB chunk of a gen file holds
# about 3400 fields, which _DecimalRows converts in about 0.5 ms; 60 us of
# that is the fixed cost of its numpy calls, and its scratch is a few
# chunks' worth.
_READ_CHUNK = 1 << 16
_BOM = b"\xef\xbb\xbf"
# A whole-line comment: blanks that str.strip drops, '#', and ASCII that
# str.splitlines does not take for a line end.
_COMMENT = re.compile(rb"(?m)^[ \t\x1f]*#[^\n\v\f\x1c-\x1e\x80-\xff]*$")
# _DecimalRows' map of the bytes of lines without comments to the text
# np.fromstring reads as doubles: a field's bytes and '\n' stay, the blanks
# and ',' between fields become ' ', and any other byte becomes '|', which
# turns the lines down before np.fromstring reads them.
_TO_FIELDS = bytes(c if chr(c) in "0123456789.-+eE\n" else ord(" ")
                   if chr(c) in " \t\x1f," else ord("|") for c in range(256))
# _DecimalRows' map of the bytes of a file to the text np.fromstring reads
# as integers, with '.', '-', '+', 'e' and 'E' dropped: '\n' ends a field
# as ',' does, digits stay, and any other byte becomes '|', which
# _DecimalRows turns down before np.fromstring reads the text: older numpy
# only warns at a byte it cannot read, and returns the numbers before it.
_TO_DIGITS = bytes(c if chr(c) in "0123456789," else ord(",") if c == 10
                   else ord("|") for c in range(256))
# 10**m for m <= 22 is 2**m * 5**m with 5**m < 2**53: exact in a double.
# Built without a ufunc, and cast to longdouble by _DecimalRows: the first
# call of np.power or of a longdouble loop pages in 132 KB of numpy's code,
# which a process that reads no file need not hold.
_POWERS_OF_TEN = np.array([float(10**m) for m in range(23)])
# _DecimalRows' division needs a significand that holds every 19-digit
# integer and a correctly rounded division: x87's extended format, 64
# bits, the one its proof and its timings are for, stored as it is on
# x86-64, in 16 little-endian bytes whose first two hold the significand's
# lowest 16 bits.  Elsewhere (a longdouble that is a double, IBM
# double-double, whose division is not correctly rounded, software
# binary128, or x87's format in 12 bytes) every chunk is read by
# np.fromstring as doubles.
_LONG_SIGNIFICAND = (np.finfo(np.longdouble).nmant == 63
                     and np.dtype(np.longdouble).itemsize == 16
                     and sys.byteorder == "little")


class _DecimalRows:
    """The rows of an ASCII input, each field as ``float(field)`` reads it,
    converted a chunk of whole lines at a time.

    The lines are those the line scan reads, with '\\n', '\\r\\n' or a
    lone '\\r' at their ends (a chunk is cut before a last '\\r', which may
    begin a '\\r\\n'): each holds k = 2 or 3 fields, separated by ',' or
    blanks (' ', '\\t', '\\x1f') and runs of them, with blanks around, or
    is blank, or is a whole-line '#' comment.  A field is a decimal, with
    or without '.', a sign or an exponent.  Each chunk's lines are
    converted one of two ways, chosen from their bytes (lines with a ' ' or
    a '\t' are not plain decimals):

    - Plain decimals on x87 (``_divide``): k comma-separated fields a line,
      each ``[-]I.F`` or ``[-]I``, '\\n' ends.  A field of N digits, m of
      them in F, N read as a uint64 with at most 19 digits from its first
      non-zero one and m at most 22, is N / 10**m: N < 10**19 < 2**64 and
      10**m are exact in a 64-bit significand, and their longdouble
      quotient, rounded once there and once more to a double, is the
      correctly rounded N / 10**m unless the first rounding lands on a
      midpoint of two doubles (W. D. Clinger, PLDI 1990; D. Lemire,
      *Number parsing at a gigabyte per second*, SPE 2021).  The quotient
      lies in [1e-22, 1e19) or is 0, so neither rounding is subnormal, and
      a double's 53-bit significand is the top 53 bits of the 64: the
      quotient is a midpoint iff the 11 bits below them are 0x400, a one
      and ten zeros, which ``_divide`` reads in the longdouble's bytes (the
      layout _LONG_SIGNIFICAND checks).  A field whose quotient is such a
      midpoint (about 1 in 2048), one with 'e', 'E' or '+', and one of more
      digits are read by ``float(field)``.  The sign comes from the field's
      '-': the value is multiplied by 1.0 or -1.0, which is exact, so
      "-0.0" is -0.0.
    - Any other lines, and all lines elsewhere (``_fromstring``):
      ``np.fromstring`` as doubles, correctly rounded as float() rounds,
      once the lines are checked to hold the grammar's bytes alone, each
      line k fields or none (and then no ','); the lines are turned down
      unless it reads as many values as there are fields, all finite.

    An empty chunk ends the input, and its last line, if unended, is
    converted then.  Lines either way turns down make ``feed`` False; they
    and the bytes after them are left in ``tail``, and ``lines``, ``k``
    and the rows read are those of the lines before them.

    The rows go into one (k, capacity) array, field j of each row into row
    j, the problem's own layout.  Its capacity comes from the input's size,
    where known, and the density of the lines read so far, a sixteenth
    over; when that guess is short the array is grown in place, its rows
    moved up.  At the end each row's n fields are moved down in place to
    follow the row before, and the array is shrunk to (k, n): the problem
    is one C-contiguous array with no capacity left over."""

    def __init__(self, size: int):
        self.size = size
        # bytes fed, lines converted, fields a line, rows read
        self.read = self.lines = self.k = self.n = 0
        self.rows = None
        self.tail: list = []  # the bytes fed and not converted
        self.powers = _POWERS_OF_TEN.astype(np.longdouble)

    def feed(self, chunk: bytes) -> bool:
        """Convert the lines ``chunk`` ends, or, given no bytes (the end of
        the input), the last line; False if they are turned down."""
        self.read += len(chunk)
        if not chunk and any(self.tail):
            chunk = b"\n"
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1
        if not cut:
            self.tail.append(chunk)
            return True
        lines = b"".join((*self.tail, memoryview(chunk)[:cut]))
        converted = self._convert(lines)
        self.tail = [chunk[cut:]] if converted else [lines, chunk[cut:]]
        return converted

    def result(self) -> Problem:
        """The rows read, as one array with no capacity left over."""
        self._resize(self.n)
        # every value is finite: the converters check it
        return Problem._of(self.rows)

    def _convert(self, lines: bytes) -> bool:
        """Append the rows of ``lines``, whole lines."""
        if b"\r" in lines:
            lines = lines.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        # a blank between fields is not plain decimals: two searches for it
        # cost a 64 KiB chunk 2 us, where _divide takes 200 to turn it down
        plain = _LONG_SIGNIFICAND and b" " not in lines and b"\t" not in lines
        return plain and self._divide(lines) or self._fromstring(lines)

    def _divide(self, lines: bytes) -> bool:
        """``_convert`` of lines of plain decimals, by division."""
        a = np.frombuffer(lines, np.uint8)
        ends = np.flatnonzero(a <= ord(","))
        dots = np.flatnonzero(a == ord("."))
        if len(ends) != len(dots):
            # '+', or a byte that turns the lines down, adds an end with no
            # '.'; one that lines up with the '.'s anyway leaves the digits
            # fewer numbers than fields, which turns them down too
            ends = ends[(a[ends] == ord(",")) | (a[ends] == ord("\n"))]
        eol = a[ends] == ord("\n")
        k = self.k or int(eol.argmax()) + 1
        if not (k in (2, 3) and len(ends) % k == 0
                and eol[k - 1::k].all() and eol.sum() * k == len(ends)):
            return False
        point = dots
        if not (len(dots) == len(ends) and (dots < ends).all()
                and (dots[1:] > ends[:-1]).all()):
            # at most one '.' a field; one without reads as "I.", m = 0
            # (-1 here, which the powers' clipped take reads as 0)
            field = np.searchsorted(ends, dots)
            if (field[1:] == field[:-1]).any():
                return False
            point = ends.copy()
            point[field] = dots
        starts = np.concatenate(([0], ends[:-1] + 1))
        neg = a[starts] == ord("-")
        m = ends - point - 1
        digits = ends - starts - neg - (m >= 0)
        odd = digits < 1
        for i in np.flatnonzero(digits > 19).tolist():
            # leading zeros are not digits of N
            field = lines[starts[i]:ends[i]].lstrip(b"-0.")
            odd[i] = m[i] > 22 or len(field.replace(b".", b"")) > 19
        text = lines.translate(_TO_DIGITS, b".-+eE")
        if b"|" in text:
            return False
        if len(text) != len(a) - len(dots) - np.count_nonzero(neg):
            # a field with '+', 'e', 'E' or a '-' past its first byte
            at = np.flatnonzero((a == ord("-")) | (a == ord("+"))
                                | (a == ord("e")) | (a == ord("E")))
            field = np.searchsorted(ends, at)
            odd[field[(at != starts[field]) | (a[at] != ord("-"))]] = True
        try:
            exact = {i: float(lines[starts[i]:ends[i]])
                     for i in np.flatnonzero(odd).tolist()}
            # a field of more digits than a uint64 holds is a float()
            # field, whatever number is read for it here
            n = np.fromstring(text, np.uint64, sep=",")
        except ValueError:
            return False
        # every field holds a digit (one without is read by float(), which
        # raises), so each is one number
        if len(n) != len(ends) or not all(map(math.isfinite,
                                              exact.values())):
            return False
        q = n.astype(np.longdouble)
        # a float() field's m may pass 22
        q /= self.powers.take(m, mode="clip")
        # the lowest 16 bits of each quotient's significand; at a
        # midpoint, the 11 below a double's 53 are 0x400
        low = q.view(np.uint16)[::8] & 0x7FF
        for i in np.flatnonzero(low == 0x400).tolist():
            exact[i] = float(lines[starts[i]:ends[i]])
        v = q.astype(np.float64)
        v *= 1.0 - 2.0 * neg
        if exact:
            v[list(exact)] = list(exact.values())
        self.k = k
        self.lines += len(ends) // k
        self._append(v.reshape(-1, k))
        return True

    def _fromstring(self, lines: bytes) -> bool:
        """``_convert`` of any lines, by np.fromstring."""
        if b"#" in lines:
            lines = _COMMENT.sub(b"", lines)
        text = lines.translate(_TO_FIELDS)
        if b"|" in text:
            return False
        a = np.frombuffer(text, np.uint8)
        # a field is a run of bytes above ' '; one pass finds where each
        # begins, and each '\n'
        field = np.concatenate(([False], a > ord(" ")))
        at = field[1:] > field[:-1]
        at |= a == ord("\n")
        at = np.flatnonzero(at)
        eol = a[at] == ord("\n")
        count = np.count_nonzero(eol)
        k = self.k or int(eol.argmax())
        if not (k in (2, 3) and len(at) == (k + 1) * count
                and eol[k::k + 1].all()):
            # each line holds k fields or none, and one with none no ','
            ends = np.flatnonzero(eol)
            per_line = np.diff(ends, prepend=-1) - 1
            k = self.k or int(per_line.max())
            blank = per_line == 0
            if not ((blank | (per_line == k)).all()
                    and (k in (2, 3) or blank.all())):
                return False
            commas = np.frombuffer(lines, np.uint8) == ord(",")
            if blank[np.searchsorted(at[ends], np.flatnonzero(commas))].any():
                return False
        if len(at) > count:
            try:
                with warnings.catch_warnings():
                    # older numpy warns, and returns the values before the
                    # first field it cannot read
                    warnings.simplefilter("error", DeprecationWarning)
                    v = np.fromstring(text, np.float64, sep=" ")
            except (ValueError, DeprecationWarning):
                return False
            if len(v) != len(at) - count or not np.isfinite(v).all():
                return False
            self.k = k
            self._append(v.reshape(-1, k))
        self.lines += count
        return True

    def _append(self, rows) -> None:
        need = self.n + len(rows)
        if self.rows is None or need > self.rows.shape[1]:
            # the rows of the whole input at the density read so far, and a
            # sixteenth more; np.empty's pages cost nothing until written
            guess = need * max(self.size, self.read) // self.read * 17 // 16
            if self.rows is None:
                self.rows = np.empty((self.k, guess))
            else:
                self._resize(guess)
        self.rows[:, self.n:need] = rows.T
        self.n = need

    def _resize(self, capacity: int) -> None:
        """Give the array room for ``capacity`` rows in place, each row's
        n fields moved to its new start: a memoryview copies with memmove
        where source and target overlap, so this needs no scratch.  No view
        of the array outlives the statement or block that made it, so only
        references to the array itself remain, and they see its new shape:
        a trace or profile hook holds them through frame locals, which
        numpy's refcheck counts."""
        rows, size = self.rows, self.n * self.rows.itemsize
        k, old = rows.shape
        rows.resize((k, max(old, capacity)), refcheck=False)
        with memoryview(rows) as whole, whole.cast("B") as b:
            for j in sorted(range(1, k), reverse=capacity > old):
                at, to = (j * c * rows.itemsize for c in (old, capacity))
                b[to:to + size] = b[at:at + size]
        rows.resize((k, capacity), refcheck=False)


def _parse_lines(text: str, start: int = 0, arity: int | None = None,
                 head=None) -> Problem:
    """``parse_constraints`` one line at a time, numbering the lines of
    ``text`` from ``start + 1``, after the (arity, n) rows ``head`` of the
    lines before."""
    rows: list[tuple[float, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            vals = tuple(map(float, line.replace(",", " ").split()))
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse {line!r}",
                             line=lineno) from None
        if not all(math.isfinite(v) for v in vals):
            raise ParseError(f"line {lineno}: non-finite value", line=lineno)
        if len(vals) not in (2, 3):
            raise ParseError(
                f"line {lineno}: expected 2 or 3 fields, got {len(vals)}",
                line=lineno)
        arity = arity or len(vals)
        if len(vals) != arity:
            raise MixedArity(
                f"line {lineno}: expected {arity} fields, got {len(vals)}",
                line=lineno)
        rows.append(vals)
    if arity is None:
        raise EmptyProblem("no constraints in input")
    cols = np.reshape(rows, (-1, arity)).T
    return Problem(cols if head is None else np.hstack((head, cols)))


def _solution_dict(sol) -> dict:
    if isinstance(sol, Solution2):
        if sol.status is Status.UNBOUNDED:
            return {"status": "unbounded"}
        return {"status": "optimal", "x": sol.x, "t": sol.t,
                "iterations": sol.iterations}
    if isinstance(sol, Solution3):
        return {"status": "optimal", "x": sol.x, "y": sol.y, "t": sol.t}
    if isinstance(sol, PruneReport):
        return {"kept": list(sol.kept_indices),
                "discarded_behind": sol.discarded_behind,
                "discarded_steep": sol.discarded_steep,
                "pmin_index": sol.pmin_index}
    raise TypeError(f"cannot emit {type(sol).__name__}")


def emit_solution(sol, fmt: str = "json") -> str:
    """Render a solution or prune report as json or tsv text."""
    d = _solution_dict(sol)
    if fmt == "json":
        return json.dumps(d)
    if fmt == "tsv":
        return "\n".join(
            f"{k}\t{','.join(map(repr, v)) if isinstance(v, list) else v}"
            if isinstance(v, (list, str)) else f"{k}\t{v!r}"
            for k, v in d.items())
    raise ValueError(f"unknown format {fmt!r}")


# Rows formatted at once by _write_constraints: about 2.8 MB of layout,
# masks and text at two fields, whatever the number of rows.
_BLOCK_ROWS = 1 << 14


def _write_constraints(cs, out) -> None:
    """Write the rows of ``cs`` to the text stream ``out``, one line each,
    fields as repr writes them and comma-separated, _BLOCK_ROWS rows at a
    time."""
    from .shortest import rows_text  # compiled only where text is written
    cols = columns(cs, len(cs[0]))
    for i in range(0, len(cols[0]), _BLOCK_ROWS):
        out.write(rows_text(cols[:, i:i + _BLOCK_ROWS]))


def _format_constraints(cs) -> str:
    out = io.StringIO()
    _write_constraints(cs, out)
    return out.getvalue()


def _decode(data: bytes, start: int = 0) -> str:
    """``data`` decoded as UTF-8.  Bytes that do not decode raise
    ParseError naming their line, numbered as the line scan numbers the
    lines of ``data`` from ``start + 1``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = start + len((data[:e.start].decode() + "_").splitlines())
        raise ParseError(f"line {line}: cannot decode byte "
                         f"{data[e.start]:#04x} as UTF-8: {e.reason}",
                         line=line) from None


def _apply_mode(cs: Problem, mode: str) -> Problem:
    """``cs``, or with mode "abs" each residual row r as the pair r, -r."""
    if mode != "abs":
        return cs
    if len(cs[0]) == 2:
        return expand_absolute(cs)
    return signed_pairs(columns(cs, 3))


def _cmd_answer(args) -> int:
    """solve2d, solve3d, prune3d and oracle: read the input, check its
    field count (oracle takes either), apply --mode, answer, certify on
    --validate and print.  Each solver and check is looked up by its name
    here, at the call, so rebinding a module attribute reaches it.  A file
    goes to parse_constraints as its path, stdin as its binary stream
    (a text-only stdin as its text)."""
    stdin = sys.stdin
    cs = parse_constraints(Path(args.input) if args.input != "-" else
                           stdin.buffer if hasattr(stdin, "buffer") else
                           stdin.read())
    cmd = args.command
    if cmd != "oracle":
        want = 2 if cmd == "solve2d" else 3
        have = len(cs[0])
        if have != want:
            raise ParseError(
                f"{cmd} needs {want}-field constraints, input has {have}")
    cs = _apply_mode(cs, args.mode)
    two_fields = cmd == "solve2d" or cmd == "oracle" and len(cs[0]) == 2
    if cmd == "prune3d":
        answer = prune(cs)
    elif cmd == "oracle":
        answer = brute2d(cs) if two_fields else brute3d_box(cs)
    else:
        answer = solve(cs) if two_fields else solve3d(cs)
    if args.validate:
        sol = answer
        if cmd == "prune3d":
            # Pruning soundness, not an answer: the optimum of the kept
            # constraints, with t taken over all of them, must answer the
            # full problem.
            sol = solve3d(answer.kept)
            t = objective(columns(cs, 3), sol.x, sol.y)
            sol = Solution3(x=sol.x, y=sol.y, t=t)
        (check2d if two_fields else check3d)(cs, sol)
    print(emit_solution(answer, args.format))
    return 0


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"gen: --count must be at least 1, got {args.count}")
    if args.out and (args.count != 1 or args.out_dir is not None):
        raise ValueError("gen: --out writes one instance; it takes neither "
                         "--count above 1 nor --out-dir")
    spec = GenSpec(n=args.n, sigma=args.sigma, seed=args.seed, dim=args.dim)
    make = gen2d if args.dim == 2 else gen3d
    if args.count == 1 and args.out_dir is None:
        targets = [(args.index, args.out)]  # no --out: stdout
    else:
        out_dir = Path(args.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        targets = [(k, out_dir / f"instance_{k:05d}.txt")
                   for k in range(args.index, args.index + args.count)]
    for index, path in targets:
        # Generated before its file is opened: a failure here leaves none.
        cs = make(spec, index=index)
        if path is None:
            _write_constraints(cs, sys.stdout)
        else:
            with open(path, "w", encoding="utf-8") as f:
                _write_constraints(cs, f)
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    solvers = args.solver.split(",")
    all_results: dict[str, list[bench_mod.BenchResult]] = {}
    for solver in solvers:
        all_results[solver] = bench_mod.run_scaling(
            solver, sizes, args.batch, args.seed)
    header = (f"{'solver':>14} {'n':>9} {'batch':>6} {'mean_ms':>10} "
              f"{'median_ms':>10} {'pivots':>8}")
    print(header)
    for solver, results in all_results.items():
        for r in results:
            piv = f"{r.mean_iterations:.1f}" if r.mean_iterations else "-"
            print(f"{r.solver:>14} {r.n:>9} {r.batch:>6} "
                  f"{r.mean_s * 1e3:>10.3f} {r.median_s * 1e3:>10.3f} "
                  f"{piv:>8}")
    report: dict = {"sizes": sizes, "batch": args.batch, "seed": args.seed,
                    "results": {s: [asdict(r) for r in rs]
                                for s, rs in all_results.items()}}
    for solver, results in all_results.items():
        if len(results) >= 2:
            slope = bench_mod.fit_loglog_slope(results)
            report.setdefault("loglog_slope", {})[solver] = slope
            print(f"log-log slope ({solver}): {slope:.3f}")
    if "hough2d" in all_results and "baseline_hull" in all_results:
        ratios = {r.n: b.mean_s / r.mean_s
                  for r, b in zip(all_results["hough2d"],
                                  all_results["baseline_hull"])}
        report["baseline_over_hough_time_ratio"] = ratios
        for n, ratio in ratios.items():
            print(f"baseline/hough time ratio at n={n}: {ratio:.2f}")
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2),
                                     encoding="utf-8")
    if args.csv:
        # str is repr for floats, and None prints as "None"
        lines = [",".join(f.name for f in fields(bench_mod.BenchResult))]
        lines += [",".join(map(str, astuple(r)))
                  for results in all_results.values() for r in results]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


# Built once per process: building the tree takes about 1 ms, a fifth of a
# ``solve2d`` call on a few thousand rows, and ``parse_args`` leaves the
# parser as it was.
@cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="minmaxlp",
        description="Solvers and tools for linear min-max problems.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, help_, validate_help in (
            ("solve2d", "pivoting solver, one variable",
             "certify the answer: the status, and t between an exact "
             "lower bound and the objective at x, up to rounding"),
            ("solve3d", "randomized incremental LP over the unit box, on "
                        "a working set checked against every row",
             "certify the answer: (x, y) in the box, and t between an "
             "exact lower bound and the objective there, up to rounding"),
            ("prune3d", "report safe constraint discards",
             "certify the kept rows' optimum as an answer to the full "
             "problem"),
            ("oracle", "brute-force reference solve",
             "certify the answer as solve2d or solve3d does")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="constraint file, or '-' for stdin")
        if name != "prune3d":  # prune3d prunes the rows as given
            p.add_argument("--mode", choices=("lp", "abs"), default="lp",
                           help="abs treats each row r as the residual "
                                "|r|: the constraints r and -r, held as "
                                "the one row")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--validate", action="store_true", help=validate_help)
        p.set_defaults(fn=_cmd_answer, mode="lp")

    p = sub.add_parser("gen", help="emit seeded Gaussian instances")
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, default=math.sqrt(10.0))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--index", type=int, default=0,
                   help="first instance index in the stream")
    p.add_argument("--count", type=int, default=1,
                   help="instances to write, at least 1")
    p.add_argument("--out", help="file for the one instance (default: "
                                 "stdout)")
    p.add_argument("--out-dir", help="directory for the --count instances, "
                                     "as instance_<index>.txt")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("bench", help="scaling benchmark")
    p.add_argument("--solver", default="hough2d",
                   help="comma list from: " + ",".join(bench_mod.SOLVERS))
    p.add_argument("--sizes", default="1000,10000,100000",
                   help="comma list of constraint counts")
    p.add_argument("--batch", type=int, default=100,
                   help="instances at the smallest size; larger sizes scale "
                        "down proportionally")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--csv", help="write per-size rows as CSV here")
    p.set_defaults(fn=_cmd_bench)
    return ap


def _drop_stdout() -> None:
    """Point stdout's file descriptor at devnull, so that the interpreter's
    flush at exit writes what is left there and does not raise again (the
    Python docs' SIGPIPE recipe).  A stdout without one is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        # A reader that left early shows up here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _drop_stdout()
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        detail = f": {e}" if str(e) else ""
        print(f"error: {args.command}: out of memory{detail}", file=sys.stderr)
        return 2
    except (ContractViolation, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
