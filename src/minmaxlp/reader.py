r"""The constraint reader: text, a file or a binary stream to a ``Problem``.

The grammar.  Input is UTF-8; bytes that do not decode are an input error
naming their line.  One leading byte-order mark is dropped.  A line ends at
'\n', '\r\n' or a lone '\r'.  It holds k fields, separated by ',' or blanks
(' ', '\t', '\x1f') and runs of them, with blanks around: k = 2, (a, b),
for the one-variable problem, or k = 3, (a, b, c), for the boxed
two-variable problem, the same k on every line.  Or it is blank, or a
whole-line '#' comment.  A field is a decimal, with or without '.', a sign
or an exponent, read as ``float(field)`` reads it, and must be finite.

The routes.  ``_read`` reads every input once, forward, as bytes,
``_READ_CHUNK`` at a time: a path as its opened file, ASCII text as its
bytes, and a binary stream (stdin, a pipe, a FIFO or ``<(...)``) as its
bytes arrive.  ``_DecimalRows`` converts the whole lines of each chunk by
route 1 or 2, chosen from their bytes, and neither holds a decoded copy of
the text; route 3 reads what both turn down.

1. x87 division (``_divide``), for plain decimals where the longdouble is
   x87's (``_LONG_SIGNIFICAND``): k comma-separated fields a line, each
   ``[-]I.F`` or ``[-]I`` as gen writes them, '\n' ends, no ' ' or '\t'.
   A field of N digits, m of them in F, N read as a uint64 with at most 19
   digits from its first non-zero one and m at most 22, is N / 10**m:
   N < 10**19 < 2**64 and 10**m are exact in a 64-bit significand, and
   their longdouble quotient, rounded once there and once more to a
   double, is the correctly rounded N / 10**m unless the first rounding
   lands on a midpoint of two doubles (W. D. Clinger, PLDI 1990;
   D. Lemire, *Number parsing at a gigabyte per second*, SPE 2021).  The
   quotient lies in [1e-22, 1e19) or is 0, so neither rounding is
   subnormal, and a double's 53-bit significand is the top 53 bits of the
   64: the quotient is a midpoint iff the 11 bits below them are 0x400, a
   one and ten zeros, which ``_divide`` reads in the longdouble's bytes.
   A field whose quotient is such a midpoint (about 1 in 2048), one with
   'e', 'E' or '+', and one of more digits are read by ``float(field)``.
   The sign comes from the field's '-': the value is multiplied by 1.0 or
   -1.0, which is exact, so "-0.0" is -0.0.
2. ``np.fromstring`` (``_fromstring``), for any other lines, and all lines
   where the longdouble is not x87's: as doubles, correctly rounded as
   float() rounds, once the lines are checked to hold the grammar's bytes
   alone, each line k fields or none (and then no ','); the lines are
   turned down unless it reads as many values as there are fields, all
   finite.
3. The line scan (``_parse_lines``): from the first line of a chunk that
   both turn down, the rest of the input is decoded (``_decode``) and
   parsed line by line, with the line number, the field count and the
   rows of the lines before, which names the first bad line.  Text that
   is not ASCII goes to it whole.

Every route gives the line scan's rows of the whole input, bit for bit,
or its error and line.
"""

from __future__ import annotations

import io
import math
import os
import re
import stat
import sys
import warnings
from functools import partial
from itertools import chain
from typing import BinaryIO

import numpy as np

from .errors import EmptyProblem, MixedArity, ParseError
from .model import Problem

__all__ = ["parse_constraints"]


def parse_constraints(source: str | os.PathLike | BinaryIO) -> Problem:
    """Parse constraints from text, from the file at a path, or from a
    binary stream read to its end; arity (2 or 3 fields) picks the problem
    type.  ASCII text is read as its bytes once one leading U+FEFF is
    dropped; other text goes to the line scan."""
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
    """The rows of an ASCII input, converted a chunk of whole lines at a
    time by route 1 or 2 of the module docstring.  A chunk is cut before a
    last '\r', which may begin a '\r\n'.

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
