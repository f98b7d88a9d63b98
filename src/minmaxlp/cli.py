"""Command-line frontend.

Constraint files hold one constraint per line, fields comma- or
whitespace-separated: two fields (a, b) for the one-variable problem,
three (a, b, c) for the boxed two-variable problem.  Blank lines, lines
starting with '#' and a leading byte-order mark are ignored; the field
count must be uniform.  Floats are printed with Python's shortest round-trip
representation, so emitted corpora re-parse to bit-identical values.

The answering subcommands, solve2d, solve3d, prune3d and oracle, share one
path: read the input, check its field count (2 for solve2d, 3 for solve3d
and prune3d, either for oracle), apply --mode, answer, certify the answer
on --validate (for prune3d, the kept rows' optimum) and print it.

Input is UTF-8; bytes that do not decode are an input error naming their
line.  Every input is read by one byte reader: a file from its opened
handle, stdin from its binary stream, and a stream that is not a regular
file (a pipe, a FIFO, ``<(...)``) once, whole, as bytes.  Its bytes are
checked a chunk at a time.  A file of plain decimals, comma-separated
``[-]I.F`` fields as gen writes them, is converted in that same pass: the
digits of each chunk's fields, up to 19 a field, are read as unsigned
64-bit integers and divided by powers of ten in extended precision; a
field of more digits, or one whose quotient lands on a midpoint of two
doubles, is read by float().  Any other input the checks pass is read by
numpy's loadtxt from the same bytes.  Neither route holds a decoded copy
of the text.  An input those checks or loadtxt turn down is decoded and
parsed line by line, which names the first bad line.  ``gen`` writes its
rows in blocks as it formats them, so it holds one block of text at a
time, never the whole file.

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
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import bench as bench_mod
from .baseline import check2d
# Unused here, but perfbench/spans.py traces cli.solve_baseline by
# rebinding it, so the name stays a module attribute.
from .baseline import solve_baseline  # noqa: F401
from .errors import ContractViolation, EmptyProblem, MixedArity, ParseError
from .instances import GenSpec, gen2d, gen3d
from .model import (Problem, Solution2, Solution3, Status, columns,
                    objective, signed_pairs)
from .oracle import brute2d, brute3d_box
from .prune3d import PruneReport, check3d, prune, solve3d
from .solver2d import expand_absolute, solve

__all__ = ["parse_constraints", "emit_solution", "main"]


def parse_constraints(source: str | os.PathLike | BinaryIO) -> Problem:
    """Parse constraints from text, from the file at a path, or from a
    binary stream read to its end; arity (2 or 3 fields) picks the problem
    type.

    One reader (_read) reads every source as bytes: a path as its opened
    file, and ASCII text as its bytes once one leading U+FEFF is dropped.
    Other text goes to the line scan, which names the first bad line.
    Every route reads each field as ``float(field)`` does, and gives the
    line scan's rows, bit for bit, or its error and line.  Only the line
    scan holds a decoded copy of the text; a stream that is not a regular
    file is held once, as bytes.
    """
    if isinstance(source, str):
        text = source.removeprefix("\ufeff")
        if not text.isascii():
            return _parse_lines(text)
        source = io.BytesIO(text.encode())
    if isinstance(source, os.PathLike):
        with open(source, "rb") as f:
            return _read(f)
    return _read(source)


def _read(f) -> Problem:
    """``parse_constraints`` on the binary stream ``f``, read from where it
    stands to its end.

    A stream that fstat does not show as a regular file (a pipe, a FIFO,
    an in-memory stream) is read whole into a BytesIO first, as bytes: it
    may be read only once.  One pass then reads the bytes _READ_CHUNK at a
    time and checks that loadtxt reads them as the line scan reads their
    text: ASCII once one leading byte-order mark is dropped, none of the
    line breaks loadtxt does not know, and no '#' that a byte other than a
    blank precedes on its line (a whole-line comment).  ',' anywhere makes
    it the delimiter.  Where every line holds 2 or 3 comma-separated plain
    decimals, the same pass converts them (_DecimalRows).  Otherwise
    loadtxt reads the stream again from where the pass began, in text mode,
    where '\\r', '\\r\\n' and '\\n' end a line as they do for
    str.splitlines.  A stream the checks or loadtxt turn down, or a regular
    file that changed while loadtxt read it, is decoded and read by the
    line scan; undecodable bytes raise ParseError naming their line.
    Neither the decimal pass nor loadtxt holds a decoded copy of the text.
    """
    try:
        st = os.fstat(f.fileno())
    except OSError:  # io.UnsupportedOperation: no file descriptor
        st = None
    if st is None or not stat.S_ISREG(st.st_mode):
        f, st = io.BytesIO(f.read()), None
    start = f.tell()
    decimals = (_DecimalRows(f.seek(0, io.SEEK_END) - start)
                if _LONG_SIGNIFICAND else None)
    f.seek(start)
    comma, lead = False, b""
    for chunk in chain([f.read(len(_BOM)).removeprefix(_BOM)],
                       iter(partial(f.read, _READ_CHUNK), b"")):
        if not chunk.isascii() or any(
                c in chunk for c in (b"\v", b"\f", b"\x1c", b"\x1d",
                                     b"\x1e")) or (
                b"#" in chunk and _LATE_COMMENT.search(b"\n" + lead + chunk)):
            break
        comma = comma or b"," in chunk
        # the first non-blank byte of the line the chunk leaves unended
        tail = chunk[chunk.rfind(b"\n") + 1:]
        tail = tail[tail.rfind(b"\r") + 1:]
        lead = (tail if len(tail) < len(chunk) else lead + tail
                ).lstrip(_BLANKS)[:1]
        if decimals is not None and not decimals.feed(chunk):
            decimals = None
    else:
        if decimals is not None and (cs := decimals.result()) is not None:
            return cs
        f.seek(start)
        text = io.TextIOWrapper(f, encoding="utf-8-sig", newline=None)
        try:
            cs = _loadtxt(text, comma)
        finally:
            text.detach()
        if cs is not None and (
                st is None or _STAMP(os.fstat(f.fileno())) == _STAMP(st)):
            return cs
    f.seek(start)
    return _parse_lines(_decode(f.read()).removeprefix("\ufeff"))


def _loadtxt(text, comma: bool) -> Problem | None:
    """The rows loadtxt reads from the text stream ``text``, with ',' as
    the delimiter if ``comma`` and runs of whitespace otherwise; None if it
    raises ValueError (NonFiniteInput among them) or reads no rows of 2 or
    3 fields.  loadtxt gives (n, k) rows, which the problem copies once
    into its (k, n) array."""
    try:
        with warnings.catch_warnings():
            # comment lines alone are no data; the line scan says so
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(text, ndmin=2,
                              delimiter="," if comma else None)
        if rows.shape[0] and rows.shape[1] in (2, 3):
            return Problem(rows.T)
    except ValueError:
        pass
    return None


# Bytes that _read checks, and _DecimalRows converts, at a time.  Chunks of
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
# The bytes str.strip drops that loadtxt may be given, and a '#' that
# loadtxt would take as a comment where the line scan does not: one that a
# byte other than those precedes on its line.  Searched in a chunk after
# '\n' and the first non-blank byte of the line the chunk before left
# unended.
_BLANKS = b" \t\x1f"
_LATE_COMMENT = re.compile(rb"[\r\n][ \t\x1f]*[^ \t\x1f\r\n#][^\r\n#]*#")
# What tells a regular file apart from itself once changed: a write sets
# st_mtime_ns, to the file system's clock tick.  A rewrite to the same size
# within one tick is not seen.
_STAMP = attrgetter("st_size", "st_mtime_ns")


# _DecimalRows' map of the bytes of a file to the text np.fromstring reads
# as integers, with '.', '-', '+', 'e' and 'E' dropped: '\n' ends a field
# as ',' does, digits stay, and any other byte becomes '|', which
# _DecimalRows turns down before np.fromstring reads the text: older numpy
# only warns at a byte it cannot read, and returns the numbers before it.
_TO_DIGITS = bytes(c if chr(c) in "0123456789," else ord(",") if c == 10
                   else ord("|") for c in range(256))
# 10**m for m <= 19 is 2**m * 5**m with 5**m < 2**53: exact in a double.
# Built without a ufunc, and cast to longdouble by _DecimalRows: the first
# call of np.power or of a longdouble loop pages in 132 KB of numpy's code,
# which a process that reads no file need not hold.
_POWERS_OF_TEN = np.array([float(10**m) for m in range(20)])
# _DecimalRows needs a significand that holds every 19-digit integer and a
# correctly rounded division: x87's extended format, 64 bits, the one its
# proof and its timings are for, stored as it is on x86-64, in 16
# little-endian bytes whose first two hold the significand's lowest 16
# bits.  Elsewhere (a longdouble that is a double, IBM double-double, whose
# division is not correctly rounded, software binary128, or x87's format
# in 12 bytes) files take loadtxt's route.
_LONG_SIGNIFICAND = (np.finfo(np.longdouble).nmant == 63
                     and np.dtype(np.longdouble).itemsize == 16
                     and sys.byteorder == "little")
# Bytes of a line past which _DecimalRows turns a file down, so that a file
# of one long line, or of lines not ended by '\n', is not held whole before
# loadtxt reads it.  A line of the grammar is under 80 bytes unless a field
# holds thousands of digits.
_LONG_LINE = 1 << 16
# The sign and digits of a field of _DecimalRows' lines that has an
# exponent and no '.', such as the "1e-05" or "5e+16" repr writes.
_DOTLESS_EXPONENT = re.compile(
    rb"(?m)((?:^|,)[-+]?[0-9]+)(?=[eE][-+]?[0-9]+(?:,|$))")


class _DecimalRows:
    """The rows of a file of plain decimals, each field as ``float(field)``
    reads it, converted a chunk of whole lines at a time.

    Every line holds k = 2 or 3 comma-separated fields, each with exactly
    one '.', and otherwise digits and a leading '-' (or the '+', 'e' and
    'E' of a field float() reads, below); blank lines, which hold no rows,
    are dropped, and a field with an exponent and no '.' is given one
    before its exponent.  A field ``[-]I.F`` of 1 to 19 digits, m of them
    in F, is N / 10**m for the integer N of its digits, read as a uint64:
    N < 10**19 < 2**64 and 10**m are exact in a 64-bit significand, and
    their longdouble quotient, rounded once there and once more to a
    double, is the correctly rounded N / 10**m unless the first rounding
    lands on a midpoint of two doubles (W. D. Clinger, PLDI 1990; D.
    Lemire, *Number parsing at a gigabyte per second*, SPE 2021).  The
    quotient lies in [1e-19, 1e19) or is 0, so neither rounding is
    subnormal, and a double's 53-bit significand is the top 53 bits of
    the 64: the quotient is a midpoint iff the 11 bits below them are
    0x400, a one and ten zeros, which _DecimalRows reads in the
    longdouble's bytes (the layout _LONG_SIGNIFICAND checks).  A field
    whose quotient is such a midpoint (about 1 in 2048), one with 'e', 'E'
    or '+', and one of more than 19 digits are read by ``float(field)``.
    The sign comes from the field's '-': the value is multiplied by 1.0
    or -1.0, which is exact, so "-0.0" is -0.0.  Once a line falls outside
    this grammar, or a field does not read as a finite float, ``feed`` is
    False and the caller reads the file another way; so it is at a '\\r',
    and at a line longer than _LONG_LINE, before the line is held whole.

    The rows go into one (k, capacity) array, field j of each row into row
    j, the problem's own layout.  Its capacity comes from the file's size
    and the density of the lines read so far; when that guess is short,
    the rows read are copied once into a larger array.  At the end each
    row's n fields are moved down in place to follow the row before, and
    the array is shrunk to (k, n): the problem is one C-contiguous array
    with no capacity left over."""

    def __init__(self, size: int):
        self.size = size
        self.read = 0  # bytes converted
        self.k = 0  # fields a line
        self.rows = None
        self.n = 0
        self.tail: list = []  # the last line so far, unended
        self.pending = 0  # its bytes
        self.powers = _POWERS_OF_TEN.astype(np.longdouble)

    def feed(self, chunk: bytes) -> bool:
        """Convert the lines ``chunk`` ends; False once one does not, or
        at a '\\r' or a line longer than _LONG_LINE."""
        if b"\r" in chunk:
            return False
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            self.tail.append(chunk)
            self.pending += len(chunk)
            return self.pending <= _LONG_LINE
        lines = b"".join((*self.tail, memoryview(chunk)[:cut]))
        self.tail = [chunk[cut:]]
        self.pending = len(chunk) - cut
        return self._convert(lines)

    def result(self) -> Problem | None:
        """The rows read, or None if there are none or the last line
        does not convert."""
        tail = b"".join(self.tail)
        if tail and not self._convert(tail + b"\n") or not self.n:
            return None
        rows, n = self.rows, self.n
        self.rows = None
        k, capacity = rows.shape
        if capacity > n:
            # a memoryview copies with memmove where source and target
            # overlap, so this needs no scratch
            with memoryview(rows) as whole, whole.cast("B") as b:
                size = n * rows.itemsize
                for j in range(1, k):
                    at = j * capacity * rows.itemsize
                    b[j * size:(j + 1) * size] = b[at:at + size]
            # No view of the array outlives the statement or block that
            # made it, so only references to the array itself remain, and
            # they see its new shape: a trace or profile hook holds them
            # through frame locals, which numpy's refcheck counts.
            rows.resize((k, n), refcheck=False)
        # every quotient is finite, and _convert checks each float() field
        return Problem._of(rows)

    def _convert(self, lines: bytes) -> bool:
        """Append the rows of ``lines``, whole lines of the grammar."""
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
                and eol[k - 1::k].all() and eol.sum() * k == len(ends)
                and len(dots) == len(ends) and (dots < ends).all()
                and (dots[1:] > ends[:-1]).all()):
            return self._convert_other(lines)
        self.k = k
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        neg = a[starts] == ord("-")
        digits = ends - starts - 1 - neg
        odd = (digits < 1) | (digits > 19)
        text = lines.translate(_TO_DIGITS, b".-+eE")
        if b"|" in text:
            return False
        if len(text) != len(a) - len(dots) - np.count_nonzero(neg):
            # a field with '+', 'e', 'E' or a '-' past its first byte
            at = np.flatnonzero((a == ord("-")) | (a == ord("+"))
                                | (a == ord("e")) | (a == ord("E")))
            field = np.searchsorted(ends, at)
            odd[field[(at != starts[field]) | (a[at] != ord("-"))]] = True
        exact = {}
        try:
            for i in np.flatnonzero(odd).tolist():
                exact[i] = float(lines[starts[i]:ends[i]])
            # a field of more digits than a uint64 holds is a float()
            # field, whatever number is read for it here
            n = np.fromstring(text, np.uint64, sep=",")
        except ValueError:
            return False
        # every field holds a digit (one without is read by float(), which
        # raises), so each is one number
        if (len(n) != len(ends)
                or not all(map(math.isfinite, exact.values()))):
            return False
        q = n.astype(np.longdouble)
        # a float() field's m may pass 19; its quotient is not used
        q /= self.powers.take(ends - dots - 1, mode="clip")
        # the lowest 16 bits of each quotient's significand; at a
        # midpoint, the 11 below a double's 53 are 0x400
        low = q.view(np.uint16)[::8]
        for i in np.flatnonzero((low & 0x7FF) == 0x400).tolist():
            if i not in exact:
                exact[i] = float(lines[starts[i]:ends[i]])
        v = q.astype(np.float64)
        v *= 1.0 - 2.0 * neg
        if exact:
            v[list(exact)] = list(exact.values())
        self._append(v.reshape(-1, k), len(lines))
        return True

    def _convert_other(self, lines: bytes) -> bool:
        """``_convert`` of ``lines``, which the grammar turned down, without
        their blank lines and with a '.' before the exponent of each field
        that has one and no '.' (``float("1.e-05")`` is
        ``float("1e-05")``); False if that leaves them as they were.  Only
        lines the grammar turns down are searched: finding '\\n\\n' in a
        64 KiB chunk of a gen file takes 70 us on a 2-CPU x86-64 host, a
        seventh of the chunk's conversion, and the exponent search 1.6 ms,
        so it runs only where an 'e' or 'E' is."""
        fixed = lines
        while b"\n\n" in fixed:
            fixed = fixed.replace(b"\n\n", b"\n")
        fixed = fixed.removeprefix(b"\n")
        if b"e" in fixed or b"E" in fixed:
            fixed = _DOTLESS_EXPONENT.sub(rb"\1.", fixed)
        return fixed != lines and (not fixed or self._convert(fixed))

    def _append(self, rows, size: int) -> None:
        self.read += size
        need = self.n + len(rows)
        if self.rows is None or need > self.rows.shape[1]:
            # the rows of the whole file at the density read so far, and a
            # sixteenth more; np.empty's pages cost nothing until written
            guess = need * max(self.size, self.read) // self.read
            grown = np.empty((self.k, guess + guess // 16 + 1))
            if self.rows is not None:
                grown[:, :self.n] = self.rows[:, :self.n]
            self.rows = grown
        self.rows[:, self.n:need] = rows.T
        self.n = need


def _parse_lines(text: str) -> Problem:
    """``parse_constraints`` one line at a time."""
    rows: list[tuple[float, ...]] = []
    arity: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.replace(",", " ").split()
        try:
            vals = tuple(float(f) for f in fields)
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse {line!r}",
                             line=lineno) from None
        if not all(math.isfinite(v) for v in vals):
            raise ParseError(f"line {lineno}: non-finite value", line=lineno)
        if len(vals) not in (2, 3):
            raise ParseError(
                f"line {lineno}: expected 2 or 3 fields, got {len(vals)}",
                line=lineno)
        if arity is None:
            arity = len(vals)
        elif len(vals) != arity:
            raise MixedArity(
                f"line {lineno}: expected {arity} fields, got {len(vals)}",
                line=lineno)
        rows.append(vals)
    if arity is None:
        raise EmptyProblem("no constraints in input")
    return Problem(*zip(*rows))


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


# Rows formatted at once by _write_constraints: about 2.7 MB of floats and
# their reprs at two fields, whatever the number of rows.
_BLOCK_ROWS = 1 << 14


def _write_constraints(cs, out) -> None:
    """Write the rows of ``cs`` to the text stream ``out``, one line each,
    fields in shortest round-trip form and comma-separated, _BLOCK_ROWS
    rows at a time."""
    cols = columns(cs, len(cs[0]))
    for i in range(0, len(cols[0]), _BLOCK_ROWS):
        fields = [map(repr, col[i:i + _BLOCK_ROWS].tolist()) for col in cols]
        out.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _format_constraints(cs) -> str:
    out = io.StringIO()
    _write_constraints(cs, out)
    return out.getvalue()


def _decode(data: bytes) -> str:
    """``data`` decoded as UTF-8.  Bytes that do not decode raise
    ParseError naming their line, numbered as the line scan numbers
    lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = len((data[:e.start].decode("utf-8") + "_").splitlines())
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
