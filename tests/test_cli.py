import decimal
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from functools import cache, partial

import numpy as np
import pytest

from minmaxlp import (Constraint2, Constraint3, ContractViolation,
                      EmptyProblem, GenSpec, MixedArity, ParseError, Problem,
                      Solution2, Solution3, Status, brute3d_box, gen2d, gen3d,
                      prune)
from conftest import assert_one_array
from minmaxlp import cli, reader
from minmaxlp.cli import (_apply_mode, _format_constraints, emit_solution,
                          main, parse_constraints)

_line_scan = reader._parse_lines


class TestParseConstraints:
    def test_comma_separated(self):
        assert parse_constraints("1,0\n-1,0\n") == [
            Constraint2(1, 0), Constraint2(-1, 0)]

    def test_whitespace_and_comments(self):
        text = "1 0 0\n# comment\n-1 0 0\n"
        assert parse_constraints(text) == [
            Constraint3(1, 0, 0), Constraint3(-1, 0, 0)]

    def test_blank_lines_ignored(self):
        assert parse_constraints("\n1,2\n\n3,4\n\n") == [
            Constraint2(1, 2), Constraint2(3, 4)]

    def test_mixed_arity(self):
        with pytest.raises(MixedArity) as err:
            parse_constraints("1,0\n1,2,3\n")
        assert err.value.line == 2

    def test_garbage_field(self):
        with pytest.raises(ParseError) as err:
            parse_constraints("1,0\nfoo,0\n")
        assert err.value.line == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_constraints("1,2,3,4\n")

    def test_non_finite(self):
        with pytest.raises(ParseError):
            parse_constraints("1,inf\n")

    def test_empty(self):
        with pytest.raises(EmptyProblem):
            parse_constraints("# nothing here\n")


# (text, whether the chunk pass reads it: the line scan reads none of it)
PARSE_CASES = [
    ("1,0\n-1,2.5\n", True),
    ("0.1,-0.0\n5e-324,1e308\n-1.7976931348623157e308,+.5\n", True),
    ("1 0 0\n-1 2 3\n", True),
    ("1,0\r\n-1,2\r\n", True),
    ("1 0\n  \n\t\n2 3\n", True),
    (" 1 , 2 \n3,4", True),
    ("1,0\n2,3 # note\n", False),
    ("# head\n1,0\n", True),
    ("# head, with a comma\n1,0\n# tail\r\n2,3\n", True),
    ("  # head\n1 0\n", True),
    ("  # head\n1,0\n", True),
    ("1,0\n#\r2,3\n", True),
    ("1,0\n   \n\t\n2,3\n", True),
    ("1,0,\n2,3,\n", True),
    ("1,,0\n", True),
    ("1,0\n,\n", False),
    ("1_0,2\n", False),
    ("0x1p3,2\n", False),
    ("nan,1\n", False),
    ("1,0\n1,inf\n", False),
    ("1,-Infinity\n", False),
    ("1e400,0\n", False),
    ("1,2\n3\n", False),
    ("1,2\n3,4,5\n", False),
    ("1 2 3\n4 5\n", False),
    ("1,2,3,4\n", False),
    ("5\n6\n", False),
    ("1,2\r3,4\r", True),
    ("1\x0b2,3\n", False),
    ("1,2\x0c3,4\n", False),
    ("1,2\x1c3,4\n", False),
    ("1,2\u20283,4\n", False),
    ("\u0661,2\n", False),
    ("1.5\x00,2\n", False),
    ("", False),
    ("\n \n", False),
]


def _outcome(fn, text):
    """Rows as float hex, or the exception's type, message and line."""
    try:
        p = fn(text)
    except ValueError as e:
        return type(e), str(e), getattr(e, "line", None)
    return [tuple(v.hex() for v in row) for row in p]


class _FromstringOnly:
    """The tests of the class this one is mixed into, with every chunk
    read by np.fromstring, as on hosts whose longdouble is not x87's."""

    @pytest.fixture(autouse=True)
    def _fromstring_only(self, monkeypatch):
        monkeypatch.setattr(reader, "_LONG_SIGNIFICAND", False)


class TestParsePaths:
    """The byte reader and the line scan read every text alike."""

    @pytest.mark.parametrize("text,fast", PARSE_CASES)
    def test_same_as_line_scan(self, text, fast, monkeypatch):
        scans = []

        def counted(*args):
            scans.append(args)
            return _line_scan(*args)

        monkeypatch.setattr(reader, "_parse_lines", counted)
        assert _outcome(parse_constraints, text) == _outcome(_line_scan, text)
        assert (not scans) == fast

    @pytest.mark.parametrize("text,fast", PARSE_CASES)
    def test_leading_byte_order_mark_is_dropped(self, text, fast,
                                                monkeypatch):
        # Only parse_constraints drops it, so a text's line numbers, and
        # the route that reads it, are those without it.
        scans = []
        monkeypatch.setattr(reader, "_parse_lines",
                            lambda *a: scans.append(a) or _line_scan(*a))
        assert (_outcome(parse_constraints, "\ufeff" + text)
                == _outcome(_line_scan, text))
        assert (not scans) == fast

    @pytest.mark.parametrize("text,line", [("\ufeff\ufeff1,0\n", 1),
                                           ("1,0\n\ufeff2,3\n", 2),
                                           ("1,\ufeff0\n", 1)])
    def test_other_byte_order_marks_are_data(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}: cannot parse"):
            parse_constraints(text)

    def test_random_texts(self):
        for text in _random_texts():
            assert (_outcome(parse_constraints, text)
                    == _outcome(_line_scan, text)), repr(text)

    def test_generated_text_is_read_in_one_pass(self, monkeypatch):
        from minmaxlp import GenSpec, gen2d, gen3d
        monkeypatch.setattr(reader, "_parse_lines", None)
        for cs in (gen2d(GenSpec(n=300, seed=4)),
                   gen3d(GenSpec(n=300, seed=4, dim=3))):
            text = _format_constraints(cs)
            got = parse_constraints(text)
            assert [[v.hex() for v in r] for r in got] == \
                [[float(f).hex() for f in line.split(",")]
                 for line in text.splitlines()]
            assert got == cs


    @pytest.mark.parametrize("dim,n", [(2, 1000), (2, 10_000), (2, 100_000),
                                       (2, 1_000_000), (3, 1000),
                                       (3, 10_000)])
    def test_gen_files_read_bitwise_in_one_pass(self, dim, n, tmp_path,
                                                monkeypatch):
        # A gen file's rows are the generator's, bit for bit, and the
        # line scan does not read its text; up to 1e5 rows the text is also
        # read alike by loadtxt through a StringIO.
        path = tmp_path / "g.txt"
        assert main(["gen", "--dim", str(dim), "--n", str(n), "--seed", "2",
                     "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        monkeypatch.setattr(reader, "_parse_lines", None)
        got = np.asarray(parse_constraints(text))
        want = np.asarray((gen2d if dim == 2 else gen3d)(
            GenSpec(n=n, seed=2, dim=dim)))
        assert got.tobytes() == want.tobytes()
        if n <= 100_000:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                old = np.loadtxt(io.StringIO(text), ndmin=2, delimiter=",")
            assert got.tobytes() == old.tobytes()


class TestParsePathsFromstring(_FromstringOnly, TestParsePaths):
    pass


def _random_texts():
    """test_random_texts' corpus."""
    rng = random.Random(5)
    pieces = ["1", "-2.5", "0", "1e3", "+", ",", " ", ",", "\n", "\n",
              "\r\n", "\r", "\t", "#", "nan", "1_0", "\x0b", "\x1f",
              "\u2028", "e", "."]
    return ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 14)))
            for _ in range(3000)]


@pytest.fixture
def read_from_path(monkeypatch, tmp_path):
    """A function of a file's bytes: parse_constraints' outcome on the
    file's path, and whether the decimal pass or loadtxt read it (no text
    was decoded for the line scan)."""
    decoded = []
    decode = reader._decode
    monkeypatch.setattr(reader, "_decode",
                        lambda *args: decoded.append(1) or decode(*args))
    path = tmp_path / "c.txt"

    def read(data: bytes):
        path.write_bytes(data)
        decoded.clear()
        return _outcome(parse_constraints, path), not decoded

    return read


class TestParseFiles:
    """A file read from its path gives what the line scan gives on its
    text, whichever way it is read."""

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    @pytest.mark.parametrize("text,fast", PARSE_CASES)
    def test_same_as_line_scan(self, read_from_path, text, fast, bom):
        got, from_path = read_from_path(bom + text.encode())
        assert got == _outcome(_line_scan, text)
        assert from_path == fast

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_random_texts(self, read_from_path, bom):
        for text in _random_texts():
            got, _ = read_from_path(bom + text.encode())
            assert got == _outcome(_line_scan, text), repr(text)

    @pytest.mark.parametrize("data,from_path", [
        # a byte each check turns down, past the first chunk
        (b"1,2\n3,4\n5,\xc3\xa96\n", False),
        (b"1,2\n3,4\n5\x0b6,7\n", False),
        (b"1,2\n3,4\n5,6 # note\n", False),
        # a comment line across chunk boundaries, read by the chunk pass
        (b"1,2\n# one comment # and more\n3,4\n", True),
        (b"1 2\n \t# one comment\r3 4\n", True),
        (b"1 2\n \t# one comment\r3 4 # and more\n", False),
        # the delimiter first seen past the first chunk
        (b"\n" * 12 + b"1,2\n3,4\n", True),
        (b"1 2\r\n3 4\r5 6\n", True),
        (b"1,2\n3,4\n5,6\n1e308,1e309\n", False),
        (b"1,2\n3,4\n5,6\n7,inf", False),
    ])
    @pytest.mark.parametrize("chunk", [1, 3, 8])
    def test_checks_past_the_first_chunk(self, read_from_path, monkeypatch,
                                         data, from_path, chunk):
        monkeypatch.setattr(reader, "_READ_CHUNK", chunk)
        got, read = read_from_path(data)
        assert got == _outcome(_line_scan, data.decode())
        assert read == from_path

    def test_non_finite_last_row_names_its_line(self, read_from_path,
                                                monkeypatch):
        monkeypatch.setattr(reader, "_READ_CHUNK", 8)
        got, _ = read_from_path(b"1,2\n3,4\n5,6\n7,inf\n")
        assert got == (ParseError, "line 4: non-finite value", 4)

    def test_compressed_names_are_read_as_text(self, tmp_path):
        # the reader reads the opened file, so a .gz name is not
        # decompressed
        path = tmp_path / "p.txt.gz"
        path.write_text("1,0\n-1,2\n")
        assert parse_constraints(path) == [Constraint2(1, 0),
                                           Constraint2(-1, 2)]

    def test_gen_file_is_read_from_its_path(self, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        assert main(["gen", "--n", "3000", "--seed", "2",
                     "--out", str(path)]) == 0
        monkeypatch.setattr(reader, "_decode", None)
        got = np.asarray(parse_constraints(path))
        want = np.asarray(gen2d(GenSpec(n=3000, seed=2)))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_is_read_once(self, tmp_path, capsys):
        # A FIFO can be read only once, and it is: parse_constraints and
        # solve2d read it as they read the same text from a regular
        # file.
        text = _format_constraints(gen2d(GenSpec(n=2000, seed=6)))
        path = tmp_path / "p.txt"
        path.write_text(text)
        fifo = tmp_path / "fifo"
        argv = ["solve2d", str(path), "--mode", "abs", "--validate"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        argv[1] = str(fifo)
        assert _fifo_read(fifo, text.encode(), main, argv) == 0
        assert capsys.readouterr().out == want
        got = _fifo_read(fifo, text.encode(), parse_constraints, fifo)
        assert got == parse_constraints(path)


class TestParseFilesFromstring(_FromstringOnly, TestParseFiles):
    pass


def _decimal_fields(seed: int) -> list[str]:
    """Over 10**6 fields with one '.' each, for the decimal reader.

    - reprs of doubles of either sign across 1e-6..1e17 (repr writes
      those below 1e-4 and from 1e16 with an exponent);
    - the exact expansions of such doubles cut to 17, 18 or 19 digits;
    - around midpoints of two doubles in 1..1e17, the exact midpoint and
      the 17-, 18- and 19-digit decimals just below and just above it
      (within 1e-17 of it, relatively), where a quotient rounded to 64
      bits can land on the midpoint;
    - values in 1e-5..0.1 after leading zeros: reprs of up to 17
      significant digits, and around midpoints of two doubles the 19
      significant digits just below and just above it, with m of 20 to
      23 digits after the '.';
    - zeros of either sign, an empty integer or fraction part, leading
      zeros, '+', exponents, 18 and 19 digits.
    """
    rng = random.Random(seed)
    exact = decimal.Context(prec=2000)
    fields = ["-0.0", "0.0", "-0.", ".0", ".5", "5.", "-.5", "-5.",
              "007.50", "-00.000", "000000000000000001.5", "+1.5", "+0.5",
              "9.1e-05", "-9.1e-05", "1.5E+10", "+0.0", "1.e5",
              "123456789012345678.", "1234567890123456789.",
              "999999999999999999.", ".999999999999999999",
              "9999999999999999999.", "-.999999999999999999",
              "0.000000000000000001", "-0.000000000000000001",
              "99999999999999999999999999999.5", "0.5" + "0" * 40]

    def cut(text: str, digits: int) -> str:
        whole, _, frac = text.partition(".")
        return whole + "." + frac[:max(digits - len(whole.lstrip("-")), 0)]

    for _ in range(400_000):
        text = repr(rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-6, 17))
        if text.count(".") == 1:
            fields.append(text)
    for _ in range(200_000):
        x = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-6, 17)
        fields.append(cut(format(decimal.Decimal(x), "f"),
                          rng.randint(17, 19)))
    for i in range(100_000):
        x = 10 ** rng.uniform(0, 17)
        mid = exact.add(decimal.Decimal(x),
                        exact.divide(decimal.Decimal(math.ulp(x)), 2))
        text = format(mid, "f")
        text += "" if "." in text else "."
        if i % 10 == 0:
            fields.append(text)
        for digits in (17, 18, 19):
            below = cut(text, digits)
            unit = decimal.Decimal(1).scaleb(-len(below.partition(".")[2]))
            above = format(exact.add(decimal.Decimal(below), unit), "f")
            fields += [below, above if "." in above else above + "."]
    for _ in range(50_000):
        x = 10 ** rng.uniform(-5, -1)
        fields.append(format(decimal.Decimal(repr(x)), "f"))
        mid = exact.add(decimal.Decimal(x),
                        exact.divide(decimal.Decimal(math.ulp(x)), 2))
        frac = format(mid, "f").partition(".")[2]
        below = "0." + frac[:len(frac) - len(frac.lstrip("0")) + 19]
        unit = decimal.Decimal(1).scaleb(2 - len(below))
        fields += [below, format(exact.add(decimal.Decimal(below), unit),
                                 "f")]
    return fields


# 18- and 19-digit fields whose values are not midpoints of two doubles,
# though rounded to a 64-bit significand they are (found by a seeded
# search; test_near_midpoints_are_rounded_to_midpoints checks them).
_NEAR_MIDPOINTS = ["452.1328010073404755", "21831047.66547476314",
                   "815182644.3771561980", "495669317910.792511",
                   "178192.440838739436", "7429614.77016125666"]


def _round_to_64_bits(value: Fraction) -> Fraction:
    """The positive ``value`` rounded to a 64-bit significand, ties to
    even."""
    shift = 63 - math.floor(math.log2(value))
    s = value * Fraction(2) ** shift
    while s >= 2**64:
        s, shift = s / 2, shift - 1
    while s < 2**63:
        s, shift = s * 2, shift + 1
    return Fraction(round(s)) / Fraction(2) ** shift


class TestDecimalFiles:
    """Files of decimals are read by _DecimalRows as float() reads each
    field: plain decimals by division on x87, any other lines by
    np.fromstring, and lines both turn down by the line scan."""

    def test_a_million_fields_read_as_float_reads_them(self):
        fields = _decimal_fields(7)
        fields += ["0.0"] * (len(fields) % 2)
        assert len(fields) >= 10**6
        data = "".join(f"{a},{b}\n" for a, b in
                       zip(fields[::2], fields[1::2])).encode()
        rows = reader._DecimalRows(len(data))
        for i in range(0, len(data), reader._READ_CHUNK):
            assert rows.feed(data[i:i + reader._READ_CHUNK])
        got = np.asarray(rows.result()).ravel()
        want = np.array([float(f) for f in fields])
        wrong = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert [fields[i] for i in wrong[:5]] == []

    @pytest.mark.parametrize("data,route", [
        (b"1.5,-2.25\n-0.0,.5\n", "decimal"),
        (b"1.5,-2.25,0.125\n-0.0,.5,5.\n-.5,007.50,1.\n", "decimal"),
        (b"\xef\xbb\xbf1.5,-2.25\n3.,4.\n", "decimal"),
        (b"1.5,-2.25\n3.5,4.5", "decimal"),
        (b"+1.5,9.1e-05\n-9.1E-05,1234567890123456789.5\n", "decimal"),
        (b"123456789012345678.,.123456789012345678\n", "decimal"),
        (b"0.000123456789012345678,-0.0000000000000000000000123\n",
         "decimal"),
        (b"1e-05,2.5\n", "decimal"),
        (b"5e+16,-1E5\n+2e0,1.5\n", "decimal"),
        (b"1.5,2.5\n1e5e5,1.0\n", "text"),
        (b"1.5,2.5\ne5,1.0\n", "text"),
        (b"1.5,2.5\n1e,1.0\n", "text"),
        (b"1e400,1.0\n", "text"),
        (b"1,0\n-1,2.5\n", "decimal"),
        (b"-.,1.0\n", "text"),
        (b".,1.0\n", "text"),
        (b"-,1.0\n", "text"),
        (b"1.5,2.5\n-.\n", "text"),
        (b"1.5,2.5\n3.5\n", "text"),
        (b"1.5,2.5\n3.5,4.5,5.5\n", "text"),
        (b"1.0\n2.0\n", "text"),
        (b"1.0,2.0,3.0,4.0\n", "text"),
        (b"1.5,2.5\r\n3.5,4.5\r\n", "decimal"),
        (b"1.5, 2.5\n", "fromstring"),
        (b"1.5\t2.5\n\x1f3.5  4.5 \n", "fromstring"),
        (b"1.5,2.5\n\n3.5,4.5\n", "fromstring"),
        (b"\n\n1.5,2.5\n3.5,4.5\n\n\n", "fromstring"),
        (b"\xef\xbb\xbf\n1.5,2.5\n\n\n\n\n3.5,4.5", "fromstring"),
        (b"# head\n1.5,2.5\n \t# note\n3.5,4.5\n", "fromstring"),
        (b"\n\n\n", "text"),
        (b"# head\n", "text"),
        (b"1.5,2.5\n \n3.5,4.5\n", "fromstring"),
        (b"1.5,2.5,\n", "fromstring"),
        (b"1.5,,2.5\n", "fromstring"),
        (b"1.5,2.5\n,\n", "text"),
        (b"1.5,2.5 # note\n", "text"),
        (b"1.5.5,2.5\n", "text"),
        (b"1.-5,2.5\n", "text"),
        (b"--1.5,2.5\n", "text"),
        (b"1.5,2.5\n1.5e400,1.0\n", "text"),
        (b"1.5,2.5\n1.5_0,1.0\n", "text"),
        (b"0x1.8p1,2.5\n", "text"),
        (b"1.5,2.5x\n", "text"),
        (b"1.5,2.5\n3.5,4.5x\n", "text"),
        (b"1.5,2.5\r3.5,4.5\r", "decimal"),
        (b"1.5,2.5\n3.5,4.5\r", "decimal"),
        (b"", "text"),
    ])
    @pytest.mark.parametrize("chunk", [1, 3, 8, 1 << 16])
    def test_same_as_line_scan(self, read_route, monkeypatch, data, route,
                               chunk):
        # fields straddle the chunk boundaries at chunks of 1, 3 and 8
        monkeypatch.setattr(reader, "_READ_CHUNK", chunk)
        got, read = read_route(data)
        assert got == _outcome(_line_scan, data.decode("utf-8-sig"))
        assert read == _on_this_host(route)

    @pytest.mark.parametrize("fields", [
        # 19 digits, N >= 2**63, the second after a leading zero
        ["9.999999999999999999", "-0.9223372036854775808",
         "-.9223372036854775808", "9223372036854775808."],
        # N = 10**19 - 1
        ["9999999999999999999.", ".9999999999999999999",
         "-999999999.9999999999", "1.0"],
        # 20 significant digits and more, read by float(); the first three
        # hold more than a uint64 does
        ["99999999999999999999.", "-18446744073709551616.",
         "12345678901234567890.5", "-1234567890123456789.0",
         "1.0000000000000000000", "1.0"],
        # leading zeros: N of 1 and 19 digits, m of 20 to 23 (read by
        # float() past 22)
        ["0.00000000000000000001", "-0.0000000000000000000001",
         "0.00000000000000000000001", "-000.0001234567890123456789",
         "0.0009999999999999999999", "0.00009999999999999999999"],
        # exact midpoints of two doubles, 18 and 19 digits
        ["2251799813685248.25", "-2251799813685248.75",
         "9007199254740993.00", "1125899906842624.125",
         "-4503599627370496.500", "1152921504606847104."],
        # not midpoints, but their quotients rounded to 64 bits are: read
        # by rounding twice, each would be one ulp off
        _NEAR_MIDPOINTS,
        ["-0.0", "-.5", "0.0", ".5"],
    ])
    @pytest.mark.parametrize("chunk", [1, 3, 8, 1 << 16])
    def test_nineteen_digit_fields(self, read_route, monkeypatch, fields,
                                   chunk):
        monkeypatch.setattr(reader, "_READ_CHUNK", chunk)
        data = "".join(f"{a},{b}\n" for a, b in
                       zip(fields[::2], fields[1::2])).encode()
        got, route = read_route(data)
        assert route == _on_this_host("decimal")
        assert [v for row in got for v in row] == [
            float(f).hex() for f in fields]

    def test_leading_zeros_are_not_digits(self, monkeypatch):
        # a gen file's values in [1e-4, 1e-2) are written after two or
        # three zeros; with up to 17 significant digits they are divided
        # out, not read by float() one at a time
        text = _format_constraints(gen2d(GenSpec(n=100_000, seed=3)))
        fields = text.replace("\n", ",").split(",")[:-1]
        lead = [f for f in fields
                if "e" not in f and len(f.replace("-", "").replace(".", ""))
                > 19]
        assert len(lead) > 100
        read = []
        float_ = float

        class Counted(float):
            def __new__(cls, field):
                read.append(field)
                return float_(field)

        monkeypatch.setattr(reader, "float", Counted, raising=False)
        got = reader.parse_constraints(text)
        assert np.asarray(got).ravel().tolist() == list(map(float_, fields))
        # only those whose quotients land on a midpoint (1 in 2048)
        assert len(set(map(bytes.decode, read)) & set(lead)) * 50 < len(lead)

    def test_near_midpoints_are_rounded_to_midpoints(self):
        for field in _NEAR_MIDPOINTS:
            whole, _, frac = field.partition(".")
            value = Fraction(int(whole + frac), 10**len(frac))
            twice = float(_round_to_64_bits(value))
            assert twice != value and twice != float(field)

    def test_long_significand_gates_the_reader(self, read_route,
                                               monkeypatch):
        assert reader._LONG_SIGNIFICAND == (
            np.finfo(np.longdouble).nmant == 63
            and np.dtype(np.longdouble).itemsize == 16
            and sys.byteorder == "little")
        data = b"1.5,-2.25\n-0.0,.5\n0.1,0.30000000000000004\n"
        want = _outcome(_line_scan, data.decode())
        assert read_route(data) == (want, _on_this_host("decimal"))
        monkeypatch.setattr(reader, "_LONG_SIGNIFICAND", False)
        assert read_route(data) == (want, "fromstring")

    @pytest.mark.parametrize("data", [b"1.5,2.5x\n", b"1.5,2.5\n3.5,4.5x\n",
                                      b"1.5,2.5\n3.5,4x.5\n"])
    def test_bad_last_field_where_fromstring_reads_a_prefix(
            self, read_route, monkeypatch, data):
        # Older numpy's fromstring only warns at a byte it cannot read and
        # returns the numbers before it, the first digits of that field
        # among them; the reader turns the file down before it asks.
        def prefix(text, dtype, sep):
            number = re.compile(rb"[0-9]+" if np.dtype(dtype).kind == "u"
                                else rb"[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)"
                                     rb"([eE][-+]?[0-9]+)?")
            values = []
            for token in text.replace(sep.encode(), b" ").split():
                read = number.match(token)
                if read:
                    values.append(read[0])
                if not read or read.end() < len(token):
                    break
            return np.array([(int if np.dtype(dtype).kind == "u"
                              else float)(v) for v in values], dtype)

        monkeypatch.setattr(np, "fromstring", prefix)
        got, route = read_route(data)
        assert got == _outcome(_line_scan, data.decode())
        assert route == "text"

    def test_exponent_field_in_the_last_chunk(self, read_route):
        # repr writes some round values with an exponent and no '.'; one
        # such field, in the last chunk of a 1e5-row file, is read by
        # float() where the chunk would otherwise go to np.fromstring
        lines = _format_constraints(
            gen2d(GenSpec(n=100_000, seed=5))).splitlines(keepends=True)
        lines[-3] = f"{1e-05!r},{5e16!r}\n"
        data = "".join(lines).encode()
        assert b"1e-05,5e+16\n" in data[-reader._READ_CHUNK:]
        got, route = read_route(data)
        assert route == _on_this_host("decimal")
        assert got == _outcome(_line_scan, data.decode())

    @pytest.mark.parametrize("dim,n", [(2, 1000), (2, 100_000), (3, 1000),
                                       (3, 10_000)])
    def test_gen_files_read_bitwise(self, dim, n, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        assert main(["gen", "--dim", str(dim), "--n", str(n), "--seed", "3",
                     "--out", str(path)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            old = np.loadtxt(path, ndmin=2, delimiter=",")
        if reader._LONG_SIGNIFICAND:  # every chunk is divided out
            monkeypatch.setattr(reader._DecimalRows, "_fromstring", None)
        monkeypatch.setattr(reader, "_decode", None)
        got = np.asarray(parse_constraints(path))
        want = np.asarray((gen2d if dim == 2 else gen3d)(
            GenSpec(n=n, seed=3, dim=dim)))
        assert got.tobytes() == want.tobytes() == old.tobytes()


class TestDecimalFilesFromstring(_FromstringOnly, TestDecimalFiles):
    # the division's own checks
    test_near_midpoints_are_rounded_to_midpoints = None
    test_long_significand_gates_the_reader = None
    test_leading_zeros_are_not_digits = None


# The kinds of input parse_constraints reads: text, a path, a FIFO, and
# the binary streams of stdin redirected from a file and piped.
KINDS = ["str", "path", "fifo", "redirected", "piped"]


@pytest.fixture
def read_route(monkeypatch, tmp_path):
    """A function of an input's bytes and a kind of input (a file's path by
    default): ``outcome(parse_constraints, source)`` (_outcome by default)
    on those bytes given as that kind, and the route that read them:
    "decimal" (every chunk divided out by _DecimalRows), "fromstring"
    (some chunk read by np.fromstring) or "text" (decoded, or non-ASCII
    text, read by the line scan, from some line on)."""
    routes = []
    scan = reader._parse_lines
    monkeypatch.setattr(reader, "_parse_lines",
                        lambda *args: routes.append("text") or scan(*args))
    for name, route in (("_divide", "decimal"), ("_fromstring", "fromstring")):
        def counted(self, lines, convert=getattr(reader._DecimalRows, name),
                    route=route):
            return convert(self, lines) and not routes.append(route)

        monkeypatch.setattr(reader._DecimalRows, name, counted)
    path = tmp_path / "d.txt"

    def read(data: bytes, kind: str = "path", outcome=_outcome):
        routes.clear()
        parse = partial(outcome, parse_constraints)
        if kind == "str":
            got = parse(data.decode("utf-8"))
        elif kind == "fifo":
            got = _fifo_read(tmp_path / "fifo", data, parse, tmp_path / "fifo")
        elif kind == "piped":
            got = _piped(data, parse)
        else:
            path.write_bytes(data)
            if kind == "path":
                got = parse(path)
            else:
                with open(path, "rb") as f:
                    got = parse(f)
        return got, ("text" if "text" in routes else
                     "fromstring" if "fromstring" in routes else "decimal")

    return read


def _on_this_host(route: str) -> str:
    """``route`` as it is where _LONG_SIGNIFICAND is as it stands: without
    it, np.fromstring reads what would be divided out."""
    return ("fromstring" if route == "decimal" and not reader._LONG_SIGNIFICAND
            else route)


def _fifo_read(fifo, data: bytes, read, *args):
    """``read(*args)`` while one writer thread writes ``data`` to a new
    FIFO ``fifo``.  A reader that opens the FIFO a second time finds it
    empty after 5 s, so it fails instead of waiting for ever."""
    os.mkfifo(fifo)
    done = threading.Event()

    def write():
        fifo.write_bytes(data)
        while not done.wait(5):
            try:  # a writer that writes nothing: the reader sees EOF
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader has it open
                pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return read(*args)
    finally:
        done.set()
        writer.join(30)
        fifo.unlink()
        assert not writer.is_alive()


def _piped(data: bytes, read):
    """``read(f)`` of the binary stream ``f`` of a pipe's read end, as
    stdin is when piped, while one writer thread writes ``data`` to the
    pipe and closes it."""
    r, w = os.pipe()

    def write():
        with open(w, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        with open(r, "rb") as f:
            return read(f)
    finally:
        writer.join(30)
        assert not writer.is_alive()


class TestInputKinds:
    """Text, a path, a FIFO and stdin, redirected from a file or piped,
    are read by one byte reader: each gives the line scan's outcome, by the
    route the same text takes."""

    # text and paths: TestParsePaths and TestParseFiles
    @pytest.mark.parametrize("kind", KINDS[2:])
    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("text,fast", PARSE_CASES)
    def test_parse_cases(self, read_route, text, fast, bom, kind):
        got, route = read_route((bom + text).encode(), kind)
        assert got == _outcome(_line_scan, text)
        assert route == read_route(text.encode(), "str")[1]
        assert (route != "text") == fast

    @pytest.mark.parametrize("kind", KINDS[1:])
    def test_random_texts(self, read_route, kind):
        for text in _random_texts():
            want = read_route(text.encode(), "str")
            assert want[0] == _outcome(_line_scan, text), repr(text)
            assert read_route(text.encode(), kind) == want, repr(text)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim,n", [(2, 1000), (2, 100_000),
                                       (2, 1_000_000), (3, 1000),
                                       (3, 100_000)])
    def test_gen_files_read_bitwise(self, read_route, dim, n, kind):
        rows, data = _gen_text(dim, n)
        got, route = read_route(data, kind, lambda parse, source:
                                np.asarray(parse(source)).tobytes())
        assert route == _on_this_host("decimal")
        assert got == rows

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("text,route", [
        ("1.5,-2.25\n-3.0,4.125\n5.0,6.5\n", "decimal"),
        ("1.5,-2.25,0.5\n-3.0,4.125,1.0\n", "decimal"),
        ("1.5 -2.25\n-3 4\n5 6\n", "fromstring"),
        ("1.5 -2.25 1\r\n-3 4 2\r\n", "fromstring"),
        ("# \u00e9\n1.5,-2.25\n-3,4\n5,6\n", "text"),
        ("# \u00e9\n1.5,-2.25,1\n-3,4,2\n", "text")])
    def test_every_route_builds_one_array(self, read_route, text, route,
                                          kind):
        got, took = read_route(text.encode(), kind,
                               lambda parse, source: parse(source))
        assert_one_array(got)
        assert got == _line_scan(text)
        assert took == _on_this_host(route)

    @pytest.mark.parametrize("hook", ["profile", "trace"])
    @pytest.mark.parametrize("kind", ["str", "path", "redirected", "piped"])
    def test_read_under_a_trace_or_profile_hook(self, read_route, hook,
                                                kind):
        # a hook holds references to the reader's arrays through frame
        # locals, which numpy's resize counts unless told not to
        def trace(frame, event, arg):
            return trace

        data = _format_constraints(gen2d(GenSpec(n=1000, seed=6))).encode()
        want = read_route(data, kind)
        assert want[1] == _on_this_host("decimal")
        set_hook, get_hook = ((sys.setprofile, sys.getprofile)
                              if hook == "profile"
                              else (sys.settrace, sys.gettrace))
        old = get_hook()
        set_hook(trace)
        try:
            got = read_route(data, kind)
        finally:
            set_hook(old)
        assert got == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_decimal_fields(self, read_route, kind):
        fields, data = _decimal_rows()
        got, route = read_route(data, kind)
        assert route == _on_this_host("decimal")
        assert [v for row in got for v in row] == [
            float(f).hex() for f in fields]


@cache
def _gen_text(dim: int, n: int) -> tuple[bytes, bytes]:
    """The bytes of the rows of gen's instance of ``n`` rows in ``dim``
    dimensions, seed 4, and its text."""
    cs = (gen2d if dim == 2 else gen3d)(GenSpec(n=n, seed=4, dim=dim))
    return np.asarray(cs).tobytes(), _format_constraints(cs).encode()


class TestInputKindsFromstring(_FromstringOnly, TestInputKinds):
    pass


@pytest.fixture(params=["decimal", "fromstring"])
def converter(request, monkeypatch):
    """The route of plain decimals: divided out on x87, where the host has
    it, or read by np.fromstring, as on every other host."""
    if request.param == "decimal" and not reader._LONG_SIGNIFICAND:
        pytest.skip("longdouble is not x87's extended format here")
    monkeypatch.setattr(reader, "_LONG_SIGNIFICAND",
                        request.param == "decimal")
    return request.param


@pytest.fixture
def handed_over(monkeypatch):
    """What the chunk pass hands the line scan: the calls of _decode and
    _parse_lines, as (bytes or text, first line's number - 1)."""
    calls = {"decode": [], "scan": []}
    decode, scan = reader._decode, reader._parse_lines

    def decoded(data, start=0):
        calls["decode"].append((data, start))
        return decode(data, start)

    def scanned(text, start=0, *args):
        calls["scan"].append((text, start))
        return scan(text, start, *args)

    monkeypatch.setattr(reader, "_decode", decoded)
    monkeypatch.setattr(reader, "_parse_lines", scanned)
    return calls


def _first_line_of_chunk(data: bytes, at: int) -> int:
    """Where the lines that the chunk holding byte ``at`` ends begin: past
    the last '\n' before that chunk, read after the 3 bytes of a possible
    byte-order mark."""
    begin = 3 + (at - 3) // reader._READ_CHUNK * reader._READ_CHUNK
    return data.rfind(b"\n", 0, begin) + 1


def _scan_whole(data: bytes):
    """The line scan's outcome on all of ``data``, decoded."""
    return _outcome(lambda d: _line_scan(reader._decode(d)), data)


class TestResumedScan:
    """Where the chunk pass turns a chunk down, the line scan reads from
    its first line on, and gives what a scan of the whole text gives."""

    @pytest.mark.parametrize("bad", [b"1.5,zero", b"1.5,\xff2", b"1e999,1.0",
                                     b"1_0,2.5", b"1.5,2.5,3.5"])
    def test_a_bad_line_in_the_last_chunk(self, converter, handed_over,
                                          tmp_path, bad):
        data = bytearray(_gen_text(2, 100_000)[1])
        at = data.rfind(b"\n", 0, len(data) - 100) + 1
        data[at:data.index(b"\n", at)] = bad
        data = bytes(data)
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        got = _outcome(parse_constraints, path)
        assert got == _scan_whole(data)
        if bad == b"1_0,2.5":  # float() reads it: the rows are whole
            assert len(got) == 100_000
            assert_one_array(parse_constraints(path))
        else:
            assert got[2] == data[:at].count(b"\n") + 1
        first = _first_line_of_chunk(data, at)
        assert first > 0.9 * len(data)
        assert handed_over["decode"][0] == (data[first:],
                                            data[:first].count(b"\n"))

    def test_crlf_split_across_a_chunk_edge(self, converter, handed_over,
                                            tmp_path):
        lines = [f"{i}.5,-{i}.25\r\n" for i in range(20_000)]
        data = "".join(lines).encode()
        # the '\r' of some line made the last byte of the first chunk
        edge = 3 + reader._READ_CHUNK
        pad = edge - 1 - data.rfind(b"\r", 0, edge - 1)
        lines[0] = "0.5" + "0" * pad + ",-0.25\r\n"
        data = "".join(lines).encode()
        assert data[edge - 1:edge + 1] == b"\r\n"
        path = tmp_path / "crlf.txt"
        path.write_bytes(data)
        assert _outcome(parse_constraints, path) == _scan_whole(data)
        assert handed_over["scan"] == []
        # a bad line after the edge is named by its number
        lines[-2] = "1.5,zero\r\n"
        data = "".join(lines).encode()
        path.write_bytes(data)
        got = _outcome(parse_constraints, path)
        assert got == _scan_whole(data) and got[2] == len(lines) - 1

    def test_comment_lines_only(self, converter, handed_over, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_bytes(b"# head, 1\r\n  \t# 2,3\n\n#\r# 4 5")
        with pytest.raises(EmptyProblem):
            parse_constraints(path)
        # read by the chunk pass: the line scan has no text left
        assert handed_over["scan"] == [("", 5)]


@cache
def _decimal_rows() -> tuple[list[str], bytes]:
    """The first 2e5 of _decimal_fields(8), and their text, two a line."""
    fields = _decimal_fields(8)[:200_000]
    return fields, "".join(f"{a},{b}\n" for a, b in
                           zip(fields[::2], fields[1::2])).encode()


class TestFormatConstraints:
    @pytest.mark.parametrize("rows", [
        [(0.1, -0.0), (5e-324, 1e308), (1e16, 1e-5), (-1e22, 123.0)],
        [(1.0, 2.0, 3.0), (0.0, -0.0, 2.2250738585072014e-308)]])
    def test_same_text_as_per_value_repr(self, rows):
        want = "\n".join(",".join(repr(float(v)) for v in r)
                         for r in rows) + "\n"
        assert _format_constraints(rows) == want
        assert _format_constraints(Problem(*zip(*rows))) == want


# SHA-256 of the file `minmaxlp gen --dim D --n N --seed 1` wrote when it
# formatted all rows into one string: (dim, n) -> digest.  The sizes
# straddle the writer's block of 16384 rows.
GEN_SHA256 = {
    (2, 1): "f36b3747332e943a39996493a41127da05ae81cecc70b8cecb3765d3ba2d0203",
    (2, 7): "f9b9fd6786324994993cac79560dbb6a877207eba8a3ac39db3ed46618844317",
    (2, 16383):
        "8113be1a7cd7207ba9a1b9bd2a44649756716b7b4ce3bec928120261debe552f",
    (2, 16384):
        "74bc1a7d8b49c66b1c345bef416ce6f8505abc7e963d3b1530fdf9a886104e48",
    (2, 16385):
        "904dcf411430fec3cdf5275f3a654a62523aa053f866e10888dbfb615be7b852",
    (2, 100000):
        "f604b05fe0e335d9786001050c8764eceee2a9bf1d4aba839f09f6a5e0723e98",
    (3, 1): "46b4fe2721d466a9e563d791a770bcdeca9cdc5310a87beaad47c4d2707d2e3c",
    (3, 7): "637ffd204e7f55d578f03c979770c2a7f8dbe7bcaeadabc367bcf4d14aa28fd1",
    (3, 16383):
        "fd2e038df06653d098cf00716f2f7e564db1c578a897d7cbc96c9c3eba75f432",
    (3, 16384):
        "2c365ba7a19a9b362c53df9087fd98a378c24786286270a12a64f82ece39f223",
    (3, 16385):
        "6533d20c48bb3f6c891e71361b53a6cabffed6f20e35e2b553bc417f65279db4",
    (3, 100000):
        "9f8f11ce6722b8ffe2239fbdac4b9270c1bbf065de482046e14e0de8da2a616c",
}
# The same for `--index 4 --count 2 --out-dir D`: (dim, n, index) -> digest.
GEN_DIR_SHA256 = {
    (2, 7, 4):
        "54e13abfe130a32ab96fd68b922857da8516c3ffc90fae6a38ccfd202664c9a7",
    (2, 7, 5):
        "89dde4f5f3f3a637286798971d65dae68c82c0605c5c7ab3f3455e5eda6f727b",
    (2, 16385, 4):
        "c1b0bcbb7fd59faf61718c4d5e07713e159d4a504e163e02406cf79b7d8314eb",
    (2, 16385, 5):
        "26f3d756fbb601324746140e7fe422e925af46d19a6ecc3a095735da58a49dd2",
    (3, 7, 4):
        "56a9b0af76af5255eaeccb4e1cbb0c931cdcbab6fbd93743efa2775598f46888",
    (3, 7, 5):
        "524f1f67c5b43e021831f2ee7e498cd4efca0e6f6b3088ede94a3e7be715e845",
    (3, 16385, 4):
        "814227e13d5cd93ef729ce80f777f8bc293ee5acc5b521473a0d9d4c7f16dc9a",
    (3, 16385, 5):
        "a94080dc0b0f368566e9ee0cfc7d15525b81a8412cc8db5eb99b2204865d0bb0",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGenBytes:
    """gen writes in blocks of rows the bytes it once wrote at once."""

    def test_sizes_straddle_the_block(self):
        assert cli._BLOCK_ROWS == 16384

    @pytest.mark.parametrize("dim,n", sorted(GEN_SHA256))
    def test_out_file(self, dim, n, tmp_path):
        path = tmp_path / "g.txt"
        assert main(["gen", "--dim", str(dim), "--n", str(n), "--seed", "1",
                     "--out", str(path)]) == 0
        assert _sha256(path.read_bytes()) == GEN_SHA256[dim, n]

    @pytest.mark.parametrize("dim,n", sorted(GEN_SHA256))
    def test_stdout(self, dim, n, capsysbinary):
        assert main(["gen", "--dim", str(dim), "--n", str(n),
                     "--seed", "1"]) == 0
        out = capsysbinary.readouterr()
        assert out.err == b""
        assert _sha256(out.out) == GEN_SHA256[dim, n]

    @pytest.mark.parametrize("dim,n", sorted({k[:2] for k in GEN_DIR_SHA256}))
    def test_out_dir(self, dim, n, tmp_path):
        assert main(["gen", "--dim", str(dim), "--n", str(n), "--seed", "1",
                     "--index", "4", "--count", "2",
                     "--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "instance_00004.txt", "instance_00005.txt"]
        for k in (4, 5):
            data = (tmp_path / f"instance_{k:05d}.txt").read_bytes()
            assert _sha256(data) == GEN_DIR_SHA256[dim, n, k]

    def test_format_constraints_is_the_writer(self):
        cs = gen3d(GenSpec(n=16385, seed=1, dim=3))
        text = _format_constraints(cs)
        assert _sha256(text.encode()) == GEN_SHA256[3, 16385]


class TestEmitSolution:
    def test_optimal_2d(self):
        got = json.loads(emit_solution(
            Solution2(Status.OPTIMAL, x=0.0, t=0.0, iterations=2)))
        assert got == {"status": "optimal", "x": 0.0, "t": 0.0,
                       "iterations": 2}

    def test_unbounded(self):
        got = json.loads(emit_solution(Solution2(Status.UNBOUNDED)))
        assert got == {"status": "unbounded"}

    def test_solution3(self):
        got = json.loads(emit_solution(Solution3(x=0.25, y=1.0, t=-2.0)))
        assert got == {"status": "optimal", "x": 0.25, "y": 1.0, "t": -2.0}

    def test_prune_report_lists_kept_indices(self):
        report = prune([(0.5, 0.5, 0.0), (0.0, 0.0, -1.0)])
        got = json.loads(emit_solution(report))
        assert got["kept"] == [0]
        assert got["discarded_behind"] == 1
        assert got["discarded_steep"] == 0

    def test_roundtrip_precision(self):
        x = 0.1 + 0.2  # not exactly representable as a short decimal
        got = json.loads(emit_solution(Solution2(Status.OPTIMAL, x=x, t=x)))
        assert got["x"] == x

    def test_tsv(self):
        text = emit_solution(Solution2(Status.OPTIMAL, x=1.5, t=2.5,
                                       iterations=3), fmt="tsv")
        lines = dict(line.split("\t") for line in text.splitlines())
        assert lines["status"] == "optimal"
        assert float(lines["x"]) == 1.5

    def test_tsv_prune_report(self):
        report = prune([(0.5, 0.5, 0.0), (0.0, 0.0, -1.0), (1.0, 1.0, -0.5)])
        text = emit_solution(report, fmt="tsv")
        assert text.splitlines() == ["kept\t0,2", "discarded_behind\t1",
                                     "discarded_steep\t0", "pmin_index\t0"]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_solution(Solution2(Status.UNBOUNDED), fmt="xml")

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    @pytest.mark.parametrize("obj", [{"status": "optimal"}, None, 1.5])
    def test_unknown_object(self, fmt, obj):
        with pytest.raises(TypeError,
                           match=f"cannot emit {type(obj).__name__}$"):
            emit_solution(obj, fmt)


class TestMain:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_solve2d(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("1,0\n-1,0\n")
        code, out, _ = self.run(capsys, "solve2d", str(f))
        assert code == 0
        got = json.loads(out)
        assert got["status"] == "optimal" and got["t"] == 0

    def test_solve2d_unbounded_is_success(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("1,0\n2,3\n")
        code, out, _ = self.run(capsys, "solve2d", str(f))
        assert code == 0
        assert json.loads(out)["status"] == "unbounded"

    def test_solve2d_abs_mode(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("1,0\n")  # |x| -> min at 0
        code, out, _ = self.run(capsys, "solve2d", str(f), "--mode", "abs")
        assert code == 0
        got = json.loads(out)
        assert got["t"] == 0 and got["x"] == 0

    def test_solve2d_abs_exact_fit(self, tmp_path, capsys):
        # eight residuals |a*x - 0.1*a| that all vanish at x = 0.1; the
        # rounded products make the duals nearly, not exactly, collinear
        f = tmp_path / "fit.txt"
        a = (1.0, -2.5, 3.25, 0.75, -1.5, 4.0, -3.0, 2.0)
        f.write_text("".join(f"{v!r},{-(0.1 * v)!r}\n" for v in a))
        code, out, err = self.run(capsys, "solve2d", str(f), "--mode", "abs",
                                  "--validate")
        assert code == 0, err
        got = json.loads(out)
        assert abs(got["t"]) <= 1e-15 and abs(got["x"] - 0.1) <= 1e-15

    def test_solve2d_validate(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("2,-1\n-1,0\n0.5,0\n")
        code, out, _ = self.run(capsys, "solve2d", str(f), "--validate")
        assert code == 0

    def test_solve2d_rejects_3d_input(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("1,2,3\n4,5,6\n")
        code, _, err = self.run(capsys, "solve2d", str(f))
        assert code == 2 and "solve2d" in err

    def test_mixed_arity_exit_code(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("1,0\n1,2,3\n")
        code, _, err = self.run(capsys, "solve2d", str(f))
        assert code == 2 and "line 2" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, err = self.run(capsys, "solve2d", "/nonexistent/x.txt")
        assert code == 2

    def test_validate_near_double_range(self, tmp_path, capsys):
        # the certificate holds although 1e308 * x cancels against 1e308
        f = tmp_path / "p.txt"
        f.write_text("1e308,1e308\n-1e308,-1e308\n1,0\n")
        code, out, _ = self.run(capsys, "solve2d", str(f), "--validate")
        assert code == 0
        got = json.loads(out)
        assert (got["x"], got["t"]) == (-1.0, 0.0)

    def test_solve3d(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("1,0,0\n-1,0,0\n0,1,0\n0,-1,0\n")
        code, out, _ = self.run(capsys, "solve3d", str(f), "--validate")
        assert code == 0
        got = json.loads(out)
        assert got["t"] == 0 and "y" in got

    def test_solve3d_validate_near_double_range(self, tmp_path, capsys,
                                                monkeypatch):
        from minmaxlp import prune3d
        calls = []

        def oracle(cs):
            calls.append(len(cs))
            return brute3d_box(cs)
        monkeypatch.setattr(prune3d, "brute3d_box", oracle)
        f = tmp_path / "p.txt"
        f.write_text("-9e307,-9e307,9e307\n")
        code, out, _ = self.run(capsys, "solve3d", str(f), "--validate")
        assert code == 0 and json.loads(out)["t"] == -9e307
        assert calls == []  # the certificate needs no oracle

    def test_solve3d_validate_offset_overflows(self, tmp_path, capsys):
        # the x = 1 edge offset a + c = 2e308 overflows; the certificate
        # forms no offsets and accepts the right answer
        f = tmp_path / "p.txt"
        f.write_text("1e308,0,1e308\n-1e308,0.5,0\n")
        code, out, err = self.run(capsys, "solve3d", str(f), "--validate")
        assert code == 0, err
        assert json.loads(out) == {"status": "optimal", "x": 0.0, "y": 0.0,
                                   "t": 1e308}

    def test_solve3d_validate_optimum_near_double_range(self, tmp_path,
                                                         capsys):
        # the x = 0 edge's unconstrained optimum, x = 2e308, is out of range
        f = tmp_path / "p.txt"
        f.write_text("0,0,1e308\n0,0.5,0\n")
        code, out, err = self.run(capsys, "solve3d", str(f), "--validate")
        assert code == 0, err
        assert json.loads(out) == {"status": "optimal", "x": 0.0, "y": 0.0,
                                   "t": 1e308}

    def test_abs_mode_3d_pairs(self):
        rows = [Constraint3(1.0, -2.0, 0.0), Constraint3(-0.0, 3.5, -1e308)]
        old = [c for row in rows
               for c in (row, Constraint3(-row[0], -row[1], -row[2]))]
        got = _apply_mode(rows, "abs")
        assert np.asarray(got).shape == (4, 3)
        for g, o in zip(got, old):
            assert [v.hex() for v in g] == [v.hex() for v in o]

    def test_validate_sizes(self, tmp_path, capsys):
        # solve3d and the pruning check of prune3d certify any size
        big = tmp_path / "big.txt"
        assert main(["gen", "--dim", "3", "--n", "1000", "--seed", "1",
                     "--out", str(big)]) == 0
        code, _, err = self.run(capsys, "solve3d", str(big), "--validate")
        assert code == 0, err
        code, _, err = self.run(capsys, "prune3d", str(big), "--validate")
        assert code == 0, err
        rows = tmp_path / "rows.txt"
        assert main(["gen", "--dim", "3", "--n", "61", "--seed", "1",
                     "--out", str(rows)]) == 0
        code, _, err = self.run(capsys, "prune3d", str(rows), "--validate")
        assert code == 0, err

    def test_prune3d(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0.5,0.5,0\n0,0,1\n")  # duals: (.5,.5,0) and (0,0,-1)
        code, out, _ = self.run(capsys, "prune3d", str(f), "--validate")
        assert code == 0
        got = json.loads(out)
        assert set(got) >= {"kept", "discarded_behind", "discarded_steep"}

    def test_oracle_2d(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("2,-1\n-1,0\n0.5,0\n")
        code, out, _ = self.run(capsys, "oracle", str(f), "--validate")
        assert code == 0
        assert json.loads(out)["t"] == 0

    def test_oracle_3d(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("1,0,0\n-1,0,0\n0,1,0\n0,-1,0\n")
        code, out, _ = self.run(capsys, "oracle", str(f), "--validate")
        assert code == 0
        assert json.loads(out)["t"] == 0

    def test_gen_roundtrip_exact(self, tmp_path, capsys):
        out_file = tmp_path / "inst.txt"
        code = main(["gen", "--dim", "2", "--n", "50", "--seed", "7",
                     "--out", str(out_file)])
        assert code == 0
        from minmaxlp import GenSpec, gen2d
        parsed = parse_constraints(out_file.read_text())
        assert parsed == gen2d(GenSpec(n=50, seed=7))

    def test_gen_corpus_dir(self, tmp_path):
        code = main(["gen", "--dim", "3", "--n", "4", "--seed", "1",
                     "--count", "3", "--out-dir", str(tmp_path / "corpus")])
        assert code == 0
        files = sorted((tmp_path / "corpus").glob("instance_*.txt"))
        assert len(files) == 3

    @pytest.mark.parametrize("argv,flag", [
        (["--count", "2", "--out", "one.txt"], "--out"),
        (["--out", "x.txt", "--out-dir", "d"], "--out-dir"),
        (["--count", "0"], "--count"),
    ])
    def test_gen_flag_misuse_writes_nothing(self, tmp_path, monkeypatch,
                                            capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = self.run(capsys, "gen", "--n", "3", *argv)
        assert code == 2
        assert err.startswith("error: gen:") and flag in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_gen_then_solve_pipeline(self, tmp_path, capsys):
        f = tmp_path / "inst.txt"
        assert main(["gen", "--n", "100", "--seed", "3",
                     "--out", str(f)]) == 0
        code, out, _ = self.run(capsys, "solve2d", str(f), "--validate")
        assert code == 0
        assert json.loads(out)["status"] in ("optimal", "unbounded")

    def test_bench_smoke(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        csv = tmp_path / "rows.csv"
        code, out, _ = self.run(
            capsys, "bench", "--solver", "hough2d,baseline_hull",
            "--sizes", "20,40", "--batch", "4", "--seed", "2",
            "--report", str(report), "--csv", str(csv))
        assert code == 0
        data = json.loads(report.read_text())
        assert set(data["results"]) == {"hough2d", "baseline_hull"}
        assert "baseline_over_hough_time_ratio" in data
        # each CSV row holds the report's fields: floats in repr, the
        # baseline's missing pivot counts as "None"
        want = ["solver,n,batch,total_s,mean_s,median_s,mean_iterations,"
                "max_iterations"] + [
            f"{r['solver']},{r['n']},{r['batch']},{r['total_s']!r},"
            f"{r['mean_s']!r},{r['median_s']!r},{r['mean_iterations']},"
            f"{r['max_iterations']}"
            for rs in data["results"].values() for r in rs]
        assert csv.read_text() == "\n".join(want) + "\n"
        assert csv.read_text().count("None") == 4

    def test_bench_unknown_solver(self, capsys):
        code, _, err = self.run(capsys, "bench", "--solver", "simplex",
                                "--sizes", "10", "--batch", "1")
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--sizes", "0"),
                                            ("--sizes", "10,-5"),
                                            ("--batch", "0"),
                                            ("--batch", "-3")])
    def test_bench_rejects_sizes_and_batch_below_one(self, capsys, flag,
                                                     value):
        args = {"--sizes": "10", "--batch": "1", flag: value}
        code, out, err = self.run(capsys, "bench", *(v for kv in args.items()
                                                     for v in kv))
        assert code == 2
        assert not out
        assert err.startswith("error: ") and value.split(",")[-1] in err

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO("1,0\n-1,0\n"))
        code, out, _ = self.run(capsys, "solve2d", "-")
        assert code == 0
        assert json.loads(out)["t"] == 0

    def test_malformed_stdin_names_the_line(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO("1,0\n-1,zero\n"))
        code, out, err = self.run(capsys, "solve2d", "-")
        assert code == 2 and out == ""
        assert "line 2" in err

    @pytest.mark.parametrize("error", [ContractViolation, AssertionError])
    def test_internal_error_exits_3(self, tmp_path, monkeypatch, capsys,
                                    error):
        def broken(cs, sol):
            raise error("certificate rejected")

        monkeypatch.setattr(cli, "check2d", broken)
        f = tmp_path / "p.txt"
        f.write_text("1,0\n-1,0\n")
        code, out, err = self.run(capsys, "solve2d", str(f), "--validate")
        assert code == 3 and out == ""
        assert err == "internal error: certificate rejected\n"

    @pytest.mark.parametrize("command,patched", [("gen", "gen2d"),
                                                 ("oracle", "brute2d")])
    @pytest.mark.parametrize("message", ["Unable to allocate 29.8 GiB", ""])
    def test_out_of_memory_is_an_input_error(self, tmp_path, monkeypatch,
                                             capsys, command, patched,
                                             message):
        def exhausted(*args, **kwargs):
            raise MemoryError(*([message] if message else []))

        monkeypatch.setattr(cli, patched, exhausted)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.txt").write_text("1,0\n-1,1\n")
        argv = (["gen", "--n", "3", "--out", "g.txt"] if command == "gen"
                else ["oracle", "p.txt"])
        code, out, err = self.run(capsys, *argv)
        assert code == 2 and out == ""
        want = f"error: {command}: out of memory"
        assert err == (f"{want}: {message}\n" if message else f"{want}\n")
        # gen fails before it opens its file, so it leaves none
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.txt"]

    @pytest.mark.parametrize("data,line", [
        (b"1,0\n-1,\xff\n", 2),
        (b"\xff,0\n", 1),
        (b"1,0\r\n-1,1\r2,\xc3\n", 3),
        # \v breaks a line for the line scan, so line 4 holds the bad byte
        (b"\xef\xbb\xbf1,0\n\xe2\x82\xac,1\n3\x0b\xe2\x82,4\n", 4),
        (b"1,0\n2,1\n\xe2", 3),
    ])
    def test_undecodable_bytes_name_their_line(self, tmp_path, monkeypatch,
                                               capsys, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            parse_constraints(path)
        assert err.value.line == line
        code, out, err_file = self.run(capsys, "solve2d", str(path))
        assert code == 2 and out == ""
        assert err_file.startswith(f"error: line {line}: cannot decode")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="strict"))
        assert self.run(capsys, "solve2d", "-") == (2, "", err_file)

    def test_undecodable_stdin_in_a_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "minmaxlp.cli", "solve2d", "-"],
            input=b"1,0\n-1,\xff\n", capture_output=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr.startswith(b"error: line 2: cannot decode")

    def test_gen_to_a_closed_pipe_in_a_process(self):
        # the writer's first blocks fill the pipe; the reader is gone
        proc = subprocess.Popen(
            [sys.executable, "-m", "minmaxlp.cli", "gen", "--n", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(64)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert len(head) == 64 and err == b""

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        # one parser serves every call; a usage error, an input error and
        # other subcommands in between leave later calls unchanged
        f = tmp_path / "p.txt"
        f.write_text("1,0\n-1,1\n")
        assert cli._build_parser() is cli._build_parser()
        first = self.run(capsys, "solve2d", str(f), "--format", "tsv")
        with pytest.raises(SystemExit) as err:
            main(["solve2d", str(f), "--mode", "nope"])
        assert err.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()
        assert self.run(capsys, "solve2d", "/nonexistent/x.txt")[0] == 2
        assert self.run(capsys, "oracle", str(f))[0] == 0
        assert self.run(capsys, "solve2d", str(f), "--format", "tsv") == first
        code, out, _ = self.run(capsys, "solve2d", str(f))
        assert code == 0 and json.loads(out)["x"] == 0.5

    def test_broken_pipe_exits_quietly(self, tmp_path, capsys, monkeypatch):
        # A reader that closed stdout early is not an input error.
        f = tmp_path / "p.txt"
        f.write_text("1,0\n-1,1\n")

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["solve2d", str(f)])
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_broken_pipe_in_a_process(self, tmp_path):
        # stdout is a pipe whose reader is gone before the process starts:
        # it exits 1, and nothing reaches stderr, not even when the
        # interpreter flushes the still buffered answer at exit.
        f = tmp_path / "p.txt"
        f.write_text("1,0\n-1,1\n")
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "minmaxlp.cli", "solve2d", str(f)],
                stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_console_script_runs(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("1,0\n-1,1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "minmaxlp.cli", "solve2d", str(f)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["x"] == 0.5


# The files of the answering subcommands' transcript: 2 and 3 fields, an
# unbounded problem, a parse error, no constraints, and field counts that
# no command takes.
_ANSWER_FILES = {
    "two.txt": _format_constraints(gen2d(GenSpec(n=40, seed=3))),
    "three.txt": _format_constraints(gen3d(GenSpec(n=30, seed=3, dim=3))),
    "unbounded.txt": "1,0\n2,3\n",
    "garbled.txt": "1,0\n-1,zero\n",
    "empty.txt": "# no rows\n\n",
    "four.txt": "1,2,3,4\n5,6,7,8\n",
    "mixed.txt": "1,0\n1,2,3\n",
}
_ANSWERING = ("solve2d", "solve3d", "prune3d", "oracle")
# SHA-256 of _transcript over every answering argv, as the four
# subcommands had them when each had its own function, and over every
# --help, with solve3d's help naming its working set and the --mode help
# of solve2d, solve3d and oracle naming the pairs held as one row.
ANSWER_SHA256 = (
    "4a208f043d02e60dbef50e596c88fc62d254756627a55eb63b60c9f11be0a418")
HELP_SHA256 = (
    "9f51736ece3dd1acee5547b30c993b00f310c80119f872120fbf1aaed0d627fc")


def _answer_argvs():
    """Each answering subcommand on each of _ANSWER_FILES, in each format,
    with and without --validate, with no --mode and with each of its two
    values (a usage error for prune3d, which takes none)."""
    return [[cmd, name, "--format", fmt, *validate, *mode]
            for cmd in _ANSWERING for name in _ANSWER_FILES
            for fmt in ("json", "tsv")
            for validate in ([], ["--validate"])
            for mode in ([], ["--mode", "lp"], ["--mode", "abs"])]


def _transcript(argvs, capsys) -> str:
    """One line per argv: the argv, main's exit code, stdout and stderr."""
    lines = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        lines.append(f"{argv!r} {code!r} {out.out!r} {out.err!r}\n")
    return "".join(lines)


class TestAnswerPath:
    """solve2d, solve3d, prune3d and oracle share one answering path."""

    run = TestMain.run

    def test_transcript(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, text in _ANSWER_FILES.items():
            (tmp_path / name).write_text(text)
        text = _transcript(_answer_argvs(), capsys)
        assert _sha256(text.encode()) == ANSWER_SHA256

    def test_help(self, monkeypatch, capsys):
        if sys.version_info[:2] != (3, 11):
            pytest.skip("argparse lays out help differently in other "
                        "Python versions")
        monkeypatch.setenv("COLUMNS", "80")
        argvs = [["--help"]] + [[cmd, "--help"] for cmd in
                                (*_ANSWERING, "gen", "bench")]
        text = _transcript(argvs, capsys)
        assert _sha256(text.encode()) == HELP_SHA256

    @pytest.mark.parametrize("command,text,want,have", [
        ("solve2d", "1,2,3\n4,5,6\n", 2, 3),
        ("solve3d", "1,0\n-1,1\n", 3, 2),
        ("prune3d", "1,0\n-1,1\n", 3, 2),
    ])
    @pytest.mark.parametrize("validate", [[], ["--validate"]])
    def test_field_count_gate(self, tmp_path, capsys, command, text, want,
                              have, validate):
        f = tmp_path / "p.txt"
        f.write_text(text)
        assert self.run(capsys, command, str(f), *validate) == (
            2, "", f"error: {command} needs {want}-field constraints, "
                   f"input has {have}\n")

    @pytest.mark.parametrize("argv,called", [
        (["solve2d", "two.txt", "--validate"],
         {"parse_constraints", "solve", "check2d"}),
        (["solve2d", "two.txt", "--mode", "abs", "--validate"],
         {"parse_constraints", "expand_absolute", "solve", "check2d"}),
        (["solve3d", "three.txt", "--validate"],
         {"parse_constraints", "solve3d", "check3d"}),
        (["prune3d", "three.txt", "--validate"],
         {"parse_constraints", "prune", "solve3d", "check3d"}),
        (["oracle", "two.txt", "--mode", "abs", "--validate"],
         {"parse_constraints", "expand_absolute", "brute2d", "check2d"}),
        (["oracle", "three.txt", "--validate"],
         {"parse_constraints", "brute3d_box", "check3d"}),
    ])
    def test_names_are_looked_up_when_called(self, tmp_path, monkeypatch,
                                             capsys, argv, called):
        # A tracer rebinds these module attributes of cli; the answering
        # path must reach each through its name at call time.
        names = ("parse_constraints", "expand_absolute", "solve", "solve3d",
                 "prune", "brute2d", "brute3d_box", "check2d", "check3d")
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        monkeypatch.chdir(tmp_path)
        for name in ("two.txt", "three.txt"):
            (tmp_path / name).write_text(_ANSWER_FILES[name])
        code, _, err = self.run(capsys, *argv)
        assert code == 0, err
        assert {name for name, k in calls.items() if k} == called


def _ci_files() -> dict[str, bytes]:
    """The constraint files of the CI's console-script step that the
    answering subcommands read, but the 1e6-row ones and prune.txt."""
    def rows(seed, make):
        r = random.Random(seed)
        return "".join(",".join(map(repr, row)) + "\n" for row in make(r))

    def gen(n, dim=2):
        return _format_constraints((gen2d if dim == 2 else gen3d)(
            GenSpec(n=n, seed=1, dim=dim)))

    far = gen(2000) + "1.7e308,-1e307\n-1.7e308,-1e307\n"
    files = {
        "box.txt": gen(1000, 3),
        "oracle2.txt": gen(100),
        "oracle3.txt": gen(40, 3),
        "edge3.txt": "0,0,0\n1,1,-2.0000000000000004\n1,1,-2\n"
                     "-1e308,-1e308,-1e308\n"
                     "1e308,1e308,-1.7976931348623157e308\n1,1e308,-1e308\n",
        "found.txt": "1e308,0,1e308\n-1e308,0.5,0\n",
        "point3.txt": rows(1, lambda r: (
            (a, b, 1 - a / 2 - b / 4) for a, b in (
                (r.gauss(0, 3), r.gauss(0, 3)) for _ in range(10000)))),
        "fit.txt": gen(100_000),
        "huge.txt": rows(1, lambda r: (
            (r.uniform(-1, 1) * 1.7e308, r.uniform(-1, 0) * 1.7e308)
            for _ in range(200))),
        "exact.txt": rows(1, lambda r: (
            (a, -(a / 8)) for a in (r.gauss(0, 3) for _ in range(10000)))),
        **{f"nonpos{n}.txt": rows(n, lambda r: (
            (-abs(r.gauss(0, 3)) if k % 3 else 0.0, r.gauss(0, 3))
            for k in range(n))) for n in (10, 1000)},
        "far.txt": far,
    }
    return {**{k: v.encode() for k, v in files.items()},
            "bom.txt": b"\xef\xbb\xbf" + far.encode()}


# SHA-256 of _transcript over _file_argvs() on _ci_files(), as the parent
# of the change that read files from their path printed it, but for the
# four lines of solve2d and oracle on huge.txt with --mode abs: those now
# answer x = 0.005079068871428762, t = 1.691890438054925e+308 and exit 0,
# where solve2d answered x = 0 and the oracle a crossing off the optimum,
# and --validate exited 3 on both.
CI_FILES_SHA256 = (
    "874790a044a2142964ea3b0c36c2c13e5c15c7f4eb41c8c05126eeb185eda196")


def _file_argvs(files):
    """Each answering subcommand on each file, in json and tsv, with
    --validate, in --mode lp and abs; the oracle on files of at most 200
    rows."""
    return [[cmd, name, "--format", fmt, "--validate", *mode]
            for name, data in files.items()
            for cmd in _ANSWERING
            if cmd != "oracle" or data.count(b"\n") <= 200
            for fmt in ("json", "tsv")
            for mode in ([[]] if cmd == "prune3d"
                         else [[], ["--mode", "abs"]])]


class TestFileAndStdin:
    def test_same_stdout_from_a_file_and_from_stdin(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        files = _ci_files()
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        argvs = _file_argvs(files)
        from_files = _transcript(argvs, capsys)
        lines = []
        for argv in argvs:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
                io.BytesIO(files[argv[1]]), encoding="utf-8"))
            lines.append(_transcript([[argv[0], "-", *argv[2:]]], capsys)
                         .replace("'-'", repr(argv[1]), 1))
        assert "".join(lines) == from_files
        assert _sha256(from_files.encode()) == CI_FILES_SHA256
