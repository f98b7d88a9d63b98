import hashlib
import io
import json
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from minmaxlp import (Constraint2, Constraint3, ContractViolation,
                      EmptyProblem, GenSpec, MixedArity, ParseError, Problem,
                      Solution2, Solution3, Status, brute3d_box, gen2d, gen3d,
                      prune)
from minmaxlp import cli
from minmaxlp.cli import (_apply_mode, _format_constraints, emit_solution,
                          main, parse_constraints)

_line_scan = cli._parse_lines


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


# (text, whether the vectorised pass reads it)
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
    ("  # head\n1,0\n", False),
    ("1,0\n#\r2,3\n", False),
    ("1,0\n   \n\t\n2,3\n", False),
    ("1,0,\n2,3,\n", False),
    ("1,,0\n", False),
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
    ("1,2\r3,4\r", False),
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


class TestParsePaths:
    """The vectorised parse and the line scan read every text alike."""

    @pytest.mark.parametrize("text,fast", PARSE_CASES)
    def test_same_as_line_scan(self, text, fast, monkeypatch):
        scans = []

        def counted(t):
            scans.append(t)
            return _line_scan(t)

        monkeypatch.setattr(cli, "_parse_lines", counted)
        assert _outcome(parse_constraints, text) == _outcome(_line_scan, text)
        assert (not scans) == fast

    @pytest.mark.parametrize("text,fast", PARSE_CASES)
    def test_leading_byte_order_mark_is_dropped(self, text, fast,
                                                monkeypatch):
        # Only parse_constraints drops it, so a text's line numbers, and
        # its reading in one vectorised pass, are those without it.
        scans = []
        monkeypatch.setattr(cli, "_parse_lines",
                            lambda t: scans.append(t) or _line_scan(t))
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
        rng = random.Random(5)
        pieces = ["1", "-2.5", "0", "1e3", "+", ",", " ", ",", "\n", "\n",
                  "\r\n", "\r", "\t", "#", "nan", "1_0", "\x0b", "\x1f",
                  "\u2028", "e", "."]
        for _ in range(3000):
            text = "".join(rng.choice(pieces)
                           for _ in range(rng.randint(0, 14)))
            assert (_outcome(parse_constraints, text)
                    == _outcome(_line_scan, text)), repr(text)

    @pytest.mark.parametrize("block", [1, 4])
    def test_blocks_read_alike(self, block, monkeypatch):
        # A long text reaches loadtxt a block at a time; the blocks hold the
        # text's lines as they are, so outcome and reader stay the same.
        rng = random.Random(block)
        pieces = ["1", "-2.5", "0", "1e3", ",", " ", "\n", "\n", "\r\n",
                  "\r", "\t", "#"]
        texts = [text for text, _ in PARSE_CASES] + [
            "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
            for _ in range(500)]
        want = []
        for text in texts:
            scans = []
            monkeypatch.setattr(cli, "_parse_lines",
                                lambda t: scans.append(t) or _line_scan(t))
            want.append((_outcome(parse_constraints, text), not scans))
        monkeypatch.setattr(cli, "_PARSE_BLOCK", block)
        for text, expected in zip(texts, want):
            scans = []
            monkeypatch.setattr(cli, "_parse_lines",
                                lambda t: scans.append(t) or _line_scan(t))
            assert (_outcome(parse_constraints, text), not scans) == expected
            if text:
                blocks = list(cli._blocks(text))
                assert "".join(blocks) == text
                assert all(b.endswith("\n") for b in blocks[:-1])

    def test_generated_text_is_read_in_one_pass(self, monkeypatch):
        from minmaxlp import GenSpec, gen2d, gen3d
        monkeypatch.setattr(cli, "_parse_lines", None)
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
        # vectorised pass reads them; up to 1e5 rows the text is also read
        # by loadtxt through a StringIO, as it once was.
        path = tmp_path / "g.txt"
        assert main(["gen", "--dim", str(dim), "--n", str(n), "--seed", "2",
                     "--out", str(path)]) == 0
        text = cli._read_input(str(path))
        monkeypatch.setattr(cli, "_parse_lines", None)
        got = np.asarray(parse_constraints(text))
        want = np.asarray((gen2d if dim == 2 else gen3d)(
            GenSpec(n=n, seed=2, dim=dim)))
        assert got.tobytes() == want.tobytes()
        if n <= 100_000:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                old = np.loadtxt(io.StringIO(text), ndmin=2, delimiter=",")
            assert got.tobytes() == old.tobytes()


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
            cli._read_input(str(path))
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
# SHA-256 of _transcript over every answering argv, and over every --help,
# as the four subcommands had them when each had its own function.
ANSWER_SHA256 = (
    "4a208f043d02e60dbef50e596c88fc62d254756627a55eb63b60c9f11be0a418")
HELP_SHA256 = (
    "72d8c18ce49b879716a797a4069fca8dbc7977d52d712da5e95c33acbbafc153")


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
