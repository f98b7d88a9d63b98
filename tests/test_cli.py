import json
import random
import subprocess
import sys

import numpy as np
import pytest

from minmaxlp import (Constraint2, Constraint3, EmptyProblem, MixedArity,
                      ParseError, Problem, Solution2, Solution3, Status,
                      brute3d_box, prune)
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


class TestFormatConstraints:
    @pytest.mark.parametrize("rows", [
        [(0.1, -0.0), (5e-324, 1e308), (1e16, 1e-5), (-1e22, 123.0)],
        [(1.0, 2.0, 3.0), (0.0, -0.0, 2.2250738585072014e-308)]])
    def test_same_text_as_per_value_repr(self, rows):
        want = "\n".join(",".join(repr(float(v)) for v in r)
                         for r in rows) + "\n"
        assert _format_constraints(rows) == want
        assert _format_constraints(Problem(*zip(*rows))) == want


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
        assert csv.read_text().startswith("solver,n,batch")

    def test_bench_unknown_solver(self, capsys):
        code, _, err = self.run(capsys, "bench", "--solver", "simplex",
                                "--sizes", "10", "--batch", "1")
        assert code == 2

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

    def test_console_script_runs(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("1,0\n-1,1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "minmaxlp.cli", "solve2d", str(f)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["x"] == 0.5
