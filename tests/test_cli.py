import json
import subprocess
import sys

import pytest

from minmaxlp import (Constraint2, Constraint3, EmptyProblem, MixedArity,
                      ParseError, Solution2, Solution3, Status, brute3d_box,
                      prune)
from minmaxlp.cli import _apply_mode, emit_solution, main, parse_constraints


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
        # the baseline that --validate runs answers this input exactly too
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
        assert calls == [1]

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
        assert got.shape == (4, 3)
        for g, o in zip(got.tolist(), old):
            assert [v.hex() for v in g] == [v.hex() for v in o]

    def test_validate_sizes(self, tmp_path, capsys):
        # solve3d checks any size, by the edge optima beyond 60 rows; the
        # pruning check of prune3d runs the cubic oracle only up to 60
        big = tmp_path / "big.txt"
        assert main(["gen", "--dim", "3", "--n", "1000", "--seed", "1",
                     "--out", str(big)]) == 0
        code, _, err = self.run(capsys, "solve3d", str(big), "--validate")
        assert code == 0, err
        rows = tmp_path / "rows.txt"
        assert main(["gen", "--dim", "3", "--n", "61", "--seed", "1",
                     "--out", str(rows)]) == 0
        code, _, err = self.run(capsys, "prune3d", str(rows), "--validate")
        assert code == 2 and "at most 60" in err

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
        code, out, _ = self.run(capsys, "oracle", str(f))
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

    def test_console_script_runs(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("1,0\n-1,1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "minmaxlp.cli", "solve2d", str(f)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["x"] == 0.5
