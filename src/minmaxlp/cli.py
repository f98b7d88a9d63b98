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
line.  ``gen`` writes its rows in blocks as it formats them, so it holds one
block of text at a time, never the whole file.

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
import sys
import warnings
from dataclasses import asdict, astuple, fields
from functools import cache
from itertools import chain
from pathlib import Path

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


def parse_constraints(text: str) -> Problem:
    """Parse constraint text; arity (2 or 3 fields) picks the problem type.

    Text of plain ASCII numbers in a uniform layout is read in one
    vectorised pass; any other text, and any text that pass rejects, is
    read line by line, which names the first bad line.  Both read every
    field as ``float(field)`` does, once one leading U+FEFF is dropped.
    The vectorised pass holds a few MB of scratch whatever the size of the
    text: loadtxt reads the lines of a ``StringIO``, which holds 4 bytes a
    character, made of the text or, above _PARSE_BLOCK characters, of one
    block of it at a time.
    """
    text = text.removeprefix("\ufeff")
    # loadtxt splits lines only at \n and \r\n and would take '#' as a
    # comment anywhere on a line, where the line scan splits at every line
    # break str.splitlines knows and takes only whole-line comments.
    if (text and text.isascii() and not text.isspace()
            and not any(c in text for c in "\v\f\x1c\x1d\x1e")
            and not _comments_need_line_scan(text)):
        try:
            with warnings.catch_warnings():
                # comment lines alone are no data; the line scan says so
                warnings.simplefilter("ignore", UserWarning)
                lines = (io.StringIO(text) if len(text) <= _PARSE_BLOCK else
                         chain.from_iterable(map(io.StringIO, _blocks(text))))
                rows = np.loadtxt(lines, ndmin=2,
                                  delimiter="," if "," in text else None)
            if rows.shape[0] and rows.shape[1] in (2, 3):
                return Problem(*rows.T)
        except ValueError:  # NonFiniteInput among them
            pass
    return _parse_lines(text)


# Characters of text in one StringIO of the vectorised parse.  Below it the
# whole text goes into one: on a 2-CPU x86-64 host with numpy 2.4, a chain
# of one block read 1-2% slower at 1e3 and 3162 rows (interleaved calls,
# faster in at most 7 of 40 rounds).  Above it the blocks hold a few MB at
# most, where the whole text's StringIO would hold 4 times it.
_PARSE_BLOCK = 1 << 18


def _blocks(text: str):
    """``text`` in slices of at least _PARSE_BLOCK characters, each ending
    just after a '\\n' but the last, which ends the text."""
    i = 0
    while i < len(text):
        j = text.find("\n", i + _PARSE_BLOCK) + 1 or len(text)
        yield text[i:j]
        i = j


def _comments_need_line_scan(text: str) -> bool:
    """True when a '#' does not open a whole-line comment that loadtxt
    reads as the line scan does: some non-blank character precedes it on
    its line, or a lone '\\r' (a line break only to the line scan)
    follows it there."""
    i = text.find("#")
    while i >= 0:
        end = text.find("\n", i)
        end = len(text) if end < 0 else end
        if (text[text.rfind("\n", 0, i) + 1:i].strip()
                or "\r" in text[i:end].rstrip("\r")):
            return True
        i = text.find("#", end)
    return False


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
    return Problem(*np.array(rows).T)


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


def _read_input(path: str) -> str:
    """The text of the file ``path``, or of stdin for '-', decoded as UTF-8.
    Bytes that do not decode raise ParseError naming their line, numbered
    as the line scan numbers lines."""
    if path == "-":
        if not hasattr(sys.stdin, "buffer"):  # a text stream only
            return sys.stdin.read()
        data = sys.stdin.buffer.read()
    else:
        data = Path(path).read_bytes()
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
    here, at the call, so rebinding a module attribute reaches it."""
    cs = parse_constraints(_read_input(args.input))
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
            ("solve3d", "randomized incremental LP over the unit box, "
                        "expected linear time",
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
                           help="abs treats rows as |.| residuals and "
                                "expands them into constraint pairs")
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
