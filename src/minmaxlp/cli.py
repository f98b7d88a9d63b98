"""Command-line frontend.

Constraint files hold one constraint per line: two fields (a, b) for the
one-variable problem, three (a, b, c) for the boxed two-variable problem.
``reader`` reads every input, and its docstring gives the grammar.  Floats
are printed as repr prints them, in the shortest form that reads back as
the same double, so emitted corpora re-parse to bit-identical values;
gen's writer (the shortest module) forms those digits with numpy and
leaves to repr only the fields it cannot decide.  ``gen`` writes its rows
in blocks as it formats them, so it holds one block of text at a time,
never the whole file.

The answering subcommands, solve2d, solve3d, prune3d and oracle, share one
path: read the input, check its field count (2 for solve2d, 3 for solve3d
and prune3d, either for oracle), apply --mode, answer, certify the answer
on --validate (for prune3d, the kept rows' optimum) and print it.

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
from dataclasses import asdict, astuple, fields
from functools import cache
from pathlib import Path

from . import bench as bench_mod
# Unused here, but perfbench/spans.py traces cli.solve_baseline by
# rebinding it, so the name stays a module attribute.
from .baseline import solve_baseline  # noqa: F401
from .errors import ContractViolation, ParseError
from .instances import GenSpec, gen2d, gen3d
from .model import (Problem, Solution2, Solution3, Status, check2d, check3d,
                    columns, objective, signed_pairs)
from .oracle import brute2d, brute3d_box
from .prune3d import PruneReport, prune, solve3d
from .reader import parse_constraints
from .solver2d import expand_absolute, solve

__all__ = ["parse_constraints", "emit_solution", "main"]


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
