#!/usr/bin/env python3
"""minmaxlp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src.  Each
workload runs as a closed loop, one op at a time in this one process, and
every answer is checked after the timed loop.  --trace 0 prints the
end-to-end metrics; --trace 1 alternates untraced and traced passes and
prints the per-layer metrics.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report, also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import spec  # noqa: E402  (stdlib only; the package is imported in main)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "minmaxlp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "src_sha256_16": src_digest(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "workload": args.workload}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minmaxlp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'minmaxlp'}; "
              "run from the root of a minmaxlp checkout", file=sys.stderr)
        return 2
    nproc = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc

    import measure  # stdlib only: the reference loop runs before the import
    speed = measure.HostSpeed()
    speed.sample(measure.SPEED_WINDOW // 2 + 1)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import minmaxlp
    import runner
    import workloads
    import_wall = time.perf_counter() - t0
    speed.sample(measure.SPEED_WINDOW // 2 + 1)
    import_s = (import_wall, speed.scale(t0, import_wall))
    if Path(minmaxlp.__file__).resolve().parent != (SRC / "minmaxlp").resolve():
        print(f"error: imported minmaxlp from {minmaxlp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            records, checker, metrics, extra = runner.run_traced(
                w, args.seed, args.seconds, workdir,
                OUT / f"spans-{args.workload}.npz")
            table = {k: spec.PER_LAYER[k][0] for k in spec.PER_LAYER}
        else:
            records, checker, metrics, extra = runner.run_untraced(
                w, args.seed, args.seconds, workdir, speed, import_s)
            table = {k: spec.END_TO_END[k][0] for k in spec.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = dict.fromkeys(measure.FAILURE_KINDS, 0)
    for r in records:
        if r.failure is not None:
            failures[r.failure] += 1
    result = {
        "correct": failures["mismatch"] == 0,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in table.items()},
    }
    report = {"meta": metadata(args), "failures": failures, **extra,
              "mismatches": checker.messages,
              "errors": sorted({r.error for r in records if r.error})[:10],
              "result": result}
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1), encoding="utf-8")
    for k, u in table.items():
        print(f"{args.workload:>15} {k:<36} {metrics[k]:>16.6g} {u}")
    print(f"{args.workload:>15} failures {failures} "
          f"fail_frac={extra['fail_frac']:.4f}")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
