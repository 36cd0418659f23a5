"""One workload process of the benchmark; started by ``bench.py``.

Phases:

* ``setup``: import, generate the inputs, run one untimed warm-up op, print
  ``READY`` and exit.  The parent times process start to ``READY``.
* ``run``: set up as above, then run units until ``--seconds`` have passed,
  check every op's output outside the timing, and print one JSON result.
* ``trace``: set up, run a fixed number of units untraced and then the same
  units traced, check that both give identical results, and print the
  per-layer metrics.  The unit count is fixed, not timed, so that the count
  metrics repeat exactly between runs with one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads


def _cpu_s() -> float:
    """CPU time of this process, all its threads and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _loop(w, deadline_s: float | None, units: int | None):
    """Run units until the deadline passes or the unit count is reached."""
    ops = []
    t0 = time.perf_counter()
    k = 0
    while True:
        if units is not None and k >= units:
            break
        if deadline_s is not None and time.perf_counter() - t0 >= deadline_s:
            break
        ops.extend(w.unit(k))
        k += 1
    return ops, time.perf_counter() - t0


def _check_all(w, ops) -> None:
    for op in ops:
        try:
            w.check(op)
        except Exception as exc:  # a check that cannot run fails its op
            op["problems"].append(f"check raised {exc!r}")


def _outcomes(w, ops) -> dict:
    solves = [s for op in ops for s in w.solves(op)]
    failed = [op for op in ops if op["problems"]]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "problems": [p for op in failed[:5] for p in op["problems"]],
        "solves": len(solves),
        "infeasible": sum(1 for _, feasible in solves if not feasible),
        "gaps": [g for g, _ in solves],
    }


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PQDEC_THREADS": os.environ.get("PQDEC_THREADS"),
    }


def run(w, seconds: float, rss_of_children: bool) -> dict:
    cpu0 = _cpu_s()
    ops, wall = _loop(w, seconds, None)
    cpu = _cpu_s() - cpu0
    who = resource.RUSAGE_CHILDREN if rss_of_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    _check_all(w, ops)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "latencies": [op["latency"] for op in ops],
        **_outcomes(w, ops),
    }


def trace(w, spans_path: Path) -> dict:
    from tracer import OP, Tracer

    untraced, untraced_wall = _loop(w, None, w.trace_units)
    tracer = Tracer()
    ops = []
    t0 = time.perf_counter()
    with tracer:
        for k in range(w.trace_units):
            with tracer.span(OP):
                ops.extend(w.unit(k))
    traced_wall = time.perf_counter() - t0
    tracer.write(spans_path)
    _check_all(w, untraced)
    _check_all(w, ops)
    for a, b in zip(untraced, ops):
        if w.fingerprint(a) != w.fingerprint(b):
            b["problems"].append("traced and untraced runs differ")
    out = _outcomes(w, untraced + ops)
    out["layers"] = tracer.metrics(traced_wall, untraced_wall)
    out["absent"] = tracer.absent
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--phase", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--out", type=Path, required=True, help="directory for run files")
    args = p.parse_args()

    w = workloads.make(args.workload, args.seed, args.out / f"work-{os.getpid()}",
                       inprocess=args.phase == "trace")
    try:
        w.setup()
        print("READY", flush=True)
        if args.phase == "setup":
            return 0
        if args.phase == "run":
            result = run(w, args.seconds, rss_of_children=args.workload == "cli_session")
        else:
            args.out.mkdir(parents=True, exist_ok=True)
            result = trace(w, args.out / f"spans-{args.workload}.npz")
    finally:
        if hasattr(w, "workdir"):
            workloads.clean(w.workdir)
    result["environment"] = _environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
