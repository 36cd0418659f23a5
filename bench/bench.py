"""pqdec benchmark: three closed-loop workloads, one client each.

Usage, from the root of a checkout::

    python3 bench/bench.py --workload study_2x2 --seed 1 --seconds 25 --trace 0

Every workload runs in fresh processes started from this script, with BLAS
pinned to one thread and ``PQDEC_THREADS`` unset, because the restart
threads are part of each workload's definition.  With ``--trace 0`` the
script measures set-up in three fresh processes, runs the timed closed loop
in the last of them, checks every output, and prints the end-to-end
metrics.  With ``--trace 1`` it runs a fixed number of units untraced and
then traced in one process, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the metrics that are not gated (failure and
infeasibility ratios with their bases, the accuracy gap, the tail latency)
and the environment.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3              # fresh processes whose set-up time is measured per run
IMPORT_SAMPLES = 3      # `python -X importtime` runs per traced run
WORKER_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("PQDEC_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload: str, seed: int, seconds: float, phase: str,
               env: dict[str, str]) -> tuple[float, dict | None]:
    """Start one workload process; return its set-up time and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--phase", phase,
           "--out", str(OUT)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {phase} process timed out") from None
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"{workload} {phase} process exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Median import time per package from ``python -X importtime``.

    A module's self time counts for numpy or scipy when pqdec's import of
    that package loaded it, and for pqdec otherwise, so each figure is what
    importing pqdec would save without the package.
    """
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "pqdec": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pqdec"],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("import pqdec failed")
        # Lines come children first, indented two spaces per level.
        pending: list[tuple[int, str, int, list]] = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                own_us = int(parts[0].split(":")[1])
            except ValueError:  # the header line
                continue
            name = parts[2].strip()
            depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
            children = []
            while pending and pending[-1][0] > depth:
                children.append(pending.pop())
            pending.append((depth, name, own_us, children))
        totals = dict.fromkeys(samples, 0)
        todo = [(node, None) for node in pending]
        while todo:
            (_, name, own_us, children), owner = todo.pop()
            root = name.split(".")[0]
            if owner is None and root == "pqdec" or owner == "pqdec" and root in totals:
                owner = root
            if owner is not None:
                totals[owner] += own_us
            todo.extend((child, owner) for child in children)
        for root, us in totals.items():
            samples[root].append(us / 1e6)
    return {f"import.{root}_s": statistics.median(v) for root, v in samples.items()}


def tail(latencies: list[float]) -> dict | None:
    """The highest listed percentile with at least ten ops beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (1 - p / 100))
        if beyond >= 10:
            return {"value": ordered[n - beyond - 1], "unit": "s", "percentile": p,
                    "ops_beyond": beyond, "ops": n}
    return None


def ratio(part: int, whole: int) -> dict:
    return {"value": part / whole if whole else None, "unit": "ratio",
            "base": f"{part}/{whole}"}


def untraced(workload: str, seed: int, seconds: int, env: dict[str, str]):
    setups = [run_worker(workload, seed, seconds, "setup", env)[0] for _ in range(SETUPS - 1)]
    ready_s, r = run_worker(workload, seed, seconds, "run", env)
    setups.append(ready_s)
    n = len(r["latencies"])
    if n == 0:
        raise BenchError("no op completed")
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": n / r["wall_s"], "unit": "op/s"},
        "op_p50_s": {"value": statistics.median(r["latencies"]), "unit": "s"},
        "cpu_per_op_s": {"value": r["cpu_s"] / n, "unit": "s"},
        "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
    }
    report = {
        "fail_ratio": ratio(r["failed"], r["attempted"]),
        "infeasible_ratio": ratio(r["infeasible"], r["solves"]),
        "gap_bits": {"value": statistics.fmean(r["gaps"]) if r["gaps"] else None,
                     "unit": "bits", "solves": len(r["gaps"])},
        "op_tail_s": tail(r["latencies"]),
        "ops": n,
        "timed_s": r["wall_s"],
        "setup_samples_s": setups,
    }
    return r, metrics, report


def traced(workload: str, seed: int, env: dict[str, str]):
    imports = import_times(env)
    _, r = run_worker(workload, seed, 0, "trace", env)
    units = {"us_per_call": "us", "useful_ratio": "ratio"}
    metrics = {}
    for name, value in {**imports, **r["layers"]}.items():
        suffix = name.rsplit(".", 1)[1]
        unit = units.get(suffix, "s" if suffix.endswith("_s") else "count")
        metrics[name] = {"value": value, "unit": unit}
    report = {
        "fail_ratio": ratio(r["failed"], r["attempted"]),
        "absent_layers": r["absent"],
        "accounting": (
            "trace.wall_s = sum of layer self_s + trace.op_self_s "
            "+ trace.unattributed_s - trace.parallel_s"
        ),
    }
    return r, metrics, report


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "pqdec" / "__init__.py").is_file():
        print(f"bench: no pqdec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().strip()
    env = worker_env()
    try:
        if args.trace:
            r, metrics, report = traced(args.workload, args.seed, env)
        else:
            r, metrics, report = untraced(args.workload, args.seed, args.seconds, env)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report["environment"] = {
        **r["environment"],
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "caller_OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caller_PQDEC_THREADS": os.environ.get("PQDEC_THREADS"),
    }
    report["problems"] = r["problems"]
    report["workload"], report["seed"], report["trace"] = args.workload, args.seed, args.trace
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
