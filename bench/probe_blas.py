"""Probe: study_2x2 throughput with OpenBLAS's default thread count vs one thread.

Not a gated metric.  It records the number behind the choice to pin BLAS to
one thread in every workload process::

    python3 bench/probe_blas.py --runs 4 --seconds 8

Runs alternate between the two settings, on the same seeds, and each run is
a fresh study_2x2 process; the output lists ops/s per run and per setting.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

import bench


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=4)
    p.add_argument("--seconds", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    rates: dict[str, list[float]] = {"default": [], "pinned": []}
    for i in range(args.runs):
        order = ("pinned", "default") if i % 2 else ("default", "pinned")
        for setting in order:
            env = bench.worker_env()
            if setting == "default":
                env.pop("OPENBLAS_NUM_THREADS")
            _, r = bench.run_worker("study_2x2", args.seed + i, args.seconds, "run", env)
            rates[setting].append(len(r["latencies"]) / r["wall_s"])
            print(f"run {i} {setting:8s} {rates[setting][-1]:.3f} op/s", flush=True)
    print(json.dumps({
        "nproc": os.cpu_count(),
        "ops_per_s": rates,
        "median_ops_per_s": {k: statistics.median(v) for k, v in rates.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
