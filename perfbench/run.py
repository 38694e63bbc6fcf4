"""modespect benchmark: run workloads from a seed, check them, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload glide-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer ones with ``--trace 1``.  The line before it
records the environment, the sample count of each metric and the checks;
stderr gets a readable table.  OpenBLAS runs with ``--blas-threads``
threads, 1 unless given.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("glide-sweep", "saturated-batch", "cli-pipeline")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check sizes")
    parser.add_argument("--blas-threads", type=int, default=1, help="BLAS threads per process")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own child process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--blas-threads", str(args.blas_threads)]
        out = subprocess.run(argv + (["--tiny"] if args.tiny else []),
                             stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "modespect").is_dir():
        print(f"perfbench: no modespect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread by default, set before numpy loads and inherited by
    # every child.  On a small shared box, BLAS threads that meet at a barrier
    # in every call turn each moment a core is taken away into a stall of the
    # whole call.
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, str(args.blas_threads)))
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from harness import format_table, run_workload
    from workloads import FULL, TINY

    result, info = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), TINY if args.tiny else FULL
    )
    print(format_table(result, info), file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
