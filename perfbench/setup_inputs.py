"""Set-up step of one workload, run as its own process so its start-up is timed.

Usage: python3 perfbench/setup_inputs.py WORKLOAD SEED DIR [--tiny]

Imports modespect, synthesizes the workload's inputs from SEED and writes
them into DIR.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import FULL, TINY, WORKLOADS  # noqa: E402


def main(argv) -> None:
    name, seed, workdir = argv[:3]
    sizes = TINY if argv[3:] == ["--tiny"] else FULL
    WORKLOADS[name](sizes).write_inputs(int(seed), Path(workdir))


if __name__ == "__main__":
    main(sys.argv[1:])
