#!/usr/bin/env python3
"""End-to-end OLAP benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 olapbench/run.py --workload adhoc --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable table and a JSON provenance record (seed, nproc,
Python version, answer digest, sample counts per regime).  The engine
is imported from ``src/`` next to this directory; without it the
command exits with code 2 and prints no result.  See README.md here
for the workloads and the metric map.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"olapbench: engine sources not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness.runner import main as run_main
    return run_main()


if __name__ == "__main__":
    sys.exit(main())
