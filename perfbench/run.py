"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload train-tokens --seed 1 --seconds 30 --trace 0

The program under test is the ``repro`` package in ``src/``; this
script needs nothing else.  The last line of its output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``).  It exits
1 when an output check fails, 2 when ``src/repro`` or ``BENCHMARK.json``
is missing or disagrees with the benchmark, 3 when a traced layer is
missing or recorded no call.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print("BENCHMARK.json is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from ldabench.cli import main as cli_main

    return cli_main(ROOT)


if __name__ == "__main__":
    sys.exit(main())
