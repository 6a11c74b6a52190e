#!/usr/bin/env python3
"""End-to-end benchmark of the qubit-mapping stack.

Usage, from the repository root::

    python3 e2ebench/run.py --workload qlosure-cold --seed 1 --seconds 15 --trace 0

Workloads: ``qlosure-cold`` and ``baselines-cold`` call
``repro.api.compile`` in a closed loop with the cache off; ``serve-mixed``
drives a ``repro-map serve`` subprocess over loopback HTTP.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run (see WORKLOADS.md).

Every routed output is checked by ``checker.py``; a request that raises, is
answered with a non-200 status or returns a wrong output counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record --
host, configuration, one row per distinct request -- is written under
``e2ebench/.work/records/``; traces go to ``e2ebench/.work/traces/``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("qlosure-cold", "baselines-cold", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import harness

    return harness.run(args, time.perf_counter() - start)


if __name__ == "__main__":
    sys.exit(main())
