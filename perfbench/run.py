"""perfbench: the repository's benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload querylog-dp --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``querylog-dp``   — paper Section 7: median-centre DP (SMAWK) + random
  forest on a query log; string-key ingest; cold batch point queries.
* ``synthetic-bcd`` — paper Section 6: BCD with a live similarity term +
  CART; int-key ingest; cold batch point queries.
* ``zipf-service``  — ``python -m repro.service`` with a 2-shard shm
  count-min and a WAL, driven over its socket by one writer and one
  open-loop reader.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split.  The last stdout line is the JSON result; the line before it holds
diagnostics (host fingerprint, reference-DP probe, exact-count fence).
``--scale tiny`` shrinks every input for the self-test.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("querylog-dp", "synthetic-bcd", "zipf-service")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    try:
        harness.prepare_environment()
    except harness.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.workload == "zipf-service":
        import service_workload

        outcome = service_workload.run_workload(args.seed, args.seconds, bool(args.trace), args.scale)
    else:
        import inproc

        outcome = inproc.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    harness.emit(**outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
