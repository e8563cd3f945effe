"""Show that the correctness gate catches planted faults.

Run from the repository root:

    python3 bench/selfcheck.py

For every workload it runs one short benchmark with a phi perturbed by 1e-6
in the first output, and one whose first operation raises.  Each must exit
non-zero and report a failed operation.  The seed is neither the default nor
the hold-out seed, so the classical faults are caught by recomputation rather
than by a recorded reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SEED = 7


def main() -> int:
    bad = 0
    for workload in WORKLOADS:
        for fault in ("phi", "raise"):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--inject", fault],
                cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            caught = proc.returncode != 0 and result["failed"] > 0 and not result["correct"]
            bad += not caught
            print(f"{workload:<20} {fault:<6} exit {proc.returncode}  "
                  f"failed {result['failed']}/{result['attempted']}  "
                  f"{'caught' if caught else 'NOT CAUGHT'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
