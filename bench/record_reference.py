"""Record reference outputs of the random requests, for the default and hold-out seeds.

Run from the repository root:

    python3 bench/record_reference.py

It runs the first units of every workload in this process and writes
``bench/reference/<workload>-<seed>.json.gz``.  The benchmark then compares
the outputs of those operations with the recorded ones at 1e-9.  Floats are
stored rounded to 12 decimals, far inside that tolerance.  Re-record only
when a change to ``mechphi`` is meant to change its outputs.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from checks import key_id, reference_path  # noqa: E402
from worker import Runner  # noqa: E402

# Units recorded per workload: more than a 30-second run completes today.
RECORD_UNITS = {"quantum-mix": 9, "classical-4u": 9, "classical-3u-sweep": 6}


def rounded(value):
    if isinstance(value, float):
        return round(value, 12)
    if isinstance(value, list):
        return [rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    return value


class Collect(list):
    def write(self, line: str) -> None:
        self.append(json.loads(line))


def record(workload: str, seed: int) -> Path:
    log = Collect()
    runner = Runner(ROOT, workload, seed, log, inject=None)
    for unit in range(RECORD_UNITS[workload]):
        runner.run_unit(unit, "record", first=False)
    ops = {}
    for rec in log:
        if rec["error"]:
            raise SystemExit(f"{workload} seed {seed} {rec['key']}: {rec['error']}")
        if rec["key"]["kind"] == "catalog":
            continue  # checked against the goldens instead
        out = rec["output"]
        distinctions = out if isinstance(out, list) else json.loads(out)["distinctions"]
        ops[key_id(rec["key"])] = rounded(distinctions)
    path = reference_path(workload, seed)
    path.parent.mkdir(exist_ok=True)
    payload = {"workload": workload, "seed": seed, "ops": ops}
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    return path


def main() -> int:
    for seed in (workloads.DEFAULT_SEED, workloads.HOLDOUT_SEED):
        for workload in workloads.WORKLOADS:
            path = record(workload, seed)
            print(f"{path.relative_to(ROOT)}: {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
