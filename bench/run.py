"""mechphi benchmark: one workload, end to end or traced layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload classical-4u [--seed N] [--seconds S] [--trace 0|1]

Workloads are ``quantum-mix``, ``classical-4u`` and ``classical-3u-sweep``
(see ``bench/workloads.py``).  Each runs in its own fresh process with
OMP/OpenBLAS/MKL held to one thread, as a closed loop with one caller.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over nine
fresh processes), ``request_s.p50``, ``requests_per_s`` and ``peak_rss_mb``.
``request_s.p90`` and ``failed_ratio`` are printed above the result line;
``failed_ratio`` is ``failed / attempted`` of that line.

``--trace 1`` runs the first unit of the workload untraced and then traced
in one process, and traced again in a second process, and prints the
per-layer metrics.  The call counts of the two traced processes must agree exactly.

Every output is checked (``bench/checks.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every output was
correct.  A failing input is written to ``bench/out/failed/`` as a request
document that ``mechphi analyze`` replays.  ``--inject phi|raise`` plants a
fault in the first operation, to show that the gate catches it
(``bench/selfcheck.py``).
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

import workloads
from checks import Checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 9
P90_MIN_OPS = 100
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Counts that two traced runs of one seed must reproduce exactly.
EXACT_EXTRA = ("partitions.enumerate.returned", "quantum.fallback_warnings")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def check_layout() -> None:
    """The benchmark measures the mechphi sources of this checkout, and nothing else."""
    needed = [ROOT / "src" / "mechphi" / "__init__.py", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError(f"not a mechphi checkout: missing {', '.join(missing)}")


class Run:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        # Files are named per workload and mode only, so repeated runs reuse them.
        self.tag = f"{args.workload}-trace{args.trace}"
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})

    def worker(self, mode: str, name: str) -> dict:
        """Run one worker process to completion and return its result."""
        out = OUT / f"{self.tag}.{name}"
        cmd = [
            sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--mode", mode, "--out", str(out),
            "--warmup", workloads.WARMUP[self.args.workload],
        ]
        if self.args.inject:
            cmd += ["--inject", self.args.inject]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=remaining,
                                  stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        result = json.loads(Path(f"{out}.result.json").read_text())
        if mode != "setup":
            with open(f"{out}.ops.jsonl", encoding="utf-8") as fh:
                result["records"] = [json.loads(line) for line in fh]
        return result


class Gate:
    """Checks outputs and counts failures; dumps failing inputs for replay."""

    def __init__(self, run: Run):
        self.run = run
        self.checker = Checker(ROOT, run.args.workload, run.args.seed)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, what: str, key: dict | None) -> None:
        self.failed += 1
        line = f"FAILED {what}"
        if key is not None:
            path = OUT / "failed" / f"{self.run.tag}-{self.run.args.seed}-{self.failed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(workloads.request_doc(ROOT, self.run.args.seed, key)))
            line += (f"\n  input: {path.relative_to(ROOT)}  (replay: PYTHONPATH=src "
                     f"python3 -m mechphi.cli analyze {path.relative_to(ROOT)} --format json)")
        self.messages.append(line)

    def warmup(self, result: dict) -> None:
        name = workloads.WARMUP[self.run.args.workload]
        err = self.checker.check_catalog(name, result["warmup_output"])
        if err:
            self.fail(f"warm-up {name}: {err}", {"kind": "catalog", "name": name})

    def records(self, records: list[dict], pass_name: str) -> list[dict]:
        """Check one pass; returns its records whose outputs are correct."""
        ok = []
        for rec in records:
            if rec["pass"] != pass_name:
                continue
            self.attempted += 1
            key = rec["key"]
            err = rec["error"] or self.checker.check(key, rec["output"])
            if err:
                self.fail(f"{pass_name} {json.dumps(key)}: {err}", key)
            else:
                ok.append(rec)
        return ok


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def end_to_end(run: Run, gate: Gate) -> dict:
    setups = [run.worker("setup", f"setup{i}") for i in range(SETUP_SAMPLES - 1)]
    timed = run.worker("timed", "timed")
    for result in setups + [timed]:
        gate.warmup(result)
    ok = gate.records(timed["records"], "timed")
    times = [rec["seconds"] for rec in ok]
    setup_s = statistics.median(r["setup_s"] for r in setups + [timed])
    metrics = {"setup_s": metric(setup_s, "s")}
    lines = [f"setup_s         {setup_s:.4f} s    median of {SETUP_SAMPLES} fresh processes"]
    if times:
        p50 = statistics.median(times)
        rate = len(ok) / timed["busy_s"]
        metrics["request_s.p50"] = metric(p50, "s")
        metrics["requests_per_s"] = metric(rate, "1/s")
        lines.append(f"request_s.p50   {p50:.4f} s    n={len(times)}")
        if len(times) >= P90_MIN_OPS:
            p90 = statistics.quantiles(times, n=10)[-1]
            lines.append(f"request_s.p90   {p90:.4f} s    n={len(times)}")
        else:
            lines.append(f"request_s.p90   omitted: n={len(times)} < {P90_MIN_OPS} operations")
        lines.append(f"requests_per_s  {rate:.4f} 1/s  {len(ok)} ops in {timed['busy_s']:.2f} s "
                     f"({timed['units']} units, {timed['wall_s']:.2f} s wall)")
    else:
        lines.append("request_s.p50, requests_per_s: omitted, no operation succeeded")
    metrics["peak_rss_mb"] = metric(timed["peak_rss_mb"], "MB")
    lines += [
        f"peak_rss_mb     {timed['peak_rss_mb']:.1f} MB",
        f"failed_ratio    {gate.failed / max(gate.attempted, 1):.4f}  "
        f"({gate.failed} of {gate.attempted})",
        "fallback warnings: " + str(sum(r["warnings"] for r in timed["records"])),
    ]
    return {"environment": timed["environment"], "lines": lines, "metrics": metrics}


def exact_counts(result: dict) -> dict:
    layers = result["layers"]
    return {k: v for k, v in layers.items() if k.endswith(".calls") or k in EXACT_EXTRA}


def traced(run: Run, gate: Gate) -> dict:
    first = run.worker("trace", "trace")
    second = run.worker("trace-repeat", "repeat")
    for result in (first, second):
        gate.warmup(result)
        result["layers"]["quantum.fallback_warnings"] = sum(
            r["warnings"] for r in result["records"] if r["pass"] == "traced")
        gate.records(result["records"], "traced")
    gate.records(first["records"], "untraced")
    lines = []
    a, b = exact_counts(first), exact_counts(second)
    differ = sorted(k for k in a if a[k] != b.get(k))
    if differ:
        gate.fail("call counts differ between two traced runs: " + ", ".join(
            f"{k} {a[k]} vs {b.get(k)}" for k in differ), None)
    else:
        lines.append(f"exact counts: {len(a)} counts repeat in a second traced process")
    layers = dict(first["layers"])
    layers["trace.overhead_ratio"] = first["traced_s"] / first["untraced_s"]
    layers["trace.ops"] = first["ops"]
    total = first["traced_s"]
    lines.append(f"traced pass: {first['ops']} operations, {total:.3f} s traced, "
                 f"{first['untraced_s']:.3f} s untraced")
    for name, value in layers.items():
        share = f"  {100 * value / total:5.1f}% of traced time" if name.endswith(".self_s") else ""
        lines.append(f"{name:<42} {value:>14.6g} {layer_unit(name)}{share}")
    lines.append(f"spans: {(OUT / f'{run.tag}.trace.spans.npz').relative_to(ROOT)}")
    return {
        "environment": first["environment"],
        "lines": lines,
        "metrics": {k: metric(v, layer_unit(k)) for k, v in layers.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("phi", "raise"),
                    help="plant a fault in the first operation (gate self-check)")
    args = ap.parse_args()
    try:
        check_layout()
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        if args.seed is None:
            args.seed = workloads.DEFAULT_SEED
        OUT.mkdir(exist_ok=True)
        run = Run(args)
        gate = Gate(run)
        summary = (traced if args.trace else end_to_end)(run, gate)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    env = summary["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    print(f"checked: {gate.attempted} operations, {gate.checker.reference_checked} "
          f"against recorded references")
    for line in summary["lines"] + gate.messages:
        print(line)
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": summary["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
