"""One benchmark process: set-up, then a closed loop of operations.

Started by ``bench/run.py`` in a fresh, single-threaded process; not meant
to be run by hand.  Nothing but the standard library is imported before the
set-up clock starts, so ``setup_s`` covers importing numpy and ``mechphi``
plus one warm-up request.

Modes:

- ``setup``: measure set-up only.
- ``timed``: set-up, then as many whole units of the workload as come
  closest to ``--seconds``; one caller, each operation starts after the
  previous one ends.
- ``trace``: set-up, then the first unit of the workload untraced and again
  traced, giving the per-layer metrics and the tracing overhead.
- ``trace-repeat``: set-up, then the same traced pass only, so the parent
  can check that the call counts repeat exactly.

Each operation's output goes to ``<out>.ops.jsonl`` as it completes and the
summary to ``<out>.result.json``; the parent checks both after this exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path


def distinction_dict(d) -> dict:
    """A classical distinction in the report's JSON shape."""
    return {
        "mechanism_units": list(d.mechanism_units),
        "mechanism_state": list(d.mechanism_state),
        "direction": d.direction,
        "purview": list(d.purview),
        "intrinsic_state": {"kind": "state",
                            "vectors": [list(s) for s in d.intrinsic_states]},
        "phi": "inf" if d.phi == float("inf") else float(d.phi),
        "mip": {
            "parts": [{"mechanism": list(m), "purview": list(z)} for m, z in d.mip.parts],
            "normalization": d.normalization,
        },
        "ties": [{"type": "purview", "units": list(z)} for z in d.tied_purviews],
    }


class Runner:
    """Runs operations of one workload against an imported ``mechphi``."""

    def __init__(self, root: Path, workload: str, seed: int, log, inject: str | None):
        import mechphi.report
        import workloads

        self.mechphi = mechphi
        self.wl = workloads
        self.root = root
        self.workload = workload
        self.seed = seed
        self.log = log
        self.inject = inject
        self.tracer = None
        self._catalog: dict[str, str] = {}

    def _doc(self, key: dict) -> dict:
        if key["kind"] == "catalog":
            name = key["name"]
            if name not in self._catalog:
                self._catalog[name] = json.dumps(self.wl.catalog_doc(self.root, name))
            return json.loads(self._catalog[name])
        return self.wl.request_doc(self.root, self.seed, key)

    def _timed(self, fn):
        """(seconds, result, error text, warnings caught) of one call."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result, error = fn(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        return elapsed, result, error, len(caught)

    def _injected(self, key: dict, doc_or_state):
        """Apply the requested fault to the first operation of a run."""
        if self.inject != "raise":
            return doc_or_state
        if key["kind"] == "sweep":
            return [99] * len(doc_or_state)  # an out-of-range state
        return {**doc_or_state, "backend": "none"}  # an invalid request

    def _perturbed(self, output):
        """The output with its first finite phi moved by 1e-6."""
        report = None if isinstance(output, list) else json.loads(output)
        for d in output if report is None else report["distinctions"]:
            if d["phi"] != "inf":
                d["phi"] += 1e-6
                break
        return output if report is None else json.dumps(report, indent=2) + "\n"

    def run_unit(self, unit: int, pass_name: str, first: bool) -> tuple[int, float]:
        """Run every operation of one unit; returns (operations, seconds inside them)."""
        report = self.mechphi.report
        keys = self.wl.unit_ops(self.workload, self.seed, unit)
        n, busy = 0, 0.0
        system, net = None, None
        for key in keys:
            inject = first and n == 0
            if key["kind"] == "sweep":
                if key["net"] != net:
                    net = key["net"]
                    system = report.parse_request(
                        self.wl.sweep_network_doc(self.seed, net)).system
                state = self._injected(key, key["state"]) if inject else key["state"]

                def op(system=system, state=state):
                    return self.mechphi.classical.unfold(system, state_t=state, state_t1=state)
            else:
                doc = self._doc(key)
                doc = self._injected(key, doc) if inject else doc

                def op(doc=doc):
                    return report.render(report.run(report.parse_request(doc)), "json")

            if self.tracer is not None:
                self.tracer.op_id += 1
                op = self.tracer.wrap("op", op)
            elapsed, out, error, caught = self._timed(op)
            if out is not None and key["kind"] == "sweep":
                out = [distinction_dict(d) for d in out]
            if out is not None and inject and self.inject == "phi":
                out = self._perturbed(out)
            self.log.write(json.dumps({
                "pass": pass_name, "key": key, "seconds": elapsed, "output": out,
                "error": error, "warnings": caught,
            }) + "\n")
            n += 1
            busy += elapsed
        return n, busy


def measure_setup(root: Path, warmup: str):
    """Seconds from importing mechphi to the end of one warm-up request."""
    doc = json.loads((root / "tests" / "golden" / f"{warmup}.json").read_text())["request"]
    t0 = time.perf_counter()
    import mechphi
    from mechphi import report

    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        rendered = report.render(report.run(report.parse_request(doc)), "json")
    setup_s = time.perf_counter() - t0
    src = (root / "src").resolve()
    if Path(mechphi.__file__).resolve().parent.parent != src:
        raise SystemExit(f"mechphi was imported from {mechphi.__file__}, not from {src}")
    return setup_s, rendered


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "trace", "trace-repeat"),
                    required=True)
    ap.add_argument("--warmup", required=True)
    ap.add_argument("--inject", choices=("phi", "raise"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(args.root / "src"))

    setup_s, warm_output = measure_setup(args.root, args.warmup)
    result = {"setup_s": setup_s, "warmup_output": warm_output}
    if args.mode != "setup":
        with open(f"{args.out}.ops.jsonl", "w", encoding="utf-8") as log:
            runner = Runner(args.root, args.workload, args.seed, log, args.inject)
            result.update(run_mode(runner, args))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = environment()
    Path(f"{args.out}.result.json").write_text(json.dumps(result))
    return 0


def run_mode(runner: Runner, args) -> dict:
    if args.mode == "timed":
        # Whole units only: stop once one more unit would end further past
        # --seconds than stopping now falls short of it.
        ops, busy, unit = 0, 0.0, 0
        start = time.perf_counter()
        while unit == 0 or (time.perf_counter() - start) * (1 + 0.5 / unit) < args.seconds:
            n, b = runner.run_unit(unit, "timed", first=unit == 0)
            ops, busy, unit = ops + n, busy + b, unit + 1
        return {"ops": ops, "busy_s": busy, "units": unit,
                "wall_s": time.perf_counter() - start}

    import tracing

    out = {}
    if args.mode == "trace":
        out["untraced_s"] = runner.run_unit(0, "untraced", first=True)[1]
    runner.tracer = tracing.Tracer()
    runner.tracer.instrument(runner.mechphi)
    ops, traced = runner.run_unit(0, "traced", first=True)
    out.update({"ops": ops, "traced_s": traced, "layers": runner.tracer.layer_metrics()})
    if args.mode == "trace":
        runner.tracer.write(f"{args.out}.spans.npz")
    return out

if __name__ == "__main__":
    raise SystemExit(main())
