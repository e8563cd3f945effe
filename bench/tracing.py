"""Spans and counters recorded around the public functions of each layer.

Tracing lives entirely in the benchmark: ``instrument`` replaces module
attributes of ``mechphi`` with timing wrappers.  Calls inside a module look
its globals up at call time, so wrapping ``classical.phi`` also catches the
calls from ``classical.mip``.  Names imported by name are wrapped where they
are looked up (``enumerate_disintegrating`` in ``classical`` and ``quantum``,
the ``tensor`` functions bound in ``quantum``), and ``DensityMatrix.__init__``
is wrapped on the class itself.

A span holds its name, start, end, parent span and operation id.  Spans are
kept in flat arrays and written out once, by ``Tracer.write``.  A layer's
self time is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import weakref
from array import array
from time import perf_counter

import numpy as np

# Metric prefix -> (module name, attribute) pairs wrapped under that prefix.
LAYERS = {
    "report.parse_request": [("report", "parse_request")],
    "report.run": [("report", "run")],
    "report.render": [("report", "render")],
    "classical.system_build": [("classical.ClassicalSystem", "__init__")],
    "classical.phi_max": [("classical", "phi_max")],
    "classical.mip": [("classical", "mip")],
    "classical.phi": [("classical", "phi")],
    "classical.partitioned_repertoire": [("classical", "partitioned_repertoire")],
    "classical.repertoire": [
        ("classical", "effect_repertoire"),
        ("classical", "cause_repertoire"),
        ("classical", "unconstrained_effect"),
        ("classical", "unconstrained_cause"),
    ],
    "partitions.enumerate": [
        ("partitions", "enumerate_disintegrating"),
        ("classical", "enumerate_disintegrating"),
        ("quantum", "enumerate_disintegrating"),
    ],
    "quantum.mip": [("quantum", "mip")],
    "quantum.phi": [("quantum", "phi")],
    "quantum.partitioned_repertoire": [("quantum", "partitioned_repertoire")],
    "quantum.repertoire": [
        ("quantum", "effect_repertoire"),
        ("quantum", "cause_repertoire"),
    ],
    "quantum.entanglement_partition": [("quantum", "entanglement_partition")],
    "tensor.density_matrix": [("tensor.DensityMatrix", "__init__")],
    "tensor.hermitian_eig": [("tensor", "hermitian_eig"), ("quantum", "hermitian_eig")],
    "tensor.partial_trace": [("tensor", "partial_trace"), ("quantum", "partial_trace")],
    "tensor.partial_transpose": [
        ("tensor", "partial_transpose"), ("quantum", "partial_transpose"),
    ],
}

OP_SPAN = "op"


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, int] = {}
        self.shapes: set[tuple[int, int]] = set()
        self.op_id = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self._seen: dict[str, weakref.WeakKeyDictionary] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` recording one span named ``name`` per call."""
        nid = self._name_id(name)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(self.op_id)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                s_start[idx] = t0
                s_end[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count(self, counter: str, n: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def _memo_counter(self, prefix: str):
        """Count memo hits: a call returning an object already returned for that system.

        Returned objects are kept alive per system, so an id is never reused
        by a different object while its system lives.
        """
        seen = self._seen.setdefault(prefix, weakref.WeakKeyDictionary())

        def on_result(args, result):
            if result is None:
                self.count(f"{prefix}.none_returns")
                return
            objs = seen.setdefault(args[0], {})
            if id(result) in objs:
                self.count(f"{prefix}.hits")
            else:
                objs[id(result)] = result

        return on_result

    def _enumerate_counter(self, args, result):
        self.count("partitions.enumerate.returned", len(result))
        self.shapes.add((len(tuple(args[0])), len(tuple(args[1]))))

    def _useful_counter(self, args, result):
        if result is not None:
            self.count("classical.phi_max.useful")

    def instrument(self, mechphi) -> None:
        """Wrap every layer function of an imported ``mechphi`` package."""
        hooks = {
            "classical.repertoire": self._memo_counter("classical.repertoire"),
            "quantum.repertoire": self._memo_counter("quantum.repertoire"),
            "partitions.enumerate": self._enumerate_counter,
            "classical.phi_max": self._useful_counter,
        }
        for prefix, targets in LAYERS.items():
            wrapped: dict[int, object] = {}
            for path, attr in targets:
                owner = mechphi
                for part in path.split("."):
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                # One wrapper per function, shared by every name bound to it.
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(prefix, fn, hooks.get(prefix))
                setattr(owner, attr, wrapped[id(fn)])

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self times and ratios; every layer appears, even at 0."""
        out: dict[str, float] = {}
        for prefix in LAYERS:
            nid = self._ids.get(prefix)
            out[f"{prefix}.calls"] = self.calls[nid] if nid is not None else 0
            out[f"{prefix}.self_s"] = self.self_s[nid] if nid is not None else 0.0
        c = self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        for prefix in ("classical.repertoire", "quantum.repertoire"):
            out[f"{prefix}.hit_ratio"] = ratio(c.get(f"{prefix}.hits", 0),
                                               out[f"{prefix}.calls"])
            out[f"{prefix}.none_returns"] = c.get(f"{prefix}.none_returns", 0)
        out["classical.phi_max.useful_ratio"] = ratio(
            c.get("classical.phi_max.useful", 0), out["classical.phi_max.calls"])
        out["partitions.enumerate.returned"] = c.get("partitions.enumerate.returned", 0)
        out["partitions.enumerate.distinct_shape_ratio"] = ratio(
            len(self.shapes), out["partitions.enumerate.calls"])
        out["trace.spans"] = len(self.span_name)
        return out

    def write(self, path) -> None:
        """Write every span (name, start, end, parent, operation id) to ``path``."""
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names),
                name=np.frombuffer(self.span_name, dtype=np.int32),
                start=np.frombuffer(self.span_start, dtype=np.float64),
                end=np.frombuffer(self.span_end, dtype=np.float64),
                parent=np.frombuffer(self.span_parent, dtype=np.int32),
                op=np.frombuffer(self.span_op, dtype=np.int32),
            )
