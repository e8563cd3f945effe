"""Every function the benchmark's tracer wraps exists on ``mechphi``.

``bench/tracing.py`` replaces the attributes its ``LAYERS`` table names; a
renamed or removed one would fail only the traced benchmark runs.  Here each
name is looked up, with nothing wrapped.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import mechphi
import mechphi.report  # noqa: F401  the tracer wraps ``report`` functions too

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for prefix, targets in tracing.LAYERS.items():
        for path, attr in targets:
            owner = mechphi
            for part in path.split("."):
                owner = getattr(owner, part)
            assert callable(getattr(owner, attr, None)), (prefix, path, attr)
