"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert len(namespace["distinctions"]) == 5  # CNOT on |10>: two effects, three causes
    assert len(namespace["constraints"]) == 1  # GHZ: one third-order self-constraint
