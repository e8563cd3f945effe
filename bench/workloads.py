"""Seeded request documents for the benchmark workloads.

Every document is plain JSON (lists, numbers, strings), so a failing input
can be written to a file and replayed with ``mechphi analyze``.  Each
document is a pure function of ``(seed, key)``: it draws from its own
``numpy.random.default_rng([seed, ...])`` stream, so the checker can rebuild
any input from the key the worker logs, without the two sharing state.

A workload is a sequence of *units*; the worker checks the clock only
between units, so every run is made of whole units:

- ``quantum-mix``: one unit is a cycle of the 8 quantum catalog examples,
  two random pure 3-qubit systems and two random mixed ones (12 requests).
- ``classical-4u``: one unit is one fresh random 4-unit network request.
- ``classical-3u-sweep``: one unit is a cycle of three 3-unit networks with
  the cardinality multisets {2,2,2}, {2,2,3} and {2,3,3} (38 unfolds).  The
  order of the units within each network is drawn from the seed, so every
  seed covers the same mix of state-space sizes.  Each network is parsed
  once and unfolded at each of its states.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20230105
HOLDOUT_SEED = 48271

QUANTUM_CATALOG = (
    "cnot-10", "cnot-hadamard", "cnot-bell", "cnot-0plus", "cnot-mixed",
    "icnot-ghz", "ghz-identity", "w-identity",
)
QUANTUM_RANDOM_SLOTS = ("pure", "mixed", "pure", "mixed")
SWEEP_MULTISETS = ((2, 2, 2), (2, 2, 3), (2, 3, 3))

WORKLOADS = ("quantum-mix", "classical-4u", "classical-3u-sweep")
WARMUP = {
    "quantum-mix": "cnot-10",
    "classical-4u": "copy-xor-10",
    "classical-3u-sweep": "copy-xor-10",
}


def golden_path(root: Path, name: str) -> Path:
    return root / "tests" / "golden" / f"{name}.json"


def catalog_doc(root: Path, name: str) -> dict:
    """The catalog request, taken from the echo in its golden report."""
    return json.loads(golden_path(root, name).read_text())["request"]


def _cvec(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def random_ci_tpm(rng: np.random.Generator, counts) -> np.ndarray:
    """Random TPM whose units are conditionally independent by construction."""
    states = list(product(*[range(c) for c in counts]))
    tpm = np.ones((len(states), len(states)))
    for i, c in enumerate(counts):
        rows = rng.gamma(1.0, size=(len(states), c))
        cond = rows / rows.sum(axis=1, keepdims=True)
        for t, target in enumerate(states):
            tpm[:, t] *= cond[:, target[i]]
    return tpm


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def quantum_random_doc(seed: int, cycle: int, slot: int) -> dict:
    rng = np.random.default_rng([seed, cycle, slot])
    u = haar_unitary(rng, 8)
    if QUANTUM_RANDOM_SLOTS[slot] == "pure":
        amp = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = {"kind": "pure", "amplitudes": _cvec(amp / np.linalg.norm(amp))}
    else:
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = g @ g.conj().T
        rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
        state = {"kind": "density", "matrix": [_cvec(row) for row in rho]}
    return {
        "backend": "quantum",
        "qubits": 3,
        "unitary": [_cvec(row) for row in u],
        "state": state,
        "direction": "both",
    }


def classical_4u_doc(seed: int, index: int) -> dict:
    rng = np.random.default_rng([seed, index])
    tpm = random_ci_tpm(rng, (2, 2, 2, 2))
    return {
        "backend": "classical",
        "unit_states": [2, 2, 2, 2],
        "tpm": tpm.tolist(),
        "state_t": [int(v) for v in rng.integers(0, 2, 4)],
        "state_t1": [int(v) for v in rng.integers(0, 2, 4)],
        "direction": "both",
    }


def sweep_network_doc(seed: int, net: int) -> dict:
    rng = np.random.default_rng([seed, net])
    counts = [int(c) for c in rng.permutation(SWEEP_MULTISETS[net % len(SWEEP_MULTISETS)])]
    return {
        "backend": "classical",
        "unit_states": counts,
        "tpm": random_ci_tpm(rng, counts).tolist(),
        "direction": "both",
    }


def sweep_states(doc: dict) -> list[list[int]]:
    return [list(s) for s in product(*[range(c) for c in doc["unit_states"]])]


def unit_ops(workload: str, seed: int, unit: int) -> list[dict]:
    """Operation keys of one unit; ``request_doc`` turns a key into its input."""
    if workload == "quantum-mix":
        keys = [{"kind": "catalog", "name": n} for n in QUANTUM_CATALOG]
        keys += [{"kind": "qrand", "cycle": unit, "slot": s}
                 for s in range(len(QUANTUM_RANDOM_SLOTS))]
        return keys
    if workload == "classical-4u":
        return [{"kind": "c4", "index": unit}]
    if workload == "classical-3u-sweep":
        nets = range(unit * len(SWEEP_MULTISETS), (unit + 1) * len(SWEEP_MULTISETS))
        return [{"kind": "sweep", "net": net, "state": s}
                for net in nets for s in sweep_states(sweep_network_doc(seed, net))]
    raise ValueError(f"unknown workload {workload!r}")


def request_doc(root: Path, seed: int, key: dict) -> dict:
    """The request document an operation key stands for.

    A sweep key maps to the network document with ``state_t`` and
    ``state_t1`` set to its state: ``mechphi analyze`` on that document runs
    the same unfold, then renders it.
    """
    kind = key["kind"]
    if kind == "catalog":
        return catalog_doc(root, key["name"])
    if kind == "qrand":
        return quantum_random_doc(seed, key["cycle"], key["slot"])
    if kind == "c4":
        return classical_4u_doc(seed, key["index"])
    if kind == "sweep":
        doc = sweep_network_doc(seed, key["net"])
        doc["state_t"] = list(key["state"])
        doc["state_t1"] = list(key["state"])
        return doc
    raise ValueError(f"unknown operation kind {kind!r}")
