"""Built-in example systems, expressed as ready-to-run analysis requests."""

from __future__ import annotations

import copy
import math
from typing import Iterable

from .errors import ValidationError
from .report import _cmat, _cvec

_S2 = 1.0 / math.sqrt(2.0)
_S3 = 1.0 / math.sqrt(3.0)


def _eye(n: int) -> list[list[float]]:
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def _kron(a, b):
    return [
        [a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
        for i in range(len(a)) for k in range(len(b))
    ]


COPY_XOR_TPM = [
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
]

CNOT = COPY_XOR_TPM  # the permutation matrix doubles as the gate

_ICNOT = _kron(_eye(2), CNOT)

GHZ = [_S2, 0, 0, 0, 0, 0, 0, _S2]
_W = [0, _S3, _S3, 0, _S3, 0, 0, 0]


def _pure(amplitudes: Iterable[float]) -> dict:
    return {"kind": "pure", "amplitudes": _cvec(amplitudes)}


def _quantum(qubits: int, unitary, state: dict, direction: str = "both") -> dict:
    return {
        "backend": "quantum",
        "qubits": qubits,
        "unitary": _cmat(unitary),
        "state": state,
        "direction": direction,
    }


EXAMPLES: dict[str, dict] = {
    "copy-xor-10": {
        "description": "Classical COPY-XOR gate on input 10: two effects, three causes.",
        "request": {
            "backend": "classical",
            "unit_states": [2, 2],
            "tpm": COPY_XOR_TPM,
            "state_t": [1, 0],
            "state_t1": [1, 1],
            "direction": "both",
        },
    },
    "cnot-10": {
        "description": "CNOT on |10>: converges to the classical COPY-XOR analysis.",
        "request": _quantum(2, CNOT, _pure([0, 0, 1, 0])),
    },
    "cnot-hadamard": {
        "description": "CNOT on |-+>: control and target roles swap in the Hadamard basis.",
        "request": _quantum(2, CNOT, _pure([0.5, 0.5, -0.5, -0.5])),
    },
    "cnot-bell": {
        "description": "CNOT on |+0>: Bell output; only second-order mechanisms survive.",
        "request": _quantum(2, CNOT, _pure([_S2, 0, _S2, 0])),
    },
    "cnot-0plus": {
        "description": "CNOT on |0+>: no interaction; only first-order mechanisms.",
        "request": _quantum(2, CNOT, _pure([_S2, _S2, 0, 0])),
    },
    "cnot-mixed": {
        "description": "CNOT on an even |00>/|11> mixture: mixed-state mechanism analysis.",
        "request": _quantum(2, CNOT, {
            "kind": "density",
            "matrix": _cmat([
                [0.5, 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 0.5],
            ]),
        }),
    },
    "icnot-ghz": {
        "description": "I(x)CNOT on GHZ: the mixed two-qubit case embedded in three qubits.",
        "request": _quantum(3, _ICNOT, _pure(GHZ)),
    },
    "ghz-identity": {
        "description": "GHZ under identity dynamics: one third-order self-constraint.",
        "request": _quantum(3, _eye(8), _pure(GHZ), direction="effect"),
    },
    "w-identity": {
        "description": "W state under identity dynamics: self-constraints at every order.",
        "request": _quantum(3, _eye(8), _pure(_W), direction="effect"),
    },
    "classical-identity": {
        "description": "Three classical COPY units: first-order self-constraints only.",
        "request": {
            "backend": "classical",
            "unit_states": [2, 2, 2],
            "tpm": _eye(8),
            "state_t": [0, 0, 0],
            "state_t1": [0, 0, 0],
            "direction": "effect",
        },
    },
}


def example_names() -> list[str]:
    return list(EXAMPLES)


def example_request(name: str) -> dict:
    if name not in EXAMPLES:
        known = ", ".join(EXAMPLES)
        raise ValidationError(f"unknown example {name!r}; available: {known}")
    return copy.deepcopy(EXAMPLES[name]["request"])
