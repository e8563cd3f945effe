"""Shared builders for the test suite."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from mechphi.classical import ClassicalSystem
from mechphi.quantum import QuantumSystem
from mechphi.tensor import DensityMatrix

S2 = 1.0 / np.sqrt(2.0)
S3 = 1.0 / np.sqrt(3.0)

COPY_XOR_TPM = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=float)

CNOT = COPY_XOR_TPM.astype(complex)

BELL_PLUS = np.array([S2, 0, 0, S2], dtype=complex)
GHZ = np.array([S2, 0, 0, 0, 0, 0, 0, S2], dtype=complex)
W = np.array([0, S3, S3, 0, S3, 0, 0, 0], dtype=complex)


def ket(*bits) -> np.ndarray:
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int("".join(map(str, bits)), 2)] = 1.0
    return vec


def pure(vec) -> DensityMatrix:
    return DensityMatrix.from_pure(np.asarray(vec, dtype=complex))


@pytest.fixture
def copy_xor() -> ClassicalSystem:
    return ClassicalSystem([2, 2], COPY_XOR_TPM)


@pytest.fixture
def cnot_system() -> QuantumSystem:
    return QuantumSystem(CNOT)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None,
                   qubit_dims: bool = True) -> DensityMatrix:
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    dims = None if qubit_dims else (dim,)
    return DensityMatrix(rho / np.trace(rho).real, dims=dims)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def random_ci_tpm(rng: np.random.Generator, counts: list[int]) -> np.ndarray:
    """Random TPM that is conditionally independent by construction."""
    from itertools import product

    states = list(product(*[range(c) for c in counts]))
    conds = []
    for c in counts:
        rows = rng.gamma(1.0, size=(len(states), c))
        conds.append(rows / rows.sum(axis=1, keepdims=True))
    tpm = np.ones((len(states), len(states)))
    for i in range(len(counts)):
        for t, target in enumerate(states):
            tpm[:, t] *= conds[i][:, target[i]]
    return tpm


def random_permutation_tpm(rng: np.random.Generator, num_states: int) -> np.ndarray:
    perm = rng.permutation(num_states)
    tpm = np.zeros((num_states, num_states))
    tpm[np.arange(num_states), perm] = 1.0
    return tpm


class CountingMemo(dict):
    """A system memo that counts how often each key is stored, by assignment or ``setdefault``."""

    def __init__(self):
        super().__init__()
        self.stores: Counter = Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return self[key]
