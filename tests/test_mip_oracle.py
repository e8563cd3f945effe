"""Both backends' MIP search against the literal per-partition loop.

``oracle_mip`` and ``oracle_quantum_mip`` are the searches as first written:
enumerate every disintegrating partition, score each with ``phi`` and keep
the smallest (phi / severed pairs, phi, enumeration index).  ``classical.mip``
and ``quantum.mip`` must pick the same partition and return the same value,
bit for bit, on every (mechanism, purview) pair of random and deterministic
systems.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CNOT, GHZ, S2, W, pure, random_density, random_permutation_tpm, random_unitary
from mechphi import classical as cl
from mechphi import quantum as qm
from mechphi.search import all_subsets
from mechphi.partitions import DisintegratingPartition, enumerate_disintegrating, normalization


def oracle_mip(sys, mechanism, purview, direction, tie_tol=cl.DEFAULT_TOL):
    purview = sys._check_units(purview, "purview")
    thetas = enumerate_disintegrating(mechanism.units, purview)
    _, states = cl.intrinsic_information(sys, mechanism, purview, direction, tie_tol)
    if states is None:
        return thetas[0], 0.0
    best_key = None
    best: tuple[DisintegratingPartition, float] = (thetas[0], math.inf)
    for idx, theta in enumerate(thetas):
        value = cl.phi(sys, mechanism, purview, theta, direction, states, tie_tol)
        norm = normalization(theta, mechanism.units, purview)
        key = (value / norm, value, idx)
        if best_key is None or key < best_key:
            best_key = key
            best = (theta, value)
    return best


def tpm_from_units(counts, conds):
    """Joint TPM of conditionally independent units; conds[i][s, v] = p(unit i = v | s)."""
    states = list(product(*[range(c) for c in counts]))
    tpm = np.ones((len(states), len(states)))
    for i in range(len(counts)):
        for t, target in enumerate(states):
            tpm[:, t] *= conds[i][:, target[i]]
    return tpm


@st.composite
def networks(draw, min_units=2, max_units=3):
    """Random units mixed with deterministic copy and constant units."""
    n = draw(st.integers(min_units, max_units))
    counts = draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n))
    states = list(product(*[range(c) for c in counts]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conds = []
    for c in counts:
        kind = draw(st.sampled_from(["random", "random", "copy", "constant"]))
        cond = np.zeros((len(states), c))
        if kind == "random":
            rows = rng.gamma(1.0, size=(len(states), c))
            cond = rows / rows.sum(axis=1, keepdims=True)
        elif kind == "copy":
            src = draw(st.integers(0, n - 1))
            for s, st_ in enumerate(states):
                cond[s, st_[src] % c] = 1.0
        else:
            cond[:, draw(st.integers(0, c - 1))] = 1.0
        conds.append(cond)
    system = cl.ClassicalSystem(counts, tpm_from_units(counts, conds))
    state = tuple(draw(st.integers(0, c - 1)) for c in counts)
    return system, state


def assert_every_pair_matches(system, state):
    subsets = all_subsets(system.candidate_units)
    for direction in ("effect", "cause"):
        for units in subsets:
            mech = cl.Mechanism(units, system.state_of(state, units))
            for purview in subsets:
                got_theta, got_value = cl.mip(system, mech, purview, direction)
                want_theta, want_value = oracle_mip(system, mech, purview, direction)
                assert got_theta == want_theta, (direction, units, purview)
                assert got_value == want_value, (direction, units, purview)


@settings(max_examples=40, deadline=None)
@given(networks())
def test_mip_matches_loop_on_small_networks(net):
    assert_every_pair_matches(*net)


@settings(max_examples=2, deadline=None)
@given(networks(min_units=4, max_units=4).filter(lambda net: net[0].num_states <= 24))
def test_mip_matches_loop_on_four_units(net):
    assert_every_pair_matches(*net)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([[2, 2], [2, 3], [2, 2, 2], [3, 2, 2]]),
       st.integers(0, 2**32 - 1), st.data())
def test_mip_matches_loop_on_permutations(counts, seed, data):
    num_states = int(np.prod(counts))
    system = cl.ClassicalSystem(
        counts, random_permutation_tpm(np.random.default_rng(seed), num_states))
    state = tuple(data.draw(st.integers(0, c - 1)) for c in counts)
    assert_every_pair_matches(system, state)


def test_unreachable_cause_state_takes_the_empty_repertoire_path():
    conds = np.zeros((4, 2)), np.zeros((4, 2))
    for s, (a, _) in enumerate(product(range(2), range(2))):
        conds[0][s, a] = 1.0  # unit 0 copies itself
        conds[1][s, 0] = 1.0  # unit 1 is constant 0
    system = cl.ClassicalSystem([2, 2], tpm_from_units([2, 2], conds))
    mech = cl.Mechanism((0, 1), (0, 1))
    assert cl.cause_repertoire(system, mech, (0,)) is None
    assert cl.mip(system, mech, (0,), "cause") == oracle_mip(system, mech, (0,), "cause")
    assert cl.mip(system, mech, (0,), "cause")[1] == 0.0
    assert_every_pair_matches(system, (0, 1))


def conflicting_noisy_copies(eps=1e-12):
    """Unit 0 copies unit 0 and unit 1 negates it, each wrong with probability eps."""
    conds = np.zeros((4, 2)), np.zeros((4, 2))
    for s, (a, _) in enumerate(product(range(2), range(2))):
        conds[0][s] = [1 - eps, eps] if a == 0 else [eps, 1 - eps]
        conds[1][s] = [eps, 1 - eps] if a == 0 else [1 - eps, eps]
    return cl.ClassicalSystem([2, 2], tpm_from_units([2, 2], conds))


def test_unsupported_partitions_score_infinite():
    system = conflicting_noisy_copies()
    mech = cl.Mechanism((0, 1), (1, 1))
    cut = DisintegratingPartition.from_parts([((0,), (0,)), ((1,), ())])
    assert cl.phi(system, mech, (0,), cut, "cause") == math.inf
    assert cl.mip(system, mech, (0,), "cause") == oracle_mip(system, mech, (0,), "cause")
    assert_every_pair_matches(system, (1, 1))


def test_empty_part_repertoire_scores_infinite(monkeypatch):
    """A part whose cause repertoire is empty makes its partitions score +inf."""
    system = conflicting_noisy_copies(eps=0.1)
    mech = cl.Mechanism((0, 1), (1, 0))
    cause_repertoire = cl.cause_repertoire

    def without_unit_1(sys, mechanism, purview):
        if mechanism.units == (1,):
            return None
        return cause_repertoire(sys, mechanism, purview)

    monkeypatch.setattr(cl, "cause_repertoire", without_unit_1)
    # Scored with a repertoire, this cut would be the minimum partition.
    cut = DisintegratingPartition.from_parts([((0,), ()), ((1,), (0,))])
    assert cl.phi(system, mech, (0,), cut, "cause") == math.inf
    theta, value = cl.mip(system, mech, (0,), "cause")
    assert theta != cut and 0.0 < value < math.inf
    assert_every_pair_matches(system, (1, 0))


def oracle_quantum_mip(sys, mechanism, purview, direction, tie_tol=qm.DEFAULT_TOL):
    purview = sys._check_qubits(purview, "purview")
    thetas = enumerate_disintegrating(mechanism.qubits, purview)
    _, eigenstates = qm.intrinsic_information(sys, mechanism, purview, direction, tie_tol)
    if eigenstates is None:
        return thetas[0], 0.0
    best_key = None
    best: tuple[DisintegratingPartition, float] = (thetas[0], math.inf)
    for idx, theta in enumerate(thetas):
        value = qm.phi(sys, mechanism, purview, theta, direction, eigenstates, tie_tol)
        norm = normalization(theta, mechanism.qubits, purview)
        key = (value / norm, value, idx)
        if best_key is None or key < best_key:
            best_key = key
            best = (theta, value)
    return best


def assert_every_quantum_pair_matches(unitary, rho):
    system = qm.QuantumSystem(unitary)
    subsets = all_subsets(system.qubit_range())
    for direction in ("effect", "cause"):
        base = rho if direction == "effect" else qm.apply_unitary(system.unitary, rho)
        for qubits in subsets:
            mech = system.mechanism(qubits, base)
            for purview in subsets:
                got_theta, got_value = qm.mip(system, mech, purview, direction)
                want_theta, want_value = oracle_quantum_mip(system, mech, purview, direction)
                assert got_theta == want_theta, (direction, qubits, purview)
                assert got_value == want_value, (direction, qubits, purview)


def haar_cases():
    """One Haar unitary per size, with a random state of every rank (rank 1 is pure)."""
    rng = np.random.default_rng(20230105)
    for n in (1, 2, 3):
        u = random_unitary(rng, 2**n)
        for rank in range(1, 2**n + 1):
            yield pytest.param(u, random_density(rng, 2**n, rank), id=f"{n}q-rank{rank}")


I_CNOT = np.kron(np.eye(2), CNOT)


@pytest.mark.filterwarnings("ignore:cause repertoire blocks do not commute",
                            "ignore:symmetrized cause repertoire not PSD")
@pytest.mark.parametrize("unitary, rho", [
    *haar_cases(),
    pytest.param(CNOT, pure([0, 0, 1, 0]), id="cnot-10"),
    pytest.param(CNOT, pure([0.5, 0.5, -0.5, -0.5]), id="cnot-hadamard"),
    pytest.param(CNOT, pure([S2, 0, S2, 0]), id="cnot-bell"),
    pytest.param(I_CNOT, pure(GHZ), id="icnot-ghz"),
    pytest.param(np.eye(8), pure(GHZ), id="identity-ghz"),
    pytest.param(np.eye(8), pure(W), id="identity-w"),
])
def test_quantum_mip_matches_loop(unitary, rho):
    assert_every_quantum_pair_matches(unitary, rho)


def test_quantum_empty_part_repertoire_scores_infinite(monkeypatch):
    """A part whose cause repertoire is empty makes its partitions score +inf."""
    system = qm.QuantumSystem(CNOT)
    rho = pure([0, 0, 1, 0])
    mech = system.mechanism((0, 1), qm.apply_unitary(system.unitary, rho))
    cause_repertoire = qm.cause_repertoire

    def without_qubit_0(sys, mechanism, purview):
        if mechanism.qubits == (0,):
            return None
        return cause_repertoire(sys, mechanism, purview)

    # Scored with a repertoire, this cut is the minimum partition.
    cut = DisintegratingPartition.from_parts([((), (1,)), ((0,), (0,)), ((1,), ())])
    assert qm.mip(system, mech, (0, 1), "cause") == (cut, 1.0)
    monkeypatch.setattr(qm, "cause_repertoire", without_qubit_0)
    assert qm.phi(system, mech, (0, 1), cut, "cause") == math.inf
    theta, value = qm.mip(system, mech, (0, 1), "cause")
    assert theta != cut and value < math.inf
    assert_every_quantum_pair_matches(CNOT, rho)
