"""The vectorized classical MIP search against the literal per-partition loop.

``oracle_mip`` is the search as first written: enumerate every
disintegrating partition, score each with ``phi`` and keep the smallest
(phi / severed pairs, phi, enumeration index).  ``classical.mip`` must pick
the same partition and return the same value, bit for bit, on every
(mechanism, purview) pair of random and deterministic networks.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_permutation_tpm
from mechphi import classical as cl
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
    subsets = cl._all_subsets(system.candidate_units)
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
