"""Both backends' repertoires and MIP search against the literal code they replaced.

``LiteralClassical`` holds the classical repertoires as first written: boolean
row masks over the flat TPM, an ``np.kron`` chain for effect repertoires, a
stride loop for partitioned repertoires and a scalar ``phi``.
``LiteralQuantum`` holds the quantum repertoires as first written: each
conditioned output embedded, evolved and traced on its own, and each cause
repertoire's mechanism blocks found and reduced on every call.  It passes
every intermediate state through the validating ``DensityMatrix``
constructor, which the production code runs only where states enter, so
every compared pair still checks every state derived on the way.
``oracle_mip`` and ``oracle_quantum_mip`` are the searches as first written:
enumerate every disintegrating partition, score each on its own and keep the
smallest (phi / severed pairs, phi, enumeration index).  The quantum oracle
also keeps the literal partitioned repertoire: each part's reduction and
repertoire, ``np.kron`` of the parts, a permutation into purview order, a
``DensityMatrix`` and one ``hermitian_eig`` per partition.  Repertoires,
partitioned repertoires, minimum partitions and their values must agree bit
for bit on every (mechanism, purview) pair of random and deterministic
systems, with and without background units.  ``oracle_phi_max`` is the
purview search as first written: the MIP of every purview.  The bounded
search must select exactly as it does, and each backend's bound must equal,
under ``==``, the score its MIP search gives the bounding partition.  A
classical system unfolded at every state must select what a fresh system
selects at each, although it keeps every selection.  The per-unit marginal,
likelihood and mechanism-averaged effect tables must equal, byte for byte,
the per-state means and ``acc +=`` sums they replaced, and
``intrinsic_difference`` its first numpy form.  Every slice of a purview
table, with its intrinsic information and bound, must equal byte for byte
what the per-purview code built for that purview alone; so must every entry
of a quantum purview table, against one ``hermitian_eig``, one overlap
product and numpy-scalar scores per purview.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
import weakref
from collections import Counter
from functools import reduce
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CNOT, COPY_XOR_TPM, GHZ, S2, W, ket, pure, random_ci_tpm, random_density,
    random_permutation_tpm, random_unitary,
)
from mechphi import classical as cl
from mechphi import quantum as qm
from mechphi import search
from mechphi.catalog import example_names, example_request
from mechphi.errors import NumericError, ValidationError
from mechphi.partitions import (
    DisintegratingPartition,
    enumerate_disintegrating,
    normalization,
    partition_shape,
)
from mechphi.report import parse_request, render, run
from mechphi.search import all_subsets
from mechphi.tensor import (
    DensityMatrix,
    apply_unitary,
    apply_unitary_adjoint,
    check_density_matrices,
    hermitian_eig,
    partial_trace,
    permute_subsystems,
    sort_descending,
)


class LiteralClassical:
    """One system's classical repertoires, computed row by row on the flat TPM."""

    def __init__(self, sys):
        self.sys = sys
        self.states = np.array(
            list(product(*[range(c) for c in sys.unit_state_counts])), dtype=int
        )
        # cond[i][s, v] = p(unit i takes value v at t+1 | source state s)
        self.cond = []
        for i, c in enumerate(sys.unit_state_counts):
            cols = np.stack(
                [sys.tpm[:, self.states[:, i] == v].sum(axis=1) for v in range(c)], axis=1
            )
            self.cond.append(cols)
        self.memo: dict = {}

    def rows_matching(self, fixed):
        mask = np.ones(self.sys.num_states, dtype=bool)
        for u, v in fixed.items():
            mask &= self.states[:, u] == v
        return np.nonzero(mask)[0]

    def fixed_with_background(self, mech):
        fixed = dict(zip(self.sys.background_units, self.sys.background_state))
        fixed.update(zip(mech.units, mech.state))
        return fixed

    def effect_repertoire_single(self, mechanism, unit):
        rows = self.rows_matching(self.fixed_with_background(mechanism))
        return self.cond[unit][rows].mean(axis=0)

    def effect_repertoire(self, mechanism, purview):
        key = ("er", mechanism, purview)
        if key not in self.memo:
            probs = np.ones(1)
            for u in purview:
                probs = np.kron(probs, self.effect_repertoire_single(mechanism, u))
            self.memo[key] = probs
        return self.memo[key]

    def unconstrained_effect(self, purview, mechanism_units):
        acc = np.zeros(int(np.prod([self.sys.unit_state_counts[u] for u in purview])))
        states = self.sys.subset_states(mechanism_units)
        for st_ in states:
            acc += self.effect_repertoire(cl.Mechanism(mechanism_units, st_), purview)
        return acc / len(states)

    def unconstrained_cause(self, purview):
        n = int(np.prod([self.sys.unit_state_counts[u] for u in purview]))
        return np.full(n, 1.0 / n)

    def cause_repertoire(self, mechanism, purview):
        if not mechanism.units:
            return self.unconstrained_cause(purview)
        key = ("cr", mechanism, purview)
        if key not in self.memo:
            self.memo[key] = self._cause(mechanism, purview)
        return self.memo[key]

    def _cause(self, mechanism, purview):
        sys = self.sys
        z_states = sys.subset_states(purview)
        row_sets = []
        bg = dict(zip(sys.background_units, sys.background_state))
        for z in z_states:
            fixed = dict(bg)
            fixed.update(zip(purview, z))
            row_sets.append(self.rows_matching(fixed))

        result = np.ones(len(z_states))
        for u, v in zip(mechanism.units, mechanism.state):
            factor = np.array([self.cond[u][rows, v].mean() for rows in row_sets])
            total = float(factor.sum())
            if total <= 0.0:
                return None
            result *= factor / total
        total = float(result.sum())
        return None if total <= 0.0 else result / total

    def repertoire(self, mechanism, purview, direction):
        if direction == "effect":
            return self.effect_repertoire(mechanism, purview)
        return self.cause_repertoire(mechanism, purview)

    def intrinsic_information(self, mechanism, purview, direction):
        rep = self.repertoire(mechanism, purview, direction)
        if rep is None:
            return 0.0, None
        baseline = (self.unconstrained_effect(purview, mechanism.units) if direction == "effect"
                    else self.unconstrained_cause(purview))
        return cl.intrinsic_difference(rep, baseline, self.sys.tol)

    def part_repertoire(self, mechanism, m_part, z_part, direction):
        sub = mechanism.restrict(m_part)
        if direction == "effect":
            return self.effect_repertoire(sub, z_part)
        return self.cause_repertoire(sub, z_part)

    def partitioned_repertoire(self, mechanism, purview, theta, direction):
        key = ("pr", mechanism, purview, theta, direction)
        if key not in self.memo:
            self.memo[key] = self._partitioned(mechanism, purview, theta, direction)
        return self.memo[key]

    def _partitioned(self, mechanism, purview, theta, direction):
        sys = self.sys
        factors = []
        for m_part, z_part in theta.parts:
            if not z_part:
                continue
            dist = self.part_repertoire(mechanism, m_part, z_part, direction)
            if dist is None:
                return None
            factors.append((z_part, dist))

        result = np.ones(int(np.prod([sys.unit_state_counts[u] for u in purview])))
        for units, dist in factors:
            result *= dist[self.part_index(purview, units)]
        return result

    def part_index(self, purview, units):
        """Per purview state, the index of its restriction to ``units``; memoized."""
        key = ("idx", purview, units)
        if key not in self.memo:
            sys = self.sys
            z_states = sys.subset_states(purview)
            pos = {u: i for i, u in enumerate(purview)}
            idx = np.zeros(len(z_states), dtype=int)
            for u in units:
                stride = int(np.prod([sys.unit_state_counts[v] for v in units if v > u]))
                idx += stride * np.array([z[pos[u]] for z in z_states])
            self.memo[key] = idx
        return self.memo[key]

    def phi(self, mechanism, purview, theta, direction, states):
        rep = self.repertoire(mechanism, purview, direction)
        if rep is None:
            return 0.0
        part = self.partitioned_repertoire(mechanism, purview, theta, direction)
        if part is None:
            return math.inf
        return max([0.0, *(cl._pointwise(float(rep[s]), float(part[s]), self.sys.tol)
                           for s in states)])


_literal: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def literal(sys):
    """The system's literal repertoires: ``LiteralQuantum`` or ``LiteralClassical``."""
    if sys not in _literal:
        kind = LiteralQuantum if isinstance(sys, qm.QuantumSystem) else LiteralClassical
        _literal[sys] = kind(sys)
    return _literal[sys]


def oracle_mip(sys, mechanism, purview, direction):
    lit = literal(sys)
    purview = sys._check_units(purview, "purview")
    thetas = enumerate_disintegrating(mechanism.units, purview)
    _, states = lit.intrinsic_information(mechanism, purview, direction)
    if states is None:
        return thetas[0], 0.0
    best_key = None
    best: tuple[DisintegratingPartition, float] = (thetas[0], math.inf)
    for idx, theta in enumerate(thetas):
        value = lit.phi(mechanism, purview, theta, direction, states)
        norm = normalization(theta, mechanism.units, purview)
        key = (value / norm, value, idx)
        if best_key is None or key < best_key:
            best_key = key
            best = (theta, value)
    return best


def same_bytes(got, want) -> bool:
    """Both None, or arrays equal byte for byte."""
    if got is None or want is None:
        return got is None and want is None
    return got.tobytes() == want.tobytes()


def tpm_from_units(counts, conds):
    """Joint TPM of conditionally independent units; conds[i][s, v] = p(unit i = v | s)."""
    states = list(product(*[range(c) for c in counts]))
    tpm = np.ones((len(states), len(states)))
    for i in range(len(counts)):
        for t, target in enumerate(states):
            tpm[:, t] *= conds[i][:, target[i]]
    return tpm


@st.composite
def networks(draw, min_units=2, max_units=3, background=0):
    """Random units mixed with deterministic copy and constant units.

    ``background`` units, drawn at random, are clamped to their entry of the
    returned state.
    """
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
    state = tuple(draw(st.integers(0, c - 1)) for c in counts)
    clamped = None
    if background:
        units = draw(st.lists(st.integers(0, n - 1), min_size=background,
                              max_size=background, unique=True))
        clamped = (units, [state[u] for u in units])
    system = cl.ClassicalSystem(counts, tpm_from_units(counts, conds), background=clamped)
    return system, state


def assert_every_pair_matches(system, state):
    """Repertoires, partitioned repertoires and the MIP equal the literal code exactly."""
    lit = literal(system)
    subsets = all_subsets(system.candidate_units)
    for direction in ("effect", "cause"):
        for units in subsets:
            mech = cl.Mechanism(units, system.state_of(state, units))
            for purview in subsets:
                where = (direction, units, purview)
                if direction == "effect":
                    got = cl.effect_repertoire(system, mech, purview).probabilities
                    assert same_bytes(got, lit.effect_repertoire(mech, purview)), where
                    got = cl.unconstrained_effect(system, purview, units).probabilities
                    assert same_bytes(got, lit.unconstrained_effect(purview, units)), where
                else:
                    got = cl.cause_repertoire(system, mech, purview)
                    assert same_bytes(got and got.probabilities,
                                      lit.cause_repertoire(mech, purview)), where
                for theta in enumerate_disintegrating(units, purview):
                    got = cl.partitioned_repertoire(system, mech, purview, theta, direction)
                    want = lit.partitioned_repertoire(mech, purview, theta, direction)
                    assert same_bytes(got and got.probabilities, want), (where, theta)
                got_theta, got_value = cl.mip(system, mech, purview, direction)
                want_theta, want_value = oracle_mip(system, mech, purview, direction)
                assert got_theta == want_theta, where
                assert got_value == want_value, where
                assert cl.phi(system, mech, purview, got_theta, direction) == want_value, where


@settings(max_examples=40, deadline=None)
@given(networks())
def test_mip_matches_loop_on_small_networks(net):
    assert_every_pair_matches(*net)


@settings(max_examples=2, deadline=None)
@given(networks(min_units=4, max_units=4).filter(lambda net: net[0].num_states <= 24))
def test_mip_matches_loop_on_four_units(net):
    assert_every_pair_matches(*net)


@settings(max_examples=20, deadline=None)
@given(networks(min_units=3, max_units=4, background=1)
       .filter(lambda net: net[0].num_states <= 24))
def test_mip_matches_loop_with_one_background_unit(net):
    assert_every_pair_matches(*net)


@settings(max_examples=15, deadline=None)
@given(networks(min_units=3, max_units=4, background=2)
       .filter(lambda net: net[0].num_states <= 36))
def test_mip_matches_loop_with_two_background_units(net):
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


def literal_marginal(sys, mechanism, unit):
    """``unit``'s next-state distribution as first memoized: one 2-D mean per mechanism state."""
    index = sys._pin(mechanism.units, mechanism.state)
    return sys._cond[unit][index].reshape(-1, sys.unit_state_counts[unit]).mean(0)


def literal_likelihood(sys, unit, value, purview):
    """A purview's normalized likelihood as first written: one 1-D mean per purview state."""
    factor = np.array([sys._cond[unit][sys._pin(purview, z) + (value,)].ravel().mean()
                       for z in sys.subset_states(purview)])
    total = float(factor.sum())
    return factor / total if total > 0.0 else None


def rowwise_likelihood(sys, unit, value, purview):
    """A purview's normalized likelihood as last written per purview: one row-wise mean."""
    rows = np.ascontiguousarray(cl._units_first(sys, sys._cond[unit][..., value], purview))
    factor = rows.reshape(math.prod(sys.unit_state_counts[u] for u in purview), -1).mean(1)
    total = float(factor.sum())
    return factor / total if total > 0.0 else None


def literal_unconstrained_effect(sys, purview, units):
    """``classical.unconstrained_effect`` as first written: ``acc +=`` one product per state."""
    states = sys.subset_states(units)
    acc = np.zeros(math.prod(sys.unit_state_counts[u] for u in purview))
    for state in states:
        mechanism = cl.Mechanism(units, state)
        acc += reduce(np.multiply.outer,
                      [literal_marginal(sys, mechanism, u) for u in purview]).ravel()
    return acc / len(states)


def purview_slices(system):
    """(purview, its row slice) of every candidate purview, in layout order."""
    layout = cl._layout(system)
    return list(zip(layout.index, layout.spans))


def assert_unit_factors_match(system):
    """Every marginal, likelihood and mechanism-averaged effect equals its per-state form."""
    candidates = system.candidate_units
    unit_sets = [(), *all_subsets(candidates)]
    for units in unit_sets:
        for state in system.subset_states(units):
            mechanism = cl.Mechanism(units, state)
            row = cl._marginals(system, units)[state]
            for u in candidates:
                want = literal_marginal(system, mechanism, u)
                assert same_bytes(row[u, :system.unit_state_counts[u]], want), (mechanism, u)
    for unit in candidates:
        for value in range(system.unit_state_counts[unit]):
            table = cl._likelihoods(system, unit, value)
            for purview, rows in purview_slices(system):
                got = None if np.isnan(table[rows]).any() else table[rows]
                assert same_bytes(got, literal_likelihood(system, unit, value, purview)), purview
                assert same_bytes(got, rowwise_likelihood(system, unit, value, purview)), purview
    for purview, rows in purview_slices(system):
        for units in unit_sets:
            want = literal_unconstrained_effect(system, purview, units)
            assert same_bytes(cl._baseline(system, units)[rows], want), (purview, units)
            got = cl.unconstrained_effect(system, purview, units).probabilities
            assert same_bytes(got, want), (purview, units)


@settings(max_examples=40, deadline=None)
@given(networks(max_units=4).filter(lambda net: net[0].num_states <= 54))
def test_unit_factor_tables_match_the_per_state_forms(net):
    assert_unit_factors_match(net[0])


@settings(max_examples=20, deadline=None)
@given(networks(min_units=3, max_units=4, background=1)
       .filter(lambda net: net[0].num_states <= 54))
def test_unit_factor_tables_match_the_per_state_forms_with_a_background_unit(net):
    assert_unit_factors_match(net[0])


def literal_outer(sys, rows, purview):
    """``classical._outer`` as last written: per row, the purview units' outer product."""
    q = np.ones((len(rows), 1))
    for u in purview:
        q = (q[:, :, None] * rows[:, u, None, :sys.unit_state_counts[u]]).reshape(len(rows), -1)
    return q


def per_purview_repertoire(sys, mechanism, purview, direction):
    """One purview's repertoire as last built on its own, None for an empty cause."""
    if direction == "effect":
        return literal_outer(sys, cl._marginals(sys, mechanism.units)[mechanism.state][None],
                             purview)[0]
    factors = [rowwise_likelihood(sys, u, v, purview) for u, v in zip(*mechanism)]
    if not factors:
        n = math.prod(sys.unit_state_counts[u] for u in purview)
        return np.full(n, 1.0 / n)
    if any(f is None for f in factors):
        return None
    result = reduce(np.multiply, factors)
    total = float(result.sum())
    return result / total if total > 0 else None


def per_purview_scores(sys, mechanism, purview, direction):
    """``intrinsic_information`` and ``_max_norm_phi`` as last computed, one purview at a time."""
    p = per_purview_repertoire(sys, mechanism, purview, direction)
    if p is None:
        return (0.0, None), 0.0
    n = len(p)
    q = (literal_unconstrained_effect(sys, purview, mechanism.units) if direction == "effect"
         else np.full(n, 1.0 / n))
    value, states = cl.intrinsic_difference(p, q, sys.tol)
    if direction == "cause":
        return (value, states), max(0.0, value)
    zero = per_purview_repertoire(sys, cl.Mechanism((), ()), purview, "effect").tolist()
    p = p.tolist()
    return (value, states), max([0.0, *(cl._pointwise(p[s], zero[s], sys.tol) for s in states)])


def float_bytes(value) -> bytes:
    return np.float64(value).tobytes()


def assert_purview_tables_match(system, state):
    """Every (mechanism, direction) table equals its per-purview forms, byte for byte."""
    for direction in ("effect", "cause"):
        for units in [(), *all_subsets(system.candidate_units)]:
            mech = cl.Mechanism(units, system.state_of(state, units))
            table = cl._table(system, mech, direction)
            for i, (purview, rows) in enumerate(purview_slices(system)):
                where = (direction, units, purview)
                want = per_purview_repertoire(system, mech, purview, direction)
                (value, states), bound = table.ii[i], table.bounds[i]
                assert same_bytes(None if states is None else table.probabilities[rows],
                                  want), where
                (want_value, want_states), want_bound = per_purview_scores(
                    system, mech, purview, direction)
                assert float_bytes(value) == float_bytes(want_value), where
                assert states == want_states, where
                assert float_bytes(bound) == float_bytes(want_bound), where


@settings(max_examples=30, deadline=None)
@given(networks(max_units=4).filter(lambda net: net[0].num_states <= 54))
def test_purview_tables_match_the_per_purview_forms(net):
    assert_purview_tables_match(*net)


@settings(max_examples=15, deadline=None)
@given(networks(min_units=3, max_units=4, background=1)
       .filter(lambda net: net[0].num_states <= 54))
def test_purview_tables_match_the_per_purview_forms_with_a_background_unit(net):
    assert_purview_tables_match(*net)


def test_cause_purviews_are_normalized_by_their_own_sum():
    """Not by ``np.add.reduceat``, which sums sequentially and differs from 8 states on."""
    system = cl.ClassicalSystem([2] * 4, random_ci_tpm(np.random.default_rng(3), [2] * 4))
    mech = cl.Mechanism((0, 1, 2, 3), (1, 0, 1, 1))
    table = cl._table(system, mech, "cause")
    starts = [rows.start for _, rows in purview_slices(system)]
    product_ = reduce(np.multiply, [cl._likelihoods(system, u, v) for u, v in zip(*mech)])
    by_reduceat = product_ / np.repeat(np.add.reduceat(product_, starts),
                                       np.diff([*starts, len(product_)]))
    differs = []
    for purview, rows in purview_slices(system):
        want = per_purview_repertoire(system, mech, purview, "cause")
        assert same_bytes(table.probabilities[rows], want), purview
        if not same_bytes(by_reduceat[rows], want):
            differs.append(len(want))
    assert max(differs) >= 8


def numpy_intrinsic_difference(p, q, tol=cl.DEFAULT_TOL):
    """``classical.intrinsic_difference`` as first written, over numpy arrays."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    vals = np.array([cl._pointwise(ps, qs, tol) for ps, qs in zip(p, q)])
    value = float(np.max(vals)) if len(vals) else 0.0
    if math.isinf(value):
        return value, tuple(int(s) for s in np.nonzero(np.isinf(vals))[0])
    return value, tuple(int(s) for s in np.nonzero(vals >= value - tol)[0])


@pytest.mark.parametrize("p, q, tol", [
    ([0.5, 0.5, 0.0, 1e-10], [0.25, 0.25, 0.25, 0.25], 1e-9),  # p within tol of 0
    ([1e-9, 1.0 - 1e-9], [0.5, 0.5], 1e-9),  # p exactly at tol
    ([0.5, 0.3, 0.2], [0.5, 1e-10, 0.5], 1e-9),  # q within tol: +inf
    ([0.4, 0.4, 0.2], [0.0, 1e-12, 1.0], 1e-9),  # +inf ties
    ([0.0, 0.0], [0.0, 0.0], 1e-9),  # nothing in the support
    ([0.5, 0.5 - 1e-12, 1e-12], [1 / 3] * 3, 1e-9),  # ties within tol
    ([0.5, 0.5 - 1e-3, 1e-3], [1 / 3] * 3, 1e-2),  # ties within a wide tol
    ([0.25, 0.75], [0.75, 0.25], 1e-9),
    ([0.2, 0.8], [0.2, 0.8], 1e-9),  # all scores 0
    ([], [], 1e-9),
])
def test_intrinsic_difference_matches_the_numpy_form(p, q, tol):
    value, states = cl.intrinsic_difference(p, q, tol)
    want_value, want_states = numpy_intrinsic_difference(p, q, tol)
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert states == want_states


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 1e-10, 0.1, 0.25, 0.5, 1.0]),
                          st.floats(0.0, 1.0)), min_size=1, max_size=16))
def test_intrinsic_difference_matches_the_numpy_form_on_random_pairs(pairs):
    p, q = zip(*pairs)
    assert cl.intrinsic_difference(p, q) == numpy_intrinsic_difference(p, q)


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
    """A part whose cause repertoire is empty makes its partitions score +inf.

    Unit 1's cause table is emptied, so every purview of it is empty: its
    cause repertoires (NaN), intrinsic information and bounds.
    """
    system = conflicting_noisy_copies(eps=0.1)
    mech = cl.Mechanism((0, 1), (1, 0))
    table = cl._table

    def without_unit_1(sys, mechanism, direction):
        got = table(sys, mechanism, direction)
        if mechanism.units == (1,) and direction == "cause":
            return cl._Table(np.full(len(got.probabilities), math.nan),
                             [(0.0, None)] * len(got.ii), [0.0] * len(got.bounds))
        return got

    literal_cause = LiteralClassical.cause_repertoire

    def literal_without_unit_1(self, mechanism, purview):
        if mechanism.units == (1,):
            return None
        return literal_cause(self, mechanism, purview)

    monkeypatch.setattr(cl, "_table", without_unit_1)
    monkeypatch.setattr(LiteralClassical, "cause_repertoire", literal_without_unit_1)
    # Scored with a repertoire, this cut would be the minimum partition.
    cut = DisintegratingPartition.from_parts([((0,), ()), ((1,), (0,))])
    assert cl.phi(system, mech, (0,), cut, "cause") == math.inf
    theta, value = cl.mip(system, mech, (0,), "cause")
    assert theta != cut and 0.0 < value < math.inf
    assert_every_pair_matches(system, (1, 0))


def oracle_assemble(purview, factors, tol):
    """Tensor factors over disjoint qubit groups into ascending purview order."""
    order: list[int] = []
    arr = np.ones((1, 1), dtype=complex)
    for qubits, rho in factors:
        order.extend(qubits)
        arr = np.kron(arr, rho.data)
    positions = [list(purview).index(q) for q in order]
    arr = permute_subsystems(arr, (2,) * len(purview), positions)
    return DensityMatrix(arr, dims=(2,) * len(purview), tol=tol)


def checked(rho, tol):
    """``rho`` rebuilt by the validating constructor: raises unless it is a state."""
    return DensityMatrix(rho.data, dims=rho.dims, tol=tol)


class LiteralQuantum:
    """One system's quantum repertoires as first written, with no intermediate memoized.

    Every conditioned output embeds the mechanism with maximally mixed qubits,
    evolves it and traces it down to the purview; every cause repertoire finds
    the mechanism's separable blocks and reduces the mechanism to each anew.
    Only finished repertoires are kept, per (direction, mechanism, purview),
    so each case builds each of them once.
    """

    def __init__(self, sys):
        self.sys = sys
        self.memo: dict = {}

    def conditioned_output(self, mechanism, purview, direction):
        sys = self.sys
        qubits = mechanism.qubits
        rest = [q for q in range(sys.n_qubits) if q not in qubits]
        arr = mechanism.state.data
        if rest:
            pad = np.eye(2 ** len(rest)) / 2 ** len(rest)
            arr = np.kron(arr, pad)
        embedded = DensityMatrix(
            permute_subsystems(arr, (2,) * sys.n_qubits, list(qubits) + rest),
            dims=sys.dims, tol=sys.tol,
        )
        if direction == "effect":
            evolved = checked(apply_unitary(sys.unitary, embedded), sys.tol)
        else:
            evolved = checked(apply_unitary_adjoint(sys.unitary, embedded), sys.tol)
        return checked(partial_trace(evolved, purview), sys.tol)

    def effect_rho(self, mechanism, purview):
        """The effect repertoire's matrix, its blocks tensored by ``oracle_assemble``."""
        sys = self.sys
        out = self.conditioned_output(mechanism, purview, "effect")
        structure = qm.entanglement_partition(out, tol=sys.tol)
        if len(structure) == 1:
            return out
        factors = [(tuple(purview[i] for i in block), checked(partial_trace(out, block), sys.tol))
                   for block in structure]
        return oracle_assemble(purview, factors, sys.tol)

    def cause_rho(self, mechanism, purview):
        """Trace-normalized product of per-block conditioned inputs, or None if empty."""
        sys = self.sys
        mech_structure = qm.entanglement_partition(mechanism.state, tol=sys.tol)
        mech_blocks = [
            tuple(mechanism.qubits[i] for i in b) for b in mech_structure
        ]
        product = np.eye(2 ** len(purview), dtype=complex)
        for positions, qubits in zip(mech_structure, mech_blocks):
            block_state = (
                mechanism.state if len(qubits) == len(mechanism.qubits)
                else checked(partial_trace(mechanism.state, positions), sys.tol)
            )
            block = qm.QuantumMechanism(qubits, block_state)
            product = product @ self.conditioned_output(block, purview, "cause").data

        trace = complex(np.trace(product))
        if abs(trace) <= sys.tol:
            return None
        arr = product / trace
        herm = float(np.max(np.abs(arr - arr.conj().T)))
        if herm > sys.tol:
            warnings.warn(
                "cause repertoire blocks do not commute; symmetrizing their product "
                f"(residual {herm:.3e})", stacklevel=2,
            )
            arr = 0.5 * (arr + arr.conj().T)
            arr = arr / np.trace(arr).real
            lo = float(np.min(np.linalg.eigvalsh(arr)))
            if lo < -sys.tol:
                warnings.warn(
                    f"symmetrized cause repertoire not PSD (min eigenvalue {lo:.3e}); "
                    "clamping negative eigenvalues", stacklevel=2,
                )
                w, v = np.linalg.eigh(arr)
                w = np.clip(w, 0.0, None)
                arr = (v * (w / w.sum())) @ v.conj().T
        return DensityMatrix(arr, dims=(2,) * len(purview), tol=sys.tol)

    def repertoire(self, mechanism, purview, direction):
        key = (direction, mechanism.qubits, mechanism.state.data.tobytes(), purview)
        if key not in self.memo:
            build = self.effect_rho if direction == "effect" else self.cause_rho
            self.memo[key] = build(mechanism, purview)
        return self.memo[key]

    def intrinsic_information(self, mechanism, purview, direction):
        rho = self.repertoire(mechanism, purview, direction)
        if rho is None:
            return 0.0, None
        return qm.qid(rho, DensityMatrix.maximally_mixed(len(purview)), tol=self.sys.tol)

    def part_rho(self, mechanism, m_part, z_part, direction):
        if not m_part:
            return DensityMatrix.maximally_mixed(len(z_part))
        positions = [mechanism.qubits.index(q) for q in m_part]
        sub_state = (
            mechanism.state if len(m_part) == len(mechanism.qubits)
            else checked(partial_trace(mechanism.state, positions), self.sys.tol)
        )
        return self.repertoire(qm.QuantumMechanism(m_part, sub_state), z_part, direction)


def oracle_partitioned_repertoire(sys, mechanism, purview, theta, direction):
    purview = sys._check_qubits(purview, "purview")
    factors = []
    for m_part, z_part in theta.parts:
        if not z_part:
            continue
        rho = literal(sys).part_rho(mechanism, m_part, z_part, direction)
        if rho is None:
            return None
        factors.append((z_part, rho))
    return oracle_assemble(purview, factors, sys.tol)


def oracle_phi_against(part, eigenstates, tol):
    es = hermitian_eig(part.data, tol=tol)
    q = np.clip(es.eigenvalues, 0.0, None)
    return max([0.0, *(qm._eigen_score(p_i, np.abs(vec.conj() @ es.eigenvectors) ** 2, q, tol)
                        for p_i, vec in eigenstates)])


def oracle_quantum_mip(sys, mechanism, purview, direction, parts):
    """``parts`` holds every partition's oracle partitioned repertoire, in enumeration order."""
    purview = sys._check_qubits(purview, "purview")
    thetas = enumerate_disintegrating(mechanism.qubits, purview)
    _, eigenstates = literal(sys).intrinsic_information(mechanism, purview, direction)
    if eigenstates is None:
        return thetas[0], 0.0
    best_key = None
    best: tuple[DisintegratingPartition, float] = (thetas[0], math.inf)
    for idx, theta in enumerate(thetas):
        part = parts[idx]
        value = math.inf if part is None else oracle_phi_against(part, eigenstates, sys.tol)
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
        base = rho if direction == "effect" else checked(
            qm.apply_unitary(system.unitary, rho), system.tol)
        for qubits in subsets:
            mech = system.mechanism(qubits, base)
            checked(mech.state, system.tol)
            for purview in subsets:
                got = (qm.effect_repertoire if direction == "effect"
                       else qm.cause_repertoire)(system, mech, purview)
                want = literal(system).repertoire(mech, purview, direction)
                assert same_bytes(got and got.rho.data, want and want.data), (
                    direction, qubits, purview)
                thetas = enumerate_disintegrating(qubits, purview)
                parts = [oracle_partitioned_repertoire(system, mech, purview, theta, direction)
                         for theta in thetas]
                for theta, want in zip(thetas, parts):
                    got = qm.partitioned_repertoire(system, mech, purview, theta, direction)
                    assert (got is None and want is None
                            or got.data.tobytes() == want.data.tobytes()), theta
                got_theta, got_value = qm.mip(system, mech, purview, direction)
                want_theta, want_value = oracle_quantum_mip(system, mech, purview, direction, parts)
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
X = np.array([[0, 1], [1, 0]])
P0, P1 = np.diag([1, 0]), np.diag([0, 1])
# X on qubit 2, then CNOT from qubit 2 onto qubit 1: not its own inverse, and
# |001> and its image |000> have equal reductions on qubits (0, 1), so cause
# and effect mechanisms share states that the two directions evolve differently.
X_CNOT_21 = np.kron(np.eye(2), np.kron(np.eye(2), P0) + np.kron(X, P1)) @ np.kron(np.eye(4), X)


@pytest.mark.filterwarnings("ignore:cause repertoire blocks do not commute",
                            "ignore:symmetrized cause repertoire not PSD")
@pytest.mark.parametrize("unitary, rho", [
    *haar_cases(),
    pytest.param(CNOT, pure([0, 0, 1, 0]), id="cnot-10"),
    pytest.param(CNOT, pure([0.5, 0.5, -0.5, -0.5]), id="cnot-hadamard"),
    pytest.param(CNOT, pure([S2, 0, S2, 0]), id="cnot-bell"),
    pytest.param(I_CNOT, pure(GHZ), id="icnot-ghz"),
    pytest.param(X_CNOT_21, pure(ket(0, 0, 1)), id="xcnot-001"),
    pytest.param(np.eye(8), pure(GHZ), id="identity-ghz"),
    pytest.param(np.eye(8), pure(W), id="identity-w"),
])
def test_quantum_mip_matches_loop(unitary, rho):
    assert_every_quantum_pair_matches(unitary, rho)


def catalog_quantum_cases():
    """Each quantum catalog example's unitary and state, as parsed."""
    for name in example_names():
        request = parse_request(example_request(name))
        if request.backend == "quantum":
            yield pytest.param(request.system.unitary, request.rho_t, id=name)


def memo_states(value):
    """Every state in a memo value: bare, in a repertoire, in a table or in (tuples of) mechanisms."""
    if isinstance(value, DensityMatrix):
        yield value
    elif isinstance(value, qm.QuantumRepertoire):
        yield value.rho
    elif isinstance(value, qm._Table):
        for rep in value.reps.values():
            yield from memo_states(rep)
    elif isinstance(value, tuple):
        for item in value:
            yield from memo_states(item)


@pytest.mark.filterwarnings("ignore:cause repertoire blocks do not commute",
                            "ignore:symmetrized cause repertoire not PSD")
@pytest.mark.parametrize("unitary, rho", [*haar_cases(), *catalog_quantum_cases()])
def test_every_memoized_state_is_valid(unitary, rho):
    """The states derived unchecked in an unfold all pass the ``DensityMatrix`` checks."""
    system = qm.QuantumSystem(unitary)
    qm.unfold(system, rho)
    by_dim: dict[int, list[np.ndarray]] = {}
    for value in system._memo.values():
        for state in memo_states(value):
            by_dim.setdefault(state.dim, []).append(state.data)
    assert {2, 2 ** system.n_qubits} <= by_dim.keys()
    for matrices in by_dim.values():
        check_density_matrices(np.stack(matrices), system.tol)


def memoized_repertoires(system):
    """(purview, probabilities) of every memoized repertoire and nonempty purview table slice."""
    for value in system._memo.values():
        if isinstance(value, cl.ClassicalRepertoire):
            yield value.purview, value.probabilities
        if isinstance(value, cl._Table):
            for purview, rows in purview_slices(system):
                if not np.isnan(value.probabilities[rows]).any():
                    yield purview, value.probabilities[rows]


def assert_memoized_repertoires_are_distributions(system):
    """Every memoized repertoire is read-only and sums to 1, none below 0."""
    reps = list(memoized_repertoires(system))
    assert reps
    for purview, probs in reps:
        assert not probs.flags.writeable, purview
        assert abs(float(probs.sum()) - 1.0) <= 1e-9 and float(probs.min()) >= -1e-9, purview


@pytest.mark.parametrize("name", [n for n in example_names()
                                  if example_request(n)["backend"] == "classical"])
def test_every_memoized_classical_repertoire_is_a_distribution_on_the_catalog(name):
    request = parse_request(example_request(name))
    cl.unfold(request.system, request.state_t, request.state_t1)
    assert_memoized_repertoires_are_distributions(request.system)


@settings(max_examples=20, deadline=None)
@given(st.one_of(networks(), networks(min_units=3, max_units=3, background=1)))
def test_every_memoized_classical_repertoire_is_a_distribution(net):
    """The repertoires built unchecked in an unfold, with and without a background unit."""
    system, state = net
    cl.unfold(system, state, state)
    assert_memoized_repertoires_are_distributions(system)


def full_states(system):
    """Every state of the system that agrees with its background."""
    clamped = dict(zip(system.background_units, system.background_state))
    return [s for s in system.subset_states(range(system.n_units))
            if all(s[u] == v for u, v in clamped.items())]


def fresh_copy(system):
    """A system on the same inputs, with an empty memo."""
    background = (system.background_units, system.background_state)
    return cl.ClassicalSystem(system.unit_state_counts, system.tpm,
                              background if system.background_units else None, system.tol)


def assert_sweep_matches_fresh_systems(system):
    """``system`` unfolded at every state gives, under ``==``, what a fresh system gives.

    Afterwards no part table is left in the memo, and every memoized
    repertoire is still a distribution.
    """
    for state in full_states(system):
        got = cl.unfold(system, state, state)
        assert got == cl.unfold(fresh_copy(system), state, state), state
    assert not [key for key in system._memo if key[0] == "parts"]
    assert_memoized_repertoires_are_distributions(system)


@pytest.mark.parametrize("name", [n for n in example_names()
                                  if example_request(n)["backend"] == "classical"])
def test_sweep_matches_fresh_systems_on_the_catalog(name):
    """Also byte for byte in the JSON report, the example's own states last."""
    shared = parse_request(example_request(name)).system
    assert_sweep_matches_fresh_systems(shared)
    docs = [{**example_request(name), "state_t": list(s), "state_t1": list(s)}
            for s in full_states(shared)]
    for doc in [*docs, example_request(name)]:
        fresh = parse_request(doc)
        got = render(run(dataclasses.replace(fresh, system=shared)), "json")
        assert got == render(run(fresh), "json"), doc["state_t"]


@settings(max_examples=8, deadline=None)
@given(networks())
def test_sweep_matches_fresh_systems(net):
    assert_sweep_matches_fresh_systems(net[0])


@settings(max_examples=5, deadline=None)
@given(networks(background=1))
def test_sweep_matches_fresh_systems_with_a_background_unit(net):
    assert_sweep_matches_fresh_systems(net[0])


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

    literal_cause = LiteralQuantum.cause_rho

    def literal_without_qubit_0(self, mechanism, purview):
        if mechanism.qubits == (0,):
            return None
        return literal_cause(self, mechanism, purview)

    # Scored with a repertoire, this cut is the minimum partition.
    cut = DisintegratingPartition.from_parts([((), (1,)), ((0,), (0,)), ((1,), ())])
    assert qm.mip(system, mech, (0, 1), "cause") == (cut, 1.0)
    monkeypatch.setattr(qm, "cause_repertoire", without_qubit_0)
    monkeypatch.setattr(LiteralQuantum, "cause_rho", literal_without_qubit_0)
    assert qm.phi(system, mech, (0, 1), cut, "cause") == math.inf
    theta, value = qm.mip(system, mech, (0, 1), "cause")
    assert theta != cut and value < math.inf
    assert_every_quantum_pair_matches(CNOT, rho)


def test_phi_is_zero_without_intrinsic_states_even_with_states_given(monkeypatch):
    """Both backends: an empty cause repertoire specifies nothing, whatever states are passed."""
    # Every source state goes to (0, 0): unit 0 in state 1 has no cause.
    unreachable = cl.ClassicalSystem([2, 2], np.eye(4)[[0, 0, 0, 0]])
    mech = cl.Mechanism((0,), (1,))
    cut = DisintegratingPartition.from_parts([((), (0,)), ((0,), ())])
    assert cl.intrinsic_information(unreachable, mech, (0,), "cause") == (0.0, None)
    assert cl.phi(unreachable, mech, (0,), cut, "cause") == 0.0
    assert cl.phi(unreachable, mech, (0,), cut, "cause", [0]) == 0.0

    system = qm.QuantumSystem(CNOT)
    mech = system.mechanism((0, 1), qm.apply_unitary(system.unitary, pure([0, 0, 1, 0])))
    cut = DisintegratingPartition.from_parts([((), (1,)), ((0,), (0,)), ((1,), ())])
    _, eigenstates = qm.intrinsic_information(system, mech, (0, 1), "cause")
    assert qm.phi(system, mech, (0, 1), cut, "cause", eigenstates) == 1.0
    cause_repertoire = qm.cause_repertoire

    def empty_for_the_whole_mechanism(sys, mechanism, purview):
        if mechanism.qubits == (0, 1):
            return None
        return cause_repertoire(sys, mechanism, purview)

    monkeypatch.setattr(qm, "cause_repertoire", empty_for_the_whole_mechanism)
    assert qm.intrinsic_information(system, mech, (0, 1), "cause") == (0.0, None)
    assert qm.phi(system, mech, (0, 1), cut, "cause") == 0.0
    assert qm.phi(system, mech, (0, 1), cut, "cause", eigenstates) == 0.0


@pytest.mark.parametrize("backend", [cl, qm], ids=["classical", "quantum"])
def test_search_reads_replaced_backend_attributes(backend, monkeypatch):
    """``phi_max`` calls the module attributes as they are at call time, not at import."""
    if backend is cl:
        system, mech = cl.ClassicalSystem([2, 2], COPY_XOR_TPM), cl.Mechanism((0,), (1,))
    else:
        system = qm.QuantumSystem(CNOT)
        mech = system.mechanism((0, 1), pure([0, 0, 1, 0]))
    calls = Counter()
    for name in ("intrinsic_information", "_score_partitions", "_max_norm_phi"):
        def counted(*args, name=name, original=getattr(backend, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(backend, name, counted)
    assert backend.phi_max(system, mech, "effect") is not None
    assert set(calls) == {"intrinsic_information", "_score_partitions", "_max_norm_phi"}


@pytest.mark.parametrize("part, message", [
    pytest.param(lambda dim: np.eye(dim) / dim + 0.1 * np.triu(np.ones((dim, dim)), 1),
                 "not Hermitian", id="unit-trace-not-hermitian"),
    pytest.param(lambda dim: np.diag([1.5, -0.5] + [0.0] * (dim - 2)),
                 "not positive semidefinite", id="hermitian-negative-eigenvalue"),
])
def test_quantum_mip_checks_every_partitioned_repertoire(monkeypatch, part, message):
    """A part repertoire that is not a state stops the search, as ``DensityMatrix`` would."""
    system = qm.QuantumSystem(CNOT)
    mech = system.mechanism((0, 1), pure([0, 0, 1, 0]))

    def bad_part_rho(*args):
        z_part = args[-2]
        return SimpleNamespace(data=part(2 ** len(z_part)).astype(complex))

    monkeypatch.setattr(qm, "_part_rho", bad_part_rho)
    with pytest.raises(ValidationError, match=message):
        qm.mip(system, mech, (0, 1), "effect")


# -- purview search ---------------------------------------------------------


def oracle_phi_max(sys, mechanism, m_units, candidates, direction, mip,
                   intrinsic_information, phi):
    """``search.phi_max`` as first written: the MIP of every purview, then every state re-scored."""
    if not m_units:
        raise ValidationError("mechanism must be nonempty")
    per_purview = {
        purview: mip(sys, mechanism, purview, direction)
        for purview in all_subsets(candidates)
    }
    best_phi = max(v for _, v in per_purview.values())
    if not best_phi > sys.tol:
        return None
    tied = [z for z, (_, v) in per_purview.items() if v >= best_phi - sys.tol]
    tied.sort(key=lambda z: (-len(z), z))
    selected = tied[0]
    theta, value = per_purview[selected]

    _, states = intrinsic_information(sys, mechanism, selected, direction)
    scored = [(phi(sys, mechanism, selected, theta, direction, [s]), s)
              for s in states]
    top = max(v for v, _ in scored)
    return search.Selection(
        purview=selected,
        states=[s for v, s in scored if v >= top - sys.tol],
        phi=max(value, 0.0),
        mip=theta,
        normalization=normalization(theta, m_units, selected),
        tied_purviews=tuple(tied[1:]),
    )


def same_states(got, want) -> bool:
    """Equal intrinsic states: classical state indices, or quantum (eigenvalue, vector) pairs."""
    if len(got) != len(want):
        return False
    return all(g == w if isinstance(g, int) else
               g[0] == w[0] and g[1].tobytes() == w[1].tobytes()
               for g, w in zip(got, want))


def mechanisms_of(system, state):
    """(backend, mechanism, mechanism units, candidates, direction) of every subset, both ways.

    ``state`` is a classical (state_t, state_t1) pair or a quantum ``rho_t``.
    """
    if isinstance(system, qm.QuantumSystem):
        for direction in ("effect", "cause"):
            base = state if direction == "effect" else apply_unitary(system.unitary, state)
            for qubits in all_subsets(system.qubit_range()):
                yield (qm, system.mechanism(qubits, base), qubits, system.qubit_range(),
                       direction)
        return
    for direction, full in zip(("effect", "cause"), state):
        for units in all_subsets(system.candidate_units):
            mech = cl.Mechanism(units, system.state_of(full, units))
            yield cl, mech, units, system.candidate_units, direction


def max_norm_row(m_units, purview) -> int:
    """The index of {(-, Z), (M, -)} in the canonical enumeration of the pair."""
    theta = DisintegratingPartition.from_parts([((), purview), (m_units, ())])
    return enumerate_disintegrating(m_units, purview).index(theta)


def assert_search_matches_oracle(system, state):
    """Every selection equals the oracle's; every bound equals its row, and bounds phi_MIP."""
    for backend, mech, m_units, candidates, direction in mechanisms_of(system, state):
        where = (direction, m_units)
        args = (system, mech, m_units, candidates, direction)
        got = search.phi_max(backend._backend(), system, mech, candidates, direction)
        want = oracle_phi_max(*args, backend.mip, backend.intrinsic_information, backend.phi)
        assert (got is None) == (want is None), where
        if got is not None:
            assert same_states(got.states, want.states), where
            assert got._replace(states=None) == want._replace(states=None), where
        for purview in all_subsets(candidates):
            _, states = backend.intrinsic_information(system, mech, purview, direction)
            if states is None:
                continue
            shape = partition_shape(len(m_units), len(purview))
            row = backend._score_partitions(system, mech, purview, direction, states,
                                            shape.slots, shape.part_m, shape.part_z)
            bound = backend._max_norm_phi(system, mech, purview, direction, states)
            assert bound == row[max_norm_row(m_units, purview)], (where, purview)
            assert backend.mip(system, mech, purview, direction)[1] <= bound


def catalog_case(name, tolerance):
    """(system, state) of a catalog example parsed at ``tolerance``."""
    request = parse_request(example_request(name), tolerance=tolerance)
    if request.backend == "quantum":
        return request.system, request.rho_t
    return request.system, (request.state_t, request.state_t1 or request.state_t)


@pytest.mark.filterwarnings("ignore:cause repertoire blocks do not commute",
                            "ignore:symmetrized cause repertoire not PSD")
@pytest.mark.parametrize("tolerance", [cl.DEFAULT_TOL, 0.25])
@pytest.mark.parametrize("name", example_names())
def test_search_matches_every_purview_oracle_on_the_catalog(name, tolerance):
    """Also at a tolerance wide enough for both stopping rules to act near it."""
    assert_search_matches_oracle(*catalog_case(name, tolerance))


@settings(max_examples=30, deadline=None)
@given(networks(), st.data())
def test_search_matches_every_purview_oracle_on_small_networks(net, data):
    system, state_t = net
    state_t1 = tuple(data.draw(st.integers(0, c - 1)) for c in system.unit_state_counts)
    assert_search_matches_oracle(system, (state_t, state_t1))


@settings(max_examples=10, deadline=None)
@given(networks(min_units=3, max_units=4, background=1)
       .filter(lambda net: net[0].num_states <= 24))
def test_search_matches_every_purview_oracle_with_a_background_unit(net):
    system, state = net
    assert_search_matches_oracle(system, (state, state))


def three_qubit_cases():
    rng = np.random.default_rng(48271)
    for rank, kind in ((1, "pure"), (1, "pure"), (8, "mixed"), (3, "mixed")):
        u = random_unitary(rng, 8)
        yield pytest.param(qm.QuantumSystem(u), random_density(rng, 8, rank), id=f"3q-{kind}")


@pytest.mark.filterwarnings("ignore:cause repertoire blocks do not commute",
                            "ignore:symmetrized cause repertoire not PSD")
@pytest.mark.parametrize("system, rho", [*three_qubit_cases()])
def test_search_matches_every_purview_oracle_on_three_qubits(system, rho):
    assert_search_matches_oracle(system, rho)


# -- quantum purview tables --------------------------------------------------


def per_purview_qid(rho, tol):
    """``intrinsic_information``'s qid as last computed, one purview at a time.

    ``hermitian_eig`` of the repertoire, its overlaps with the stored I/d
    eigensystem and the pointwise scores over numpy scalars.
    """
    er, es = hermitian_eig(rho, tol=tol), qm._mixed_states()[len(rho.dims)][1]
    overlap = np.abs(er.eigenvectors.conj().T @ es.eigenvectors) ** 2
    p, q = np.clip(er.eigenvalues, 0.0, None), np.clip(es.eigenvalues, 0.0, None)
    scores = np.array([qm._eigen_score(p[i], overlap[i], q, tol) for i in range(len(p))])
    value = float(np.max(scores))
    if math.isinf(value):
        winners = [i for i in range(len(p)) if math.isinf(scores[i])]
    else:
        winners = [i for i in range(len(p)) if scores[i] >= value - tol]
    return value, [(float(p[i]), qm.fix_global_phase(er.eigenvectors[:, i].copy()))
                   for i in winners]


def per_row_phi_against(w, v, eigenstates, tol):
    """``quantum._phi_against`` as last written: one overlap product per row, numpy scalars."""
    q = np.clip(w, 0.0, None)
    return np.array([
        max([0.0, *(qm._eigen_score(p_i, np.abs(vec.conj() @ v[i]) ** 2, q[i], tol)
                    for p_i, vec in eigenstates)])
        for i in range(len(w))
    ])


def assert_quantum_tables_match(system, rho):
    """Every searched mechanism's table equals its per-purview forms, byte for byte.

    The repertoire, the qid value, each intrinsic eigenvalue and eigenvector,
    and the max-norm bound of every purview.
    """
    for _, mech, m_units, candidates, direction in mechanisms_of(system, rho):
        scores = qm._scores(system, mech, direction)
        reps = qm._table(system, mech, direction).reps
        for purview in all_subsets(candidates):
            where = (direction, m_units, purview)
            rep, want = reps[purview], literal(system).repertoire(mech, purview, direction)
            assert same_bytes(rep and rep.rho.data, want and want.data), where
            if rep is None:
                assert purview not in scores, where
                continue
            value, states, bound = scores[purview]
            want_value, want_states = per_purview_qid(rep.rho, system.tol)
            assert float_bytes(value) == float_bytes(want_value), where
            assert [float_bytes(p) for p, _ in states] == [float_bytes(p) for p, _ in want_states]
            assert [v.tobytes() for _, v in states] == [v.tobytes() for _, v in want_states]
            es = qm._mixed_states()[len(purview)][1]
            want_bound = per_row_phi_against(es.eigenvalues[np.newaxis],
                                             es.eigenvectors[np.newaxis], want_states, system.tol)
            assert float_bytes(bound) == want_bound[0].tobytes(), where
            assert qm.intrinsic_information(system, mech, purview, direction)[1] == states


@pytest.mark.filterwarnings("ignore:cause repertoire blocks do not commute",
                            "ignore:symmetrized cause repertoire not PSD")
@pytest.mark.parametrize("tolerance", [cl.DEFAULT_TOL, 0.25])
@pytest.mark.parametrize("name", [n for n in example_names()
                                  if example_request(n)["backend"] == "quantum"])
def test_quantum_tables_match_the_per_purview_forms_on_the_catalog(name, tolerance):
    assert_quantum_tables_match(*catalog_case(name, tolerance))


@pytest.mark.filterwarnings("ignore:cause repertoire blocks do not commute",
                            "ignore:symmetrized cause repertoire not PSD")
@pytest.mark.parametrize("system, rho", [*three_qubit_cases()])
def test_quantum_tables_match_the_per_purview_forms_on_three_qubits(system, rho):
    assert_quantum_tables_match(system, rho)


@st.composite
def haar_systems(draw):
    """A Haar-random 1-3 qubit unitary with a random state, pure (rank 1) or mixed."""
    n = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 2 ** n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return qm.QuantumSystem(random_unitary(rng, 2 ** n)), random_density(rng, 2 ** n, rank)


@pytest.mark.filterwarnings("ignore:cause repertoire blocks do not commute",
                            "ignore:symmetrized cause repertoire not PSD")
@settings(max_examples=15, deadline=None)
@given(haar_systems())
def test_quantum_tables_match_the_per_purview_forms(case):
    assert_quantum_tables_match(*case)


@pytest.mark.parametrize("n", [1, 3, 49, 193])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_batched_overlaps_equal_the_per_row_products(d, n):
    """``_phi_against``'s one product per eigenstate, against an eigenvector stack."""
    rng = np.random.default_rng([d, n])
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    _, v = sort_descending(*np.linalg.eigh(g + g.conj().transpose(0, 2, 1)))
    for vec in (v[0][:, 0], rng.standard_normal(d) + 1j * rng.standard_normal(d)):
        got = np.abs(vec.conj() @ v) ** 2
        for i in range(n):
            assert got[i].tobytes() == (np.abs(vec.conj() @ v[i]) ** 2).tobytes(), i


@pytest.mark.parametrize("direction", ["cause", "effect"])
def test_the_first_failing_repertoire_of_a_table_names_the_error(monkeypatch, direction):
    """Planted in the middle of the size-1 group and in the size-2 group: the first names it.

    A cause fails as the ``DensityMatrix`` check would fail it, an effect as
    ``hermitian_eig`` would, and nothing unchecked is kept.
    """
    system = qm.QuantumSystem(I_CNOT)
    mech = system.mechanism((0, 1, 2), pure(GHZ))
    if direction == "cause":
        bad = {(1,): np.diag([1.5, -0.5]), (0, 2): np.diag([1.25, -0.25, 0.0, 0.0])}
        error, check = ValidationError, DensityMatrix
    else:
        bad = {(1,): np.array([[0.5, 0.25], [0.0, 0.5]]), (0, 2): np.eye(4) / 4 + np.triu(
            np.full((4, 4), 0.5), 1)}
        error, check = NumericError, hermitian_eig
    build = qm._cause if direction == "cause" else qm._effect

    def planted(sys, mechanism, purview):
        if mechanism.qubits == (0, 1, 2) and purview in bad:
            return qm.QuantumRepertoire(purview, qm._freeze(bad[purview].astype(complex),
                                                            (2,) * len(purview)), (purview,))
        return build(sys, mechanism, purview)

    monkeypatch.setattr(qm, "_cause" if direction == "cause" else "_effect", planted)
    with pytest.raises(error) as want:
        check(bad[(1,)].astype(complex))
    with pytest.raises(error) as got:
        qm.intrinsic_information(system, mech, (0, 1, 2), direction)
    assert str(got.value) == str(want.value)
    assert qm._table(system, mech, direction).reps == {}
    if direction == "cause":
        with pytest.raises(error, match="not positive semidefinite"):
            qm.cause_repertoire(system, mech, (0, 2))


def test_stored_mixed_eigensystems_are_the_stack_check_of_i_over_d():
    """The bound scores I/d from the eigensystem the MIP stack check would compute."""
    for n, (rho, eig) in qm._mixed_states().items():
        w, v = sort_descending(*check_density_matrices(rho.data[np.newaxis]))
        assert eig.eigenvalues.tobytes() == w[0].tobytes()
        assert eig.eigenvectors.tobytes() == v[0].tobytes()


def test_search_skips_purviews_and_rescores_only_tied_states(monkeypatch):
    """Fewer MIPs than purviews; ``phi`` re-scores only a selection with several states."""
    request = parse_request(example_request("ghz-identity"))
    system = request.system
    mip_calls, phi_calls, purviews = [], [], 0
    search_mip, search_phi = search.mip, search.phi
    monkeypatch.setattr(search, "mip", lambda *args: mip_calls.append(args) or search_mip(*args))
    monkeypatch.setattr(search, "phi", lambda *args: phi_calls.append(args) or search_phi(*args))
    for backend, mech, m_units, candidates, direction in mechanisms_of(system, request.rho_t):
        phi_calls.clear()
        found = search.phi_max(qm._backend(), system, mech, candidates, direction)
        purviews += len(all_subsets(candidates))
        if found is not None:
            _, states = qm.intrinsic_information(system, mech, found.purview, direction)
            assert len(phi_calls) == (0 if len(states) == 1 else len(states))
    assert 0 < len(mip_calls) < purviews


def test_mip_argmin_keeps_the_lexsort_tie_rule(copy_xor):
    """Random tied scores: the MIP is the first row by (phi / norm, phi)."""
    rng = np.random.default_rng(5)
    shape = partition_shape(2, 2)
    mech = cl.Mechanism((0, 1), (1, 0))
    for _ in range(200):
        values = rng.choice([0.0, 0.5, 1.0, 2.0, math.inf], size=len(shape.slots))
        backend = search.Backend(lambda m: m.units, lambda *args: (1.0, (0,)),
                                 lambda *args: values.copy(), None)
        row, value = search.mip(backend, copy_xor, mech, (0, 1), "effect")
        best = int(np.lexsort((values, values / shape.norms))[0])
        assert row == best and value == values[best]


def test_mip_rejects_nan_scores(copy_xor):
    mech = cl.Mechanism((0, 1), (1, 0))
    with pytest.raises(NumericError, match="NaN"):
        search.mip(search.Backend(lambda m: m.units, lambda *args: (1.0, (0,)),
                                  lambda *args: np.array([0.5, math.nan, 1.0]), None),
                   copy_xor, mech, (0,), "effect")
