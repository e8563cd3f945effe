"""Quantum pipeline: conditioned outputs, entanglement structure, QID, unfolding."""

from __future__ import annotations

import math
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import (
    BELL_PLUS, CNOT, GHZ, S2, W, CountingMemo, ket, pure, random_density, random_unitary,
)
from mechphi import quantum as qm
from mechphi.errors import ValidationError
from mechphi.partitions import DisintegratingPartition
from mechphi.quantum import (
    QuantumMechanism,
    QuantumSystem,
    cause_repertoire,
    conditioned_output,
    effect_repertoire,
    entanglement_partition,
    identity_structure,
    intrinsic_information,
    mip,
    partitioned_repertoire,
    phi,
    phi_max,
    qid,
    quantum_relative_entropy,
    unfold,
)
from mechphi.search import all_subsets
from mechphi.tensor import DensityMatrix, EigenDecomposition, partial_trace

CLASSICAL_MIX = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex))
PLUS = np.array([S2, S2])
MINUS = np.array([S2, -S2])


def mech(sys: QuantumSystem, qubits, state: DensityMatrix) -> QuantumMechanism:
    return QuantumMechanism(tuple(qubits), state)


def theta(*parts) -> DisintegratingPartition:
    return DisintegratingPartition.from_parts(parts)


class TestConditionedOutput:
    def test_control_copies_through(self, cnot_system):
        out = conditioned_output(
            cnot_system, mech(cnot_system, (0,), pure(ket(1))), (0,), "effect"
        )
        assert np.allclose(out.data, np.outer(ket(1), ket(1)))

    def test_hadamard_basis_control(self, cnot_system):
        m = mech(cnot_system, (1,), pure(PLUS))
        over_d = conditioned_output(cnot_system, m, (1,), "effect")
        assert np.allclose(over_d.data, np.outer(PLUS, PLUS))
        over_c = conditioned_output(cnot_system, m, (0,), "effect")
        assert np.allclose(over_c.data, np.eye(2) / 2)

    def test_bell_state_generation(self, cnot_system):
        m = mech(cnot_system, (0, 1), pure(np.kron(PLUS, ket(0))))
        out = conditioned_output(cnot_system, m, (0, 1), "effect")
        assert np.allclose(out.data, np.outer(BELL_PLUS, BELL_PLUS))

    def test_cause_runs_the_inverse(self, cnot_system):
        m = mech(cnot_system, (0, 1), pure(ket(1, 1)))
        out = conditioned_output(cnot_system, m, (0, 1), "cause")
        assert np.allclose(out.data, np.outer(ket(1, 0), ket(1, 0)))

    def test_dimension_mismatch_rejected(self, cnot_system):
        with pytest.raises(ValidationError):
            conditioned_output(
                cnot_system, QuantumMechanism((0,), CLASSICAL_MIX), (0,), "effect"
            )

    def test_unordered_mechanism_qubits_rejected(self, cnot_system):
        with pytest.raises(ValidationError, match="ascending"):
            conditioned_output(
                cnot_system, QuantumMechanism((1, 0), CLASSICAL_MIX), (0,), "effect"
            )


class TestEntanglementPartition:
    def test_product_state_fully_splits(self):
        p = entanglement_partition(pure(ket(0, 0, 0)))
        assert p == ((0,), (1,), (2,))

    def test_ghz_is_one_block(self):
        p = entanglement_partition(pure(GHZ))
        assert p == ((0, 1, 2),)

    def test_bell_pair_is_one_block(self):
        assert entanglement_partition(pure(BELL_PLUS)) == ((0, 1),)

    def test_classical_correlation_splits(self):
        assert entanglement_partition(CLASSICAL_MIX) == ((0,), (1,))

    def test_w_state_and_its_mixed_reductions(self):
        assert entanglement_partition(pure(W)) == ((0, 1, 2),)
        reduced = partial_trace(pure(W), [0, 1])
        assert entanglement_partition(reduced) == ((0, 1),)

    def test_partial_product_mixed_state(self):
        rho = DensityMatrix(np.kron(np.eye(2) / 2, CLASSICAL_MIX.data), dims=(2, 2, 2))
        assert entanglement_partition(rho) == ((0,), (1,), (2,))

    def test_entangled_pair_with_spectator(self):
        rho = DensityMatrix(
            0.5 * np.kron(np.eye(2), np.outer(BELL_PLUS, BELL_PLUS))
            + 0.0 * np.eye(8),
            dims=(2, 2, 2),
        )
        assert entanglement_partition(rho) == ((0,), (1, 2))


class TestEffectRepertoire:
    def test_extraneous_correlation_discounted(self, cnot_system):
        rep = effect_repertoire(cnot_system, mech(cnot_system, (1,), pure(ket(0))), (0, 1))
        assert np.allclose(rep.rho.data, np.eye(4) / 4)
        assert rep.structure_partition == ((0,), (1,))

    def test_entangled_output_kept_whole(self, cnot_system):
        m = mech(cnot_system, (0, 1), pure(np.kron(PLUS, ket(0))))
        rep = effect_repertoire(cnot_system, m, (0, 1))
        assert np.allclose(rep.rho.data, np.outer(BELL_PLUS, BELL_PLUS))
        assert rep.structure_partition == ((0, 1),)

    def test_mixed_mechanism_factorizes(self, cnot_system):
        rep = effect_repertoire(cnot_system, mech(cnot_system, (0, 1), CLASSICAL_MIX), (0, 1))
        expected = np.kron(np.eye(2) / 2, np.outer(ket(0), ket(0)))
        assert np.allclose(rep.rho.data, expected)

    def test_non_contiguous_entangled_block_reassembles(self):
        # qubits 0 and 2 maximally entangled, qubit 1 a spectator
        psi = np.zeros(8, dtype=complex)
        psi[0b000] = S2
        psi[0b101] = S2
        sys = QuantumSystem(np.eye(8))
        rep = effect_repertoire(sys, sys.mechanism((0, 1, 2), pure(psi)), (0, 1, 2))
        assert rep.structure_partition == ((0, 2), (1,))
        assert np.max(np.abs(rep.rho.data - np.outer(psi, psi.conj()))) < 1e-12

    def test_product_structure_invariant(self, cnot_system):
        # the repertoire equals the product of its own block reductions
        for qubits, state in [((1,), pure(ket(0))), ((0, 1), CLASSICAL_MIX)]:
            rep = effect_repertoire(cnot_system, mech(cnot_system, qubits, state), (0, 1))
            rebuilt = np.ones((1, 1), dtype=complex)
            for block in rep.structure_partition:
                positions = [rep.purview.index(q) for q in block]
                rebuilt = np.kron(rebuilt, partial_trace(rep.rho, positions).data)
            assert np.max(np.abs(rebuilt - rep.rho.data)) < 1e-8


class TestCauseRepertoire:
    def test_joint_output_pins_input(self, cnot_system):
        rep = cause_repertoire(cnot_system, mech(cnot_system, (0, 1), pure(ket(1, 1))), (0, 1))
        assert np.allclose(rep.rho.data, np.outer(ket(1, 0), ket(1, 0)))

    def test_mixed_case_leaves_entangled_looking_span(self, cnot_system):
        rep = cause_repertoire(cnot_system, mech(cnot_system, (1,), pure(ket(0))), (0, 1))
        assert np.allclose(rep.rho.data, np.diag([0.5, 0, 0, 0.5]))

    def test_single_block_reduces_to_conditioned_output(self, cnot_system):
        m = mech(cnot_system, (0,), pure(ket(1)))
        rep = cause_repertoire(cnot_system, m, (0, 1))
        direct = conditioned_output(cnot_system, m, (0, 1), "cause")
        assert np.allclose(rep.rho.data, direct.data)

    def test_non_commuting_blocks_symmetrize_with_warning(self):
        from conftest import random_density, random_unitary

        rng = np.random.default_rng(7)
        for _ in range(500):
            sys = QuantumSystem(random_unitary(rng, 4))
            state = random_density(rng, 4)
            m = sys.mechanism((0, 1), state)
            if len(entanglement_partition(m.state)) < 2:
                continue
            for purview in [(0,), (1,), (0, 1)]:
                import warnings as _w

                with _w.catch_warnings(record=True) as rec:
                    _w.simplefilter("always")
                    rep = cause_repertoire(sys, m, purview)
                if rec:
                    assert "do not commute" in str(rec[0].message)
                    assert rep is not None
                    assert abs(np.trace(rep.rho.data).real - 1.0) < 1e-9
                    return
        pytest.fail("no non-commuting block product found in 500 draws")

    def test_product_over_mechanism_blocks(self, cnot_system):
        m = mech(cnot_system, (0, 1), pure(ket(1, 1)))
        rep = cause_repertoire(cnot_system, m, (0, 1))
        assert rep.mechanism_partition == ((0,), (1,))
        # oracle: multiply the two block conditioned outputs and normalize
        blocks = [
            conditioned_output(cnot_system, mech(cnot_system, (q,), pure(ket(1))), (0, 1),
                               "cause").data
            for q in (0, 1)
        ]
        prod = blocks[0] @ blocks[1]
        assert np.allclose(rep.rho.data, prod / np.trace(prod))


class TestRelativeEntropyAndQid:
    def test_identical_states(self):
        rho = CLASSICAL_MIX
        assert quantum_relative_entropy(rho, rho) == 0.0
        value, _ = qid(rho, rho)
        assert value == 0.0

    def test_pure_against_maximally_mixed(self):
        rho = pure(ket(0))
        mm = DensityMatrix(np.eye(2) / 2)
        assert abs(quantum_relative_entropy(rho, mm) - 1.0) < 1e-12
        value, states = qid(rho, mm)
        assert abs(value - 1.0) < 1e-12
        assert len(states) == 1 and abs(states[0][0] - 1.0) < 1e-12

    def test_support_violation_is_inf(self):
        rho = pure(PLUS)
        sigma = pure(ket(0))
        assert math.isinf(quantum_relative_entropy(rho, sigma))
        assert math.isinf(qid(rho, sigma)[0])

    def test_commuting_pair_matches_classical_kld(self):
        p = np.array([0.6, 0.3, 0.1, 0.0])
        q = np.array([0.25, 0.25, 0.25, 0.25])
        rho = DensityMatrix(np.diag(p).astype(complex))
        sigma = DensityMatrix(np.diag(q).astype(complex))
        expected = sum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0)
        assert abs(quantum_relative_entropy(rho, sigma) - expected) < 1e-12

    def test_commuting_pair_matches_classical_id(self):
        p = np.array([0.6, 0.3, 0.1, 0.0])
        q = np.array([0.1, 0.2, 0.3, 0.4])
        rho = DensityMatrix(np.diag(p).astype(complex))
        sigma = DensityMatrix(np.diag(q).astype(complex))
        expected = max(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0)
        value, states = qid(rho, sigma)
        assert abs(value - expected) < 1e-12
        assert len(states) == 1 and abs(states[0][0] - 0.6) < 1e-12

    def test_pure_rho_equals_relative_entropy(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rho = DensityMatrix.from_pure(v)
            sigma = random_density(rng, 4)
            assert abs(qid(rho, sigma)[0] - quantum_relative_entropy(rho, sigma)) < 1e-9

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(22)
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        u = random_unitary(rng, 4)
        rho2 = DensityMatrix(u @ rho.data @ u.conj().T)
        sigma2 = DensityMatrix(u @ sigma.data @ u.conj().T)
        assert abs(qid(rho, sigma)[0] - qid(rho2, sigma2)[0]) < 1e-8
        assert abs(quantum_relative_entropy(rho, sigma)
                   - quantum_relative_entropy(rho2, sigma2)) < 1e-8


class TestIntrinsicInformation:
    def test_copied_control_gives_one_ibit(self, cnot_system):
        value, states = intrinsic_information(
            cnot_system, mech(cnot_system, (0,), pure(ket(1))), (0,), "effect"
        )
        assert abs(value - 1.0) < 1e-12
        assert np.allclose(np.abs(states[0][1]), [0, 1])

    def test_bell_output_gives_two_ibits(self, cnot_system):
        m = mech(cnot_system, (0, 1), pure(np.kron(PLUS, ket(0))))
        value, states = intrinsic_information(cnot_system, m, (0, 1), "effect")
        assert abs(value - 2.0) < 1e-12
        assert abs(abs(np.vdot(states[0][1], BELL_PLUS)) - 1.0) < 1e-9

    def test_uninformative_mechanism_gives_zero(self, cnot_system):
        value, _ = intrinsic_information(
            cnot_system, mech(cnot_system, (1,), pure(ket(0))), (0, 1), "effect"
        )
        assert abs(value) < 1e-12


class TestPartitionedRepertoire:
    def test_full_cut_is_maximally_mixed(self, cnot_system):
        m = mech(cnot_system, (0, 1), pure(np.kron(PLUS, ket(0))))
        th = theta(((0, 1), ()), ((), (0, 1)))
        rep = partitioned_repertoire(cnot_system, m, (0, 1), th, "effect")
        assert np.allclose(rep.data, np.eye(4) / 4)

    def test_cut_that_changes_nothing(self, cnot_system):
        # |0><0| (x) I/2: the control copies itself, the mixed target stays mixed
        m = mech(cnot_system, (0, 1), DensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex)))
        th = theta(((0,), (0,)), ((1,), (1,)))
        rep = partitioned_repertoire(cnot_system, m, (0, 1), th, "effect")
        unpart = effect_repertoire(cnot_system, m, (0, 1))
        assert np.allclose(rep.data, unpart.rho.data)
        assert abs(phi(cnot_system, m, (0, 1), th, "effect")) < 1e-12

    def test_single_live_part_reduces_to_its_repertoire(self, cnot_system):
        m = mech(cnot_system, (0, 1), pure(ket(1, 0)))
        th = theta(((0,), (0, 1)), ((1,), ()))
        rep = partitioned_repertoire(cnot_system, m, (0, 1), th, "effect")
        alone = effect_repertoire(cnot_system, mech(cnot_system, (0,), pure(ket(1))), (0, 1))
        assert np.allclose(rep.data, alone.rho.data)

    @pytest.mark.parametrize("direction", ["effect", "cause"])
    def test_invalid_mechanism_is_rejected(self, cnot_system, direction):
        m = mech(cnot_system, (5,), pure(ket(1)))
        th = theta(((5,), ()), ((), (0, 1)))
        with pytest.raises(ValidationError, match="out of range"):
            partitioned_repertoire(cnot_system, m, (0, 1), th, direction)

    @pytest.mark.parametrize("direction", ["effect", "cause"])
    def test_partition_of_another_pair_is_rejected(self, cnot_system, direction):
        m = mech(cnot_system, (0,), pure(ket(1)))
        th = theta(((), (0, 1)), ((1,), ()))  # a partition of mechanism (1,)
        for score in (phi, partitioned_repertoire):
            with pytest.raises(ValidationError, match="not a disintegrating partition"):
                score(cnot_system, m, (0, 1), th, direction)


class TestPhiAndMip:
    def test_control_copy_phi_one(self, cnot_system):
        m = mech(cnot_system, (0,), pure(ket(1)))
        assert abs(mip(cnot_system, m, (0,), "effect")[1] - 1.0) < 1e-12

    def test_bell_phi_two_at_mip(self, cnot_system):
        m = mech(cnot_system, (0, 1), pure(np.kron(PLUS, ket(0))))
        assert abs(mip(cnot_system, m, (0, 1), "effect")[1] - 2.0) < 1e-12

    def test_phi_zero_when_partition_preserves_repertoire(self, cnot_system):
        m = mech(cnot_system, (0, 1), pure(np.kron(ket(0), PLUS)))
        th = theta(((0,), (0,)), ((1,), (1,)))
        assert abs(phi(cnot_system, m, (0, 1), th, "effect")) < 1e-12

    def test_degenerate_state_phi(self, cnot_system):
        # the |0> target constrains the parity subspace of the inputs
        m = mech(cnot_system, (1,), pure(ket(0)))
        value = mip(cnot_system, m, (0, 1), "cause")[1]
        assert abs(value - 0.5) < 1e-12


class TestPhiMaxAndUnfold:
    def test_classical_input_matches_copy_xor(self, cnot_system):
        ds = unfold(cnot_system, pure(ket(1, 0)))
        table = {(d.direction, d.mechanism_qubits, d.purview): d for d in ds}
        assert set(table) == {
            ("effect", (0,), (0,)), ("effect", (0, 1), (0, 1)),
            ("cause", (0,), (0,)), ("cause", (1,), (0, 1)),
            ("cause", (0, 1), (0, 1)),
        }
        assert abs(table[("cause", (1,), (0, 1))].phi - 0.5) < 1e-9
        sub = table[("cause", (1,), (0, 1))].intrinsic_state
        assert sub.kind == "subspace"
        assert np.allclose(sub.projector(), np.diag([0, 1, 1, 0]))

    def test_bell_case_second_order_only(self, cnot_system):
        ds = unfold(cnot_system, pure(np.kron(PLUS, ket(0))))
        assert {(d.direction, d.mechanism_qubits) for d in ds} == {
            ("effect", (0, 1)), ("cause", (0, 1)),
        }
        assert all(abs(d.phi - 2.0) < 1e-9 for d in ds)

    def test_bell_state_as_input(self, cnot_system):
        # entangled input: the pair acts as one unit on the effect side, but
        # the product-state output leaves definite single-qubit causes behind
        ds = unfold(cnot_system, pure(BELL_PLUS))
        table = {(d.direction, d.mechanism_qubits): d for d in ds}
        assert set(table) == {
            ("effect", (0, 1)),
            ("cause", (0,)), ("cause", (1,)), ("cause", (0, 1)),
        }
        assert abs(table[("effect", (0, 1))].phi - 2.0) < 1e-9
        # cause side: keeping either single output attached to the whole input
        # purview costs only 1 ibit, because the cause product (unlike the
        # effect repertoire) is not re-factorized over the purview
        assert abs(table[("cause", (0, 1))].phi - 1.0) < 1e-9
        for single in [(0,), (1,)]:
            d = table[("cause", single)]
            assert abs(d.phi - 0.5) < 1e-9
            assert d.purview == (0, 1)

    def test_explicit_mechanism_selection(self, cnot_system):
        ds = unfold(cnot_system, pure(ket(1, 0)), directions=("effect",),
                    mechanisms=[(0,)])
        assert len(ds) == 1 and ds[0].mechanism_qubits == (0,)

    def test_repeated_mechanism_qubit_is_an_error(self, cnot_system):
        with pytest.raises(ValidationError, match="mechanism units must be distinct"):
            unfold(cnot_system, pure(ket(1, 0)), mechanisms=[[0], [0, 0]])

    def test_separable_case_first_order_only(self, cnot_system):
        ds = unfold(cnot_system, pure(np.kron(ket(0), PLUS)))
        assert all(d.order == 1 for d in ds)
        assert len(ds) == 4 and all(abs(d.phi - 1.0) < 1e-9 for d in ds)

    def test_mixed_state_case(self, cnot_system):
        ds = unfold(cnot_system, CLASSICAL_MIX)
        assert len(ds) == 2
        effect = next(d for d in ds if d.direction == "effect")
        cause = next(d for d in ds if d.direction == "cause")
        assert effect.mechanism_qubits == (0, 1) and effect.purview == (1,)
        assert abs(effect.phi - 1.0) < 1e-9
        assert np.allclose(effect.intrinsic_state.projector(), np.diag([1, 0]))
        assert cause.mechanism_qubits == (1,) and cause.purview == (0, 1)
        assert abs(cause.phi - 0.5) < 1e-9
        assert cause.intrinsic_state.kind == "subspace"
        assert np.allclose(cause.intrinsic_state.projector(), np.diag([1, 0, 0, 1]))

    def test_hadamard_basis_input(self, cnot_system):
        ds = unfold(cnot_system, pure(np.kron(MINUS, PLUS)), directions=("effect",))
        table = {d.mechanism_qubits: d for d in ds}
        assert set(table) == {(1,), (0, 1)}
        assert abs(table[(1,)].phi - 1.0) < 1e-9
        assert abs(table[(0, 1)].phi - 1.0) < 1e-9


class TestIdentityStructure:
    def test_basis_state_first_order_only(self):
        ds = identity_structure(pure(ket(0, 0, 0)))
        assert [d.mechanism_qubits for d in ds] == [(0,), (1,), (2,)]
        assert all(abs(d.phi - 1.0) < 1e-9 for d in ds)

    def test_ghz_single_third_order_constraint(self):
        ds = identity_structure(pure(GHZ))
        assert len(ds) == 1
        assert ds[0].mechanism_qubits == (0, 1, 2)
        assert abs(ds[0].phi - 3.0) < 1e-9

    def test_bell_pair_is_a_single_second_order_constraint(self):
        ds = identity_structure(pure(BELL_PLUS))
        assert len(ds) == 1
        assert ds[0].mechanism_qubits == (0, 1)
        assert abs(ds[0].phi - 2.0) < 1e-9

    def test_w_state_all_orders_with_closed_forms(self):
        ds = identity_structure(pure(W))
        by_order = {}
        for d in ds:
            by_order.setdefault(d.order, []).append(d)
        assert set(by_order) == {1, 2, 3}
        first = 2.0 / 3.0 * math.log2(4.0 / 3.0)
        second = 2.0 / 3.0 * (2.0 - math.log2(1.5))
        assert all(abs(d.phi - first) < 1e-9 for d in by_order[1])
        assert all(abs(d.phi - second) < 1e-9 for d in by_order[2])
        assert abs(by_order[3][0].phi - 3.0) < 1e-9


class TestThreeQubitExtension:
    def test_subsystem_results_preserved_with_third_order_additions(self):
        sys = QuantumSystem(np.kron(np.eye(2), CNOT))
        ds = unfold(sys, pure(GHZ))
        table = {(d.direction, d.mechanism_qubits, d.purview): d for d in ds}

        eff = table[("effect", (1, 2), (2,))]
        assert abs(eff.phi - 1.0) < 1e-9
        assert np.allclose(eff.intrinsic_state.projector(), np.diag([1, 0]))

        cause = table[("cause", (2,), (1, 2))]
        assert abs(cause.phi - 0.5) < 1e-9
        assert np.allclose(cause.intrinsic_state.projector(), np.diag([1, 0, 0, 1]))

        third = [d for d in ds if d.order == 3]
        assert {d.direction for d in third} == {"effect", "cause"}
        assert all(d.purview == (0, 1, 2) for d in third)


def haar_mixed_case():
    rng = np.random.default_rng(7)
    return random_unitary(rng, 8), random_density(rng, 8, 3)


class TestMemo:
    @pytest.mark.parametrize("unitary, rho", [
        pytest.param(np.kron(np.eye(2), CNOT), pure(GHZ), id="icnot-ghz"),
        pytest.param(*haar_mixed_case(), id="haar-mixed"),
    ])
    def test_each_intermediate_is_built_once(self, monkeypatch, unitary, rho):
        """One 3-qubit unfold builds every purview-independent intermediate once.

        Evolved states, part reductions, cause blocks and purview tables are
        each stored once, keyed by one shared bytes object per mechanism
        state; the embed and evolve steps of ``conditioned_output`` run once
        per distinct (direction, mechanism qubits, state).  Exactly the
        searched mechanisms' tables are scored, each with one stacked ``eigh``
        per purview size.  Otherwise only each MIP stack's check and the
        check of each cause repertoire a part mechanism asks for run ``eigh``,
        once each; ``hermitian_eig`` never runs.
        """
        sys = QuantumSystem(unitary)
        sys._memo = CountingMemo()
        mechanisms, steps = set(), Counter()
        conditioned = qm.conditioned_output

        def recording_conditioned(sys, mechanism, purview, direction):
            mechanisms.add((direction, mechanism.qubits, mechanism.state.data.tobytes()))
            return conditioned(sys, mechanism, purview, direction)

        def counting(name, fn):
            def counted(*args, **kwargs):
                steps[name] += 1
                return fn(*args, **kwargs)
            return counted

        scopes: list[list] = []  # [name, stacked eigh calls] of each running wrapped call
        runs: list[tuple] = []  # (name, stacked eigh calls, args, result) of each finished one
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            if np.ndim(a) == 3:
                steps["stacked eigh"] += 1
                scopes[-1][1] += 1  # an IndexError here: a stacked eigh outside the scopes
            return eigh(a, *args, **kwargs)

        def scoped(name, fn):
            def run(*args):
                scopes.append([name, 0])
                result = fn(*args)
                runs.append((*scopes.pop(), args, result))
                return result
            return run

        qm._mixed_states()  # the shared I/d states, built before counting starts
        monkeypatch.setattr(qm, "conditioned_output", recording_conditioned)
        for name in ("_embed_with_mixed", "apply_unitary", "apply_unitary_adjoint",
                     "hermitian_eig"):
            monkeypatch.setattr(qm, name, counting(name, getattr(qm, name)))
        for name in ("_scores", "_score_partitions", "_read"):
            monkeypatch.setattr(qm, name, scoped(name, getattr(qm, name)))
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            unfold(sys, rho)

        kinds = Counter(key[0] for key in sys._memo.stores)
        assert all(kinds[k] for k in ("evolved", "reduced", "blocks", "pt")), kinds
        assert max(sys._memo.stores.values()) == 1
        evolved = {key[1:] for key in sys._memo.stores if key[0] == "evolved"}
        assert evolved == mechanisms
        assert steps["_embed_with_mixed"] == len(mechanisms)
        causes = len({m for m in mechanisms if m[0] == "cause"})
        assert steps["apply_unitary_adjoint"] == causes
        # unfold evolves the system state once to get the cause mechanisms
        assert steps["apply_unitary"] == len(mechanisms) - causes + 1
        assert steps["hermitian_eig"] == 0
        searched = set()
        for direction in ("effect", "cause"):
            base = rho if direction == "effect" else qm.apply_unitary(sys.unitary, rho)
            for qubits in all_subsets(sys.qubit_range()):
                searched.add((direction, qubits, sys.mechanism(qubits, base).state.data.tobytes()))
        scored = {key[1:] for key, value in sys._memo.items()
                  if isinstance(value, qm._Table) and value.scores is not None}
        assert scored == searched
        built, checked = set(), Counter()
        for name, calls, args, result in runs:
            mech = args[1]
            if name == "_scores":
                table = (args[2], mech.qubits, mech.state.data.tobytes())
                # the first read builds the table: one stacked eigh per purview size
                assert calls == (0 if table in built else len({len(z) for z in result}))
                built.add(table)
            elif name == "_read":  # a miss checks a nonempty cause repertoire alone
                assert calls <= (args[3] == "cause" and result is not None)
                checked[args[3], mech.qubits, mech.state.data.tobytes(), args[2]] += calls
        assert built == scored
        assert max(checked.values()) <= 1
        stacks = [calls for name, calls, *_ in runs if name == "_score_partitions"]
        assert stacks and max(stacks) == 1
        assert steps["stacked eigh"] == sum(calls for _, calls, *_ in runs)
        if np.linalg.matrix_rank(rho.data) > 1:  # the PPT and symmetrization paths ran
            assert any("do not commute" in str(w.message) for w in caught)
        # Every key shares one bytes object per distinct mechanism state.
        state_bytes: dict[bytes, set[int]] = {}
        for key in sys._memo:
            for part in key if isinstance(key, tuple) else (key,):
                if isinstance(part, bytes):
                    state_bytes.setdefault(part, set()).add(id(part))
        assert {m[2] for m in mechanisms} <= state_bytes.keys()
        assert all(len(ids) == 1 for ids in state_bytes.values())

    def test_first_mixed_states_call_builds_every_eigensystem(self, monkeypatch):
        calls = Counter()
        hermitian_eig = qm.hermitian_eig

        def counting_eig(rho, *args, **kwargs):
            calls[rho.dim] += 1
            return hermitian_eig(rho, *args, **kwargs)

        monkeypatch.setattr(qm, "hermitian_eig", counting_eig)
        qm._mixed_states.cache_clear()
        mixed = qm._mixed_states()
        assert calls == {2: 1, 4: 1, 8: 1}
        for n, (rho, eig) in mixed.items():
            assert isinstance(eig, EigenDecomposition)
            assert rho.data.tobytes() == DensityMatrix.maximally_mixed(n).data.tobytes()
            assert np.array_equal(eig.eigenvalues, np.full(2**n, 1.0 / 2**n))
        assert qm._mixed_states() is mixed and calls.total() == 3
