"""Randomized property suites over the information measures and pipelines.

Matrix-heavy properties run seeded numpy loops (200 instances each); purely
combinatorial and distribution-level properties use hypothesis.
"""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BELL_PLUS,
    CNOT,
    pure,
    random_ci_tpm,
    random_density,
    random_permutation_tpm,
    random_unitary,
)
from mechphi import classical as cl
from mechphi import quantum as qm
from mechphi.partitions import enumerate_disintegrating
from mechphi.tensor import DensityMatrix, hermitian_eig, partial_trace
from test_partitions import as_canonical_set, oracle_disintegrating

N_INSTANCES = 200


def distributions(min_size=2, max_size=8):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=min_size, max_size=max_size)
        .map(lambda xs: np.array(xs) / np.sum(xs))
    )


class TestIntrinsicDifferenceProperties:
    @settings(max_examples=N_INSTANCES, deadline=None)
    @given(distributions(), st.randoms(use_true_random=False))
    def test_nonnegative_on_shared_support(self, p, rnd):
        q = np.array([rnd.uniform(0.01, 1.0) for _ in p])
        q /= q.sum()
        value, _ = cl.intrinsic_difference(p, q)
        assert value >= -1e-12

    @settings(max_examples=N_INSTANCES, deadline=None)
    @given(distributions())
    def test_zero_on_identical(self, p):
        value, _ = cl.intrinsic_difference(p, p)
        assert abs(value) < 1e-12

    @settings(max_examples=N_INSTANCES, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 7), st.randoms(use_true_random=False))
    def test_matches_kld_for_deterministic_p(self, size, hot, rnd):
        hot = hot % size
        p = np.zeros(size)
        p[hot] = 1.0
        q = np.array([rnd.uniform(0.01, 1.0) for _ in range(size)])
        q /= q.sum()
        value, states = cl.intrinsic_difference(p, q)
        assert abs(value - cl.kld(p, q)) < 1e-12
        assert states == (hot,)


class TestQidProperties:
    def test_matches_classical_id_on_commuting_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(N_INSTANCES):
            dim = int(rng.integers(2, 9))
            basis = random_unitary(rng, dim)
            p = _gapped_distribution(rng, dim)
            q = rng.dirichlet(np.ones(dim))
            rho = DensityMatrix((basis * p) @ basis.conj().T, dims=(dim,))
            sigma = DensityMatrix((basis * q) @ basis.conj().T, dims=(dim,))
            expected = max(
                pi * math.log2(pi / qi) if qi > 1e-9 else math.inf
                for pi, qi in zip(p, q) if pi > 1e-9
            )
            value, _ = qm.qid(rho, sigma)
            assert abs(value - max(expected, 0.0)) < 1e-9

    def test_equals_relative_entropy_for_pure_rho(self):
        rng = np.random.default_rng(102)
        for _ in range(N_INSTANCES):
            dim = int(rng.integers(2, 9))
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            rho = DensityMatrix.from_pure(vec, dims=(dim,))
            sigma = random_density(rng, dim, qubit_dims=False)
            s = qm.quantum_relative_entropy(rho, sigma)
            value, _ = qm.qid(rho, sigma)
            assert abs(value - s) < 1e-9

    def test_invariant_under_joint_conjugation(self):
        rng = np.random.default_rng(103)
        for _ in range(N_INSTANCES):
            dim = int(rng.integers(2, 9))
            rho = random_density(rng, dim, qubit_dims=False)
            sigma = random_density(rng, dim, qubit_dims=False)
            u = random_unitary(rng, dim)
            rho2 = DensityMatrix(u @ rho.data @ u.conj().T, dims=(dim,))
            sigma2 = DensityMatrix(u @ sigma.data @ u.conj().T, dims=(dim,))
            assert abs(qm.qid(rho, sigma)[0] - qm.qid(rho2, sigma2)[0]) < 1e-8
            assert abs(
                qm.quantum_relative_entropy(rho, sigma)
                - qm.quantum_relative_entropy(rho2, sigma2)
            ) < 1e-8


def _gapped_distribution(rng, dim, gap=1e-3):
    """Probability vector with well-separated entries (stable eigenpairing)."""
    while True:
        p = rng.dirichlet(np.ones(dim))
        q = np.sort(p)
        if np.min(np.diff(q)) > gap:
            return p


class TestPartitionEnumeration:
    @pytest.mark.parametrize("m_size,z_size", list(product([1, 2, 3], repeat=2)))
    def test_exhaustive_oracle_equality(self, m_size, z_size):
        mechanism = tuple(range(m_size))
        purview = tuple(range(5, 5 + z_size))
        got = enumerate_disintegrating(mechanism, purview)
        assert as_canonical_set(got) == oracle_disintegrating(mechanism, purview)

    def test_random_label_sets_match_relabeled_oracle(self):
        rng = np.random.default_rng(104)
        oracle_cache = {}
        for _ in range(N_INSTANCES):
            m_size = int(rng.integers(1, 4))
            z_size = int(rng.integers(1, 4))
            labels = rng.choice(50, size=m_size + z_size, replace=False)
            mechanism = tuple(sorted(int(u) for u in labels[:m_size]))
            purview = tuple(sorted(int(u) for u in labels[m_size:]))
            key = (m_size, z_size)
            if key not in oracle_cache:
                oracle_cache[key] = oracle_disintegrating(range(m_size), range(m_size, m_size + z_size))
            relabel = dict(zip(range(m_size), mechanism))
            relabel.update(zip(range(m_size, m_size + z_size), purview))
            expected = {
                frozenset(
                    (frozenset(relabel[u] for u in mp), frozenset(relabel[u] for u in zp))
                    for mp, zp in theta
                )
                for theta in oracle_cache[key]
            }
            got = enumerate_disintegrating(mechanism, purview)
            assert as_canonical_set(got) == expected


class TestPptFlags:
    def test_bell_state_flagged_entangled(self):
        assert len(qm.entanglement_partition(pure(BELL_PLUS))) == 1

    def test_classical_correlation_flagged_separable(self):
        mix = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex))
        assert len(qm.entanglement_partition(mix)) == 2

    def test_random_product_mixtures_stay_separable(self):
        rng = np.random.default_rng(105)
        for _ in range(N_INSTANCES):
            # convex mixtures of product states are separable by construction
            rho = np.zeros((4, 4), dtype=complex)
            weights = rng.dirichlet(np.ones(3))
            for w in weights:
                a = random_density(rng, 2, rank=1)
                b = random_density(rng, 2, rank=1)
                rho += w * np.kron(a.data, b.data)
            assert len(qm.entanglement_partition(DensityMatrix(rho))) == 2


class TestTensorProperties:
    def test_reduction_of_product_recovers_factor(self):
        rng = np.random.default_rng(106)
        for _ in range(N_INSTANCES):
            a = random_density(rng, 2)
            b = random_density(rng, int(rng.integers(1, 3)) * 2)
            joint = DensityMatrix(np.kron(a.data, b.data), dims=(2,) * (1 + b.n_subsystems))
            back = partial_trace(joint, [0])
            assert np.max(np.abs(back.data - a.data)) < 1e-9

    def test_eigendecomposition_reconstructs(self):
        rng = np.random.default_rng(107)
        for _ in range(N_INSTANCES):
            dim = int(rng.integers(2, 9))
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = g + g.conj().T
            eig = hermitian_eig(h)
            v, w = eig.eigenvectors, eig.eigenvalues
            assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-9
            ortho = eig.eigenvectors.conj().T @ eig.eigenvectors
            assert np.max(np.abs(ortho - np.eye(dim))) < 1e-9


class TestRepertoireNormalization:
    def test_classical_repertoires_normalize(self):
        rng = np.random.default_rng(108)
        done = 0
        while done < N_INSTANCES:
            counts = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4)))]
            if int(np.prod(counts)) > 32:
                continue
            sys = cl.ClassicalSystem(counts, random_ci_tpm(rng, counts))
            units = tuple(range(len(counts)))
            m_units = tuple(sorted(rng.choice(units, size=int(rng.integers(1, len(counts) + 1)),
                                              replace=False)))
            state = tuple(int(rng.integers(0, counts[u])) for u in m_units)
            purview = tuple(sorted(rng.choice(units, size=int(rng.integers(1, len(counts) + 1)),
                                              replace=False)))
            mech = cl.Mechanism(m_units, state)
            eff = cl.effect_repertoire(sys, mech, purview)
            assert abs(eff.probabilities.sum() - 1.0) < 1e-9
            cause = cl.cause_repertoire(sys, mech, purview)
            assert cause is not None
            assert abs(cause.probabilities.sum() - 1.0) < 1e-9
            for theta in enumerate_disintegrating(m_units, purview)[:4]:
                part = cl.partitioned_repertoire(sys, mech, purview, theta, "effect")
                assert abs(part.probabilities.sum() - 1.0) < 1e-9
            done += 1

    @pytest.mark.filterwarnings("ignore:cause repertoire blocks do not commute")
    def test_quantum_repertoires_are_unit_trace_product_states(self):
        rng = np.random.default_rng(109)
        for _ in range(40):
            sys = qm.QuantumSystem(random_unitary(rng, 4))
            state = random_density(rng, 4)
            for qubits in [(0,), (1,), (0, 1)]:
                mech = sys.mechanism(qubits, state)
                for purview in [(0,), (1,), (0, 1)]:
                    for rep in (qm.effect_repertoire(sys, mech, purview),
                                qm.cause_repertoire(sys, mech, purview)):
                        assert rep is not None
                        assert abs(np.trace(rep.rho.data).real - 1.0) < 1e-9
                        rebuilt = np.ones((1, 1), dtype=complex)
                        for block in rep.structure_partition:
                            positions = [rep.purview.index(q) for q in block]
                            rebuilt = np.kron(
                                rebuilt, partial_trace(rep.rho, positions).data
                            )
                        assert np.max(np.abs(rebuilt - rep.rho.data)) < 1e-8


class TestFunctionalIndependence:
    def test_no_effect_information_across_independent_blocks(self):
        rng = np.random.default_rng(110)
        for _ in range(40):
            counts_a = [2] * int(rng.integers(1, 3))
            counts_b = [2]
            tpm = np.kron(random_ci_tpm(rng, counts_a), random_ci_tpm(rng, counts_b))
            sys = cl.ClassicalSystem(counts_a + counts_b, tpm)
            a_units = tuple(range(len(counts_a)))
            b_units = (len(counts_a),)
            state = tuple(int(rng.integers(0, 2)) for _ in a_units)
            value, _ = cl.intrinsic_information(
                sys, cl.Mechanism(a_units, state), b_units, "effect"
            )
            assert abs(value) < 1e-9

    def test_copy_xor_unit_b_has_no_effect_on_the_pair(self, copy_xor):
        value, _ = cl.intrinsic_information(
            copy_xor, cl.Mechanism((1,), (0,)), (0, 1), "effect"
        )
        assert abs(value) < 1e-9


class TestMipIsTheMinimum:
    def test_normalized_score_at_mip_bounds_all_partitions(self, copy_xor):
        from mechphi.partitions import normalization

        for units, state, purview, direction in [
            ((0, 1), (1, 0), (0, 1), "effect"),
            ((0,), (1,), (0, 1), "cause"),
            ((0, 1), (1, 1), (0, 1), "cause"),
        ]:
            mech = cl.Mechanism(units, state)
            theta_star, value = cl.mip(copy_xor, mech, purview, direction)
            best = value / normalization(theta_star, units, purview)
            _, states = cl.intrinsic_information(copy_xor, mech, purview, direction)
            for theta in enumerate_disintegrating(units, purview):
                v = cl.phi(copy_xor, mech, purview, theta, direction, states)
                assert best <= v / normalization(theta, units, purview) + 1e-12


class TestClassicalQuantumConvergence:
    """Deterministic reversible dynamics analyzed both ways must agree."""

    @staticmethod
    def embed_as_unitary(tpm: np.ndarray) -> np.ndarray:
        return tpm.T.astype(complex)

    @staticmethod
    def computational_projector(states, purview, counts) -> np.ndarray:
        dim = int(np.prod([counts[u] for u in purview]))
        proj = np.zeros((dim, dim))
        for s in states:
            idx = 0
            for pos, u in enumerate(purview):
                idx = idx * counts[u] + s[pos]
            proj[idx, idx] = 1.0
        return proj

    def compare(self, tpm: np.ndarray, n_units: int, state_t: tuple[int, ...]):
        csys = cl.ClassicalSystem([2] * n_units, tpm)
        row = int(np.argmax(tpm[int("".join(map(str, state_t)), 2)]))
        state_t1 = tuple(int(b) for b in format(row, f"0{n_units}b"))
        cds = cl.unfold(csys, state_t=state_t, state_t1=state_t1)

        qsys = qm.QuantumSystem(self.embed_as_unitary(tpm))
        vec = np.zeros(2**n_units, dtype=complex)
        vec[int("".join(map(str, state_t)), 2)] = 1.0
        qds = qm.unfold(qsys, pure(vec))

        ckeys = {(d.direction, d.mechanism_units, d.purview): d for d in cds}
        qkeys = {(d.direction, d.mechanism_qubits, d.purview): d for d in qds}
        assert set(ckeys) == set(qkeys)
        for key, cd in ckeys.items():
            qd = qkeys[key]
            assert abs(cd.phi - qd.phi) < 1e-9, key
            cproj = self.computational_projector(
                cd.intrinsic_states, cd.purview, [2] * n_units
            )
            assert np.max(np.abs(qd.intrinsic_state.projector() - cproj)) < 1e-9, key

    def test_cnot_against_copy_xor_all_inputs(self):
        tpm = CNOT.real
        for state in product([0, 1], repeat=2):
            self.compare(tpm, 2, state)

    def test_every_two_unit_permutation(self):
        base = np.eye(4)
        for perm in permutations(range(4)):
            self.compare(base[list(perm)], 2, (1, 0))

    def test_sampled_three_unit_permutations(self):
        rng = np.random.default_rng(111)
        for _ in range(3):
            tpm = random_permutation_tpm(rng, 8)
            self.compare(tpm, 3, (1, 0, 1))
