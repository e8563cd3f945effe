"""Tensor substrate: traces, transposes, permutations, eigensystems."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import BELL_PLUS, CNOT, GHZ, S2, ket, pure, random_density, random_unitary
from mechphi.errors import NumericError, ValidationError
from mechphi.tensor import (
    DensityMatrix,
    UnitaryOperator,
    apply_unitary,
    apply_unitary_adjoint,
    hermitian_eig,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    purity,
)

CLASSICAL_MIX = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex))


def trace_out_oracle(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Direct index-summation partial trace, independent of the implementation."""
    from itertools import product

    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((dk, dk), dtype=complex)
    kept_states = list(product(*[range(dims[i]) for i in keep]))
    traced_states = list(product(*[range(dims[i]) for i in traced]))

    def full_index(kept_vals, traced_vals):
        vals = [0] * n
        for i, v in zip(keep, kept_vals):
            vals[i] = v
        for i, v in zip(traced, traced_vals):
            vals[i] = v
        idx = 0
        for i in range(n):
            idx = idx * dims[i] + vals[i]
        return idx

    for a, sa in enumerate(kept_states):
        for b, sb in enumerate(kept_states):
            for st in traced_states:
                out[a, b] += rho[full_index(sa, st), full_index(sb, st)]
    return out


class TestPartialTrace:
    def test_product_state(self):
        rho = DensityMatrix(np.kron(np.outer(ket(0), ket(0)), np.outer(ket(1), ket(1))))
        reduced = partial_trace(rho, [0])
        assert np.allclose(reduced.data, np.outer(ket(0), ket(0)))

    def test_bell_marginal_maximally_mixed(self):
        reduced = partial_trace(pure(BELL_PLUS), [0])
        assert np.allclose(reduced.data, np.eye(2) / 2)

    def test_ghz_against_summation_oracle(self):
        rho = pure(GHZ)
        reduced = partial_trace(rho, [0, 1])
        expected = trace_out_oracle(rho.data, [2, 2, 2], [0, 1])
        assert np.allclose(reduced.data, expected)
        assert np.allclose(reduced.data, np.diag([0.5, 0, 0, 0.5]))

    def test_trace_preserved_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_density(rng, 8)
            for keep in ([0], [1, 2], [0, 2]):
                reduced = partial_trace(rho, keep)
                assert abs(np.trace(reduced.data) - 1.0) < 1e-12
                oracle = trace_out_oracle(rho.data, [2, 2, 2], list(keep))
                assert np.allclose(reduced.data, oracle)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValidationError):
            partial_trace(pure(BELL_PLUS), [])

    def test_bad_index_rejected(self):
        with pytest.raises(ValidationError):
            partial_trace(pure(BELL_PLUS), [2])


class TestHermitianEig:
    def test_maximally_mixed_qubit(self):
        eig = hermitian_eig(np.eye(2) / 2)
        assert np.allclose(eig.eigenvalues, [0.5, 0.5])
        assert np.allclose(eig.eigenvectors.conj().T @ eig.eigenvectors, np.eye(2))

    def test_plus_projector(self):
        plus = np.array([S2, S2])
        eig = hermitian_eig(np.outer(plus, plus))
        assert np.allclose(eig.eigenvalues, [1.0, 0.0])
        top = eig.eigenvectors[:, 0]
        assert abs(abs(np.vdot(top, plus)) - 1.0) < 1e-12

    def test_already_diagonal(self):
        eig = hermitian_eig(np.diag([0.7, 0.3]).astype(complex))
        assert np.allclose(eig.eigenvalues, [0.7, 0.3])
        assert abs(abs(eig.eigenvectors[0, 0]) - 1.0) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(NumericError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_on_random_hermitian(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4, 8):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = g + g.conj().T
            eig = hermitian_eig(h)
            v, w = eig.eigenvectors, eig.eigenvalues
            assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-9


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rho = DensityMatrix(np.kron(np.outer(ket(0), ket(0)), np.eye(2) / 2))
        pt = partial_transpose(rho, 1)
        assert np.allclose(sorted(np.linalg.eigvalsh(pt)), sorted(np.linalg.eigvalsh(rho.data)))
        assert float(np.min(np.linalg.eigvalsh(pt))) >= -1e-12

    def test_bell_state_negative_eigenvalue(self):
        pt = partial_transpose(pure(BELL_PLUS), 1)
        assert abs(float(np.min(np.linalg.eigvalsh(pt))) - (-0.5)) < 1e-12

    def test_classically_correlated_mix_is_ppt(self):
        pt = partial_transpose(CLASSICAL_MIX, 0)
        assert float(np.min(np.linalg.eigvalsh(pt))) >= -1e-12

    def test_bad_subsystem_rejected(self):
        with pytest.raises(ValidationError):
            partial_transpose(CLASSICAL_MIX, 5)


class TestPurity:
    def test_pure_state(self):
        assert abs(purity(pure(BELL_PLUS)) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(DensityMatrix(np.eye(2) / 2)) - 0.5) < 1e-12

    def test_against_matrix_square_oracle(self):
        assert abs(purity(CLASSICAL_MIX)
                   - float(np.trace(CLASSICAL_MIX.data @ CLASSICAL_MIX.data).real)) < 1e-12
        assert abs(purity(CLASSICAL_MIX) - 0.5) < 1e-12


class TestApplyUnitary:
    def test_identity(self):
        rho = CLASSICAL_MIX
        assert np.allclose(apply_unitary(UnitaryOperator(np.eye(4)), rho).data, rho.data)

    def test_cnot_on_basis_state(self):
        rho = pure(ket(1, 0))
        out = apply_unitary(UnitaryOperator(CNOT), rho)
        assert np.allclose(out.data, np.outer(ket(1, 1), ket(1, 1)))

    def test_adjoint_round_trip(self):
        rng = np.random.default_rng(5)
        u = UnitaryOperator(CNOT)
        for _ in range(10):
            rho = random_density(rng, 4)
            back = apply_unitary_adjoint(u, apply_unitary(u, rho))
            assert np.allclose(back.data, rho.data)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 4)
        u = UnitaryOperator(random_unitary(rng, 4))
        before = np.sort(np.linalg.eigvalsh(rho.data))
        after = np.sort(np.linalg.eigvalsh(apply_unitary(u, rho).data))
        assert np.allclose(before, after)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            apply_unitary(UnitaryOperator(np.eye(2)), CLASSICAL_MIX)


class TestValidation:
    def test_density_requires_unit_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_density_requires_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(m)

    def test_density_requires_psd(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError, match="semidefinite"):
            DensityMatrix(m)

    def test_unitary_residual_reported(self):
        with pytest.raises(ValidationError, match=r"U\^dag U"):
            UnitaryOperator(np.eye(2) * 0.9)

    def test_non_finite_rejected(self):
        m = np.diag([np.nan, 1.0])
        with pytest.raises(ValidationError, match="finite"):
            DensityMatrix(m)


class TestPermute:
    def test_permutation_round_trip(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 8)
        shuffled = permute_subsystems(rho.data, (2, 2, 2), [2, 0, 1])
        # shuffled has qubit 2 on axis 0, 0 on axis 1, 1 on axis 2; undo it.
        restored = permute_subsystems(shuffled, (2, 2, 2), [1, 2, 0])
        assert np.allclose(restored, rho.data)

    def test_kron_order_swap(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.eye(2, dtype=complex) / 2
        swapped = permute_subsystems(np.kron(b, a), (2, 2), [1, 0])
        assert np.allclose(swapped, np.kron(a, b))
