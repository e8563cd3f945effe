"""Dense complex-matrix substrate: density matrices, unitaries, tensor algebra.

Everything here targets small dense systems (a handful of qubits), so the
implementation favors clarity over scale.  States are checked where they
enter, by ``DensityMatrix(...)``; the maps below build theirs unchecked.  Basis
convention throughout the package: subsystem 0 is the most significant digit
of a computational-basis index (big-endian), which is what ``numpy.kron``
produces when factors are combined in ascending subsystem order.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericError, ValidationError

#: Default numeric tolerance for Hermiticity / trace / positivity checks.
DEFAULT_TOL = 1e-9

#: Default tolerance below which two eigenvalues count as degenerate.
DEFAULT_DEGENERACY_TOL = 1e-9


def _as_matrix(m) -> np.ndarray:
    data = m.data if isinstance(m, (DensityMatrix, UnitaryOperator)) else m
    arr = np.asarray(data, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _infer_qubit_dims(dim: int) -> tuple[int, ...]:
    n = max(dim, 1).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValidationError(
            f"dimension {dim} is not a power of two; pass subsystem dims explicitly"
        )
    return (2,) * n


def _check_dims(dims: Sequence[int] | None, dim: int) -> tuple[int, ...]:
    if dims is None:
        return _infer_qubit_dims(dim)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValidationError(f"subsystem dims must be positive, got {dims}")
    if int(np.prod(dims, dtype=np.int64)) != dim:
        raise ValidationError(f"dims {dims} do not multiply to matrix dimension {dim}")
    return dims


def check_density_matrices(stack: np.ndarray, tol: float = DEFAULT_TOL
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Raise ``ValidationError`` unless every matrix of ``stack`` (n, d, d) is a state.

    The checks, in order: finite entries, Hermitian within ``tol``, unit trace
    within ``tol`` and no eigenvalue of the Hermitian part below ``-tol``.  The
    first failing matrix, and its first failing check, name the error.  Returns
    ``np.linalg.eigh`` of the Hermitian parts, which the last check reads.
    """
    if not np.isfinite(stack).all():
        first = int(np.argmin(np.isfinite(stack).all(axis=(1, 2))))
        if first:
            check_density_matrices(stack[:first], tol)
        raise ValidationError("density matrix contains non-finite entries")
    herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).reshape(len(stack), -1).max(axis=1)
    tr = np.trace(stack, axis1=1, axis2=2)
    try:
        w, v = np.linalg.eigh(0.5 * (stack + stack.conj().transpose(0, 2, 1)))
    except np.linalg.LinAlgError:  # entries near the float limit: no state has them
        w, v = np.full(stack.shape[:2], -np.inf), None
    failed = (herm > tol) | (np.abs(tr - 1.0) > tol) | (w[:, 0] < -tol)
    if not failed.any():
        return w, v
    i = int(np.argmax(failed))
    if herm[i] > tol:
        raise ValidationError(
            f"not Hermitian: max |rho - rho^dag| = {herm[i]:.3e} exceeds tol {tol:.1e}"
        )
    if abs(tr[i] - 1.0) > tol:
        raise ValidationError(f"trace is {complex(tr[i]):.12g}, expected 1 within tol {tol:.1e}")
    raise ValidationError(f"not positive semidefinite: min eigenvalue {w[i, 0]:.3e} below -tol")


class DensityMatrix:
    """A density matrix with an explicit subsystem factorization.

    The constructor validates Hermiticity, unit trace and positive
    semidefiniteness (within ``tol``); states derived from valid states skip
    it (``_freeze``).  Instances are immutable and safe to share.
    """

    __slots__ = ("data", "dims")

    def __init__(self, data, dims: Sequence[int] | None = None, tol: float = DEFAULT_TOL):
        arr = _as_matrix(data)
        dims = _check_dims(dims, arr.shape[0])
        check_density_matrices(arr[np.newaxis], tol)
        _store(self, arr, dims)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @classmethod
    def from_pure(cls, amplitudes, dims: Sequence[int] | None = None,
                  tol: float = DEFAULT_TOL) -> "DensityMatrix":
        """Build |psi><psi| from a state vector (normalized on the way in)."""
        psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(psi))
        if norm < 1e-12:
            raise ValidationError("state vector has (near-)zero norm")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()), dims=dims, tol=tol)

    @classmethod
    def maximally_mixed(cls, dims: Sequence[int] | int) -> "DensityMatrix":
        dims = (2,) * dims if isinstance(dims, int) else tuple(int(d) for d in dims)
        dim = int(np.prod(dims, dtype=np.int64))
        return cls(np.eye(dim) / dim, dims=dims)

    def purity(self) -> float:
        return purity(self)

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self.dims}, purity={self.purity():.6g})"


def _store(obj, arr: np.ndarray, dims: tuple[int, ...]):
    arr = arr.copy()
    arr.setflags(write=False)
    object.__setattr__(obj, "data", arr)
    object.__setattr__(obj, "dims", dims)
    return obj


def _freeze(arr: np.ndarray, dims: Sequence[int]) -> DensityMatrix:
    """An unchecked ``DensityMatrix`` of a complex ``arr`` derived from valid states."""
    return _store(object.__new__(DensityMatrix), arr, tuple(dims))


class UnitaryOperator:
    """A validated unitary with an explicit subsystem factorization."""

    __slots__ = ("data", "dims")

    def __init__(self, data, dims: Sequence[int] | None = None, tol: float = DEFAULT_TOL):
        arr = _as_matrix(data)
        if not np.all(np.isfinite(arr)):
            raise ValidationError("unitary contains non-finite entries")
        dims = _check_dims(dims, arr.shape[0])
        resid = float(np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0]))))
        if resid > tol:
            raise ValidationError(
                f"not unitary: max |U^dag U - I| = {resid:.3e} exceeds tol {tol:.1e}"
            )
        _store(self, arr, dims)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("UnitaryOperator is immutable")

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"UnitaryOperator(dims={self.dims})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order, matching orthonormal column vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product; subsystem dims compose multiplicatively."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _canon_subsystems(subsystems: Iterable[int] | int, n: int, what: str) -> tuple[int, ...]:
    if isinstance(subsystems, (int, np.integer)):
        subsystems = (int(subsystems),)
    out = tuple(sorted({int(s) for s in subsystems}))
    if any(s < 0 or s >= n for s in out):
        raise ValidationError(f"{what} {out} out of range for {n} subsystems")
    return out


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on ``keep`` (ascending original subsystem order)."""
    keep = _canon_subsystems(keep, rho.n_subsystems, "keep set")
    if not keep:
        raise ValidationError("partial_trace: keep set must be nonempty")
    subscripts, kept, dk = _trace_plan(rho.dims, keep)
    arr = np.einsum(subscripts, rho.data.reshape(rho.dims * 2)).reshape(dk, dk)
    return _freeze(arr, kept)


@cache
def _trace_plan(dims: tuple[int, ...], keep: tuple[int, ...]) -> tuple[str, tuple[int, ...], int]:
    """``partial_trace``'s einsum subscripts, kept dims and kept size, built once per input."""
    n, letters = len(dims), string.ascii_lowercase
    row = letters[:n]
    col = "".join(letters[n + i] if i in keep else row[i] for i in range(n))
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    kept = tuple(dims[i] for i in keep)
    return row + col + "->" + out, kept, int(np.prod(kept, dtype=np.int64))


def partial_transpose(rho: DensityMatrix, subsystems: Iterable[int] | int) -> np.ndarray:
    """Transpose the named subsystems' indices only; Hermiticity is preserved."""
    subs = _canon_subsystems(subsystems, rho.n_subsystems, "subsystem")
    n = rho.n_subsystems
    t = rho.data.reshape(tuple(rho.dims) * 2)
    axes = list(range(2 * n))
    for s in subs:
        axes[s], axes[n + s] = axes[n + s], axes[s]
    return np.ascontiguousarray(t.transpose(axes).reshape(rho.dim, rho.dim))


def hermitian_eig(rho, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    w, v = (a[0] for a in hermitian_eigs(_as_matrix(rho)[np.newaxis], tol))
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(w, v)


def hermitian_eigs(stack: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``hermitian_eig`` of every matrix of a stack (n, d, d), by one ``eigh``.

    The first matrix that is not Hermitian within ``tol`` names the error.
    """
    herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).reshape(len(stack), -1).max(axis=1)
    if (herm > tol).any():
        raise NumericError(f"hermitian_eig: input not Hermitian "
                           f"(residual {herm[np.argmax(herm > tol)]:.3e} > tol {tol:.1e})")
    return sort_descending(*np.linalg.eigh(0.5 * (stack + stack.conj().transpose(0, 2, 1))))


def sort_descending(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked eigenpairs of ``np.linalg.eigh``, each row re-sorted descending.

    The sort is a stable argsort of the eigenvalues, and the eigenvector
    columns follow; both arrays are new and C-contiguous.
    """
    order = np.argsort(-w, axis=1, kind="stable")
    return (np.take_along_axis(w, order, axis=1),
            np.take_along_axis(v, order[:, np.newaxis, :], axis=2))


def purity(rho) -> float:
    """trace(rho^2); equals 1 for pure states, 1/dim for maximally mixed."""
    arr = _as_matrix(rho)
    return float(np.sum(np.abs(arr) ** 2).real)


def apply_unitary(u: UnitaryOperator, rho: DensityMatrix) -> DensityMatrix:
    """U rho U^dag; trace and spectrum are preserved."""
    if u.dim != rho.dim:
        raise ValidationError(f"dimension mismatch: unitary {u.dim} vs state {rho.dim}")
    return _freeze(u.data @ rho.data @ u.data.conj().T, rho.dims)


def apply_unitary_adjoint(u: UnitaryOperator, rho: DensityMatrix) -> DensityMatrix:
    """U^dag rho U, the inverse evolution for unitary dynamics."""
    if u.dim != rho.dim:
        raise ValidationError(f"dimension mismatch: unitary {u.dim} vs state {rho.dim}")
    return _freeze(u.data.conj().T @ rho.data @ u.data, rho.dims)


def permute_subsystems(arr: np.ndarray, dims: Sequence[int],
                       order: Sequence[int]) -> np.ndarray:
    """Reorder a matrix whose subsystem at axis position k is ``order[k]``.

    ``dims[q]`` is the dimension of the subsystem labeled q; the result has
    subsystems in ascending label order 0..n-1.
    """
    n = len(dims)
    order = [int(q) for q in order]
    if sorted(order) != list(range(n)):
        raise ValidationError(f"order {order} is not a permutation of 0..{n - 1}")
    pos = {q: k for k, q in enumerate(order)}
    cur_dims = tuple(dims[q] for q in order)
    t = np.asarray(arr, dtype=complex).reshape(cur_dims * 2)
    perm = [pos[q] for q in range(n)] + [n + pos[q] for q in range(n)]
    dim = int(np.prod(dims, dtype=np.int64))
    return np.ascontiguousarray(t.transpose(perm).reshape(dim, dim))
