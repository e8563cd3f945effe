"""Mechanism-level integrated information for unitary qubit systems.

Mirrors the classical pipeline in density-matrix form.  A mechanism is a
qubit subset with a (possibly mixed) reduced state; its conditioned output is
obtained by padding with maximally mixed qubits, applying the unitary (or its
adjoint for causes), and tracing down to the purview.  Causal marginalization
must respect entanglement: the effect repertoire is the tensor product of the
conditioned output's reduced states across its finest separable partition, so
extraneous classical correlations are discounted while entangled blocks stay
intact.  The cause repertoire is instead built from the mechanism's own
separable blocks, as a trace-normalized matrix product of their individually
conditioned inputs.  Scores use the eigenvector-maximized quantum intrinsic
difference; irreducibility and purview maximization proceed exactly as in the
classical case.

Tensor products of repertoires are formed by reading each factor into the
purview's basis layout and multiplying entrywise, which equals ``np.kron``
followed by a subsystem permutation bit for bit.  Every partitioned product
reads one table of part factors (``_part_table``); the MIP search scores all
partitions of a round's purviews as one stack of products, checked like any
``DensityMatrix`` and scored from the one batched ``eigh`` of that check.

Each (direction, mechanism) has one purview table (``_Table``).  A searched
mechanism's is scored once (``_scores``): every purview's repertoire, qid
against I/d and max-norm bound, from one stacked ``eigh`` per purview size.
numpy's ``eigh`` and ``matmul`` run the same LAPACK and inner-product calls
on each matrix of a stack as on it alone, so each stacked eigensystem and
overlap equals its per-purview one bit for bit.  Scores are taken over Python
floats, whose arithmetic is that of numpy's float64 scalars.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Literal, NamedTuple, Optional, Sequence

import numpy as np

from . import search
from .errors import ValidationError
from .partitions import (  # noqa: F401  enumerate_disintegrating is re-exported
    DisintegratingPartition,
    Units,
    enumerate_disintegrating,
    part_masks,
    relabel,
    set_partitions,
)
from .search import CAUSE, EFFECT, Direction
from .tensor import (
    DEFAULT_DEGENERACY_TOL,
    DEFAULT_TOL,
    DensityMatrix,
    EigenDecomposition,
    UnitaryOperator,
    _freeze,
    apply_unitary,
    apply_unitary_adjoint,
    check_density_matrices,
    hermitian_eig,
    hermitian_eigs,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    purity,
    sort_descending,
)


class QuantumMechanism(NamedTuple):
    """A qubit subset (ascending) with its reduced density matrix."""

    qubits: tuple[int, ...]
    state: DensityMatrix


@dataclass(frozen=True)
class QuantumRepertoire:
    """Density matrix a mechanism specifies over a purview (ascending qubits).

    ``structure_partition`` is the purview partition, as ascending qubit
    blocks, across which the matrix factorizes exactly: the finest separable
    partition of the conditioned output for effects, the trivial single block
    for causes (whose matrix product need not factorize).
    ``mechanism_partition`` records the mechanism-side separable blocks a
    cause repertoire was built from.
    """

    purview: tuple[int, ...]
    rho: DensityMatrix
    structure_partition: tuple[Units, ...]
    mechanism_partition: Optional[tuple[Units, ...]] = None


@dataclass(frozen=True)
class IntrinsicState:
    """Maximizing eigenvector(s) of a repertoire.

    ``kind`` is "subspace" when several vectors share a degenerate
    eigenvalue, otherwise "state" (tied non-degenerate vectors possible).
    """

    kind: Literal["state", "subspace"]
    eigenvalues: tuple[float, ...]
    vectors: tuple[np.ndarray, ...]

    def projector(self) -> np.ndarray:
        dim = self.vectors[0].shape[0]
        proj = np.zeros((dim, dim), dtype=complex)
        for v in self.vectors:
            proj += np.outer(v, v.conj())
        return proj


@dataclass(frozen=True)
class QuantumDistinction:
    """A quantum mechanism with its maximally irreducible cause or effect."""

    mechanism_qubits: tuple[int, ...]
    mechanism_state: DensityMatrix
    direction: Direction
    purview: tuple[int, ...]
    intrinsic_state: IntrinsicState
    phi: float
    mip: DisintegratingPartition
    normalization: int
    tied_purviews: tuple[tuple[int, ...], ...] = ()

    @property
    def order(self) -> int:
        return len(self.mechanism_qubits)


class QuantumSystem:
    """An n-qubit system evolving by a single unitary per update."""

    def __init__(self, unitary, tol: float = DEFAULT_TOL):
        u = unitary if isinstance(unitary, UnitaryOperator) else UnitaryOperator(unitary, tol=tol)
        if any(d != 2 for d in u.dims):
            raise ValidationError("quantum backend supports qubits only (all dims 2)")
        self.n_qubits = len(u.dims)
        if not 1 <= self.n_qubits <= 3:
            raise ValidationError(f"supported system sizes are 1..3 qubits, got {self.n_qubits}")
        self.unitary = u
        self.dims = u.dims
        self.tol = float(tol)
        self._memo: dict = {}

    def qubit_range(self) -> tuple[int, ...]:
        return tuple(range(self.n_qubits))

    def _check_qubits(self, qubits: Iterable[int], what: str) -> tuple[int, ...]:
        out = tuple(sorted({int(q) for q in qubits}))
        if any(q < 0 or q >= self.n_qubits for q in out):
            raise ValidationError(f"{what} qubits {out} out of range")
        return out

    def mechanism(self, qubits: Iterable[int], system_state: DensityMatrix) -> QuantumMechanism:
        """Mechanism over ``qubits`` in the reduced state of ``system_state``."""
        qubits = self._check_qubits(qubits, "mechanism")
        if len(system_state.dims) != self.n_qubits:
            raise ValidationError("system state does not match the qubit count")
        return QuantumMechanism(qubits, partial_trace(system_state, qubits))


@cache
def _mixed_states() -> dict[int, tuple[DensityMatrix, EigenDecomposition]]:
    """I/d and its eigensystem for 1-3 qubits, all built at a process's first call and shared."""
    states = {n: DensityMatrix.maximally_mixed(n) for n in (1, 2, 3)}
    return {n: (rho, hermitian_eig(rho)) for n, rho in states.items()}


def _maximally_mixed(purview: Sequence[int]) -> DensityMatrix:
    return _mixed_states()[len(purview)][0]


def _check_mechanism(sys: QuantumSystem, mechanism: QuantumMechanism) -> tuple[int, ...]:
    """The state matrix is only meaningful for strictly ascending qubits."""
    qubits = sys._check_qubits(mechanism.qubits, "mechanism")
    if tuple(mechanism.qubits) != qubits:
        raise ValidationError("mechanism qubits must be ascending and distinct, "
                              f"got {mechanism.qubits}")
    if mechanism.state.dim != 2 ** len(qubits):
        raise ValidationError(f"mechanism state dim {mechanism.state.dim} does not match "
                              f"{len(qubits)} qubits")
    return qubits


def _embed_with_mixed(state: DensityMatrix, qubits: Sequence[int], n: int) -> np.ndarray:
    """Place a state on ``qubits`` and maximally mixed qubits everywhere else."""
    rest = [q for q in range(n) if q not in qubits]
    arr = np.kron(state.data, np.eye(2 ** len(rest)) / 2 ** len(rest)) if rest else state.data
    return permute_subsystems(arr, (2,) * n, list(qubits) + rest)


def _state_bytes(sys: QuantumSystem, mechanism: QuantumMechanism) -> bytes:
    """The mechanism state's bytes for memo keys, one shared object per distinct state."""
    data = mechanism.state.data.tobytes()
    return sys._memo.setdefault(data, data)


def conditioned_output(sys: QuantumSystem, mechanism: QuantumMechanism,
                       purview: Iterable[int], direction: Direction) -> DensityMatrix:
    """Reduced state of the purview given the mechanism, everything else noised.

    Effects propagate forward through the unitary; causes run the adjoint,
    which is the inverse evolution.  The evolved system state depends on the
    purview only through the final partial trace, so it is memoized per
    (direction, mechanism).  The mechanism is checked on a memo miss only.
    """
    purview = sys._check_qubits(purview, "purview")
    if not purview:
        raise ValidationError("purview must be nonempty")
    key = ("evolved", direction, mechanism.qubits, _state_bytes(sys, mechanism))
    evolved = sys._memo.get(key)
    if evolved is None:
        qubits = _check_mechanism(sys, mechanism)
        embedded = _freeze(_embed_with_mixed(mechanism.state, qubits, sys.n_qubits), sys.dims)
        evolve = apply_unitary if direction == EFFECT else apply_unitary_adjoint
        evolved = sys._memo[key] = evolve(sys.unitary, embedded)
    return partial_trace(evolved, purview)


def entanglement_partition(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> tuple[Units, ...]:
    """Finest partition of the subsystems under which the state is separable.

    Pure states: a block can be split off exactly when its reduced state is
    pure, so the finest partition is found by scanning set partitions from
    finest to coarsest (``set_partitions``, whose blocks of ascending
    subsystem positions are returned).  Mixed states: each candidate block
    must have a positive partial transpose against the rest; this is
    necessary-only in general, so undetected entanglement can merge blocks
    but a split is never fabricated for a state the test can reject.  The
    single-block partition always passes.
    """
    k = len(rho.dims)
    pure = purity(rho) >= 1.0 - tol

    @cache
    def block_ok(block: tuple[int, ...]) -> bool:
        if len(block) == k:
            return True
        if pure:
            return purity(partial_trace(rho, block)) >= 1.0 - tol
        return float(np.min(np.linalg.eigvalsh(partial_transpose(rho, block)))) >= -tol

    return next(p for p in set_partitions(k) if all(block_ok(b) for b in p))


def _gather(purview: Sequence[int], factors: Sequence[Optional[tuple[Sequence[int], np.ndarray]]]
            ) -> tuple[np.ndarray, np.ndarray]:
    """Factor table: each (qubits, matrix) factor read into the purview's layout.

    Row j is E_j[a, b] = rho_j[sub_j(a), sub_j(b)], where sub_j reads factor
    j's qubits, in its order, from a big-endian purview index.  Returns the
    table and which of its rows hold a factor: not the None factors, nor the
    padding row ``len(factors)``.
    """
    k = len(purview)
    table = np.ones((len(factors) + 1, 2 ** k, 2 ** k), dtype=complex)
    used = np.zeros(len(factors) + 1, dtype=bool)
    for j, factor in enumerate(factors):
        if factor is None:
            continue
        qubits, rho = factor
        sub = _sub_index(tuple(purview), tuple(qubits))
        table[j] = rho[sub[:, np.newaxis], sub]
        used[j] = True
    return table, used


@cache
def _sub_index(purview: tuple[int, ...], qubits: tuple[int, ...]) -> np.ndarray:
    """sub(a) of ``_gather`` at every purview index a, built once per (purview, qubits)."""
    k = len(purview)
    bits = (np.arange(2 ** k)[:, np.newaxis] >> np.arange(k - 1, -1, -1)) & 1
    sub = bits[:, [purview.index(q) for q in qubits]] @ (1 << np.arange(len(qubits))[::-1])
    sub.setflags(write=False)
    return sub


def _assemble(table: np.ndarray, used: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Tensor product of the used factors each row of ``slots`` names, unvalidated.

    Every entry is the chain of complex multiplies, from 1 and in slot order,
    that ``np.kron`` of the factors followed by a permutation into purview
    order performs, so the two agree bit for bit.  Slots naming an unused
    table row are skipped, not multiplied by 1, which could flip a zero's sign.
    """
    out = np.ones((len(slots),) + table.shape[1:], dtype=complex)
    for column in slots.T:
        np.multiply(out, table[column], out=out, where=used[column, np.newaxis, np.newaxis])
    return out


def _checked(sys: QuantumSystem, mechanism: QuantumMechanism, purview: tuple) -> tuple[int, ...]:
    """The canonical purview, once it and a nonempty mechanism pass their checks."""
    canon = sys._check_qubits(purview, "purview")
    if not canon:
        raise ValidationError("purview must be nonempty")
    if mechanism.qubits:
        _check_mechanism(sys, mechanism)
    return canon


@dataclass
class _Table:
    """A (direction, mechanism)'s repertoires and, once ``_scores`` runs, its scores."""

    reps: dict = field(default_factory=dict)  # purview as asked -> repertoire, None if empty
    scores: Optional[dict] = None  # canonical purview -> (qid value, eigenstates, bound)


def _table(sys: QuantumSystem, mechanism: QuantumMechanism, direction: Direction) -> _Table:
    key = ("pt", direction, mechanism.qubits, _state_bytes(sys, mechanism))
    return sys._memo.get(key) or sys._memo.setdefault(key, _Table())


def _read(sys: QuantumSystem, mechanism: QuantumMechanism, purview: tuple,
          direction: Direction) -> Optional[QuantumRepertoire]:
    """The table's repertoire over ``purview``; on a miss built, and checked if a cause."""
    reps = _table(sys, mechanism, direction).reps
    if purview not in reps:
        rep = (_effect if direction == EFFECT else _cause)(sys, mechanism, purview)
        if direction == CAUSE and rep is not None:
            check_density_matrices(rep.rho.data[np.newaxis], sys.tol)
        reps[purview] = rep
    return reps[purview]


def effect_repertoire(sys: QuantumSystem, mechanism: QuantumMechanism,
                      purview: Iterable[int]) -> QuantumRepertoire:
    """Conditioned output, factorized across its finest separable partition.

    Correlations between purview blocks that survive only as classical noise
    from outside the mechanism are removed by the product; entangled blocks
    pass through unchanged, so a pure conditioned output is returned as is.
    A ``_table`` read; arguments are checked on a miss.
    """
    return _read(sys, mechanism, tuple(purview), EFFECT)


def _effect(sys: QuantumSystem, mechanism: QuantumMechanism, purview: tuple) -> QuantumRepertoire:
    purview = _checked(sys, mechanism, purview)
    if not mechanism.qubits:
        return QuantumRepertoire(purview, _maximally_mixed(purview), tuple((q,) for q in purview))
    out = conditioned_output(sys, mechanism, purview, EFFECT)
    structure = entanglement_partition(out, tol=sys.tol)
    blocks = tuple(tuple(purview[i] for i in b) for b in structure)
    if len(structure) == 1:
        return QuantumRepertoire(purview, out, blocks)
    factors = [(block, partial_trace(out, b).data) for block, b in zip(blocks, structure)]
    product = _assemble(*_gather(purview, factors), np.arange(len(factors))[np.newaxis])[0]
    return QuantumRepertoire(purview, _freeze(product, (2,) * len(purview)), blocks)


def cause_repertoire(sys: QuantumSystem, mechanism: QuantumMechanism,
                     purview: Iterable[int]) -> Optional[QuantumRepertoire]:
    """Trace-normalized product of per-block conditioned inputs.

    The product runs over the mechanism's own separable blocks (not over
    blocks of the resulting state) in ascending lowest-qubit order.  Returns
    None when the product has (numerically) zero trace, meaning the mechanism
    state cannot be reached from any purview state.  A non-Hermitian product
    from non-commuting blocks is symmetrized with a warning.  The blocks and
    their reduced states are memoized per mechanism.  A ``_table`` read;
    on a miss the arguments are checked, and the repertoire as any
    ``DensityMatrix`` is.
    """
    return _read(sys, mechanism, tuple(purview), CAUSE)


def _cause(sys: QuantumSystem, mechanism: QuantumMechanism, purview: tuple
           ) -> Optional[QuantumRepertoire]:
    purview = _checked(sys, mechanism, purview)
    if not mechanism.qubits:
        return QuantumRepertoire(purview, _maximally_mixed(purview), (purview,))
    blocks_key = ("blocks", mechanism.qubits, _state_bytes(sys, mechanism))
    blocks = sys._memo.get(blocks_key)
    if blocks is None:
        structure = entanglement_partition(mechanism.state, tol=sys.tol)
        blocks = sys._memo[blocks_key] = tuple(
            _reduce(sys, mechanism, tuple(mechanism.qubits[i] for i in b))
            for b in structure
        )
    product = np.eye(2 ** len(purview), dtype=complex)
    for block in blocks:
        product = product @ conditioned_output(sys, block, purview, CAUSE).data
    trace = complex(np.trace(product))
    if abs(trace) <= sys.tol:
        return None
    arr = product / trace
    herm = float(np.max(np.abs(arr - arr.conj().T)))
    if herm > sys.tol:
        warnings.warn("cause repertoire blocks do not commute; symmetrizing their product "
                      f"(residual {herm:.3e})", stacklevel=2)
        arr = 0.5 * (arr + arr.conj().T)
        arr = arr / np.trace(arr).real
        lo = float(np.min(np.linalg.eigvalsh(arr)))
        if lo < -sys.tol:
            warnings.warn(f"symmetrized cause repertoire not PSD (min eigenvalue {lo:.3e}); "
                          "clamping negative eigenvalues", stacklevel=2)
            w, v = np.linalg.eigh(arr)
            w = np.clip(w, 0.0, None)
            arr = (v * (w / w.sum())) @ v.conj().T
    return QuantumRepertoire(purview, _freeze(arr, (2,) * len(purview)), (purview,),
                             mechanism_partition=tuple(b.qubits for b in blocks))


# -- information measures -------------------------------------------------


def _eigen_score(p_i: float, overlap: Sequence[float], q: Sequence[float], tol: float) -> float:
    """p_i (log2 p_i - sum_j overlap_j log2 q_j) for one eigenvector of rho.

    0 when p_i is not in rho's support; +inf when the eigenvector overlaps
    an eigenvector of sigma outside sigma's support.
    """
    if p_i <= tol:
        return 0.0
    cross = 0.0
    for o_j, q_j in zip(overlap, q):
        if o_j <= tol:
            continue
        if q_j <= tol:
            return math.inf
        cross += o_j * math.log2(q_j)
    return p_i * (math.log2(p_i) - cross)


def quantum_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix,
                             tol: float = DEFAULT_TOL) -> float:
    """tr(rho log2 rho) - tr(rho log2 sigma); +inf outside sigma's support.

    The left-to-right sum over rho's eigenvectors of their ``qid`` pointwise scores.
    """
    total = 0.0
    for score in _qid(hermitian_eig(rho, tol=tol), hermitian_eig(sigma, tol=tol), tol)[2]:
        total += score
    return total


def fix_global_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest amplitude is positive real."""
    idx = int(np.argmax(np.abs(vec)))
    amp = vec[idx]
    if abs(amp) < 1e-12:
        return vec
    return vec * (abs(amp) / amp)


def qid(rho: DensityMatrix, sigma: DensityMatrix, tol: float = DEFAULT_TOL
        ) -> tuple[float, list[tuple[float, np.ndarray]]]:
    """Eigenvector-maximized intrinsic difference between density matrices.

    For each eigenvector |i> of rho with eigenvalue p_i the pointwise score
    is p_i (log2 p_i - sum_j |<i|j>|^2 log2 q_j) over sigma's eigensystem;
    the maximum and all (eigenvalue, eigenvector) pairs within ``tol`` of it
    are returned.  Eigenvalues within ``tol`` of 0 are outside the support:
    their eigenvectors score 0, and a sigma support deficiency makes the
    score +inf.  Coincides with the classical measure on commuting pairs and
    with the relative entropy when rho is pure.
    """
    return _qid(hermitian_eig(rho, tol=tol), hermitian_eig(sigma, tol=tol), tol)[:2]


def _qid(er: EigenDecomposition, es: EigenDecomposition, tol: float
         ) -> tuple[float, list[tuple[float, np.ndarray]], list[float]]:
    """``qid`` from the eigensystems of its two states, and every eigenvector's score."""
    if len(er.eigenvalues) != len(es.eigenvalues):
        raise ValidationError("dimension mismatch between the two states")
    p, q = np.clip(er.eigenvalues, 0.0, None).tolist(), np.clip(es.eigenvalues, 0.0, None).tolist()
    overlap = (np.abs(er.eigenvectors.conj().T @ es.eigenvectors) ** 2).tolist()
    scores = [_eigen_score(p_i, o, q, tol) for p_i, o in zip(p, overlap)]
    value = max(scores)
    if math.isinf(value):
        winners = [i for i, s in enumerate(scores) if math.isinf(s)]
    else:
        winners = [i for i, s in enumerate(scores) if s >= value - tol]
    states = [(p[i], fix_global_phase(er.eigenvectors[:, i].copy())) for i in winners]
    for _, vec in states:  # memoized results are shared: keep them read-only
        vec.setflags(write=False)
    return value, states, scores


def _scores(sys: QuantumSystem, mechanism: QuantumMechanism, direction: Direction) -> dict:
    """Per canonical purview: (qid value, eigenstates, bound), built on the first call.

    The repertoires are built in ``search.all_subsets`` order, causes
    unchecked; the nonempty ones of each size are then checked as one stack,
    causes as ``DensityMatrix`` checks them (so the first failing one in that
    order names the error), effects as ``hermitian_eig`` does.  Both checks
    return ``eigh`` of 0.5 (rho + rho^dag), as ``hermitian_eig`` computes it.
    """
    table = _table(sys, mechanism, direction)
    if table.scores is None:
        purviews = search.all_subsets(sys.qubit_range())
        reps = [table.reps[z] if z in table.reps else
                (_effect if direction == EFFECT else _cause)(sys, mechanism, z) for z in purviews]
        scores = {}
        live = [(z, rep) for z, rep in zip(purviews, reps) if rep is not None]
        for size, group in groupby(live, key=lambda pair: len(pair[0])):
            zs, stack = zip(*((z, rep.rho.data) for z, rep in group))
            w, v = (sort_descending(*check_density_matrices(np.stack(stack), sys.tol))
                    if direction == CAUSE else hermitian_eigs(np.stack(stack), sys.tol))
            es = _mixed_states()[size][1]
            for z, w_z, v_z in zip(zs, w, v):
                value, states, _ = _qid(EigenDecomposition(w_z, v_z), es, sys.tol)
                scores[z] = (value, states, _phi_against(
                    es.eigenvalues[np.newaxis], es.eigenvectors[np.newaxis], states, sys.tol)[0])
        table.reps.update(zip(purviews, reps))
        table.scores = scores
    return table.scores


def intrinsic_information(sys: QuantumSystem, mechanism: QuantumMechanism,
                          purview: Iterable[int], direction: Direction
                          ) -> tuple[float, Optional[list[tuple[float, np.ndarray]]]]:
    """QID of the constrained repertoire against the maximally mixed state.

    The unconstrained repertoire is maximally mixed in both directions under
    unitary dynamics, so the intrinsic state is the repertoire eigenvector
    with maximal eigenvalue (the full eigenspace when degenerate).  Returns
    (0, None) for an empty cause repertoire.  Supports and ties are taken at
    ``sys.tol``.  A read of the mechanism's ``_scores``; I/d's eigensystem is
    built once per process.  The repertoire functions check the arguments.
    """
    scores = _scores(sys, mechanism, direction)
    rep = (effect_repertoire if direction == EFFECT else cause_repertoire)(sys, mechanism, purview)
    if rep is None:
        return 0.0, None
    value, states, _ = scores[rep.purview]
    return value, list(states)


# -- partitioned repertoires and phi --------------------------------------


def _reduce(sys: QuantumSystem, mechanism: QuantumMechanism,
            m_part: tuple[int, ...]) -> QuantumMechanism:
    """The mechanism part on ``m_part``, in the mechanism's reduced state on those qubits.

    An empty part keeps the whole state, which ``_part_rho`` never reads.
    Reductions are memoized per (mechanism, part).
    """
    if not m_part or len(m_part) == len(mechanism.qubits):
        return QuantumMechanism(m_part, mechanism.state)
    key = ("reduced", mechanism.qubits, _state_bytes(sys, mechanism), m_part)
    part = sys._memo.get(key)
    if part is None:
        positions = [mechanism.qubits.index(q) for q in m_part]
        part = sys._memo[key] = QuantumMechanism(
            m_part, partial_trace(mechanism.state, positions))
    return part


def _part_rho(sys: QuantumSystem, part: QuantumMechanism, z_part: tuple[int, ...],
              direction: Direction) -> Optional[DensityMatrix]:
    """Repertoire of a mechanism part over a nonempty ``z_part``, or None if empty.

    An empty mechanism part gets the maximally mixed state.
    """
    if not part.qubits:
        return _maximally_mixed(z_part)
    rep = (effect_repertoire if direction == EFFECT else cause_repertoire)(sys, part, z_part)
    return None if rep is None else rep.rho


def partitioned_repertoire(sys: QuantumSystem, mechanism: QuantumMechanism,
                           purview: Iterable[int], theta: DisintegratingPartition,
                           direction: Direction) -> Optional[DensityMatrix]:
    """Tensor product over the partition's parts of their repertoires.

    Each part takes the mechanism's reduction to its own qubits; an empty
    mechanism part contributes the maximally mixed state on its purview part,
    an empty purview part contributes nothing.  The partition acts on top of
    the entanglement structure, so entanglement it destroys will register as
    irreducibility.  Returns None if a part's cause repertoire is empty.
    """
    purview = _checked(sys, mechanism, tuple(purview))
    table, used, empty = _part_table(sys, mechanism, purview, direction,
                                     *part_masks(theta.parts, mechanism.qubits, purview))
    if empty.any():
        return None
    return _freeze(_assemble(table, used, np.arange(theta.k)[np.newaxis])[0],
                   (2,) * len(purview))


def _part_table(sys: QuantumSystem, mechanism: QuantumMechanism, purview: tuple[int, ...],
                direction: Direction, part_m: np.ndarray, part_z: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_gather``'s (table, used) for the parts the masks give, and which parts are empty.

    The parts are labeled over the mechanism's qubits and the purview first.
    Each mechanism part is reduced once and each part's density matrix built
    once.  ``empty`` marks the parts whose cause repertoire is empty; like
    the table, it has a last, padding entry.
    """
    parts = relabel(part_m, part_z, mechanism.qubits, purview)
    reduced = {m: _reduce(sys, mechanism, m) for m in dict.fromkeys(m for m, z in parts if z)}
    factors: list[Optional[tuple[tuple[int, ...], np.ndarray]]] = []
    empty = np.zeros(len(parts) + 1, dtype=bool)
    for j, (m_part, z_part) in enumerate(parts):
        rho = _part_rho(sys, reduced[m_part], z_part, direction) if z_part else None
        empty[j] = bool(z_part) and rho is None
        factors.append(None if rho is None else (z_part, rho.data))
    return (*_gather(purview, factors), empty)


def _phi_against(w: np.ndarray, v: np.ndarray, eigenstates: Sequence[tuple[float, np.ndarray]],
                 tol: float) -> list[float]:
    """Largest QID score of the intrinsic eigenstates against each state of a stack.

    ``w`` and ``v`` are the stack's eigenvalues and eigenvectors, each row
    sorted descending.  Each eigenstate's overlaps are one product with the
    whole stack, ``vec.conj() @ v``, whose row i is ``vec.conj() @ v[i]``
    bit for bit.  Each score is floored at 0.
    """
    q = np.clip(w, 0.0, None).tolist()
    overlaps = [(p_i, (np.abs(vec.conj() @ v) ** 2).tolist()) for p_i, vec in eigenstates]
    return [max([0.0, *(_eigen_score(p_i, o[i], q[i], tol) for p_i, o in overlaps)])
            for i in range(len(q))]


def _backend() -> search.Backend:
    """This module as the search reads it, built per call: a replaced attribute is seen."""
    return search.Backend(attrgetter("qubits"), intrinsic_information, _score_partitions, _bounds)


def phi(sys: QuantumSystem, mechanism: QuantumMechanism, purview: Iterable[int],
        theta: DisintegratingPartition, direction: Direction,
        eigenstates: Optional[Sequence[tuple[float, np.ndarray]]] = None) -> float:
    """QID score at the intrinsic eigenstate against the partitioned repertoire.

    With a degenerate intrinsic eigenspace the score is evaluated per basis
    vector and the maximum kept.  +inf when the partitioned repertoire lacks
    support on the intrinsic state (or a part's cause repertoire is empty).
    0 when the mechanism specifies nothing (empty cause repertoire), even
    with ``eigenstates`` given, as in the classical backend.
    """
    return search.phi(_backend(), sys, mechanism, sys._check_qubits(purview, "purview"), theta,
                      direction, eigenstates)


def mip(sys: QuantumSystem, mechanism: QuantumMechanism, purview: Iterable[int],
        direction: Direction) -> tuple[DisintegratingPartition, float]:
    """Minimum partition by severed-pair-normalized phi; unnormalized phi returned.

    Ties are broken by ``search.mip``.
    """
    return search.labeled_mip(_backend(), sys, mechanism, sys._check_qubits(purview, "purview"),
                              direction)


def _score_partitions(sys: QuantumSystem, mechanism: QuantumMechanism,
                      purviews: Sequence[tuple[int, ...]], direction: Direction,
                      eigenstates: Sequence[Sequence[tuple[float, np.ndarray]]],
                      slots: np.ndarray, part_m: np.ndarray, part_z: np.ndarray) -> np.ndarray:
    """[purview, partition]: ``phi`` of every partition ``slots`` lists (see ``search.mip``).

    All purviews' partitions without an empty part cause repertoire (+inf)
    are one stack of ``_part_table`` products (``_assemble``), checked like
    any ``DensityMatrix`` by one batched ``eigh``; ``_phi_against`` scores
    each purview's slice.  Products of states (each factor was checked or
    derived from checked states) are states: a purview scored in a round
    but skipped one at a time fails no check, bar rounding at ``sys.tol``.
    """
    tables = [_part_table(sys, mechanism, z, direction, part_m, part_z) for z in purviews]
    table, used, empty = (np.concatenate(arrays) for arrays in zip(*tables))
    grid = slots + (len(part_m) + 1) * np.arange(len(purviews))[:, np.newaxis, np.newaxis]
    scored = ~empty[grid].any(axis=2)  # [purview, partition]
    values = np.full(scored.shape, math.inf)
    if scored.any():
        w, v = sort_descending(*check_density_matrices(_assemble(table, used, grid[scored]),
                                                       sys.tol))
        ends = np.cumsum(scored.sum(axis=1))[:-1]  # each purview's slice of the stack
        for j, w_j, v_j in zip(range(len(purviews)), np.split(w, ends), np.split(v, ends)):
            values[j, scored[j]] = _phi_against(w_j, v_j, eigenstates[j], sys.tol)
    return values


def _bounds(sys: QuantumSystem, mechanism: QuantumMechanism, direction: Direction) -> list:
    """Every purview's (bound, purview, eigenstates) from ``_scores``; 0 and None if empty."""
    scores = _scores(sys, mechanism, direction)
    return [(scores[z][2], z, scores[z][1]) if z in scores else (0.0, z, None)
            for z in search.all_subsets(sys.qubit_range())]


def phi_max(sys: QuantumSystem, mechanism: QuantumMechanism, direction: Direction
            ) -> Optional[QuantumDistinction]:
    """Maximally irreducible purview for a mechanism, or None if fully reducible.

    Purview and eigenvector ties are resolved by ``search.phi_max``.  The
    intrinsic state keeps every eigenvector whose phi at the minimum partition
    ties the maximum, reported as an eigensubspace when they share a
    degenerate eigenvalue: eigenvalues within ``DEFAULT_DEGENERACY_TOL``,
    whatever the system's tolerance.
    """
    qubits = _check_mechanism(sys, mechanism)
    found = search.phi_max(_backend(), sys, mechanism, direction)
    if found is None:
        return None
    eigenvalues = tuple(p for p, _ in found.states)
    degenerate = len(eigenvalues) > 1 and (
        max(eigenvalues) - min(eigenvalues) <= DEFAULT_DEGENERACY_TOL
    )
    intrinsic = IntrinsicState("subspace" if degenerate else "state", eigenvalues,
                               tuple(vec for _, vec in found.states))
    return QuantumDistinction(
        qubits, mechanism.state, direction, found.purview, intrinsic,
        found.phi, found.mip, found.normalization, found.tied_purviews,
    )


def unfold(sys: QuantumSystem, rho_t: DensityMatrix,
           directions: Sequence[Direction] = (EFFECT, CAUSE),
           mechanisms: Optional[Sequence[Sequence[int]]] = None
           ) -> list[QuantumDistinction]:
    """All distinctions of a system state: phi_max per mechanism subset.

    Effect mechanisms are reductions of ``rho_t``; cause mechanisms are
    reductions of its image under the unitary.  Subsets with phi = 0 are
    omitted.
    """
    if len(rho_t.dims) != sys.n_qubits or any(d != 2 for d in rho_t.dims):
        raise ValidationError("system state does not match the qubit count")

    def mechanisms_in(direction: Direction):
        base = rho_t if direction == EFFECT else apply_unitary(sys.unitary, rho_t)
        return lambda qubits: sys.mechanism(qubits, base)

    return search.unfold(directions, mechanisms, sys._check_qubits, sys.qubit_range(),
                         mechanisms_in, lambda mech, direction: phi_max(sys, mech, direction))


def identity_structure(state: DensityMatrix, tol: float = DEFAULT_TOL
                       ) -> list[QuantumDistinction]:
    """Self-constraint structure of a state under identity dynamics.

    With the unitary fixed to the identity, causes and effects coincide, so
    the effect-side distinctions are returned once each: what every subset of
    the state irreducibly constrains about the state itself.  Ties are taken
    at ``tol``, the system's tolerance.
    """
    n = len(state.dims)
    sys = QuantumSystem(np.eye(2**n), tol=tol)
    return unfold(sys, state, directions=(EFFECT,))

