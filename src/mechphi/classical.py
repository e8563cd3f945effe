"""Mechanism-level integrated information for discrete classical causal networks.

The analysis starts from a transition probability matrix whose units are
conditionally independent given the previous system state.  For a mechanism
(a unit subset in a state) it builds interventional cause/effect repertoires
over candidate purviews, scores them against chance with the intrinsic
difference measure, quantifies irreducibility against the minimum
disintegrating partition, and finally maximizes over purviews.  Running that
for every mechanism subset of a state unfolds the distinction structure.
Every repertoire is built from tables memoized per system: one of per-unit
marginals per mechanism-unit set for effects, per-unit likelihoods for
causes.  MIP scoring reads part tables built once per mechanism.

Probabilities over a unit subset are indexed big-endian in ascending unit
order (lowest unit index = most significant digit).  All scores are in ibits
(base-2 logarithms weighted by the probability of the scored state).  A
system has one tolerance, ``tol``: it bounds the input checks, decides which
probabilities are in a support and which scores tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import search
from .errors import ValidationError
from .partitions import (  # noqa: F401  enumerate_disintegrating is re-exported
    DisintegratingPartition,
    enumerate_disintegrating,
    part_masks,
    partition_shape,
)
from .search import CAUSE, EFFECT, Direction
from .tensor import DEFAULT_TOL


class Mechanism(NamedTuple):
    """A unit subset in a definite state (units ascending, states aligned)."""

    units: tuple[int, ...]
    state: tuple[int, ...]

    @classmethod
    def make(cls, units: Iterable[int], state: Iterable[int]) -> "Mechanism":
        pairs = sorted(zip((int(u) for u in units), (int(s) for s in state)))
        if len({u for u, _ in pairs}) != len(pairs):
            raise ValidationError("mechanism units must be distinct")
        return cls(tuple(u for u, _ in pairs), tuple(s for _, s in pairs))

    def restrict(self, units: Iterable[int]) -> "Mechanism":
        units = set(units)
        kept = [(u, s) for u, s in zip(self.units, self.state) if u in units]
        return Mechanism(tuple(u for u, _ in kept), tuple(s for _, s in kept))


@dataclass(frozen=True)
class ClassicalRepertoire:
    """A probability distribution a mechanism specifies over a purview, read-only.

    Built only here, from the system's validated TPM, so it is not re-checked.
    """

    purview: tuple[int, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)


@dataclass(frozen=True)
class ClassicalDistinction:
    """A mechanism together with its maximally irreducible cause or effect."""

    mechanism_units: tuple[int, ...]
    mechanism_state: tuple[int, ...]
    direction: Direction
    purview: tuple[int, ...]
    intrinsic_states: tuple[tuple[int, ...], ...]  # first entry is the selection
    phi: float
    mip: DisintegratingPartition
    normalization: int
    tied_purviews: tuple[tuple[int, ...], ...] = ()

    @property
    def order(self) -> int:
        return len(self.mechanism_units)


class ClassicalSystem:
    """A discrete dynamical system given by a row-stochastic transition matrix.

    Rows index the source state, columns the target state, both big-endian
    over ascending unit order.  Units must be conditionally independent given
    the source state; this is checked at construction.  Optional background
    units are clamped to a fixed state and excluded from the analysis.

    ``_memo`` keeps what analyses compute, keyed by mechanism state and unit
    sets: a marginal table per unit set, per-unit likelihoods, repertoires
    and the selection of each (mechanism, direction).  A mechanism's part
    tables stay only until its selection is stored.  The rest is bounded by
    the state space, never shrinks and lives as long as the system.  Entries
    are written once and never changed; a search whose part tables another
    thread drops keeps reading its own, so concurrent analyses of one system
    can only duplicate work.
    """

    def __init__(self, unit_state_counts: Sequence[int], tpm,
                 background: Optional[tuple[Sequence[int], Sequence[int]]] = None,
                 tol: float = DEFAULT_TOL):
        self.unit_state_counts = tuple(int(c) for c in unit_state_counts)
        if not self.unit_state_counts or any(c < 2 for c in self.unit_state_counts):
            raise ValidationError(
                f"every unit needs at least two states, got {self.unit_state_counts}"
            )
        self.n_units = len(self.unit_state_counts)
        self.num_states = math.prod(self.unit_state_counts)
        self.tol = float(tol)

        tpm = np.array(tpm, dtype=float)  # a private copy: frozen below
        if tpm.shape != (self.num_states, self.num_states):
            raise ValidationError(
                f"tpm shape {tpm.shape} does not match state space "
                f"({self.num_states} x {self.num_states})"
            )
        if not np.isfinite(tpm).all():
            raise ValidationError("tpm contains non-finite entries")
        if float(tpm.min()) < -tol:
            s, t = np.unravel_index(int(np.argmin(tpm)), tpm.shape)
            raise ValidationError(f"tpm entry ({s},{t}) is negative: {tpm[s, t]:.3e}")
        sums = tpm.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > tol)[0]
        if bad.size:
            row = int(bad[0])
            raise ValidationError(f"tpm row {row} sums to {sums[row]:.12g}, expected 1")
        self.tpm = tpm
        self.tpm.setflags(write=False)

        # Per-row unit values, ascending units, unit 0 most significant.
        self._states = np.array(
            list(product(*[range(c) for c in self.unit_state_counts])), dtype=int
        )
        cols = [
            np.stack([tpm[:, self._states[:, i] == v].sum(axis=1) for v in range(c)], axis=1)
            for i, c in enumerate(self.unit_state_counts)
        ]
        recon = np.ones_like(tpm)
        for i in range(self.n_units):
            recon *= cols[i][:, self._states[:, i]]
        resid = float(np.max(np.abs(recon - tpm)))
        if resid > max(tol, 1e-12):
            raise ValidationError(
                "units are not conditionally independent given the source state "
                f"(max residual {resid:.3e})"
            )
        # cond[i][s_0, ..., s_{n-1}, v] = p(unit i takes value v at t+1 | source state s)
        self._cond = [c.reshape(self.unit_state_counts + (-1,)) for c in cols]

        self.background_units: tuple[int, ...] = ()
        self.background_state: tuple[int, ...] = ()
        self.candidate_units = tuple(range(self.n_units))
        self._memo: dict = {}
        if background is not None:
            units, state = background
            self._fix_background(units, state)

    def _fix_background(self, units: Sequence[int], state: Sequence[int]) -> None:
        """Clamp ``units`` to ``state`` and exclude them; checked, before any analysis.

        A separate step, so that a caller can tell background errors from
        transition-matrix errors.
        """
        if len(units) != len(state):
            raise ValidationError(
                f"background units {tuple(units)} and state {tuple(state)} differ in length")
        bg = Mechanism.make(units, state)
        if any(u < 0 or u >= self.n_units for u in bg.units):
            raise ValidationError(f"background units {bg.units} out of range")
        for u, s in zip(bg.units, bg.state):
            if s < 0 or s >= self.unit_state_counts[u]:
                raise ValidationError(f"background state {s} invalid for unit {u}")
        if len(bg.units) >= self.n_units:
            raise ValidationError("background cannot cover every unit")
        self.background_units = bg.units
        self.background_state = bg.state
        self.candidate_units = tuple(u for u in range(self.n_units) if u not in bg.units)

    # -- index helpers ----------------------------------------------------

    def _check_units(self, units: Iterable[int], what: str) -> tuple[int, ...]:
        units = tuple(sorted({int(u) for u in units}))
        bad = [u for u in units if u not in self.candidate_units]
        if bad:
            raise ValidationError(f"{what} units {bad} invalid or fixed as background")
        return units

    def _check_state(self, mech: Mechanism) -> None:
        for u, s in zip(mech.units, mech.state):
            if s < 0 or s >= self.unit_state_counts[u]:
                raise ValidationError(f"state {s} invalid for unit {u}")

    def _pin(self, units: Sequence[int], state: Sequence[int]) -> tuple:
        """Conditional-tensor index fixing the background and ``units`` at ``state``.

        Averaging over the source axes left free marginalizes those units.
        """
        index: list = [slice(None)] * self.n_units
        for u, s in zip(self.background_units + tuple(units),
                        self.background_state + tuple(state)):
            index[u] = s
        return tuple(index)

    def subset_states(self, units: Sequence[int]) -> list[tuple[int, ...]]:
        """All assignments over ``units`` (ascending), big-endian order."""
        return list(product(*[range(self.unit_state_counts[u]) for u in units]))

    def state_of(self, full_state: Sequence[int], units: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(full_state[u]) for u in units)


# -- repertoires ----------------------------------------------------------


def _units_first(sys: ClassicalSystem, array: np.ndarray, units: tuple[int, ...]) -> np.ndarray:
    """A conditional tensor, background pinned, axes: ``units``, other source units, values."""
    free = [u for u in range(sys.n_units) if u not in sys.background_units]
    return np.moveaxis(array[sys._pin((), ())], [free.index(u) for u in units], range(len(units)))


def _marginals(sys: ClassicalSystem, units: tuple[int, ...]) -> np.ndarray:
    """[*state, unit, value]: each unit's next-state distribution per ``units`` state, memoized.

    The other source units, bar the background, are averaged out, along a
    strided axis: each state's rows are summed one after another, as a 2-D
    ``mean(0)`` over that state alone would sum them.  Background rows and
    values past a unit's state count are padding.
    """
    key = ("em", units)
    if key not in sys._memo:
        shape = tuple(sys.unit_state_counts[u] for u in units)
        table = np.ones(shape + (sys.n_units, max(sys.unit_state_counts)))
        for u in sys.candidate_units:
            c = sys.unit_state_counts[u]
            rows = _units_first(sys, sys._cond[u], units).reshape(shape + (-1, c))
            table[..., u, :c] = rows.mean(-2)
        sys._memo[key] = table
    return sys._memo[key]


def _outer(sys: ClassicalSystem, rows: np.ndarray, purview: tuple[int, ...]) -> np.ndarray:
    """Per [unit, value] row: the purview units' outer product, raveled, as ``np.kron`` has it."""
    q = np.ones((len(rows), 1))
    for u in purview:
        q = (q[:, :, None] * rows[:, u, None, :sys.unit_state_counts[u]]).reshape(len(rows), -1)
    return q


def _likelihood(sys: ClassicalSystem, unit: int, value: int,
                purview: tuple[int, ...]) -> Optional[np.ndarray]:
    """Normalized likelihood of ``unit`` taking ``value``, per purview state, memoized.

    Source units outside the purview are uniformly marginalized.  None when
    the value is unreachable from every purview state.
    """
    key = ("cl", unit, value, purview)
    if key not in sys._memo:
        # Contiguous rows, one per purview state: each reduces as its 1-D mean.
        rows = np.ascontiguousarray(_units_first(sys, sys._cond[unit][..., value], purview))
        factor = rows.reshape(math.prod(sys.unit_state_counts[u] for u in purview), -1).mean(1)
        total = float(factor.sum())
        sys._memo[key] = factor / total if total > 0.0 else None
    return sys._memo[key]


def _checked(sys: ClassicalSystem, mechanism: Mechanism, purview: tuple[int, ...]) -> tuple:
    """The canonical purview, once it and the mechanism pass their checks."""
    canon = sys._check_units(purview, "purview")
    if not canon:
        raise ValidationError("purview must be nonempty")
    if len(sys._check_units(mechanism.units, "mechanism")) != len(mechanism.units):
        raise ValidationError("mechanism units must be distinct")
    sys._check_state(mechanism)
    return canon


def effect_repertoire(sys: ClassicalSystem, mechanism: Mechanism,
                      purview: Iterable[int]) -> ClassicalRepertoire:
    """Product of single-unit effect repertoires (``_marginals``) over the purview.

    The product form gives each purview unit an independent marginalized
    input, which discounts correlations produced by shared inputs from
    outside the mechanism.  An empty mechanism yields the fully marginalized
    effect repertoire.  Arguments are checked on a memo miss only.
    """
    key = ("er", mechanism, purview := tuple(purview))
    if key not in sys._memo:
        purview = _checked(sys, mechanism, purview)
        rows = _marginals(sys, mechanism.units)[mechanism.state][np.newaxis]
        sys._memo[key] = ClassicalRepertoire(purview, _outer(sys, rows, purview)[0])
    return sys._memo[key]


def unconstrained_effect(sys: ClassicalSystem, purview: Iterable[int],
                         mechanism_units: Iterable[int]) -> ClassicalRepertoire:
    """Effect repertoire averaged over the mechanism units' states; checked on a memo miss."""
    key = ("ue", units := tuple(mechanism_units), purview := tuple(purview))
    if key not in sys._memo:
        purview = sys._check_units(purview, "purview")
        table = _marginals(sys, sys._check_units(units, "mechanism"))
        rows = _outer(sys, table.reshape(-1, *table.shape[-2:]), purview)
        # Rows >= 2 wide: numpy sums them in order, from 0, as ``acc +=`` would.
        sys._memo[key] = ClassicalRepertoire(purview, rows.sum(0) / len(rows))
    return sys._memo[key]


def cause_repertoire(sys: ClassicalSystem, mechanism: Mechanism,
                     purview: Iterable[int]) -> Optional[ClassicalRepertoire]:
    """Bayesian inversion over product distributions, per mechanism unit.

    The mechanism units' likelihoods (``_likelihood``) are multiplied and
    renormalized.  Returns None when the mechanism state is unreachable from
    every purview state, and the uniform repertoire for an empty mechanism.
    Arguments are checked on a memo miss only.
    """
    key = ("cr", mechanism, purview := tuple(purview))
    if key not in sys._memo:
        purview = _checked(sys, mechanism, purview)
        factors = [_likelihood(sys, u, v, purview) for u, v in zip(*mechanism)]
        if not factors:
            sys._memo[key] = unconstrained_cause(sys, purview)
        elif any(f is None for f in factors):
            sys._memo[key] = None
        else:
            result = reduce(np.multiply, factors)
            total = float(result.sum())
            sys._memo[key] = ClassicalRepertoire(purview, result / total) if total > 0 else None
    return sys._memo[key]


def unconstrained_cause(sys: ClassicalSystem, purview: Iterable[int]) -> ClassicalRepertoire:
    """Uniform distribution over the purview's states; checked on a memo miss."""
    key = ("uc", purview := tuple(purview))
    if key not in sys._memo:
        purview = sys._check_units(purview, "purview")
        n = math.prod(sys.unit_state_counts[u] for u in purview)
        sys._memo[key] = ClassicalRepertoire(purview, np.full(n, 1.0 / n))
    return sys._memo[key]


def _repertoire(sys: ClassicalSystem, mechanism: Mechanism, purview: tuple[int, ...],
                direction: Direction) -> Optional[ClassicalRepertoire]:
    if direction == EFFECT:
        return effect_repertoire(sys, mechanism, purview)
    return cause_repertoire(sys, mechanism, purview)


# -- information measures -------------------------------------------------


def _pointwise(p: float, q: float, tol: float) -> float:
    """p * log2(p / q); 0 where p is not in the support, +inf where q is not."""
    if p <= tol:
        return 0.0
    return math.inf if q <= tol else p * math.log2(p / q)


def _pointwise_all(p, q, tol: float) -> list[float]:
    """``_pointwise`` per state, over Python floats: numpy costs more at 2-16 states."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return [_pointwise(ps, qs, tol) for ps, qs in zip(p.tolist(), q.tolist())]


def intrinsic_difference(p, q, tol: float = DEFAULT_TOL) -> tuple[float, tuple[int, ...]]:
    """max_s p_s * log2(p_s / q_s), with the maximizing state(s).

    Probabilities within ``tol`` of 0 are outside the support: such a state
    contributes 0, and one with p > 0 but q = 0 makes the value +inf.  States
    within ``tol`` of the maximum are all returned, the winning value first
    among equals.
    """
    vals = _pointwise_all(p, q, tol)
    value = max(vals, default=0.0) if not math.isnan(sum(vals)) else math.nan
    if math.isinf(value):
        return value, tuple(s for s, v in enumerate(vals) if math.isinf(v))
    return value, tuple(s for s, v in enumerate(vals) if v >= value - tol)


def kld(p, q, tol: float = DEFAULT_TOL) -> float:
    """Kullback-Leibler divergence in bits: sum_s p_s log2(p_s / q_s)."""
    return sum(_pointwise_all(p, q, tol), 0.0)


def intrinsic_information(sys: ClassicalSystem, mechanism: Mechanism,
                          purview: Iterable[int], direction: Direction
                          ) -> tuple[float, Optional[tuple[int, ...]]]:
    """Intrinsic difference between the constrained repertoire and chance.

    Effects are compared to the mechanism-averaged effect repertoire, causes
    to the uniform distribution.  Returns (value, maximizing states); the
    states are None when the cause repertoire is empty, in which case the
    value is 0 by convention.  Supports and ties are taken at ``sys.tol``.
    Results are memoized per repertoire; the repertoire functions check the
    arguments on a memo miss.
    """
    key = ("ii", mechanism, purview := tuple(purview), direction)
    if key not in sys._memo:
        rep = _repertoire(sys, mechanism, purview, direction)
        if rep is None:
            sys._memo[key] = (0.0, None)
        else:
            baseline = (unconstrained_effect(sys, rep.purview, mechanism.units)
                        if direction == EFFECT else unconstrained_cause(sys, rep.purview))
            sys._memo[key] = intrinsic_difference(rep.probabilities, baseline.probabilities,
                                                  sys.tol)
    return sys._memo[key]


# -- partitioned repertoires and phi --------------------------------------


def _sub_mechanisms(sys: ClassicalSystem, mechanism: Mechanism) -> list[Mechanism]:
    """The sub-mechanism of each bitmask of ascending mechanism positions, memoized."""
    key = ("sm", mechanism)
    if key not in sys._memo:
        units = sorted(mechanism.units)
        sys._memo[key] = [mechanism.restrict(u for i, u in enumerate(units) if mask >> i & 1)
                          for mask in range(1 << len(units))]
    return sys._memo[key]


def _effect_table(sys: ClassicalSystem, mechanism: Mechanism) -> np.ndarray:
    """[mask, unit, value]: each sub-mechanism's ``_marginals``, padded alike."""
    key = ("et", mechanism)
    table = sys._memo.get(key)  # read once: a finished search may drop the entry
    if table is None:
        table = sys._memo[key] = np.array([_marginals(sys, sub.units)[sub.state]
                                           for sub in _sub_mechanisms(sys, mechanism)])
    return table


def _cause_table(sys: ClassicalSystem, mechanism: Mechanism, z_part: tuple[int, ...]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """[mask]: each sub-mechanism's ``cause_repertoire`` over ``z_part``, and which are empty.

    ``cause_repertoire`` is looked up at call time; mask 0 is the uniform
    repertoire, and an empty repertoire's row holds ones.  The mechanism's
    tables share one memo entry, keyed by ``z_part``.
    """
    tables = sys._memo.setdefault(("ct", mechanism), {})  # as in ``_effect_table``
    table = tables.get(z_part)
    if table is None:
        reps = [cause_repertoire(sys, sub, z_part) for sub in _sub_mechanisms(sys, mechanism)]
        ones = np.ones(math.prod(sys.unit_state_counts[u] for u in z_part))
        table = tables[z_part] = (np.array([ones if r is None else r.probabilities for r in reps]),
                                  np.array([r is None for r in reps]))
    return table


def _parts(part_m: np.ndarray, part_z: np.ndarray) -> tuple:
    """Each part's mechanism bitmask, ``part_z``, and (positions, parts, bitmasks) per z part."""
    masks = part_m @ (1 << np.arange(part_m.shape[1]))
    z_masks = part_z @ (1 << np.arange(part_z.shape[1]))
    groups = [(tuple(i for i in range(part_z.shape[1]) if z >> i & 1), rows, masks[rows])
              for z in sorted(set(z_masks.tolist()) - {0})
              for rows in [np.flatnonzero(z_masks == z)]]
    return masks, part_z, groups


@lru_cache(maxsize=None)
def _shape_parts(m_size: int, z_size: int) -> tuple:
    """``_parts`` of ``partition_shape(m_size, z_size)``, built once per shape."""
    return _parts(*partition_shape(m_size, z_size)[:2])


def _factor_table(sys: ClassicalSystem, mechanism: Mechanism, purview: tuple[int, ...],
                  direction: Direction, parts: tuple, states: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Each part's repertoire read at the purview ``states``, one row per part.

    ``parts`` are the ``_parts`` of position masks over the mechanism units
    and the purview, as in ``PartitionShape``; a mechanism part indexes the
    tables by its bitmask.  Parts without a purview and the padding row hold
    1.0; a part with an empty mechanism gets the fully marginalized
    repertoire.  Also returns which rows have an empty cause repertoire.
    """
    masks, part_z, groups = parts
    counts = [sys.unit_state_counts[u] for u in purview]
    digits = np.unravel_index(states, counts)
    factors = np.ones((len(masks) + 1, len(states)))
    missing = np.zeros(len(masks) + 1, dtype=bool)
    if direction == EFFECT:
        # One gather, 1.0 outside each part, multiplied left to right as ``_outer``.
        gathered = np.where(part_z[:, :, None], _effect_table(sys, mechanism)[
            masks[:, None, None], np.array(purview)[:, None], digits], 1.0)
        factors[:-1] = gathered[:, 0]
        for i in range(1, len(purview)):
            factors[:-1] *= gathered[:, i]
        return factors, missing
    for on, rows, row_masks in groups:
        reps, empty = _cause_table(sys, mechanism, tuple(purview[i] for i in on))
        index = np.ravel_multi_index([digits[i] for i in on], [counts[i] for i in on])
        factors[rows] = reps[row_masks[:, None], index]
        missing[rows] = empty[row_masks]
    return factors, missing


def _products(factors: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Each row of ``slots``: the product of the factor rows it names, in slot order."""
    q = factors[slots[:, 0]]
    for column in slots.T[1:]:
        q = q * factors[column]
    return q


def partitioned_repertoire(sys: ClassicalSystem, mechanism: Mechanism,
                           purview: Iterable[int], theta: DisintegratingPartition,
                           direction: Direction) -> Optional[ClassicalRepertoire]:
    """Product over the partition's parts of their independent repertoires.

    A part with an empty purview contributes a scalar 1.  Returns None if a
    part's cause repertoire is empty.
    """
    purview = _checked(sys, mechanism, tuple(purview))
    n = math.prod(sys.unit_state_counts[u] for u in purview)
    parts = _parts(*part_masks(theta.parts, sorted(mechanism.units), purview))
    factors, missing = _factor_table(sys, mechanism, purview, direction, parts, np.arange(n))
    if missing.any():
        return None
    return ClassicalRepertoire(purview, _products(factors, np.arange(theta.k)[np.newaxis])[0])


def phi(sys: ClassicalSystem, mechanism: Mechanism, purview: Iterable[int],
        theta: DisintegratingPartition, direction: Direction,
        states: Optional[Sequence[int]] = None) -> float:
    """Pointwise divergence at the intrinsic state against the partitioned repertoire.

    With tied intrinsic states the maximum over them is kept.  Returns +inf
    when the partitioned repertoire has no support on an intrinsic state, and
    0 when the mechanism specifies nothing (empty cause repertoire).
    """
    return _phi(sys, mechanism, sys._check_units(purview, "purview"), theta, direction, states)


def _phi(sys, mechanism, purview, theta, direction, states=None) -> float:
    if _repertoire(sys, mechanism, purview, direction) is None:
        return 0.0
    if states is None:
        _, states = intrinsic_information(sys, mechanism, purview, direction)
    part_m, part_z = part_masks(theta.parts, sorted(mechanism.units), purview)
    return float(_score_partitions(sys, mechanism, purview, direction, states,
                                   np.arange(theta.k)[np.newaxis], part_m, part_z,
                                   _parts(part_m, part_z))[0])


def mip(sys: ClassicalSystem, mechanism: Mechanism, purview: Iterable[int],
        direction: Direction) -> tuple[DisintegratingPartition, float]:
    """Minimum partition: argmin over partitions of phi / severed-pair count.

    The returned value is the unnormalized phi at the minimizing partition;
    ties are broken by ``search.mip``.
    """
    return _mip(sys, mechanism, sys._check_units(purview, "purview"), direction)


def _mip(sys, mechanism, purview, direction) -> tuple[DisintegratingPartition, float]:
    return search.mip(sys, mechanism, tuple(sorted(mechanism.units)), purview, direction,
                      intrinsic_information, _score_partitions)


def _score_partitions(sys: ClassicalSystem, mechanism: Mechanism, purview: tuple[int, ...],
                      direction: Direction, states: Sequence[int], slots: np.ndarray,
                      part_m: np.ndarray, part_z: np.ndarray, parts: Optional[tuple] = None
                      ) -> np.ndarray:
    """``phi`` of every partition ``slots`` lists, in one pass.

    ``parts`` defaults to the ``_parts`` of the pair's shape, whose masks
    ``search.mip`` passes.  Each row's partitioned repertoire is read only at
    the intrinsic states in p's support, from the factor table
    ``partitioned_repertoire`` also uses, so the two agree bit for bit.
    Each value is ``_score``'s; +inf where a part's cause repertoire is empty.
    """
    parts = parts or _shape_parts(part_m.shape[1], part_z.shape[1])
    p = _repertoire(sys, mechanism, purview, direction).probabilities
    live = np.array([s for s in states if p[s] > sys.tol], dtype=np.intp)
    factors, missing = _factor_table(sys, mechanism, purview, direction, parts, live)
    values = _score(p[live], _products(factors, slots), sys.tol)
    if missing.any():
        values[missing[slots].any(axis=1)] = math.inf
    return values


def _score(p: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
    """Per row of ``q``: the largest p * log2(p / q), floored at 0; +inf where q has no support."""
    supported = q > tol
    ratio = np.divide(p, q, out=np.ones_like(q), where=supported)
    # math.log2 rather than np.log2: numpy's SIMD log2 can differ from libm in
    # the last bit, and ``intrinsic_difference`` scores with math.log2.
    logs = np.fromiter(map(math.log2, ratio.ravel().tolist()), float, ratio.size)
    scores = np.where(supported, p * logs.reshape(ratio.shape), math.inf)
    return scores.max(axis=1, initial=0.0)


def _max_norm_phi(sys: ClassicalSystem, mechanism: Mechanism, purview: tuple[int, ...],
                  direction: Direction, states: Sequence[int]) -> float:
    """``phi`` of {(-, Z), (M, -)} at the intrinsic ``states``: the bound ``search.phi_max`` reads.

    That partition's repertoire is the empty mechanism's over the purview,
    equal entry for entry to its row of the factor table.  This scores that
    row by ``_score``'s floor, support rule and operations, over Python
    floats.  For a cause the row is the uniform baseline that
    ``intrinsic_information`` scored to v.  The states tie with v's
    maximizer, in the support if v > 0, so the row scores v; else no state
    scores above v <= 0, and the row scores 0.
    """
    if direction == CAUSE:
        return max(0.0, intrinsic_information(sys, mechanism, purview, direction)[0])
    p = _repertoire(sys, mechanism, purview, direction).probabilities.tolist()
    q = _repertoire(sys, Mechanism((), ()), purview, direction).probabilities.tolist()
    return max([0.0, *(_pointwise(p[s], q[s], sys.tol) for s in states)])


def phi_max(sys: ClassicalSystem, mechanism: Mechanism, direction: Direction
            ) -> Optional[ClassicalDistinction]:
    """Maximally irreducible purview for a mechanism, or None if fully reducible.

    Purview and intrinsic-state ties are resolved by ``search.phi_max``;
    every tied intrinsic state is kept.  The result is memoized per
    (mechanism, direction), and the mechanism is checked on a memo miss
    only.  Storing it drops the mechanism's part tables, which only its
    searches read.
    """
    key = ("pm", mechanism, direction)
    if key not in sys._memo:
        sys._check_units(mechanism.units, "mechanism")
        sys._check_state(mechanism)
        # The search passes only sorted subsets of the checked candidate
        # units, so ``_mip`` and ``_phi`` take them unchecked.
        found = search.phi_max(sys, mechanism, mechanism.units, sys.candidate_units, direction,
                               _mip, intrinsic_information, _phi, _max_norm_phi)
        distinction = None
        if found is not None:
            z_states = sys.subset_states(found.purview)
            distinction = ClassicalDistinction(
                mechanism.units, mechanism.state, direction, found.purview,
                tuple(z_states[s] for s in found.states),
                found.phi, found.mip, found.normalization, found.tied_purviews,
            )
        sys._memo[key] = distinction
        sys._memo.pop(("et", mechanism), None)
        sys._memo.pop(("ct", mechanism), None)
    return sys._memo[key]


def unfold(sys: ClassicalSystem, state_t: Optional[Sequence[int]] = None,
           state_t1: Optional[Sequence[int]] = None,
           directions: Sequence[Direction] = (EFFECT, CAUSE),
           mechanisms: Optional[Sequence[Sequence[int]]] = None
           ) -> list[ClassicalDistinction]:
    """All distinctions of a system state: phi_max per mechanism subset.

    Effects are evaluated for mechanisms drawn from ``state_t``, causes for
    mechanisms drawn from ``state_t1``; subsets with phi = 0 are omitted.
    """
    subsets = (
        search.requested_subsets(mechanisms, sys._check_units)
        if mechanisms is not None else search.all_subsets(sys.candidate_units)
    )

    def mechanisms_in(direction: Direction):
        base = state_t if direction == EFFECT else state_t1
        if base is None:
            which = "state_t" if direction == EFFECT else "state_t1"
            raise ValidationError(f"{direction} analysis requires {which}")
        base = _check_full_state(sys, base)
        return lambda units: Mechanism(units, sys.state_of(base, units))

    return search.unfold(directions, subsets, mechanisms_in,
                         lambda mech, direction: phi_max(sys, mech, direction))


def _check_full_state(sys: ClassicalSystem, state: Sequence[int]) -> tuple[int, ...]:
    state = tuple(int(v) for v in state)
    if len(state) != sys.n_units:
        raise ValidationError(f"state has {len(state)} entries for {sys.n_units} units")
    for u, v in enumerate(state):
        if v < 0 or v >= sys.unit_state_counts[u]:
            raise ValidationError(f"state value {v} invalid for unit {u}")
    for u, v in zip(sys.background_units, sys.background_state):
        if state[u] != v:
            raise ValidationError(f"state conflicts with background at unit {u}")
    return state

