"""Mechanism-level integrated information for discrete classical causal networks.

The analysis starts from a transition probability matrix whose units are
conditionally independent given the previous system state.  For a mechanism
(a unit subset in a state) it builds interventional cause/effect repertoires
over candidate purviews, scores them against chance with the intrinsic
difference measure, quantifies irreducibility against the minimum
disintegrating partition, and finally maximizes over purviews.  Running that
for every mechanism subset of a state unfolds the distinction structure.

Probabilities over a unit subset are indexed big-endian in ascending unit
order (lowest unit index = most significant digit).  All scores are in ibits
(base-2 logarithms weighted by the probability of the scored state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Literal, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .partitions import (  # noqa: F401  enumerate_disintegrating is re-exported
    DisintegratingPartition,
    enumerate_disintegrating,
    normalization,
    partition_shape,
)
from .tensor import DEFAULT_TOL

Direction = Literal["cause", "effect"]

_EFFECT: Direction = "effect"
_CAUSE: Direction = "cause"


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
    """A probability distribution a mechanism specifies over a purview."""

    purview: tuple[int, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        if abs(float(probs.sum()) - 1.0) > 1e-9 or float(probs.min()) < -1e-9:
            raise ValidationError("repertoire is not a probability distribution")


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
        self.num_states = int(np.prod(self.unit_state_counts, dtype=np.int64))
        self.tol = float(tol)

        tpm = np.array(tpm, dtype=float)  # a private copy: frozen below
        if tpm.shape != (self.num_states, self.num_states):
            raise ValidationError(
                f"tpm shape {tpm.shape} does not match state space "
                f"({self.num_states} x {self.num_states})"
            )
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
        # cond[i][s, v] = p(unit i takes value v at t+1 | source state s)
        self._cond = []
        for i, c in enumerate(self.unit_state_counts):
            cols = np.stack(
                [tpm[:, self._states[:, i] == v].sum(axis=1) for v in range(c)], axis=1
            )
            self._cond.append(cols)

        recon = np.ones_like(tpm)
        for i in range(self.n_units):
            recon *= self._cond[i][:, self._states[:, i]]
        resid = float(np.max(np.abs(recon - tpm)))
        if resid > max(tol, 1e-12):
            raise ValidationError(
                "units are not conditionally independent given the source state "
                f"(max residual {resid:.3e})"
            )

        if background is None:
            self.background_units: tuple[int, ...] = ()
            self.background_state: tuple[int, ...] = ()
        else:
            units, state = background
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

        self.candidate_units = tuple(
            u for u in range(self.n_units) if u not in self.background_units
        )
        self._memo: dict = {}

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

    def _rows_matching(self, fixed: dict[int, int]) -> np.ndarray:
        mask = np.ones(self.num_states, dtype=bool)
        for u, v in fixed.items():
            mask &= self._states[:, u] == v
        return np.nonzero(mask)[0]

    def _fixed_with_background(self, mech: Mechanism) -> dict[int, int]:
        fixed = dict(zip(self.background_units, self.background_state))
        fixed.update(zip(mech.units, mech.state))
        return fixed

    def subset_states(self, units: Sequence[int]) -> list[tuple[int, ...]]:
        """All assignments over ``units`` (ascending), big-endian order."""
        return list(product(*[range(self.unit_state_counts[u]) for u in units]))

    def state_of(self, full_state: Sequence[int], units: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(full_state[u]) for u in units)


# -- repertoires ----------------------------------------------------------


def effect_repertoire_single(sys: ClassicalSystem, mechanism: Mechanism,
                             unit: int) -> ClassicalRepertoire:
    """Distribution the mechanism fixes over one unit's next state.

    Units outside the mechanism are causally marginalized: the source state
    is averaged over them with uniform interventional weight.
    """
    units = sys._check_units(mechanism.units, "mechanism")
    sys._check_state(mechanism)
    (unit,) = sys._check_units([unit], "purview")
    rows = sys._rows_matching(sys._fixed_with_background(mechanism))
    return ClassicalRepertoire((unit,), sys._cond[unit][rows].mean(axis=0))


def effect_repertoire(sys: ClassicalSystem, mechanism: Mechanism,
                      purview: Iterable[int]) -> ClassicalRepertoire:
    """Product of single-unit effect repertoires over the purview.

    The product form gives each purview unit an independent marginalized
    input, which discounts correlations produced by shared inputs from
    outside the mechanism.  An empty mechanism yields the per-unit average
    over every source state (the fully marginalized effect repertoire).
    """
    purview = sys._check_units(purview, "purview")
    if not purview:
        raise ValidationError("purview must be nonempty")
    key = ("er", mechanism, purview)
    hit = sys._memo.get(key)
    if hit is not None:
        return hit
    probs = np.ones(1)
    for u in purview:
        probs = np.kron(probs, effect_repertoire_single(sys, mechanism, u).probabilities)
    rep = ClassicalRepertoire(purview, probs)
    sys._memo[key] = rep
    return rep


def unconstrained_effect(sys: ClassicalSystem, purview: Iterable[int],
                         mechanism_units: Iterable[int]) -> ClassicalRepertoire:
    """Effect repertoire averaged over every state of the mechanism units."""
    purview = sys._check_units(purview, "purview")
    units = sys._check_units(mechanism_units, "mechanism")
    key = ("ue", units, purview)
    hit = sys._memo.get(key)
    if hit is not None:
        return hit
    acc = np.zeros(int(np.prod([sys.unit_state_counts[u] for u in purview])))
    states = sys.subset_states(units)
    for st in states:
        acc += effect_repertoire(sys, Mechanism(units, st), purview).probabilities
    rep = ClassicalRepertoire(purview, acc / len(states))
    sys._memo[key] = rep
    return rep


def cause_repertoire(sys: ClassicalSystem, mechanism: Mechanism,
                     purview: Iterable[int]) -> Optional[ClassicalRepertoire]:
    """Bayesian inversion over product distributions, per mechanism unit.

    Each mechanism unit contributes the normalized likelihood of its state
    across purview assignments (source units outside the purview uniformly
    marginalized); the factors are multiplied and renormalized.  Returns
    None when the mechanism state is unreachable from every purview state.
    """
    purview = sys._check_units(purview, "purview")
    if not purview:
        raise ValidationError("purview must be nonempty")
    sys._check_units(mechanism.units, "mechanism")
    sys._check_state(mechanism)
    if not mechanism.units:
        return unconstrained_cause(sys, purview)
    key = ("cr", mechanism, purview)
    if key in sys._memo:
        return sys._memo[key]

    z_states = sys.subset_states(purview)
    row_sets = []
    bg = dict(zip(sys.background_units, sys.background_state))
    for z in z_states:
        fixed = dict(bg)
        fixed.update(zip(purview, z))
        row_sets.append(sys._rows_matching(fixed))

    result = np.ones(len(z_states))
    for u, v in zip(mechanism.units, mechanism.state):
        factor = np.array([sys._cond[u][rows, v].mean() for rows in row_sets])
        total = float(factor.sum())
        if total <= 0.0:
            sys._memo[key] = None
            return None
        result *= factor / total
    total = float(result.sum())
    if total <= 0.0:
        sys._memo[key] = None
        return None
    rep = ClassicalRepertoire(purview, result / total)
    sys._memo[key] = rep
    return rep


def unconstrained_cause(sys: ClassicalSystem, purview: Iterable[int]) -> ClassicalRepertoire:
    """Uniform distribution over the purview's state space."""
    purview = sys._check_units(purview, "purview")
    n = int(np.prod([sys.unit_state_counts[u] for u in purview]))
    return ClassicalRepertoire(purview, np.full(n, 1.0 / n))


def _repertoire(sys: ClassicalSystem, mechanism: Mechanism, purview: tuple[int, ...],
                direction: Direction) -> Optional[ClassicalRepertoire]:
    if direction == _EFFECT:
        return effect_repertoire(sys, mechanism, purview)
    return cause_repertoire(sys, mechanism, purview)


def _unconstrained(sys: ClassicalSystem, mechanism: Mechanism, purview: tuple[int, ...],
                   direction: Direction) -> ClassicalRepertoire:
    if direction == _EFFECT:
        return unconstrained_effect(sys, purview, mechanism.units)
    return unconstrained_cause(sys, purview)


# -- information measures -------------------------------------------------


def intrinsic_difference(p, q, support_tol: float = DEFAULT_TOL,
                         tie_tol: float = DEFAULT_TOL) -> tuple[float, tuple[int, ...]]:
    """max_s p_s * log2(p_s / q_s), with the maximizing state(s).

    Zero-probability states contribute 0; a state with p > 0 but q = 0 makes
    the value +inf.  States within ``tie_tol`` of the maximum are all
    returned, the winning value first among equals.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    vals = np.zeros(len(p))
    for s in range(len(p)):
        if p[s] > support_tol:
            vals[s] = math.inf if q[s] <= support_tol else p[s] * math.log2(p[s] / q[s])
    value = float(np.max(vals)) if len(vals) else 0.0
    if math.isinf(value):
        states = tuple(int(s) for s in np.nonzero(np.isinf(vals))[0])
    else:
        states = tuple(int(s) for s in np.nonzero(vals >= value - tie_tol)[0])
    return value, states


def kld(p, q, support_tol: float = DEFAULT_TOL) -> float:
    """Kullback-Leibler divergence in bits: sum_s p_s log2(p_s / q_s)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    total = 0.0
    for s in range(len(p)):
        if p[s] > support_tol:
            if q[s] <= support_tol:
                return math.inf
            total += p[s] * math.log2(p[s] / q[s])
    return total


def intrinsic_information(sys: ClassicalSystem, mechanism: Mechanism,
                          purview: Iterable[int], direction: Direction,
                          tie_tol: float = DEFAULT_TOL
                          ) -> tuple[float, Optional[tuple[int, ...]]]:
    """Intrinsic difference between the constrained repertoire and chance.

    Effects are compared to the mechanism-averaged effect repertoire, causes
    to the uniform distribution.  Returns (value, maximizing states); the
    states are None when the cause repertoire is empty, in which case the
    value is 0 by convention.
    """
    purview = sys._check_units(purview, "purview")
    rep = _repertoire(sys, mechanism, purview, direction)
    if rep is None:
        return 0.0, None
    baseline = _unconstrained(sys, mechanism, purview, direction)
    value, states = intrinsic_difference(
        rep.probabilities, baseline.probabilities, support_tol=sys.tol, tie_tol=tie_tol
    )
    return value, states


# -- partitioned repertoires and phi --------------------------------------


def _part_repertoire(sys: ClassicalSystem, mechanism: Mechanism, m_part: tuple[int, ...],
                     z_part: tuple[int, ...], direction: Direction) -> Optional[np.ndarray]:
    """Repertoire of one partition part over a nonempty ``z_part``, or None if empty.

    A part with an empty mechanism gets the fully marginalized effect
    repertoire (effect side) or the uniform distribution (cause side).
    """
    sub = mechanism.restrict(m_part)
    if direction == _EFFECT:
        return effect_repertoire(sys, sub, z_part).probabilities
    if not m_part:
        return unconstrained_cause(sys, z_part).probabilities
    rep = cause_repertoire(sys, sub, z_part)
    return None if rep is None else rep.probabilities


def partitioned_repertoire(sys: ClassicalSystem, mechanism: Mechanism,
                           purview: Iterable[int], theta: DisintegratingPartition,
                           direction: Direction) -> Optional[ClassicalRepertoire]:
    """Product over the partition's parts of their independent repertoires.

    A part with an empty purview contributes a scalar 1.  Returns None if a
    part's cause repertoire is empty.
    """
    purview = sys._check_units(purview, "purview")
    factors: list[tuple[tuple[int, ...], np.ndarray]] = []
    for m_part, z_part in theta.parts:
        if not z_part:
            continue
        dist = _part_repertoire(sys, mechanism, m_part, z_part, direction)
        if dist is None:
            return None
        factors.append((z_part, dist))

    z_states = sys.subset_states(purview)
    result = np.ones(len(z_states))
    pos = {u: i for i, u in enumerate(purview)}
    for units, dist in factors:
        idx = np.zeros(len(z_states), dtype=int)
        for u in units:
            stride = int(np.prod([sys.unit_state_counts[v] for v in units if v > u]))
            idx += stride * np.array([z[pos[u]] for z in z_states])
        result *= dist[idx]
    return ClassicalRepertoire(purview, result)


def phi(sys: ClassicalSystem, mechanism: Mechanism, purview: Iterable[int],
        theta: DisintegratingPartition, direction: Direction,
        states: Optional[Sequence[int]] = None, tie_tol: float = DEFAULT_TOL) -> float:
    """Pointwise divergence at the intrinsic state against the partitioned repertoire.

    With tied intrinsic states the maximum over them is kept.  Returns +inf
    when the partitioned repertoire has no support on an intrinsic state, and
    0 when the mechanism specifies nothing (empty cause repertoire).
    """
    purview = sys._check_units(purview, "purview")
    rep = _repertoire(sys, mechanism, purview, direction)
    if rep is None:
        return 0.0
    if states is None:
        _, states = intrinsic_information(sys, mechanism, purview, direction, tie_tol)
    part = partitioned_repertoire(sys, mechanism, purview, theta, direction)
    if part is None:
        return math.inf
    best = 0.0
    for s in states:
        ps = float(rep.probabilities[s])
        qs = float(part.probabilities[s])
        if ps <= sys.tol:
            continue
        val = math.inf if qs <= sys.tol else ps * math.log2(ps / qs)
        best = max(best, val)
    return best


def mip(sys: ClassicalSystem, mechanism: Mechanism, purview: Iterable[int],
        direction: Direction, tie_tol: float = DEFAULT_TOL
        ) -> tuple[DisintegratingPartition, float]:
    """Minimum partition: argmin over partitions of phi / severed-pair count.

    The returned value is the unnormalized phi at the minimizing partition.
    Ties in the normalized score go to the smaller unnormalized phi, then to
    the earlier partition in canonical enumeration order.

    Every partition is scored at once.  Each distinct part's repertoire is
    read at the intrinsic states into one row of a factor table; a
    partition's q is the product of its parts' rows, taken in part order, so
    it equals ``partitioned_repertoire`` bit for bit, and each value equals
    ``phi`` at the same states.
    """
    purview = sys._check_units(purview, "purview")
    m_units = tuple(sorted(mechanism.units))
    shape = partition_shape(len(m_units), len(purview))
    parts = shape.relabel(m_units, purview)
    _, states = intrinsic_information(sys, mechanism, purview, direction, tie_tol)
    if states is None:
        return shape.partition(0, parts), 0.0
    p = _repertoire(sys, mechanism, purview, direction).probabilities
    live = np.array([s for s in states if p[s] > sys.tol], dtype=np.intp)
    counts = np.array([sys.unit_state_counts[u] for u in purview])
    digits = np.array(np.unravel_index(live, counts)).reshape(len(purview), len(live))

    # Parts without a purview and the padding slot past the last part keep 1.0.
    factors = np.ones((len(parts) + 1, len(live)))
    missing = np.zeros(len(parts) + 1, dtype=bool)
    for j, (m_part, z_part) in enumerate(parts):
        if not z_part:
            continue
        dist = _part_repertoire(sys, mechanism, m_part, z_part, direction)
        if dist is None:
            missing[j] = True
            continue
        on = shape.part_z[j]
        factors[j] = dist[np.ravel_multi_index(digits[on], counts[on])]

    q = factors[shape.slots[:, 0]]
    for column in shape.slots.T[1:]:
        q = q * factors[column]
    supported = q > sys.tol
    ratio = np.divide(p[live], q, out=np.ones_like(q), where=supported)
    # math.log2 rather than np.log2: numpy's SIMD log2 can differ from libm in
    # the last bit, and ``phi`` scores single partitions with math.log2.
    logs = np.fromiter(map(math.log2, ratio.ravel().tolist()), float, ratio.size)
    scores = np.where(supported, p[live] * logs.reshape(ratio.shape), math.inf)
    values = scores.max(axis=1, initial=0.0)
    values[missing[shape.slots].any(axis=1)] = math.inf
    # lexsort is stable: equal (value / norm, value) keys keep enumeration order.
    best = int(np.lexsort((values, values / shape.norms))[0])
    return shape.partition(best, parts), float(values[best])


def phi_max(sys: ClassicalSystem, mechanism: Mechanism, direction: Direction,
            tie_tol: float = DEFAULT_TOL) -> Optional[ClassicalDistinction]:
    """Maximally irreducible purview for a mechanism, or None if fully reducible.

    Purviews tying within ``tie_tol`` are resolved toward the larger purview;
    remaining candidates are recorded.  Tied intrinsic states are all kept,
    ordered by their phi at the minimum partition.
    """
    sys._check_units(mechanism.units, "mechanism")
    sys._check_state(mechanism)
    if not mechanism.units:
        raise ValidationError("mechanism must be nonempty")

    per_purview: dict[tuple[int, ...], tuple[DisintegratingPartition, float]] = {}
    purviews = _all_subsets(sys.candidate_units)
    for purview in purviews:
        per_purview[purview] = mip(sys, mechanism, purview, direction, tie_tol)

    best_phi = max(v for _, v in per_purview.values())
    if not best_phi > tie_tol:
        return None
    tied = [z for z, (_, v) in per_purview.items() if v >= best_phi - tie_tol]
    tied.sort(key=lambda z: (-len(z), z))
    selected, others = tied[0], tuple(tied[1:])
    theta, value = per_purview[selected]

    _, states = intrinsic_information(sys, mechanism, selected, direction, tie_tol)
    scored = []
    for s in states:
        scored.append(
            (phi(sys, mechanism, selected, theta, direction, [s], tie_tol), s)
        )
    top = max(v for v, _ in scored)
    winners = [s for v, s in scored if v >= top - tie_tol]
    z_states = sys.subset_states(selected)
    return ClassicalDistinction(
        mechanism_units=mechanism.units,
        mechanism_state=mechanism.state,
        direction=direction,
        purview=selected,
        intrinsic_states=tuple(z_states[s] for s in winners),
        phi=max(value, 0.0),
        mip=theta,
        normalization=normalization(theta, mechanism.units, selected),
        tied_purviews=others,
    )


def unfold(sys: ClassicalSystem, state_t: Optional[Sequence[int]] = None,
           state_t1: Optional[Sequence[int]] = None,
           directions: Sequence[Direction] = (_EFFECT, _CAUSE),
           mechanisms: Optional[Sequence[Sequence[int]]] = None,
           tie_tol: float = DEFAULT_TOL) -> list[ClassicalDistinction]:
    """All distinctions of a system state: phi_max per mechanism subset.

    Effects are evaluated for mechanisms drawn from ``state_t``, causes for
    mechanisms drawn from ``state_t1``; subsets with phi = 0 are omitted.
    """
    out: list[ClassicalDistinction] = []
    subsets = (
        [sys._check_units(m, "mechanism") for m in mechanisms]
        if mechanisms is not None else _all_subsets(sys.candidate_units)
    )
    for direction in directions:
        base = state_t if direction == _EFFECT else state_t1
        if base is None:
            which = "state_t" if direction == _EFFECT else "state_t1"
            raise ValidationError(f"{direction} analysis requires {which}")
        base = _check_full_state(sys, base)
        for units in subsets:
            mech = Mechanism(units, sys.state_of(base, units))
            d = phi_max(sys, mech, direction, tie_tol)
            if d is not None:
                out.append(d)
    out.sort(key=lambda d: (d.direction == _CAUSE, d.order, d.mechanism_units))
    return out


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


def _all_subsets(units: Sequence[int]) -> list[tuple[int, ...]]:
    out = []
    for size in range(1, len(units) + 1):
        out.extend(combinations(units, size))
    return out
