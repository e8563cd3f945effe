"""Mechanism-level integrated information for discrete classical causal networks.

The analysis starts from a transition probability matrix whose units are
conditionally independent given the previous system state.  For a mechanism
(a unit subset in a state) it builds interventional cause/effect repertoires
over candidate purviews, scores them against chance with the intrinsic
difference measure, quantifies irreducibility against the minimum
disintegrating partition, and finally maximizes over purviews.  Running that
for every mechanism subset of a state unfolds the distinction structure.
Each mechanism's purview table holds, built in one pass, its repertoire
over every candidate purview's states, one row each, with each purview's
intrinsic information and search bound; a slice equals, bit for bit, the
repertoire built for its purview alone.  MIP scoring reads sub-mechanisms',
for all the purviews of a search round at once.

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
from itertools import accumulate, product
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import search
from .errors import ValidationError
from .partitions import (  # noqa: F401  enumerate_disintegrating is re-exported
    DisintegratingPartition,
    enumerate_disintegrating,
    part_masks,
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
    sets: the purview layout, marginals and effect baselines per unit set,
    likelihoods per (unit, value), purview tables, part tables and
    selections per (mechanism, direction), named repertoires, and part-row
    indexes per (|M|, |Z|) (1.5 MB at 5 binary units, 16 MB at 6).  Part
    tables stay until the selection is stored; the rest is bounded by the
    state space and lives as long as the system.  Entries are written once;
    a search whose part tables another thread drops keeps its own, so
    concurrent analyses of one system can only duplicate work.
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
    values from a unit's state count on, its pad, hold 1.0.
    """
    key = ("em", units)
    if key not in sys._memo:
        shape = tuple(sys.unit_state_counts[u] for u in units)
        table = np.ones(shape + (sys.n_units, max(sys.unit_state_counts) + 1))
        for u in sys.candidate_units:
            c = sys.unit_state_counts[u]
            rows = _units_first(sys, sys._cond[u], units).reshape(shape + (-1, c))
            table[..., u, :c] = rows.mean(-2)
        sys._memo[key] = table
    return sys._memo[key]


class _Layout(NamedTuple):
    """Every candidate purview's states, one row each: R = prod(1 + c_u) - 1 rows.

    Purviews come in ``search.all_subsets`` order, states big-endian.  A row's
    digit per candidate u is its value, or c_u (the pad) outside the purview.
    """

    index: dict  # purview -> its position in ``search.all_subsets`` order
    spans: list  # each purview's rows, as a slice
    digits: np.ndarray  # [candidate, row]
    strides: np.ndarray  # [unit]
    row_of: np.ndarray  # [digit number] -> row; all pads -> R
    uniform: np.ndarray  # [R] each purview's uniform distribution


def _layout(sys: ClassicalSystem) -> _Layout:
    """The system's purview rows, built once."""
    layout = sys._memo.get(("lay",))
    if layout is None:
        units, purviews = sys.candidate_units, search.all_subsets(sys.candidate_units)
        radix = [sys.unit_state_counts[u] + 1 for u in units]
        digits = np.array([[dict(zip(z, state)).get(u, r - 1) for u, r in zip(units, radix)]
                           for z in purviews for state in sys.subset_states(z)]).T
        sizes = [len(sys.subset_states(z)) for z in purviews]
        ends = np.cumsum(sizes).tolist()
        row_of = np.full(math.prod(radix), ends[-1])
        row_of[np.ravel_multi_index(digits, radix)] = np.arange(ends[-1])
        strides = np.zeros(sys.n_units, dtype=int)
        strides[list(units)] = [math.prod(radix[j + 1:]) for j in range(len(units))]
        layout = sys._memo[("lay",)] = _Layout(
            {z: i for i, z in enumerate(purviews)}, [slice(e - n, e) for e, n in zip(ends, sizes)],
            digits, strides, row_of, np.repeat([1.0 / n for n in sizes], sizes))
    return layout


def _effects(sys: ClassicalSystem, rows: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """[..., R]: per ``_marginals`` row, the effect probability of every purview row.

    Candidate units multiply left to right; one outside a purview reads its
    pad, 1.0, and x * 1.0 == x, so each purview's slice is bit for bit its
    units' outer product.  ``take`` keeps the result C-ordered.
    """
    units = sys.candidate_units
    q = rows[..., units[0], :].take(digits[0], axis=-1)
    for u, d in zip(units[1:], digits[1:]):
        q = q * rows[..., u, :].take(d, axis=-1)
    return q


def _baseline(sys: ClassicalSystem, units: tuple[int, ...]) -> np.ndarray:
    """[R]: every purview's effect repertoire averaged over the states of ``units``, memoized.

    The rows are C-ordered and R >= 2 wide, so ``sum(0)`` adds them in order
    from state 0, as ``acc +=`` would (a strided axis sums pairwise from 8
    states on).  For no units it is the fully marginalized repertoire.
    """
    key = ("eb", units)
    if key not in sys._memo:
        table = _marginals(sys, units)
        rows = _effects(sys, table.reshape(-1, *table.shape[-2:]), _layout(sys).digits)
        sys._memo[key] = rows.sum(0) / len(rows)
    return sys._memo[key]


def _likelihoods(sys: ClassicalSystem, unit: int, value: int) -> np.ndarray:
    """[R]: the normalized likelihood of ``unit`` taking ``value``, per purview row, memoized.

    Source units outside a purview are averaged out, one contiguous 1-D mean
    per purview state, and each purview is divided by its own ``sum()``.  NaN
    marks a purview from none of whose states the value is reachable.
    """
    key = ("cl", unit, value)
    if key not in sys._memo:
        parts = []
        for z in _layout(sys).index:
            rows = np.ascontiguousarray(_units_first(sys, sys._cond[unit][..., value], z))
            factor = rows.reshape(math.prod(sys.unit_state_counts[u] for u in z), -1).mean(1)
            total = float(factor.sum())
            parts.append(factor / total if total > 0.0 else np.full(len(factor), math.nan))
        sys._memo[key] = np.concatenate(parts)
    return sys._memo[key]


class _Table(NamedTuple):
    """A (mechanism, direction)'s repertoire over every purview row, with its scores."""

    probabilities: np.ndarray  # [R], read-only; NaN over an empty cause repertoire
    ii: list  # per purview: (intrinsic information, states); states None if empty
    bounds: list  # per purview: phi of {(-, Z), (M, -)} at its states


def _table(sys: ClassicalSystem, mechanism: Mechanism, direction: Direction) -> _Table:
    """The mechanism's purview table in ``direction``; the mechanism is checked on a miss.

    Effects are ``_effects`` of the ``_marginals`` row, scored against the
    unit set's ``_baseline``; causes multiply ``_likelihoods`` left to right,
    divide each purview by its own pairwise ``sum()`` (empty unless above 0)
    and score against uniform, by ``intrinsic_difference``'s rule.  The
    bound scores {(-, Z), (M, -)}, whose factor row is the empty mechanism's
    repertoire, by ``_score_partitions``' rules: for an effect the fully
    marginalized one at the states; for a cause the uniform one that scored
    v, so max(0, v).
    """
    key = ("pt", mechanism, direction)
    table = sys._memo.get(key)
    if table is None:
        units = search.requested_subsets([mechanism.units], sys._check_units)[0]
        if units != tuple(mechanism.units):
            raise ValidationError(f"mechanism units must be ascending, got {mechanism.units}")
        sys._check_state(mechanism)
        layout = _layout(sys)
        if direction == EFFECT:
            p = _effects(sys, _marginals(sys, mechanism.units)[mechanism.state], layout.digits)
            q = _baseline(sys, units)
        else:
            q = layout.uniform
            factors = [_likelihoods(sys, u, v) for u, v in zip(*mechanism)]
            p = reduce(np.multiply, factors, np.ones(len(q)))
            for rows in layout.spans:
                total = float(p[rows].sum())
                p[rows] = p[rows] / total if total > 0.0 else math.nan
        tol, pl, ql, zero = sys.tol, p.tolist(), q.tolist(), _baseline(sys, ()).tolist()
        ii, bounds = [], []
        for a, b in ((rows.start, rows.stop) for rows in layout.spans):
            ii.append((0.0, None) if math.isnan(pl[a]) else
                      _maximize([_pointwise(pl[s], ql[s], tol) for s in range(a, b)], tol))
            value, states = ii[-1]
            bounds.append(max(0.0, value) if direction == CAUSE else
                          max([0.0, *(_pointwise(pl[a + s], zero[a + s], tol) for s in states)]))
        p.setflags(write=False)
        table = sys._memo[key] = _Table(p, ii, bounds)
    return table


def _purview_index(sys: ClassicalSystem, purview: tuple) -> tuple[tuple[int, ...], int]:
    """The canonical purview and its layout position; checked when not canonical as given."""
    index = _layout(sys).index
    if purview not in index:
        purview = sys._check_units(purview, "purview")
        if not purview:
            raise ValidationError("purview must be nonempty")
    return purview, index[purview]


def _memoized(sys: ClassicalSystem, key: tuple, purview: tuple,
              rows: Callable[[], np.ndarray]) -> Optional[ClassicalRepertoire]:
    """The purview's slice of ``rows()``, None if NaN marks it empty, memoized under ``key``."""
    if key not in sys._memo:
        purview, i = _purview_index(sys, purview)
        row = rows()[_layout(sys).spans[i]]
        sys._memo[key] = None if math.isnan(row[0]) else ClassicalRepertoire(purview, row)
    return sys._memo[key]


def effect_repertoire(sys: ClassicalSystem, mechanism: Mechanism,
                      purview: Iterable[int]) -> ClassicalRepertoire:
    """Product of single-unit effect repertoires (``_marginals``) over the purview.

    The product form gives each purview unit an independent marginalized
    input, which discounts correlations produced by shared inputs from
    outside the mechanism.  An empty mechanism yields the fully marginalized
    effect repertoire.  A ``_table`` slice; arguments are checked on a memo miss.
    """
    key = ("er", mechanism, purview := tuple(purview))
    return _memoized(sys, key, purview, lambda: _table(sys, mechanism, EFFECT).probabilities)


def unconstrained_effect(sys: ClassicalSystem, purview: Iterable[int],
                         mechanism_units: Iterable[int]) -> ClassicalRepertoire:
    """Effect repertoire averaged over the mechanism units' states; checked on a memo miss."""
    key = ("ue", units := tuple(mechanism_units), purview := tuple(purview))
    return _memoized(sys, key, purview,
                     lambda: _baseline(sys, sys._check_units(units, "mechanism")))


def cause_repertoire(sys: ClassicalSystem, mechanism: Mechanism,
                     purview: Iterable[int]) -> Optional[ClassicalRepertoire]:
    """Bayesian inversion over product distributions, per mechanism unit.

    The mechanism units' likelihoods (``_likelihoods``) are multiplied and
    renormalized.  Returns None when the mechanism state is unreachable from
    every purview state, and the uniform repertoire for an empty mechanism.
    A ``_table`` slice; arguments are checked on a memo miss.
    """
    key = ("cr", mechanism, purview := tuple(purview))
    return _memoized(sys, key, purview, lambda: _table(sys, mechanism, CAUSE).probabilities)


def unconstrained_cause(sys: ClassicalSystem, purview: Iterable[int]) -> ClassicalRepertoire:
    """Uniform distribution over the purview's states; checked on a memo miss."""
    key = ("uc", purview := tuple(purview))
    return _memoized(sys, key, purview, lambda: _layout(sys).uniform)


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


def _maximize(values: list[float], tol: float) -> tuple[float, tuple[int, ...]]:
    """The largest value (NaN if any is) and the states within ``tol`` of it, or at +inf."""
    value = max(values, default=0.0) if not math.isnan(sum(values)) else math.nan
    if math.isinf(value):
        return value, tuple(s for s, v in enumerate(values) if math.isinf(v))
    return value, tuple(s for s, v in enumerate(values) if v >= value - tol)


def intrinsic_difference(p, q, tol: float = DEFAULT_TOL) -> tuple[float, tuple[int, ...]]:
    """max_s p_s * log2(p_s / q_s), with the maximizing state(s).

    Probabilities within ``tol`` of 0 are outside the support: such a state
    contributes 0, and one with p > 0 but q = 0 makes the value +inf.  States
    within ``tol`` of the maximum are all returned, the winning value first
    among equals.
    """
    return _maximize(_pointwise_all(p, q, tol), tol)


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
    A ``_table`` read; arguments are checked as the repertoires check them.
    """
    _, i = _purview_index(sys, tuple(purview))
    return _table(sys, mechanism, direction).ii[i]


# -- partitioned repertoires and phi --------------------------------------


def _part_tables(sys: ClassicalSystem, mechanism: Mechanism, direction: Direction
                 ) -> np.ndarray:
    """[mask, row]: sub-mechanism tables, 1.0 at row R; read once, as a search may drop it."""
    key = ("parts", mechanism, direction)
    tables = sys._memo.get(key)
    if tables is None:
        subs = [mechanism.restrict(u for i, u in enumerate(mechanism.units) if mask >> i & 1)
                for mask in range(1 << len(mechanism.units))]
        tables = np.ones((len(subs), len(_layout(sys).row_of)))
        tables[:, :-1] = [_table(sys, sub, direction).probabilities for sub in subs]
        sys._memo[key] = tables
    return tables


def _part_rows(sys: ClassicalSystem, m_size: int, z_size: int) -> tuple[np.ndarray, int]:
    """[part code, row]: every part's flat ``_part_tables`` index at the size-|Z| rows, memoized.

    Part (m, z) of position masks, code (m << |Z|) | z, reads sub-mechanism
    m's row with a row's values on the units z selects, pads elsewhere; the
    last code, padding, reads row R (1.0).  With the first size-|Z| row.
    """
    key = ("pr", m_size, z_size)
    if key not in sys._memo:
        layout = _layout(sys)
        spans = [rows for z, rows in zip(layout.index, layout.spans) if len(z) == z_size]
        first, stop = spans[0].start, spans[-1].stop
        units, digits = list(sys.candidate_units), layout.digits[:, first:stop]
        pads = np.array([sys.unit_state_counts[u] for u in units])[:, np.newaxis]
        inside, top = digits < pads, len(layout.row_of) - 1
        position = np.maximum(np.cumsum(inside, axis=0) - 1, 0)  # within the row's purview
        keep = (np.arange(1 << z_size)[:, np.newaxis, np.newaxis] >> position) & inside
        shift = (digits - pads) * layout.strides[units][:, np.newaxis]  # 0 outside the purview
        rows = layout.row_of[top + (keep * shift).sum(axis=1)]  # [z, row]
        masks = np.arange(1 << m_size)[:, np.newaxis, np.newaxis] * (top + 1)
        sys._memo[key] = (np.vstack([(masks + rows).reshape(-1, stop - first),
                                     np.full(stop - first, top)]), first)
    return sys._memo[key]


def _factors(sys: ClassicalSystem, mechanism: Mechanism, direction: Direction,
             part_m: np.ndarray, part_z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """[part + pad, row]: each position-mask part's repertoire (NaN if empty) at ``rows``."""
    index, first = _part_rows(sys, part_m.shape[1], part_z.shape[1])
    codes = _codes(part_m.tobytes(), part_z.tobytes(), part_m.shape[1], part_z.shape[1])
    return _part_tables(sys, mechanism, direction).ravel()[index[codes[:, np.newaxis],
                                                                 rows - first]]


@lru_cache(maxsize=1024)
def _codes(part_m: bytes, part_z: bytes, m_size: int, z_size: int) -> np.ndarray:
    """The ``_part_rows`` code of each part, then the padding part's, by the masks' bytes."""
    masks = np.hstack([np.frombuffer(part_z, bool).reshape(-1, z_size),
                       np.frombuffer(part_m, bool).reshape(-1, m_size)])
    return np.append(masks @ (1 << np.arange(z_size + m_size)), 1 << (m_size + z_size))


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
    part's cause repertoire is empty.  The sub-mechanisms' tables check.
    """
    purview, i = _purview_index(sys, tuple(purview))
    rows = _layout(sys).spans[i]
    factors = _factors(sys, mechanism, direction,
                       *part_masks(theta.parts, mechanism.units, purview),
                       np.arange(rows.start, rows.stop))
    if np.isnan(factors).any():
        return None
    return ClassicalRepertoire(purview, _products(factors, np.arange(theta.k)[np.newaxis])[0])


def _backend() -> search.Backend:
    """This module as the search reads it, built per call: a replaced attribute is seen."""
    return search.Backend(attrgetter("units"), intrinsic_information, _score_partitions, _bounds)


def phi(sys: ClassicalSystem, mechanism: Mechanism, purview: Iterable[int],
        theta: DisintegratingPartition, direction: Direction,
        states: Optional[Sequence[int]] = None) -> float:
    """Pointwise divergence at the intrinsic state against the partitioned repertoire.

    With tied intrinsic states the maximum over them is kept.  Returns +inf
    when the partitioned repertoire has no support on an intrinsic state, and
    0 when the mechanism specifies nothing (empty cause repertoire).
    """
    return search.phi(_backend(), sys, mechanism, sys._check_units(purview, "purview"), theta,
                      direction, states)


def mip(sys: ClassicalSystem, mechanism: Mechanism, purview: Iterable[int],
        direction: Direction) -> tuple[DisintegratingPartition, float]:
    """Minimum partition: argmin over partitions of phi / severed-pair count.

    The returned value is the unnormalized phi at the minimizing partition;
    ties are broken by ``search.mip``.
    """
    return search.labeled_mip(_backend(), sys, mechanism, sys._check_units(purview, "purview"),
                              direction)


def _score_partitions(sys: ClassicalSystem, mechanism: Mechanism,
                      purviews: Sequence[tuple[int, ...]], direction: Direction,
                      states: Sequence[Sequence[int]], slots: np.ndarray, part_m: np.ndarray,
                      part_z: np.ndarray) -> np.ndarray:
    """[purview, partition]: ``phi`` of every partition ``slots`` lists, for purviews of one size.

    One ``_factors`` gather at each purview's intrinsic states in p's support,
    one ``_products`` and one ``math.log2`` pass (numpy's log2 can differ from
    libm's in the last bit) give max p * log2(p / q) per purview, floored at
    0, +inf where q has no support, as NaN (an empty part) has none.
    """
    layout, tol = _layout(sys), sys.tol
    p = _table(sys, mechanism, direction).probabilities
    starts = [layout.spans[layout.index[z]].start for z in purviews]
    columns = [[a + s for s in z_states if p[a + s] > tol] for a, z_states in zip(starts, states)]
    rows = np.array([row for z_rows in columns for row in z_rows], dtype=np.intp)
    q, pr = _products(_factors(sys, mechanism, direction, part_m, part_z, rows), slots), p[rows]
    supported = q > tol
    ratio = np.divide(pr, q, out=np.ones_like(q), where=supported)
    logs = np.fromiter(map(math.log2, ratio.ravel().tolist()), float, ratio.size)
    scores = np.where(supported, pr * logs.reshape(ratio.shape), math.inf)
    firsts = [0, *accumulate(map(len, columns))]  # each purview's first column
    live = [j for j, z_rows in enumerate(columns) if z_rows]
    maxima = np.maximum(0.0, np.maximum.reduceat(scores, [firsts[j] for j in live], axis=1).T)
    if len(live) == len(purviews):
        return maxima
    values = np.zeros((len(purviews), len(slots)))  # 0 without a state in p's support
    values[live] = maxima
    empty = np.isnan(_factors(sys, mechanism, direction, part_m, part_z, np.array(starts)))
    values[empty[slots].any(axis=1).T] = math.inf
    return values


def _bounds(sys: ClassicalSystem, mechanism: Mechanism, direction: Direction) -> list:
    """Every candidate purview's (bound, purview, intrinsic states), as ``_table`` scored them."""
    table = _table(sys, mechanism, direction)
    return [(b, z, states) for b, z, (_, states) in zip(table.bounds, _layout(sys).index, table.ii)]


def phi_max(sys: ClassicalSystem, mechanism: Mechanism, direction: Direction
            ) -> Optional[ClassicalDistinction]:
    """Maximally irreducible purview for a mechanism, or None if fully reducible.

    Purview and intrinsic-state ties are resolved by ``search.phi_max``;
    every tied intrinsic state is kept.  The result is memoized per
    (mechanism, direction), checked when its ``_table`` is built.  Storing
    it drops the part tables, which only its searches read.
    """
    key = ("pm", mechanism, direction)
    if key not in sys._memo:
        found = search.phi_max(_backend(), sys, mechanism, direction)
        distinction = None
        if found is not None:
            z_states = sys.subset_states(found.purview)
            distinction = ClassicalDistinction(
                mechanism.units, mechanism.state, direction, found.purview,
                tuple(z_states[s] for s in found.states),
                found.phi, found.mip, found.normalization, found.tied_purviews,
            )
        sys._memo[key] = distinction
        sys._memo.pop(("parts", mechanism, direction), None)
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
    def mechanisms_in(direction: Direction):
        base = state_t if direction == EFFECT else state_t1
        if base is None:
            which = "state_t" if direction == EFFECT else "state_t1"
            raise ValidationError(f"{direction} analysis requires {which}")
        base = _check_full_state(sys, base)
        return lambda units: Mechanism(units, sys.state_of(base, units))

    return search.unfold(directions, mechanisms, sys._check_units, sys.candidate_units,
                         mechanisms_in, lambda mech, direction: phi_max(sys, mech, direction))


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

