"""The search both backends run: minimum partition, purview maximization, unfolding.

A backend hands the search a ``Backend`` record, built per call, so a
replaced module attribute (a tracer, a test double) is seen here.  Ties are
within the system's one ``sys.tol``.  The purview search scores purviews in
rounds of one size, one backend call each, then replays the search that
visits purviews in descending bound order and stops once none left can
change the selection.  The bound is exact: for every partition, phi_MIP /
norm_MIP <= phi / norm, and the partition {(-, Z), (M, -)} has the largest
norm, |M| * |Z|, so phi_MIP never exceeds its phi, in floating point too
(the MIP argmin keeps the smaller phi among equal ratios).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Literal, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .partitions import DisintegratingPartition, Units, normalization, part_masks, partition_shape

Direction = Literal["cause", "effect"]

EFFECT: Direction = "effect"
CAUSE: Direction = "cause"


class Backend(NamedTuple):
    """What the search reads of a backend, each a function of its module."""

    units: Callable  # mechanism -> its units, ascending
    intrinsic_information: Callable  # (sys, mechanism, purview, direction) -> (value, states)
    score_partitions: Callable  # see ``mip``
    bounds: Callable  # see ``phi_max``


class Selection(NamedTuple):
    """The maximally irreducible purview of a mechanism, before backend wrapping."""

    purview: Units
    states: list  # intrinsic states tying at the MIP, in the backend's order
    phi: float
    mip: DisintegratingPartition
    normalization: int
    tied_purviews: tuple[Units, ...]


def all_subsets(units: Sequence[int]) -> list[Units]:
    """Nonempty subsets of ``units``, by size, then lexicographically."""
    out = []
    for size in range(1, len(units) + 1):
        out.extend(combinations(units, size))
    return out


def _minima(backend: Backend, sys, mechanism, purviews: Sequence[Units], direction: Direction,
            states: Sequence) -> list[Optional[tuple[int, float]]]:
    """Each purview's (MIP row, unnormalized phi), None for NaN scores, from one call."""
    shape = partition_shape(len(backend.units(mechanism)), len(purviews[0]))
    values = backend.score_partitions(sys, mechanism, list(purviews), direction, list(states),
                                      shape.slots, shape.part_m, shape.part_z)
    nan = np.isnan(values).any(axis=1).tolist()  # NaN would order differently than in a sort
    if all(nan):
        return [None] * len(nan)
    # Among the rows of the smallest ratio, argmin keeps the first of the smallest phi.
    ratio = values / shape.norms
    rows = np.where(ratio == ratio.min(axis=1, keepdims=True), values, math.inf).argmin(axis=1)
    return [None if bad else minimum for bad, minimum in
            zip(nan, zip(rows.tolist(), values[np.arange(len(values)), rows].tolist()))]


def _checked(found: Optional[tuple[int, float]], purview: Units) -> tuple[int, float]:
    if found is None:
        raise NumericError(f"partition scores of purview {purview} contain NaN")
    return found


def mip(backend: Backend, sys, mechanism, purview: Units, direction: Direction
        ) -> tuple[int, float]:
    """Minimum partition (argmin of phi / severed pairs) and its unnormalized phi.

    Ties go to the smaller unnormalized phi, then to canonical enumeration
    order.  ``backend.score_partitions(sys, mechanism, purviews, direction,
    states, slots, part_m, part_z)`` returns [purview, partition], purviews
    of one size at their intrinsic ``states``: row ``i`` of ``slots`` names
    partition ``i``'s parts as indices into the position masks ``part_m``
    (over the mechanism's units) and ``part_z`` (over a purview), padded
    with ``len(part_m)``.  The partition is returned as its row in the
    pair's ``partition_shape``, unlabeled.  Without intrinsic states the
    first partition scores 0.
    """
    _, states = backend.intrinsic_information(sys, mechanism, purview, direction)
    if states is None:
        return 0, 0.0
    return _checked(_minima(backend, sys, mechanism, [purview], direction, [states])[0], purview)


def labeled_mip(backend: Backend, sys, mechanism, purview: Units, direction: Direction
                ) -> tuple[DisintegratingPartition, float]:
    """``mip`` with the partition labeled over the mechanism's units and ``purview``."""
    row, value = mip(backend, sys, mechanism, purview, direction)
    m_units = backend.units(mechanism)
    return partition_shape(len(m_units), len(purview)).partition(row, m_units, purview), value


def phi(backend: Backend, sys, mechanism, purview: Units, theta: DisintegratingPartition,
        direction: Direction, states: Optional[Sequence] = None) -> float:
    """phi of one partition: ``score_partitions``' one-row case, at ``states`` if given.

    0 when the mechanism has no intrinsic states over the purview (an empty
    cause repertoire specifies nothing), whatever ``states`` holds.
    """
    _, intrinsic = backend.intrinsic_information(sys, mechanism, purview, direction)
    if intrinsic is None:
        return 0.0
    return float(backend.score_partitions(
        sys, mechanism, [purview], direction, [intrinsic if states is None else states],
        np.arange(theta.k)[np.newaxis],
        *part_masks(theta.parts, backend.units(mechanism), purview))[0, 0])


def phi_max(backend: Backend, sys, mechanism, direction: Direction) -> Optional[Selection]:
    """Maximally irreducible purview over the backend's candidate purviews, or None.

    Purviews tying within ``sys.tol`` resolve toward the larger purview, then
    the lower units; the others are recorded.  Intrinsic states tying at the
    MIP are all kept.  None when no purview has phi above ``sys.tol``.  Only
    the selected purview's MIP is labeled.

    ``backend.bounds(sys, mechanism, direction)`` lists (bound, purview,
    intrinsic states) in ``all_subsets`` order: the phi of {(-, Z), (M, -)},
    bit for bit that row of ``score_partitions``, 0 without states (None).
    In descending bound order (a stable sort), a search ``stops`` at a bound
    below the best phi minus ``sys.tol`` (no purview left can win or tie),
    or not above ``sys.tol`` while the best phi is not either.  Rounds score
    the top-bound purview it does not stop at, then all such purviews of the
    top one's size per call, until none is left; the search is then
    replayed over the stored scores.  If Z were the first purview it visits
    unscored, the rounds' best phi would be at least the search's best b on
    reaching Z (all before Z are scored, without NaN) and at most max(b, Z's
    bound) (later ones have phi <= bound <= Z's bound): the rule, which does
    not stop at Z against b, would not stop at it.
    """
    m_units = backend.units(mechanism)
    if not m_units:
        raise ValidationError("mechanism must be nonempty")
    tol = sys.tol

    def stops(top: float, best: float) -> bool:
        return top < best - tol or max(top, best) <= tol

    order = sorted(backend.bounds(sys, mechanism, direction), key=lambda entry: -entry[0])
    found: dict = {}  # purview -> ``_minima`` entry
    best = -math.inf
    while open_ := [(z, s) for top, z, s in order
                    if z not in found and s is not None and not stops(top, best)]:
        group = open_[:1] if not found else [e for e in open_ if len(e[0]) == len(open_[0][0])]
        purviews, states = zip(*group)
        found.update(zip(purviews, _minima(backend, sys, mechanism, purviews, direction, states)))
        best = max([best, *(m[1] for m in found.values() if m is not None)])

    per_purview: dict = {}
    best_phi = -math.inf
    for top, purview, states in order:
        if stops(top, best_phi):
            break
        per_purview[purview] = (0, 0.0) if states is None else _checked(found[purview], purview)
        best_phi = max(best_phi, per_purview[purview][1])
    if not best_phi > tol:
        return None
    tied = [z for z, (_, v) in per_purview.items() if v >= best_phi - tol]
    tied.sort(key=lambda z: (-len(z), z))
    selected = tied[0]
    row, value = per_purview[selected]
    theta = partition_shape(len(m_units), len(selected)).partition(row, m_units, selected)

    _, states = backend.intrinsic_information(sys, mechanism, selected, direction)
    if len(states) > 1:
        scored = [(phi(backend, sys, mechanism, selected, theta, direction, [s]), s)
                  for s in states]
        top = max(v for v, _ in scored)
        states = [s for v, s in scored if v >= top - tol]
    return Selection(
        purview=selected,
        states=list(states),
        phi=max(value, 0.0),
        mip=theta,
        normalization=normalization(theta, m_units, selected),
        tied_purviews=tuple(tied[1:]),
    )


def requested_subsets(mechanisms: Sequence[Sequence[int]], check: Callable) -> list[Units]:
    """Each requested mechanism sorted by the backend's ``check``; no unit may repeat."""
    requested = [tuple(units) for units in mechanisms]
    subsets = [check(units, "mechanism") for units in requested]
    if any(len(s) != len(units) for s, units in zip(subsets, requested)):
        raise ValidationError("mechanism units must be distinct")
    return subsets


def unfold(directions: Sequence[Direction], requested: Optional[Sequence[Sequence[int]]],
           check: Callable, candidates: Sequence[int], mechanisms: Callable,
           phi_max: Callable) -> list:
    """``phi_max`` of every subset in every direction; effects first, then by order and units.

    The subsets are the ``requested`` ones, sorted by ``check``, or every
    subset of ``candidates``.  ``mechanisms(direction)`` returns the function
    building a subset's mechanism in that direction.  Mechanisms with phi = 0
    are omitted.
    """
    subsets = all_subsets(candidates) if requested is None else requested_subsets(requested, check)
    found = []
    for direction in directions:
        mechanism = mechanisms(direction)
        for units in subsets:
            d = phi_max(mechanism(units), direction)
            if d is not None:
                found.append(((direction == CAUSE, len(units), units), d))
    found.sort(key=lambda pair: pair[0])
    return [d for _, d in found]
