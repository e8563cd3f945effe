"""The search both backends run: minimum partition, purview maximization, unfolding.

A backend supplies the substrate: ``intrinsic_information``, ``phi`` for one
partition, ``score_partitions`` for every partition of a (mechanism, purview)
pair and ``bound``, the phi of the max-norm partition.  It passes them in on
each call, so a replaced module attribute (a tracer, a test double) is seen
here.  Ties are values within the system's one tolerance, ``sys.tol``.

The purview search visits purviews in descending order of that bound and
stops once no purview left can change the selection.  The bound is exact:
for every partition, phi_MIP / norm_MIP <= phi / norm, and the partition
{(-, Z), (M, -)} has the largest norm, |M| * |Z|, so phi_MIP never exceeds
its phi, in floating point too (``mip``'s argmin keeps the smaller phi
among equal ratios).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Literal, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .partitions import DisintegratingPartition, Units, normalization, partition_shape

Direction = Literal["cause", "effect"]

EFFECT: Direction = "effect"
CAUSE: Direction = "cause"


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


def mip(sys, mechanism, m_units: Units, purview: Units, direction: Direction,
        intrinsic_information: Callable, score_partitions: Callable) -> tuple[int, float]:
    """Minimum partition (argmin of phi / severed pairs) and its unnormalized phi.

    Ties go to the smaller unnormalized phi, then to canonical enumeration
    order.  ``score_partitions(sys, mechanism, purview, direction, states,
    slots, part_m, part_z)`` returns the phi of every partition ``slots``
    lists: row ``i`` names partition ``i``'s parts as indices into the
    position masks ``part_m`` (over ``m_units``) and ``part_z`` (over
    ``purview``), padded with ``len(part_m)``.  The partition is returned
    as its row in ``partition_shape(len(m_units), len(purview))``, unlabeled.
    Without intrinsic states the first partition scores 0.
    """
    shape = partition_shape(len(m_units), len(purview))
    _, states = intrinsic_information(sys, mechanism, purview, direction)
    if states is None:
        return 0, 0.0
    values = score_partitions(sys, mechanism, purview, direction, states, shape.slots,
                              shape.part_m, shape.part_z)
    if np.isnan(values).any():  # NaN would order differently here than in a sort
        raise NumericError(f"partition scores of purview {purview} contain NaN")
    # flatnonzero and argmin both keep the lowest index among equals.
    ratio = values / shape.norms
    tied = np.flatnonzero(ratio == ratio.min())
    best = int(tied[np.argmin(values[tied])])
    return best, float(values[best])


def phi_max(sys, mechanism, m_units: Units, candidates: Sequence[int],
            direction: Direction, mip: Callable, intrinsic_information: Callable,
            phi: Callable, bound: Callable) -> Optional[Selection]:
    """Maximally irreducible purview over subsets of ``candidates``, or None.

    Purviews tying within ``sys.tol`` resolve toward the larger purview, then
    the lower units; the others are recorded.  Intrinsic states tying at the
    MIP are all kept.  None when no purview has phi above ``sys.tol``.
    ``mip`` returns its partition as a row of the pair's shape, as
    ``search.mip`` does; only the selected purview's is labeled.

    ``bound(sys, mechanism, purview, direction, states)`` is the phi of
    {(-, Z), (M, -)} at the intrinsic ``states``, bit for bit the value
    ``score_partitions`` gives that row; a purview without intrinsic states
    has bound 0.  ``mip`` runs in descending bound order, ties in subset
    order.  It stops at the first bound below the best phi found minus
    ``sys.tol``, where no purview left can win or tie, or not above
    ``sys.tol`` while the best phi is not either, where none can lift phi
    above ``sys.tol``.
    """
    if not m_units:
        raise ValidationError("mechanism must be nonempty")
    tol = sys.tol
    bounds = []
    for purview in all_subsets(candidates):
        _, states = intrinsic_information(sys, mechanism, purview, direction)
        bounds.append((0.0 if states is None else
                       bound(sys, mechanism, purview, direction, states), purview))
    bounds.sort(key=lambda pair: -pair[0])  # stable
    per_purview: dict = {}
    best_phi = -math.inf
    for top, purview in bounds:
        if top < best_phi - tol or max(top, best_phi) <= tol:
            break
        per_purview[purview] = mip(sys, mechanism, purview, direction)
        best_phi = max(best_phi, per_purview[purview][1])
    if not best_phi > tol:
        return None
    tied = [z for z, (_, v) in per_purview.items() if v >= best_phi - tol]
    tied.sort(key=lambda z: (-len(z), z))
    selected = tied[0]
    row, value = per_purview[selected]
    theta = partition_shape(len(m_units), len(selected)).partition(row, m_units, selected)

    _, states = intrinsic_information(sys, mechanism, selected, direction)
    if len(states) > 1:
        scored = [(phi(sys, mechanism, selected, theta, direction, [s]), s) for s in states]
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


def unfold(directions: Sequence[Direction], subsets: Sequence[Units],
           mechanisms: Callable, phi_max: Callable) -> list:
    """``phi_max`` of every subset in every direction; effects first, then by order and units.

    ``mechanisms(direction)`` returns the function building a subset's
    mechanism in that direction.  Mechanisms with phi = 0 are omitted.
    """
    found = []
    for direction in directions:
        mechanism = mechanisms(direction)
        for units in subsets:
            d = phi_max(mechanism(units), direction)
            if d is not None:
                found.append(((direction == CAUSE, len(units), units), d))
    found.sort(key=lambda pair: pair[0])
    return [d for _, d in found]
