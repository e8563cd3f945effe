"""The search both backends run: minimum partition, purview maximization, unfolding.

A backend supplies the substrate: ``intrinsic_information``, ``phi`` for one
partition and ``score_partitions`` for every partition of a (mechanism,
purview) pair.  It passes them in on each call, so a replaced module
attribute (a tracer, a test double) is seen here.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Literal, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ValidationError
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
        tie_tol: float, intrinsic_information: Callable, score_partitions: Callable
        ) -> tuple[DisintegratingPartition, float]:
    """Minimum partition (argmin of phi / severed pairs) and its unnormalized phi.

    Ties go to the smaller unnormalized phi, then to canonical enumeration
    order.  ``score_partitions(sys, mechanism, purview, direction, states,
    slots, parts)`` returns the phi of every partition ``slots`` lists: row
    ``i`` names partition ``i``'s parts as indices into ``parts``, padded
    with ``len(parts)``.  Without intrinsic states the first partition
    scores 0.
    """
    shape = partition_shape(len(m_units), len(purview))
    parts = shape.relabel(m_units, purview)
    _, states = intrinsic_information(sys, mechanism, purview, direction, tie_tol)
    if states is None:
        return shape.partition(0, parts), 0.0
    values = score_partitions(sys, mechanism, purview, direction, states, shape.slots, parts)
    # lexsort is stable: equal (value / norm, value) keys keep enumeration order.
    best = int(np.lexsort((values, values / shape.norms))[0])
    return shape.partition(best, parts), float(values[best])


def phi_max(sys, mechanism, m_units: Units, candidates: Sequence[int],
            direction: Direction, tie_tol: float, mip: Callable,
            intrinsic_information: Callable, phi: Callable) -> Optional[Selection]:
    """Maximally irreducible purview over subsets of ``candidates``, or None.

    Purviews tying within ``tie_tol`` resolve toward the larger purview, then
    the lower units; the others are recorded.  Intrinsic states tying at the
    MIP are all kept.  None when no purview has phi above ``tie_tol``.
    """
    if not m_units:
        raise ValidationError("mechanism must be nonempty")
    per_purview = {
        purview: mip(sys, mechanism, purview, direction, tie_tol)
        for purview in all_subsets(candidates)
    }
    best_phi = max(v for _, v in per_purview.values())
    if not best_phi > tie_tol:
        return None
    tied = [z for z, (_, v) in per_purview.items() if v >= best_phi - tie_tol]
    tied.sort(key=lambda z: (-len(z), z))
    selected = tied[0]
    theta, value = per_purview[selected]

    _, states = intrinsic_information(sys, mechanism, selected, direction, tie_tol)
    scored = [(phi(sys, mechanism, selected, theta, direction, [s], tie_tol), s)
              for s in states]
    top = max(v for v, _ in scored)
    return Selection(
        purview=selected,
        states=[s for v, s in scored if v >= top - tie_tol],
        phi=max(value, 0.0),
        mip=theta,
        normalization=normalization(theta, m_units, selected),
        tied_purviews=tuple(tied[1:]),
    )


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
