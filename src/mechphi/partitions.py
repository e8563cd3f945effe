"""Partition combinatorics for irreducibility analysis.

Two families live here:

* plain set partitions of positions ``range(n)`` (used for entanglement
  structure and as a building block below), and
* disintegrating partitions of a (mechanism, purview) pair: collections of
  disjoint part pairs that cover both sets, where a part pairing the whole
  mechanism must pair it with an empty purview.  Every such partition severs
  at least one mechanism-purview interaction, which is what makes it a valid
  candidate when probing whether a mechanism acts as one unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ValidationError

Units = tuple[int, ...]


def _canon_units(units: Iterable[int]) -> Units:
    return tuple(sorted({int(u) for u in units}))


@dataclass(frozen=True)
class DisintegratingPartition:
    """Ordered part pairs (mechanism_part, purview_part), canonically sorted.

    Parts with both sides empty are never stored; two partitions inducing the
    same part mapping are therefore equal.
    """

    parts: tuple[tuple[Units, Units], ...]

    @classmethod
    def from_parts(cls, parts: Iterable[tuple[Iterable[int], Iterable[int]]]
                   ) -> "DisintegratingPartition":
        canon = tuple(sorted(
            (_canon_units(m), _canon_units(z))
            for m, z in parts
            if _canon_units(m) or _canon_units(z)
        ))
        if len(canon) < 2:
            raise ValidationError("a disintegrating partition needs at least two parts")
        return cls(canon)

    @property
    def k(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        def side(units: Units) -> str:
            return ",".join(map(str, units)) if units else "-"

        inner = " | ".join(f"{side(m)}>{side(z)}" for m, z in self.parts)
        return f"DisintegratingPartition({inner})"


def _set_partitions(mask: int) -> Iterator[list[int]]:
    """Set partitions of the bits of ``mask`` as block bitmasks; ``0`` has one, ``[]``.

    Each block is the lowest remaining bit plus a subset of the rest, so the
    blocks of a partition come in ascending order of their lowest bit.
    """
    if not mask:
        yield []
        return
    low = mask & -mask
    rest = sub = mask ^ low
    while True:
        for tail in _set_partitions(rest ^ sub):
            yield [low | sub, *tail]
        if not sub:
            return
        sub = (sub - 1) & rest


@lru_cache(maxsize=None)
def set_partitions(n: int) -> tuple[tuple[Units, ...], ...]:
    """Set partitions of ``range(n)`` as ascending position blocks, finest first, cached.

    Partitions with equally many blocks come in order of their blocks; the
    count is the Bell number.
    """
    if n < 1:
        raise ValidationError("cannot partition an empty unit set")
    return tuple(sorted(
        (tuple(tuple(i for i in range(n) if b >> i & 1) for b in blocks)
         for blocks in _set_partitions((1 << n) - 1)),
        key=lambda blocks: (-len(blocks), blocks)))


def normalization(theta: DisintegratingPartition, mechanism: Iterable[int],
                  purview: Iterable[int]) -> int:
    """Number of ordered (mechanism unit, purview unit) pairs the partition severs.

    A pair survives only when its two units share a part, so the count is
    |M|*|Z| minus the per-part products.  It is strictly positive for every
    valid disintegrating partition and is used to normalize partition scores
    so that coarse cuts are not favored merely for severing more.
    """
    m_all = _canon_units(mechanism)
    z_all = _canon_units(purview)
    intact = sum(len(m) * len(z) for m, z in theta.parts)
    return len(m_all) * len(z_all) - intact


class PartitionShape(NamedTuple):
    """Every disintegrating partition of one (|M|, |Z|) shape, over unit positions.

    Parts are (mechanism positions, purview positions) pairs; each distinct
    part is stored once.  Row ``i`` of ``slots`` lists the parts of the
    ``i``-th partition in canonical enumeration order, in canonical part
    order, padded at the end with ``len(part_m)``.  All arrays are read-only.
    """

    part_m: np.ndarray  # (parts, |M|) bool: mechanism positions of each part
    part_z: np.ndarray  # (parts, |Z|) bool: purview positions of each part
    slots: np.ndarray  # (partitions, max k) part indices, padded with len(part_m)
    norms: np.ndarray  # (partitions,) severed-pair normalization

    def relabel(self, mechanism: Units, purview: Units) -> list[tuple[Units, Units]]:
        """Each distinct part over ascending ``mechanism`` and ``purview`` labels."""
        return relabel(self.part_m, self.part_z, mechanism, purview)

    def partition(self, index: int, mechanism: Units, purview: Units
                  ) -> DisintegratingPartition:
        """Partition ``index`` over ascending ``mechanism`` and ``purview`` labels.

        Only its own parts are labeled.
        """
        row = [j for j in self.slots[index].tolist() if j < len(self.part_m)]
        return DisintegratingPartition(
            tuple(relabel(self.part_m[row], self.part_z[row], mechanism, purview)))


def relabel(part_m: np.ndarray, part_z: np.ndarray, mechanism: Units,
            purview: Units) -> list[tuple[Units, Units]]:
    """Position masks as (mechanism part, purview part) labels; ``part_masks`` inverts it."""
    return [
        (tuple(u for u, b in zip(mechanism, mb) if b),
         tuple(u for u, b in zip(purview, zb) if b))
        for mb, zb in zip(part_m.tolist(), part_z.tolist())
    ]


def part_masks(parts: Iterable[tuple[Units, Units]], mechanism: Units,
               purview: Units) -> tuple[np.ndarray, np.ndarray]:
    """(part_m, part_z) position masks of labeled ``parts``, as ``PartitionShape`` holds them.

    The parts must be a disintegrating partition of (``mechanism``,
    ``purview``): at least two nonempty parts, each unit of the pair in
    exactly one part, no unit outside the pair, and no part pairing the whole
    mechanism with a purview.
    """
    parts = list(parts)
    part_m = np.array([[u in m for u in mechanism] for m, _ in parts],
                      dtype=bool).reshape(len(parts), len(mechanism))
    part_z = np.array([[u in z for u in purview] for _, z in parts],
                      dtype=bool).reshape(len(parts), len(purview))
    both = np.hstack([part_m, part_z])
    if (len(parts) < 2 or sum(len(m) + len(z) for m, z in parts) != both.shape[1]
            or (both.sum(axis=0) != 1).any() or not both.any(axis=1).all()
            or (part_m.all(axis=1) & part_z.any(axis=1)).any()):
        raise ValidationError(
            f"parts {parts} are not a disintegrating partition of mechanism "
            f"{tuple(mechanism)} and purview {tuple(purview)}")
    return part_m, part_z


@lru_cache(maxsize=None)
def partition_shape(m_size: int, z_size: int) -> PartitionShape:
    """The disintegrating partitions of an |M| = m_size, |Z| = z_size pair, cached.

    Built once per shape, over positions, from bitmasks: a set partition of
    the mechanism, a purview share per block (none for the whole mechanism)
    and a set partition of the purview left over.  Each partition is a row of
    part ranks; one ``np.lexsort`` puts the rows in canonical (k, parts)
    order.  Position order is unit order for any ascending labels, so
    relabeling keeps both the partition and the part order.
    """
    if m_size < 1:
        raise ValidationError("mechanism must be nonempty")
    if z_size < 1:
        raise ValidationError("purview must be nonempty")
    whole_m, whole_z = (1 << m_size) - 1, (1 << z_size) - 1

    def positions(mask: int) -> Units:
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    # Every part but (empty, empty) and (whole mechanism, nonempty purview).
    table = sorted(((m, z) for m in range(whole_m + 1) for z in range(whole_z + 1)
                    if (m or z) and not (m == whole_m and z)),
                   key=lambda part: (positions(part[0]), positions(part[1])))
    pad, width = len(table), m_size + z_size
    rank = [[pad] * (whole_z + 1) for _ in range(whole_m + 1)]
    for j, (m, z) in enumerate(table):
        rank[m][z] = j
    # Empty-mechanism parts rank first and blocks come in order: rows are built sorted.
    leftover = [[[rank[0][b] for b in blocks] for blocks in _set_partitions(left)]
                for left in range(whole_z + 1)]
    rows = []
    for blocks in _set_partitions(whole_m):
        p = len(blocks)
        for dest in product(range(p + 1 if p > 1 else 1), repeat=z_size):
            shares = [0] * (p + 1)  # shares[0] is left over
            for i, d in enumerate(dest):
                shares[d] |= 1 << i
            base = [rank[b][z] for b, z in zip(blocks, shares[1:])]
            rows.extend(head + base + [pad] * (width - len(head) - p)
                        for head in leftover[shares[0]])
    slots = np.array(rows, dtype=np.min_scalar_type(pad))
    slots = slots[np.lexsort((*slots.T[::-1], np.count_nonzero(slots < pad, axis=1)))]
    norm_type = np.min_scalar_type(m_size * z_size)
    intact = np.array([m.bit_count() * z.bit_count() for m, z in table] + [0], norm_type)
    shape = PartitionShape(
        part_m=np.array([[m >> i & 1 for i in range(m_size)] for m, _ in table], bool),
        part_z=np.array([[z >> i & 1 for i in range(z_size)] for _, z in table], bool),
        slots=slots,
        norms=m_size * z_size - intact[slots].sum(axis=1, dtype=norm_type),
    )
    for arr in shape:
        arr.setflags(write=False)
    return shape


def enumerate_disintegrating(mechanism: Iterable[int],
                             purview: Iterable[int]) -> list[DisintegratingPartition]:
    """Every disintegrating partition of (mechanism, purview), each once, in canonical order.

    The whole mechanism keeps no purview, so for |M| = 1 every partition
    severs the mechanism from the entire purview.  The partitions of each
    (|M|, |Z|) shape are built once (``partition_shape``) and relabeled here.
    """
    m_all = _canon_units(mechanism)
    z_all = _canon_units(purview)
    shape = partition_shape(len(m_all), len(z_all))
    parts = shape.relabel(m_all, z_all)
    return [DisintegratingPartition(tuple(parts[j] for j in row if j < len(parts)))
            for row in shape.slots.tolist()]
