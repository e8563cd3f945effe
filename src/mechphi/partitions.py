"""Partition combinatorics for irreducibility analysis.

Two families live here:

* plain set partitions of a unit set (used for entanglement structure and
  as a building block below), and
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
class SetPartition:
    """Disjoint nonempty blocks covering a ground set."""

    blocks: tuple[Units, ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        canon = tuple(sorted(_canon_units(b) for b in blocks))
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValidationError("set partition blocks must be nonempty")
            if seen.intersection(block):
                raise ValidationError(f"set partition blocks overlap: {canon}")
            seen.update(block)
        return cls(canon)

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def ground_set(self) -> Units:
        return tuple(sorted(u for b in self.blocks for u in b))

    def __iter__(self) -> Iterator[Units]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        inner = " | ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"SetPartition({inner})"


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


def enumerate_set_partitions(units: Iterable[int]) -> list[SetPartition]:
    """All set partitions of ``units``; the count is the Bell number."""
    ground = _canon_units(units)
    if not ground:
        raise ValidationError("cannot partition an empty unit set")

    def rec(items: Units) -> Iterator[list[list[int]]]:
        if len(items) == 1:
            yield [[items[0]]]
            return
        head, rest = items[0], items[1:]
        for smaller in rec(rest):
            for i in range(len(smaller)):
                yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1:]
            yield [[head]] + smaller

    out = [SetPartition.from_blocks(blocks) for blocks in rec(ground)]
    out.sort(key=lambda p: (p.r, p.blocks))
    return out


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
    """(part_m, part_z) position masks of labeled ``parts``, as ``PartitionShape`` holds them."""
    parts = list(parts)
    part_m = np.array([[u in m for u in mechanism] for m, _ in parts], dtype=bool)
    part_z = np.array([[u in z for u in purview] for _, z in parts], dtype=bool)
    return (part_m.reshape(len(parts), len(mechanism)),
            part_z.reshape(len(parts), len(purview)))


def _enumerate(m_all: Units, z_all: Units) -> Iterator[DisintegratingPartition]:
    """Every disintegrating partition, unsorted; canonical order sorts by (k, parts)."""
    for mech_partition in enumerate_set_partitions(m_all):
        blocks = mech_partition.blocks
        p = len(blocks)
        if p == 1:
            # The lone block is the whole mechanism: it must be cut away from
            # the entire purview, which is then grouped freely.
            for zpart in enumerate_set_partitions(z_all):
                parts = [(blocks[0], ())]
                parts.extend(((), zb) for zb in zpart.blocks)
                yield DisintegratingPartition.from_parts(parts)
            continue
        for assignment in product(range(p + 1), repeat=len(z_all)):
            attached: list[list[int]] = [[] for _ in range(p)]
            leftover: list[int] = []
            for unit, dest in zip(z_all, assignment):
                if dest == 0:
                    leftover.append(unit)
                else:
                    attached[dest - 1].append(unit)
            base = [(blocks[j], tuple(attached[j])) for j in range(p)]
            if leftover:
                for lpart in enumerate_set_partitions(leftover):
                    parts = base + [((), zb) for zb in lpart.blocks]
                    yield DisintegratingPartition.from_parts(parts)
            else:
                yield DisintegratingPartition.from_parts(base)


def _readonly(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def partition_shape(m_size: int, z_size: int) -> PartitionShape:
    """The disintegrating partitions of an |M| = m_size, |Z| = z_size pair, cached.

    The enumeration runs once per shape, over positions 0..m_size-1 and
    0..z_size-1.  Position order is unit order for any ascending labels, so
    relabeling keeps both the canonical partition order and the part order.
    """
    if m_size < 1:
        raise ValidationError("mechanism must be nonempty")
    if z_size < 1:
        raise ValidationError("purview must be nonempty")
    m_all, z_all = tuple(range(m_size)), tuple(range(z_size))
    # One shared object per distinct part keeps the sort keys small.
    interned: dict[tuple[Units, Units], tuple[Units, Units]] = {}
    entries = []
    for theta in _enumerate(m_all, z_all):
        parts = tuple(interned.setdefault(part, part) for part in theta.parts)
        entries.append((len(parts), parts, normalization(theta, m_all, z_all)))
    entries.sort()  # canonical (k, parts) order; partitions are distinct
    table = sorted(interned)
    index = {part: j for j, part in enumerate(table)}
    pad, width = len(table), entries[-1][0]
    return PartitionShape(
        part_m=_readonly([[i in m for i in m_all] for m, _ in table], bool),
        part_z=_readonly([[i in z for i in z_all] for _, z in table], bool),
        slots=_readonly([[index[part] for part in parts] + [pad] * (width - k)
                         for k, parts, _ in entries], np.min_scalar_type(pad)),
        norms=_readonly([norm for _, _, norm in entries], np.min_scalar_type(m_size * z_size)),
    )


def enumerate_disintegrating(mechanism: Iterable[int],
                             purview: Iterable[int]) -> list[DisintegratingPartition]:
    """Every disintegrating partition of (mechanism, purview), each once.

    Construction: pick a set partition of the mechanism; attach each purview
    unit to one mechanism block or leave it unattached; group unattached
    purview units into parts with an empty mechanism side.  A single-block
    mechanism (the whole of it) may not keep any purview, so for |M| = 1 the
    enumeration reduces to partitions that sever the mechanism from the
    entire purview.  The partitions of each (|M|, |Z|) shape are enumerated
    once (``partition_shape``) and relabeled here.
    """
    m_all = _canon_units(mechanism)
    z_all = _canon_units(purview)
    shape = partition_shape(len(m_all), len(z_all))
    parts = shape.relabel(m_all, z_all)
    return [DisintegratingPartition(tuple(parts[j] for j in row if j < len(parts)))
            for row in shape.slots.tolist()]
