"""Partition enumeration against brute-force generate-filter oracles."""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Iterator

import numpy as np
import pytest

from mechphi.errors import ValidationError
from mechphi.partitions import (
    DisintegratingPartition,
    Units,
    enumerate_disintegrating,
    normalization,
    part_masks,
    partition_shape,
    relabel,
    set_partitions,
)

BELL_NUMBERS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def oracle_disintegrating(mechanism, purview):
    """Enumerate every labeled assignment and filter on the defining conditions."""
    m = tuple(sorted(mechanism))
    z = tuple(sorted(purview))
    found = set()
    for k in range(2, len(m) + len(z) + 1):
        for m_assign in product(range(k), repeat=len(m)):
            for z_assign in product(range(k), repeat=len(z)):
                parts = []
                for i in range(k):
                    mi = frozenset(m[j] for j in range(len(m)) if m_assign[j] == i)
                    zi = frozenset(z[j] for j in range(len(z)) if z_assign[j] == i)
                    parts.append((mi, zi))
                if any(mi == set(m) and zi for mi, zi in parts):
                    continue
                canon = frozenset(p for p in parts if p[0] or p[1])
                if len(canon) >= 2:
                    found.add(canon)
    return found


def as_canonical_set(thetas):
    return {
        frozenset((frozenset(mp), frozenset(zp)) for mp, zp in theta.parts)
        for theta in thetas
    }


class TestSetPartitions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bell_number_counts(self, n):
        parts = set_partitions(n)
        assert len(parts) == BELL_NUMBERS[n]
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert tuple(sorted(u for b in p for u in b)) == tuple(range(n))

    def test_three_units_explicit(self):
        blocks = set(set_partitions(3))
        assert ((0, 1, 2),) in blocks
        assert ((0,), (1,), (2,)) in blocks
        assert ((0,), (1, 2)) in blocks

    @pytest.mark.parametrize("units", [range(n) for n in range(1, 7)])
    def test_matches_literal_recursion(self, units):
        finest_first = sorted(literal_set_partitions(units), key=lambda p: (-len(p), p))
        assert list(set_partitions(len(units))) == finest_first

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            set_partitions(0)


class TestEnumerateDisintegrating:
    def test_single_unit_pair_is_forced(self):
        thetas = enumerate_disintegrating([0], [1])
        assert len(thetas) == 1
        assert thetas[0].parts == (((), (1,)), ((0,), ()))

    @pytest.mark.parametrize("m_size,z_size", [(1, 1), (1, 2), (2, 1), (2, 2),
                                               (1, 3), (3, 1), (2, 3), (3, 2), (3, 3)])
    def test_matches_generate_filter_oracle(self, m_size, z_size):
        mechanism = tuple(range(m_size))
        purview = tuple(range(10, 10 + z_size))
        thetas = enumerate_disintegrating(mechanism, purview)
        assert len(set(thetas)) == len(thetas), "duplicates in canonical enumeration"
        assert as_canonical_set(thetas) == oracle_disintegrating(mechanism, purview)

    def test_no_purview_unit_keeps_whole_mechanism(self):
        for theta in enumerate_disintegrating([0, 1, 2], [3, 4]):
            for mp, zp in theta.parts:
                if zp:
                    assert set(mp) != {0, 1, 2}

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_disintegrating([], [0])
        with pytest.raises(ValidationError):
            enumerate_disintegrating([0], [])


def severed_pair_oracle(theta, mechanism, purview):
    part_of = {}
    for i, (mp, zp) in enumerate(theta.parts):
        for u in mp:
            part_of[("m", u)] = i
        for u in zp:
            part_of[("z", u)] = i
    return sum(
        1
        for mu in mechanism
        for zu in purview
        if part_of[("m", mu)] != part_of[("z", zu)]
    )


class TestNormalization:
    def test_full_cut_two_by_two(self):
        theta = DisintegratingPartition.from_parts([((0, 1), ()), ((), (2, 3))])
        assert normalization(theta, (0, 1), (2, 3)) == 4
        assert severed_pair_oracle(theta, (0, 1), (2, 3)) == 4

    def test_matched_pairs(self):
        theta = DisintegratingPartition.from_parts([((0,), (2,)), ((1,), (3,))])
        assert normalization(theta, (0, 1), (2, 3)) == 2
        assert severed_pair_oracle(theta, (0, 1), (2, 3)) == 2

    def test_minimal_cut(self):
        theta = DisintegratingPartition.from_parts([((0,), ()), ((), (1,))])
        assert normalization(theta, (0,), (1,)) == 1

    @pytest.mark.parametrize("m_size,z_size", [(1, 1), (2, 2), (2, 3), (3, 3)])
    def test_oracle_and_positivity_across_enumeration(self, m_size, z_size):
        mechanism = tuple(range(m_size))
        purview = tuple(range(10, 10 + z_size))
        full = m_size * z_size
        for theta in enumerate_disintegrating(mechanism, purview):
            n = normalization(theta, mechanism, purview)
            assert n == severed_pair_oracle(theta, mechanism, purview)
            assert n >= 1
            severs_all = all(not (mp and zp) for mp, zp in theta.parts)
            assert (n == full) == severs_all


SHAPES = [(m, z) for m in range(1, 5) for z in range(1, 5)]


def literal_set_partitions(units) -> list[tuple[Units, ...]]:
    """Set partitions as sorted blocks, by recursion on the first unit, coarsest first."""
    ground = tuple(sorted(set(units)))

    def rec(items: Units) -> Iterator[list[list[int]]]:
        if len(items) == 1:
            yield [[items[0]]]
            return
        head, rest = items[0], items[1:]
        for smaller in rec(rest):
            for i in range(len(smaller)):
                yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1:]
            yield [[head]] + smaller

    out = [tuple(sorted(tuple(sorted(b)) for b in blocks)) for blocks in rec(ground)]
    out.sort(key=lambda p: (len(p), p))
    return out


def _enumerate(m_all: Units, z_all: Units) -> Iterator[DisintegratingPartition]:
    """Every disintegrating partition, unsorted; canonical order sorts by (k, parts)."""
    for blocks in literal_set_partitions(m_all):
        p = len(blocks)
        if p == 1:
            # The lone block is the whole mechanism: it must be cut away from
            # the entire purview, which is then grouped freely.
            for zpart in literal_set_partitions(z_all):
                parts = [(blocks[0], ())]
                parts.extend(((), zb) for zb in zpart)
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
                for lpart in literal_set_partitions(leftover):
                    parts = base + [((), zb) for zb in lpart]
                    yield DisintegratingPartition.from_parts(parts)
            else:
                yield DisintegratingPartition.from_parts(base)


def literal_enumeration(mechanism, purview):
    return sorted(_enumerate(mechanism, purview), key=lambda th: (th.k, th.parts))


def label_sets(m_size, z_size):
    """Contiguous, non-contiguous and overlapping (mechanism, purview) labels."""
    return [
        (tuple(range(m_size)), tuple(range(10, 10 + z_size))),
        (tuple(range(1, 2 * m_size, 2)), tuple(range(0, 3 * z_size, 3))),
        (tuple(range(m_size)), tuple(range(z_size))),
        (tuple(range(8 - m_size, 8)), tuple(range(5, 5 + z_size))),
    ]


class TestPartitionShape:
    @pytest.mark.parametrize("m_size,z_size", SHAPES)
    def test_relabel_equals_literal_enumeration(self, m_size, z_size):
        for mechanism, purview in label_sets(m_size, z_size):
            assert (enumerate_disintegrating(mechanism, purview)
                    == literal_enumeration(mechanism, purview)), (mechanism, purview)

    @pytest.mark.parametrize("m_size,z_size", SHAPES)
    def test_norms_match_normalization(self, m_size, z_size):
        shape = partition_shape(m_size, z_size)
        for mechanism, purview in label_sets(m_size, z_size):
            thetas = enumerate_disintegrating(mechanism, purview)
            assert shape.norms.tolist() == [
                normalization(theta, mechanism, purview) for theta in thetas
            ]

    @pytest.mark.parametrize("m_size,z_size", SHAPES)
    def test_slots_index_distinct_parts_in_part_order(self, m_size, z_size):
        shape = partition_shape(m_size, z_size)
        mechanism, purview = tuple(range(m_size)), tuple(range(10, 10 + z_size))
        parts = shape.relabel(mechanism, purview)
        assert len(set(parts)) == len(parts)
        thetas = enumerate_disintegrating(mechanism, purview)
        for i, theta in enumerate(thetas):
            row = shape.slots[i].tolist()
            assert [parts[j] for j in row[:theta.k]] == list(theta.parts)
            assert all(j == len(parts) for j in row[theta.k:])
            assert shape.partition(i, mechanism, purview) == theta

    def test_arrays_are_read_only_and_shared(self):
        shape = partition_shape(3, 2)
        before = enumerate_disintegrating((0, 1, 2), (3, 4))
        for arr in shape:
            assert isinstance(arr, np.ndarray)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[-1]
        assert partition_shape(3, 2) is shape
        assert enumerate_disintegrating((0, 1, 2), (3, 4)) == before

    def test_empty_sides_rejected(self):
        with pytest.raises(ValidationError):
            partition_shape(0, 2)
        with pytest.raises(ValidationError):
            partition_shape(2, 0)


class TestPartMasks:
    @pytest.mark.parametrize("m_size, z_size", [(m, z) for m in range(1, 4) for z in range(1, 4)])
    def test_enumerated_partitions_pass_and_fail_on_other_pairs(self, m_size, z_size):
        mechanism, purview = tuple(range(m_size)), tuple(range(5, 5 + z_size))
        others = [(mechanism + (9,), purview), (mechanism, purview + (9,))]
        others += [(mechanism[1:], purview)] if m_size > 1 else []
        others += [(mechanism, purview[1:])] if z_size > 1 else []
        for theta in enumerate_disintegrating(mechanism, purview):
            masks = part_masks(theta.parts, mechanism, purview)
            assert relabel(*masks, mechanism, purview) == list(theta.parts)
            for m_other, z_other in others:
                with pytest.raises(ValidationError, match="not a disintegrating partition"):
                    part_masks(theta.parts, m_other, z_other)

    @pytest.mark.parametrize("parts", [
        [((0,), (0,)), ((1,), ())],  # purview unit 1 in no part
        [((0,), (0,)), ((1,), (0, 1))],  # purview unit 0 in two parts
        [((0, 1), (0, 1))],  # one part
        [((0, 1), (0,)), ((), (1,))],  # the whole mechanism keeps a purview
        [((0, 1), ()), ((), (0, 1)), ((), ())],  # an empty part
        [((0, 0, 1), ()), ((), (0, 1))],  # a unit named twice in one part
        [((0, 1), ()), ((), (0, 1, 2))],  # a unit outside the purview
    ])
    def test_malformed_parts_are_rejected(self, parts):
        with pytest.raises(ValidationError, match="not a disintegrating partition"):
            part_masks(parts, (0, 1), (0, 1))


def stirling2(n: int, p: int) -> int:
    if n == p:
        return 1
    if p == 0 or p > n:
        return 0
    return p * stirling2(n - 1, p) + stirling2(n - 1, p - 1)


def closed_form_count(m_size: int, z_size: int) -> int:
    """Bell(|Z|) plus, per mechanism partition into p >= 2 blocks, every purview share."""
    return BELL_NUMBERS[z_size] + sum(
        stirling2(m_size, p) * sum(comb(z_size, j) * p ** (z_size - j) * BELL_NUMBERS[j]
                                   for j in range(z_size + 1))
        for p in range(2, m_size + 1)
    )


ALL_SHAPES = [(m, z) for m in range(1, 6) for z in range(1, 6)]


class TestShapeInvariants:
    """Every shape up to 5x5, checked from its definition without the oracle."""

    def test_closed_form_counts(self):
        assert [closed_form_count(n, n) for n in (3, 4, 5)] == [193, 4103, 115824]

    @pytest.mark.parametrize("m_size,z_size", ALL_SHAPES)
    def test_part_table(self, m_size, z_size):
        shape = partition_shape(m_size, z_size)
        assert len(shape.part_m) == 2 ** z_size * (2 ** m_size - 1)
        assert (shape.part_m.any(axis=1) | shape.part_z.any(axis=1)).all()
        assert not shape.part_z[shape.part_m.all(axis=1)].any()
        keys = [(tuple(np.flatnonzero(m)), tuple(np.flatnonzero(z)))
                for m, z in zip(shape.part_m, shape.part_z)]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize("m_size,z_size", ALL_SHAPES)
    def test_rows(self, m_size, z_size):
        shape = partition_shape(m_size, z_size)
        pad = len(shape.part_m)
        slots = shape.slots.astype(np.intp)
        assert len(slots) == closed_form_count(m_size, z_size)
        part_m = np.vstack([shape.part_m, np.zeros((1, m_size), bool)])
        part_z = np.vstack([shape.part_z, np.zeros((1, z_size), bool)])
        assert (part_m[slots].sum(axis=1) == 1).all()
        assert (part_z[slots].sum(axis=1) == 1).all()
        k = np.count_nonzero(slots < pad, axis=1)
        assert k.min() >= 2
        assert ((np.diff(slots, axis=1) > 0) | (slots[:, 1:] == pad)).all()
        keys = np.column_stack([k, slots])
        differ = keys[1:] != keys[:-1]
        assert differ.any(axis=1).all()
        first = differ.argmax(axis=1)
        at = np.arange(len(first))
        assert (keys[1:][at, first] > keys[:-1][at, first]).all()
        intact = np.append(shape.part_m.sum(axis=1) * shape.part_z.sum(axis=1), 0)
        assert (shape.norms == m_size * z_size - intact[slots].sum(axis=1)).all()
