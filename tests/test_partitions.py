"""Partition enumeration against brute-force generate-filter oracles."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from mechphi.errors import ValidationError
from mechphi.partitions import (
    DisintegratingPartition,
    SetPartition,
    _enumerate,
    enumerate_disintegrating,
    enumerate_set_partitions,
    normalization,
    partition_shape,
)

BELL_NUMBERS = {1: 1, 2: 2, 3: 5, 4: 15}


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
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bell_number_counts(self, n):
        parts = enumerate_set_partitions(range(n))
        assert len(parts) == BELL_NUMBERS[n]
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert p.ground_set == tuple(range(n))

    def test_three_units_explicit(self):
        blocks = {p.blocks for p in enumerate_set_partitions([0, 1, 2])}
        assert ((0, 1, 2),) in blocks
        assert ((0,), (1,), (2,)) in blocks
        assert ((0,), (1, 2)) in blocks

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_set_partitions([])

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValidationError):
            SetPartition.from_blocks([(0, 1), (1, 2)])


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
