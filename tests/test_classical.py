"""Classical pipeline: repertoires, intrinsic difference, partitions, unfolding.

Expected values for the COPY-XOR gate (unit 0 copies to unit 0, unit 1
becomes the XOR of both inputs) were worked out by hand from the transition
matrix; derived values are computed with independent oracles inline.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

from conftest import COPY_XOR_TPM, CountingMemo, random_ci_tpm
from mechphi import classical as cl
from mechphi import search
from mechphi.classical import (
    ClassicalSystem,
    Mechanism,
    cause_repertoire,
    effect_repertoire,
    intrinsic_difference,
    intrinsic_information,
    kld,
    mip,
    partitioned_repertoire,
    phi,
    phi_max,
    unconstrained_cause,
    unconstrained_effect,
    unfold,
)
from mechphi.errors import ValidationError
from mechphi.partitions import DisintegratingPartition, enumerate_disintegrating, normalization
from mechphi.report import parse_request, run

A1 = Mechanism((0,), (1,))
B0 = Mechanism((1,), (0,))
AB10 = Mechanism((0, 1), (1, 0))
C1 = Mechanism((0,), (1,))
D1 = Mechanism((1,), (1,))
CD11 = Mechanism((0, 1), (1, 1))


def theta(*parts) -> DisintegratingPartition:
    return DisintegratingPartition.from_parts(parts)


class TestEffectRepertoires:
    def test_copy_output_is_certain(self, copy_xor):
        rep = effect_repertoire(copy_xor, A1, (0,))
        assert np.allclose(rep.probabilities, [0, 1])

    def test_xor_with_noised_partner_is_uniform(self, copy_xor):
        rep = effect_repertoire(copy_xor, B0, (1,))
        assert np.allclose(rep.probabilities, [0.5, 0.5])

    def test_full_mechanism_is_tpm_row_marginal(self, copy_xor):
        # nothing to marginalize: the repertoire is the row's unit marginal
        rep = effect_repertoire(copy_xor, AB10, (1,))
        row = COPY_XOR_TPM[2]  # state (1, 0)
        expected = [row[0] + row[2], row[1] + row[3]]
        assert np.allclose(rep.probabilities, expected)

    def test_product_discounts_common_input_correlation(self, copy_xor):
        rep = effect_repertoire(copy_xor, B0, (0, 1))
        assert np.allclose(rep.probabilities, [0.25] * 4)

    def test_full_input_gives_point_mass(self, copy_xor):
        rep = effect_repertoire(copy_xor, AB10, (0, 1))
        assert np.allclose(rep.probabilities, [0, 0, 0, 1])

    def test_single_unit_purview_matches_single(self, copy_xor):
        # the product over a two-unit purview, summed over unit 1, is unit 0's own
        joint = effect_repertoire(copy_xor, A1, (0, 1)).probabilities.reshape(2, 2)
        single = effect_repertoire(copy_xor, A1, (0,))
        assert np.allclose(joint.sum(axis=1), single.probabilities)


class TestUnconstrainedEffect:
    def test_average_of_rows(self, copy_xor):
        rep = unconstrained_effect(copy_xor, (0,), (0, 1))
        rows = [
            effect_repertoire(copy_xor, Mechanism((0, 1), s), (0,)).probabilities
            for s in [(0, 0), (0, 1), (1, 0), (1, 1)]
        ]
        assert np.allclose(rep.probabilities, np.mean(rows, axis=0))
        assert np.allclose(rep.probabilities, [0.5, 0.5])

    def test_constant_output_unit(self):
        # unit 1 always goes to 0 regardless of anything
        tpm = np.array([
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 1, 0],
        ], dtype=float)
        sys = ClassicalSystem([2, 2], tpm)
        for m_units in [(0,), (1,), (0, 1)]:
            rep = unconstrained_effect(sys, (1,), m_units)
            assert np.allclose(rep.probabilities, [1, 0])

    def test_two_unit_purview_explicit_sum(self, copy_xor):
        rep = unconstrained_effect(copy_xor, (0, 1), (0, 1))
        acc = np.zeros(4)
        for s in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            acc += effect_repertoire(copy_xor, Mechanism((0, 1), s), (0, 1)).probabilities
        assert np.allclose(rep.probabilities, acc / 4)


class TestCauseRepertoires:
    def test_xor_output_leaves_parity_uncertainty(self, copy_xor):
        rep = cause_repertoire(copy_xor, D1, (0, 1))
        assert np.allclose(rep.probabilities, [0, 0.5, 0.5, 0])

    def test_joint_output_pins_the_input(self, copy_xor):
        rep = cause_repertoire(copy_xor, CD11, (0, 1))
        assert np.allclose(rep.probabilities, [0, 0, 1, 0])

    def test_reversible_full_state_has_unique_preimage(self):
        # permutation: states cycle 0 -> 1 -> 2 -> 3 -> 0
        tpm = np.roll(np.eye(4), 1, axis=1)
        sys = ClassicalSystem([2, 2], tpm)
        rep = cause_repertoire(sys, Mechanism((0, 1), (0, 1)), (0, 1))
        assert np.allclose(rep.probabilities, [1, 0, 0, 0])

    def test_unreachable_state_flags_empty(self):
        # unit 1 never outputs 1
        tpm = np.array([
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 1, 0],
        ], dtype=float)
        sys = ClassicalSystem([2, 2], tpm)
        assert cause_repertoire(sys, Mechanism((1,), (1,)), (0, 1)) is None
        value, states = intrinsic_information(sys, Mechanism((1,), (1,)), (0, 1), "cause")
        assert value == 0.0 and states is None

    def test_unconstrained_cause_is_uniform(self, copy_xor):
        assert np.allclose(unconstrained_cause(copy_xor, (0,)).probabilities, [0.5, 0.5])
        assert np.allclose(unconstrained_cause(copy_xor, (0, 1)).probabilities, [0.25] * 4)

    def test_unconstrained_cause_ternary_unit(self):
        tpm = np.ones((3, 3)) / 3
        sys = ClassicalSystem([3], tpm)
        assert np.allclose(unconstrained_cause(sys, (0,)).probabilities, [1 / 3] * 3)


class TestIntrinsicDifference:
    def test_equal_distributions(self):
        assert intrinsic_difference([0.3, 0.7], [0.3, 0.7])[0] == 0.0

    def test_deterministic_vs_uniform(self):
        value, states = intrinsic_difference([1, 0], [0.5, 0.5])
        assert value == 1.0 and states == (0,)

    def test_half_support_vs_uniform_with_tie(self):
        value, states = intrinsic_difference([0.5, 0.5, 0, 0], [0.25] * 4)
        assert abs(value - 0.5) < 1e-12
        assert states == (0, 1)

    def test_support_violation_is_inf(self):
        value, states = intrinsic_difference([0.5, 0.5], [1.0, 0.0])
        assert math.isinf(value) and states == (1,)

    def test_kld_matches_on_deterministic(self):
        assert kld([1, 0], [0.5, 0.5]) == 1.0

    def test_kld_differs_on_spread(self):
        assert abs(kld([0.5, 0.5, 0, 0], [0.25] * 4) - 1.0) < 1e-12


class TestIntrinsicInformation:
    def test_copy_effect_one_ibit(self, copy_xor):
        value, states = intrinsic_information(copy_xor, A1, (0,), "effect")
        assert abs(value - 1.0) < 1e-12 and states == (1,)

    def test_no_effect_through_product(self, copy_xor):
        value, _ = intrinsic_information(copy_xor, B0, (0, 1), "effect")
        assert abs(value) < 1e-12

    def test_cause_with_tied_states(self, copy_xor):
        value, states = intrinsic_information(copy_xor, D1, (0, 1), "cause")
        assert abs(value - 0.5) < 1e-12
        assert states == (1, 2)  # 01 and 10


class TestPartitionedRepertoire:
    def test_full_cut_single_pair(self, copy_xor):
        th = theta(((0,), ()), ((), (0,)))
        rep = partitioned_repertoire(copy_xor, A1, (0,), th, "effect")
        assert np.allclose(rep.probabilities, [0.5, 0.5])

    def test_per_part_evaluation(self, copy_xor):
        th = theta(((0,), (0,)), ((1,), (1,)))
        rep = partitioned_repertoire(copy_xor, AB10, (0, 1), th, "effect")
        # copy intact: unit 0 pinned to 1; xor severed from unit 0: uniform
        assert np.allclose(rep.probabilities, [0, 0, 0.5, 0.5])

    def test_every_partition_severs_something(self, copy_xor):
        full = effect_repertoire(copy_xor, AB10, (0, 1)).probabilities
        changed = []
        for th in enumerate_disintegrating((0, 1), (0, 1)):
            rep = partitioned_repertoire(copy_xor, AB10, (0, 1), th, "effect")
            changed.append(not np.allclose(rep.probabilities, full))
        assert all(changed)

    @pytest.mark.parametrize("direction", ["effect", "cause"])
    @pytest.mark.parametrize("mechanism, message", [
        (Mechanism((7,), (0,)), "mechanism units"), (Mechanism((0,), (5,)), "state 5"),
    ])
    def test_invalid_mechanism_is_rejected(self, copy_xor, mechanism, message, direction):
        th = theta((mechanism.units, ()), ((), (0, 1)))
        with pytest.raises(ValidationError, match=message):
            partitioned_repertoire(copy_xor, mechanism, (0, 1), th, direction)

    @pytest.mark.parametrize("direction", ["effect", "cause"])
    def test_partition_of_another_pair_is_rejected(self, copy_xor, direction):
        th = theta(((), (0, 1)), ((1,), ()))  # a partition of mechanism (1,)
        for score in (phi, partitioned_repertoire):
            with pytest.raises(ValidationError, match="not a disintegrating partition"):
                score(copy_xor, A1, (0, 1), th, direction)


class TestPhiAndMip:
    def test_full_cut_costs_two_ibits(self, copy_xor):
        th = theta(((0, 1), ()), ((), (0, 1)))
        assert abs(phi(copy_xor, AB10, (0, 1), th, "effect") - 2.0) < 1e-12

    def test_matched_cut_costs_one_ibit(self, copy_xor):
        th = theta(((0,), (0,)), ((1,), (1,)))
        assert abs(phi(copy_xor, AB10, (0, 1), th, "effect") - 1.0) < 1e-12

    def test_identical_partitioned_repertoire_is_free(self, copy_xor):
        th = theta(((0,), (0,)), ((1,), ()))  # cut xor away from the copy path
        assert abs(phi(copy_xor, AB10, (0,), th, "effect")) < 1e-12

    def test_mip_values_for_known_mechanisms(self, copy_xor):
        assert abs(mip(copy_xor, A1, (0,), "effect")[1] - 1.0) < 1e-12
        assert abs(mip(copy_xor, AB10, (0, 1), "effect")[1] - 1.0) < 1e-12
        assert abs(mip(copy_xor, D1, (0, 1), "cause")[1] - 0.5) < 1e-12

    def test_mip_minimizes_normalized_value(self, copy_xor):
        best_theta, best_value = mip(copy_xor, AB10, (0, 1), "effect")
        best_norm = best_value / normalization(best_theta, (0, 1), (0, 1))
        _, states = intrinsic_information(copy_xor, AB10, (0, 1), "effect")
        for th in enumerate_disintegrating((0, 1), (0, 1)):
            value = phi(copy_xor, AB10, (0, 1), th, "effect", states)
            assert best_norm <= value / normalization(th, (0, 1), (0, 1)) + 1e-12

    def test_unsorted_purview_is_sorted_and_a_bad_one_rejected(self):
        """Library calls canonicalize the purview; ``phi_max`` skips the check, they do not."""
        sys = ClassicalSystem([2, 2, 2], random_ci_tpm(np.random.default_rng(3), [2] * 3),
                              background=([2], [1]))
        mech = Mechanism((0, 1), (1, 0))
        for direction in ("effect", "cause"):
            got = mip(sys, mech, (1, 0), direction)
            assert got == mip(sys, mech, (0, 1), direction)
            assert (phi(sys, mech, [1, 0, 1], got[0], direction)
                    == phi(sys, mech, (0, 1), got[0], direction) == got[1])
            for purview in [(0, 5), (-1,), (2,), (1, 2)]:
                with pytest.raises(ValidationError, match="purview units"):
                    mip(sys, mech, purview, direction)
                with pytest.raises(ValidationError, match="purview units"):
                    phi(sys, mech, purview, got[0], direction)

    def test_repeated_mechanism_unit_is_rejected(self, copy_xor):
        for direction in ("effect", "cause"):
            with pytest.raises(ValidationError, match="mechanism units must be distinct"):
                intrinsic_information(copy_xor, Mechanism((0, 0), (1, 1)), (0,), direction)

    def test_unordered_mechanism_units_are_rejected(self, copy_xor):
        """A MIP would be scored over sorted units but labeled over the units as given."""
        unordered = Mechanism((1, 0), (0, 1))
        for direction in ("effect", "cause"):
            with pytest.raises(ValidationError, match="ascending"):
                phi_max(copy_xor, unordered, direction)
            with pytest.raises(ValidationError, match="ascending"):
                mip(copy_xor, unordered, (0, 1), direction)


class TestPhiMax:
    def test_copy_mechanism_selects_its_output(self, copy_xor):
        d = phi_max(copy_xor, A1, "effect")
        assert d.purview == (0,)
        assert d.intrinsic_states == ((1,),)
        assert abs(d.phi - 1.0) < 1e-12

    def test_tie_resolves_to_larger_purview(self, copy_xor):
        d = phi_max(copy_xor, AB10, "effect")
        assert d.purview == (0, 1)
        assert d.intrinsic_states == ((1, 1),)
        assert abs(d.phi - 1.0) < 1e-12
        assert (1,) in d.tied_purviews

    def test_reducible_mechanism_returns_none(self, copy_xor):
        assert phi_max(copy_xor, B0, "effect") is None

    def test_cause_with_state_tie(self, copy_xor):
        d = phi_max(copy_xor, D1, "cause")
        assert d.purview == (0, 1)
        assert set(d.intrinsic_states) == {(0, 1), (1, 0)}
        assert abs(d.phi - 0.5) < 1e-12


class TestUnfold:
    def test_copy_xor_distinction_sets(self, copy_xor):
        ds = unfold(copy_xor, state_t=(1, 0), state_t1=(1, 1))
        effects = {(d.mechanism_units, d.purview, round(d.phi, 9))
                   for d in ds if d.direction == "effect"}
        causes = {(d.mechanism_units, d.purview, round(d.phi, 9))
                  for d in ds if d.direction == "cause"}
        assert effects == {((0,), (0,), 1.0), ((0, 1), (0, 1), 1.0)}
        assert causes == {((0,), (0,), 1.0), ((1,), (0, 1), 0.5), ((0, 1), (0, 1), 1.0)}

    def test_single_unit_copy_system(self):
        sys = ClassicalSystem([2], np.eye(2))
        ds = unfold(sys, state_t=(1,), directions=("effect",))
        assert len(ds) == 1
        assert ds[0].mechanism_units == (0,) and abs(ds[0].phi - 1.0) < 1e-12

    def test_missing_state_is_an_error(self, copy_xor):
        with pytest.raises(ValidationError, match="state_t1"):
            unfold(copy_xor, state_t=(1, 0), directions=("cause",))

    def test_explicit_mechanism_selection(self, copy_xor):
        ds = unfold(copy_xor, state_t=(1, 0), directions=("effect",), mechanisms=[(0,)])
        assert len(ds) == 1 and ds[0].mechanism_units == (0,)

    def test_repeated_mechanism_unit_is_an_error(self, copy_xor):
        with pytest.raises(ValidationError, match="mechanism units must be distinct"):
            unfold(copy_xor, (1, 0), (1, 0), mechanisms=[[0], [0, 0]])


class TestUnitFactors:
    def test_each_marginal_and_likelihood_is_computed_once(self):
        """One 4-unit unfold computes each table once, and every one it needs.

        The marginals are one table per unit subset, the empty one included
        (16).  The purview layout is built once.  The likelihoods are one
        vector per unit at its ``state_t1`` value (4).  Each mechanism has
        one purview table per direction (30), and so has the empty mechanism,
        whose tables the part tables read (2); each effect table's unit set
        has one baseline (16).  Each searched
        mechanism's part tables are one ``parts`` entry per direction, stored
        once although its finished search drops it.
        """
        sys = ClassicalSystem([2, 2, 2, 2], random_ci_tpm(np.random.default_rng(11), [2] * 4))
        sys._memo = CountingMemo()
        state_t, state_t1 = (0, 1, 1, 0), (1, 1, 0, 1)
        unfold(sys, state_t=state_t, state_t1=state_t1)
        kinds = Counter(key[0] for key in sys._memo.stores)
        subsets = search.all_subsets(range(4))
        assert {key[1] for key in sys._memo.stores if key[0] == "em"} == {(), *subsets}
        assert kinds["em"] == 16
        assert kinds["lay"] == 1
        assert {key[1:] for key in sys._memo.stores if key[0] == "cl"} == {
            (u, state_t1[u]) for u in range(4)}
        assert {key[1:] for key in sys._memo.stores if key[0] == "pt"} == {
            (Mechanism(units, sys.state_of(full, units)), direction)
            for direction, full in (("effect", state_t), ("cause", state_t1))
            for units in [(), *subsets]}
        assert {key[1] for key in sys._memo.stores if key[0] == "eb"} == {(), *subsets}
        assert kinds["parts"] > 0
        assert max(sys._memo.stores.values()) == 1
        assert all(key[1].state == sys.state_of(state_t1 if key[2] == "cause" else state_t,
                                                key[1].units)
                   for key in sys._memo.stores if key[0] == "parts")

    def test_each_mechanism_is_checked_once_per_direction(self, monkeypatch):
        """Six random 4-unit requests check units only where a purview table is built.

        That is 32 checks per request: 15 mechanisms and the empty one, whose
        tables the part tables read, in two directions.  Before the tables,
        the same six requests made 8,730 checks.
        """
        calls = []
        check = ClassicalSystem._check_units
        monkeypatch.setattr(ClassicalSystem, "_check_units",
                            lambda *args: calls.append(args) or check(*args))
        for index in range(6):
            rng = np.random.default_rng([20230105, index])
            tpm = random_ci_tpm(rng, [2] * 4)
            run(parse_request({
                "backend": "classical", "unit_states": [2] * 4, "tpm": tpm.tolist(),
                "state_t": rng.integers(0, 2, 4).tolist(),
                "state_t1": rng.integers(0, 2, 4).tolist(), "direction": "both"}))
        assert len(calls) == 6 * 32


class YieldingMemo(dict):
    """A system memo that lets other threads run between a key test or store and the next step."""

    def __contains__(self, key):
        found = super().__contains__(key)
        time.sleep(0)
        return found

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        time.sleep(0)


class TestSelectionMemo:
    def test_second_unfold_of_a_state_runs_no_mip_search(self, monkeypatch):
        """Each (mechanism, direction) is searched once per system."""
        sys = ClassicalSystem([2, 2, 3], random_ci_tpm(np.random.default_rng(5), [2, 2, 3]))
        calls = []
        score = cl._score_partitions
        monkeypatch.setattr(cl, "_score_partitions",
                            lambda *args: calls.append(args) or score(*args))
        first = unfold(sys, state_t=(1, 0, 2), state_t1=(0, 1, 1))
        assert first and calls
        calls.clear()
        assert unfold(sys, state_t=(1, 0, 2), state_t1=(0, 1, 1)) == first
        assert calls == []

    def test_threads_sharing_a_system_select_what_one_thread_selects(self):
        """Finished searches drop part tables that other threads' searches may be reading."""
        counts = [2, 3, 2]
        tpm = random_ci_tpm(np.random.default_rng(7), counts)
        states = ClassicalSystem(counts, tpm).subset_states(range(3))
        want = {s: unfold(ClassicalSystem(counts, tpm), s, s) for s in states}
        shared = ClassicalSystem(counts, tpm)
        shared._memo = YieldingMemo()
        got, errors = {}, []

        def sweep(order):
            try:
                for s in order:
                    got[s, order[0]] = unfold(shared, s, s)
            except Exception as exc:  # reported below, with the thread's order
                errors.append((order[0], exc))

        orders = [states[i:] + states[:i] for i in range(0, len(states), 3)]
        threads = [threading.Thread(target=sweep, args=(order,)) for order in orders]
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert got == {(s, order[0]): want[s] for order in orders for s in order}


class TestSystemValidation:
    def test_row_sum_error_names_row(self):
        tpm = COPY_XOR_TPM.copy()
        tpm[2, 3] = 0.9
        with pytest.raises(ValidationError, match="row 2"):
            ClassicalSystem([2, 2], tpm)

    def test_conditional_independence_enforced(self):
        # perfectly correlated outputs cannot factor into unit conditionals
        tpm = np.array([
            [0.5, 0, 0, 0.5],
            [0.5, 0, 0, 0.5],
            [0.5, 0, 0, 0.5],
            [0.5, 0, 0, 0.5],
        ])
        with pytest.raises(ValidationError, match="independent"):
            ClassicalSystem([2, 2], tpm)

    def test_non_finite_entry_rejected(self):
        tpm = COPY_XOR_TPM.copy()
        tpm[1, 1] = math.nan
        with pytest.raises(ValidationError, match="non-finite"):
            ClassicalSystem([2, 2], tpm)

    def test_negative_entry_rejected(self):
        tpm = np.array([[1.2, -0.2], [0, 1]])
        with pytest.raises(ValidationError, match="negative"):
            ClassicalSystem([2], tpm)

    def test_background_clamps_units(self):
        # three units; unit 2 fixed at 0 acts like a frozen input
        rng = np.random.default_rng(0)
        base = np.zeros((8, 8))
        for s in range(8):
            a, b, c = s >> 2 & 1, s >> 1 & 1, s & 1
            a2, b2, c2 = a, a ^ b, c
            base[s, (a2 << 2) | (b2 << 1) | c2] = 1.0
        sys = ClassicalSystem([2, 2, 2], base, background=((2,), (0,)))
        assert sys.candidate_units == (0, 1)
        ds = unfold(sys, state_t=(1, 0, 0), state_t1=(1, 1, 0))
        assert all(2 not in d.mechanism_units and 2 not in d.purview for d in ds)
        with pytest.raises(ValidationError, match="background"):
            unfold(sys, state_t=(1, 0, 1), state_t1=(1, 1, 1))

    @pytest.mark.parametrize("background", [((0, 1), (1,)), ((0,), (1, 0))])
    def test_background_length_mismatch_rejected(self, background):
        with pytest.raises(ValidationError, match="differ in length"):
            ClassicalSystem([2, 2], COPY_XOR_TPM, background=background)

    def test_caller_tpm_is_not_frozen_or_changed(self):
        tpm = COPY_XOR_TPM.copy()
        sys = ClassicalSystem([2, 2], tpm)
        assert tpm.flags.writeable
        np.testing.assert_array_equal(tpm, COPY_XOR_TPM)
        tpm[0, 0] = 0.5
        assert sys.tpm[0, 0] == 1.0
        assert not sys.tpm.flags.writeable
