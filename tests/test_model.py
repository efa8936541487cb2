"""Core model: schedules, topologies, channel sampling."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdof_lab.errors import (
    MixedArity,
    NegativeFraction,
    NonIntegralBlock,
    RankDeficiencyPersistent,
    SumNotOne,
    SymmetryViolated,
)
from sdof_lab.model import (
    CONDITION_CAP,
    CsitState,
    StateLabel,
    Topology,
    sample_channel,
    sample_channels,
    schedule_to_slot_states,
    validate_schedule,
)


class TestCsitState:
    def test_roundtrip(self):
        for text in ("P", "D"):
            assert str(CsitState.parse(text)) == text

    def test_exactly_two_values(self):
        assert {s.value for s in CsitState} == {"P", "D"}

    def test_label_roundtrip(self):
        for text in ("PD", "DP", "PDD", "DDD"):
            assert str(StateLabel.parse(text)) == text

    def test_label_arity_limits(self):
        with pytest.raises(MixedArity):
            StateLabel.parse("P")
        with pytest.raises(MixedArity):
            StateLabel.parse("PDDD")


class TestValidateSchedule:
    def test_single_state(self):
        sched = validate_schedule({"DD": 1})
        assert sched.fraction(StateLabel.parse("DD")) == 1

    def test_symmetric_alternation(self):
        sched = validate_schedule(
            {"PDD": Fraction(1, 2), "DPD": Fraction(1, 2)}, symmetry_mode=True)
        assert sched.symmetry_mode

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            validate_schedule({"PD": Fraction(1, 3), "DP": Fraction(1, 2)})

    def test_negative(self):
        with pytest.raises(NegativeFraction):
            validate_schedule({"PD": Fraction(3, 2), "DP": Fraction(-1, 2)})

    def test_symmetry_violated(self):
        with pytest.raises(SymmetryViolated):
            validate_schedule(
                {"PDD": Fraction(2, 3), "DPD": Fraction(1, 3)}, symmetry_mode=True)

    def test_mixed_arity(self):
        with pytest.raises(MixedArity):
            validate_schedule({"PD": Fraction(1, 2), "PDD": Fraction(1, 2)})

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4)
           .filter(lambda ws: sum(ws) > 0))
    def test_normalized_weights_always_accepted(self, weights):
        total = sum(weights)
        fractions = {
            label: Fraction(w, total)
            for label, w in zip(("PP", "PD", "DP", "DD"), weights)
        }
        sched = validate_schedule(fractions)
        assert sum(sched.fractions.values()) == 1

    @given(st.integers(min_value=1, max_value=100))
    def test_perturbed_sum_rejected(self, bump):
        with pytest.raises(SumNotOne):
            validate_schedule({"PP": Fraction(1, 2),
                               "DD": Fraction(1, 2) + Fraction(1, bump * 101)})


class TestSlotStates:
    def test_exact_alternation(self):
        sched = validate_schedule({"PD": Fraction(1, 2), "DP": Fraction(1, 2)})
        states = schedule_to_slot_states(sched, 6)
        assert [str(s) for s in states] == ["PD", "DP", "PD", "DP", "PD", "DP"]

    def test_asymmetric_block(self):
        sched = validate_schedule(
            {"PDD": Fraction(22, 29), "DPD": Fraction(7, 29)})
        states = schedule_to_slot_states(sched, 29)
        counts = {str(s): 0 for s in states}
        for s in states:
            counts[str(s)] += 1
        assert counts == {"PDD": 22, "DPD": 7}

    def test_single_state_block(self):
        sched = validate_schedule({"DD": 1})
        states = schedule_to_slot_states(sched, 5)
        assert [str(s) for s in states] == ["DD"] * 5

    def test_non_integral(self):
        sched = validate_schedule({"PD": Fraction(1, 2), "DP": Fraction(1, 2)})
        with pytest.raises(NonIntegralBlock):
            schedule_to_slot_states(sched, 5)


class TestTopology:
    def test_canonical_configs(self):
        assert Topology.wiretap().nodes() == ("rx1", "eve")
        assert Topology.multi_receiver().nodes() == ("rx1", "rx2", "eve")
        assert Topology.broadcast().nodes() == ("rx1", "rx2")

    def test_rejects_other_configs(self):
        with pytest.raises(ValueError):
            Topology(4, 2, True)


class TestSampleChannel:
    def test_broadcast_full_rank(self):
        real = sample_channel(Topology.broadcast(), 6, seed=7)
        assert real.h.shape == (6, 2) and real.g.shape == (6, 2)
        for t in range(6):
            sv = np.linalg.svd(real.stacked(t), compute_uv=False)
            assert sv[-1] > 0

    def test_multi_receiver_condition_cap(self):
        real = sample_channel(Topology.multi_receiver(), 58, seed=1)
        for t in range(58):
            sv = np.linalg.svd(real.stacked(t), compute_uv=False)
            assert sv[0] / sv[-1] <= CONDITION_CAP

    def test_deterministic(self):
        a = sample_channel(Topology.multi_receiver(), 12, seed=42)
        b = sample_channel(Topology.multi_receiver(), 12, seed=42)
        assert a.h.tobytes() == b.h.tobytes()
        assert a.h_acute.tobytes() == b.h_acute.tobytes()
        assert a.g.tobytes() == b.g.tobytes()

    def test_seed_sensitivity(self):
        a = sample_channel(Topology.broadcast(), 4, seed=1)
        b = sample_channel(Topology.broadcast(), 4, seed=2)
        assert a.h.tobytes() != b.h.tobytes()

    def test_statistics(self):
        real = sample_channel(Topology.multi_receiver(), 10_000, seed=5)
        entries = np.concatenate(
            [real.h.ravel(), real.h_acute.ravel(), real.g.ravel()])
        assert abs(entries.mean()) <= 0.05
        assert 0.9 <= entries.var() <= 1.1

    def test_persistent_rank_deficiency(self, monkeypatch):
        from sdof_lab import model

        # every draw is rank one: the first draws (drawn in bulk) and every
        # redraw that continues a slot's substream
        monkeypatch.setattr(
            model.rng, "complex_normals",
            lambda seeds, tags, shape: np.ones((len(seeds), len(tags), *shape), dtype=complex))
        monkeypatch.setattr(
            model.rng, "complex_normal",
            lambda gen, shape: np.ones(shape, dtype=complex))
        with pytest.raises(RankDeficiencyPersistent):
            sample_channel(Topology.broadcast(), 1, seed=0)

    @pytest.mark.parametrize("topology", [Topology.wiretap(), Topology.multi_receiver(),
                                          Topology.broadcast()], ids=lambda t: t.name)
    def test_batch_equals_single_draws(self, topology):
        seeds = [0, 3, 9, 1000]
        for seed, real in zip(seeds, sample_channels(topology, 12, seeds), strict=True):
            one = sample_channel(topology, 12, seed)
            assert real.seed == seed
            for node in topology.nodes():
                assert real.rows(node).tobytes() == one.rows(node).tobytes()

    def test_batch_redraws_rejected_slots_from_their_own_substream(self, monkeypatch):
        """With a tight condition cap many first draws are rejected; the
        redraws continue each slot's own substream exactly as a lone draw
        would."""
        from sdof_lab import model

        monkeypatch.setattr(model, "CONDITION_CAP", 4.0)
        topology = Topology.multi_receiver()
        seeds = [1, 2, 3]
        batch = sample_channels(topology, 10, seeds)
        for seed, real in zip(seeds, batch):
            one = sample_channel(topology, 10, seed)
            for t in range(10):
                sv = np.linalg.svd(real.stacked(t), compute_uv=False)
                assert sv[0] / sv[-1] <= 4.0
                assert real.stacked(t).tobytes() == one.stacked(t).tobytes()

    def test_json_dump_roundtrippable(self):
        import json

        real = sample_channel(Topology.wiretap(), 3, seed=9)
        payload = json.loads(real.to_json())
        assert payload["n_slots"] == 3
        assert payload["h_acute"] is None
        entry = payload["h"][0][0]
        assert entry == [real.h[0][0].real, real.h[0][0].imag]
