"""Core model: schedules, topologies, channel sampling."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdof_lab.errors import (
    MixedArity,
    NegativeFraction,
    RankDeficiencyPersistent,
    SumNotOne,
)
from sdof_lab.model import (
    CONDITION_CAP,
    CsitState,
    StateLabel,
    Topology,
    channel_to_json,
    sample_channel,
    sample_channels,
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

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            validate_schedule({"PD": Fraction(1, 3), "DP": Fraction(1, 2)})

    def test_negative(self):
        with pytest.raises(NegativeFraction):
            validate_schedule({"PD": Fraction(3, 2), "DP": Fraction(-1, 2)})

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
        assert real.shape == (2, 6, 2)
        for t in range(6):
            sv = np.linalg.svd(real[:, t], compute_uv=False)
            assert sv[-1] > 0

    def test_multi_receiver_condition_cap(self):
        real = sample_channel(Topology.multi_receiver(), 58, seed=1)
        for t in range(58):
            sv = np.linalg.svd(real[:, t], compute_uv=False)
            assert sv[0] / sv[-1] <= CONDITION_CAP

    def test_deterministic(self):
        a = sample_channel(Topology.multi_receiver(), 12, seed=42)
        b = sample_channel(Topology.multi_receiver(), 12, seed=42)
        assert a.tobytes() == b.tobytes()

    def test_seed_sensitivity(self):
        a = sample_channel(Topology.broadcast(), 4, seed=1)
        b = sample_channel(Topology.broadcast(), 4, seed=2)
        assert a[0].tobytes() != b[0].tobytes()

    def test_statistics(self):
        real = sample_channel(Topology.multi_receiver(), 10_000, seed=5)
        entries = real.ravel()
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
        batch = sample_channels(topology, 12, seeds)
        assert batch.shape == (len(seeds), len(topology.nodes()), 12, topology.n_tx)
        assert batch.flags.c_contiguous and not batch.flags.writeable
        for seed, real in zip(seeds, batch, strict=True):
            assert real.tobytes() == sample_channel(topology, 12, seed).tobytes()

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
                sv = np.linalg.svd(real[:, t], compute_uv=False)
                assert sv[0] / sv[-1] <= 4.0
                assert real[:, t].tobytes() == one[:, t].tobytes()

    def test_json_dump_roundtrippable(self):
        import json

        topology = Topology.wiretap()
        real = sample_channel(topology, 3, seed=9)
        payload = json.loads(channel_to_json(topology, 9, real))
        assert payload["n_slots"] == 3 and payload["seed"] == 9
        assert payload["h_acute"] is None
        assert payload["h"][0][0] == [real[0, 0, 0].real, real[0, 0, 0].imag]
        assert payload["g"][2][1] == [real[1, 2, 1].real, real[1, 2, 1].imag]
