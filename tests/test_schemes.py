"""Scheme library: building, execution, decoding, accounting, legality."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdof_lab.errors import (
    BadParams,
    CsitViolation,
    NonPositiveSubDof,
    RealizationTooShort,
    UnknownScheme,
)
from sdof_lab.model import (
    EVE,
    RX1,
    RX2,
    CsitState,
    PowerBudget,
    StateLabel,
    sample_channel,
)
from sdof_lab.schemes import (
    SCHEME_IDS,
    accounting,
    build_scheme,
    composite_accounting,
    decode,
    run_scheme,
)
from sdof_lab.schemes.program import NullOf, SlotPlan


def _run(scheme_id, seed=0, power=1e4, mode="noiseless", **params):
    spec = build_scheme(scheme_id, **params)
    realization = sample_channel(spec.topology, spec.n_slots, seed)
    return spec, run_scheme(spec, realization, PowerBudget(power), mode, seed)


class TestBuild:
    def test_unknown_scheme(self):
        with pytest.raises(UnknownScheme):
            build_scheme("MR_NOPE")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            build_scheme("MR_PPD", sub="tjsp53")
        with pytest.raises(BadParams):
            build_scheme("MR_S30_29_A", blocks=7)
        with pytest.raises(BadParams):
            build_scheme("MR_S30_29_A", sub="nope")

    def test_repeated_stream_label_rejected(self):
        spec = build_scheme("WT_PD")
        plan = spec.slot_plans[0]
        v, u = plan.streams
        dup = replace(spec, slot_plans=(
            SlotPlan(plan.state, (v, u._replace(label=v.label))),))
        realization = sample_channel(spec.topology, spec.n_slots, 0)
        with pytest.raises(BadParams, match="repeated stream label"):
            run_scheme(dup, realization, PowerBudget(1e4), "noiseless", 0)

    def test_mr_ddp_structure(self):
        spec = build_scheme("MR_DDP")
        assert spec.n_slots == 3
        for t, plan in enumerate(spec.slot_plans):
            assert str(plan.state) == "DDP"
            nulls = [s.beam for s in plan.streams if isinstance(s.beam, NullOf)]
            assert all(beam.refs == ((EVE, t),) for beam in nulls)
        report = accounting(spec)
        assert report.nominal_sdof == {RX1: Fraction(2, 3), RX2: Fraction(2, 3)}

    def test_bc_s1_43_structure(self):
        spec = build_scheme("BC_S1_43")
        assert spec.n_slots == 6
        assert [str(p.state) for p in spec.slot_plans] == \
            ["DP", "PD", "DP", "PD", "DP", "PD"]
        assert len(spec.message_sids(RX1)) == 4
        assert len(spec.message_sids(RX2)) == 4
        report = accounting(spec)
        assert report.nominal_sdof[RX1] == Fraction(2, 3)

    def test_composite_default_superframe(self):
        spec = build_scheme("MR_S30_29_A")
        assert spec.n_slots == 58
        assert len(spec.message_sids(RX1)) == 30
        assert len(spec.message_sids(RX2)) == 30
        report = accounting(spec)
        assert report.nominal_sdof[RX1] == Fraction(15, 29)
        fractions = spec.state_fractions()
        assert fractions[StateLabel.parse("PDD")] == Fraction(22, 29)
        assert fractions[StateLabel.parse("DPD")] == Fraction(7, 29)

    def test_composite_fallback_superframe(self):
        spec = build_scheme("MR_S30_29_A", sub="fallback32")
        assert spec.n_slots == 36
        report = accounting(spec)
        assert report.nominal_sdof[RX1] == Fraction(1, 2)

    def test_mirrored_composite(self):
        spec = build_scheme("MR_S30_29_B")
        fractions = spec.state_fractions()
        assert fractions[StateLabel.parse("DPD")] == Fraction(22, 29)
        assert fractions[StateLabel.parse("PDD")] == Fraction(7, 29)


class TestRun:
    def test_ppd_receiver_side_zero_forcing(self):
        spec, trace = _run("MR_PPD")
        # each receiver sees only its own stream
        for node, own in ((RX1, "v"), (RX2, "w")):
            row = trace.obs_rows[node][0]
            for i, decl in enumerate(trace.symbols):
                if decl.sid != own:
                    assert abs(row[i]) <= 1e-10

    def test_pdp_adversary_nulled(self):
        spec, trace = _run("MR_PDP")
        scale = np.sqrt(trace.power.total_power)
        assert np.max(np.abs(trace.obs_vals[EVE])) <= 1e-10 * scale

    def test_csit_violation_on_mutated_state(self):
        spec = build_scheme("MR_PPD")
        mutated = spec.with_slot_state(0, StateLabel.parse("PDD"))
        realization = sample_channel(spec.topology, 1, seed=0)
        with pytest.raises(CsitViolation):
            run_scheme(mutated, realization, PowerBudget(1e4), "noiseless", 0)

    def test_realization_too_short(self):
        spec = build_scheme("MR_DDP")
        realization = sample_channel(spec.topology, 2, seed=0)
        with pytest.raises(RealizationTooShort):
            run_scheme(spec, realization, PowerBudget(1e4), "noiseless", 0)

    def test_topology_mismatch(self):
        from sdof_lab.model import Topology

        spec = build_scheme("BC_PP_S2")
        realization = sample_channel(Topology.multi_receiver(), 1, seed=0)
        with pytest.raises(BadParams):
            run_scheme(spec, realization, PowerBudget(1e4), "noiseless", 0)

    def test_noisy_mode_decode_residual_shrinks_with_power(self):
        spec = build_scheme("MR_DDP")
        realization = sample_channel(spec.topology, spec.n_slots, 12)
        residuals = []
        for power in (1e2, 1e8):
            trace = run_scheme(spec, realization, PowerBudget(power), "noisy", 12)
            residuals.append(decode(trace).max_residual)
        assert residuals[1] < residuals[0]

    def test_per_slot_power(self):
        for scheme_id in ("MR_DDP", "BC_S1_43", "MR_S30_29_A", "WT_DD_23"):
            spec, trace = _run(scheme_id, seed=2, power=256.0)
            for t in range(trace.n_slots):
                assert trace.slot_power(t) <= 256.0 * (1 + 1e-9)

    def test_trace_determinism(self):
        _, a = _run("BC_DD_S1", seed=9)
        _, b = _run("BC_DD_S1", seed=9)
        assert a.symbol_values.tobytes() == b.symbol_values.tobytes()
        for node in a.obs_vals:
            assert a.obs_vals[node].tobytes() == b.obs_vals[node].tobytes()

    def test_noisy_mode_adds_noise(self):
        spec, clean = _run("MR_PPD", seed=4)
        _, noisy = _run("MR_PPD", seed=4, mode="noisy")
        assert noisy.noise_vals is not None
        delta = noisy.obs_vals[RX1] - clean.obs_vals[RX1]
        assert np.allclose(delta, noisy.noise_vals[RX1])

    @given(st.sampled_from(["WT_PP", "MR_PPD", "MR_PDP", "BC_PP_S2", "BC_S1_43"]),
           st.integers(min_value=0, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_legality_fuzz_degrading_states(self, scheme_id, slot_seed):
        """Downgrading any currently-used CSIT entry to delayed must trip the
        executor's legality check."""
        spec = build_scheme(scheme_id)
        rng = np.random.default_rng(slot_seed)
        t = int(rng.integers(0, spec.n_slots))
        plan = spec.slot_plans[t]
        used_now = {
            node
            for stream in plan.streams
            if isinstance(stream.beam, NullOf)
            for node, ref in stream.beam.refs
            if ref == t
        }
        if not used_now:
            return
        node = sorted(used_now)[0]
        pos = spec.topology.nodes().index(node)
        states = list(plan.state.states)
        if states[pos] is not CsitState.P:
            return
        states[pos] = CsitState.D
        mutated = spec.with_slot_state(t, StateLabel(tuple(states)))
        realization = sample_channel(spec.topology, spec.n_slots, 0)
        with pytest.raises(CsitViolation):
            run_scheme(mutated, realization, PowerBudget(1e4), "noiseless", 0)


class TestDecode:
    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_noiseless_decode_all_schemes(self, scheme_id):
        for seed in range(10):
            spec, trace = _run(scheme_id, seed=seed)
            report = decode(trace)
            assert report.all_success, (scheme_id, seed, report.max_residual)
            assert not report.any_protected_identifiable, (scheme_id, seed)

    def test_bc_43_recovers_everything(self):
        spec, trace = _run("BC_S1_43", seed=3)
        report = decode(trace)
        assert set(report.nodes[RX1].recovered) == {"v1", "v2", "v3", "v4"}
        assert set(report.nodes[RX2].recovered) == {"w1", "w2", "w3", "w4"}

    def test_pdd_protected_symbol_hidden(self):
        spec, trace = _run("MR_PDD", seed=1)
        report = decode(trace)
        assert report.adversary[EVE] == {"v": False}

    def test_fallback_composite_decodes(self):
        spec, trace = _run("MR_S30_29_A", sub="fallback32", seed=6)
        report = decode(trace)
        assert report.all_success
        assert not report.any_protected_identifiable

    def test_mirrored_composite_decodes(self):
        spec, trace = _run("MR_S30_29_B", seed=8)
        report = decode(trace)
        assert report.all_success

    def test_composite_side_info_adds_nothing_at_adversary(self):
        """The unicast phases repeat the adversary's own observations, so its
        useful row space is spanned by the dissemination and multicast slots
        alone; this is the structural reason the composite leaks nothing."""
        from sdof_lab.precoding import assemble_effective_system

        spec, trace = _run("MR_S30_29_A", seed=5)
        system = assemble_effective_system(trace)
        eve_rows = system.matrices[EVE]
        keep = [bm["t0"] + i for bm in spec.layout["blocks"] for i in range(3)]
        keep += [pm["t0"] + i for pm in spec.layout["pairs"] for i in range(2)]
        informative = eve_rows[sorted(keep)]
        assert np.linalg.matrix_rank(eve_rows, tol=1e-8) == \
            np.linalg.matrix_rank(informative, tol=1e-8)


class TestAccounting:
    def test_pdp_rates(self):
        report = accounting(build_scheme("MR_PDP"))
        assert report.nominal_sdof == {RX1: Fraction(1), RX2: Fraction(1, 2)}

    def test_multicast_rate(self):
        report = accounting(build_scheme("SUB_SECURE_MULTICAST"))
        assert report.slots_total == 16
        assert report.symbols_per_receiver == {RX1: 10, RX2: 10}
        assert report.nominal_sdof[RX1] == Fraction(5, 8)

    def test_wiretap_delayed_rate(self):
        report = accounting(build_scheme("WT_DD_23"))
        assert report.nominal_sdof[RX1] == Fraction(2, 3)

    def test_unicast_rate(self):
        report = accounting(build_scheme("SUB_PD_DP_UNICAST"))
        assert report.nominal_sdof == {RX1: Fraction(5, 6), RX2: Fraction(5, 6)}

    def test_composite_formula_examples(self):
        report = composite_accounting(Fraction(5, 3))
        assert report.sub_dof_assumptions["sdof_common"] == Fraction(5, 8)
        assert report.nominal_sdof[RX1] == Fraction(15, 29)
        assert composite_accounting(Fraction(3, 2)).nominal_sdof[RX1] == Fraction(1, 2)
        assert composite_accounting(Fraction(2)).nominal_sdof[RX1] == Fraction(6, 11)

    def test_composite_formula_domain(self):
        with pytest.raises(NonPositiveSubDof):
            composite_accounting(Fraction(0))
        with pytest.raises(NonPositiveSubDof):
            composite_accounting(Fraction(-1))

    @given(st.fractions(min_value=Fraction(1, 10), max_value=Fraction(2, 1)))
    def test_formula_monotone_in_sub_rate(self, sub_dof):
        """A faster side-information sub-protocol never hurts the composite."""
        base = composite_accounting(sub_dof).nominal_sdof[RX1]
        better = composite_accounting(Fraction(2)).nominal_sdof[RX1]
        assert base <= better
