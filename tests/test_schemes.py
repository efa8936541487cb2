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
    OverConstrained,
    RealizationTooShort,
    UnknownScheme,
    UnknownSymbolId,
)
from sdof_lab.model import (
    EVE,
    RX1,
    RX2,
    CsitState,
    PowerBudget,
    StateLabel,
    Topology,
    sample_channel,
    sample_channels,
)
from sdof_lab.schemes import (
    SCHEME_IDS,
    TraceBatch,
    accounting,
    build_scheme,
    composite_accounting,
    decode,
    decode_batch,
    run_scheme,
    run_seed_batches,
    seed_chunks,
)
from sdof_lab.schemes.program import (
    Axis,
    Comb,
    NullOf,
    ObsPart,
    SlotPlan,
    Sym,
    compile_spec,
    execute_batch,
)


# every scheme, plus the composites' other sub-protocol and a longer superframe
DECODE_CASES = [(scheme_id, {}) for scheme_id in SCHEME_IDS] + [
    ("MR_S30_29_A", {"blocks": 10}),
    ("MR_S30_29_A", {"sub": "fallback32"}),
    ("MR_S30_29_B", {"sub": "fallback32"}),
]
DECODE_IDS = [scheme_id + "".join(f"-{k}={v}" for k, v in params.items())
              for scheme_id, params in DECODE_CASES]


def _run(scheme_id, seed=0, power=1e4, mode="noiseless", **params):
    spec = build_scheme(scheme_id, **params)
    channels = sample_channel(spec.topology, spec.n_slots, seed)
    return spec, run_scheme(spec, channels, PowerBudget(power), mode, seed)


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
        channels = sample_channel(spec.topology, spec.n_slots, 0)
        with pytest.raises(BadParams, match="repeated stream label"):
            run_scheme(dup, channels, PowerBudget(1e4), "noiseless", 0)

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
        nodes = spec.topology.nodes()
        # each receiver sees only its own stream
        for node, own in ((RX1, "v"), (RX2, "w")):
            row = trace.obs_rows[nodes.index(node), 0, 0]
            for i, decl in enumerate(spec.symbols):
                if decl.sid != own:
                    assert abs(row[i]) <= 1e-10

    def test_pdp_adversary_nulled(self):
        spec, trace = _run("MR_PDP")
        scale = np.sqrt(trace.power.total_power)
        eve = trace.obs_vals[:, spec.topology.nodes().index(EVE)]
        assert np.max(np.abs(eve)) <= 1e-10 * scale

    def test_csit_violation_on_mutated_state(self):
        spec = build_scheme("MR_PPD")
        mutated = spec.with_slot_state(0, StateLabel.parse("PDD"))
        channels = sample_channel(spec.topology, 1, seed=0)
        with pytest.raises(CsitViolation):
            run_scheme(mutated, channels, PowerBudget(1e4), "noiseless", 0)

    def test_realization_too_short(self):
        spec = build_scheme("MR_DDP")
        channels = sample_channel(spec.topology, 2, seed=0)
        with pytest.raises(RealizationTooShort):
            run_scheme(spec, channels, PowerBudget(1e4), "noiseless", 0)

    def test_topology_mismatch(self):
        """Each topology's draw has its own (node, antenna) shape, so every
        other topology's scheme rejects it."""
        for scheme_id in ("WT_PP", "MR_PPD", "BC_PP_S2"):
            spec = build_scheme(scheme_id)
            for topology in (Topology.wiretap(), Topology.multi_receiver(),
                             Topology.broadcast()):
                if topology != spec.topology:
                    channels = sample_channel(topology, 1, seed=0)
                    with pytest.raises(BadParams):
                        run_scheme(spec, channels, PowerBudget(1e4), "noiseless", 0)

    def test_noisy_mode_decode_residual_shrinks_with_power(self):
        spec = build_scheme("MR_DDP")
        channels = sample_channel(spec.topology, spec.n_slots, 12)
        residuals = []
        for power in (1e2, 1e8):
            trace = run_scheme(spec, channels, PowerBudget(power), "noisy", 12)
            residuals.append(decode(trace).max_residual)
        assert residuals[1] < residuals[0]

    def test_per_slot_power(self, monkeypatch):
        """The executor checks every slot's power against the budget; a
        normalization short by 1e-6 trips the check."""
        from sdof_lab.schemes import program

        cases = ("MR_DDP", "BC_S1_43", "MR_S30_29_A", "WT_DD_23")
        for scheme_id in cases:
            spec, trace = _run(scheme_id, seed=2, power=256.0)
            assert trace.x_value.shape[1] == spec.n_slots
        norms = program._norms

        def short_frobenius_norms(a):
            out = norms(a)
            return out * (1 - 1e-6) if out.ndim == 1 else out   # the (seed,) slot norms

        monkeypatch.setattr(program, "_norms", short_frobenius_norms)
        for scheme_id in cases:
            with pytest.raises(AssertionError, match="seed 2, slot 0: transmit power above"):
                _run(scheme_id, seed=2, power=256.0)

    def test_trace_determinism(self):
        _, a = _run("BC_DD_S1", seed=9)
        _, b = _run("BC_DD_S1", seed=9)
        assert a.symbol_values.tobytes() == b.symbol_values.tobytes()
        assert a.obs_vals.tobytes() == b.obs_vals.tobytes()

    def test_noisy_mode_adds_noise(self):
        spec, clean = _run("MR_PPD", seed=4)
        _, noisy = _run("MR_PPD", seed=4, mode="noisy")
        assert noisy.noise_vals is not None
        rx1 = spec.topology.nodes().index(RX1)
        delta = noisy.obs_vals[:, rx1] - clean.obs_vals[:, rx1]
        assert np.allclose(delta, noisy.noise_vals[:, rx1])

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
        channels = sample_channel(spec.topology, spec.n_slots, 0)
        with pytest.raises(CsitViolation):
            run_scheme(mutated, channels, PowerBudget(1e4), "noiseless", 0)


    @pytest.mark.parametrize("slot, field, value, error", [
        (0, "beam", NullOf(((EVE, -1),)), CsitViolation),
        (1, "payload", ObsPart(RX1, -1), CsitViolation),
        (0, "beam", Axis(5), BadParams),
        (0, "beam", Axis(-1), BadParams),
        (0, "beam", NullOf(((EVE, 0),), basis_index=-1), BadParams),
        (1, "beam", NullOf((("bob", 0),)), BadParams),
        (1, "payload", ObsPart("bob", 0), BadParams),
        (1, "payload", ObsPart(RX1, 0, streams=("nope",)), BadParams),
        (2, "beam", NullOf(((RX1, 0), (RX2, 0), (EVE, 0))), OverConstrained),
    ], ids=["beam-before-slot-0", "payload-before-slot-0", "antenna-above-n-tx",
            "antenna-below-0", "basis-index-below-0", "beam-unknown-node",
            "payload-unknown-node", "payload-unsent-stream", "beam-three-refs"])
    def test_reference_out_of_range(self, slot, field, value, error):
        """A beam reads slots [0, t] of the topology's nodes, a payload the
        streams that slots [0, t) sent, an axis antennas [0, n_tx); one
        stream of MR_DDP outside its range fails with an error that names
        its slot."""
        spec = build_scheme("MR_DDP")
        plans = list(spec.slot_plans)
        first, *rest = plans[slot].streams
        plans[slot] = SlotPlan(plans[slot].state, (first._replace(**{field: value}), *rest))
        channels = sample_channel(spec.topology, spec.n_slots, 0)
        with pytest.raises(error, match=f"^slot {slot}: "):
            run_scheme(replace(spec, slot_plans=tuple(plans)), channels, PowerBudget(1e4))

    @pytest.mark.parametrize("coef", [
        float("nan"), float("inf"), -float("inf"), complex(1.0, float("nan")),
        np.float64("inf"), 10 ** 400, "1", None,
    ], ids=["nan", "inf", "minus-inf", "complex-nan", "numpy-inf", "huge-int", "str", "none"])
    @pytest.mark.parametrize("slot, payload", [
        (0, lambda c: Comb(((c, Sym("u1")),))),
        (1, lambda c: Comb(((1.0, Sym("v1")), (c, ObsPart(RX1, 0))))),
        (1, lambda c: Comb(((1.0, ObsPart(RX1, 0)), (1.0, Comb(((c, Sym("v2")),)))))),
    ], ids=["fixed-row", "channel-row", "nested"])
    def test_combination_coefficient_not_a_finite_number(self, slot, payload, coef):
        """A coefficient that is not a finite number, in a fixed row or in a
        channel-dependent one, at any depth, fails compilation with an
        error that names its slot; WT_DD_23's first stream of the slot
        carries it."""
        spec = build_scheme("WT_DD_23")
        plans = list(spec.slot_plans)
        first, *rest = plans[slot].streams
        plans[slot] = SlotPlan(plans[slot].state,
                               (first._replace(payload=payload(coef)), *rest))
        with pytest.raises(BadParams, match=f"^slot {slot}: combination coefficient"):
            compile_spec(replace(spec, slot_plans=tuple(plans)))
        plans[slot] = SlotPlan(plans[slot].state,
                               (first._replace(payload=payload(2.5 - 1j)), *rest))
        compile_spec(replace(spec, slot_plans=tuple(plans)))

    @pytest.mark.parametrize("coef", [1e308, 1e-320])
    def test_payload_norm_not_finite_or_zero_names_the_stream(self, coef):
        """A finite coefficient whose payload norm overflows to inf, or
        underflows to zero, fails the run with an error that names the seed,
        the slot and the stream; it never transmits a silent zero."""
        spec = build_scheme("WT_DD_23")
        plans = list(spec.slot_plans)
        first, *rest = plans[0].streams
        plans[0] = SlotPlan(plans[0].state,
                            (first._replace(payload=Comb(((coef, Sym("u1")),))), *rest))
        mutated = replace(spec, slot_plans=tuple(plans))
        channels = sample_channels(spec.topology, spec.n_slots, [3, 4])
        with pytest.raises(BadParams, match=r"^seed 3, slot 0: stream 'u1' payload"):
            execute_batch(mutated, channels, PowerBudget(1e4), "noiseless", [3, 4])


def _batch_bytes(batch) -> list:
    """Every number a batch records, with its shape, as bytes, in a fixed
    order."""
    from sdof_lab.schemes.program import _SEED_AXES

    assert set(_SEED_AXES) == set(TraceBatch._fields) - {"spec", "seeds", "power", "mode"}
    out = [batch.seeds, batch.power, batch.mode]
    for name in _SEED_AXES:
        arr = getattr(batch, name)
        out.append(None if arr is None else (arr.shape, arr.tobytes()))
    return out


class TestBatch:
    """Stacking seeds changes no bit of any trace."""

    @pytest.mark.parametrize("mode", ["noiseless", "noisy"])
    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_batch_equals_single_runs(self, scheme_id, mode):
        spec = build_scheme(scheme_id)
        seeds = [0, 1, 2, 7, 11]
        power = PowerBudget(2.0 ** 30)
        single = TraceBatch.concatenate(
            [run_scheme(spec, sample_channel(spec.topology, spec.n_slots, seed),
                        power, mode, seed) for seed in seeds])
        whole = execute_batch(spec, sample_channels(spec.topology, spec.n_slots, seeds),
                              power, mode, seeds)
        chunked = TraceBatch.concatenate(run_seed_batches(spec, seeds, power, mode))
        assert _batch_bytes(whole) == _batch_bytes(single)
        assert _batch_bytes(chunked) == _batch_bytes(single)

    @pytest.mark.parametrize("mode", ["noiseless", "noisy"])
    def test_composite_blocks_40_batch_equals_single_runs(self, mode):
        spec = build_scheme("MR_S30_29_A", blocks=40)
        seeds = [3, 4]
        power = PowerBudget(1e4)
        whole = execute_batch(spec, sample_channels(spec.topology, spec.n_slots, seeds),
                              power, mode, seeds)
        single = TraceBatch.concatenate(
            run_scheme(spec, sample_channel(spec.topology, spec.n_slots, seed),
                       power, mode, seed) for seed in seeds)
        assert _batch_bytes(whole) == _batch_bytes(single)

    def test_record_is_its_observation_rows(self):
        """A run's record holds little beside its nodes' observation rows: no
        payload row or transmit matrix outlives the run."""
        def nbytes(value):
            if isinstance(value, np.ndarray):
                return value.nbytes
            if isinstance(value, tuple):
                return sum(map(nbytes, value))
            return 0

        _, trace = _run("MR_S30_29_A", blocks=40)
        total, rows = nbytes(tuple(trace)), nbytes(trace.obs_rows)
        assert total <= rows + (1 << 20)

    def test_compiled_on_first_use_only(self):
        spec = build_scheme("MR_DDP")
        assert "compiled" not in vars(spec)
        channels = sample_channel(spec.topology, spec.n_slots, 0)
        run_scheme(spec, channels, PowerBudget(1e4))
        compiled = vars(spec)["compiled"]
        run_scheme(spec, channels, PowerBudget(1e4))
        assert vars(spec)["compiled"] is compiled

    def test_mutated_state_raises_in_a_batch(self):
        spec = build_scheme("MR_PPD")
        mutated = spec.with_slot_state(0, StateLabel.parse("PDD"))
        spec.compiled       # the original's compiled form is not reused
        with pytest.raises(CsitViolation):
            list(run_seed_batches(mutated, range(4), PowerBudget(1e4)))

    def test_numeric_failure_names_the_seed(self, monkeypatch):
        from sdof_lab.schemes import program

        spec = build_scheme("MR_PDP")
        channels = sample_channels(spec.topology, spec.n_slots, [5, 6, 7])
        norms = program._norms

        def zero_at_seed_6(a):
            out = norms(a)
            if out.ndim == 2:           # the (stream, seed) payload norms
                out[:, 1] = 0.0
            return out

        monkeypatch.setattr(program, "_norms", zero_at_seed_6)
        with pytest.raises(BadParams, match="seed 6, slot 0: stream .* payload is zero"):
            execute_batch(spec, channels, PowerBudget(1e4), "noiseless", [5, 6, 7])


    @pytest.mark.parametrize("scheme_id", ["WT_DD_23", "BC_S1_43", "MR_S30_29_A"])
    def test_batch_channels_are_the_sampled_draw(self, scheme_id):
        spec = build_scheme(scheme_id)
        seeds = [0, 4, 9]
        channels = sample_channels(spec.topology, spec.n_slots, seeds)
        batch, = run_seed_batches(spec, seeds, PowerBudget(1e4))
        assert batch.channels.flags.c_contiguous
        assert batch.channels.tobytes() == channels.tobytes()
        # the record keeps the draw it was given, and a longer draw's slots
        run = execute_batch(spec, channels, PowerBudget(1e4), "noiseless", seeds)
        assert np.shares_memory(run.channels, channels)
        longer = sample_channels(spec.topology, spec.n_slots + 3, seeds)
        run = execute_batch(spec, longer, PowerBudget(1e4), "noiseless", seeds)
        assert run.channels.flags.c_contiguous
        assert run.channels.tobytes() == longer[:, :, :spec.n_slots].tobytes()

    def test_channel_shape_is_checked(self):
        spec = build_scheme("MR_DDP")
        seeds = [5, 6, 7]
        channels = sample_channels(spec.topology, spec.n_slots, seeds)
        power = PowerBudget(1e4)
        for bad, bad_seeds in (
            (channels, [5, 6]),                     # seed count
            (channels, [5, 6, 7, 8]),
            (channels[:, :2], seeds),               # node count
            (channels[..., :2], seeds),             # antenna count
            (channels[0], seeds),                   # no seed axis
        ):
            with pytest.raises(BadParams):
                execute_batch(spec, bad, power, "noiseless", bad_seeds)
        with pytest.raises(RealizationTooShort):
            execute_batch(spec, channels[:, :, :-1], power, "noiseless", seeds)


def _assert_same_with_signed_zeros(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.shape == want.shape, what
    assert np.array_equal(got, want), what
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want))), what


class TestRecordedProducts:
    """The executor's observation rows, observations and transmitted vectors
    against a slot-by-slot reference kept here: a `+=` per stream for the
    transmitted vector, and per node one product with the slot's transmit
    matrix and one with the transmitted vector.  Values and the sign of every
    zero must agree: LAPACK's reflectors read the sign of zero."""

    @staticmethod
    def _check(spec, seeds, mode, monkeypatch):
        from sdof_lab.schemes import program

        # _norms sees each slot's payload rows, then its transmit matrix as a
        # flat view, which the executor then normalizes in place
        seen = []
        norms = program._norms

        def recording(a):
            seen.append(a)
            return norms(a)

        power = PowerBudget(2.0 ** 40)
        with monkeypatch.context() as patch:
            patch.setattr(program, "_norms", recording)
            batch = execute_batch(spec, sample_channels(spec.topology, spec.n_slots, seeds),
                                  power, mode, seeds)
        assert len(seen) == 2 * spec.n_slots
        n_seeds, n_tx = len(seeds), spec.topology.n_tx
        x_values = np.zeros((n_seeds, spec.n_slots, n_tx), dtype=complex)
        zeros = 0
        for t in range(spec.n_slots):
            rows, flat = seen[2 * t], seen[2 * t + 1]
            x = flat.reshape(n_seeds, n_tx, -1)
            columns = np.flatnonzero(spec.compiled.column_slots == t)
            gains, beams = batch.gains[columns], batch.beams[columns]
            values = (rows[:, :, None, :] @ batch.symbol_values[None, :, :, None])[..., 0, 0]
            x_value = x_values[:, t]
            for term in (gains * values)[:, :, None] * beams:
                x_value += term
            _assert_same_with_signed_zeros(batch.x_value[:, t], x_value, f"slot {t} x_value")
            for n, node in enumerate(spec.topology.nodes()):
                ch = batch.channels[:, n, t, None, :]
                observed = (ch @ x)[:, 0]
                clean = np.sqrt(power.total_power) * (ch @ x_value[:, :, None])[:, 0, 0]
                if mode == "noisy":
                    clean = clean + batch.noise_vals[:, n, t]
                got = batch.obs_rows[n, :, t]
                _assert_same_with_signed_zeros(got, observed, f"slot {t} {node} obs_rows")
                _assert_same_with_signed_zeros(batch.obs_vals[:, n, t], clean,
                                               f"slot {t} {node} obs_vals")
                zeros += int(np.sum(got.real == 0) + np.sum(got.imag == 0))
        return zeros

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_one_seed(self, scheme_id, monkeypatch):
        self._check(build_scheme(scheme_id), [5], "noiseless", monkeypatch)

    @pytest.mark.parametrize("mode", ["noiseless", "noisy"])
    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_many_seeds(self, scheme_id, mode, monkeypatch):
        self._check(build_scheme(scheme_id), [0, 1, 2, 7, 11], mode, monkeypatch)

    def test_composite_blocks_20(self, monkeypatch):
        zeros = self._check(build_scheme("MR_S30_29_A", blocks=20), [3], "noisy", monkeypatch)
        assert zeros > 10_000       # most of a superframe's row entries are zeros


class TestStackTraces:
    """Single runs concatenated give the batch a stacked run gives."""

    @pytest.mark.parametrize("mode", ["noiseless", "noisy"])
    @pytest.mark.parametrize("scheme_id", ["WT_DD_23", "BC_S1_43", "MR_S30_29_B"])
    def test_stack_equals_the_stacked_run(self, scheme_id, mode):
        from sdof_lab.precoding import assemble_effective_systems

        spec = build_scheme(scheme_id)
        power = PowerBudget(2.0 ** 20)
        seeds = [2, 3, 5, 8]
        (batch,) = run_seed_batches(spec, seeds, power, mode)
        singles = [run_scheme(spec, sample_channel(spec.topology, spec.n_slots, seed),
                              power, mode, seed) for seed in seeds]
        stacked = TraceBatch.concatenate(singles)
        assert _batch_bytes(stacked) == _batch_bytes(batch)
        for node, mat in assemble_effective_systems(batch).matrices.items():
            assert assemble_effective_systems(stacked).matrices[node].tobytes() == mat.tobytes()
        assert decode_batch(stacked) == decode_batch(batch)

    def test_one_seed_stack_is_views_of_the_trace(self):
        spec, trace = _run("MR_DDP", seed=4, mode="noisy")
        batch = TraceBatch.concatenate([trace])
        assert batch is trace

    def test_only_runs_of_one_spec_power_and_mode_concatenate(self):
        spec, trace = _run("WT_PD", seed=0)
        others = [_run("WT_PD", seed=1)[1], _run("WT_PP", seed=1)[1],
                  _run("WT_PD", seed=1, power=1e5)[1], _run("WT_PD", seed=1, mode="noisy")[1]]
        assert TraceBatch.concatenate([trace, others[0]]).seeds == (0, 1)
        for other in others[1:]:
            with pytest.raises(ValueError, match="one spec, power and mode"):
                TraceBatch.concatenate([trace, other])

    def test_concatenated_runs_equal_the_stacked_batch(self):
        spec = build_scheme("BC_S1_43")
        power = PowerBudget(2.0 ** 20)

        def runs(seeds):
            return (run_scheme(spec, sample_channel(spec.topology, spec.n_slots, seed),
                               power, "noisy", seed) for seed in seeds)

        (batch,) = run_seed_batches(spec, [3, 1, 4], power, "noisy")
        assert _batch_bytes(TraceBatch.concatenate(runs([3, 1, 4]))) == _batch_bytes(batch)

    def test_chunks_share_the_batch_bound(self, monkeypatch):
        from sdof_lab.schemes import program

        spec = build_scheme("MR_S30_29_A")
        seeds = list(range(12))
        chunks = list(seed_chunks(spec, seeds))
        assert [seed for chunk in chunks for seed in chunk] == seeds
        assert [b.seeds for b in run_seed_batches(spec, seeds[:6], PowerBudget(1e4))] == \
            [tuple(chunk) for chunk in seed_chunks(spec, seeds[:6])]
        cells = spec.n_slots * len(spec.symbols)
        assert all(len(chunk) * cells <= program.BATCH_CELLS for chunk in chunks)
        assert len(chunks[0]) * cells + cells > program.BATCH_CELLS
        monkeypatch.setattr(program, "BATCH_CELLS", 1)
        assert list(seed_chunks(spec, seeds)) == [[seed] for seed in seeds]


def _bits(z) -> tuple:
    return type(z), z.real.hex(), z.imag.hex()


class TestReceiverView:
    """A seed's view, cut from its batch or from its own batch of one, reads
    bit for bit what the run's beams, gains, channels, observations and
    symbols give."""

    @pytest.mark.parametrize("mode", ["noiseless", "noisy"])
    @pytest.mark.parametrize("scheme_id, params", DECODE_CASES, ids=DECODE_IDS)
    def test_view_equals_the_trace(self, scheme_id, params, mode):
        spec = build_scheme(scheme_id, **params)
        power = PowerBudget(2.0 ** 30)
        for batch in run_seed_batches(spec, range(20), power, mode):
            for view, seed in zip(batch.views(), batch.seeds, strict=True):
                trace = run_scheme(spec, sample_channel(spec.topology, spec.n_slots, seed),
                                   power, mode, seed)
                (own,) = trace.views()
                assert view.seed == own.seed == trace.seeds[0] and view.spec is spec
                for n, node in enumerate(spec.topology.nodes()):
                    chan = trace.channels[0, n]
                    for t, slot in enumerate(spec.compiled.slots):
                        # the payload-scale value and coefficients as computed
                        # straight from the record's arrays
                        want = _bits(complex(trace.obs_vals[0, n, t]) / trace.sqrt_power)
                        assert _bits(view.rv(node, t)) == want
                        assert _bits(own.rv(node, t)) == want
                        for label in slot.labels:
                            column = spec.compiled.columns[t, label]
                            gain, beam = trace.gains[column, 0], trace.beams[column, 0]
                            want = _bits(complex(gain * (chan[t] @ beam)))
                            assert _bits(view.rc(node, t, label)) == want, (node, t, label)
                            assert _bits(own.rc(node, t, label)) == want, (node, t, label)
                for sid, i in spec.symbol_index.items():
                    want = _bits(complex(trace.symbol_values[0, i]))
                    assert _bits(view.true_value(sid)) == want
                    assert _bits(own.true_value(sid)) == want

    def test_unknown_stream_or_symbol(self):
        spec = build_scheme("MR_PDP")
        (batch,) = run_seed_batches(spec, [0, 1], PowerBudget(1e4))
        _, trace = _run("MR_PDP", seed=0)
        view, _ = batch.views()
        for reader in (view, next(trace.views())):
            with pytest.raises(KeyError, match=r"slot 1 has no stream 'v1'"):
                reader.rc(RX1, 1, "v1")
            with pytest.raises(KeyError, match=r"slot 7 has no stream 'fb'"):
                reader.rc(RX1, 7, "fb")
            with pytest.raises(UnknownSymbolId):
                reader.true_value("nope")

    def test_views_build_no_traces(self, monkeypatch):
        spec = build_scheme("MR_S30_29_A")
        (batch,) = run_seed_batches(spec, [0, 1], PowerBudget(1e4))
        monkeypatch.setattr(TraceBatch, "concatenate", None)
        assert [view.seed for view in batch.views()] == [0, 1]
        assert [report.all_success for report in decode_batch(batch)] == [True, True]


class TestSamplerCost:
    def test_seed_batches_derive_keys_in_bulk(self, monkeypatch):
        """No SeedSequence per (seed, slot): every key of a batch comes from
        one bulk derivation per tag family (channels, symbols, noise)."""
        from sdof_lab import rng

        made, bulk = [], []
        sequence, keys = np.random.SeedSequence, rng.keys

        class Counted(sequence):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        def counted_keys(seeds, tags):
            bulk.append((len(seeds), len(tags)))
            return keys(seeds, tags)

        monkeypatch.setattr(np.random, "SeedSequence", Counted)
        monkeypatch.setattr(rng, "keys", counted_keys)
        spec = build_scheme("MR_DDP")
        batches = list(run_seed_batches(spec, range(30), PowerBudget(1e4), "noisy"))
        assert [seed for batch in batches for seed in batch.seeds] == list(range(30))
        assert made == []
        assert bulk == [(30, spec.n_slots), (30, 1), (30, len(spec.topology.nodes()))]


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
        assert list(report.nodes) == [RX1]      # rx2 is sent no messages

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_reports_score_exactly_the_receivers(self, scheme_id):
        spec = build_scheme(scheme_id)
        for batch in run_seed_batches(spec, range(2), PowerBudget(1e4)):
            for report in decode_batch(batch):
                assert tuple(report.nodes) == spec.receivers

    @pytest.mark.parametrize("mode", ["noiseless", "noisy"])
    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_decoders_read_only_their_own_receiver(self, scheme_id, mode):
        """Each receiver's recovered values keep their bits when every other
        node's observations and every drawn symbol are NaN: a hand decoder
        reads only its receiver's observations, besides the coefficients."""
        from sdof_lab.schemes import _decode_receivers

        spec = build_scheme(scheme_id)
        nan = complex("nan")
        for batch in run_seed_batches(spec, range(3), PowerBudget(1e4), mode):
            for view in batch.views():
                full = _decode_receivers(view)
                for node in spec.receivers:
                    blind = view._replace(
                        observations={n: obs if n == node else [nan] * len(obs)
                                      for n, obs in view.observations.items()},
                        symbol_values=[nan] * len(view.symbol_values))
                    got = _decode_receivers(blind)[node].recovered
                    assert {sid: _bits(z) for sid, z in got.items()} == \
                        {sid: _bits(z) for sid, z in full[node].recovered.items()}, \
                        (scheme_id, mode, view.seed, node)

    def test_nan_recovered_value_fails(self, monkeypatch):
        """A NaN recovered value scores like a missing one: an infinite
        residual and a failed decode, never a residual of 0."""
        from sdof_lab import schemes

        monkeypatch.setitem(schemes._DECODERS, "WT_PP",
                            lambda view: {RX1: {"v": complex("nan+0j")}})
        node = decode(_run("WT_PP")[1]).nodes[RX1]
        assert node.max_residual == float("inf")
        assert not node.success

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_decoding_goes_through_the_decoder_table(self, scheme_id, monkeypatch):
        """Every scheme id has an entry in `_DECODERS`, and each seed's view
        is decoded by whatever that entry holds, so wrapping the entries
        sees every hand decoder call."""
        from sdof_lab import schemes

        spec = build_scheme(scheme_id)
        calls = []

        def counted(view):
            calls.append(view.seed)
            return dispatch(view)

        dispatch = schemes._DECODERS[scheme_id]
        monkeypatch.setitem(schemes._DECODERS, scheme_id, counted)
        for batch in run_seed_batches(spec, range(3), PowerBudget(1e4)):
            assert all(report.all_success for report in decode_batch(batch))
        assert calls == [0, 1, 2]
        monkeypatch.setitem(schemes._DECODERS, scheme_id, lambda view: {})
        for batch in run_seed_batches(spec, range(1), PowerBudget(1e4)):
            assert not any(node.success for node in decode_batch(batch)[0].nodes.values())

    def test_fallback_composite_decodes(self):
        spec, trace = _run("MR_S30_29_A", sub="fallback32", seed=6)
        report = decode(trace)
        assert report.all_success
        assert not report.any_protected_identifiable

    def test_mirrored_composite_decodes(self):
        spec, trace = _run("MR_S30_29_B", seed=8)
        report = decode(trace)
        assert report.all_success

    @pytest.mark.parametrize("mode", ["noiseless", "noisy"])
    @pytest.mark.parametrize("scheme_id, params", DECODE_CASES, ids=DECODE_IDS)
    def test_given_system_and_batch_decode_equal_decode(self, scheme_id, params, mode):
        """decode(trace, system) and decode_batch give the report decode(trace)
        gives."""
        from sdof_lab.precoding import assemble_effective_system, assemble_effective_systems

        spec = build_scheme(scheme_id, **params)
        power = PowerBudget(2.0 ** 30)
        for batch in run_seed_batches(spec, range(4), power, mode):
            batched = decode_batch(batch)
            given_stack = decode_batch(batch, assemble_effective_systems(batch))
            for seed, one, other in zip(batch.seeds, batched, given_stack, strict=True):
                trace = run_scheme(spec, sample_channel(spec.topology, spec.n_slots, seed),
                                   power, mode, seed)
                alone = decode(trace)
                assert decode(trace, assemble_effective_system(trace)) == alone
                assert one == alone and other == alone, (scheme_id, trace.seeds)

    def test_composite_side_info_adds_nothing_at_adversary(self):
        """The unicast phases repeat the adversary's own observations, so its
        useful row space is spanned by the dissemination and multicast slots
        alone; this is the structural reason the composite leaks nothing."""
        from sdof_lab.precoding import assemble_effective_system

        spec, trace = _run("MR_S30_29_A", seed=5)
        system = assemble_effective_system(trace)
        eve_rows = system.matrices[EVE]
        # the multicast pairs' streams are tagged m0-, m1-, ...; they follow
        # the dissemination and the two side-information unicast blocks
        pairs = [t for t, plan in enumerate(spec.slot_plans)
                 if plan.streams[0].label.startswith("m")]
        assert pairs == list(range(3 * 10 + 2 * 6, 3 * 10 + 2 * 6 + 2 * 5))
        keep = list(range(3 * 10)) + pairs
        informative = eve_rows[keep]
        assert np.linalg.matrix_rank(eve_rows, tol=1e-8) == \
            np.linalg.matrix_rank(informative, tol=1e-8)


class TestAccounting:
    def test_pdp_rates(self):
        report = accounting(build_scheme("MR_PDP"))
        assert report.nominal_sdof == {RX1: Fraction(1), RX2: Fraction(1, 2)}

    def test_multicast_rate(self):
        spec = build_scheme("SUB_SECURE_MULTICAST")
        report = accounting(spec)
        assert spec.n_slots == 16
        assert report.symbols_per_receiver == {RX1: 10, RX2: 10}
        assert report.nominal_sdof[RX1] == Fraction(5, 8)

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_keyed_by_the_receivers(self, scheme_id):
        spec = build_scheme(scheme_id)
        report = accounting(spec)
        assert tuple(report.symbols_per_receiver) == spec.receivers
        assert tuple(report.nominal_sdof) == spec.receivers

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
