"""Beamformers and effective linear systems."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdof_lab.errors import IncompleteTrace, OverConstrained, UnknownSymbolId
from sdof_lab.model import EVE, RX1, RX2, PowerBudget, sample_channel
from sdof_lab.precoding import (
    assemble_effective_system,
    assemble_effective_systems,
    identifiability_check,
    identifiability_checks,
    identifiable_symbols,
    identifiable_symbols_stacked,
    null_basis,
    null_vector,
)
from sdof_lab.schemes import SCHEME_IDS, build_scheme, run_scheme, run_seed_batches


def _run(scheme_id, seed=0, **params):
    spec = build_scheme(scheme_id, **params)
    realization = sample_channel(spec.topology, spec.n_slots, seed)
    return spec, run_scheme(spec, realization, PowerBudget(1e4), "noiseless", seed)


complex_rows = st.lists(
    st.tuples(*[st.floats(-2, 2, allow_nan=False) for _ in range(6)]),
    min_size=1, max_size=2,
).map(lambda rows: [np.array([complex(a, b), complex(c, d), complex(e, f)])
                    for a, b, c, d, e, f in rows])


class TestNullVector:
    def test_single_axis_row(self):
        beam = null_vector([np.array([1.0 + 0j, 0, 0])], 3)
        assert abs(beam.vector[0]) < 1e-12
        assert np.isclose(np.linalg.norm(beam.vector), 1.0)

    def test_two_axis_rows(self):
        beam = null_vector(
            [np.array([1.0 + 0j, 0, 0]), np.array([0, 1.0 + 0j, 0])], 3)
        assert np.allclose(beam.vector, [0, 0, 1.0])

    def test_over_constrained(self):
        rows = [np.eye(3, dtype=complex)[i] for i in range(3)]
        with pytest.raises(OverConstrained):
            null_vector(rows, 3)

    def test_degenerate_rows_flagged(self):
        row = np.array([1.0 + 1j, 0.5, -2.0])
        beam = null_vector([row, row], 3)
        assert beam.degenerate
        assert abs(row @ beam.vector) <= 1e-10 * np.linalg.norm(row)

    @given(complex_rows)
    @settings(max_examples=50, deadline=None)
    def test_residual_oracle(self, rows):
        rows = [r for r in rows if np.linalg.norm(r) > 1e-6]
        if len(rows) >= 3:
            rows = rows[:2]
        beam = null_vector(rows, 3)
        for row in rows:
            assert abs(row @ beam.vector) <= 1e-10 * max(np.linalg.norm(row), 1e-9)
        assert np.isclose(np.linalg.norm(beam.vector), 1.0)

    def test_pure_function(self):
        rows = [np.array([0.3 + 0.4j, -1.2, 0.9j])]
        a = null_vector(rows, 3).vector
        b = null_vector(rows, 3).vector
        assert a.tobytes() == b.tobytes()

    def test_canonical_phase(self):
        rows = [np.array([0.8 - 0.1j, 0.2 + 0.3j, -0.5j])]
        vec = null_vector(rows, 3).vector
        pivot = vec[int(np.argmax(np.abs(vec)))]
        assert abs(pivot.imag) < 1e-12 and pivot.real >= 0

    def test_basis_orthonormal(self):
        basis, degenerate = null_basis([np.array([1.0 + 2j, 0.4, -1.1])], 3)
        assert not degenerate
        assert basis.shape == (3, 2)
        assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)


class TestAssemble:
    def test_reconstruction_bc_43(self):
        spec, trace = _run("BC_S1_43")
        system = assemble_effective_system(trace)
        mat = system.matrices[RX1]
        assert mat.shape == (6, 10)
        assert np.linalg.matrix_rank(mat) == 6
        assert system.matrices[RX2].shape == (6, 10)

    def test_nulled_adversary_block_is_zero(self):
        spec, trace = _run("MR_PDP")
        system = assemble_effective_system(trace)
        scale = np.sqrt(trace.power.total_power)
        assert np.max(np.abs(trace.obs_vals[EVE])) <= 1e-10 * scale
        assert np.max(np.abs(system.matrices[EVE])) <= 1e-10

    def test_empty_scheme(self):
        from sdof_lab.model import Topology
        from sdof_lab.schemes import SchemeSpec, decode

        spec = SchemeSpec(
            scheme_id="EMPTY", topology=Topology.broadcast(), slot_plans=(),
            symbols=(), protected={}, adversary_known={})
        realization = sample_channel(spec.topology, 1, seed=0)
        trace = run_scheme(spec, realization, PowerBudget(1.0), "noiseless", 0)
        system = assemble_effective_system(trace)
        assert system.n_obs == 0
        report = decode(trace)
        assert report.all_success

    def test_incomplete_trace_rejected(self):
        def without_last_slot(run):
            return run._replace(**{
                name: {node: arr[:, :-1] for node, arr in getattr(run, name).items()}
                for name in ("channels", "obs_rows", "obs_vals")}, **{
                name: getattr(run, name)[:-1]
                for name in ("beams", "gains", "payload_rows", "x_matrix", "x_value")})

        spec, trace = _run("MR_DDP")
        with pytest.raises(IncompleteTrace, match="trace has 2 of 3 slots"):
            assemble_effective_system(without_last_slot(trace))
        batch = next(run_seed_batches(spec, [0, 1], PowerBudget(1e4)))
        with pytest.raises(IncompleteTrace, match="trace has 2 of 3 slots"):
            assemble_effective_systems(without_last_slot(batch))

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_trace_check_holds_at_every_power(self, scheme_id):
        """The re-simulation check must not trip as the trace power grows:
        zero-forced observations carry rounding that scales with sqrt(P)."""
        spec = build_scheme(scheme_id)
        for seed in range(2):
            realization = sample_channel(spec.topology, spec.n_slots, seed)
            for exp in range(20, 61, 5):
                for mode in ("noiseless", "noisy"):
                    trace = run_scheme(spec, realization, PowerBudget(2.0 ** exp),
                                       mode, seed)
                    assemble_effective_system(trace)

    def test_noisy_mode_reconstruction(self):
        spec = build_scheme("MR_PPD")
        realization = sample_channel(spec.topology, spec.n_slots, 3)
        trace = run_scheme(spec, realization, PowerBudget(100.0), "noisy", 3)
        system = assemble_effective_system(trace)
        assert system.matrices[RX1].shape == (1, 3)


class TestIdentifiability:
    def test_ddp_receiver_targets(self):
        spec, trace = _run("MR_DDP")
        system = assemble_effective_system(trace)
        assert identifiability_check(system, RX1, ["v1", "v2"])
        assert identifiability_check(system, RX2, ["w1", "w2"])

    def test_noise_masked_adversary(self):
        spec, trace = _run("MR_PDD")
        system = assemble_effective_system(trace)
        assert not identifiability_check(system, EVE, ["v"])

    def test_empty_targets(self):
        spec, trace = _run("MR_PDD")
        system = assemble_effective_system(trace)
        assert identifiability_check(system, EVE, [])

    def test_unknown_symbol(self):
        spec, trace = _run("MR_PDD")
        system = assemble_effective_system(trace)
        with pytest.raises(UnknownSymbolId):
            identifiability_check(system, EVE, ["nope"])

    def test_fast_path_matches_rank_check(self):
        """Both oracles agree on every message symbol at every node, fully
        zero-forced nodes (WT_PP/WT_DP eve, BC_PP_S2 rx1/rx2) included."""
        for scheme_id in SCHEME_IDS:
            spec, trace = _run(scheme_id, seed=11)
            system = assemble_effective_system(trace)
            for node in spec.topology.nodes():
                known = spec.adversary_known.get(node, frozenset())
                candidates = sorted(set(system.message_sids()) - known)
                table = identifiable_symbols(system, node, candidates, known)
                for sid, flag in table.items():
                    assert flag == identifiability_check(
                        system, node, [sid], known), (scheme_id, node, sid)

    def test_oracle_agrees_with_decoders(self):
        from sdof_lab.schemes import decode

        for scheme_id in ("MR_PDP", "MR_DDP", "BC_S1_43", "SUB_PD_DP_UNICAST"):
            spec, trace = _run(scheme_id, seed=5)
            system = assemble_effective_system(trace)
            report = decode(trace)
            for node in spec.topology.nodes():
                targets = spec.message_sids(node)
                if not targets or node == EVE:
                    continue
                assert report.nodes[node].success
                assert identifiability_check(system, node, targets), (scheme_id, node)

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_verdicts_survive_rescaling(self, scheme_id):
        """Both oracles give the same verdicts when every matrix is rescaled."""
        spec, trace = _run(scheme_id, seed=2)
        system = assemble_effective_system(trace)

        def verdicts(sys_):
            out = {}
            for node in spec.topology.nodes():
                known = spec.adversary_known.get(node, frozenset())
                candidates = sorted(set(sys_.message_sids()) - known)
                table = identifiable_symbols(sys_, node, candidates, known)
                for sid in candidates:
                    out[node, sid] = (table[sid],
                                      identifiability_check(sys_, node, [sid], known))
            return out

        reference = verdicts(system)
        for scale in (1e-10, 1e3):
            scaled = dataclasses.replace(
                system, matrices={n: m * scale for n, m in system.matrices.items()})
            assert verdicts(scaled) == reference, scale


class TestStacked:
    """The stacked assembly and oracles give every system of a batch exactly
    what the one-system functions give it."""

    @pytest.mark.parametrize("mode", ["noiseless", "noisy"])
    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_batch_assembly_equals_single(self, scheme_id, mode):
        spec = build_scheme(scheme_id)
        power = PowerBudget(2.0 ** 40)
        for batch in run_seed_batches(spec, range(6), power, mode):
            systems = assemble_effective_systems(batch)
            for i, trace in enumerate(batch.split()):
                one = assemble_effective_system(trace)
                item = systems.item(i)
                assert item.symbols == one.symbols
                assert item.slot_of_row == one.slot_of_row
                for node, mat in one.matrices.items():
                    assert item.matrices[node].tobytes() == mat.tobytes()
                    assert not item.matrices[node].flags.writeable

    def test_batch_assembly_names_the_failing_seed(self):
        spec = build_scheme("MR_PDP")
        batch = next(run_seed_batches(spec, [4, 5, 6], PowerBudget(1e4)))
        batch.obs_vals[EVE][1, 0] += 1.0
        with pytest.raises(AssertionError, match="seed 5: effective system"):
            assemble_effective_systems(batch)

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_stacked_verdicts_equal_single_verdicts(self, scheme_id):
        """Every scheme x 20 seeds x node, at scalings 1, 1e-10 and 1e3."""
        spec = build_scheme(scheme_id)
        for batch in run_seed_batches(spec, range(20), PowerBudget(1e4)):
            assembled = assemble_effective_systems(batch)
            for scale in (1.0, 1e-10, 1e3):
                systems = dataclasses.replace(assembled, matrices={
                    n: m * scale for n, m in assembled.matrices.items()})
                singles = [systems.item(i) for i in range(len(batch.seeds))]
                for node in spec.topology.nodes():
                    known = spec.adversary_known.get(node, frozenset())
                    candidates = [d.sid for d in spec.symbols if d.sid not in known]
                    stacked = identifiable_symbols_stacked(systems, node, candidates, known)
                    target_sets = [[sid for sid in spec.message_sids(node) if sid not in known],
                                   candidates[:1]]
                    target_sets += [sorted(sids) for adv, sids in spec.protected.items()
                                    if adv == node]
                    checks = [identifiability_checks(systems, node, targets, known)
                              for targets in target_sets]
                    for i, one in enumerate(singles):
                        case = (scheme_id, batch.seeds[i], node, scale)
                        table = identifiable_symbols(one, node, candidates, known)
                        assert {sid: bool(f[i]) for sid, f in stacked.items()} == table, case
                        for targets, flags in zip(target_sets, checks):
                            assert bool(flags[i]) == identifiability_check(
                                one, node, targets, known), (case, targets)

    @pytest.mark.parametrize("scheme_id", ["MR_DDP", "BC_S1_43", "SUB_SECURE_MULTICAST"])
    def test_stacked_verdicts_with_mixed_ranks(self, scheme_id):
        """Systems of different rank in one stack: each is judged against its
        own null rows and its own scale."""
        spec = build_scheme(scheme_id)
        batch = next(run_seed_batches(spec, range(5), PowerBudget(1e4)))
        assembled = assemble_effective_systems(batch)
        matrices = {}
        for node, mats in assembled.matrices.items():
            mats = mats.copy()
            mats[1, 1:] = 0.0               # one observation left
            mats[2, :, 1] = mats[2, :, 0]   # two columns alike
            mats[3] = 0.0                   # nothing seen
            mats[4] *= 1e-9
            matrices[node] = mats
        systems = dataclasses.replace(assembled, matrices=matrices)
        for node in spec.topology.nodes():
            known = spec.adversary_known.get(node, frozenset())
            candidates = [d.sid for d in spec.symbols if d.sid not in known]
            stacked = identifiable_symbols_stacked(systems, node, candidates, known)
            checks = identifiability_checks(systems, node, candidates[:2], known)
            for i in range(5):
                one = systems.item(i)
                table = identifiable_symbols(one, node, candidates, known)
                assert {sid: bool(f[i]) for sid, f in stacked.items()} == table, (node, i)
                assert bool(checks[i]) == identifiability_check(one, node, candidates[:2], known)
