"""Nullspace bases and effective linear systems."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdof_lab.errors import BadParams, IncompleteTrace, OverConstrained, UnknownSymbolId
from sdof_lab.model import EVE, RX1, RX2, PowerBudget, sample_channel
from sdof_lab.precoding import (
    RANK_REL_TOL,
    EffectiveLinearSystem,
    SymbolDecl,
    assemble_effective_system,
    assemble_effective_systems,
    identifiability_check,
    identifiability_checks,
    identifiable_symbols,
    identifiable_symbols_stacked,
    null_bases,
)
from sdof_lab.schemes import (
    SCHEME_IDS,
    TraceBatch,
    build_scheme,
    run_scheme,
    run_seed_batches,
)


def _run(scheme_id, seed=0, **params):
    spec = build_scheme(scheme_id, **params)
    channels = sample_channel(spec.topology, spec.n_slots, seed)
    return spec, run_scheme(spec, channels, PowerBudget(1e4), "noiseless", seed)


def _scale(systems):
    return np.max([np.abs(m).max(axis=(-2, -1), initial=0.0)
                   for m in systems.matrices.values()], axis=0)


def _whole_matrix_symbols(systems, node, candidates, known=()):
    """`identifiable_symbols_stacked` without blocks: one SVD of each
    system's whole kept matrix, ranked against its largest singular value."""
    kept, is_candidate = systems.split_columns(candidates, known)
    mats = systems.matrices[node][..., kept]
    if not mats.shape[-2] or not mats.shape[-1]:
        return {sid: np.zeros(len(mats), dtype=bool) for sid in candidates}
    sv, vh = np.linalg.svd(mats, full_matrices=True)[1:]
    rank = np.sum(sv > RANK_REL_TOL * sv[:, :1], axis=-1)
    touched = np.array([np.linalg.norm(v[r:], axis=0) > 1e-6 for v, r in zip(vh, rank)])
    seen = np.linalg.norm(mats, axis=-2) > RANK_REL_TOL * _scale(systems)[:, None]
    verdict = seen & ~touched
    return {systems.symbols[kept[j]].sid: verdict[:, j] for j in np.flatnonzero(is_candidate)}


def _whole_matrix_checks(systems, node, target_sets, known=()):
    """`identifiability_checks` of each target set without blocks: ranks of
    the whole matrices."""
    index = systems.symbol_index
    scale = _scale(systems)

    def ranks(cols):
        mats = systems.matrices[node][..., cols]
        if not mats.shape[-2] or not mats.shape[-1]:
            return np.zeros(len(mats), dtype=int)
        sv = np.linalg.svd(mats, compute_uv=False)
        return np.sum(sv > RANK_REL_TOL * scale[:, None], axis=-1)

    # the targets and nuisance together are every unknown column
    unknown = ranks([index[d.sid] for d in systems.symbols if d.sid not in known])
    return [unknown - ranks([index[d.sid] for d in systems.symbols
                             if d.sid not in known and d.sid not in targets]) == len(targets)
            for targets in target_sets]


complex_rows = st.lists(
    st.tuples(*[st.floats(-2, 2, allow_nan=False) for _ in range(6)]),
    min_size=1, max_size=2,
).map(lambda rows: [np.array([complex(a, b), complex(c, d), complex(e, f)])
                    for a, b, c, d, e, f in rows])


def _null_beam(rows):
    """The first column of `null_bases` for one set of constraint rows in C^3."""
    return null_bases(np.array(rows, dtype=complex).reshape(-1, 3))[:, 0]


class TestNullVector:
    """`null_bases`, the one nullspace builder: its beams, its bases and
    its stacks."""

    def test_single_axis_row(self):
        beam = _null_beam([np.array([1.0 + 0j, 0, 0])])
        assert abs(beam[0]) < 1e-12
        assert np.isclose(np.linalg.norm(beam), 1.0)

    def test_two_axis_rows(self):
        beam = _null_beam([np.array([1.0 + 0j, 0, 0]), np.array([0, 1.0 + 0j, 0])])
        assert np.allclose(beam, [0, 0, 1.0])

    def test_over_constrained(self):
        with pytest.raises(OverConstrained):
            null_bases(np.eye(3, dtype=complex))
        with pytest.raises(OverConstrained):
            null_bases(np.zeros((4, 3, 3), dtype=complex))

    def test_degenerate_rows_get_a_null_beam(self):
        row = np.array([1.0 + 1j, 0.5, -2.0])
        beam = _null_beam([row, row])
        assert abs(row @ beam) <= 1e-10 * np.linalg.norm(row)

    @given(complex_rows)
    @settings(max_examples=50, deadline=None)
    def test_residual_oracle(self, rows):
        rows = [r for r in rows if np.linalg.norm(r) > 1e-6]
        if len(rows) >= 3:
            rows = rows[:2]
        beam = _null_beam(rows)
        for row in rows:
            assert abs(row @ beam) <= 1e-10 * max(np.linalg.norm(row), 1e-9)
        assert np.isclose(np.linalg.norm(beam), 1.0)

    def test_pure_function(self):
        rows = [np.array([0.3 + 0.4j, -1.2, 0.9j])]
        a = _null_beam(rows)
        b = _null_beam(rows)
        assert a.tobytes() == b.tobytes()

    def test_canonical_phase(self):
        beam = _null_beam([np.array([0.8 - 0.1j, 0.2 + 0.3j, -0.5j])])
        pivot = beam[int(np.argmax(np.abs(beam)))]
        assert abs(pivot.imag) < 1e-12 and pivot.real >= 0

    def test_basis_orthonormal(self):
        basis = null_bases(np.array([[1.0 + 2j, 0.4, -1.1]]))
        assert basis.shape == (3, 2)
        assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_stack_equals_one_item_calls(self, n_rows):
        gen = np.random.default_rng(7)
        stack = gen.standard_normal((6, n_rows, 3)) + 1j * gen.standard_normal((6, n_rows, 3))
        stack[2, -1:] = stack[2, :1]            # a degenerate item, when it has two rows
        bases = null_bases(stack)
        assert bases.shape == (6, 3, 3 - n_rows)
        for rows, basis in zip(stack, bases, strict=True):
            alone = null_bases(rows)
            assert basis.tobytes() == alone.tobytes()
            assert alone.flags.c_contiguous


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
        eve = trace.obs_vals[:, spec.topology.nodes().index(EVE)]
        assert np.max(np.abs(eve)) <= 1e-10 * scale
        assert np.max(np.abs(system.matrices[EVE])) <= 1e-10

    def test_empty_scheme(self):
        from sdof_lab.model import Topology
        from sdof_lab.schemes import SchemeSpec, decode

        spec = SchemeSpec(
            scheme_id="EMPTY", topology=Topology.broadcast(), slot_plans=(),
            symbols=())
        channels = sample_channel(spec.topology, 1, seed=0)
        trace = run_scheme(spec, channels, PowerBudget(1.0), "noiseless", 0)
        system = assemble_effective_system(trace)
        assert {m.shape for m in system.matrices.values()} == {(0, 0)}
        report = decode(trace)
        assert report.all_success

    def test_incomplete_trace_rejected(self):
        def without_last_slot(run):
            last = len(run.spec.slot_plans[-1].streams)
            return run._replace(
                channels=run.channels[:, :, :-1], obs_rows=run.obs_rows[:, :, :-1],
                obs_vals=run.obs_vals[:, :, :-1],
                beams=run.beams[:-last], gains=run.gains[:-last], x_value=run.x_value[:, :-1])

        def without_last_beam(run):
            return run._replace(beams=run.beams[:-1])

        spec, trace = _run("MR_DDP")
        batch = next(run_seed_batches(spec, [0, 1], PowerBudget(1e4)))
        n_columns = len(spec.compiled.columns)
        for run, assemble in ((trace, assemble_effective_system),
                              (batch, assemble_effective_systems)):
            with pytest.raises(IncompleteTrace, match="trace has 2 of 3 slots"):
                assemble(without_last_slot(run))
            with pytest.raises(IncompleteTrace, match=f"trace has {n_columns - 1} of "
                                                      f"{n_columns} stream columns"):
                assemble(without_last_beam(run))

    @pytest.mark.parametrize("scheme_id, params, seeds", [
        ("BC_S1_43", {}, [0, 1, 2]), ("MR_S30_29_A", {"blocks": 20}, [3]),
    ], ids=["BC_S1_43", "MR_S30_29_A-blocks20"])
    def test_matrices_are_views_of_the_observation_rows(self, scheme_id, params, seeds):
        spec = build_scheme(scheme_id, **params)
        (batch,) = run_seed_batches(spec, seeds, PowerBudget(1e4), "noisy")
        matrices = assemble_effective_systems(batch).matrices
        for n, node in enumerate(spec.topology.nodes()):
            assert matrices[node].flags.c_contiguous, node
            assert not matrices[node].flags.writeable, node
            assert np.shares_memory(matrices[node], batch.obs_rows[n]), node

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_trace_check_holds_at_every_power(self, scheme_id):
        """The re-simulation check must not trip as the trace power grows:
        zero-forced observations carry rounding that scales with sqrt(P)."""
        spec = build_scheme(scheme_id)
        for seed in range(2):
            channels = sample_channel(spec.topology, spec.n_slots, seed)
            for exp in range(20, 61, 5):
                for mode in ("noiseless", "noisy"):
                    trace = run_scheme(spec, channels, PowerBudget(2.0 ** exp),
                                       mode, seed)
                    assemble_effective_system(trace)

    def test_noisy_mode_reconstruction(self):
        spec = build_scheme("MR_PPD")
        channels = sample_channel(spec.topology, spec.n_slots, 3)
        trace = run_scheme(spec, channels, PowerBudget(100.0), "noisy", 3)
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


SCALINGS = (1.0, 1e-10, 1e3)


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
            for i, seed in enumerate(batch.seeds):
                one = assemble_effective_system(run_scheme(
                    spec, sample_channel(spec.topology, spec.n_slots, seed), power, mode, seed))
                item = systems.item(i)
                assert item.symbols == one.symbols
                assert item.matrices.keys() == one.matrices.keys()
                for node, mat in one.matrices.items():
                    assert item.matrices[node].shape == mat.shape == (
                        spec.n_slots, len(spec.symbols))
                    assert item.matrices[node].tobytes() == mat.tobytes()
                    assert not item.matrices[node].flags.writeable

    def test_batch_assembly_names_the_failing_seed(self):
        spec = build_scheme("MR_PDP")
        batch = next(run_seed_batches(spec, [4, 5, 6], PowerBudget(1e4)))
        batch.obs_vals[1, spec.topology.nodes().index(EVE), 0] += 1.0
        with pytest.raises(AssertionError, match="seed 5: effective system"):
            assemble_effective_systems(batch)

    @pytest.mark.parametrize("scheme_id, params, runs", [
        *((scheme_id, {}, [(range(20), SCALINGS)]) for scheme_id in SCHEME_IDS),
        *(("MR_S30_29_A", {"blocks": blocks}, [([i], [scale]) for i, scale in enumerate(SCALINGS)])
          for blocks in (20, 40)),
    ], ids=[*SCHEME_IDS, "MR_S30_29_A-blocks20", "MR_S30_29_A-blocks40"])
    def test_stacked_verdicts_equal_single_verdicts(self, scheme_id, params, runs):
        """Every scheme x 20 seeds x node, at scalings 1, 1e-10 and 1e3, and
        `--blocks` 20 and 40 x 3 seeds, each at one of the scalings: the
        stacked, single and whole-matrix verdicts agree."""
        spec = build_scheme(scheme_id, **params)
        batches = [(batch, scalings) for seeds, scalings in runs
                   for batch in run_seed_batches(spec, seeds, PowerBudget(1e4))]
        for batch, scalings in batches:
            assembled = assemble_effective_systems(batch)
            for scale in scalings:
                systems = dataclasses.replace(assembled, matrices={
                    n: m * scale for n, m in assembled.matrices.items()})
                singles = [systems.item(i) for i in range(len(batch.seeds))]
                for node in spec.topology.nodes():
                    known = spec.adversary_known.get(node, frozenset())
                    candidates = [d.sid for d in spec.symbols if d.sid not in known]
                    stacked = identifiable_symbols_stacked(systems, node, candidates, known)
                    whole = _whole_matrix_symbols(systems, node, candidates, known)
                    assert {sid: f.tolist() for sid, f in stacked.items()} == \
                        {sid: f.tolist() for sid, f in whole.items()}, (batch.seeds, node, scale)
                    target_sets = [[sid for sid in spec.message_sids(node) if sid not in known],
                                   candidates[:1]]
                    target_sets += [sorted(sids) for adv, sids in spec.protected.items()
                                    if adv == node]
                    checks = [identifiability_checks(systems, node, targets, known)
                              for targets in target_sets]
                    whole = _whole_matrix_checks(systems, node, target_sets, known)
                    assert [flags.tolist() for flags in checks] == \
                        [flags.tolist() for flags in whole], (batch.seeds, node, scale)
                    for i, one in enumerate(singles):
                        case = (scheme_id, batch.seeds[i], node, scale)
                        table = identifiable_symbols(one, node, candidates, known)
                        assert {sid: bool(f[i]) for sid, f in stacked.items()} == table, case
                        for targets, flags in zip(target_sets, checks):
                            assert bool(flags[i]) == identifiability_check(
                                one, node, targets, known), (case, targets)

    @pytest.mark.parametrize("scheme_id, params", [
        ("MR_DDP", {}), ("BC_S1_43", {}), ("SUB_SECURE_MULTICAST", {}),
        ("SUB_PD_DP_UNICAST", {}), ("MR_S30_29_A", {"blocks": 20}),
    ], ids=["MR_DDP", "BC_S1_43", "SUB_SECURE_MULTICAST", "SUB_PD_DP_UNICAST",
            "MR_S30_29_A-blocks20"])
    def test_stacked_verdicts_with_mixed_ranks(self, scheme_id, params):
        """Systems of different rank in one stack: each is judged against its
        own null rows and its own scale, block by block against the scale of
        its whole matrix, as the whole-matrix reference judges it."""
        spec = build_scheme(scheme_id, **params)
        batch = TraceBatch.concatenate(list(run_seed_batches(spec, range(6), PowerBudget(1e4))))
        assembled = assemble_effective_systems(batch)
        rows, cols = assembled.blocks[-1]
        matrices = {}
        for node, mats in assembled.matrices.items():
            mats = mats.copy()
            mats[1, 1:] = 0.0               # one observation left
            mats[2, :, 1] = mats[2, :, 0]   # two columns alike
            mats[3] = 0.0                   # nothing seen
            mats[4] *= 1e-9
            mats[5, rows[:, None], cols] *= 1e-6    # one block faint
            matrices[node] = mats
        systems = dataclasses.replace(assembled, matrices=matrices)
        for node in spec.topology.nodes():
            known = spec.adversary_known.get(node, frozenset())
            candidates = [d.sid for d in spec.symbols if d.sid not in known]
            stacked = identifiable_symbols_stacked(systems, node, candidates, known)
            whole = _whole_matrix_symbols(systems, node, candidates, known)
            checks = identifiability_checks(systems, node, candidates[:2], known)
            (whole_checks,) = _whole_matrix_checks(systems, node, [candidates[:2]], known)
            assert checks.tolist() == whole_checks.tolist(), node
            for i in range(6):
                one = systems.item(i)
                table = identifiable_symbols(one, node, candidates, known)
                assert {sid: bool(f[i]) for sid, f in stacked.items()} == table, (node, i)
                assert {sid: bool(f[i]) for sid, f in whole.items()} == table, (node, i)
                assert bool(checks[i]) == identifiability_check(one, node, candidates[:2], known)


BLOCK_COUNTS = [
    *((scheme_id, {}, 1) for scheme_id in SCHEME_IDS
      if scheme_id not in ("SUB_PD_DP_UNICAST", "SUB_SECURE_MULTICAST")),
    ("SUB_PD_DP_UNICAST", {}, 2),
    ("SUB_SECURE_MULTICAST", {}, 2),
    ("MR_S30_29_A", {"sub": "fallback32"}, 1),
    ("MR_S30_29_B", {"sub": "fallback32"}, 1),
    ("MR_S30_29_A", {"blocks": 20}, 2),
    ("MR_S30_29_A", {"blocks": 40}, 4),
]


class TestBlocks:
    """The stack's blocks: the connected components of its exact nonzero
    pattern."""

    @pytest.mark.parametrize("scheme_id, params, n_blocks", BLOCK_COUNTS, ids=[
        scheme_id + "".join(f"-{k}{v}" for k, v in params.items())
        for scheme_id, params, _ in BLOCK_COUNTS])
    def test_block_counts(self, scheme_id, params, n_blocks):
        spec = build_scheme(scheme_id, **params)
        batch = next(run_seed_batches(spec, range(3), PowerBudget(1e4)))
        systems = assemble_effective_systems(batch)
        assert len(systems.blocks) == n_blocks
        rows = np.concatenate([rows for rows, _ in systems.blocks])
        cols = np.concatenate([cols for _, cols in systems.blocks])
        assert {m.shape[-2] for m in systems.matrices.values()} == {spec.n_slots}
        assert sorted(rows.tolist()) == list(range(spec.n_slots))
        assert sorted(cols.tolist()) == list(range(len(systems.symbols)))
        for node, mats in systems.matrices.items():
            outside = mats.copy()
            for rows, cols in systems.blocks:
                outside[:, rows[:, None], cols] = 0.0
            assert not outside.any(), node

    @staticmethod
    def _system(*matrices):
        n_symbols = matrices[0].shape[-1]
        return EffectiveLinearSystem(
            symbols=tuple(SymbolDecl(f"s{i}", "rx1") for i in range(n_symbols)),
            matrices={f"n{i}": np.asarray(m, dtype=complex) for i, m in enumerate(matrices)})

    def test_one_entry_couples_two_blocks(self):
        apart = np.array([[1.0, 2.0, 0.0, 0.0, 0.0],
                          [0.0, 3.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 4.0, 5.0],
                          [0.0, 0.0, 0.0, 0.0, 0.0]])
        blocks = self._system(apart).blocks
        assert [(r.tolist(), c.tolist()) for r, c in blocks] == [([0, 1], [0, 1]), ([2], [3, 4])]
        coupled = apart.copy()
        coupled[1, 4] = 1e-300
        (block,) = self._system(coupled).blocks
        assert [block[0].tolist(), block[1].tolist()] == [[0, 1, 2], [0, 1, 3, 4]]

    def test_blocks_span_every_node_and_system(self):
        first = np.diag([1.0, 2.0, 0.0])
        second = np.zeros((3, 3))
        second[0, 1] = 1.0
        assert len(self._system(first).blocks) == 2
        assert len(self._system(first, second).blocks) == 1
        assert len(self._system(np.stack([first, second])).blocks) == 1

    def test_unseen_column_is_not_identifiable(self):
        mat = np.array([[1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0]])
        system = self._system(mat)
        assert [c.tolist() for _, c in system.blocks] == [[0], [1]]
        assert identifiable_symbols(system, "n0", ["s0", "s1", "s2"]) == \
            {"s0": True, "s1": True, "s2": False}
        assert identifiability_check(system, "n0", ["s0", "s1"])
        assert not identifiability_check(system, "n0", ["s2"])

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_entry_raises(self, bad):
        """A NaN or infinite entry in any node's matrix makes every oracle
        raise, naming the node asked about and the system, where it would
        otherwise call a symbol hidden or fail inside LAPACK."""
        mat = np.array([[1.0, bad], [0.0, 1.0]])
        one = self._system(mat, np.eye(2))
        stack = self._system(np.stack([np.eye(2), mat]), np.stack([np.eye(2), np.eye(2)]))
        for node in ("n0", "n1"):
            for call, at in (
                (lambda: identifiable_symbols(one, node, ["s0"]), 0),
                (lambda: identifiability_check(one, node, ["s0"]), 0),
                (lambda: identifiable_symbols_stacked(stack, node, ["s0"]), 1),
                (lambda: identifiability_checks(stack, node, ["s0"]), 1),
            ):
                with pytest.raises(BadParams, match=f"node {node}: system {at} "):
                    call()

    def test_one_system_finds_its_blocks_once(self, monkeypatch):
        """The one-system oracles and `decode(trace, system)` stack their
        system through `stacked()`, which carries its partition over; an item
        of a stack finds its own, not the stack's."""
        from sdof_lab import precoding
        from sdof_lab.schemes import decode

        spec, trace = _run("MR_S30_29_A")
        system = assemble_effective_system(trace)
        found, calls = precoding._components, []
        monkeypatch.setattr(precoding, "_components",
                            lambda pattern: calls.append(pattern.shape) or found(pattern))
        for _ in range(3):
            identifiable_symbols(system, EVE, sorted(spec.protected[EVE]),
                                 spec.adversary_known.get(EVE, ()))
            identifiability_check(system, RX1, spec.message_sids(RX1))
            assert decode(trace, system).all_success
        assert len(calls) == 1
        assert "blocks" not in vars(system.stacked().item(0))
