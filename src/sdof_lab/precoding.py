"""Zero-forcing beams, per-node effective linear systems and the one
separability oracle.

`null_bases` builds orthonormal bases orthogonal to given channel rows, for
a whole stack of row sets at once, with a deterministic phase convention.
`assemble_effective_system` extracts, from an executed run, the exact
matrices mapping (message, noise) symbols to each node's observations.
Those matrices drive all mutual-information computations and the oracle,
`resolved_ranks`: rank([T N]) - rank(N) for a node's target columns T and
nuisance columns N, which is every target where the node decodes them and,
at an adversary, the leakage prelog of its protected symbols.

A system may also be a stack: matrices with a leading axis, one item per
seed of a batch.  The assembly and the oracle have stacked forms; each
single-system function is the one-item case of its stacked form.  The
oracle works block by block: a stack's `blocks` are the connected
components of its exact nonzero pattern, found once per stack, and the
oracle runs one SVD per (block, node, column set) for the whole stack,
with every cutoff taken from the whole system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import BadParams, IncompleteTrace, OverConstrained, UnknownSymbolId
from .model import complex_to_json

RANK_REL_TOL = 1e-8


def vector_norms(a: np.ndarray) -> np.ndarray:
    """2-norm along the last axis, bit for bit `np.linalg.norm` of each
    vector (which takes `.dot` of the strided real and imaginary views)."""
    return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))


def canonical_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate each vector (along the last axis) so its first component of
    largest magnitude is real nonnegative; a zero vector stays zero.

    Magnitudes are taken with `np.hypot`, which equals Python's scalar
    `abs`, so a stack of vectors rotates bit for bit like each one alone.
    """
    flat = vecs.reshape(-1, vecs.shape[-1])
    mags = np.hypot(flat.real, flat.imag)
    items = np.arange(len(flat))
    idx = mags.argmax(axis=1)
    size = mags[items, idx]
    phase = np.conj(flat[items, idx]) / np.where(size > 0, size, 1.0)
    return (flat * phase[:, None]).reshape(vecs.shape)


def null_bases(mats: np.ndarray) -> np.ndarray:
    """Orthonormal bases (columns) of the joint nullspace of each set of
    constraint rows (..., r, dim) in C^dim, as (..., dim, dim - r).
    Requires r < dim.  Each item of a stack is bit for bit the result for
    its rows alone."""
    *stack, r, dim = mats.shape
    if r >= dim:
        raise OverConstrained(f"{r} constraint rows leave no nullspace in dim {dim}")
    if r == 0:
        return np.broadcast_to(np.eye(dim, dtype=complex), (*stack, dim, dim)).copy()
    vh = np.linalg.svd(mats)[2]
    # rows of vh[r:] are the conjugated basis vectors; keep the basis
    # C-contiguous so a column (a beam) has the same strides as always
    basis = canonical_phase(vh[..., r:, :].conj())
    return np.ascontiguousarray(np.swapaxes(basis, -1, -2))


@dataclass(frozen=True)
class SymbolDecl:
    """One transmitted symbol: its id and which node (if any) it is meant for.

    owner is "rx1", "rx2", "both" (common message) or "noise".
    """

    sid: str
    owner: str


@dataclass(frozen=True)
class EffectiveLinearSystem:
    """Per-node observation matrices over the common symbol columns.

    Row t of a node's matrix is its observation in slot t.  Rows are
    normalized so the physical observation is sqrt(P) * row @ symbols plus
    unit-variance noise; the sqrt(P) factor is applied by the analysis
    layer, which lets one assembled system serve a whole power grid.  In a
    stack of systems every matrix has a leading (system,) axis.
    """

    symbols: tuple[SymbolDecl, ...]
    matrices: Mapping[str, np.ndarray]     # node -> ([system,] slot, symbol)

    def item(self, i: int) -> "EffectiveLinearSystem":
        """System i of a stack; its matrices are views of the stack's."""
        return replace(self, matrices={node: m[i] for node, m in self.matrices.items()})

    def stacked(self) -> "EffectiveLinearSystem":
        """This system as a stack of one.  The stack has this system's
        nonzero pattern, so it shares the system's `symbol_index` and
        `blocks`, found once per system however often it is stacked."""
        stack = replace(self, matrices={node: m[None] for node, m in self.matrices.items()})
        stack.__dict__.update(symbol_index=self.symbol_index, blocks=self.blocks)
        return stack

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {decl.sid: i for i, decl in enumerate(self.symbols)}

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The (slot rows, symbol columns) of each connected component of the
        exact nonzero pattern, which links a row and a column that share a
        nonzero entry in any node's matrix of any system of the stack.  Every
        entry outside the blocks is an exact zero, so each matrix is block
        diagonal over them; a column that no row sees is in no block."""
        pattern = np.any([m.any(axis=tuple(range(m.ndim - 2)))
                          for m in self.matrices.values()], axis=0)
        return _components(pattern)

    def split_columns(self, secret: Iterable[str],
                      known: Iterable[str] = ()) -> tuple[list[int], np.ndarray]:
        """Symbol columns that remain once the `known` symbols are removed,
        in symbol order, and a mask over them marking the `secret`
        symbols; the unmarked kept columns are the nuisance.  The one
        resolver of symbol ids to columns: an unknown sid raises
        UnknownSymbolId, and a sid both secret and known raises BadParams."""
        secret = frozenset(secret)
        known = frozenset(known)
        for sid in secret | known:
            if sid not in self.symbol_index:
                raise UnknownSymbolId(sid)
        if secret & known:
            raise BadParams(f"symbol {min(secret & known)!r} is both a target and known")
        kept = [i for i, d in enumerate(self.symbols) if d.sid not in known]
        is_secret = np.array([self.symbols[i].sid in secret for i in kept], dtype=bool)
        return kept, is_secret

    def message_sids(self, node: str | None = None) -> tuple[str, ...]:
        if node is None:
            return tuple(d.sid for d in self.symbols if d.owner != "noise")
        return tuple(
            d.sid for d in self.symbols if d.owner == node or d.owner == "both"
        )

    def to_json(self) -> str:
        payload = {
            "symbols": [{"sid": d.sid, "owner": d.owner} for d in self.symbols],
            "slot_of_row": list(range(next(iter(self.matrices.values())).shape[-2])),
            "matrices": {node: complex_to_json(mat) for node, mat in self.matrices.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _components(pattern: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Connected components of a bipartite (row, column) bool pattern, as
    ascending (rows, columns) pairs in order of their first column; rows and
    columns without an entry belong to none.

    Label propagation: each column starts labelled with its own index; then
    each row takes the least label of its columns, each column the least
    label of its rows, and each column the label of the column its label
    names, until nothing changes.  A component ends labelled with its first
    column."""
    rows, cols = np.nonzero(pattern)                # row-major: rows ascend
    if not len(rows):
        return ()
    row_starts = np.flatnonzero(np.diff(rows, prepend=-1))
    row_sizes = np.diff(row_starts, append=len(rows))
    by_col = np.argsort(cols, kind="stable")
    col_starts = np.flatnonzero(np.diff(cols[by_col], prepend=-1))
    seen_cols = cols[by_col[col_starts]]
    label = np.arange(pattern.shape[1])
    while True:
        row_label = np.minimum.reduceat(label[cols], row_starts)
        new = label.copy()
        new[seen_cols] = np.minimum.reduceat(
            np.repeat(row_label, row_sizes)[by_col], col_starts)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    seen_rows = rows[row_starts]
    col_label = label[seen_cols]
    return tuple((seen_rows[row_label == first], seen_cols[col_label == first])
                 for first in sorted(set(col_label.tolist())))


def assemble_effective_system(trace) -> EffectiveLinearSystem:
    """Exact symbol-to-observation matrices for every node of a one-seed run
    (a `TraceBatch` of one seed); the one-seed case of
    `assemble_effective_systems`."""
    return assemble_effective_systems(trace).item(0)


def assemble_effective_systems(batch) -> EffectiveLinearSystem:
    """The stack of every seed's effective system in a `TraceBatch`, taken
    from the batch's stacked observation rows.

    A batch missing slots or stream columns raises IncompleteTrace.
    Validates that re-simulating the recorded observations from the matrices
    and the drawn symbol values reproduces every seed's run.  The comparison
    is on the power-free scale, where the rounding of slot t's observation is
    bounded by |h_t| |s| (the slot's transmit matrix has unit norm), plus
    |n_t| / sqrt(P) for the removed noise, so the 1e-10 relative bound holds
    at every power, zero-forced nodes included.  The matrices are read-only
    views of the batch's observation rows, not copies, so while the batch is
    alive (as it is decoded) its systems take no memory of their own.
    """
    n_slots = batch.spec.n_slots
    recorded = {batch.x_value.shape[1], batch.obs_rows.shape[2]}
    if recorded != {n_slots}:
        raise IncompleteTrace(f"trace has {min(recorded)} of {n_slots} slots")
    n_columns = len(batch.spec.compiled.column_slots)
    recorded = {len(batch.beams), len(batch.gains)}
    if recorded != {n_columns}:
        raise IncompleteTrace(f"trace has {min(recorded)} of {n_columns} stream columns")
    s = batch.symbol_values                         # (seed, symbol)
    s_norm = vector_norms(s)[:, None]
    matrices = {}
    for n, node in enumerate(batch.spec.topology.nodes()):
        rows = batch.obs_rows[n]                    # (seed, slot, symbol)
        observed = batch.obs_vals[:, n]
        scale = s_norm * np.linalg.norm(batch.channels[:, n], axis=-1)
        if batch.noise_vals is not None:
            observed = observed - batch.noise_vals[:, n]
            scale = scale + np.abs(batch.noise_vals[:, n]) / batch.sqrt_power
        residual = np.abs((rows @ s[:, :, None])[..., 0] - observed / batch.sqrt_power)
        bad = (residual > 1e-10 * scale).any(axis=1)
        if bad.any():
            raise AssertionError(f"seed {batch.seeds[int(np.argmax(bad))]}: "
                                 "effective system does not reproduce the trace")
        matrices[node] = rows.view()
        matrices[node].setflags(write=False)
    return EffectiveLinearSystem(
        symbols=batch.spec.symbols,
        matrices=matrices,
    )


def _system_scale(system: EffectiveLinearSystem, node: str) -> np.ndarray:
    """Largest entry of any node's matrix, per system of a stack: the
    reference for every rank cutoff, so a fully zero-forced node (whose own
    matrix is rounding noise) is not ranked against itself.

    A NaN or infinite entry anywhere carries through the maxima, and a
    system whose scale is not finite raises, naming `node`, the node the
    oracle was asked about: no verdict on such a system is trustworthy."""
    scale = np.max([np.abs(m).max(axis=(-2, -1), initial=0.0)
                    for m in system.matrices.values()], axis=0)
    bad = ~np.isfinite(scale)
    if bad.any():
        raise BadParams(f"node {node}: system {int(np.flatnonzero(bad)[0])} "
                        "has a non-finite matrix entry")
    return scale


def _ranks(mats: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Numerical rank of each matrix of a stack: singular values above
    RANK_REL_TOL * its system's scale."""
    if not mats.shape[-2] or not mats.shape[-1]:
        return np.zeros(len(mats), dtype=int)
    sv = np.linalg.svd(mats, compute_uv=False)
    return np.sum(sv > (RANK_REL_TOL * scale)[:, None], axis=-1)


def resolved_ranks(systems: EffectiveLinearSystem, node: str, targets: Iterable[str],
                   known: Iterable[str] = ()) -> np.ndarray:
    """Per system of a stack, as an int array, how many dimensions of the
    `targets` the node resolves: rank([T N]) - rank(N) once the `known`
    columns are removed, with T the target columns and N the rest.  It is
    |targets| exactly when the node can separate every target from all else
    it observes, and 0 when all it sees of them lies in the span of N.

    Each rank is the sum of the ranks of the node's matrix on the stack's
    `blocks`, counting singular values above RANK_REL_TOL times the scale of
    the whole system: two stacked SVDs per block that holds a target, and
    none for a block without one, which adds nothing."""
    return _resolved_ranks_each(systems, node, [targets], known)[0]


def _resolved_ranks_each(systems: EffectiveLinearSystem, node: str,
                         target_sets: list, known: Iterable[str]) -> np.ndarray:
    """`resolved_ranks` of each target set; rank([T N]), the kept columns', is shared."""
    known = frozenset(known)
    kept = np.array([d.sid not in known for d in systems.symbols], dtype=bool)
    is_target = np.zeros((len(target_sets), len(kept)), dtype=bool)
    for i, targets in enumerate(target_sets):
        is_target[i, kept] = systems.split_columns(targets, known)[1]
    mats = systems.matrices[node]
    gained = np.zeros((len(target_sets), len(mats)), dtype=int)
    if not is_target.any():
        return gained
    scale = _system_scale(systems, node)
    for rows, cols in systems.blocks:
        hit = np.flatnonzero(is_target[:, cols].any(axis=1))
        if len(hit):
            block = mats[:, rows[:, None], cols]
            whole = _ranks(block[..., kept[cols]], scale)
            for i in hit:
                gained[i] += whole - _ranks(block[..., kept[cols] & ~is_target[i, cols]], scale)
    return gained


def identifiability_check(
    system: EffectiveLinearSystem,
    node: str,
    targets: Iterable[str],
    known: Iterable[str] = (),
) -> bool:
    """Generic decodability oracle: whether the node can separate every
    target from whatever else it observes, once the `known` columns are
    removed.  The one-system case of `identifiability_checks`."""
    return bool(identifiability_checks(system.stacked(), node, targets, known)[0])


def identifiability_checks(
    systems: EffectiveLinearSystem,
    node: str,
    targets: Iterable[str],
    known: Iterable[str] = (),
) -> np.ndarray:
    """`identifiability_check` of every system of a stack, as a bool array:
    whether `resolved_ranks` resolves all |targets| dimensions."""
    targets = frozenset(targets)
    return resolved_ranks(systems, node, targets, known) == len(targets)


def identifiable_symbols(
    system: EffectiveLinearSystem, node: str, candidates: Iterable[str],
    known: Iterable[str] = (),
) -> dict[str, bool]:
    """`identifiability_check` of each candidate alone: whether the node can
    separate it from every other unknown column, its `resolved_ranks` 1.
    An unknown candidate, or one that is also known, raises before any check."""
    candidates, known = tuple(candidates), frozenset(known)
    system.split_columns(candidates, known)
    ranks = _resolved_ranks_each(system.stacked(), node, [[sid] for sid in candidates], known)
    return {sid: bool(gained[0] == 1) for sid, gained in zip(candidates, ranks)}
