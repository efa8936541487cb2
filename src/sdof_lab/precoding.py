"""Zero-forcing beams and per-node effective linear systems.

`null_bases` builds orthonormal bases orthogonal to given channel rows, for
a whole stack of row sets at once, with a deterministic phase convention.
`assemble_effective_system` extracts, from an executed run, the exact
matrices mapping (message, noise) symbols to each node's observations;
those matrices drive the decodability oracle and all mutual-information
computations.

A system may also be a stack: matrices with a leading axis, one item per
seed of a batch.  The assembly and the two identifiability oracles have
stacked forms; each single-system function is the one-item case of its
stacked form.  The oracles work block by block: a stack's `blocks` are the
connected components of its exact nonzero pattern, found once per stack,
and each oracle runs one SVD per (block, node, column set) for the whole
stack, with every cutoff taken from the whole matrix.
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


def vector_norms(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """2-norm along `axis`, bit for bit `np.linalg.norm` of each vector
    (which takes `.dot` of the strided real and imaginary views)."""
    return np.sqrt(np.vecdot(a.real, a.real, axis=axis) + np.vecdot(a.imag, a.imag, axis=axis))


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
        symbols; the unmarked kept columns are the nuisance."""
        secret = frozenset(secret)
        known = frozenset(known)
        for sid in secret | known:
            if sid not in self.symbol_index:
                raise UnknownSymbolId(sid)
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
    reference for every rank and seen-column cutoff, so a fully zero-forced
    node (whose own matrix is rounding noise) is not ranked against itself.

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


def identifiability_check(
    system: EffectiveLinearSystem,
    node: str,
    targets: Iterable[str],
    known: Iterable[str] = (),
) -> bool:
    """Generic decodability oracle.

    True iff, once the `known` symbol columns are removed, the target columns
    add exactly |targets| to the rank of the remaining nuisance columns --
    i.e. the node can separate every target from whatever else it observes.
    The one-system case of `identifiability_checks`.
    """
    return bool(identifiability_checks(system.stacked(), node, targets, known)[0])


def identifiability_checks(
    systems: EffectiveLinearSystem,
    node: str,
    targets: Iterable[str],
    known: Iterable[str] = (),
) -> np.ndarray:
    """`identifiability_check` of every system of a stack, as a bool array.

    Each rank is the sum of the ranks of the node's matrix on the stack's
    `blocks`, every one measured against the scale of its whole system:
    two stacked SVDs per block in all."""
    targets = tuple(dict.fromkeys(targets))
    known = frozenset(known)
    if set(targets) & known:
        raise ValueError("targets and known sets overlap")
    index = systems.symbol_index
    for sid in list(targets) + list(known):
        if sid not in index:
            raise UnknownSymbolId(sid)
    mats = systems.matrices[node]
    if not targets:
        return np.ones(len(mats), dtype=bool)
    is_target = np.zeros(len(systems.symbols), dtype=bool)
    is_target[[index[sid] for sid in targets]] = True
    is_nuisance = ~is_target
    is_nuisance[[index[sid] for sid in known]] = False
    scale = _system_scale(systems, node)
    gained = np.zeros(len(mats), dtype=int)
    for rows, cols in systems.blocks:
        block = mats[:, rows[:, None], cols]
        gained += (_ranks(block[..., is_target[cols] | is_nuisance[cols]], scale)
                   - _ranks(block[..., is_nuisance[cols]], scale))
    return gained == len(targets)


def identifiable_symbols(
    system: EffectiveLinearSystem, node: str, candidates: Iterable[str],
    known: Iterable[str] = (),
) -> dict[str, bool]:
    """Per-symbol identifiability for many candidates via one nullspace pass.

    A single column is separable from the rest exactly when it is seen at all
    and no right-null vector of the (known-columns-removed) matrix touches
    it.  Both tests are scale-free, so a global rescaling of the matrices
    leaves every verdict: a column is seen when its norm exceeds RANK_REL_TOL
    times the largest entry of the whole system (not of this node's matrix,
    which at a fully zero-forced node is rounding noise), and the null rows
    are orthonormal.  The one-system case of `identifiable_symbols_stacked`.
    """
    verdicts = identifiable_symbols_stacked(system.stacked(), node, candidates, known)
    return {sid: bool(flags[0]) for sid, flags in verdicts.items()}


def identifiable_symbols_stacked(
    systems: EffectiveLinearSystem, node: str, candidates: Iterable[str],
    known: Iterable[str] = (),
) -> dict[str, np.ndarray]:
    """`identifiable_symbols` of every system of a stack: per candidate, a
    bool array over the systems; one stacked SVD per block of the stack.

    The null rows of a block-diagonal matrix are those of its blocks, so
    each block's null rows are found alone, with the rank cutoff of the
    whole kept matrix: RANK_REL_TOL times its largest singular value, the
    largest over its blocks.  A kept column in no block is unseen."""
    candidates = tuple(candidates)
    kept, _ = systems.split_columns(candidates, known)
    is_kept = np.zeros(len(systems.symbols), dtype=bool)
    is_kept[kept] = True
    index = systems.symbol_index
    for sid in candidates:
        if not is_kept[index[sid]]:     # a candidate the node already knows
            raise UnknownSymbolId(sid)
    mats = systems.matrices[node]
    scale = _system_scale(systems, node)
    factors = []
    for rows, cols in systems.blocks:
        cols = cols[is_kept[cols]]
        if len(cols):
            sv, vh = np.linalg.svd(mats[:, rows[:, None], cols], full_matrices=True)[1:]
            factors.append((cols, sv, vh))
    cutoff = RANK_REL_TOL * np.max([sv[:, 0] for _, sv, _ in factors], axis=0,
                                   initial=0.0)
    # a column is touched when the null rows (rows of vh past the rank) have
    # weight on it; systems are grouped by rank, so every norm runs over
    # exactly the null rows of its own system
    touched = np.zeros((len(mats), len(systems.symbols)), dtype=bool)
    for cols, sv, vh in factors:
        rank = np.sum(sv > cutoff[:, None], axis=-1)
        for r in set(rank.tolist()):      # (np.unique would import numpy.ma)
            if r < len(cols):
                group = rank == r
                null = vh[:, r:] if group.all() else vh[group, r:]
                touched[np.ix_(group, cols)] = vector_norms(null, axis=-2) > 1e-6
    seen = vector_norms(mats, axis=-2) > (RANK_REL_TOL * scale)[:, None]
    identifiable = seen & ~touched
    return {sid: identifiable[:, index[sid]] for sid in candidates}
