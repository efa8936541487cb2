"""Zero-forcing beamformers and per-node effective linear systems.

`null_basis`/`null_vector` build unit-norm beams orthogonal to given channel
rows with a deterministic phase convention.  `assemble_effective_system`
extracts, from an executed transmission trace, the exact matrices mapping
(message, noise) symbols to each node's observations; those matrices drive
the decodability oracle and all mutual-information computations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import IncompleteTrace, OverConstrained, UnknownSymbolId

DEGENERATE_ROW_TOL = 1e-12
RANK_REL_TOL = 1e-8


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm beam with the channel rows it annihilates."""

    vector: np.ndarray
    constraints: tuple
    degenerate: bool = False

    def __post_init__(self):
        self.vector.setflags(write=False)


def canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the first component of largest magnitude is real nonnegative."""
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    if abs(pivot) == 0:
        return vec
    return vec * (np.conj(pivot) / abs(pivot))


def null_basis(rows: Sequence[np.ndarray], dim: int) -> tuple[np.ndarray, bool]:
    """Orthonormal basis (columns) of the joint nullspace of `rows` in C^dim.

    Returns (basis, degenerate_flag); the flag is set when the rows are
    numerically rank deficient, which the channel sampler excludes but fuzz
    inputs may produce.  Requires len(rows) < dim.
    """
    rows = [np.asarray(r, dtype=complex) for r in rows]
    r = len(rows)
    if r >= dim:
        raise OverConstrained(f"{r} constraint rows leave no nullspace in dim {dim}")
    if r == 0:
        return np.eye(dim, dtype=complex), False
    mat = np.vstack(rows)
    if mat.shape[1] != dim:
        raise ValueError("constraint rows have wrong length")
    _, sv, vh = np.linalg.svd(mat)
    degenerate = bool(sv[-1] <= DEGENERATE_ROW_TOL * sv[0])
    basis = vh[r:].conj().T
    cols = [canonical_phase(basis[:, k]) for k in range(basis.shape[1])]
    return np.stack(cols, axis=1), degenerate


def null_vector(rows: Sequence[np.ndarray], dim: int) -> Beamformer:
    """Single unit beam orthogonal to all `rows`, canonical phase."""
    basis, degenerate = null_basis(rows, dim)
    return Beamformer(
        vector=basis[:, 0].copy(),
        constraints=tuple(np.asarray(r, dtype=complex).copy() for r in rows),
        degenerate=degenerate,
    )


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

    Rows are normalized so the physical observation is sqrt(P) * row @ symbols
    plus unit-variance noise; the sqrt(P) factor is applied by the analysis
    layer, which lets one assembled system serve a whole power grid.
    """

    symbols: tuple[SymbolDecl, ...]
    matrices: Mapping[str, np.ndarray]     # node -> (n_obs, n_symbols)
    slot_of_row: tuple[int, ...]

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {decl.sid: i for i, decl in enumerate(self.symbols)}

    @property
    def n_obs(self) -> int:
        return len(self.slot_of_row)

    def split_columns(self, node: str, secret: Iterable[str],
                      known: Iterable[str] = ()) -> tuple[list[int], np.ndarray]:
        """Columns of `node`'s matrix that remain once the `known` symbols are
        removed, in symbol order, and a mask over them marking the `secret`
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
        def encode(mat):
            return [[[float(c.real), float(c.imag)] for c in row] for row in mat]

        payload = {
            "symbols": [{"sid": d.sid, "owner": d.owner} for d in self.symbols],
            "slot_of_row": list(self.slot_of_row),
            "matrices": {node: encode(mat) for node, mat in self.matrices.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def assemble_effective_system(trace) -> EffectiveLinearSystem:
    """Exact symbol-to-observation matrices for every node of a trace.

    Validates that re-simulating the recorded observations from the matrices
    and the drawn symbol values reproduces the trace.  The comparison is on
    the power-free scale, where the rounding of slot t's observation is
    bounded by |h_t| |s| (the slot's transmit matrix has unit norm), plus
    |n_t| / sqrt(P) for the removed noise, so the 1e-10 relative bound holds
    at every power, zero-forced nodes included.
    """
    n_slots = len(trace.slots)
    if n_slots != len(trace.spec.slot_plans):
        raise IncompleteTrace(
            f"trace has {n_slots} of {len(trace.spec.slot_plans)} slots"
        )
    matrices = {node: rows.copy() for node, rows in trace.obs_rows.items()}
    s = trace.symbol_values
    s_norm = np.linalg.norm(s)
    for node, mat in matrices.items():
        observed = trace.obs_vals[node]
        chan = trace.realization.rows(node)[:n_slots]
        scale = s_norm * np.linalg.norm(chan, axis=1)
        if trace.noise_vals is not None:
            observed = observed - trace.noise_vals[node]
            scale = scale + np.abs(trace.noise_vals[node]) / trace.sqrt_power
        residual = np.abs(mat @ s - observed / trace.sqrt_power)
        if np.any(residual > 1e-10 * scale):
            raise AssertionError("effective system does not reproduce the trace")
        mat.setflags(write=False)
    return EffectiveLinearSystem(
        symbols=trace.symbols,
        matrices=matrices,
        slot_of_row=tuple(range(len(trace.slots))),
    )


def _system_scale(system: EffectiveLinearSystem) -> float:
    """Largest entry of any node's matrix: the reference for every rank and
    seen-column cutoff, so a fully zero-forced node (whose own matrix is
    rounding noise) is not ranked against itself."""
    return max(np.abs(m).max(initial=0.0) for m in system.matrices.values())


def _rank(mat: np.ndarray, scale: float) -> int:
    """Numerical rank: singular values above RANK_REL_TOL * scale."""
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > RANK_REL_TOL * scale))


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
    """
    targets = tuple(dict.fromkeys(targets))
    known = frozenset(known)
    if set(targets) & known:
        raise ValueError("targets and known sets overlap")
    index = system.symbol_index
    for sid in list(targets) + list(known):
        if sid not in index:
            raise UnknownSymbolId(sid)
    if not targets:
        return True
    mat = system.matrices[node]
    target_cols = [index[sid] for sid in targets]
    nuis_cols = [
        i for d, i in ((d, index[d.sid]) for d in system.symbols)
        if d.sid not in known and i not in target_cols
    ]
    nuis = mat[:, nuis_cols]
    joint = np.hstack([mat[:, target_cols], nuis])
    scale = _system_scale(system)
    return _rank(joint, scale) - _rank(nuis, scale) == len(targets)


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
    are orthonormal.
    """
    candidates = tuple(candidates)
    kept, is_candidate = system.split_columns(node, candidates, known)
    mat = system.matrices[node][:, kept]
    if mat.size == 0:
        return {sid: False for sid in candidates}
    _, sv, vh = np.linalg.svd(mat, full_matrices=True)
    cutoff = RANK_REL_TOL * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff)) if sv.size else 0
    null_rows = vh[rank:].conj().T      # (n_cols, null_dim)
    seen_cutoff = RANK_REL_TOL * _system_scale(system)
    verdict: dict[str, bool] = {}
    for j in np.flatnonzero(is_candidate):
        seen = np.linalg.norm(mat[:, j]) > seen_cutoff
        touched = null_rows.shape[1] > 0 and np.linalg.norm(null_rows[j]) > 1e-6
        verdict[system.symbols[kept[j]].sid] = bool(seen and not touched)
    for sid in candidates:
        if sid not in verdict:      # a candidate the node already knows
            raise UnknownSymbolId(sid)
    return {sid: verdict[sid] for sid in candidates}
