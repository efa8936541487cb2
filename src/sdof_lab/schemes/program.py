"""Slot programs and their executor.

A transmission scheme is a sequence of SlotPlans.  Each slot transmits a set
of streams; a stream is a payload expression riding a beam rule.  Payloads
are either fresh symbols or quantities the transmitter reconstructs from past
observations (retransmitted side information); beams are fixed axes or
nullspace beams against named channel rows.

The executor enforces CSIT legality: a beam may reference the current slot's
channel of a node only if that node's entry in the slot state is P, and
reconstructed observations must be strictly in the past.  Violations raise
CsitViolation and always indicate a scheme-library bug (or a deliberately
mutated plan in tests).

Execution keeps two synchronized views of every quantity: the numeric value
and its exact coefficient row over the drawn symbols.  The rows are the
substrate for the effective linear systems used by decoding checks and
closed-form mutual information.

A spec is compiled once, on first use: the legality checks and everything
else no seed changes are resolved then.  `execute_batch` executes the
compiled program for many seeds at once on stacked arrays, giving each seed
exactly the bits of its own run, and returns a `TraceBatch`, the one record
of a run: one stacked array per field, for the symbols, channels,
observations, stream beams and gains, and transmitted vectors, with a node
axis in the per-node fields.  `run_scheme` runs one seed, and its record is
a batch of one seed.  Batches of one scheme concatenate, one
`np.concatenate` per field, and `views()` gives each seed's
`ReceiverView`, which the hand decoders read.  `run_seed_batches` samples
the channels and runs memory-bounded batches (`seed_chunks`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .. import rng
from ..errors import (
    BadParams,
    CsitViolation,
    OverConstrained,
    RealizationTooShort,
    UnknownSymbolId,
)
from ..model import (
    ChannelRealization,
    CsitState,
    PowerBudget,
    StateLabel,
    Topology,
    sample_channels,
)
from ..precoding import SymbolDecl, null_bases
from ..precoding import vector_norms as _norms


# -- payload / beam recipe language --------------------------------------------

class Sym(NamedTuple):
    """A fresh message or artificial-noise symbol."""
    sid: str


class ObsPart(NamedTuple):
    """A past observation of `node` at absolute slot `slot`.

    With `streams` set, only those streams' terms are kept (the
    transmitter reconstructs the partial combination from past CSI and the
    symbols it drew itself).  None keeps the whole noiseless observation.
    """
    node: str
    slot: int
    streams: tuple[str, ...] | None = None


class Comb(NamedTuple):
    """Fixed linear combination of payload expressions."""
    terms: tuple[tuple[complex, "Payload"], ...]


Payload = Union[Sym, ObsPart, Comb]


class Axis(NamedTuple):
    """Transmit on one antenna."""
    index: int


class NullOf(NamedTuple):
    """Unit beam from the joint nullspace of the referenced channel rows.

    refs are (node, absolute_slot) pairs; basis_index selects a column when
    the nullspace has dimension greater than one.
    """
    refs: tuple[tuple[str, int], ...]
    basis_index: int = 0


Beam = Union[Axis, NullOf]


class StreamRecipe(NamedTuple):
    label: str
    payload: Payload
    beam: Beam


@dataclass(frozen=True)
class SlotPlan:
    state: StateLabel
    streams: tuple[StreamRecipe, ...]


@dataclass(frozen=True)
class SchemeSpec:
    """A transmission protocol as data: slots, symbols and secrecy roles."""

    scheme_id: str
    topology: Topology
    slot_plans: tuple[SlotPlan, ...]
    symbols: tuple[SymbolDecl, ...]
    protected: Mapping[str, frozenset]        # adversary node -> protected sids
    adversary_known: Mapping[str, frozenset]  # adversary node -> a-priori known sids
    layout: Mapping = field(default_factory=dict)   # decoder metadata

    @property
    def n_slots(self) -> int:
        return len(self.slot_plans)

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {d.sid: i for i, d in enumerate(self.symbols)}

    @cached_property
    def compiled(self) -> "_Program":
        """The checked, seed-independent form the executor runs, made on first
        use (a copy made with `with_slot_state` compiles, and checks, anew)."""
        return compile_spec(self)

    def message_sids(self, node: str) -> tuple[str, ...]:
        return tuple(d.sid for d in self.symbols if d.owner in (node, "both"))

    def state_fractions(self) -> dict[StateLabel, Fraction]:
        counts: dict[StateLabel, int] = {}
        for plan in self.slot_plans:
            counts[plan.state] = counts.get(plan.state, 0) + 1
        n = self.n_slots
        return {label: Fraction(c, n) for label, c in counts.items()}

    def with_slot_state(self, slot: int, state: StateLabel) -> "SchemeSpec":
        """Copy with one slot's state label replaced (used by legality tests)."""
        plans = list(self.slot_plans)
        plans[slot] = SlotPlan(state=state, streams=plans[slot].streams)
        return replace(self, slot_plans=tuple(plans))


# -- executed run ---------------------------------------------------------------

class ReceiverView(NamedTuple):
    """One seed's run as a hand decoder reads it: the observations, every
    stream's coefficient at every node, and the drawn symbols, as Python
    scalars.  The decoders' arithmetic stays in Python complex numbers: numpy
    complex multiply, divide and abs differ from CPython's in the last bits on
    35-44% of random operands, and the residuals are reported to 17
    digits."""

    spec: SchemeSpec
    seed: int
    sqrt_power: float
    observations: Mapping[str, list]    # node -> per slot, sqrt(P)-scaled (+noise)
    coefficients: Mapping[str, list]    # node -> per stream column, payload scale
    symbol_values: list

    def rv(self, node: str, t: int) -> complex:
        """Observation at the payload scale (divided by sqrt(P)).

        At this scale a retransmitted past observation enters later equations
        with exactly the value `rv` reports for it, so decoders can mix fresh
        symbols and reconstructed side information without power bookkeeping.
        """
        return self.observations[node][t] / self.sqrt_power

    def rc(self, node: str, t: int, label: str) -> complex:
        """Payload-scale coefficient of one stream in node's slot-t observation.

        Everything in it (CSI, beams, gains) is receiver computable, so
        decoders may use it freely.
        """
        column = self.spec.compiled.columns.get((t, label))
        if column is None:
            raise KeyError(f"slot {t} has no stream {label!r}")
        return self.coefficients[node][column]

    def true_value(self, sid: str) -> complex:
        index = self.spec.symbol_index
        if sid not in index:
            raise UnknownSymbolId(sid)
        return self.symbol_values[index[sid]]


def _coefficients(chan: np.ndarray, beams: np.ndarray, gains: np.ndarray,
                  column_slots: np.ndarray) -> np.ndarray:
    """(seed, node, column) payload-scale coefficients gain * (h_t @ beam)
    of every stream column, from (seed, node, slot, antenna) channels,
    (column, seed, antenna) beams and (column, seed) gains; each entry has
    the bits of the lone product."""
    h = chan[:, :, column_slots, None, :]                   # (seed, node, column, 1, antenna)
    b = beams.transpose(1, 0, 2)[:, None, :, :, None]
    return gains.T[:, None, :] * (h @ b)[..., 0, 0]


# The per-seed fields of a TraceBatch and the axis of their arrays that runs
# over the seeds.
_SEED_AXES = {"symbol_values": 0, "channels": 0, "obs_rows": 1, "obs_vals": 0,
              "noise_vals": 0, "beams": 1, "gains": 1, "x_value": 0}


class TraceBatch(NamedTuple):
    """The record of an executed scheme: one array per field, seeds stacked
    in order, nodes in `spec.topology.nodes()` order, stream columns
    numbered as `spec.compiled.columns`.  Each node's observation rows are
    one contiguous block (node axis first), the matrices the effective
    systems view.  `run_scheme` records a batch of one seed."""

    spec: SchemeSpec
    seeds: tuple[int, ...]
    power: PowerBudget
    mode: str
    symbol_values: np.ndarray                   # (seed, symbol)
    channels: np.ndarray                        # (seed, node, slot, antenna)
    obs_rows: np.ndarray                        # (node, seed, slot, symbol), power-free
    obs_vals: np.ndarray                        # (seed, node, slot), sqrt(P)-scaled (+noise)
    noise_vals: np.ndarray | None               # (seed, node, slot)
    beams: np.ndarray                           # (stream column, seed, antenna)
    gains: np.ndarray                           # (stream column, seed), post normalization
    x_value: np.ndarray                         # (seed, slot, antenna), power-normalized

    @property
    def sqrt_power(self) -> float:
        return float(np.sqrt(self.power.total_power))

    def views(self) -> Iterator[ReceiverView]:
        """Each seed's `ReceiverView`, in seed order."""
        nodes = self.spec.topology.nodes()
        coefficients = _coefficients(self.channels, self.beams, self.gains,
                                     self.spec.compiled.column_slots)
        for seed, symbols, obs, coefs in zip(self.seeds, self.symbol_values.tolist(),
                                             self.obs_vals.tolist(), coefficients.tolist()):
            yield ReceiverView(self.spec, seed, self.sqrt_power, dict(zip(nodes, obs)),
                               dict(zip(nodes, coefs)), symbols)

    @classmethod
    def concatenate(cls, batches: Iterable["TraceBatch"]) -> "TraceBatch":
        """The batch of every seed of `batches`, in order, which must share
        their spec, power and mode; a lone batch is returned as it is."""
        batches = list(batches)
        first = batches[0]
        for batch in batches[1:]:
            if (batch.spec, batch.power, batch.mode) != (first.spec, first.power, first.mode):
                raise ValueError("only runs of one spec, power and mode concatenate")
        if len(batches) == 1:
            return first
        return first._replace(
            seeds=tuple(seed for batch in batches for seed in batch.seeds),
            **{name: None if getattr(first, name) is None else
               np.concatenate([getattr(batch, name) for batch in batches], axis)
               for name, axis in _SEED_AXES.items()})

    def to_json(self) -> str:
        """A one-seed run as JSON: every slot's transmitted vector and every
        node's observations."""
        if len(self.seeds) != 1:
            raise ValueError(f"to_json writes a one-seed run, not {len(self.seeds)} seeds")

        def cplx(z):
            return [float(np.real(z)), float(np.imag(z))]

        payload = {
            "scheme": self.spec.scheme_id,
            "seed": self.seeds[0],
            "mode": self.mode,
            "power": self.power.total_power,
            "slots": [
                {
                    "state": str(slot.state),
                    "streams": list(slot.labels),
                    "x": [cplx(v) for v in self.sqrt_power * x_value],
                }
                for slot, x_value in zip(self.spec.compiled.slots, self.x_value[0])
            ],
            "observations": {
                node: [cplx(v) for v in vals] for node, vals in
                zip(self.spec.topology.nodes(), self.obs_vals[0])
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


# -- legality -------------------------------------------------------------------

def _check_chan_ref(node: str, ref_slot: int, t: int, plan: SlotPlan,
                    node_order: Sequence[str]) -> None:
    if ref_slot > t:
        raise CsitViolation(
            f"slot {t}: beam references future channel of {node} at slot {ref_slot}"
        )
    if ref_slot == t:
        pos = node_order.index(node)
        if plan.state.states[pos] is not CsitState.P:
            raise CsitViolation(
                f"slot {t}: state {plan.state} grants no current CSI for {node}"
            )


def _check_payload(payload: Payload, t: int) -> None:
    if isinstance(payload, Sym):
        return
    if isinstance(payload, ObsPart):
        if payload.slot >= t:
            raise CsitViolation(
                f"slot {t}: payload reconstructs observation from slot "
                f"{payload.slot}, which is not in the past"
            )
        return
    if isinstance(payload, Comb):
        for _, sub in payload.terms:
            _check_payload(sub, t)
        return
    raise TypeError(f"unknown payload {payload!r}")


# -- compiled program -----------------------------------------------------------
#
# Everything about a slot program that no seed changes is resolved once per
# spec: the legality checks, symbol columns, fixed axes and fixed payload
# combinations, and which earlier streams each retransmitted observation
# reads.  The executor then only does arithmetic, on every seed of a batch
# and every stream of a slot at once.

class _Obs(NamedTuple):
    """ObsPart: node position, absolute slot, the kept streams' positions
    in that slot."""
    node: int
    slot: int
    picks: slice | np.ndarray


class _Mix(NamedTuple):
    """Comb with at least one channel-dependent term; a fixed term is a row."""
    terms: tuple[tuple[complex, "np.ndarray | _Obs | _Mix"], ...]


class _Nulls(NamedTuple):
    """Every slot's distinct NullOf keys with the same number of channel
    refs.  A nullspace depends on the channel alone, so all are found in one
    stacked pass before any slot runs."""
    nodes: np.ndarray           # (key, ref) node positions
    slots: np.ndarray           # (key, ref) absolute slots
    used_at: np.ndarray         # (key,) the slot whose beams use it


class _Slot(NamedTuple):
    state: StateLabel
    labels: tuple[str, ...]
    fixed: tuple[tuple[int, np.ndarray], ...]       # (stream, antenna axis)
    steered: tuple[tuple[int, int, int, int], ...]  # (stream, ref count, key, column)
    fresh: tuple[tuple[int, int], ...]              # (stream, symbol column)
    combined: tuple[tuple[int, np.ndarray], ...]    # (stream, fixed payload row)
    mixed: tuple[tuple[int, _Obs | _Mix], ...]      # (stream, channel-dependent payload)


class _Program(NamedTuple):
    nulls: dict[int, _Nulls]    # by ref count
    slots: tuple[_Slot, ...]
    columns: dict[tuple[int, str], int]     # (slot, label) -> stream column
    column_slots: np.ndarray                # (column,) the slot of each stream column


def _indices(items) -> np.ndarray:
    return np.array(list(items), dtype=np.intp)


def compile_spec(spec: SchemeSpec) -> _Program:
    """Check a slot program's CSIT legality and resolve its seed-independent
    parts; raises what executing the spec would raise."""
    nodes = spec.topology.nodes()
    n_tx = spec.topology.n_tx
    n_sym = len(spec.symbols)
    sindex = spec.symbol_index
    axes = np.eye(n_tx, dtype=complex)
    axes.setflags(write=False)
    positions: list[dict[str, int]] = []    # per slot: label -> stream position
    keys: dict[tuple, int] = {}             # (slot, refs) -> position in its group
    groups: dict[int, list] = {}            # ref count -> [(slot, refs), ...]

    def one_hot(column: int) -> np.ndarray:
        row = np.zeros(n_sym, dtype=complex)
        row[column] = 1.0
        return row

    def compile_row(payload: Payload) -> int | np.ndarray | _Obs | _Mix:
        """A symbol column, a fixed row, or a channel-dependent recipe."""
        if isinstance(payload, Sym):
            if payload.sid not in sindex:
                raise UnknownSymbolId(payload.sid)
            return sindex[payload.sid]
        if isinstance(payload, ObsPart):
            if payload.node not in nodes:
                raise KeyError(f"unknown node {payload.node!r}")
            labels = positions[payload.slot]
            picks = [labels[label] for label in
                     (labels if payload.streams is None else payload.streams)]
            if picks and picks == list(range(picks[0], picks[-1] + 1)):
                picks = slice(picks[0], picks[-1] + 1)     # a view, not a copy
            return _Obs(nodes.index(payload.node), payload.slot,
                        picks if isinstance(picks, slice) else _indices(picks))
        if isinstance(payload, Comb):
            terms = []
            for coef, sub in payload.terms:
                sub = compile_row(sub)
                terms.append((coef, one_hot(sub) if isinstance(sub, int) else sub))
            if not all(isinstance(sub, np.ndarray) for _, sub in terms):
                return _Mix(tuple(terms))
            row = np.zeros(n_sym, dtype=complex)
            for coef, sub in terms:
                row += coef * sub
            return row
        raise TypeError(f"unknown payload {payload!r}")

    slots = []
    for t, plan in enumerate(spec.slot_plans):
        if plan.state.arity != len(nodes):
            raise BadParams(
                f"slot {t}: state arity {plan.state.arity} mismatches topology"
            )
        labels: dict[str, int] = {}
        fixed, steered, fresh, combined, mixed = [], [], [], [], []
        for pos, recipe in enumerate(plan.streams):
            if recipe.label in labels:
                raise BadParams(f"slot {t}: repeated stream label {recipe.label!r}")
            _check_payload(recipe.payload, t)
            beam = recipe.beam
            if isinstance(beam, Axis):
                fixed.append((pos, axes[beam.index]))
            elif isinstance(beam, NullOf):
                for node, ref_slot in beam.refs:
                    _check_chan_ref(node, ref_slot, t, plan, nodes)
                if len(beam.refs) >= n_tx:
                    raise OverConstrained(
                        f"{len(beam.refs)} constraint rows leave no nullspace in dim {n_tx}")
                if beam.basis_index >= n_tx - len(beam.refs):
                    raise BadParams(
                        f"slot {t}: beam basis index {beam.basis_index} out of range"
                    )
                group = groups.setdefault(len(beam.refs), [])
                if (t, beam.refs) not in keys:
                    keys[t, beam.refs] = len(group)
                    group.append((t, beam.refs))
                steered.append((pos, len(beam.refs), keys[t, beam.refs], beam.basis_index))
            else:
                raise TypeError(f"unknown beam {beam!r}")
            row = compile_row(recipe.payload)
            if isinstance(row, int):
                fresh.append((pos, row))
            elif isinstance(row, np.ndarray):
                combined.append((pos, row))
            else:
                mixed.append((pos, row))
            labels[recipe.label] = pos
        positions.append(labels)
        slots.append(_Slot(
            state=plan.state,
            labels=tuple(labels),
            fixed=tuple(fixed),
            steered=tuple(steered),
            fresh=tuple(fresh),
            combined=tuple(combined),
            mixed=tuple(mixed),
        ))

    columns = {(t, label): column for column, (t, label) in enumerate(
        (t, label) for t, labels in enumerate(positions) for label in labels)}
    return _Program(
        columns=columns,
        column_slots=_indices(t for t, _ in columns),
        nulls={
            r: _Nulls(_indices([nodes.index(node) for node, _ in refs] for _, refs in keyed)
                      .reshape(len(keyed), r),
                      _indices([ref for _, ref in refs] for _, refs in keyed)
                      .reshape(len(keyed), r),
                      _indices(t for t, _ in keyed))
            for r, keyed in groups.items()},
        slots=tuple(slots),
    )


# -- executor -------------------------------------------------------------------

# Seeds per stacked pass are capped so a batch holds about this many
# (seed, slot, symbol) cells: the composites' large matrices then take a
# few seeds at a time, the small schemes all of them.
BATCH_CELLS = 1 << 15


class _Sent(NamedTuple):
    """One executed slot, stacked (stream, seed, ...)."""
    beams: np.ndarray
    gains: np.ndarray           # after the slot's power normalization
    rows: np.ndarray


def _retransmitted_row(payload: _Obs | _Mix, chan: np.ndarray,
                       sent: Sequence[_Sent]) -> np.ndarray:
    """A channel-dependent payload row per seed: the sum over the picked
    streams of ch @ (gain * outer(beam, row)), in stream order."""
    total = np.zeros(sent[0].rows.shape[1:], dtype=complex)
    if isinstance(payload, _Mix):
        for coef, sub in payload.terms:
            total += coef * (sub if isinstance(sub, np.ndarray)
                             else _retransmitted_row(sub, chan, sent))
        return total
    beams, gains, rows = (arr[payload.picks] for arr in sent[payload.slot])
    ch = chan[:, payload.node, payload.slot, None, :]
    for term in ch @ (gains[:, :, None, None] * (beams[:, :, :, None] * rows[:, :, None, :])):
        total += term[:, 0]
    return total


def execute_batch(
    spec: SchemeSpec,
    realizations: Sequence[ChannelRealization],
    power: PowerBudget,
    mode: str,
    seeds: Sequence[int],
) -> TraceBatch:
    """Execute a scheme for several seeds at once.

    Per slot: resolve beams against the CSI the slot state allows, evaluate
    payloads from strictly legal information sets, normalize the slot to the
    exact power budget, and record every node's observation both numerically
    and as an exact coefficient row over the drawn symbols.  A slot's
    streams and the seeds run as stacked arrays; each stacked operation
    gives every (stream, seed) the bits its own run would, sums keep the
    stream order, and every numeric check, slot power included, runs for
    every seed.  The batch keeps the symbols, channels, observations, beams,
    gains and transmitted vectors; payload rows and transmit matrices die
    with the run.
    """
    if mode not in ("noiseless", "noisy"):
        raise BadParams(f"unknown mode {mode!r}")
    for realization in realizations:
        if realization.n_slots < spec.n_slots:
            raise RealizationTooShort(
                f"realization has {realization.n_slots} slots, scheme needs {spec.n_slots}"
            )
        if realization.topology != spec.topology:
            raise BadParams("realization topology does not match the scheme")
    program = spec.compiled
    nodes = spec.topology.nodes()
    n_seeds, n_slots, n_sym = len(seeds), spec.n_slots, len(spec.symbols)
    n_tx = spec.topology.n_tx

    # (seed, node, slot, antenna)
    chan = np.array([[r.rows(node)[:n_slots] for node in nodes] for r in realizations])
    s = rng.complex_normals(seeds, [("symbols",)], n_sym)[:, 0]

    bases = {}
    for r, nulls in program.nulls.items():
        mats = chan[:, nulls.nodes, nulls.slots]        # (seed, key, ref, antenna)
        basis, _ = null_bases(mats)
        limit = 1e-10 * np.sqrt(np.vecdot(mats, mats).real)
        for bad, what in (
            (np.abs(mats @ basis) > limit[..., None], "beam residual above tolerance"),
            (np.abs(np.sqrt(np.vecdot(basis, basis, axis=-2).real) - 1.0) > 1e-10,
             "beam is not unit norm"),
        ):
            if bad.any():
                seed_at, key = np.argwhere(bad)[0][:2]
                raise AssertionError(
                    f"seed {seeds[seed_at]}, slot {nulls.used_at[key]}: {what}")
        bases[r] = basis

    def failing_seed(bad: np.ndarray) -> int:
        return seeds[int(np.flatnonzero(bad)[0])]

    # Per-slot payload rows and transmit matrices (the whole-run beams, gains
    # and x_value are tens of KB), not whole-program stacks: freeing a few
    # blocks of several MB together at the end of a run made the allocator
    # return them to the system and fault them in again on the next run
    # (measured at --blocks 40: ~3500 page faults per seed).
    sent: list[_Sent] = []
    all_beams = np.empty((len(program.column_slots), n_seeds, n_tx), dtype=complex)
    all_gains = np.empty(all_beams.shape[:2])
    x_values = np.zeros((n_seeds, n_slots, n_tx), dtype=complex)
    obs_rows = np.empty((len(nodes), n_seeds, n_slots, n_sym), dtype=complex)
    start = 0       # the slot's first stream column
    for t, slot in enumerate(program.slots):
        k = len(slot.labels)
        beams = all_beams[start:start + k]
        rows = np.zeros((k, n_seeds, n_sym), dtype=complex)
        for pos, axis in slot.fixed:
            beams[pos] = axis
        for pos, r, key, column in slot.steered:
            beams[pos] = bases[r][:, key, :, column]
        for pos, column in slot.fresh:
            rows[pos, :, column] = 1.0
        for pos, row in slot.combined:
            rows[pos] = row
        for pos, payload in slot.mixed:
            rows[pos] = _retransmitted_row(payload, chan, sent)
        norms = _norms(rows)
        if not norms.all():
            pos = int(np.flatnonzero((norms == 0).any(axis=1))[0])
            raise BadParams(f"seed {failing_seed(norms[pos] == 0)}, slot {t}: "
                            f"stream {slot.labels[pos]!r} payload is zero")
        gains = np.sqrt(1.0 / k) / norms if k else norms
        values = (rows[:, :, None, :] @ s[None, :, :, None])[..., 0, 0]
        x = np.zeros((n_seeds, n_tx, n_sym), dtype=complex)
        for term in gains[:, :, None, None] * (beams[:, :, :, None] * rows[:, :, None, :]):
            x += term
        fro = _norms(x.reshape(n_seeds, -1))
        if not fro.all():
            raise BadParams(f"seed {failing_seed(fro == 0)}, slot {t}: empty transmission")
        # Correlated payloads make nominal shares sum away from one; rescale
        # the whole slot so the expected power is exactly the budget.
        x /= fro[:, None, None]
        flat = x.reshape(n_seeds, -1)
        over = power.total_power * np.vecdot(flat, flat).real > power.total_power * (1 + 1e-9)
        if over.any():
            raise AssertionError(f"seed {failing_seed(over)}, slot {t}: "
                                 "transmit power above the budget")
        gains = np.divide(gains, fro, out=all_gains[start:start + k])
        start += k
        x_value = x_values[:, t]
        for term in (gains * values)[:, :, None] * beams:
            x_value += term
        sent.append(_Sent(beams, gains, rows))
        # every node's observation rows from one product, each (seed, node)
        # entry a lone row-times-matrix product
        obs_rows[:, :, t] = (chan[:, :, t, None, :] @ x[:, None])[:, :, 0].swapaxes(0, 1)

    # every (seed, node, slot) clean observation h_t @ x_value_t at once,
    # each a lone row-times-column product
    obs_clean = (chan[:, :, :, None, :] @ x_values[:, None, :, :, None])[..., 0, 0]
    obs_vals = np.sqrt(power.total_power) * obs_clean
    noise = None
    if mode == "noisy":
        noise = rng.complex_normals(seeds, [("noise", node) for node in nodes], n_slots)
        obs_vals = obs_vals + noise

    return TraceBatch(
        spec=spec,
        seeds=tuple(int(seed) for seed in seeds),
        power=power,
        mode=mode,
        symbol_values=s,
        channels=chan,
        obs_rows=obs_rows,
        obs_vals=obs_vals,
        noise_vals=noise,
        beams=all_beams,
        gains=all_gains,
        x_value=x_values,
    )


def run_scheme(
    spec: SchemeSpec,
    realization: ChannelRealization,
    power: PowerBudget,
    mode: str = "noiseless",
    seed: int = 0,
) -> TraceBatch:
    """Execute a scheme slot by slot over one channel realization: the batch
    of one seed of `execute_batch`."""
    return execute_batch(spec, [realization], power, mode, [seed])


def seed_chunks(spec: SchemeSpec, seeds: Sequence[int]) -> Iterator[Sequence[int]]:
    """The seeds in consecutive chunks, in seed order, each as large as a
    stacked pass may be: at most `BATCH_CELLS` (seed, slot, symbol) cells,
    and at least one seed."""
    step = max(1, BATCH_CELLS // max(1, spec.n_slots * len(spec.symbols)))
    for start in range(0, len(seeds), step):
        yield seeds[start:start + step]


def run_seed_batches(
    spec: SchemeSpec,
    seeds: Sequence[int],
    power: PowerBudget,
    mode: str = "noiseless",
) -> Iterator[TraceBatch]:
    """Sample and execute the seeds in stacked batches of bounded size
    (`seed_chunks`), in seed order."""
    for batch in seed_chunks(spec, seeds):
        realizations = sample_channels(spec.topology, spec.n_slots, batch)
        yield execute_batch(spec, realizations, power, mode, batch)
