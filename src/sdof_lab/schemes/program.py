"""Slot programs and their executor.

A transmission scheme is a sequence of SlotPlans.  Each slot transmits a set
of streams; a stream is a payload expression riding a beam rule.  Payloads
are either fresh symbols or quantities the transmitter reconstructs from past
observations (retransmitted side information); beams are fixed axes or
nullspace beams against named channel rows.

The executor enforces CSIT legality: a beam in slot t may reference the
channels of slots 0..t, the current slot's channel of a node only if that
node's entry in the slot state is P, and reconstructed observations must
come from slots 0..t-1.  Violations raise CsitViolation and always indicate
a scheme-library bug (or a deliberately mutated plan in tests).  An antenna
outside the transmitter's, a node outside the topology, or a stream label
that the referenced slot never sent raises BadParams, and so does a
combination coefficient that is not a finite number; every one of these
errors names the slot that holds the bad reference.

Execution keeps two synchronized views of every quantity: the numeric value
and its exact coefficient row over the drawn symbols.  The rows are the
substrate for the effective linear systems used by decoding checks and
closed-form mutual information.

A spec is compiled once, on first use, in one walk over its streams that
checks each recipe and resolves everything about it that no seed changes.
`execute_batch` executes the compiled program for many seeds at once on
stacked arrays, over the seeds' (seed, node, slot, antenna) channel draw
from `model.sample_channels`, giving each seed exactly the bits of its own
run.  It returns a
`TraceBatch`, the one record of a run: one stacked array per field, for the
symbols, channels (the draw itself), observations, stream beams and gains,
and transmitted vectors, with a node axis in the per-node fields.
`run_scheme` runs one seed on its (node, slot, antenna) draw, and its
record is a batch of one seed.  Batches of one scheme concatenate, one
`np.concatenate` per field, and `views()` gives each seed's
`ReceiverView`, which the hand decoders read.  `run_seed_batches` samples
the channels and runs memory-bounded batches (`seed_chunks`).
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

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
    EVE,
    CsitState,
    PowerBudget,
    StateLabel,
    Topology,
    complex_to_json,
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
    """A transmission protocol as data: its slots and symbols.

    The roles follow from the symbols' owners.  The `receivers` are the
    nodes other than the eavesdropper that are sent messages; they are
    decoded and scored.  Each of the topology's adversaries
    (`Topology.adversaries`: the eavesdropper, or in the two-user broadcast
    channel each receiver) must not resolve any non-noise symbol it does not
    own (`protected`), and knows the symbols it owns (`adversary_known`).
    `secure` False marks a block with no secrecy by design, which protects
    nothing.  A composite names the unicast sub-protocol it plugs in
    (`sub`).  `decode` is the hand decoder, given by the builder that
    defines the slot labels it reads: it maps a seed's `ReceiverView` to
    {receiver: {sid: value}}.  It is left out of equality, which compares
    slots and symbols; a spec without one recovers nothing.
    """

    scheme_id: str
    topology: Topology
    slot_plans: tuple[SlotPlan, ...]
    symbols: tuple[SymbolDecl, ...]
    secure: bool = True
    sub: str | None = None
    decode: Callable[[ReceiverView], dict] | None = field(default=None, compare=False)

    @cached_property
    def receivers(self) -> tuple[str, ...]:
        """The non-eavesdropper nodes sent messages, in topology order."""
        return tuple(node for node in self.topology.nodes()
                     if node != EVE and self.message_sids(node))

    @cached_property
    def protected(self) -> dict[str, frozenset]:
        """Adversary node -> the sids it must not resolve."""
        if not self.secure:
            return {}
        return {adv: frozenset(d.sid for d in self.symbols if d.owner not in (adv, "noise"))
                for adv in self.topology.adversaries}

    @cached_property
    def adversary_known(self) -> dict[str, frozenset]:
        """Adversary node -> the sids it owns, known a priori."""
        return {adv: frozenset(d.sid for d in self.symbols if d.owner == adv)
                for adv in self.topology.adversaries}

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

    def rows(self, t: int, labels: Sequence[str], nodes: Sequence[str]) -> list[list]:
        """The coefficient matrix of streams `labels` in slot t: one row per
        node of `nodes`, in order, one column per label."""
        return [[self.rc(n, t, label) for label in labels] for n in nodes]

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
        payload = {
            "scheme": self.spec.scheme_id,
            "seed": self.seeds[0],
            "mode": self.mode,
            "power": self.power.total_power,
            "slots": [
                {
                    "state": str(slot.state),
                    "streams": list(slot.labels),
                    "x": complex_to_json(self.sqrt_power * x_value),
                }
                for slot, x_value in zip(self.spec.compiled.slots, self.x_value[0])
            ],
            "observations": {
                node: complex_to_json(vals) for node, vals in
                zip(self.spec.topology.nodes(), self.obs_vals[0])
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


# -- compiled program -----------------------------------------------------------
#
# Everything about a slot program that no seed changes is resolved once per
# spec, in the same walk over its streams that checks their legality:
# symbol columns, fixed axes and fixed payload combinations, which earlier
# streams each retransmitted observation reads, and after which slot no
# observation reads a slot's streams any more.  The executor then only does
# arithmetic, on every seed of a batch and every stream of a slot at once.

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
    # per stream: an antenna axis, or the nullspace's (ref count, key, column)
    beams: tuple[np.ndarray | tuple[int, int, int], ...]
    # per stream: a symbol column, a fixed payload row, or a channel-dependent recipe
    rows: tuple[int | np.ndarray | _Obs | _Mix, ...]
    # the slots, this one included, that no later slot retransmits from
    frees: tuple[int, ...] = ()


class _Program(NamedTuple):
    nulls: dict[int, _Nulls]    # by ref count
    slots: tuple[_Slot, ...]
    columns: dict[tuple[int, str], int]     # (slot, label) -> stream column
    column_slots: np.ndarray                # (column,) the slot of each stream column


def _indices(items) -> np.ndarray:
    return np.array(list(items), dtype=np.intp)


def _finite_number(value) -> bool:
    try:
        return cmath.isfinite(value)
    except (TypeError, OverflowError):      # not a number, or an int beyond floats
        return False


def compile_spec(spec: SchemeSpec) -> _Program:
    """Check a slot program's CSIT legality and resolve its seed-independent
    parts, in one walk over its streams; raises what executing the spec
    would raise."""
    nodes = spec.topology.nodes()
    n_tx = spec.topology.n_tx
    n_sym = len(spec.symbols)
    sindex = spec.symbol_index
    axes = np.eye(n_tx, dtype=complex)
    axes.setflags(write=False)
    positions: list[dict[str, int]] = []    # per slot: label -> stream position
    keys: dict[tuple, int] = {}             # (slot, refs) -> position in its group
    groups: dict[int, list] = {}            # ref count -> [(slot, refs), ...]
    last_read: dict[int, int] = {}          # slot -> the last slot that retransmits from it

    def compile_row(payload: Payload, t: int) -> int | np.ndarray | _Obs | _Mix:
        """Slot t's symbol column, fixed row or channel-dependent recipe; an
        observation is reconstructed only from a past slot, in [0, t)."""
        if isinstance(payload, Sym):
            if payload.sid not in sindex:
                raise UnknownSymbolId(payload.sid)
            return sindex[payload.sid]
        if isinstance(payload, ObsPart):
            if not 0 <= payload.slot < t:
                raise CsitViolation(
                    f"slot {t}: payload reconstructs observation from slot "
                    f"{payload.slot}, which is not in the past slots [0, {t})"
                )
            if payload.node not in nodes:
                raise BadParams(f"slot {t}: payload reconstructs the observation "
                                f"of unknown node {payload.node!r}")
            labels = positions[payload.slot]
            last_read[payload.slot] = t
            picks = []
            for label in labels if payload.streams is None else payload.streams:
                if label not in labels:
                    raise BadParams(f"slot {t}: payload reads stream {label!r}, "
                                    f"which slot {payload.slot} never sent")
                picks.append(labels[label])
            if picks and picks == list(range(picks[0], picks[-1] + 1)):
                picks = slice(picks[0], picks[-1] + 1)     # a view, not a copy
            return _Obs(nodes.index(payload.node), payload.slot,
                        picks if isinstance(picks, slice) else _indices(picks))
        if isinstance(payload, Comb):
            terms = []
            for coef, sub in payload.terms:
                if not _finite_number(coef):
                    raise BadParams(f"slot {t}: combination coefficient {coef!r} "
                                    "is not a finite number")
                sub = compile_row(sub, t)
                if isinstance(sub, int):        # a symbol's one-hot row
                    sub = np.eye(1, n_sym, sub, dtype=complex)[0]
                terms.append((coef, sub))
            if not all(isinstance(sub, np.ndarray) for _, sub in terms):
                return _Mix(tuple(terms))
            row = np.zeros(n_sym, dtype=complex)
            for coef, sub in terms:
                row += coef * sub
            return row
        raise TypeError(f"unknown payload {payload!r}")

    def compile_beam(beam: Beam, t: int, state: StateLabel) -> np.ndarray | tuple[int, int, int]:
        """Slot t's antenna axis, in [0, n_tx), or nullspace (ref count, key,
        column); a nullspace reads channels of slots [0, t], and slot t's of
        a node only where `state` grants it P."""
        if isinstance(beam, Axis):
            if not 0 <= beam.index < n_tx:
                raise BadParams(f"slot {t}: antenna {beam.index} is not in [0, {n_tx})")
            return axes[beam.index]
        if not isinstance(beam, NullOf):
            raise TypeError(f"unknown beam {beam!r}")
        for node, ref_slot in beam.refs:
            if node not in nodes:
                raise BadParams(f"slot {t}: beam references the channel of unknown node {node!r}")
            if not 0 <= ref_slot <= t:
                raise CsitViolation(f"slot {t}: beam references the channel of {node} "
                                    f"at slot {ref_slot}, which is not in [0, {t}]")
            if ref_slot == t and state.states[nodes.index(node)] is not CsitState.P:
                raise CsitViolation(f"slot {t}: state {state} grants no current CSI for {node}")
        r = len(beam.refs)
        if r >= n_tx:
            raise OverConstrained(f"slot {t}: {r} constraint rows leave no nullspace in dim {n_tx}")
        if not 0 <= beam.basis_index < n_tx - r:
            raise BadParams(f"slot {t}: beam basis index {beam.basis_index} out of range")
        group = groups.setdefault(r, [])
        if (t, beam.refs) not in keys:
            keys[t, beam.refs] = len(group)
            group.append((t, beam.refs))
        return r, keys[t, beam.refs], beam.basis_index

    slots = []
    for t, plan in enumerate(spec.slot_plans):
        if plan.state.arity != len(nodes):
            raise BadParams(
                f"slot {t}: state arity {plan.state.arity} mismatches topology"
            )
        labels: dict[str, int] = {}
        beams, rows = [], []
        for recipe in plan.streams:
            if recipe.label in labels:
                raise BadParams(f"slot {t}: repeated stream label {recipe.label!r}")
            rows.append(compile_row(recipe.payload, t))
            beams.append(compile_beam(recipe.beam, t, plan.state))
            labels[recipe.label] = len(labels)
        positions.append(labels)
        slots.append(_Slot(plan.state, tuple(labels), tuple(beams), tuple(rows)))

    frees: dict[int, list[int]] = {}
    for t in range(len(slots)):
        frees.setdefault(last_read.get(t, t), []).append(t)
    slots = [slot._replace(frees=tuple(frees.get(t, ()))) for t, slot in enumerate(slots)]
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
# few seeds at a time (11 of the default 58-slot, 100-symbol superframe),
# the small schemes all of them.  2^16 halves the composites' passes
# against 2^15, which shortens criterion 3; their batches (about 3 MB more
# at peak) still stay under criterion 9's streamed peak.
BATCH_CELLS = 1 << 16


class _Sent(NamedTuple):
    """One executed slot, stacked (stream, seed, ...)."""
    beams: np.ndarray
    gains: np.ndarray           # after the slot's power normalization
    rows: np.ndarray


def _retransmitted_row(payload: _Obs | _Mix, chan: np.ndarray,
                       sent: Mapping[int, _Sent], n_sym: int) -> np.ndarray:
    """A channel-dependent payload row of `n_sym` symbols per seed: the sum
    over the picked streams of ch @ (gain * outer(beam, row)), in stream
    order."""
    total = np.zeros((len(chan), n_sym), dtype=complex)
    if isinstance(payload, _Mix):
        for coef, sub in payload.terms:
            total += coef * (sub if isinstance(sub, np.ndarray)
                             else _retransmitted_row(sub, chan, sent, n_sym))
        return total
    beams, gains, rows = (arr[payload.picks] for arr in sent[payload.slot])
    ch = chan[:, payload.node, payload.slot, None, :]
    for term in ch @ (gains[:, :, None, None] * (beams[:, :, :, None] * rows[:, :, None, :])):
        total += term[:, 0]
    return total


def execute_batch(
    spec: SchemeSpec,
    channels: np.ndarray,
    power: PowerBudget,
    mode: str,
    seeds: Sequence[int],
) -> TraceBatch:
    """Execute a scheme for several seeds at once over their (seed, node,
    slot, antenna) channel draw (`sample_channels`).

    Per slot: resolve beams against the CSI the slot state allows, evaluate
    payloads from strictly legal information sets, normalize the slot to the
    exact power budget, and record every node's observation both numerically
    and as an exact coefficient row over the drawn symbols.  A slot's
    streams and the seeds run as stacked arrays; each stacked operation
    gives every (stream, seed) the bits its own run would, sums keep the
    stream order, and every numeric check, slot power included, runs for
    every seed; a payload or slot whose norm is zero or not finite raises
    BadParams naming the seed and the slot.  The batch keeps the symbols,
    channels, observations, beams, gains and transmitted vectors; payload
    rows and transmit matrices die with the run.
    """
    if mode not in ("noiseless", "noisy"):
        raise BadParams(f"unknown mode {mode!r}")
    program = spec.compiled
    nodes = spec.topology.nodes()
    n_seeds, n_slots, n_sym = len(seeds), spec.n_slots, len(spec.symbols)
    n_tx = spec.topology.n_tx
    # the three topologies' (node, antenna) shapes differ, so the shape
    # check is the topology check
    shape = channels.shape
    if len(shape) != 4 or (shape[0], shape[1], shape[3]) != (n_seeds, len(nodes), n_tx):
        raise BadParams(
            f"channels of shape {shape} do not fit {n_seeds} seeds of the "
            f"{spec.topology.name} topology, ({n_seeds}, {len(nodes)}, slots, {n_tx})")
    if shape[2] < n_slots:
        raise RealizationTooShort(f"channels have {shape[2]} slots, scheme needs {n_slots}")

    # (seed, node, slot, antenna)
    chan = np.ascontiguousarray(channels[:, :, :n_slots])
    s = rng.complex_normals(seeds, [("symbols",)], n_sym)[:, 0]

    bases = {}
    for r, nulls in program.nulls.items():
        mats = chan[:, nulls.nodes, nulls.slots]        # (seed, key, ref, antenna)
        basis = null_bases(mats)
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
    # (measured at --blocks 40: ~3500 page faults per seed).  A slot's payload
    # rows are dropped after the last slot that retransmits from them.
    sent: dict[int, _Sent] = {}
    all_beams = np.empty((len(program.column_slots), n_seeds, n_tx), dtype=complex)
    all_gains = np.empty(all_beams.shape[:2])
    x_values = np.zeros((n_seeds, n_slots, n_tx), dtype=complex)
    obs_rows = np.empty((len(nodes), n_seeds, n_slots, n_sym), dtype=complex)
    start = 0       # the slot's first stream column
    for t, slot in enumerate(program.slots):
        k = len(slot.labels)
        beams = all_beams[start:start + k]
        rows = np.zeros((k, n_seeds, n_sym), dtype=complex)
        for pos, (beam, row) in enumerate(zip(slot.beams, slot.rows)):
            if isinstance(beam, tuple):
                r, key, column = beam
                beam = bases[r][:, key, :, column]
            beams[pos] = beam
            if isinstance(row, int):
                rows[pos, :, row] = 1.0
            elif isinstance(row, np.ndarray):
                rows[pos] = row
            else:
                rows[pos] = _retransmitted_row(row, chan, sent, n_sym)
        # a zero norm would divide by zero; an overflowed one would make the
        # gain zero and the stream send nothing
        norms = _norms(rows)
        bad = (norms == 0) | ~np.isfinite(norms)
        if bad.any():
            pos, at = (int(i[0]) for i in np.nonzero(bad))
            what = "is zero" if norms[pos, at] == 0 else "norm is not finite"
            raise BadParams(f"seed {seeds[at]}, slot {t}: "
                            f"stream {slot.labels[pos]!r} payload {what}")
        gains = np.sqrt(1.0 / k) / norms if k else norms
        values = (rows[:, :, None, :] @ s[None, :, :, None])[..., 0, 0]
        x = np.zeros((n_seeds, n_tx, n_sym), dtype=complex)
        for term in gains[:, :, None, None] * (beams[:, :, :, None] * rows[:, :, None, :]):
            x += term
        fro = _norms(x.reshape(n_seeds, -1))
        bad = (fro == 0) | ~np.isfinite(fro)
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            what = "empty transmission" if fro[at] == 0 else "transmission norm is not finite"
            raise BadParams(f"seed {seeds[at]}, slot {t}: {what}")
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
        sent[t] = _Sent(beams, gains, rows)
        for done in slot.frees:
            del sent[done]
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
    channels: np.ndarray,
    power: PowerBudget,
    mode: str = "noiseless",
    seed: int = 0,
) -> TraceBatch:
    """Execute a scheme slot by slot over one seed's (node, slot, antenna)
    channel draw (`sample_channel`): the batch of one seed of
    `execute_batch`."""
    return execute_batch(spec, channels[None], power, mode, [seed])


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
        channels = sample_channels(spec.topology, spec.n_slots, batch)
        yield execute_batch(spec, channels, power, mode, batch)
