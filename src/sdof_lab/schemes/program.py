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
closed-form mutual information.  An executed slot keeps each stream's beam,
gain and payload row, keyed by the stream's label (unique within the slot);
a retransmitted past observation is rebuilt from those on demand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .. import rng
from ..errors import (
    BadParams,
    CsitViolation,
    RealizationTooShort,
    UnknownSymbolId,
)
from ..model import ChannelRealization, CsitState, PowerBudget, StateLabel, Topology
from ..precoding import SymbolDecl, null_basis


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
    sub_protocol: str | None = None

    @property
    def n_slots(self) -> int:
        return len(self.slot_plans)

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {d.sid: i for i, d in enumerate(self.symbols)}

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


# -- executed trace -------------------------------------------------------------

@dataclass
class StreamInstance:
    label: str
    beam: np.ndarray          # (n_tx,)
    gain: float               # multiplier on the payload value, post normalization
    row: np.ndarray           # payload coefficient row over symbols (pre-gain)
    value: complex            # payload value = row @ symbols


@dataclass
class SlotRecord:
    state: StateLabel
    streams: dict[str, StreamInstance]     # label -> stream, in plan order
    x_matrix: np.ndarray          # (n_tx, n_sym), Frobenius norm exactly 1
    x_value: np.ndarray           # (n_tx,), numeric dual path, power-normalized


@dataclass
class TransmissionTrace:
    spec: SchemeSpec
    realization: ChannelRealization
    power: PowerBudget
    mode: str
    seed: int
    symbols: tuple[SymbolDecl, ...]
    symbol_values: np.ndarray
    slots: list[SlotRecord]
    obs_rows: dict[str, np.ndarray]    # node -> (n_slots, n_sym), power-free
    obs_vals: dict[str, np.ndarray]    # node -> (n_slots,), sqrt(P)-scaled (+noise)
    noise_vals: dict[str, np.ndarray] | None

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def sqrt_power(self) -> float:
        return float(np.sqrt(self.power.total_power))

    def rv(self, node: str, t: int) -> complex:
        """Observation at the payload scale (divided by sqrt(P)).

        At this scale a retransmitted past observation enters later equations
        with exactly the value `rv` reports for it, so decoders can mix fresh
        symbols and reconstructed side information without power bookkeeping.
        """
        return complex(self.obs_vals[node][t]) / self.sqrt_power

    def rc(self, node: str, t: int, label: str) -> complex:
        """Payload-scale coefficient of one stream in node's slot-t observation.

        Everything in it (CSI, beams, gains) is receiver computable, so
        decoders may use it freely.
        """
        stream = self.slots[t].streams.get(label)
        if stream is None:
            raise KeyError(f"slot {t} has no stream {label!r}")
        return complex(stream.gain * (self.realization.row(node, t) @ stream.beam))

    def slot_power(self, t: int) -> float:
        """Expected transmit power of slot t given the channel draw."""
        return float(self.power.total_power * np.linalg.norm(self.slots[t].x_matrix) ** 2)

    def true_value(self, sid: str) -> complex:
        index = self.spec.symbol_index
        if sid not in index:
            raise UnknownSymbolId(sid)
        return complex(self.symbol_values[index[sid]])

    def to_json(self) -> str:
        def cplx(z):
            return [float(np.real(z)), float(np.imag(z))]

        payload = {
            "scheme": self.spec.scheme_id,
            "seed": self.seed,
            "mode": self.mode,
            "power": self.power.total_power,
            "slots": [
                {
                    "state": str(slot.state),
                    "streams": list(slot.streams),
                    "x": [cplx(v) for v in self.sqrt_power * slot.x_value],
                }
                for slot in self.slots
            ],
            "observations": {
                node: [cplx(v) for v in vals] for node, vals in self.obs_vals.items()
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


# -- executor -------------------------------------------------------------------

def run_scheme(
    spec: SchemeSpec,
    realization: ChannelRealization,
    power: PowerBudget,
    mode: str = "noiseless",
    seed: int = 0,
) -> TransmissionTrace:
    """Execute a scheme slot by slot over a channel realization.

    Per slot: resolve beams against the CSI the slot state allows, evaluate
    payloads from strictly legal information sets, normalize the slot to the
    exact power budget, and record every node's observation both numerically
    and as an exact coefficient row over the drawn symbols.
    """
    if mode not in ("noiseless", "noisy"):
        raise BadParams(f"unknown mode {mode!r}")
    if realization.n_slots < spec.n_slots:
        raise RealizationTooShort(
            f"realization has {realization.n_slots} slots, scheme needs {spec.n_slots}"
        )
    if realization.topology != spec.topology:
        raise BadParams("realization topology does not match the scheme")

    topology = spec.topology
    nodes = topology.nodes()
    n_tx = topology.n_tx
    n_sym = len(spec.symbols)
    sindex = spec.symbol_index

    sym_gen = rng.stream(seed, "symbols")
    s = rng.complex_normal(sym_gen, n_sym) if n_sym else np.zeros(0, dtype=complex)

    slots: list[SlotRecord] = []
    obs_rows = {node: np.zeros((spec.n_slots, n_sym), dtype=complex) for node in nodes}
    obs_clean = {node: np.zeros(spec.n_slots, dtype=complex) for node in nodes}

    def payload_row(payload: Payload, t: int) -> np.ndarray:
        if isinstance(payload, Sym):
            if payload.sid not in sindex:
                raise UnknownSymbolId(payload.sid)
            row = np.zeros(n_sym, dtype=complex)
            row[sindex[payload.sid]] = 1.0
            return row
        if isinstance(payload, ObsPart):
            streams = slots[payload.slot].streams
            ch = realization.row(payload.node, payload.slot)
            picks = streams if payload.streams is None else payload.streams
            total = np.zeros(n_sym, dtype=complex)
            for label in picks:
                st = streams[label]
                total += ch @ (st.gain * np.outer(st.beam, st.row))
            return total
        if isinstance(payload, Comb):
            total = np.zeros(n_sym, dtype=complex)
            for coef, sub in payload.terms:
                total += coef * payload_row(sub, t)
            return total
        raise TypeError(f"unknown payload {payload!r}")

    for t, plan in enumerate(spec.slot_plans):
        if plan.state.arity != len(nodes):
            raise BadParams(
                f"slot {t}: state arity {plan.state.arity} mismatches topology"
            )
        basis_cache: dict[tuple, np.ndarray] = {}
        k = len(plan.streams)
        share = np.sqrt(1.0 / k) if k else 0.0

        instances: dict[str, StreamInstance] = {}
        for recipe in plan.streams:
            if recipe.label in instances:
                raise BadParams(f"slot {t}: repeated stream label {recipe.label!r}")
            _check_payload(recipe.payload, t)
            if isinstance(recipe.beam, Axis):
                beam = np.zeros(n_tx, dtype=complex)
                beam[recipe.beam.index] = 1.0
            elif isinstance(recipe.beam, NullOf):
                for node, ref_slot in recipe.beam.refs:
                    _check_chan_ref(node, ref_slot, t, plan, nodes)
                key = recipe.beam.refs
                if key not in basis_cache:
                    rows = [realization.row(node, ref) for node, ref in key]
                    basis_cache[key], _ = null_basis(rows, n_tx)
                basis = basis_cache[key]
                if recipe.beam.basis_index >= basis.shape[1]:
                    raise BadParams(
                        f"slot {t}: beam basis index {recipe.beam.basis_index} "
                        f"out of range"
                    )
                beam = basis[:, recipe.beam.basis_index]
                for node, ref in key:
                    row = realization.row(node, ref)
                    if abs(row @ beam) > 1e-10 * np.linalg.norm(row):
                        raise AssertionError(
                            f"slot {t}: beam residual above tolerance")
                if abs(np.linalg.norm(beam) - 1.0) > 1e-10:
                    raise AssertionError(f"slot {t}: beam is not unit norm")
            else:
                raise TypeError(f"unknown beam {recipe.beam!r}")

            row = payload_row(recipe.payload, t)
            norm = np.linalg.norm(row)
            if norm == 0:
                raise BadParams(f"slot {t}: stream {recipe.label!r} payload is zero")
            gain = share / norm
            instances[recipe.label] = StreamInstance(
                label=recipe.label,
                beam=beam,
                gain=float(gain),
                row=row,
                value=complex(row @ s),
            )

        x_matrix = np.zeros((n_tx, n_sym), dtype=complex)
        for inst in instances.values():
            x_matrix += inst.gain * np.outer(inst.beam, inst.row)
        fro = np.linalg.norm(x_matrix)
        if fro == 0:
            raise BadParams(f"slot {t}: empty transmission")
        # Correlated payloads make nominal shares sum away from one; rescale
        # the whole slot so the expected power is exactly the budget.
        x_matrix /= fro
        x_value = np.zeros(n_tx, dtype=complex)
        for inst in instances.values():
            inst.gain /= fro
            x_value += inst.gain * inst.value * inst.beam

        slots.append(SlotRecord(
            state=plan.state, streams=instances, x_matrix=x_matrix, x_value=x_value,
        ))
        for node in nodes:
            ch = realization.row(node, t)
            obs_rows[node][t] = ch @ x_matrix
            obs_clean[node][t] = ch @ x_value

    sqrt_p = np.sqrt(power.total_power)
    noise_vals = None
    obs_vals = {}
    if mode == "noisy":
        noise_vals = {}
        for node in nodes:
            gen = rng.stream(seed, "noise", node)
            noise_vals[node] = rng.complex_normal(gen, spec.n_slots)
            obs_vals[node] = sqrt_p * obs_clean[node] + noise_vals[node]
    else:
        obs_vals = {node: sqrt_p * obs_clean[node] for node in nodes}

    return TransmissionTrace(
        spec=spec,
        realization=realization,
        power=power,
        mode=mode,
        seed=int(seed),
        symbols=spec.symbols,
        symbol_values=s,
        slots=slots,
        obs_rows=obs_rows,
        obs_vals=obs_vals,
        noise_vals=noise_vals,
    )
