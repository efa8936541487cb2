"""Channel and state data model.

Defines the CSIT state alphabet, schedules of state fractions, the three
supported node topologies, fading realizations and power budgets.  All values
are immutable after construction; sampling is a pure function of its inputs
and a seed, so everything here is safe to share across threads.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import rng
from .errors import (
    MixedArity,
    NegativeFraction,
    NonIntegralBlock,
    RankDeficiencyPersistent,
    SumNotOne,
    SymmetryViolated,
)

# Node identifiers used throughout the lab.  In the broadcast topology the
# second legitimate receiver takes the role the eavesdropper has elsewhere.
RX1 = "rx1"
RX2 = "rx2"
EVE = "eve"

CONDITION_CAP = 1e6
_RESAMPLE_LIMIT = 100


class CsitState(enum.Enum):
    """Transmitter-side channel knowledge for one node: perfect or delayed."""

    P = "P"
    D = "D"

    @classmethod
    def parse(cls, text: str) -> "CsitState":
        try:
            return cls(text.upper())
        except ValueError:
            raise ValueError(f"unknown CSIT state {text!r}") from None

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class StateLabel:
    """Joint CSIT state, one entry per CSIT-reporting node."""

    states: tuple[CsitState, ...]

    def __post_init__(self):
        if len(self.states) not in (2, 3):
            raise MixedArity(f"state label arity must be 2 or 3, got {len(self.states)}")

    @classmethod
    def parse(cls, text: str) -> "StateLabel":
        return cls(tuple(CsitState.parse(c) for c in text))

    @property
    def arity(self) -> int:
        return len(self.states)

    def sort_key(self) -> tuple[int, ...]:
        return tuple(0 if s is CsitState.P else 1 for s in self.states)

    def __iter__(self):
        return iter(self.states)

    def __str__(self) -> str:
        return "".join(str(s) for s in self.states)

    def __repr__(self) -> str:
        return f"StateLabel({str(self)!r})"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"schedule fractions must be exact rationals, got {type(value)!r}")


# Labels whose fractions must agree when symmetry is enforced.
_SYMMETRY_PAIRS = {
    3: (StateLabel.parse("PDD"), StateLabel.parse("DPD")),
    2: (StateLabel.parse("PD"), StateLabel.parse("DP")),
}


@dataclass(frozen=True)
class StateSchedule:
    """Fractions of time spent in each joint CSIT state (exact rationals)."""

    fractions: Mapping[StateLabel, Fraction]
    symmetry_mode: bool = False

    @property
    def arity(self) -> int:
        return next(iter(self.fractions)).arity

    def fraction(self, label: StateLabel) -> Fraction:
        return self.fractions.get(label, Fraction(0))

    def labels(self) -> list[StateLabel]:
        return sorted(self.fractions, key=StateLabel.sort_key)


def validate_schedule(fractions: Mapping, symmetry_mode: bool = False) -> StateSchedule:
    """Check and freeze a schedule of state fractions.

    Accepts labels as StateLabel or strings and fractions as Fraction, int or
    "p/q" strings.  The sum must be exactly one in rational arithmetic.
    """
    if not fractions:
        raise MixedArity("schedule has no states")
    norm: dict[StateLabel, Fraction] = {}
    for label, value in fractions.items():
        if isinstance(label, str):
            label = StateLabel.parse(label)
        norm[label] = _as_fraction(value)

    arities = {label.arity for label in norm}
    if len(arities) != 1:
        raise MixedArity(f"labels mix arities {sorted(arities)}")

    for label, value in norm.items():
        if value < 0:
            raise NegativeFraction(f"fraction for {label} is negative: {value}")
    total = sum(norm.values(), Fraction(0))
    if total != 1:
        raise SumNotOne(f"fractions sum to {total}, expected 1")

    if symmetry_mode:
        first, second = _SYMMETRY_PAIRS[next(iter(arities))]
        if norm.get(first, Fraction(0)) != norm.get(second, Fraction(0)):
            raise SymmetryViolated(
                f"symmetry mode requires equal fractions for {first} and {second}"
            )
    return StateSchedule(fractions=dict(norm), symmetry_mode=symmetry_mode)


def schedule_to_slot_states(schedule: StateSchedule, n_slots: int) -> list[StateLabel]:
    """Materialize a schedule onto a block of `n_slots` slots.

    Every fraction times `n_slots` must be an integer.  The canonical
    arrangement interleaves states by largest remaining quota, which makes
    equal-fraction schedules alternate; schemes are free to reorder.
    """
    quotas: dict[StateLabel, Fraction] = {}
    for label in schedule.labels():
        quota = schedule.fraction(label) * n_slots
        if quota.denominator != 1:
            raise NonIntegralBlock(
                f"{label} needs {quota} slots out of {n_slots}; not an integer"
            )
        quotas[label] = quota
    used = {label: 0 for label in quotas}
    out: list[StateLabel] = []
    for _ in range(n_slots):
        label = max(
            quotas,
            key=lambda l: (quotas[l] - used[l], tuple(-k for k in l.sort_key())),
        )
        if quotas[label] - used[label] <= 0:
            raise NonIntegralBlock("quota bookkeeping exhausted early")
        used[label] += 1
        out.append(label)
    return out


@dataclass(frozen=True)
class Topology:
    """Antenna/node configuration; only the three canonical setups exist."""

    n_tx: int
    receivers: int
    has_eavesdropper: bool

    def __post_init__(self):
        cfg = (self.n_tx, self.receivers, self.has_eavesdropper)
        if cfg not in {(3, 1, True), (3, 2, True), (2, 2, False)}:
            raise ValueError(f"unsupported topology {cfg}")

    @classmethod
    def wiretap(cls) -> "Topology":
        """Three-antenna transmitter, one receiver, one eavesdropper."""
        return cls(3, 1, True)

    @classmethod
    def multi_receiver(cls) -> "Topology":
        """Three-antenna transmitter, two receivers, one eavesdropper."""
        return cls(3, 2, True)

    @classmethod
    def broadcast(cls) -> "Topology":
        """Two-antenna transmitter, two receivers eavesdropping on each other."""
        return cls(2, 2, False)

    def nodes(self) -> tuple[str, ...]:
        if self.receivers == 1:
            return (RX1, EVE)
        if self.has_eavesdropper:
            return (RX1, RX2, EVE)
        return (RX1, RX2)

    @property
    def state_arity(self) -> int:
        return len(self.nodes())

    @property
    def name(self) -> str:
        return {(3, 1, True): "wiretap", (3, 2, True): "multi_receiver",
                (2, 2, False): "broadcast"}[(self.n_tx, self.receivers, self.has_eavesdropper)]


@dataclass(frozen=True)
class ChannelRealization:
    """Per-slot fading rows for every node, plus the seed that produced them."""

    topology: Topology
    n_slots: int
    h: np.ndarray                    # (n_slots, n_tx) rows of receiver 1
    h_acute: np.ndarray | None       # rows of receiver 2 (absent in wiretap runs)
    g: np.ndarray                    # rows of the eavesdropper / second receiver
    seed: int

    def __post_init__(self):
        for arr in (self.h, self.h_acute, self.g):
            if arr is not None:
                arr.setflags(write=False)

    @cached_property
    def by_node(self) -> dict[str, np.ndarray]:
        """node -> (n_slots, n_tx) channel rows, for every node of the topology."""
        nodes = self.topology.nodes()
        rows = (self.h, self.g) if len(nodes) == 2 else (self.h, self.h_acute, self.g)
        return dict(zip(nodes, rows))

    def rows(self, node: str) -> np.ndarray:
        """(n_slots, n_tx) channel rows of one node."""
        try:
            return self.by_node[node]
        except KeyError:
            raise KeyError(f"{self.topology.name} topology has no node {node!r}") from None

    def row(self, node: str, t: int) -> np.ndarray:
        return self.rows(node)[t]

    def stacked(self, t: int) -> np.ndarray:
        return np.vstack([self.row(node, t) for node in self.topology.nodes()])

    def to_json(self) -> str:
        def encode(arr):
            if arr is None:
                return None
            return [[[float(c.real), float(c.imag)] for c in slot] for slot in arr]

        payload = {
            "topology": self.topology.name,
            "n_slots": self.n_slots,
            "seed": self.seed,
            "h": encode(self.h),
            "h_acute": encode(self.h_acute),
            "g": encode(self.g),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def sample_channels(topology: Topology, n_slots: int, seeds) -> list[ChannelRealization]:
    """Draw one fading realization per seed: i.i.d. unit-variance complex
    Gaussian entries.

    Each slot's stacked state matrix is kept full row rank with condition
    number at most 1e6 by rejection resampling inside that slot's own
    substream, so realizations are deterministic in (topology, n_slots, seed)
    and independent across slots and seeds.  Every slot's first draw is
    checked in one stacked SVD; only rejected slots draw again.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    shape = (topology.state_arity, topology.n_tx)
    rows = rng.complex_normals(seeds, [("chan", t) for t in range(n_slots)], shape)
    for i, t in zip(*np.nonzero(~_well_conditioned(rows))):
        rows[i, t] = _redraw(int(seeds[i]), int(t), shape)
    # node order: (rx1, eve), (rx1, rx2, eve) or (rx1, rx2) -> (h, h_acute, g)
    picks = (0, 1, 2) if topology.state_arity == 3 else (0, None, 1)
    return [
        ChannelRealization(topology, n_slots,
                           *(None if k is None else draw[:, k] for k in picks), int(seed))
        for seed, draw in zip(seeds, rows)
    ]


def _well_conditioned(mats: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(mats, compute_uv=False)
    low, high = sv[..., -1], sv[..., 0]
    full_rank = low > 0
    return full_rank & (high / np.where(full_rank, low, 1.0) <= CONDITION_CAP)


def _redraw(seed: int, t: int, shape) -> np.ndarray:
    """Continue slot t's substream past its rejected first draw."""
    gen = rng.stream(seed, "chan", t)
    rng.complex_normal(gen, shape)
    for _ in range(1, _RESAMPLE_LIMIT):
        cand = rng.complex_normal(gen, shape)
        if _well_conditioned(cand):
            return cand
    raise RankDeficiencyPersistent(
        f"seed {seed}, slot {t}: no well-conditioned draw in {_RESAMPLE_LIMIT} attempts"
    )


def sample_channel(topology: Topology, n_slots: int, seed: int) -> ChannelRealization:
    """One seed's realization; see `sample_channels`."""
    return sample_channels(topology, n_slots, [seed])[0]


@dataclass(frozen=True)
class PowerBudget:
    """Total per-slot transmit power, split equally among a slot's active
    streams, which preserves all rate and leakage slopes."""

    total_power: float

    def __post_init__(self):
        if self.total_power <= 0:
            raise ValueError("total power must be positive")
