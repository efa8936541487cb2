"""Channel and state data model.

Defines the CSIT state alphabet, schedules of state fractions, the three
supported node topologies, fading draws and power budgets.  All values
are immutable after construction, and sampling is a pure function of its
inputs and a seed.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import rng
from .errors import (
    MixedArity,
    NegativeFraction,
    RankDeficiencyPersistent,
    SumNotOne,
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


@dataclass(frozen=True)
class StateSchedule:
    """Fractions of time spent in each joint CSIT state (exact rationals)."""

    fractions: Mapping[StateLabel, Fraction]

    @property
    def arity(self) -> int:
        return next(iter(self.fractions)).arity

    def fraction(self, label: StateLabel) -> Fraction:
        return self.fractions.get(label, Fraction(0))


def validate_schedule(fractions: Mapping) -> StateSchedule:
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
    return StateSchedule(fractions=dict(norm))


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
    def adversaries(self) -> tuple[str, ...]:
        """The nodes that must learn nothing they do not own: the
        eavesdropper, or without one each receiver."""
        return (EVE,) if self.has_eavesdropper else (RX1, RX2)

    @property
    def state_arity(self) -> int:
        return len(self.nodes())

    @property
    def name(self) -> str:
        return {(3, 1, True): "wiretap", (3, 2, True): "multi_receiver",
                (2, 2, False): "broadcast"}[(self.n_tx, self.receivers, self.has_eavesdropper)]


def sample_channels(topology: Topology, n_slots: int, seeds) -> np.ndarray:
    """Draw every seed's fading: one read-only, C-contiguous (seed, node,
    slot, antenna) array of i.i.d. unit-variance complex Gaussian entries,
    nodes in `topology.nodes()` order, so `channels[i, :, t]` is seed i's
    state matrix at slot t.

    Each slot's state matrix is kept full row rank with condition number at
    most 1e6 by rejection resampling inside that slot's own substream, so
    draws are deterministic in (topology, n_slots, seed) and independent
    across slots and seeds.  Every slot's first draw is checked in one
    stacked SVD; only rejected slots draw again.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    shape = (topology.state_arity, topology.n_tx)
    mats = rng.complex_normals(seeds, [("chan", t) for t in range(n_slots)], shape)
    for i, t in zip(*np.nonzero(~_well_conditioned(mats))):
        mats[i, t] = _redraw(int(seeds[i]), int(t), shape)
    channels = np.ascontiguousarray(mats.swapaxes(1, 2))
    channels.setflags(write=False)
    return channels


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


def sample_channel(topology: Topology, n_slots: int, seed: int) -> np.ndarray:
    """One seed's (node, slot, antenna) draw; see `sample_channels`."""
    return sample_channels(topology, n_slots, [seed])[0]


def complex_to_json(values: np.ndarray) -> list:
    """A complex array as nested lists with each entry a [real, imag] pair
    of Python floats, for `json.dumps`."""
    return np.stack((values.real, values.imag), -1).tolist()


def channel_to_json(topology: Topology, seed: int, channels: np.ndarray) -> str:
    """One seed's (node, slot, antenna) draw as JSON: receiver 1's rows as
    `h`, receiver 2's as `h_acute` (null without an eavesdropper next to
    it) and the last node's, the eavesdropper or the broadcast receiver 2,
    as `g`."""
    payload = {
        "topology": topology.name,
        "n_slots": channels.shape[1],
        "seed": seed,
        "h": complex_to_json(channels[0]),
        "h_acute": complex_to_json(channels[1]) if len(channels) == 3 else None,
        "g": complex_to_json(channels[-1]),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class PowerBudget:
    """Total per-slot transmit power, split equally among a slot's active
    streams, which preserves all rate and leakage slopes."""

    total_power: float

    def __post_init__(self):
        if self.total_power <= 0:
            raise ValueError("total power must be positive")
