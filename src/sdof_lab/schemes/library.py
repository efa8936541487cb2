"""Fixed-state transmission schemes and their decoders.

Each builder returns a SchemeSpec whose slot program reproduces the scheme's
construction: which symbols ride which beams, what side information is
reconstructed and retransmitted, and which joint CSIT state each slot
declares; the spec carries the decoder that reads those slots.  Each
decoder replays the receiver-side steps (subtract known side
information, then invert) using only information that receiver legally has:
its own observations, the full CSI tables (available to everyone one slot
late, and decoding happens at block end), beams and gains.  A decoder reads
one seed's run through its `ReceiverView`.
"""

from __future__ import annotations

import numpy as np

from ..model import EVE, RX1, RX2, StateLabel, Topology
from ..precoding import SymbolDecl
from .program import Axis, Comb, NullOf, ObsPart, SchemeSpec, SlotPlan, StreamRecipe, Sym


def _spec(scheme_id, topology, plans, symbols, decode, sub=None, secure=True):
    return SchemeSpec(
        scheme_id=scheme_id,
        topology=topology,
        slot_plans=tuple(plans),
        symbols=tuple(symbols),
        secure=secure,
        sub=sub,
        decode=decode,
    )


def _slot(state: str, *streams: StreamRecipe) -> SlotPlan:
    return SlotPlan(state=StateLabel.parse(state), streams=tuple(streams))


def _st(label, payload, beam) -> StreamRecipe:
    return StreamRecipe(label=label, payload=payload, beam=beam)


def _solve(rows: list[list], values: list[complex]) -> np.ndarray:
    return np.linalg.solve(np.array(rows, dtype=complex), np.array(values, dtype=complex))


# -- wiretap channel, single receiver ------------------------------------------
#
# State labels here are pairs (receiver, eavesdropper).

def build_wt_zf(scheme_id: str, state: str) -> SchemeSpec:
    """One slot, one symbol on a beam nulled at the eavesdropper."""
    topo = Topology.wiretap()
    plans = [_slot(state, _st("v", Sym("v"), NullOf(((EVE, 0),))))]
    symbols = [SymbolDecl("v", RX1)]
    return _spec(scheme_id, topo, plans, symbols, decode_wt_zf)


def decode_wt_zf(view) -> dict:
    """Receiver 1 divides out its one symbol `v` (also WT_PD and MR_PDD)."""
    v = view.rv(RX1, 0) / view.rc(RX1, 0, "v")
    return {RX1: {"v": v}}


def build_wt_pd() -> SchemeSpec:
    """One slot: the symbol in clear on antenna 1, masked by noise nulled at
    the receiver."""
    topo = Topology.wiretap()
    plans = [_slot("PD",
                   _st("v", Sym("v"), Axis(0)),
                   _st("u", Sym("u"), NullOf(((RX1, 0),))))]
    symbols = [SymbolDecl("v", RX1), SymbolDecl("u", "noise")]
    return _spec("WT_PD", topo, plans, symbols, decode_wt_zf)


def build_wt_dd_23() -> SchemeSpec:
    """Three slots under delayed CSI everywhere.

    Slot 1 seeds artificial noise; slot 2 sends the symbol pair plus the
    receiver's slot-1 output (reconstructed at the transmitter from delayed
    CSI); slot 3 repeats the eavesdropper's own slot-2 combination, which
    hands the receiver a second clean equation without leaking anything new.
    """
    topo = Topology.wiretap()
    plans = [
        _slot("DD",
              _st("u1", Sym("u1"), Axis(0)),
              _st("u2", Sym("u2"), Axis(1))),
        _slot("DD",
              _st("v1", Sym("v1"), Axis(0)),
              _st("v2", Sym("v2"), Axis(1)),
              _st("fb1", ObsPart(RX1, 0), Axis(0))),
        _slot("DD",
              _st("fb2", ObsPart(EVE, 1), Axis(0))),
    ]
    symbols = [SymbolDecl("v1", RX1), SymbolDecl("v2", RX1),
               SymbolDecl("u1", "noise"), SymbolDecl("u2", "noise")]
    return _spec("WT_DD_23", topo, plans, symbols, decode_wt_dd_23)


def decode_wt_dd_23(view) -> dict:
    y11 = view.rv(RX1, 0)
    eq1 = view.rv(RX1, 1) - view.rc(RX1, 1, "fb1") * y11
    # slot 3 repeats the eavesdropper's slot-2 output; recover it, strip the
    # (known) noise feedback term, and a second equation in (v1, v2) remains
    z2 = view.rv(RX1, 2) / view.rc(RX1, 2, "fb2")
    eq2 = z2 - view.rc(EVE, 1, "fb1") * y11
    v1, v2 = _solve(view.rows(1, ("v1", "v2"), (RX1, EVE)), [eq1, eq2])
    return {RX1: {"v1": v1, "v2": v2}}


# -- multi-receiver wiretap, fixed hybrid states --------------------------------
#
# State labels are triples (receiver 1, receiver 2, eavesdropper).

def build_mr_ppd() -> SchemeSpec:
    """Single slot: both symbols zero-forced at the unintended receiver, a
    noise stream nulled at both receivers masks everything at the
    eavesdropper."""
    topo = Topology.multi_receiver()
    plans = [_slot("PPD",
                   _st("v", Sym("v"), NullOf(((RX2, 0),))),
                   _st("w", Sym("w"), NullOf(((RX1, 0),))),
                   _st("u", Sym("u"), NullOf(((RX1, 0), (RX2, 0)))))]
    symbols = [SymbolDecl("v", RX1), SymbolDecl("w", RX2), SymbolDecl("u", "noise")]
    return _spec("MR_PPD", topo, plans, symbols, decode_mr_ppd)


def decode_mr_ppd(view) -> dict:
    """Each receiver divides out its one symbol, `v` or `w` (also BC_PP_S2)."""
    v = view.rv(RX1, 0) / view.rc(RX1, 0, "v")
    w = view.rv(RX2, 0) / view.rc(RX2, 0, "w")
    return {RX1: {"v": v}, RX2: {"w": w}}


def build_mr_pdp() -> SchemeSpec:
    """Two slots, everything beamformed into the eavesdropper's nullspace.

    Slot 1 sends the pair for receiver 1 on two nullspace beams plus the
    single receiver-2 symbol additionally nulled at receiver 1; slot 2
    retransmits receiver 2's interference, which doubles as receiver 1's
    missing equation.
    """
    topo = Topology.multi_receiver()
    plans = [
        _slot("PDP",
              _st("v1", Sym("v1"), NullOf(((EVE, 0),), basis_index=0)),
              _st("v2", Sym("v2"), NullOf(((EVE, 0),), basis_index=1)),
              _st("w", Sym("w"), NullOf(((EVE, 0), (RX1, 0))))),
        _slot("PDP",
              _st("fb", ObsPart(RX2, 0, streams=("v1", "v2")), NullOf(((EVE, 1),)))),
    ]
    symbols = [SymbolDecl("v1", RX1), SymbolDecl("v2", RX1), SymbolDecl("w", RX2)]
    return _spec("MR_PDP", topo, plans, symbols, decode_mr_pdp)


def decode_mr_pdp(view) -> dict:
    # the retransmitted quantity equals receiver 2's slot-1 interference
    xi = view.rv(RX1, 1) / view.rc(RX1, 1, "fb")
    v1, v2 = _solve(view.rows(0, ("v1", "v2"), (RX1, RX2)), [view.rv(RX1, 0), xi])
    xi2 = view.rv(RX2, 1) / view.rc(RX2, 1, "fb")
    w = (view.rv(RX2, 0) - xi2) / view.rc(RX2, 0, "w")
    return {RX1: {"v1": v1, "v2": v2}, RX2: {"w": w}}


def build_mr_ddp() -> SchemeSpec:
    """Three slots: fresh pairs for each receiver on eavesdropper-nulled
    beams, then one slot multicasting the sum of the two overheard
    interference terms."""
    topo = Topology.multi_receiver()
    plans = [
        _slot("DDP",
              _st("v1", Sym("v1"), NullOf(((EVE, 0),), basis_index=0)),
              _st("v2", Sym("v2"), NullOf(((EVE, 0),), basis_index=1))),
        _slot("DDP",
              _st("w1", Sym("w1"), NullOf(((EVE, 1),), basis_index=0)),
              _st("w2", Sym("w2"), NullOf(((EVE, 1),), basis_index=1))),
        _slot("DDP",
              _st("fb", Comb(((1.0, ObsPart(RX1, 1)), (1.0, ObsPart(RX2, 0)))),
                  NullOf(((EVE, 2),)))),
    ]
    symbols = [SymbolDecl("v1", RX1), SymbolDecl("v2", RX1),
               SymbolDecl("w1", RX2), SymbolDecl("w2", RX2)]
    return _spec("MR_DDP", topo, plans, symbols, decode_mr_ddp)


def decode_mr_ddp(view) -> dict:
    c1 = view.rc(RX1, 2, "fb")
    xi = view.rv(RX1, 2) / c1 - view.rv(RX1, 1)   # leaves rx2's slot-1 output
    v1, v2 = _solve(view.rows(0, ("v1", "v2"), (RX1, RX2)), [view.rv(RX1, 0), xi])
    c2 = view.rc(RX2, 2, "fb")
    eta = view.rv(RX2, 2) / c2 - view.rv(RX2, 0)  # leaves rx1's slot-2 output
    w1, w2 = _solve(view.rows(1, ("w1", "w2"), (RX2, RX1)), [view.rv(RX2, 1), eta])
    return {RX1: {"v1": v1, "v2": v2}, RX2: {"w1": w1, "w2": w2}}


def build_mr_pdd() -> SchemeSpec:
    """One slot: the receiver-1 symbol in clear, artificial noise nulled only
    at receiver 1."""
    topo = Topology.multi_receiver()
    plans = [_slot("PDD",
                   _st("v", Sym("v"), Axis(0)),
                   _st("u", Sym("u"), NullOf(((RX1, 0),))))]
    symbols = [SymbolDecl("v", RX1), SymbolDecl("u", "noise")]
    return _spec("MR_PDD", topo, plans, symbols, decode_wt_zf)


# -- two-user broadcast, receivers eavesdrop on each other -----------------------
#
# State labels are pairs (receiver 1, receiver 2); receiver 2 is node row 1
# of the channel draw.

def build_bc_pp_s2() -> SchemeSpec:
    """One slot, each symbol zero-forced at the other receiver."""
    topo = Topology.broadcast()
    plans = [_slot("PP",
                   _st("v", Sym("v"), NullOf(((RX2, 0),))),
                   _st("w", Sym("w"), NullOf(((RX1, 0),))))]
    symbols = [SymbolDecl("v", RX1), SymbolDecl("w", RX2)]
    return _spec("BC_PP_S2", topo, plans, symbols, decode_mr_ppd)


def build_bc_dd_s1() -> SchemeSpec:
    """Four slots under delayed CSI: noise seeding, one fresh pair per
    receiver each carrying that receiver's slot-1 output, then a multicast of
    the sum of the two residual side informations."""
    topo = Topology.broadcast()
    plans = [
        _slot("DD",
              _st("u1", Sym("u1"), Axis(0)),
              _st("u2", Sym("u2"), Axis(1))),
        _slot("DD",
              _st("v1", Sym("v1"), Axis(0)),
              _st("v2", Sym("v2"), Axis(1)),
              _st("fb1", ObsPart(RX1, 0), Axis(0))),
        _slot("DD",
              _st("w1", Sym("w1"), Axis(0)),
              _st("w2", Sym("w2"), Axis(1)),
              _st("fb2", ObsPart(RX2, 0), Axis(0))),
        _slot("DD",
              _st("mc", Comb(((1.0, ObsPart(RX2, 1)), (1.0, ObsPart(RX1, 2)))),
                  Axis(0))),
    ]
    symbols = [SymbolDecl("v1", RX1), SymbolDecl("v2", RX1),
               SymbolDecl("w1", RX2), SymbolDecl("w2", RX2),
               SymbolDecl("u1", "noise"), SymbolDecl("u2", "noise")]
    return _spec("BC_DD_S1", topo, plans, symbols, decode_bc_dd_s1)


def decode_bc_dd_s1(view) -> dict:
    y11 = view.rv(RX1, 0)
    z1 = view.rv(RX2, 0)
    # receiver 1: multicast minus its own slot-3 output reveals rx2's slot-2
    # output, giving the second v equation
    z2 = view.rv(RX1, 3) / view.rc(RX1, 3, "mc") - view.rv(RX1, 2)
    eq1 = view.rv(RX1, 1) - view.rc(RX1, 1, "fb1") * y11
    eq2 = z2 - view.rc(RX2, 1, "fb1") * y11
    v1, v2 = _solve(view.rows(1, ("v1", "v2"), (RX1, RX2)), [eq1, eq2])
    y13 = view.rv(RX2, 3) / view.rc(RX2, 3, "mc") - view.rv(RX2, 1)
    eq3 = view.rv(RX2, 2) - view.rc(RX2, 2, "fb2") * z1
    eq4 = y13 - view.rc(RX1, 2, "fb2") * z1
    w1, w2 = _solve(view.rows(2, ("w1", "w2"), (RX2, RX1)), [eq3, eq4])
    return {RX1: {"v1": v1, "v2": v2}, RX2: {"w1": w1, "w2": w2}}


def _build_bc_43(scheme_id: str, states: list[str]) -> SchemeSpec:
    """Six-slot alternating scheme delivering four symbols to each receiver.

    Noise seeding, interleaved fresh pairs with retransmitted side
    information, and zero-forced singletons; the two state patterns differ
    only in whether the first two slots claim current CSIT they do not use.
    """
    topo = Topology.broadcast()
    xi = ObsPart(RX1, 2, streams=("w1", "w2", "fb2"))
    plans = [
        _slot(states[0],
              _st("u1", Sym("u1"), Axis(0)),
              _st("u2", Sym("u2"), Axis(1))),
        _slot(states[1],
              _st("v1", Sym("v1"), Axis(0)),
              _st("v2", Sym("v2"), Axis(1)),
              _st("fb1", ObsPart(RX1, 0), Axis(0))),
        _slot(states[2],
              _st("w1", Sym("w1"), Axis(0)),
              _st("w2", Sym("w2"), Axis(1)),
              _st("fb2", ObsPart(RX2, 0), Axis(0)),
              _st("v3", Sym("v3"), NullOf(((RX2, 2),)))),
        _slot(states[3],
              _st("fb3", ObsPart(RX2, 1), Axis(0)),
              _st("w3", Sym("w3"), NullOf(((RX1, 3),)))),
        _slot(states[4],
              _st("fb4", xi, Axis(0)),
              _st("v4", Sym("v4"), NullOf(((RX2, 4),)))),
        _slot(states[5],
              _st("fb5", xi, Axis(0)),
              _st("w4", Sym("w4"), NullOf(((RX1, 5),)))),
    ]
    symbols = [SymbolDecl(f"v{i}", RX1) for i in range(1, 5)]
    symbols += [SymbolDecl(f"w{i}", RX2) for i in range(1, 5)]
    symbols += [SymbolDecl("u1", "noise"), SymbolDecl("u2", "noise")]
    return _spec(scheme_id, topo, plans, symbols, decode_bc_43)


def build_bc_s1_43() -> SchemeSpec:
    return _build_bc_43("BC_S1_43", ["DP", "PD", "DP", "PD", "DP", "PD"])


def build_bc_s2_43() -> SchemeSpec:
    return _build_bc_43("BC_S2_43", ["DD", "DD", "DP", "PD", "DP", "PD"])


def decode_bc_43(view) -> dict:
    y11 = view.rv(RX1, 0)
    z1 = view.rv(RX2, 0)
    # receiver 1
    eq1 = view.rv(RX1, 1) - view.rc(RX1, 1, "fb1") * y11
    z2 = view.rv(RX1, 3) / view.rc(RX1, 3, "fb3")
    eq2 = z2 - view.rc(RX2, 1, "fb1") * y11
    v1, v2 = _solve(view.rows(1, ("v1", "v2"), (RX1, RX2)), [eq1, eq2])
    xi = view.rv(RX1, 5) / view.rc(RX1, 5, "fb5")
    v3 = (view.rv(RX1, 2) - xi) / view.rc(RX1, 2, "v3")
    v4 = (view.rv(RX1, 4) - view.rc(RX1, 4, "fb4") * xi) \
        / view.rc(RX1, 4, "v4")
    # receiver 2
    eq3 = view.rv(RX2, 2) - view.rc(RX2, 2, "fb2") * z1
    xi2 = view.rv(RX2, 4) / view.rc(RX2, 4, "fb4")
    eq4 = xi2 - view.rc(RX1, 2, "fb2") * z1
    w1, w2 = _solve(view.rows(2, ("w1", "w2"), (RX2, RX1)), [eq3, eq4])
    w3 = (view.rv(RX2, 3) - view.rc(RX2, 3, "fb3") * view.rv(RX2, 1)) \
        / view.rc(RX2, 3, "w3")
    w4 = (view.rv(RX2, 5) - view.rc(RX2, 5, "fb5") * xi2) \
        / view.rc(RX2, 5, "w4")
    return {
        RX1: {"v1": v1, "v2": v2, "v3": v3, "v4": v4},
        RX2: {"w1": w1, "w2": w2, "w3": w3, "w4": w4},
    }
