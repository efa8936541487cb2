"""Composite schemes built from reusable sub-protocols.

Three building blocks:

* a 6-slot unicast block alternating which receiver enjoys current CSIT
  (3 + 3 slots), delivering 5 payload values to each receiver (sum rate 5/3);
* a 4-slot fallback unicast block delivering 3 payload values to each
  receiver (sum rate 3/2), kept as an always-available alternative behind
  the ``sub`` switch;
* a 2-slot secure multicast pair: each slot sends one common value in clear
  to the receiver whose channel is currently known while artificial noise
  masks it everywhere else; the eavesdropper's own observations are later
  unicast back so the other receiver can strip the noise.

The headline composite superframe spends its first phase disseminating fresh
triples under noise cover, then uses the unicast block to ship the
eavesdropper-side observations (already known to the adversary, hence free to
send in clear) and the multicast pair to deliver the one genuinely secret
common combination each block needs.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import BadParams
from ..model import EVE, RX1, RX2, CsitState, StateLabel, Topology
from ..precoding import SymbolDecl
from .library import _solve, _st
from .program import Axis, Comb, NullOf, ObsPart, SchemeSpec, SlotPlan, Sym

_MR_NODES = (RX1, RX2, EVE)

# Fixed generic mixing row for the third unicast equation; any real triple
# independent of the random channel rows works almost surely.
_MIX = (1.0, 2.0, 3.0)


def _state_p_at(p_nodes: tuple[str, ...]) -> StateLabel:
    return StateLabel(tuple(
        CsitState.P if node in p_nodes else CsitState.D for node in _MR_NODES
    ))


def _other(node: str) -> str:
    return RX2 if node == RX1 else RX1


# -- 6-slot unicast block (sum rate 5/3) -----------------------------------------

def build_unicast_half(plans: list, t0: int, lead: str,
                       lead_payloads: list, trail_payloads: list, tag: str) -> dict:
    """Three slots delivering 3 payload values to `lead` and 2 to the other.

    Slots 1-2 know `lead`'s current channel and null the trailing payloads
    there; slot 3 knows the trailing receiver's channel, repeats the lead-side
    mixture it already overheard (so the trailing receiver can strip it) and
    adds a fresh generic combination for the lead's third equation.
    """
    trail = _other(lead)
    a_labels = tuple(f"{tag}a{i}" for i in range(3))
    xi = ObsPart(trail, t0, streams=a_labels)
    plans.append(SlotPlan(_state_p_at((lead,)), (
        _st(a_labels[0], lead_payloads[0], Axis(0)),
        _st(a_labels[1], lead_payloads[1], Axis(1)),
        _st(a_labels[2], lead_payloads[2], Axis(2)),
        _st(f"{tag}qa", trail_payloads[0], NullOf(((lead, t0),))),
    )))
    plans.append(SlotPlan(_state_p_at((lead,)), (
        _st(f"{tag}xi", xi, Axis(0)),
        _st(f"{tag}qb", trail_payloads[1], NullOf(((lead, t0 + 1),))),
    )))
    mu = Comb(tuple((m, payload) for m, payload in zip(_MIX, lead_payloads)))
    plans.append(SlotPlan(_state_p_at((trail,)), (
        _st(f"{tag}mu", mu, NullOf(((trail, t0 + 2),))),
        _st(f"{tag}nu", xi, Axis(0)),
    )))
    return {"t0": t0, "lead": lead, "trail": trail, "tag": tag,
            "a_labels": a_labels, "m": _MIX}


def decode_unicast_half(view, meta) -> tuple[list[complex], list[complex]]:
    """Recover the 3 lead-side and 2 trail-side payload values."""
    t0, lead, trail, tag = meta["t0"], meta["lead"], meta["trail"], meta["tag"]
    a_labels, m = meta["a_labels"], meta["m"]
    xi_hat = view.rv(lead, t0 + 1) / view.rc(lead, t0 + 1, f"{tag}xi")
    mu_hat = (view.rv(lead, t0 + 2)
              - view.rc(lead, t0 + 2, f"{tag}nu") * xi_hat) \
        / view.rc(lead, t0 + 2, f"{tag}mu")
    rows = [
        [view.rc(lead, t0, lab) for lab in a_labels],
        [view.rc(trail, t0, lab) for lab in a_labels],
        list(m),
    ]
    lead_vals = list(_solve(rows, [view.rv(lead, t0), xi_hat, mu_hat]))

    xi_trail = view.rv(trail, t0 + 2) / view.rc(trail, t0 + 2, f"{tag}nu")
    qa = (view.rv(trail, t0) - xi_trail) / view.rc(trail, t0, f"{tag}qa")
    qb = (view.rv(trail, t0 + 1)
          - view.rc(trail, t0 + 1, f"{tag}xi") * xi_trail) \
        / view.rc(trail, t0 + 1, f"{tag}qb")
    return lead_vals, [qa, qb]


def build_unicast_block(plans: list, t0: int, first: str,
                        first_payloads: list, second_payloads: list, tag: str) -> dict:
    """Six slots delivering 5 payload values to each receiver (3+2 split)."""
    if len(first_payloads) != 5 or len(second_payloads) != 5:
        raise BadParams("unicast block carries exactly 5 payloads per receiver")
    second = _other(first)
    half_a = build_unicast_half(
        plans, t0, first, first_payloads[:3], second_payloads[:2], f"{tag}A")
    half_b = build_unicast_half(
        plans, t0 + 3, second, second_payloads[2:5], first_payloads[3:5], f"{tag}B")
    return {"halves": (half_a, half_b), "first": first}


def decode_unicast_block(view, meta) -> tuple[list[complex], list[complex]]:
    """Values delivered to (first, second), in payload order."""
    half_a, half_b = meta["halves"]
    lead_a, trail_a = decode_unicast_half(view, half_a)
    lead_b, trail_b = decode_unicast_half(view, half_b)
    return lead_a + trail_b, trail_a + lead_b


# -- 4-slot fallback unicast block (sum rate 3/2) --------------------------------

def build_fallback_block(plans: list, t0: int, first: str,
                         first_payloads: list, second_payloads: list, tag: str) -> dict:
    """Four slots delivering 3 payload values to each receiver."""
    if len(first_payloads) != 3 or len(second_payloads) != 3:
        raise BadParams("fallback block carries exactly 3 payloads per receiver")
    second = _other(first)
    a_labels = (f"{tag}a0", f"{tag}a1")
    b_labels = (f"{tag}b0", f"{tag}b1")
    plans.append(SlotPlan(_state_p_at((first,)), (
        _st(a_labels[0], first_payloads[0], Axis(0)),
        _st(a_labels[1], first_payloads[1], Axis(1)),
        _st(f"{tag}q0", second_payloads[0], NullOf(((first, t0),))),
    )))
    plans.append(SlotPlan(_state_p_at((second,)), (
        _st(f"{tag}xi1", ObsPart(second, t0, streams=a_labels), Axis(0)),
    )))
    plans.append(SlotPlan(_state_p_at((second,)), (
        _st(b_labels[0], second_payloads[1], Axis(0)),
        _st(b_labels[1], second_payloads[2], Axis(1)),
        _st(f"{tag}p2", first_payloads[2], NullOf(((second, t0 + 2),))),
    )))
    plans.append(SlotPlan(_state_p_at((first,)), (
        _st(f"{tag}xi2", ObsPart(first, t0 + 2, streams=b_labels), Axis(0)),
    )))
    return {"t0": t0, "first": first, "second": second, "tag": tag,
            "a_labels": a_labels, "b_labels": b_labels}


def decode_fallback_block(view, meta) -> tuple[list[complex], list[complex]]:
    t0, first, second, tag = meta["t0"], meta["first"], meta["second"], meta["tag"]
    a_labels, b_labels = meta["a_labels"], meta["b_labels"]
    xi1_first = view.rv(first, t0 + 1) / view.rc(first, t0 + 1, f"{tag}xi1")
    rows = [
        [view.rc(first, t0, lab) for lab in a_labels],
        [view.rc(second, t0, lab) for lab in a_labels],
    ]
    p0, p1 = _solve(rows, [view.rv(first, t0), xi1_first])
    xi2_first = view.rv(first, t0 + 3) / view.rc(first, t0 + 3, f"{tag}xi2")
    p2 = (view.rv(first, t0 + 2) - xi2_first) / view.rc(first, t0 + 2, f"{tag}p2")

    xi1_second = view.rv(second, t0 + 1) / view.rc(second, t0 + 1, f"{tag}xi1")
    q0 = (view.rv(second, t0) - xi1_second) / view.rc(second, t0, f"{tag}q0")
    xi2_second = view.rv(second, t0 + 3) / view.rc(second, t0 + 3, f"{tag}xi2")
    rows = [
        [view.rc(second, t0 + 2, lab) for lab in b_labels],
        [view.rc(first, t0 + 2, lab) for lab in b_labels],
    ]
    q1, q2 = _solve(rows, [view.rv(second, t0 + 2), xi2_second])
    return [p0, p1, p2], [q0, q1, q2]


_SUB_BLOCKS = {
    "tjsp53": {
        "per_side": 5,
        "slots": 6,
        "build": build_unicast_block,
        "decode": decode_unicast_block,
        "sum_dof": Fraction(10, 6),
    },
    "fallback32": {
        "per_side": 3,
        "slots": 4,
        "build": build_fallback_block,
        "decode": decode_fallback_block,
        "sum_dof": Fraction(6, 4),
    },
}


# -- 2-slot secure multicast pair -------------------------------------------------

def build_mc_pair(plans: list, t0: int, first: str,
                  pay_first, pay_second, qa_sid: str, qb_sid: str, tag: str) -> dict:
    """Two slots, one common value each, masked by noise nulled only at the
    receiver meant to read it directly."""
    second = _other(first)
    plans.append(SlotPlan(_state_p_at((first,)), (
        _st(f"{tag}v", pay_first, Axis(0)),
        _st(f"{tag}qa", Sym(qa_sid), NullOf(((first, t0),))),
    )))
    plans.append(SlotPlan(_state_p_at((second,)), (
        _st(f"{tag}w", pay_second, Axis(0)),
        _st(f"{tag}qb", Sym(qb_sid), NullOf(((second, t0 + 1),))),
    )))
    return {"t0": t0, "first": first, "second": second, "tag": tag}


def decode_mc_pair(view, meta, zeta_first: complex, zeta_second: complex) -> tuple:
    """Both common values at each receiver.

    `zeta_second` is the eavesdropper's slot-1 observation (unicast to the
    second receiver); `zeta_first` its slot-2 observation (unicast to the
    first).  Returns ((val_a, val_b) as seen by first, same by second).
    """
    t0, first, second, tag = meta["t0"], meta["first"], meta["second"], meta["tag"]
    a_first = view.rv(first, t0) / view.rc(first, t0, f"{tag}v")
    rows = [
        [view.rc(first, t0 + 1, f"{tag}w"), view.rc(first, t0 + 1, f"{tag}qb")],
        [view.rc(EVE, t0 + 1, f"{tag}w"), view.rc(EVE, t0 + 1, f"{tag}qb")],
    ]
    b_first, _ = _solve(rows, [view.rv(first, t0 + 1), zeta_first])

    b_second = view.rv(second, t0 + 1) / view.rc(second, t0 + 1, f"{tag}w")
    rows = [
        [view.rc(second, t0, f"{tag}v"), view.rc(second, t0, f"{tag}qa")],
        [view.rc(EVE, t0, f"{tag}v"), view.rc(EVE, t0, f"{tag}qa")],
    ]
    a_second, _ = _solve(rows, [view.rv(second, t0), zeta_second])
    return (a_first, b_first), (a_second, b_second)


# -- standalone sub-protocol schemes ----------------------------------------------

def build_sub_pd_dp_unicast() -> SchemeSpec:
    """Standalone 6-slot unicast block carrying fresh symbols (no secrecy)."""
    topo = Topology.multi_receiver()
    symbols = [SymbolDecl(f"a{i}", RX1) for i in range(5)]
    symbols += [SymbolDecl(f"b{i}", RX2) for i in range(5)]
    plans: list[SlotPlan] = []
    meta = build_unicast_block(
        plans, 0, RX1,
        [Sym(f"a{i}") for i in range(5)],
        [Sym(f"b{i}") for i in range(5)],
        "u",
    )
    return SchemeSpec(
        scheme_id="SUB_PD_DP_UNICAST",
        topology=topo,
        slot_plans=tuple(plans),
        symbols=tuple(symbols),
        protected={},
        adversary_known={},
        layout={"unit": meta},
    )


def decode_sub_pd_dp_unicast(view) -> dict:
    first_vals, second_vals = decode_unicast_block(view, view.spec.layout["unit"])
    return {
        RX1: {f"a{i}": first_vals[i] for i in range(5)},
        RX2: {f"b{i}": second_vals[i] for i in range(5)},
    }


def build_sub_secure_multicast() -> SchemeSpec:
    """Five multicast pairs plus one unicast block returning the masking keys.

    Ten common symbols over 16 slots; both receivers recover all ten, the
    eavesdropper sees every one of them only through fresh noise.
    """
    topo = Topology.multi_receiver()
    n_pairs = 5
    symbols = [SymbolDecl(f"c{i}", "both") for i in range(2 * n_pairs)]
    symbols += [SymbolDecl(f"qa{j}", "noise") for j in range(n_pairs)]
    symbols += [SymbolDecl(f"qb{j}", "noise") for j in range(n_pairs)]
    plans: list[SlotPlan] = []
    pair_metas = []
    for j in range(n_pairs):
        pair_metas.append(build_mc_pair(
            plans, 2 * j, RX1, Sym(f"c{2 * j}"), Sym(f"c{2 * j + 1}"),
            f"qa{j}", f"qb{j}", f"p{j}",
        ))
    # ship the eavesdropper's own pair observations back: slot-2 ones to the
    # first receiver, slot-1 ones to the second
    zl = [ObsPart(EVE, 2 * j + 1) for j in range(n_pairs)]
    zs = [ObsPart(EVE, 2 * j) for j in range(n_pairs)]
    unit = build_unicast_block(plans, 2 * n_pairs, RX1, zl, zs, "u")
    return SchemeSpec(
        scheme_id="SUB_SECURE_MULTICAST",
        topology=topo,
        slot_plans=tuple(plans),
        symbols=tuple(symbols),
        protected={EVE: frozenset(f"c{i}" for i in range(2 * n_pairs))},
        adversary_known={},
        layout={"pairs": pair_metas, "unit": unit, "n_pairs": n_pairs},
    )


def decode_sub_secure_multicast(view) -> dict:
    layout = view.spec.layout
    zeta_first, zeta_second = decode_unicast_block(view, layout["unit"])
    out1, out2 = {}, {}
    for j, meta in enumerate(layout["pairs"]):
        (a1, b1), (a2, b2) = decode_mc_pair(
            view, meta, zeta_first[j], zeta_second[j])
        out1[f"c{2 * j}"], out1[f"c{2 * j + 1}"] = a1, b1
        out2[f"c{2 * j}"], out2[f"c{2 * j + 1}"] = a2, b2
    return {RX1: out1, RX2: out2}


# -- the two-phase composite superframe --------------------------------------------

def build_mr_s30_29(scheme_id: str, first: str, sub: str = "tjsp53",
                    blocks: int | None = None) -> SchemeSpec:
    """Dissemination blocks + side-information unicast + secure multicast.

    `first` is the receiver favoured by the dissemination phase state choice;
    the mirrored variant simply swaps the two receiver roles.  `blocks` must
    keep every sub-protocol batch integral.
    """
    if sub not in _SUB_BLOCKS:
        raise BadParams(f"unknown sub-protocol {sub!r}")
    rules = _SUB_BLOCKS[sub]
    per_side = rules["per_side"]
    if blocks is None:
        blocks = 2 * per_side
    if blocks <= 0 or blocks % per_side or blocks % 2 or (blocks // 2) % per_side:
        raise BadParams(
            f"blocks={blocks} does not pack into {sub} batches of {per_side} "
            "and multicast pairs"
        )
    second = _other(first)
    topo = Topology.multi_receiver()

    symbols: list[SymbolDecl] = []
    for k in range(blocks):
        symbols += [SymbolDecl(f"u{k}.{i}", "noise") for i in range(3)]
        symbols += [SymbolDecl(f"x{k}.{i}", first) for i in range(3)]
        symbols += [SymbolDecl(f"y{k}.{i}", second) for i in range(3)]
    n_pairs = blocks // 2
    symbols += [SymbolDecl(f"qa{j}", "noise") for j in range(n_pairs)]
    symbols += [SymbolDecl(f"qb{j}", "noise") for j in range(n_pairs)]

    plans: list[SlotPlan] = []
    block_meta = []
    for k in range(blocks):
        t0 = 3 * k
        plans.append(SlotPlan(_state_p_at((first,)), (
            _st(f"u{k}.0", Sym(f"u{k}.0"), Axis(0)),
            _st(f"u{k}.1", Sym(f"u{k}.1"), Axis(1)),
            _st(f"u{k}.2", Sym(f"u{k}.2"), Axis(2)),
        )))
        plans.append(SlotPlan(_state_p_at((first,)), (
            _st(f"x{k}.0", Sym(f"x{k}.0"), Axis(0)),
            _st(f"x{k}.1", Sym(f"x{k}.1"), Axis(1)),
            _st(f"x{k}.2", Sym(f"x{k}.2"), Axis(2)),
            _st(f"fbx{k}", ObsPart(first, t0), Axis(0)),
        )))
        plans.append(SlotPlan(_state_p_at((first,)), (
            _st(f"y{k}.0", Sym(f"y{k}.0"), Axis(0)),
            _st(f"y{k}.1", Sym(f"y{k}.1"), Axis(1)),
            _st(f"y{k}.2", Sym(f"y{k}.2"), Axis(2)),
            _st(f"fby{k}", ObsPart(second, t0), Axis(0)),
        )))
        block_meta.append({
            "t0": t0,
            "first_sids": [f"x{k}.{i}" for i in range(3)],
            "second_sids": [f"y{k}.{i}" for i in range(3)],
        })

    # phase 2a: the adversary-side observations each receiver is missing
    need_first = [ObsPart(EVE, 3 * k + 1) for k in range(blocks)]
    need_second = [ObsPart(EVE, 3 * k + 2) for k in range(blocks)]
    si_units = []
    for m in range(blocks // per_side):
        lo, hi = m * per_side, (m + 1) * per_side
        si_units.append(rules["build"](
            plans, len(plans), first, need_first[lo:hi], need_second[lo:hi],
            f"s{m}-",
        ))

    # phase 2b: one secure common combination per dissemination block
    def common(k: int):
        return Comb((
            (1.0, ObsPart(second, 3 * k + 1)),
            (1.0, ObsPart(first, 3 * k + 2)),
        ))

    pair_metas = []
    for j in range(n_pairs):
        pair_metas.append(build_mc_pair(
            plans, len(plans), first, common(2 * j), common(2 * j + 1),
            f"qa{j}", f"qb{j}", f"m{j}-",
        ))
    zeta_first = [ObsPart(EVE, meta["t0"] + 1) for meta in pair_metas]
    zeta_second = [ObsPart(EVE, meta["t0"]) for meta in pair_metas]
    mc_units = []
    for m in range(n_pairs // per_side):
        lo, hi = m * per_side, (m + 1) * per_side
        mc_units.append(rules["build"](
            plans, len(plans), first, zeta_first[lo:hi], zeta_second[lo:hi],
            f"z{m}-",
        ))

    protected = frozenset(
        sid for k in range(blocks) for sid in
        [f"x{k}.{i}" for i in range(3)] + [f"y{k}.{i}" for i in range(3)]
    )
    return SchemeSpec(
        scheme_id=scheme_id,
        topology=topo,
        slot_plans=tuple(plans),
        symbols=tuple(symbols),
        protected={EVE: protected},
        adversary_known={},
        layout={
            "first": first,
            "second": second,
            "sub": sub,
            "blocks": block_meta,
            "si_units": si_units,
            "pairs": pair_metas,
            "mc_units": mc_units,
            "sub_dof_assumptions": {
                "dof_pd_dp": rules["sum_dof"],
                "sdof_common": Fraction(2) / (2 + Fraction(2) / rules["sum_dof"]),
            },
        },
        sub_protocol=sub,
    )


def decode_mr_s30_29(view) -> dict:
    layout = view.spec.layout
    first, second = layout["first"], layout["second"]
    rules = _SUB_BLOCKS[layout["sub"]]

    zeta_first: list[complex] = []
    zeta_second: list[complex] = []
    for meta in layout["mc_units"]:
        f_vals, s_vals = rules["decode"](view, meta)
        zeta_first += f_vals
        zeta_second += s_vals

    w_first: list[complex] = []     # common values as recovered by `first`
    w_second: list[complex] = []
    for j, meta in enumerate(layout["pairs"]):
        (a1, b1), (a2, b2) = decode_mc_pair(
            view, meta, zeta_first[j], zeta_second[j])
        w_first += [a1, b1]
        w_second += [a2, b2]

    z_first: list[complex] = []     # adversary-side observations, unicast back
    z_second: list[complex] = []
    for meta in layout["si_units"]:
        f_vals, s_vals = rules["decode"](view, meta)
        z_first += f_vals
        z_second += s_vals

    out_first: dict[str, complex] = {}
    out_second: dict[str, complex] = {}
    for k, bm in enumerate(layout["blocks"]):
        t0 = bm["t0"]
        t1, t2 = t0 + 1, t0 + 2
        # receiver `first`: its own noise-slot output unlocks every equation
        seed = view.rv(first, t0)
        rows = []
        vals = []
        rows.append([view.rc(first, t1, s) for s in bm["first_sids"]])
        vals.append(view.rv(first, t1) - view.rc(first, t1, f"fbx{k}") * seed)
        rows.append([view.rc(EVE, t1, s) for s in bm["first_sids"]])
        vals.append(z_first[k] - view.rc(EVE, t1, f"fbx{k}") * seed)
        rows.append([view.rc(second, t1, s) for s in bm["first_sids"]])
        vals.append((w_first[k] - view.rv(first, t2))
                    - view.rc(second, t1, f"fbx{k}") * seed)
        for sid, val in zip(bm["first_sids"], _solve(rows, vals)):
            out_first[sid] = val
        # receiver `second`, mirrored
        seed2 = view.rv(second, t0)
        rows = []
        vals = []
        rows.append([view.rc(second, t2, s) for s in bm["second_sids"]])
        vals.append(view.rv(second, t2) - view.rc(second, t2, f"fby{k}") * seed2)
        rows.append([view.rc(EVE, t2, s) for s in bm["second_sids"]])
        vals.append(z_second[k] - view.rc(EVE, t2, f"fby{k}") * seed2)
        rows.append([view.rc(first, t2, s) for s in bm["second_sids"]])
        vals.append((w_second[k] - view.rv(second, t1))
                    - view.rc(first, t2, f"fby{k}") * seed2)
        for sid, val in zip(bm["second_sids"], _solve(rows, vals)):
            out_second[sid] = val

    if first == RX1:
        return {RX1: out_first, RX2: out_second}
    return {RX1: out_second, RX2: out_first}
