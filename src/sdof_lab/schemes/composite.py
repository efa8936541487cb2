"""Composite schemes built from reusable sub-protocols.

Each sub-protocol has one builder, which the standalone schemes and the
superframe both call.  A builder appends its slots from the first free one
(`len(plans)`) and returns its decoder, a closure over the slot positions
and stream labels it just built:

* a 6-slot unicast block alternating which receiver enjoys current CSIT
  (3 + 3 slots), delivering 5 payload values to each receiver (sum rate 5/3);
* a 4-slot fallback unicast block delivering 3 payload values to each
  receiver (sum rate 3/2), kept as an always-available alternative behind
  the ``sub`` switch; either block is run in batches by
  `build_unicast_batches`;
* the secure multicast (`build_secure_multicast`): 2-slot pairs, each slot
  sending one common value in clear to the receiver whose channel is
  currently known while artificial noise masks it everywhere else, then
  unicast batches returning the eavesdropper's own observations so the other
  receiver can strip the noise.

The headline composite superframe spends its first phase disseminating fresh
triples under noise cover, then composes the sub-protocol builders: unicast
batches ship the eavesdropper-side observations (already known to the
adversary, hence free to send in clear), and the secure multicast delivers
the one genuinely secret common combination each block needs.  Each
scheme's builder composes its decoder from the sub-protocols' and puts it in
the spec it returns, next to the name of the unicast sub-protocol (`sub`)
that a superframe plugs in.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import BadParams
from ..model import EVE, RX1, RX2, CsitState, StateLabel, Topology
from ..precoding import SymbolDecl
from .library import _solve, _spec, _st
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

def build_unicast_half(plans: list, lead: str, lead_payloads: list,
                       trail_payloads: list, tag: str):
    """Three slots delivering 3 payload values to `lead` and 2 to the other.

    Slots 1-2 know `lead`'s current channel and null the trailing payloads
    there; slot 3 knows the trailing receiver's channel, repeats the lead-side
    mixture it already overheard (so the trailing receiver can strip it) and
    adds a fresh generic combination for the lead's third equation.  The
    decoder returns the 3 lead-side and the 2 trail-side values.
    """
    t0, trail = len(plans), _other(lead)
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

    def decode(view) -> tuple[list[complex], list[complex]]:
        xi_hat = view.rv(lead, t0 + 1) / view.rc(lead, t0 + 1, f"{tag}xi")
        mu_hat = (view.rv(lead, t0 + 2)
                  - view.rc(lead, t0 + 2, f"{tag}nu") * xi_hat) \
            / view.rc(lead, t0 + 2, f"{tag}mu")
        rows = view.rows(t0, a_labels, (lead, trail)) + [list(_MIX)]
        lead_vals = list(_solve(rows, [view.rv(lead, t0), xi_hat, mu_hat]))

        xi_trail = view.rv(trail, t0 + 2) / view.rc(trail, t0 + 2, f"{tag}nu")
        qa = (view.rv(trail, t0) - xi_trail) / view.rc(trail, t0, f"{tag}qa")
        qb = (view.rv(trail, t0 + 1)
              - view.rc(trail, t0 + 1, f"{tag}xi") * xi_trail) \
            / view.rc(trail, t0 + 1, f"{tag}qb")
        return lead_vals, [qa, qb]
    return decode


def build_unicast_block(plans: list, first: str, first_payloads: list,
                        second_payloads: list, tag: str):
    """Six slots delivering 5 payload values to each receiver (3+2 split);
    the decoder returns the values delivered to (first, second), in payload
    order."""
    if len(first_payloads) != 5 or len(second_payloads) != 5:
        raise BadParams("unicast block carries exactly 5 payloads per receiver")
    half_a = build_unicast_half(
        plans, first, first_payloads[:3], second_payloads[:2], f"{tag}A")
    half_b = build_unicast_half(
        plans, _other(first), second_payloads[2:5], first_payloads[3:5], f"{tag}B")

    def decode(view) -> tuple[list[complex], list[complex]]:
        lead_a, trail_a = half_a(view)
        lead_b, trail_b = half_b(view)
        return lead_a + trail_b, trail_a + lead_b
    return decode


# -- 4-slot fallback unicast block (sum rate 3/2) --------------------------------

def build_fallback_block(plans: list, first: str, first_payloads: list,
                         second_payloads: list, tag: str):
    """Four slots delivering 3 payload values to each receiver; the decoder
    returns the values delivered to (first, second), in payload order."""
    if len(first_payloads) != 3 or len(second_payloads) != 3:
        raise BadParams("fallback block carries exactly 3 payloads per receiver")
    t0, second = len(plans), _other(first)
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

    def decode(view) -> tuple[list[complex], list[complex]]:
        xi1_first = view.rv(first, t0 + 1) / view.rc(first, t0 + 1, f"{tag}xi1")
        p0, p1 = _solve(view.rows(t0, a_labels, (first, second)),
                        [view.rv(first, t0), xi1_first])
        xi2_first = view.rv(first, t0 + 3) / view.rc(first, t0 + 3, f"{tag}xi2")
        p2 = (view.rv(first, t0 + 2) - xi2_first) / view.rc(first, t0 + 2, f"{tag}p2")

        xi1_second = view.rv(second, t0 + 1) / view.rc(second, t0 + 1, f"{tag}xi1")
        q0 = (view.rv(second, t0) - xi1_second) / view.rc(second, t0, f"{tag}q0")
        xi2_second = view.rv(second, t0 + 3) / view.rc(second, t0 + 3, f"{tag}xi2")
        q1, q2 = _solve(view.rows(t0 + 2, b_labels, (second, first)),
                        [view.rv(second, t0 + 2), xi2_second])
        return [p0, p1, p2], [q0, q1, q2]
    return decode


# The largest superframe built, five times the largest documented size
# (40): under tjsp53 one seed's record alone takes 2784 * blocks^2 bytes
# (111 MB at the bound), so a larger size is refused before anything is
# allocated.
MAX_BLOCKS = 200

# Per sub-protocol: payloads per receiver in one block, the block's builder
# and its exact sum rate.
_SUB_BLOCKS = {
    "tjsp53": (5, build_unicast_block, Fraction(10, 6)),
    "fallback32": (3, build_fallback_block, Fraction(6, 4)),
}


def sub_protocol_dof(spec) -> Fraction | None:
    """The sum rate of the sub-protocol a composite plugs in (`spec.sub`);
    None for a scheme that plugs in none."""
    return None if spec.sub is None else _SUB_BLOCKS[spec.sub][2]


# -- unicast batches ----------------------------------------------------------------

def build_unicast_batches(plans: list, sub: str, first: str,
                          to_first: list, to_second: list, tag: str):
    """Blocks of sub-protocol `sub`, in order, delivering `to_first` to
    `first` and `to_second` to the other receiver; block m's streams are
    tagged `tag.format(m)`.  The decoder returns the values delivered to
    (first, second), in payload order."""
    per_side, build, _ = _SUB_BLOCKS[sub]
    blocks = [build(plans, first, to_first[lo:lo + per_side],
                    to_second[lo:lo + per_side], tag.format(m))
              for m, lo in enumerate(range(0, len(to_first), per_side))]

    def decode(view) -> tuple[list, list]:
        got_first: list[complex] = []
        got_second: list[complex] = []
        for block in blocks:
            f_vals, s_vals = block(view)
            got_first += f_vals
            got_second += s_vals
        return got_first, got_second
    return decode


# -- secure multicast: 2-slot pairs, then their keys unicast back -------------------

def build_mc_pair(plans: list, first: str, pay_first, pay_second,
                  qa_sid: str, qb_sid: str, tag: str):
    """Two slots, one common value each, masked by noise nulled only at the
    receiver meant to read it directly.

    The decoder takes the eavesdropper's slot-2 observation (`zeta_first`,
    unicast to `first`) and its slot-1 observation (`zeta_second`, unicast
    to the second receiver), and returns ((val_a, val_b) as seen by first,
    same by second).
    """
    t0, second = len(plans), _other(first)
    plans.append(SlotPlan(_state_p_at((first,)), (
        _st(f"{tag}v", pay_first, Axis(0)),
        _st(f"{tag}qa", Sym(qa_sid), NullOf(((first, t0),))),
    )))
    plans.append(SlotPlan(_state_p_at((second,)), (
        _st(f"{tag}w", pay_second, Axis(0)),
        _st(f"{tag}qb", Sym(qb_sid), NullOf(((second, t0 + 1),))),
    )))

    def decode(view, zeta_first: complex, zeta_second: complex) -> tuple:
        a_first = view.rv(first, t0) / view.rc(first, t0, f"{tag}v")
        b_first, _ = _solve(view.rows(t0 + 1, (f"{tag}w", f"{tag}qb"), (first, EVE)),
                            [view.rv(first, t0 + 1), zeta_first])

        b_second = view.rv(second, t0 + 1) / view.rc(second, t0 + 1, f"{tag}w")
        a_second, _ = _solve(view.rows(t0, (f"{tag}v", f"{tag}qa"), (second, EVE)),
                             [view.rv(second, t0), zeta_second])
        return (a_first, b_first), (a_second, b_second)
    return decode


def build_secure_multicast(plans: list, symbols: list, first: str, payloads: list,
                           sub: str, pair_tag: str, unit_tag: str):
    """Every payload to both receivers, each seen by the eavesdropper only
    through fresh noise.

    Pair j carries payloads 2j and 2j+1 under the noise symbols `qa{j}` and
    `qb{j}` (declared here) with its streams tagged `pair_tag.format(j)`.
    Unicast batches of sub-protocol `sub` tagged `unit_tag` then return the
    eavesdropper's slot-2 observations to `first` and its slot-1
    observations to the other.  The decoder returns the payloads as
    recovered by (first, second), in order.
    """
    t0, n_pairs = len(plans), len(payloads) // 2
    symbols += [SymbolDecl(f"qa{j}", "noise") for j in range(n_pairs)]
    symbols += [SymbolDecl(f"qb{j}", "noise") for j in range(n_pairs)]
    pairs = [build_mc_pair(plans, first, payloads[2 * j], payloads[2 * j + 1],
                           f"qa{j}", f"qb{j}", pair_tag.format(j))
             for j in range(n_pairs)]
    units = build_unicast_batches(plans, sub, first,
                                  [ObsPart(EVE, t0 + 2 * j + 1) for j in range(n_pairs)],
                                  [ObsPart(EVE, t0 + 2 * j) for j in range(n_pairs)],
                                  unit_tag)

    def decode(view) -> tuple[list, list]:
        zeta_first, zeta_second = units(view)
        w_first: list[complex] = []
        w_second: list[complex] = []
        for pair, z_first, z_second in zip(pairs, zeta_first, zeta_second):
            (a1, b1), (a2, b2) = pair(view, z_first, z_second)
            w_first += [a1, b1]
            w_second += [a2, b2]
        return w_first, w_second
    return decode


# -- standalone sub-protocol schemes ----------------------------------------------

def build_sub_pd_dp_unicast() -> SchemeSpec:
    """Standalone 6-slot unicast block carrying fresh symbols (no secrecy)."""
    topo = Topology.multi_receiver()
    symbols = [SymbolDecl(f"a{i}", RX1) for i in range(5)]
    symbols += [SymbolDecl(f"b{i}", RX2) for i in range(5)]
    plans: list[SlotPlan] = []
    unit = build_unicast_block(
        plans, RX1,
        [Sym(f"a{i}") for i in range(5)],
        [Sym(f"b{i}") for i in range(5)],
        "u",
    )

    def decode(view) -> dict:
        first_vals, second_vals = unit(view)
        return {
            RX1: {f"a{i}": first_vals[i] for i in range(5)},
            RX2: {f"b{i}": second_vals[i] for i in range(5)},
        }
    return _spec("SUB_PD_DP_UNICAST", topo, plans, symbols, decode, secure=False)


def build_sub_secure_multicast() -> SchemeSpec:
    """Five multicast pairs plus one unicast block returning the masking keys.

    Ten common symbols over 16 slots; both receivers recover all ten, the
    eavesdropper sees every one of them only through fresh noise.
    """
    commons = [f"c{i}" for i in range(10)]
    symbols = [SymbolDecl(sid, "both") for sid in commons]
    plans: list[SlotPlan] = []
    multicast = build_secure_multicast(plans, symbols, RX1, [Sym(sid) for sid in commons],
                                       "tjsp53", "p{}", "u")

    def decode(view) -> dict:
        w_first, w_second = multicast(view)
        return {RX1: dict(zip(commons, w_first)), RX2: dict(zip(commons, w_second))}
    return _spec("SUB_SECURE_MULTICAST", Topology.multi_receiver(), plans, symbols, decode)


# -- the two-phase composite superframe --------------------------------------------

def build_mr_s30_29(scheme_id: str, first: str, sub: str = "tjsp53",
                    blocks: int | None = None) -> SchemeSpec:
    """Dissemination blocks, then the sub-protocol's unicast batches and the
    secure multicast built on it.

    `first` is the receiver favoured by the dissemination phase state choice;
    the mirrored variant simply swaps the two receiver roles.  `blocks` must
    keep every sub-protocol batch integral and be at most `MAX_BLOCKS`.
    """
    if sub not in _SUB_BLOCKS:
        raise BadParams(f"unknown sub-protocol {sub!r}")
    per_side = _SUB_BLOCKS[sub][0]
    if blocks is None:
        blocks = 2 * per_side
    if blocks > MAX_BLOCKS:
        raise BadParams(f"blocks={blocks} is above the largest superframe, {MAX_BLOCKS} blocks")
    if blocks <= 0 or blocks % per_side or blocks % 2 or (blocks // 2) % per_side:
        raise BadParams(
            f"blocks={blocks} does not pack into {sub} batches of {per_side} "
            "and multicast pairs"
        )
    second = _other(first)

    # phase 1: block k sends noise in slot 3k, then `first`'s triple x and
    # `second`'s triple y, each over the noise its own receiver heard
    symbols: list[SymbolDecl] = []
    plans: list[SlotPlan] = []
    for k in range(blocks):
        for name, owner in (("u", "noise"), ("x", first), ("y", second)):
            sids = [f"{name}{k}.{i}" for i in range(3)]
            symbols += [SymbolDecl(sid, owner) for sid in sids]
            streams = tuple(_st(sid, Sym(sid), Axis(i)) for i, sid in enumerate(sids))
            if owner != "noise":
                streams += (_st(f"fb{name}{k}", ObsPart(owner, 3 * k), Axis(0)),)
            plans.append(SlotPlan(_state_p_at((first,)), streams))

    # phase 2a: the adversary-side observations each receiver is missing
    si_units = build_unicast_batches(
        plans, sub, first, [ObsPart(EVE, 3 * k + 1) for k in range(blocks)],
        [ObsPart(EVE, 3 * k + 2) for k in range(blocks)], "s{}-")
    # phase 2b: one secure common combination per dissemination block
    commons = [Comb(((1.0, ObsPart(second, 3 * k + 1)), (1.0, ObsPart(first, 3 * k + 2))))
               for k in range(blocks)]
    multicast = build_secure_multicast(plans, symbols, first, commons, sub, "m{}-", "z{}-")

    nodes = (first, second)

    def decode(view) -> dict:
        # per receiver: the adversary-side observations unicast back, and the
        # common values multicast
        z = si_units(view)
        w = multicast(view)
        out: tuple[dict, dict] = ({}, {})
        for k in range(blocks):
            for r, (node, name) in enumerate(zip(nodes, "xy")):
                # `node`'s triple rides slot `own`, the other's slot `cross`,
                # and its own noise-slot output unlocks every equation
                other, own, cross = nodes[1 - r], 3 * k + 1 + r, 3 * k + 2 - r
                sids = [f"{name}{k}.{i}" for i in range(3)]
                fb = f"fb{name}{k}"
                seed = view.rv(node, 3 * k)
                vals = [view.rv(node, own) - view.rc(node, own, fb) * seed,
                        z[r][k] - view.rc(EVE, own, fb) * seed,
                        (w[r][k] - view.rv(node, cross)) - view.rc(other, own, fb) * seed]
                out[r].update(zip(sids, _solve(view.rows(own, sids, (node, EVE, other)),
                                               vals)))
        return dict(zip(nodes, out))
    return _spec(scheme_id, Topology.multi_receiver(), plans, symbols, decode, sub=sub)
