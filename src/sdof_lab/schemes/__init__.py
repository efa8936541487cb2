"""Scheme library: builders, executor, decoders and accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..analysis import gaussian_mi_stacked
from ..errors import BadParams, UnknownScheme
from ..model import RX1, RX2
from ..precoding import EffectiveLinearSystem, assemble_effective_systems, resolved_ranks
from . import composite, library
from .accounting import AccountingReport, accounting, composite_accounting
from .composite import sub_protocol_dof
from .program import (
    Axis,
    Comb,
    NullOf,
    ObsPart,
    ReceiverView,
    SchemeSpec,
    SlotPlan,
    StreamRecipe,
    Sym,
    TraceBatch,
    run_scheme,
    run_seed_batches,
    seed_chunks,
)

DECODE_RESIDUAL_TOL = 1e-8

_BUILDERS: dict[str, Callable[..., SchemeSpec]] = {
    "WT_PP": lambda: library.build_wt_zf("WT_PP", "PP"),
    "WT_DP": lambda: library.build_wt_zf("WT_DP", "DP"),
    "WT_PD": library.build_wt_pd,
    "WT_DD_23": library.build_wt_dd_23,
    "MR_PPD": library.build_mr_ppd,
    "MR_PDP": library.build_mr_pdp,
    "MR_DDP": library.build_mr_ddp,
    "MR_PDD": library.build_mr_pdd,
    "MR_S30_29_A": lambda **kw: composite.build_mr_s30_29("MR_S30_29_A", RX1, **kw),
    "MR_S30_29_B": lambda **kw: composite.build_mr_s30_29("MR_S30_29_B", RX2, **kw),
    "SUB_PD_DP_UNICAST": composite.build_sub_pd_dp_unicast,
    "SUB_SECURE_MULTICAST": composite.build_sub_secure_multicast,
    "BC_PP_S2": library.build_bc_pp_s2,
    "BC_DD_S1": library.build_bc_dd_s1,
    "BC_S1_43": library.build_bc_s1_43,
    "BC_S2_43": library.build_bc_s2_43,
}


def _run_decoder(view: ReceiverView) -> dict:
    """The decoder the scheme's builder put in its spec; a spec without one
    recovers nothing."""
    decode = view.spec.decode
    return {} if decode is None else decode(view)


# Every spec carries its decoder; this table of one dispatcher per scheme id
# exists so that a profiler can wrap the hand decoders by replacing its
# values (the benchmark's `decoders.hand.*` metrics do).
_DECODERS: dict[str, Callable] = dict.fromkeys(_BUILDERS, _run_decoder)

SCHEME_IDS: tuple[str, ...] = tuple(_BUILDERS)

# Sub-protocol switch values accepted by the composite schemes.
SUB_PROTOCOLS = tuple(composite._SUB_BLOCKS)


def cli_name(scheme_id: str) -> str:
    return scheme_id.lower()


def from_cli_name(name: str) -> str:
    scheme_id = name.upper()
    if scheme_id not in _BUILDERS:
        raise UnknownScheme(f"unknown scheme {name!r}")
    return scheme_id


def build_scheme(scheme_id: str, **params) -> SchemeSpec:
    """Instantiate a scheme from the closed id enumeration.

    Composite schemes accept `sub` (sub-protocol switch) and `blocks`
    (dissemination-phase length); everything else takes no parameters.
    """
    if scheme_id not in _BUILDERS:
        raise UnknownScheme(f"unknown scheme {scheme_id!r}")
    if params and not scheme_id.startswith("MR_S30_29"):
        raise BadParams(f"{scheme_id} takes no parameters, got {sorted(params)}")
    if params and not set(params) <= {"sub", "blocks"}:
        raise BadParams(f"unknown parameters {sorted(set(params) - {'sub', 'blocks'})}")
    return _BUILDERS[scheme_id](**params)


@dataclass(frozen=True)
class NodeDecode:
    recovered: Mapping[str, complex]
    max_residual: float
    success: bool


@dataclass(frozen=True)
class DecodeReport:
    """One seed's decoding and secrecy verdicts: each receiver's decode, and
    each adversary's leak rank, the dimensions of its protected symbols it
    resolves given those it knows (`precoding.resolved_ranks`).  Secrecy
    needs every leak rank to be 0, which also leaves each protected symbol
    inseparable on its own."""

    nodes: Mapping[str, NodeDecode]
    leak_ranks: Mapping[str, int]

    @property
    def all_success(self) -> bool:
        return all(n.success for n in self.nodes.values())

    @property
    def max_residual(self) -> float:
        return max((n.max_residual for n in self.nodes.values()), default=0.0)

    @property
    def any_protected_identifiable(self) -> bool:
        return any(rank > 0 for rank in self.leak_ranks.values())


def decode(trace: TraceBatch,
           system: EffectiveLinearSystem | None = None) -> DecodeReport:
    """Run the scheme's decoder and take each adversary's leak rank on a
    one-seed run.

    In noiseless mode every intended receiver must recover its symbols with
    relative residual at most 1e-8; every leak rank must be 0.  Failures
    are reported, never raised.  The leak ranks use `system` when given (the
    run's effective system), else assemble it.  The one-seed case of
    `decode_batch`.
    """
    systems = None if system is None else system.stacked()
    return decode_batch(trace, systems)[0]


def decode_batch(batch: TraceBatch,
                 systems: EffectiveLinearSystem | None = None) -> list[DecodeReport]:
    """`decode` of every seed of a batch, in seed order.

    The hand decoder runs on each seed's `ReceiverView`, and each report
    scores exactly the scheme's receivers (`spec.receivers`).  Each
    adversary's leak rank comes from one `resolved_ranks` call on the stack
    of the batch's effective systems (`systems` when given, else assembled
    from the batch).
    """
    spec = batch.spec
    if systems is None and spec.protected:
        systems = assemble_effective_systems(batch)
    leaks = {adv: resolved_ranks(systems, adv, sids, spec.adversary_known[adv])
             for adv, sids in spec.protected.items()}
    return [DecodeReport(nodes=_decode_receivers(view),
                         leak_ranks={adv: int(ranks[i]) for adv, ranks in leaks.items()})
            for i, view in enumerate(batch.views())]


def rate_series(spec: SchemeSpec, systems: EffectiveLinearSystem,
                powers: Sequence[float]) -> dict[str, np.ndarray]:
    """Per receiver (`spec.receivers`), the bits it learns of its messages:
    a (system, power) array over a stack and a power grid."""
    return {node: gaussian_mi_stacked(systems, node, spec.message_sids(node), powers)
            for node in spec.receivers}


def leak_series(spec: SchemeSpec, systems: EffectiveLinearSystem,
                powers: Sequence[float]) -> dict[str, np.ndarray]:
    """Per adversary, sorted, the bits it learns of its protected symbols
    given those it knows: a (system, power) array over a stack and a grid."""
    return {adv: gaussian_mi_stacked(systems, adv, sorted(spec.protected[adv]), powers,
                                     spec.adversary_known[adv])
            for adv in sorted(spec.protected)}


def _decode_receivers(view: ReceiverView) -> dict[str, NodeDecode]:
    """The hand half of `decode_batch`: the scheme's decoder on one seed's
    view, scored at each of `spec.receivers` against the drawn symbols."""
    spec = view.spec
    recovered = _DECODERS.get(spec.scheme_id, _run_decoder)(view)
    nodes: dict[str, NodeDecode] = {}
    for node in spec.receivers:
        got = recovered.get(node, {})
        max_res = 0.0
        for sid in spec.message_sids(node):
            # a missing or NaN value fails like an infinite residual
            err = math.inf
            if sid in got:
                truth = view.true_value(sid)
                err = float(abs(got[sid] - truth) / max(1.0, abs(truth)))
            max_res = max(max_res, math.inf if math.isnan(err) else err)
        nodes[node] = NodeDecode(
            recovered=dict(got),
            max_residual=max_res,
            success=max_res <= DECODE_RESIDUAL_TOL,
        )
    return nodes


__all__ = [
    "AccountingReport",
    "Axis",
    "Comb",
    "DecodeReport",
    "NodeDecode",
    "NullOf",
    "ObsPart",
    "ReceiverView",
    "SCHEME_IDS",
    "SUB_PROTOCOLS",
    "SchemeSpec",
    "SlotPlan",
    "StreamRecipe",
    "Sym",
    "TraceBatch",
    "accounting",
    "build_scheme",
    "cli_name",
    "composite_accounting",
    "decode",
    "decode_batch",
    "from_cli_name",
    "leak_series",
    "rate_series",
    "run_scheme",
    "run_seed_batches",
    "seed_chunks",
    "sub_protocol_dof",
]
