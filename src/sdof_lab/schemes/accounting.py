"""Exact slot/symbol accounting for schemes.

All bookkeeping is rational: a scheme's nominal SDoF at a receiver is the
exact ratio of securely delivered symbols to the slots the scheme occupies.
Composite schemes additionally expose the bookkeeping identity tying their
rate to the sub-protocol they plug in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from ..errors import NonPositiveSubDof
from ..model import RX1, RX2
from .composite import sub_protocol_dof


@dataclass(frozen=True)
class AccountingReport:
    symbols_per_receiver: Mapping[str, int]
    nominal_sdof: Mapping[str, Fraction]
    sub_dof_assumptions: Mapping[str, Fraction] = field(default_factory=dict)


def composite_accounting(sub_dof: Fraction) -> AccountingReport:
    """Per-receiver rate of the two-phase composite given its sub-protocol rate.

    A dissemination block delivers 3 fresh symbols to each receiver over 3
    slots, then spends 2/sub_dof slots shipping the two eavesdropper-side
    observations and 1/sdof_common slots on the secure common combination,
    where the common stream itself costs 2 + 2/sub_dof slots per two symbols.
    """
    sub_dof = Fraction(sub_dof)
    if not 0 < sub_dof <= 2:
        raise NonPositiveSubDof(f"sub-protocol rate must lie in (0, 2], got {sub_dof}")
    sdof_common = Fraction(2) / (2 + Fraction(2) / sub_dof)
    d_i = 3 / (3 + Fraction(2) / sub_dof + 1 / sdof_common)
    return AccountingReport(
        symbols_per_receiver={RX1: 3, RX2: 3},
        nominal_sdof={RX1: d_i, RX2: d_i},
        sub_dof_assumptions={"dof_pd_dp": sub_dof, "sdof_common": sdof_common},
    )


def accounting(spec) -> AccountingReport:
    """Measured accounting of a built scheme: exact symbols over exact slots,
    keyed by the scheme's receivers (`spec.receivers`); a node that is sent
    no messages has no entry.

    For composite schemes, whose spec names their sub-protocol (`sub`), the
    result is cross-checked against the closed-form bookkeeping at that
    sub-protocol's rate (`sub_protocol_dof`), whose assumptions it reports.
    """
    symbols = {node: len(spec.message_sids(node)) for node in spec.receivers}
    nominal = {node: Fraction(c, spec.n_slots) for node, c in symbols.items()}
    sub_dof = sub_protocol_dof(spec)
    if sub_dof is None:
        return AccountingReport(symbols, nominal)
    predicted = composite_accounting(sub_dof)
    if predicted.nominal_sdof != nominal:
        raise AssertionError(
            "composite accounting disagrees with the bookkeeping formula: "
            f"{nominal} != {predicted.nominal_sdof}"
        )
    return AccountingReport(symbols, nominal, predicted.sub_dof_assumptions)
