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


@dataclass(frozen=True)
class AccountingReport:
    slots_total: Fraction
    symbols_per_receiver: Mapping[str, int]
    nominal_sdof: Mapping[str, Fraction]
    sub_dof_assumptions: Mapping[str, Fraction] = field(default_factory=dict)


def composite_accounting(
    sub_dof: Fraction,
    phase_a_symbols: int = 3,
    phase_a_slots: int = 3,
) -> AccountingReport:
    """Per-receiver rate of the two-phase composite given its sub-protocol rate.

    A dissemination block delivers `phase_a_symbols` fresh symbols to each
    receiver over `phase_a_slots` slots, then spends 2/sub_dof slots shipping
    the two eavesdropper-side observations and 1/sdof_common slots on the
    secure common combination, where the common stream itself costs
    2 + 2/sub_dof slots per two symbols.
    """
    sub_dof = Fraction(sub_dof)
    if not 0 < sub_dof <= 2:
        raise NonPositiveSubDof(f"sub-protocol rate must lie in (0, 2], got {sub_dof}")
    sdof_common = Fraction(2) / (2 + Fraction(2) / sub_dof)
    denom = phase_a_slots + Fraction(2) / sub_dof + Fraction(1) / sdof_common
    d_i = Fraction(phase_a_symbols) / denom
    slots = Fraction(phase_a_slots) + Fraction(2) / sub_dof + Fraction(1) / sdof_common
    return AccountingReport(
        slots_total=slots,
        symbols_per_receiver={RX1: phase_a_symbols, RX2: phase_a_symbols},
        nominal_sdof={RX1: d_i, RX2: d_i},
        sub_dof_assumptions={"dof_pd_dp": sub_dof, "sdof_common": sdof_common},
    )


def accounting(spec) -> AccountingReport:
    """Measured accounting of a built scheme: exact symbols over exact slots.

    For composite schemes the result is cross-checked against the closed-form
    bookkeeping at the measured sub-protocol rate.
    """
    symbols = {
        RX1: len(spec.message_sids(RX1)),
        RX2: len(spec.message_sids(RX2)),
    }
    slots = Fraction(spec.n_slots)
    sub_dof = dict(spec.layout.get("sub_dof_assumptions", {}))
    report = AccountingReport(
        slots_total=slots,
        symbols_per_receiver=symbols,
        nominal_sdof={node: Fraction(c, 1) / slots for node, c in symbols.items()},
        sub_dof_assumptions=sub_dof,
    )
    if "dof_pd_dp" in sub_dof:
        predicted = composite_accounting(sub_dof["dof_pd_dp"])
        for node in (RX1, RX2):
            if predicted.nominal_sdof[node] != report.nominal_sdof[node]:
                raise AssertionError(
                    "composite accounting disagrees with the bookkeeping formula: "
                    f"{report.nominal_sdof[node]} != {predicted.nominal_sdof[node]}"
                )
    return report
