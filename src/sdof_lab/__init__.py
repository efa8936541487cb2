"""Simulation and verification lab for secure degrees of freedom of
multi-receiver MISO channels under alternating transmitter-side CSI.

The package executes linear transmission schemes slot by slot over random
fading channels, verifies decoding and secrecy leakage numerically, and
computes the corresponding rate regions as exact rational polytopes.
"""

from .model import (
    EVE,
    RX1,
    RX2,
    ChannelRealization,
    CsitState,
    PowerBudget,
    StateLabel,
    StateSchedule,
    Topology,
    sample_channel,
    sample_channels,
    schedule_to_slot_states,
    validate_schedule,
)
from .precoding import (
    EffectiveLinearSystem,
    SymbolDecl,
    assemble_effective_system,
    identifiability_check,
    identifiable_symbols,
)
from .schemes import (
    SCHEME_IDS,
    SUB_PROTOCOLS,
    AccountingReport,
    DecodeReport,
    SchemeSpec,
    TraceBatch,
    accounting,
    build_scheme,
    composite_accounting,
    decode,
    run_scheme,
)
from .analysis import (
    MiResult,
    SlopeEstimate,
    SymmetryReport,
    achievable_rate,
    check_output_symmetry,
    gaussian_mi,
    leakage_slope,
    mc_mi_oracle,
    rate_slope,
)
from .regions import (
    BoundedTermSystem,
    HalfPlane,
    RegionPolytope,
    THEOREM_IDS,
    bound_gap,
    contains,
    fm_eliminate,
    region_from_theorem,
    time_share,
)

__version__ = "0.1.0"
