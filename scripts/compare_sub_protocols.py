#!/usr/bin/env python3
"""Compare the composite superframe under its two side-information
sub-protocols: measured accounting, measured rate prelogs, and what the
closed-form bookkeeping predicts for each.

Usage: python scripts/compare_sub_protocols.py [--seeds N]
"""

import argparse

import numpy as np

from sdof_lab import RX1, accounting, build_scheme, composite_accounting
from sdof_lab.acceptance import REFERENCE_POWER
from sdof_lab.analysis import DEFAULT_GRID, prelogs
from sdof_lab.precoding import assemble_effective_systems
from sdof_lab.schemes import SUB_PROTOCOLS, rate_series, run_seed_batches, sub_protocol_dof


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    for sub in SUB_PROTOCOLS:
        spec = build_scheme("MR_S30_29_A", sub=sub)
        measured = accounting(spec)
        predicted = composite_accounting(sub_protocol_dof(spec))
        slopes = np.concatenate([
            prelogs(rate_series(spec, assemble_effective_systems(batch), DEFAULT_GRID),
                    spec.n_slots, DEFAULT_GRID)[RX1]
            for batch in run_seed_batches(spec, range(args.seeds), REFERENCE_POWER)])
        print(f"sub-protocol {sub}: superframe {spec.n_slots} slots, "
              f"{measured.symbols_per_receiver[RX1]} symbols/receiver")
        print(f"  accounting: measured {measured.nominal_sdof[RX1]}, "
              f"formula {predicted.nominal_sdof[RX1]} "
              f"(common stream at {predicted.sub_dof_assumptions['sdof_common']})")
        print(f"  measured rate prelog: {np.mean(slopes):.5f} "
              f"(= {float(measured.nominal_sdof[RX1]):.5f} nominal)")


if __name__ == "__main__":
    main()
