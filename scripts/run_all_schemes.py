#!/usr/bin/env python3
"""Sweep the whole scheme library and print a one-line summary per scheme.

Usage: python scripts/run_all_schemes.py [--seeds N]
"""

import argparse

import numpy as np

from sdof_lab import (
    RX1,
    RX2,
    SCHEME_IDS,
    PowerBudget,
    accounting,
    assemble_effective_system,
    build_scheme,
    decode,
    rate_slope,
    run_seeds,
)
from sdof_lab.analysis import leakage_slope


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    header = (f"{'scheme':<22} {'slots':>5} {'nominal rx1':>12} {'slope rx1':>10} "
              f"{'slope rx2':>10} {'leak slope':>11} {'decode':>7}")
    print(header)
    print("-" * len(header))
    for scheme_id in SCHEME_IDS:
        spec = build_scheme(scheme_id)
        report = accounting(spec)
        slopes = {RX1: [], RX2: []}
        leaks = []
        ok = True
        for trace in run_seeds(spec, range(args.seeds), PowerBudget(1e4)):
            ok &= decode(trace).all_success
            system = assemble_effective_system(trace)
            for node in (RX1, RX2):
                if system.message_sids(node):
                    slopes[node].append(
                        rate_slope(system, node, spec.n_slots).slope)
            for adv, secret in spec.protected.items():
                known = spec.adversary_known.get(adv, frozenset())
                leaks.append(leakage_slope(
                    system, adv, sorted(secret), spec.n_slots, known).slope)
        s1 = np.mean(slopes[RX1]) if slopes[RX1] else 0.0
        s2 = np.mean(slopes[RX2]) if slopes[RX2] else 0.0
        lk = np.mean(leaks) if leaks else 0.0
        print(f"{scheme_id.lower():<22} {spec.n_slots:>5} "
              f"{str(report.nominal_sdof[RX1]):>12} {s1:>10.4f} {s2:>10.4f} "
              f"{lk:>11.2e} {'ok' if ok else 'FAIL':>7}")


if __name__ == "__main__":
    main()
