#!/usr/bin/env python3
"""Sweep the whole scheme library and print a one-line summary per scheme.

Usage: python scripts/run_all_schemes.py [--seeds N]
"""

import argparse

import numpy as np

from sdof_lab import RX1, RX2, SCHEME_IDS, accounting, build_scheme
from sdof_lab.acceptance import REFERENCE_POWER
from sdof_lab.analysis import DEFAULT_GRID, prelogs
from sdof_lab.precoding import assemble_effective_systems
from sdof_lab.schemes import decode_batch, leak_series, rate_series, run_seed_batches


def _mean(slopes) -> float:
    return np.mean(np.concatenate(slopes)) if slopes else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

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
        for batch in run_seed_batches(spec, range(args.seeds), REFERENCE_POWER):
            systems = assemble_effective_systems(batch)
            ok &= all(decoded.all_success for decoded in decode_batch(batch, systems))
            rates = prelogs(rate_series(spec, systems, DEFAULT_GRID), spec.n_slots,
                            DEFAULT_GRID)
            for node, node_slopes in rates.items():
                slopes[node].append(node_slopes)
            per_adversary = prelogs(leak_series(spec, systems, DEFAULT_GRID), spec.n_slots,
                                    DEFAULT_GRID)
            if per_adversary:       # seed-major, adversary-minor
                leaks.append(np.stack(list(per_adversary.values()), axis=1).ravel())
        print(f"{scheme_id.lower():<22} {spec.n_slots:>5} "
              f"{str(report.nominal_sdof[RX1]):>12} {_mean(slopes[RX1]):>10.4f} "
              f"{_mean(slopes[RX2]):>10.4f} {_mean(leaks):>11.2e} "
              f"{'ok' if ok else 'FAIL':>7}")


if __name__ == "__main__":
    main()
