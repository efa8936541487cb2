#!/usr/bin/env python3
"""Write every catalog region as JSON plus gnuplot-style boundary data.

Usage: python scripts/emit_regions.py [--out-dir regions_out]
"""

import argparse
import json
from pathlib import Path

from sdof_lab import region_from_theorem, validate_schedule
from sdof_lab.cli import write_plot_data
from sdof_lab.regions import THEOREM_IDS

# schedules the parameterized entries are evaluated at
DEFAULT_SCHEDULES = {
    "thm1": {"DD": 1},
    "thm7": {"PD": "1/2", "DP": "1/2"},
    "thm8": {"PD": "1/2", "DP": "1/2"},
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="regions_out")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for theorem in THEOREM_IDS:
        lam = DEFAULT_SCHEDULES.get(theorem)
        schedule = validate_schedule(lam) if lam else None
        region = region_from_theorem(theorem, schedule)
        (out / f"{theorem}.json").write_text(
            json.dumps(region.to_json_dict(), indent=2, sort_keys=True))
        write_plot_data(out / f"{theorem}.dat", theorem, region)
        print(f"{theorem}: {len(region.vertices)} vertices -> {out}/{theorem}.json")


if __name__ == "__main__":
    main()
