#!/usr/bin/env python3
"""Summarize benchmark results into baseline.json.

Run every workload on several seeds, then summarize the results they left
in .perfbench/:

    for w in sweep_small composite_b40 verify_full; do
        for s in 0 1 2 3 4 5 6 7 8 9; do
            python3 perfbench/run.py --workload $w --seed $s --seconds 35 --trace 0
        done
        python3 perfbench/run.py --workload $w --seed 0 --trace 1
    done
    python3 perfbench/baseline.py

For each end-to-end metric it writes the median and quartiles over the
seeds, with the spread (interquartile distance over the median). For each
workload it also writes the per-layer metrics of the traced run with the
lowest seed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH.parent / ".perfbench"


def summarize(results_dir: Path = RESULTS) -> dict:
    untraced: dict[str, list[dict]] = defaultdict(list)
    traced: dict[str, dict] = {}
    for path in sorted(results_dir.glob("result-*.json")):
        result = json.loads(path.read_text())
        seed = result["provenance"]["workload_seed"]
        if result["trace"]:
            if result["workload"] not in traced or seed < traced[result["workload"]]["seed"]:
                traced[result["workload"]] = {"seed": seed, "result": result}
        else:
            untraced[result["workload"]].append(result)

    workloads = {}
    provenance = None
    for name, runs in sorted(untraced.items()):
        runs.sort(key=lambda r: r["provenance"]["workload_seed"])
        provenance = runs[0]["provenance"]
        end_to_end = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric] = {"unit": first["unit"], "median": median, "q1": q1,
                                  "q3": q3, "spread": (q3 - q1) / median}
        entry = {
            "seeds": [r["provenance"]["workload_seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "slots_per_seed": runs[0]["detail"]["slots_per_seed"],
            "seeds_per_rep": runs[0]["detail"]["seeds_per_rep"],
            "end_to_end": end_to_end,
        }
        if name in traced:
            result = traced[name]["result"]
            entry["traced"] = {
                "seed": traced[name]["seed"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {m: v["value"] for m, v in result["metrics"].items()},
            }
        workloads[name] = entry
    box = {k: v for k, v in (provenance or {}).items()
           if k not in ("samples", "workload_seed")}
    return {"provenance": box, "workloads": workloads}


if __name__ == "__main__":
    out = BENCH / "baseline.json"
    out.write_text(json.dumps(summarize(), indent=2) + "\n")
    print(f"wrote {out.name}")
