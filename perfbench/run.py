#!/usr/bin/env python3
"""sdof-lab benchmark: end-to-end and traced per-layer runs of three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_small --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload verify_full --seed 3 --seconds 35 --trace 1
    python3 perfbench/run.py --record-digests      # re-record digests.json

Everything runs in one process with one BLAS thread and LAB_THREADS unset.

`--trace 0` measures what a user sees: a closed loop (one client) that
repeats the workload's `sdof-lab` commands through `sdof_lab.cli.main` for
`--seconds`, checking every output against the recorded digests, with the
set-up time of fresh interpreters taken between its repetitions.
`--trace 1` runs a fixed amount of work, so its counts repeat exactly:
pairs of untraced and traced repetitions (their time ratio is the tracing
overhead), then the fresh-seed invariant check on master seeds derived from
`--seed`.  Spans are kept in memory and written to
`.perfbench/` when the run ends.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric with its unit, `fail_ratio`, and the run's provenance.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, pipelines

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3
SETUP_REPEATS = 15

# end-to-end metrics: name -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "seeds_per_s": "1/s", "peak_rss_mb": "MB"}

_SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import sdof_lab.cli
from sdof_lab.schemes import build_scheme
for scheme_id, params in {specs!r}:
    build_scheme(scheme_id, **dict(params))
"""


def pin_environment() -> None:
    """One BLAS thread, no seed-level threads; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("LAB_THREADS", None)


def setup_command(wl: Workload) -> list[str]:
    """A fresh interpreter that imports the lab and builds every scheme the
    workload uses."""
    return [sys.executable, "-c", _SETUP_CODE.format(src=str(SRC), specs=wl.specs)]


def launch(cmd: list[str]) -> float:
    """Wall time of one run of `cmd`."""
    start = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_rep(main, wl: Workload, checks, expected):
    """One repetition of the workload's commands; returns (seconds, outcomes)."""
    gc.collect()
    start = time.perf_counter()
    runs = [checks.run_command(main, argv) for argv in wl.commands]
    elapsed = time.perf_counter() - start
    return elapsed, [o for run in runs for o in checks.check_run(run, expected)]


def end_to_end(wl: Workload, seconds: float, checks, expected):
    from sdof_lab import acceptance, cli  # noqa: F401  (loaded before timing)

    cmd = setup_command(wl)
    launch(cmd)                 # untimed: writes the bytecode
    setup, reps, outcomes = [], [], []

    def launch_due(elapsed: float) -> None:
        # set-up launches are spread evenly over the timed phase, so a slow
        # period of the shared box moves only some of them
        while len(setup) < SETUP_REPEATS and len(setup) * seconds < SETUP_REPEATS * elapsed:
            setup.append(launch(cmd))

    start = time.perf_counter()
    # a further repetition starts only if it should end within `seconds`
    while len(reps) < MIN_REPS or (
            time.perf_counter() - start + statistics.median(reps) <= seconds):
        launch_due(time.perf_counter() - start)
        elapsed, got = run_rep(cli.main, wl, checks, expected)
        reps.append(elapsed)
        outcomes += got
    launch_due(float("inf"))
    deciles = statistics.quantiles(reps, n=10, method="inclusive")
    per_rep = sum(pipelines(argv) for argv in wl.commands)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(reps),
        "seeds_per_s": per_rep * len(reps) / sum(reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setup_s": len(setup), "wall_s": len(reps), "seeds_per_s": len(reps),
               "peak_rss_mb": 1}
    detail = {"setup_s": setup, "rep_s": reps, "rep_p10_s": deciles[0],
              "rep_p90_s": deciles[-1], "timed_phase_s": sum(reps),
              "seeds_per_rep": per_rep, "slots_per_seed": wl.slots_per_seed}
    return metrics, {m: END_TO_END[m] for m in metrics}, samples, outcomes, detail


def traced(wl: Workload, seed: int, checks, expected):
    import tracing
    from sdof_lab import cli

    reps_tracer = tracing.Tracer("reps")
    traced_main = reps_tracer.wrap("cli.main", cli.main)
    untraced_s, traced_s, outcomes = [], [], []

    def each_command(argv):
        reps_tracer.begin_op(f"rep{len(traced_s)}:{checks.command_key(argv)}")
        try:
            return traced_main(argv)
        finally:
            reps_tracer.end_op()

    outcomes += run_rep(cli.main, wl, checks, expected)[1]   # warm-up, not timed
    for pair in range(wl.trace_pairs):
        # alternate which side of a pair runs first, so that a drift of the
        # box's speed does not favour one side
        for with_trace in (pair % 2 == 1, pair % 2 == 0):
            if with_trace:
                with reps_tracer.installed():
                    elapsed, got = run_rep(each_command, wl, checks, expected)
                traced_s.append(elapsed)
            else:
                elapsed, got = run_rep(cli.main, wl, checks, expected)
                untraced_s.append(elapsed)
            outcomes += got

    fresh_tracer = tracing.Tracer("fresh")
    seeds = checks.fresh_seeds(seed, wl.fresh_seeds)
    with fresh_tracer.installed():
        for scheme_id, params in wl.specs:
            fresh_tracer.begin_op(f"fresh:{scheme_id.lower()}")
            outcomes.append(checks.fresh_seed_check(scheme_id, dict(params), seeds))
            fresh_tracer.end_op()

    pair_overhead = [100.0 * (t / u - 1.0) for u, t in zip(untraced_s, traced_s)]
    metrics = reps_tracer.layer_metrics(wl.trace_pairs)
    metrics["trace.overhead_pct"] = statistics.median(pair_overhead)
    if metrics["schemes.decode.failures"]:
        outcomes.append(checks.Outcome("schemes.decode", False,
                                       f"{metrics['schemes.decode.failures']} failed reports"))
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    samples = {name: wl.trace_pairs for name in metrics}
    detail = {"untraced_rep_s": untraced_s, "traced_rep_s": traced_s,
              "pair_overhead_pct": pair_overhead,
              "fresh_seeds": [seeds.start, seeds.stop - 1],
              "spans": len(reps_tracer.spans) + len(fresh_tracer.spans)}
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    reps_tracer.write(spans_path)
    fresh_tracer.write(spans_path, mode="a")
    detail["spans_file"] = spans_path.name
    return metrics, units, samples, outcomes, detail


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sdof_lab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, samples: dict) -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("LAB_THREADS",)},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
        "samples": samples,
    }


def record_digests(checks) -> int:
    from sdof_lab import cli

    table = {}
    for wl in WORKLOADS.values():
        for argv in wl.commands:
            run = checks.run_command(cli.main, argv)
            digests = checks.output_digests(run)
            failed = run.code != 0 or "[FAIL]" in run.stdout
            if failed or not any(digests.values()):
                print(f"refusing to record: {checks.command_key(argv)} exited "
                      f"{run.code}", file=sys.stderr)
                return 1
            table[checks.command_key(argv)] = digests
    checks.DIGESTS_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(table)} command digests in {checks.DIGESTS_PATH.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run every command once and record its output digests")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "sdof_lab" / "__init__.py").is_file():
        print(f"error: no sdof_lab sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    import checks

    if args.record_digests:
        return record_digests(checks)
    if not checks.DIGESTS_PATH.is_file():
        print(f"error: {checks.DIGESTS_PATH.name} missing; run --record-digests", file=sys.stderr)
        return 2
    expected = checks.load_digests()
    wl = WORKLOADS[args.workload]
    if args.trace:
        metrics, units, samples, outcomes, detail = traced(wl, args.seed, checks, expected)
    else:
        metrics, units, samples, outcomes, detail = end_to_end(wl, args.seconds, checks, expected)

    failures = [o for o in outcomes if not o.ok]
    attempted = len(outcomes)
    prov = provenance(args.seed, samples)
    result = {
        "workload": wl.name, "trace": args.trace,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "attempted": attempted, "failed": len(failures),
        "failures": [f"{o.op}: {o.detail}" for o in failures[:20]],
        "provenance": prov, "detail": detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")

    print(f"# workload {wl.name} ({wl.why}); trace {args.trace}, seed {args.seed}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} (n={samples[name]})")
    if "rep_s" in detail:
        print(f"# repetition wall time: p10 {detail['rep_p10_s']:.6g} s, median "
              f"{metrics['wall_s']:.6g} s, p90 {detail['rep_p90_s']:.6g} s "
              f"(n={len(detail['rep_s'])}); {detail['seeds_per_rep']} seeds of "
              f"{wl.slots_per_seed} slots per repetition")
    if "pair_overhead_pct" in detail:
        print("# tracing overhead per untraced/traced pair: " + ", ".join(
            f"{pct:.3g}%" for pct in detail["pair_overhead_pct"]))
    print(f"fail_ratio = {result['fail_ratio']:.6g} ratio "
          f"({len(failures)}/{attempted} operations)")
    for line in result["failures"]:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": attempted > 0 and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
