"""Correctness gate of the benchmark.

Two checks decide whether an operation failed:

* the output-digest gate: the SHA-256 of every `simulate` CSV and summary
  JSON, and of every `verify` criterion line, must equal the digest recorded
  in `digests.json`.  A non-zero exit, a `FAIL` criterion or a mismatch is a
  failed operation;
* the fresh-seed invariant check: the simulate pipeline replayed on master
  seeds shifted by the benchmark's `--seed` must decode, must leave every
  protected symbol unidentifiable, and must fit rate and leakage prelogs
  within 0.05 of the scheme's exact accounting.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sdof_lab import analysis, model, precoding, schemes
from sdof_lab.model import RX1, RX2

DIGESTS_PATH = Path(__file__).with_name("digests.json")
FRESH_BASE = 1_000_000      # far above every seed the lab's own checks use
SLOPE_TOL = 0.05
_CRITERION = re.compile(r"criterion (?P<number>\d+) \[(?P<status>[A-Z]+)\]")


@dataclass(frozen=True)
class Outcome:
    """One attempted operation: a simulate call, a verify criterion, or the
    fresh-seed check of one scheme."""

    op: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CommandRun:
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str


def command_key(argv) -> str:
    return " ".join(argv)


def run_command(main, argv) -> CommandRun:
    """Run one `sdof-lab` command in process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:    # a traceback is a failed operation
            err.write(f"{type(exc).__name__}: {exc}")
            code = -1
    return CommandRun(tuple(argv), code, out.getvalue(), err.getvalue())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _criterion_lines(stdout: str) -> dict[str, tuple[str, str]]:
    found = {}
    for line in stdout.splitlines():
        match = _CRITERION.match(line)
        if match:
            found[match["number"]] = (match["status"], line)
    return found


def output_digests(run: CommandRun) -> dict:
    """Digests of a command's outputs: per criterion for `verify`, CSV and
    summary JSON for `simulate` (which prints the CSV, then the summary)."""
    if run.argv[0] == "verify":
        lines = _criterion_lines(run.stdout)
        return {"criteria": {n: _sha256(line) for n, (_, line) in sorted(lines.items())}}
    cut = run.stdout.find("\n{") + 1
    return {"csv": _sha256(run.stdout[:cut]), "summary": _sha256(run.stdout[cut:])}


def load_digests(path: Path = DIGESTS_PATH) -> dict:
    return json.loads(path.read_text())


def check_run(run: CommandRun, expected: dict) -> list[Outcome]:
    """Outcomes of one command against the recorded digests."""
    key = command_key(run.argv)
    want = expected.get(key)
    if run.argv[0] == "verify":
        return _check_verify(run, key, want)
    if run.code != 0:
        return [Outcome(key, False, f"exit code {run.code}: {run.stderr.strip()[:200]}")]
    if want is None:
        return [Outcome(key, False, "no recorded digest")]
    got = output_digests(run)
    bad = [part for part in ("csv", "summary") if got[part] != want[part]]
    return [Outcome(key, not bad, f"{'/'.join(bad)} digest mismatch" if bad else "")]


def _check_verify(run: CommandRun, key: str, want: dict | None) -> list[Outcome]:
    if not want:
        return [Outcome(key, False, "no recorded digest")]
    lines = _criterion_lines(run.stdout)
    outcomes = []
    for number in sorted(set(want["criteria"]) | set(lines)):
        op = f"{key} criterion {number}"
        if number not in lines:
            outcomes.append(Outcome(op, False, "criterion line missing"))
            continue
        status, line = lines[number]
        if status == "FAIL":
            outcomes.append(Outcome(op, False, line))
        elif _sha256(line) != want["criteria"].get(number):
            outcomes.append(Outcome(op, False, "digest mismatch: " + line))
        else:
            outcomes.append(Outcome(op, True))
    if run.code != 0 and all(o.ok for o in outcomes):
        outcomes.append(Outcome(key, False, f"exit code {run.code}"))
    return outcomes


def fresh_seeds(workload_seed: int, n_seeds: int) -> range:
    base = FRESH_BASE + workload_seed * n_seeds
    return range(base, base + n_seeds)


def fresh_seed_check(scheme_id: str, params: dict, seeds: range) -> Outcome:
    """Replay the simulate pipeline of one scheme on `seeds` and check its
    invariants.  Layer functions are looked up on their modules at call
    time, so an installed tracer sees every call."""
    op = f"fresh {scheme_id.lower()} seeds {seeds.start}..{seeds.stop - 1}"
    try:
        problems = _fresh_problems(scheme_id, params, seeds)
    except Exception as exc:        # any crash fails this scheme's check
        problems = [f"{type(exc).__name__}: {exc}"]
    return Outcome(op, not problems, "; ".join(problems[:4]))


def _fresh_problems(scheme_id: str, params: dict, seeds: range) -> list[str]:
    spec = schemes.build_scheme(scheme_id, **params)
    nominal = schemes.accounting(spec).nominal_sdof
    grid = list(analysis.DEFAULT_GRID)
    nodes = [n for n in (RX1, RX2)
             if n in spec.topology.nodes() and spec.message_sids(n)]
    slopes: dict[str, list[float]] = {n: [] for n in nodes}
    leaks = []
    problems = []
    for seed in seeds:
        realization = model.sample_channel(spec.topology, spec.n_slots, seed)
        trace = schemes.run_scheme(spec, realization, model.PowerBudget(grid[0]),
                                   "noiseless", seed)
        report = schemes.decode(trace)
        if not report.all_success:
            problems.append(f"seed {seed}: decode residual {report.max_residual:.2e}")
        if report.any_protected_identifiable:
            problems.append(f"seed {seed}: a protected symbol is identifiable")
        system = precoding.assemble_effective_system(trace)
        for node in nodes:
            slopes[node].append(
                analysis.rate_slope(system, node, spec.n_slots, grid).slope)
        leak = 0.0
        for adv, secret in spec.protected.items():
            known = spec.adversary_known.get(adv, frozenset())
            leak = max(leak, analysis.leakage_slope(
                system, adv, sorted(secret), spec.n_slots, known, grid).slope)
        leaks.append(leak)
    for node in nodes:
        mean = float(np.mean(slopes[node]))
        want = float(nominal.get(node, 0))
        if abs(mean - want) > SLOPE_TOL:
            problems.append(f"{node} rate slope {mean:.4f} vs accounting {want:.4f}")
    leak_mean = float(np.mean(leaks))
    if abs(leak_mean) > SLOPE_TOL:
        problems.append(f"leakage slope {leak_mean:.4f}")
    return problems
