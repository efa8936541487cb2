"""Batch experiment runner.

Four commands: `simulate` executes schemes over seeds and a power grid and
writes CSV rows plus a summary with slope pass/fail, `region` emits catalog
regions as JSON (optionally with a containment comparison and plot data),
`fm` projects a bounded-term system, and `verify` runs the acceptance suite.

Configuration comes from a JSON file, command-line flags, or both (flags
win).  Identical configuration and seeds produce byte-identical CSV output
at a fixed BLAS thread count: with two OpenBLAS threads instead of one, the
composites' rates move in the last digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, regions
from .errors import CsitViolation, SdofLabError
from .fm_oracle import convex_hull, hull_agreement
from .model import (RX1, RX2, PowerBudget, StateLabel, channel_to_json, sample_channel,
                    sample_channels, validate_schedule)
from .precoding import assemble_effective_system, assemble_effective_systems
from .schemes import (
    TraceBatch,
    accounting,
    build_scheme,
    decode_batch,
    from_cli_name,
    leak_series,
    rate_series,
    run_scheme,
    seed_chunks,
)

CSV_HEADER = ("scheme_id,seed,power,slots,symbols_rx1,symbols_rx2,"
              "rate_rx1_bits,rate_rx2_bits,leakage_bits,decode_residual_max")
# 2^±1000 keeps sqrt(P) and every P * sigma^2 of the analysis inside the
# double range
MAX_P_EXP = 1000

# config value types by field annotation
_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "None": (type(None),)}


def _read_json_object(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SdofLabError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:      # JSONDecodeError, UnicodeDecodeError
        raise SdofLabError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SdofLabError(f"{path} must hold a JSON object")
    return payload


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SdofLabError(f"cannot write {path}: {exc.strerror}") from None


def _write_json(payload: dict, path: str | None) -> None:
    """The payload as indented, key-sorted JSON, to `path` or else to stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text + "\n")


def _well_typed(value, annotation: str) -> bool:
    if annotation == "list[int]":
        return isinstance(value, list) and all(_well_typed(v, "int") for v in value)
    return not isinstance(value, bool) and any(
        isinstance(value, _TYPES[name]) for name in annotation.split(" | "))


@dataclass
class RunConfig:
    scheme: str = ""
    seeds: int = 20
    p_exp: list[int] = field(default_factory=lambda: list(analysis.GRID_EXPONENTS))
    mode: str = "noiseless"
    sub: str | None = None
    blocks: int | None = None
    tolerance: float = 0.05
    out: str | None = None
    summary: str | None = None
    dump_trace: str | None = None
    dump_system: str | None = None
    dump_channel: str | None = None
    # region-command parameters; a single config file drives either command
    theorem: str = ""
    lam: str | None = None
    compare: str | None = None
    plot_data: str | None = None

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        data: dict = {}
        if path:
            raw = _read_json_object(path)
            allowed = {f.name for f in fields(cls)}
            unknown = set(raw) - allowed
            if unknown:
                raise SdofLabError(f"unknown config keys: {sorted(unknown)}")
            data.update(raw)
        data.update({k: v for k, v in overrides.items() if v is not None})
        for f in fields(cls):
            if f.name in data and not _well_typed(data[f.name], f.type):
                raise SdofLabError(
                    f"config key {f.name!r} must be {f.type}, got {data[f.name]!r}")
        return cls(**data)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _scheme_params(config: RunConfig) -> dict:
    # an explicit `sub` or `blocks` always goes through, and build_scheme
    # rejects it on a scheme that takes no parameters
    return {name: value for name, value in (("sub", config.sub), ("blocks", config.blocks))
            if value is not None}


def _simulate_chunk(spec, seeds, powers: list[float], mode: str):
    """One chunk's decode reports, its (rate, leakage) series and their
    (rate, leakage) prelogs, each series keyed by node and holding one row
    of powers per seed.

    The chunk's channels are sampled in one pass, one (seed, node, slot,
    antenna) array that gives each seed the bits of its own draw.  Each
    seed is then executed on its own item of it, through the single-seed
    entry point whose calls the benchmark's layer tracing (perfbench)
    counts per simulated seed.  The runs are concatenated into
    the chunk's batch, which `seed_chunks` caps at `BATCH_CELLS` cells, and
    the chunk is analysed as a stack with the calls criterion 3 makes: one
    assembly, one `decode_batch` (the hand decoder per seed, one adversary
    oracle call per adversary), then `rate_series` and `leak_series` (one
    SVD per (node, column set) for every system and power) and one slope
    fit per kind, so the slopes come from the floats the rows report.
    """
    budget = PowerBudget(powers[0])
    channels = sample_channels(spec.topology, spec.n_slots, seeds)
    batch = TraceBatch.concatenate([
        run_scheme(spec, seed_channels, budget, mode, seed)
        for seed, seed_channels in zip(seeds, channels)])
    systems = assemble_effective_systems(batch)
    reports = decode_batch(batch, systems)
    del batch       # the analysis reads the systems alone
    series = rate_series(spec, systems, powers), leak_series(spec, systems, powers)
    return reports, series, tuple(analysis.prelogs(s, spec.n_slots, powers) for s in series)


def cmd_simulate(config: RunConfig) -> int:
    scheme_id = from_cli_name(config.scheme)
    spec = build_scheme(scheme_id, **_scheme_params(config))
    acct = accounting(spec)
    if config.seeds < 1:
        raise SdofLabError(f"seeds must be at least 1, got {config.seeds}")
    if not config.p_exp:
        raise SdofLabError("p_exp must list at least one power exponent")
    if any(abs(e) > MAX_P_EXP for e in config.p_exp):
        raise SdofLabError(
            f"p_exp entries must lie in [-{MAX_P_EXP}, {MAX_P_EXP}], got {config.p_exp}")
    if not math.isfinite(config.tolerance) or config.tolerance < 0:
        raise SdofLabError(
            f"tolerance must be a finite number >= 0, got {config.tolerance}")
    powers = [float(2.0 ** e) for e in sorted(set(config.p_exp))]
    try:
        seeds = list(range(config.seeds))
    except MemoryError:
        raise SdofLabError(f"{config.seeds} seeds do not fit in memory") from None

    csv_lines = [CSV_HEADER]
    sym1 = acct.symbols_per_receiver.get(RX1, 0)
    sym2 = acct.symbols_per_receiver.get(RX2, 0)
    failing = []
    slope_acc = {RX1: [], RX2: []}
    leak_acc = []
    for chunk in seed_chunks(spec, seeds):
        reports, (rates, leaks), (rate_slopes, leak_slopes) = _simulate_chunk(
            spec, chunk, powers, config.mode)
        # per seed (and power), as Python floats; a receiver without
        # messages has zero rate
        zero = np.zeros((len(chunk), len(powers)))
        r1, r2 = (rates.get(node, zero).tolist() for node in (RX1, RX2))
        for node in (RX1, RX2):
            slope_acc[node] += rate_slopes.get(node, zero[:, 0]).tolist()
        leaks = [values.tolist() for values in leaks.values()]
        leak_slopes = [values.tolist() for values in leak_slopes.values()]
        for i, (seed, report) in enumerate(zip(chunk, reports)):
            if (config.mode == "noiseless" and not report.all_success) \
                    or report.any_protected_identifiable:
                failing.append(seed)
            leak_acc.append(max([0.0] + [values[i] for values in leak_slopes]))
            for j, power in enumerate(powers):
                leak = max([0.0] + [values[i][j] for values in leaks])
                csv_lines.append(
                    f"{scheme_id.lower()},{seed},{_fmt(power)},{spec.n_slots},"
                    f"{sym1},{sym2},{_fmt(r1[i][j])},{_fmt(r2[i][j])},{_fmt(leak)},"
                    f"{_fmt(report.max_residual)}")
    hard_failure = bool(failing)

    if config.dump_trace or config.dump_system or config.dump_channel:
        # seeds are deterministic: the dumped case (the first failing seed,
        # else seed 0) is run again rather than kept
        seed = failing[0] if failing else 0
        channels = sample_channel(spec.topology, spec.n_slots, seed)
        trace = run_scheme(spec, channels, PowerBudget(powers[0]), config.mode, seed)
        if config.dump_trace:
            _write_text(config.dump_trace, trace.to_json())
        if config.dump_system:
            _write_text(config.dump_system, assemble_effective_system(trace).to_json())
        if config.dump_channel:
            _write_text(config.dump_channel, channel_to_json(spec.topology, seed, channels))

    csv_text = "\n".join(csv_lines) + "\n"
    if config.out:
        _write_text(config.out, csv_text)
    else:
        sys.stdout.write(csv_text)

    nominal = {node: acct.nominal_sdof.get(node, Fraction(0)) for node in (RX1, RX2)}
    mean_slopes = {node: float(np.mean(slope_acc[node])) for node in (RX1, RX2)}
    if len(powers) >= 2:
        slope_pass = all(
            abs(mean_slopes[node] - float(nominal[node])) <= config.tolerance
            for node in (RX1, RX2)
        )
        leak_pass = (not leak_acc) or abs(float(np.mean(leak_acc))) <= config.tolerance
        slope_verdict = bool(slope_pass and leak_pass)
    else:
        slope_verdict = None    # a single power cannot support a prelog fit
    summary = {
        "scheme": scheme_id.lower(),
        "slots": spec.n_slots,
        "symbols": {RX1: sym1, RX2: sym2},
        "nominal_sdof": {node: regions.fraction_json(nominal[node])
                         for node in (RX1, RX2)},
        "rate_slopes": mean_slopes,
        "leakage_slope": float(np.mean(leak_acc)) if leak_acc else 0.0,
        "tolerance": config.tolerance,
        "slopes_within_tolerance": slope_verdict,
        "decode_ok": not hard_failure,
    }
    _write_json(summary, config.summary)
    return 2 if hard_failure else 0


def _parse_lambda(text: str | None):
    if not text:
        return None
    fractions = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        try:
            label = StateLabel.parse(key.strip())
            fraction = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise SdofLabError(
                f"bad lambda entry {item!r}; use state=p/q with states of P and D") from None
        if label in fractions:
            raise SdofLabError(f"lambda gives state {label} twice")
        fractions[label] = fraction
    return validate_schedule(fractions)


def cmd_region(theorem: str, lam: str | None, compare: str | None,
               out: str | None, plot_data: str | None) -> int:
    schedule = _parse_lambda(lam)
    region = regions.region_from_theorem(theorem, schedule)
    payload = {"theorem": theorem.lower(), "region": region.to_json_dict()}
    if region.notes:
        payload["notes"] = list(region.notes)
    if compare:
        outer = regions.region_from_theorem(compare, schedule)
        gap = regions.bound_gap(region, outer)
        payload["compare"] = {
            "outer": compare.lower(),
            "outer_region": outer.to_json_dict(),
            "contained": gap.contained,
            **{key: regions.fraction_json(getattr(gap, key))
               for key in ("inner_max_sum", "outer_max_sum", "symmetric_gap")},
        }
    _write_json(payload, out)
    if plot_data:
        write_plot_data(plot_data, theorem, region)
    return 0


def write_plot_data(path: str | Path, theorem: str,
                    region: regions.RegionPolytope) -> None:
    """Write a region's boundary as gnuplot-style data: one `d1 d2` line per
    vertex, in counter-clockwise order."""
    lines = [f"# {theorem.lower()} boundary vertices (d1 d2)"]
    for v in convex_hull(region.vertices):
        lines.append(f"{_fmt(v[0])} {_fmt(v[1])}")
    _write_text(path, "\n".join(lines) + "\n")


def cmd_fm(system_path: str, eliminate: list[str] | None, out: str | None,
           check: bool) -> int:
    system = regions.system_from_json_dict(_read_json_object(system_path))
    order = eliminate if eliminate else list(system.variables)
    current = system
    for var in order:
        current = regions.fm_eliminate(current, var)
    if check and current.variables:
        raise SdofLabError(
            "--check needs a full projection, but --eliminate leaves "
            f"{', '.join(current.variables)}")
    result = regions.system_to_json_dict(current)
    ok = True
    if check:
        ok, msg = hull_agreement(system)
        result["oracle_agreement"] = {"ok": ok, "detail": msg}
    _write_json(result, out)
    return 0 if ok else 2


def cmd_verify(sub: str, fast: bool) -> int:
    from .acceptance import run_all

    results = run_all(sub=sub, fast=fast)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed"
          + (f", {len(failed)} FAILED" if failed else ""))
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    """A parser whose bad input is a one-line error with exit 1, like every
    other bad input (exit 2 is a failed invariant); its subcommand parsers
    are of this class too."""

    def error(self, message: str):
        raise SdofLabError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sdof-lab",
        description="secure-degrees-of-freedom simulation and region lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .schemes import SCHEME_IDS, SUB_PROTOCOLS, cli_name

    sim = sub.add_parser("simulate", help="run a scheme over seeds and powers")
    sim.add_argument("--config", help="JSON config file; flags override it")
    sim.add_argument("--scheme",
                     help="scheme id: " + ", ".join(cli_name(s) for s in SCHEME_IDS))
    sim.add_argument("--seeds", type=int)
    sim.add_argument("--p-exp", type=int, nargs="+", dest="p_exp",
                     help="power grid as base-2 exponents")
    sim.add_argument("--mode", choices=["noiseless", "noisy"])
    sim.add_argument("--sub", choices=SUB_PROTOCOLS,
                     help="composite sub-protocol switch")
    sim.add_argument("--blocks", type=int)
    sim.add_argument("--tolerance", type=float)
    sim.add_argument("--out", help="CSV output path (stdout otherwise)")
    sim.add_argument("--summary", help="summary JSON path (stdout otherwise)")
    sim.add_argument("--dump-trace", dest="dump_trace")
    sim.add_argument("--dump-system", dest="dump_system")
    sim.add_argument("--dump-channel", dest="dump_channel")

    reg = sub.add_parser("region", help="emit a catalog region as JSON")
    reg.add_argument("--config", help="JSON config file; flags override it")
    reg.add_argument("--theorem")
    reg.add_argument("--lambda", dest="lam",
                     help="schedule, e.g. pd=1/2,dp=1/2 or dd=1")
    reg.add_argument("--compare", help="outer region id for a containment check")
    reg.add_argument("--out")
    reg.add_argument("--plot-data", dest="plot_data")

    fm = sub.add_parser("fm", help="project a bounded-term system")
    fm.add_argument("--system", required=True, help="BoundedTermSystem JSON file")
    fm.add_argument("--eliminate", nargs="*", default=None)
    fm.add_argument("--out")
    fm.add_argument("--check", action="store_true",
                    help="cross-check a full projection against the hull oracle "
                         "(exact vertex-cycle equality)")

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.add_argument("--sub", default="tjsp53", choices=SUB_PROTOCOLS)
    ver.add_argument("--fast", action="store_true",
                     help="fewer seeds in the decodability criterion")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused by every later one
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # the flags a subcommand has, by their RunConfig names
        overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        if args.command == "simulate":
            config = RunConfig.load(args.config, overrides)
            if not config.scheme:
                raise SdofLabError("simulate needs --scheme (or a config file)")
            return cmd_simulate(config)
        if args.command == "region":
            config = RunConfig.load(args.config, overrides)
            if not config.theorem:
                raise SdofLabError("region needs --theorem (or a config file)")
            return cmd_region(config.theorem, config.lam, config.compare,
                              config.out, config.plot_data)
        if args.command == "fm":
            return cmd_fm(args.system, args.eliminate, args.out, args.check)
        if args.command == "verify":
            return cmd_verify(args.sub, args.fast)
        raise SdofLabError(f"unknown command {args.command!r}")
    except CsitViolation as exc:
        # a recipe read CSI its slot state does not grant: scheme-library bug
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except SdofLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
