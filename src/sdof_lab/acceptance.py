"""The acceptance suite: every exit criterion as a callable check.

Each criterion returns a CriterionResult, PASS or FAIL; the CLI `verify`
command prints one line per criterion and the pytest acceptance module
asserts each one.  `run_all` runs criterion 9 on a second thread beside the
others, and reports a criterion that raises, on either thread, as FAIL, so
an unknown sub-protocol fails criterion 6.  Criteria 4 and 6 fit the rate
series of `schemes.rate_series`, and criterion 5 the leakage series of
`schemes.leak_series`, with `analysis.prelogs`: the series `simulate`
reports.  Each scheme's SDoF point from the paper is written once, in
`_SCHEME_REGION`: criterion 2 checks the points of the schedule-free
regions as their vertices, criterion 4 compares the rate slopes with it,
and criterion 8 pins it to the scheme's exact accounting and, where a
theorem covers the scheme, as a vertex of that theorem's region.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import analysis, regions
from .model import EVE, RX1, RX2, PowerBudget, Topology, validate_schedule
from .precoding import (
    assemble_effective_system,
    assemble_effective_systems,
    identifiability_checks,
)
from .schemes import (
    SCHEME_IDS,
    accounting,
    build_scheme,
    decode_batch,
    leak_series,
    rate_series,
    run_seed_batches,
)

SLOPE_TOL = 0.05
GRID = analysis.DEFAULT_GRID
REFERENCE_POWER = PowerBudget(1e4)


@dataclass
class CriterionResult:
    number: int
    name: str
    status: str        # PASS / FAIL
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "PASS"

    def line(self) -> str:
        return f"criterion {self.number:02d} [{self.status}] {self.name}" + (
            f" -- {self.detail}" if self.detail else "")


def _result(number, name, ok, detail="") -> CriterionResult:
    return CriterionResult(number, name, "PASS" if ok else "FAIL", detail)


def _series_prelogs(spec, n_seeds: int, series_of) -> tuple[dict, dict]:
    """`series_of`'s (system, power) series (`rate_series` or `leak_series`)
    of seeds 0..n_seeds-1 at the reference power over GRID, joined across
    the batches in seed order, and their per-seed prelogs from one fit."""
    parts = [series_of(spec, assemble_effective_systems(batch), GRID)
             for batch in run_seed_batches(spec, range(n_seeds), REFERENCE_POWER)]
    series = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    return series, analysis.prelogs(series, spec.n_slots, GRID)


def _pair_schedule(**fractions):
    return validate_schedule({k.upper(): v for k, v in fractions.items()})


# Each scheme's SDoF point (d1, d2) from the paper, and the theorem and
# lambda whose region holds it (a scheme without one: its accounting only)
_SCHEME_REGION = {
    "WT_PP": ("thm1", {"PP": 1}, (Fraction(1), Fraction(0))),
    "WT_DP": ("thm1", {"DP": 1}, (Fraction(1), Fraction(0))),
    "WT_PD": ("thm1", {"PD": 1}, (Fraction(1), Fraction(0))),
    "WT_DD_23": ("thm1", {"DD": 1}, (Fraction(2, 3), Fraction(0))),
    "MR_PPD": ("thm2", None, (Fraction(1), Fraction(1))),
    "MR_PDP": ("thm3", None, (Fraction(1), Fraction(1, 2))),
    "MR_DDP": ("thm4", None, (Fraction(2, 3), Fraction(2, 3))),
    "MR_PDD": ("thm6", None, (Fraction(1), Fraction(0))),
    "MR_S30_29_A": ("thm6", None, (Fraction(15, 29), Fraction(15, 29))),
    "MR_S30_29_B": ("thm6", None, (Fraction(15, 29), Fraction(15, 29))),
    "BC_PP_S2": ("thm8", {"PP": 1}, (Fraction(1), Fraction(1))),
    "BC_DD_S1": ("thm8", {"DD": 1}, (Fraction(1, 2), Fraction(1, 2))),
    "BC_S1_43": ("thm8", {"PD": "1/2", "DP": "1/2"},
                 (Fraction(2, 3), Fraction(2, 3))),
    # the mixed three-state point sits on the broadcast outer boundary; the
    # inner bound is strictly smaller there, so the outer region certifies it
    "BC_S2_43": ("thm7", {"DD": "1/3", "PD": "1/3", "DP": "1/3"},
                 (Fraction(2, 3), Fraction(2, 3))),
    "SUB_SECURE_MULTICAST": (None, None, (Fraction(5, 8), Fraction(5, 8))),
}


def criterion_1() -> CriterionResult:
    """Wiretap ceiling formula over random rational schedules."""
    gen = np.random.default_rng(20240801)
    ok = True
    details = []
    for _ in range(10):
        weights = [Fraction(int(gen.integers(0, 7)), 1) for _ in range(4)]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        total = sum(weights)
        lam = {s: w / total for s, w in zip(("PP", "PD", "DP", "DD"), weights)}
        schedule = _pair_schedule(**lam)
        region = regions.region_from_theorem("thm1", schedule)
        ds = max(v[0] for v in region.vertices)
        expect = 1 - lam["DD"] / 3
        if ds != expect:
            ok = False
            details.append(f"{lam} -> {ds} != {expect}")
    for lam_dd, expect in ((Fraction(1), Fraction(2, 3)), (Fraction(0), Fraction(1))):
        schedule = _pair_schedule(pp=1 - lam_dd, dd=lam_dd)
        region = regions.region_from_theorem("thm1", schedule)
        if max(v[0] for v in region.vertices) != expect:
            ok = False
            details.append(f"lam_DD={lam_dd} corner wrong")
    return _result(1, "ceiling formula d_s = 1 - lambda_DD/3 (exact)", ok,
                   "; ".join(details))


def criterion_2() -> CriterionResult:
    """Exact vertex membership for the fixed-state and alternation regions:
    the scheme points of the regions that take no schedule, and thm5's
    outer corner, which no scheme attains."""
    want = sorted({(theorem, point) for theorem, lam, point in _SCHEME_REGION.values()
                   if theorem and lam is None}
                  | {("thm5", (Fraction(17, 20), Fraction(17, 20)))})
    missing = [
        f"{theorem}:{point}" for theorem, point in want
        if point not in regions.region_from_theorem(theorem).vertices
    ]
    return _result(2, "fixed-state and alternation regions: exact vertices",
                   not missing, "; ".join(missing))


def criterion_3(n_seeds: int = 100) -> CriterionResult:
    """Noiseless decodability and secrecy, all schemes: every receiver
    decodes, and every adversary's leak rank is 0.

    Also pins the companion invariant: the generic decodability check
    agrees with every hand-written decoder on its own targets.  Every
    failing (scheme, seed) is listed, a leak with its adversary and rank.
    Each batch of seeds is assembled once, and the checks and leak ranks
    (both `precoding.resolved_ranks`) run on its stack of systems.
    """
    failures = []
    for scheme_id in SCHEME_IDS:
        spec = build_scheme(scheme_id)
        for batch in run_seed_batches(spec, range(n_seeds), REFERENCE_POWER):
            systems = assemble_effective_systems(batch)
            agree = np.ones(len(batch.seeds), dtype=bool)
            for node in spec.receivers:
                agree &= identifiability_checks(systems, node, spec.message_sids(node))
            for seed, report, ok in zip(batch.seeds, decode_batch(batch, systems), agree):
                if not report.all_success:
                    failure = f"residual {report.max_residual:.2e}"
                elif report.any_protected_identifiable:
                    failure = ", ".join(f"{adv} leak rank {rank}"
                                        for adv, rank in report.leak_ranks.items() if rank)
                elif ok:
                    continue
                else:
                    failure = "oracle disagrees with a successful decoder"
                failures.append(f"{scheme_id} seed {seed}: {failure}")
            del batch, systems      # freed before the next batch is built
    return _result(3, f"decodability + secrecy structure ({n_seeds} seeds/scheme)",
                   not failures, "; ".join(failures))


# criterion 4's schemes, in the order it reports them
_SLOPE_SCHEMES = ("MR_PPD", "MR_PDP", "MR_DDP", "MR_PDD", "BC_PP_S2", "BC_DD_S1",
                  "BC_S1_43", "BC_S2_43", "WT_DD_23", "SUB_SECURE_MULTICAST")


def criterion_4(n_seeds: int = 5) -> CriterionResult:
    """Rate prelogs match nominal SDoF within the slope tolerance."""
    failures = []
    for scheme_id in _SLOPE_SCHEMES:
        spec = build_scheme(scheme_id)
        _, slopes = _series_prelogs(spec, n_seeds, rate_series)
        point = _SCHEME_REGION[scheme_id][2]
        for node, nominal in zip((RX1, RX2)[:spec.topology.receivers], point):
            # a receiver without messages (MR_PDD's rx2) has zero rate
            mean = float(np.mean(slopes.get(node, 0.0)))
            if abs(mean - float(nominal)) > SLOPE_TOL:
                failures.append(f"{scheme_id}/{node}: {mean:.4f} vs {nominal}")
    return _result(4, "per-slot rate prelogs within 0.05 of nominal",
                   not failures, "; ".join(failures))


def criterion_5(n_seeds: int = 5) -> CriterionResult:
    """Leakage prelogs vanish; nulled schemes leak exactly zero."""
    failures = []
    secure = [sid for sid in SCHEME_IDS if build_scheme(sid).protected]
    for scheme_id in secure:
        spec = build_scheme(scheme_id)
        leaks, slopes = _series_prelogs(spec, n_seeds, leak_series)
        for adv, values in leaks.items():
            if scheme_id in ("MR_PDP", "MR_DDP"):
                # the nulled leakage at GRID's last power, 2^60
                failures += [f"{scheme_id}: nulled leakage {bits:.2e}"
                             for bits in values[:, -1] if bits > 1e-6]
            mean = float(np.mean(slopes[adv]))
            if abs(mean) > SLOPE_TOL:
                failures.append(f"{scheme_id}/{adv}: leakage slope {mean:.4f}")
    return _result(5, "leakage prelogs <= 0.05; nulled schemes exactly zero",
                   not failures, "; ".join(failures[:4]))


def criterion_6(sub: str = "tjsp53", n_seeds: int = 3) -> CriterionResult:
    """Composite superframe accounting and measured rate prelogs."""
    failures = []
    spec = build_scheme("MR_S30_29_A", sub=sub)
    report = accounting(spec)
    if sub == "tjsp53":
        if spec.n_slots != 58 or report.symbols_per_receiver != {RX1: 30, RX2: 30}:
            failures.append(f"superframe {spec.n_slots} slots, "
                            f"{report.symbols_per_receiver}")
        expect = Fraction(15, 29)
    else:
        expect = Fraction(1, 2)
    _, slopes = _series_prelogs(spec, n_seeds, rate_series)
    for node in (RX1, RX2):
        if report.nominal_sdof[node] != expect:
            failures.append(f"accounting {node}: {report.nominal_sdof[node]}")
        mean = float(np.mean(slopes[node]))
        if abs(mean - float(expect)) > SLOPE_TOL:
            failures.append(f"slope {node}: {mean:.4f} vs {expect}")
    return _result(6, f"composite accounting and slopes ({sub})",
                   not failures, "; ".join(failures))


def criterion_7() -> CriterionResult:
    """Converse reproduction: elimination yields 4*d1 + d2 <= 17/4 exactly,
    and the eliminator agrees with the exact lifted-vertex oracle."""
    from .regions import converse_alternation_system, project_to_coordinates

    failures = []
    projected = project_to_coordinates(converse_alternation_system())
    normalized = {
        tuple(sorted(row.normalized().coeffs.items())): row.normalized().rhs
        for row in projected.inequalities
    }
    facet = (("d1", Fraction(16)), ("d2", Fraction(4)))
    if normalized.get(facet) != Fraction(17):
        failures.append(f"facet missing; rows: {sorted(normalized.items())}")
    region = regions.projected_region(projected)
    peak = max((4 * v[0] + v[1] for v in region.vertices), default=None)
    if peak != Fraction(17, 4):
        failures.append(f"max 4*d1+d2 = {peak}")
    from .fm_oracle import hull_agreement, oracle_catalog
    for name, system in oracle_catalog().items():
        agree, msg = hull_agreement(system)
        if not agree:
            failures.append(f"oracle disagrees on {name}: {msg}")
    return _result(7, "converse facet 16*d1+4*d2 <= 17 and projection oracle",
                   not failures, "; ".join(failures))


def criterion_8() -> CriterionResult:
    """Containment and catalog consistency."""
    failures = []
    try:
        regions.bound_gap(regions.region_from_theorem("thm6"),
                          regions.region_from_theorem("thm5"))
    except Exception as exc:
        failures.append(f"thm6 not inside thm5: {exc}")
    for scheme_id, (theorem, lam, point) in _SCHEME_REGION.items():
        spec = build_scheme(scheme_id)
        report = accounting(spec)
        nominal = (report.nominal_sdof.get(RX1, Fraction(0)),
                   report.nominal_sdof.get(RX2, Fraction(0)))
        if nominal != point:
            failures.append(f"{scheme_id} nominal {nominal} != {point}")
        if theorem is None:
            continue
        schedule = validate_schedule(lam) if lam else None
        region = regions.region_from_theorem(theorem, schedule)
        # the theorem's lambda is the scheme's own slot program's
        if schedule and spec.state_fractions() != schedule.fractions:
            failures.append(f"{scheme_id} state fractions differ from lambda {lam}")
        if nominal not in region.vertices:
            failures.append(f"{scheme_id} point {nominal} is not a vertex of {theorem}")
    for lam in ({"PP": 1}, {"DD": 1}):
        schedule = validate_schedule(lam)
        outer = regions.region_from_theorem("thm7", schedule)
        inner = regions.region_from_theorem("thm8", schedule)
        if not regions.region_equal(outer, inner):
            failures.append(f"thm7 != thm8 at {lam}")
    return _result(8, "containment, scheme points in regions, bound coincidence",
                   not failures, "; ".join(failures))


# criterion 9's (scheme, node) cases: case i runs scheme seed 1000 + i and
# Monte-Carlo seed i
_MC_CASES = (
    ("WT_PP", RX1), ("WT_PD", EVE), ("WT_PD", RX1), ("WT_DD_23", EVE),
    ("WT_DD_23", RX1), ("MR_PPD", EVE), ("MR_PDP", RX1), ("MR_DDP", EVE),
    ("BC_S1_43", RX2), ("BC_PP_S2", RX1),
)
_MC_POWER = 1e4
_MC_SAMPLES = 200_000


def _mc_cases() -> list[tuple]:
    """Criterion 9's cases as (label, system, node, secret, known, mc seed)."""
    cases = []
    for idx, (scheme_id, node) in enumerate(_MC_CASES):
        spec = build_scheme(scheme_id)
        batch, = run_seed_batches(spec, [1000 + idx], PowerBudget(_MC_POWER))
        system = assemble_effective_system(batch)
        secret = sorted(spec.protected.get(node) or system.message_sids(node))
        known = spec.adversary_known.get(node, frozenset())
        cases.append((f"{scheme_id}/{node}", system, node, secret, known, idx))
    return cases


def criterion_9() -> CriterionResult:
    """Closed-form mutual information against the Monte-Carlo oracle."""
    failures = []
    for label, system, node, secret, known, seed in _mc_cases():
        exact = analysis.gaussian_mi(system, node, secret, _MC_POWER, known=known).bits
        mc = analysis.mc_mi_oracle(system, node, secret, _MC_POWER,
                                   n_samples=_MC_SAMPLES, seed=seed, known=known)
        tol = max(0.02 * abs(exact), 0.05)
        # written so that a NaN estimate fails
        if not abs(mc.bits - exact) <= tol:
            failures.append(f"{label}: exact {exact:.4f}, mc {mc.bits:.4f}")
    return _result(9, "gaussian_mi vs Monte-Carlo oracle within max(2%, 0.05 bits)",
                   not failures, "; ".join(failures))


def criterion_10() -> CriterionResult:
    """Output-symmetry gap within 3 standard errors; degenerate twin exact."""
    failures = []
    rep = analysis.check_output_symmetry(Topology.wiretap(), n_trials=1000, seed=11)
    if rep.abs_gap > 3 * rep.std_error:
        failures.append(f"gap {rep.abs_gap:.4f} > 3*SE {3 * rep.std_error:.4f}")
    same = analysis.check_output_symmetry(Topology.wiretap(), n_trials=1000,
                                          seed=11, twin_equals_actual=True)
    if same.abs_gap > 1e-9:
        failures.append(f"degenerate twin gap {same.abs_gap:.2e}")
    zero = analysis.check_output_symmetry(Topology.wiretap(), n_trials=1000,
                                          seed=11, zero_input=True)
    if zero.abs_gap > 1e-9:
        failures.append(f"zero-input gap {zero.abs_gap:.2e}")
    return _result(10, "channel output symmetry (3 SE; degenerate exact)",
                   not failures, "; ".join(failures))


def criterion_11() -> CriterionResult:
    """Asymmetric time-sharing arithmetic reproduces sum SDoF 10/9."""
    point = regions.time_share([
        ((Fraction(2, 3), Fraction(2, 3)), Fraction(1, 3)),
        ((Fraction(1), Fraction(0)), Fraction(2, 3)),
    ])
    ok = point[0] + point[1] == Fraction(10, 9)
    return _result(11, "asymmetric alternation time share sums to 10/9 (exact)",
                   ok, f"got {point[0] + point[1]}")


ALL_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
)


def _run(number: int, fn, sub: str, fast: bool) -> CriterionResult:
    """One criterion with `verify`'s arguments; a crash is a failed
    criterion, not a crash."""
    try:
        if fn is criterion_3 and fast:
            return fn(n_seeds=10)
        if fn is criterion_6:
            return fn(sub=sub)
        return fn()
    except Exception as exc:
        return CriterionResult(
            number, fn.__doc__.splitlines()[0] if fn.__doc__ else fn.__name__,
            "FAIL", f"exception: {type(exc).__name__}: {exc}")


def run_all(sub: str = "tjsp53", fast: bool = False) -> list[CriterionResult]:
    """Every criterion of `ALL_CRITERIA`, its results in criterion order.

    Criterion 9 starts first, on a thread of its own, and every other
    criterion runs in order on the calling thread.  Criterion 9's time goes
    to Philox fills and BLAS products, which release the GIL, and theirs
    mostly to code that holds it, so the two overlap.  Each thread draws
    through its own generator (`rng`), so no result changes.  The thread is
    joined before this returns or raises."""
    criteria = tuple(enumerate(ALL_CRITERIA, start=1))
    results: list = [None] * len(criteria)

    def run(i: int) -> None:
        results[i] = _run(*criteria[i], sub, fast)

    # criterion 9 as the module binds it at call time, so that a wrapped one
    # is found too
    aside = next((i for i, (_, fn) in enumerate(criteria) if fn is criterion_9), None)
    worker = None
    if aside is not None:
        worker = threading.Thread(target=run, args=(aside,), name="criterion-9")
        worker.start()
    try:
        for i in range(len(criteria)):
            if i != aside:
                run(i)
    finally:
        if worker is not None:
            worker.join()
    return results
