"""Acceptance suite: one test per exit criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -s` for the live table, or use the
`sdof-lab verify` command.  Tolerances are fixed here and in the criterion
implementations; nothing is calibrated at run time.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from sdof_lab import acceptance
from sdof_lab.schemes import SCHEME_IDS

# SHA-256 of each criterion's `verify` line, as the benchmark's output gate
# records it
VERIFY_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)["verify"]["criteria"]


def _check(result, pinned=True):
    """The criterion passes, and a run with `verify`'s own arguments prints
    the line whose digest the benchmark records."""
    print(result.line())
    assert result.ok, result.detail
    if pinned:
        assert hashlib.sha256(result.line().encode()).hexdigest() \
            == VERIFY_DIGESTS[f"{result.number:02d}"], result.line()


def test_criterion_01_wiretap_ceiling_formula():
    _check(acceptance.criterion_1())


def test_criterion_02_fixed_state_region_vertices():
    _check(acceptance.criterion_2())


def test_criterion_03_decodability_and_secrecy_100_seeds():
    _check(acceptance.criterion_3(n_seeds=100))


def test_criterion_04_rate_slopes():
    _check(acceptance.criterion_4())


def test_criterion_05_leakage_slopes():
    assert acceptance.GRID[-1] == 2.0 ** 60     # where the nulled leakage is read
    _check(acceptance.criterion_5())


def test_criterion_06_composite_accounting_tjsp53():
    _check(acceptance.criterion_6(sub="tjsp53"))


def test_criterion_06b_composite_accounting_fallback():
    _check(acceptance.criterion_6(sub="fallback32"), pinned=False)


def test_criterion_07_converse_projection():
    _check(acceptance.criterion_7())


def test_criterion_08_containment_and_consistency():
    _check(acceptance.criterion_8())


def test_criterion_09_mi_oracle():
    _check(acceptance.criterion_9())


def test_criterion_10_output_symmetry():
    _check(acceptance.criterion_10())


def test_criterion_11_time_share_example():
    _check(acceptance.criterion_11())


def test_verify_prints_the_benchmark_lines(capsys):
    """`sdof-lab verify`, through `run_all` with criterion 9 on its own
    thread, prints every criterion line whose digest the benchmark records,
    in criterion order."""
    from sdof_lab import cli

    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(VERIFY_DIGESTS)}/{len(VERIFY_DIGESTS)} criteria passed"
    numbers = [line.split()[1] for line in lines[:-1]]     # "criterion NN [...] ..."
    assert numbers == sorted(VERIFY_DIGESTS)
    assert {number: hashlib.sha256(line.encode()).hexdigest()
            for number, line in zip(numbers, lines)} == VERIFY_DIGESTS


def test_criterion_07_runs_the_oracle_on_every_catalog_system(monkeypatch):
    """No catalog system is skipped, so a size cap on the oracle fails here."""
    from sdof_lab import fm_oracle

    seen = []
    exact = fm_oracle.hull_agreement

    def counting(system):
        seen.append(system)
        return exact(system)

    monkeypatch.setattr(fm_oracle, "hull_agreement", counting)
    _check(acceptance.criterion_7())
    assert seen == list(fm_oracle.oracle_catalog().values())


def _with_scheme_point(monkeypatch, scheme_id, theorem, point):
    table = dict(acceptance._SCHEME_REGION)
    table[scheme_id] = (theorem, None, point)
    monkeypatch.setattr(acceptance, "_SCHEME_REGION", table)


def test_criterion_08_needs_each_scheme_point_as_a_vertex(monkeypatch):
    """MR_DDP's (2/3, 2/3) lies strictly inside thm5's region: containment
    alone would pass it, the vertex check does not."""
    point = acceptance._SCHEME_REGION["MR_DDP"][2]
    _with_scheme_point(monkeypatch, "MR_DDP", "thm5", point)
    result = acceptance.criterion_8()
    assert result.status == "FAIL"
    assert result.detail == (
        "MR_DDP point (Fraction(2, 3), Fraction(2, 3)) is not a vertex of thm5")


def test_criterion_02_reads_the_scheme_points(monkeypatch):
    """Criterion 2's points of the schedule-free regions are the scheme
    table's: a point moved off thm2's vertices there fails criterion 2."""
    _with_scheme_point(monkeypatch, "MR_PPD", "thm2", (Fraction(1), Fraction(1, 2)))
    result = acceptance.criterion_2()
    assert result.status == "FAIL"
    assert result.detail == "thm2:(Fraction(1, 1), Fraction(1, 2))"


def test_criterion_03_lists_every_failing_seed(monkeypatch):
    """A failing seed does not hide the later failing seeds of its scheme."""
    from dataclasses import replace

    true_decode = acceptance.decode_batch

    def failing(batch, systems=None):
        reports = true_decode(batch, systems)
        for i, seed in enumerate(batch.seeds):
            if batch.spec.scheme_id == "WT_PP" and seed in (3, 7):
                bad = replace(reports[i].nodes["rx1"], max_residual=1.0, success=False)
                reports[i] = replace(reports[i], nodes={**reports[i].nodes, "rx1": bad})
        return reports

    monkeypatch.setattr(acceptance, "decode_batch", failing)
    result = acceptance.criterion_3(n_seeds=10)
    assert result.status == "FAIL"
    assert result.detail == ("WT_PP seed 3: residual 1.00e+00; "
                             "WT_PP seed 7: residual 1.00e+00")


def test_criterion_03_names_a_leaking_adversary(leaky_mr_ppd):
    """A scheme whose eavesdropper sees a combination of its protected
    symbols fails criterion 3 at every seed, naming the adversary and its
    leak rank."""
    result = acceptance.criterion_3(n_seeds=3)
    assert result.status == "FAIL"
    assert result.detail == "; ".join(f"MR_PPD seed {seed}: eve leak rank 1"
                                      for seed in range(3))


def test_criterion_07_projects_the_converse_once_itself(monkeypatch):
    """The facet check and the 4*d1 + d2 peak share one projection; the only
    other projection of the converse is the oracle's own."""
    from sdof_lab import regions

    converse = regions.converse_alternation_system()
    calls = []
    project = regions.project_to_coordinates

    def counting(system):
        calls.append(system == converse)
        return project(system)

    monkeypatch.setattr(regions, "project_to_coordinates", counting)
    _check(acceptance.criterion_7())
    assert calls.count(True) == 2


def test_criterion_03_assembles_each_pipeline_once(monkeypatch):
    """Each (scheme, seed) system is assembled exactly once: the oracles and
    the decoders share it."""
    import sys
    from collections import Counter

    from sdof_lab import precoding

    assembled = Counter()
    stacked = precoding.assemble_effective_systems

    def counting(batch):
        assembled.update((batch.spec.scheme_id, seed) for seed in batch.seeds)
        return stacked(batch)

    for name, module in list(sys.modules.items()):
        if name.startswith("sdof_lab") and getattr(module, "assemble_effective_systems",
                                                   None) is stacked:
            monkeypatch.setattr(module, "assemble_effective_systems", counting)
    _check(acceptance.criterion_3(n_seeds=4), pinned=False)
    assert assembled == Counter(
        {(scheme_id, seed): 1 for scheme_id in SCHEME_IDS for seed in range(4)})


def test_slope_criteria_fail_lines_show_every_slope(monkeypatch):
    """A PASS line carries no numbers; with a tolerance no slope meets, every
    case of criteria 4-6 fails, and their lines pin the slopes' digits."""
    monkeypatch.setattr(acceptance, "SLOPE_TOL", -1.0)
    rates = "; ".join([
        "MR_PPD/rx1: 1.0000 vs 1", "MR_PPD/rx2: 1.0000 vs 1",
        "MR_PDP/rx1: 1.0000 vs 1", "MR_PDP/rx2: 0.5000 vs 1/2",
        "MR_DDP/rx1: 0.6667 vs 2/3", "MR_DDP/rx2: 0.6667 vs 2/3",
        "MR_PDD/rx1: 1.0000 vs 1", "MR_PDD/rx2: 0.0000 vs 0",
        "BC_PP_S2/rx1: 1.0000 vs 1", "BC_PP_S2/rx2: 1.0000 vs 1",
        "BC_DD_S1/rx1: 0.5000 vs 1/2", "BC_DD_S1/rx2: 0.5000 vs 1/2",
        "BC_S1_43/rx1: 0.6667 vs 2/3", "BC_S1_43/rx2: 0.6667 vs 2/3",
        "BC_S2_43/rx1: 0.6667 vs 2/3", "BC_S2_43/rx2: 0.6667 vs 2/3",
        "WT_DD_23/rx1: 0.6667 vs 2/3",
        "SUB_SECURE_MULTICAST/rx1: 0.6250 vs 5/8", "SUB_SECURE_MULTICAST/rx2: 0.6250 vs 5/8",
    ])
    assert acceptance.criterion_4().line() == (
        "criterion 04 [FAIL] per-slot rate prelogs within 0.05 of nominal -- " + rates)
    assert acceptance.criterion_5().line() == (
        "criterion 05 [FAIL] leakage prelogs <= 0.05; nulled schemes exactly zero -- "
        "WT_PP/eve: leakage slope 0.0000; WT_DP/eve: leakage slope 0.0000; "
        "WT_PD/eve: leakage slope 0.0000; WT_DD_23/eve: leakage slope 0.0000")
    assert acceptance.criterion_6().line() == (
        "criterion 06 [FAIL] composite accounting and slopes (tjsp53) -- "
        "slope rx1: 0.5171 vs 15/29; slope rx2: 0.5172 vs 15/29")
    assert acceptance.criterion_6("fallback32").line() == (
        "criterion 06 [FAIL] composite accounting and slopes (fallback32) -- "
        "slope rx1: 0.5000 vs 1/2; slope rx2: 0.5000 vs 1/2")
