"""Self-tests of the benchmark: metric names and units, the output-digest
gate, fail_ratio, the fresh-seed check and the tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sdof_lab import acceptance, analysis, cli, model, schemes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_COMMAND = ("simulate", "--scheme", "wt_pp")


@pytest.fixture
def quick(monkeypatch, tmp_path):
    """Shrink every run to two repetitions and one timed set-up, writing its
    results under a temporary directory."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "MIN_REPS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    mini = dataclasses.replace(
        WORKLOADS["sweep_small"], commands=(SMALL_COMMAND,), specs=(("WT_PP", ()),),
        fresh_seeds=2, trace_pairs=2)
    monkeypatch.setitem(run.WORKLOADS, "sweep_small", mini)
    return mini


def _main(capsys, *args) -> tuple[dict, list[str]]:
    assert run.main(["--workload", "sweep_small", "--seconds", "0", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _assert_printed(result, lines, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ")
                   and f" {metric['unit']} (n=" in line for line in lines)


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(tracing.PER_LAYER)


def test_pipelines_follow_the_program_defaults(monkeypatch):
    assert workloads.pipelines(SMALL_COMMAND) == cli.RunConfig().seeds
    assert workloads.pipelines(("simulate", "--scheme", "wt_pp", "--seeds", "3")) == 3
    monkeypatch.setattr(acceptance, "criterion_3", lambda n_seeds=7: None)
    assert workloads.pipelines(("verify",)) == 7 * len(schemes.SCHEME_IDS)


def test_end_to_end_prints_every_metric_with_its_unit(quick, capsys):
    result, lines = _main(capsys, "--trace", "0")
    _assert_printed(result, lines, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_ratio = 0 ratio (0/2 operations)" in lines


def test_traced_run_prints_every_layer_metric_and_counts_repeat(quick, capsys):
    first, lines = _main(capsys, "--trace", "1", "--seed", "0")
    _assert_printed(first, lines, SPEC["per_layer"])
    second, _ = _main(capsys, "--trace", "1", "--seed", "5")
    assert first["correct"] and second["correct"]
    for name in ("program.run_scheme.calls", "precoding.matrix_cells",
                 "analysis.spectra_useful_ratio", "schemes.decode.failures"):
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["program.run_scheme.calls"]["value"] == 20
    assert first["metrics"]["schemes.decode.failures"]["value"] == 0


def test_tampered_digest_shows_in_fail_ratio(quick, capsys, monkeypatch):
    table = checks.load_digests()
    key = checks.command_key(SMALL_COMMAND)
    table[key] = dict(table[key], csv="0" * 64)
    monkeypatch.setattr(checks, "load_digests", lambda: table)
    result, lines = _main(capsys, "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert "fail_ratio = 1 ratio (2/2 operations)" in lines


def test_forced_fail_criterion_shows_in_fail_ratio(quick, capsys, monkeypatch):
    def forced():
        return acceptance.CriterionResult(11, "forced failure", "FAIL", "forced")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        (acceptance.criterion_1, acceptance.criterion_2, forced))
    verify = dataclasses.replace(run.WORKLOADS["sweep_small"], commands=(("verify",),))
    monkeypatch.setitem(run.WORKLOADS, "sweep_small", verify)
    recorded = checks.load_digests()["verify"]["criteria"]
    table = {"verify": {"criteria": {n: recorded[n] for n in ("01", "02", "11")}}}
    monkeypatch.setattr(checks, "load_digests", lambda: table)
    result, lines = _main(capsys, "--trace", "0")
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (6, 2)
    assert any(line.startswith("# FAILED verify criterion 11") for line in lines)


def test_missing_criterion_is_a_failed_operation():
    recorded = checks.load_digests()
    run_ = checks.CommandRun(("verify",), 0, "11/11 criteria passed\n", "")
    outcomes = checks.check_run(run_, recorded)
    assert len(outcomes) == len(recorded["verify"]["criteria"])
    assert not any(o.ok for o in outcomes)


def test_fresh_seeds_are_shifted_by_the_workload_seed():
    a, b = checks.fresh_seeds(0, 10), checks.fresh_seeds(1, 10)
    assert a.start >= checks.FRESH_BASE > 100_000
    assert not set(a) & set(b)


def test_fresh_seed_check_catches_a_wrong_slope(monkeypatch):
    seeds = checks.fresh_seeds(0, 2)
    assert checks.fresh_seed_check("MR_PDP", {}, seeds).ok
    true_slope = analysis.rate_slope
    monkeypatch.setattr(analysis, "rate_slope", lambda *a, **k: dataclasses.replace(
        true_slope(*a, **k), slope=true_slope(*a, **k).slope + 0.1))
    outcome = checks.fresh_seed_check("MR_PDP", {}, seeds)
    assert not outcome.ok and "rate slope" in outcome.detail


def test_tracer_restores_every_binding():
    before = (cli.sample_channel, model.sample_channel, acceptance.ALL_CRITERIA,
              acceptance.criterion_3, analysis.gaussian_mi)
    tracer = tracing.Tracer("test")
    with tracer.installed():
        assert cli.sample_channel is not before[0]
        assert model.sample_channel is cli.sample_channel
        assert acceptance.ALL_CRITERIA[2] is acceptance.criterion_3
    assert (cli.sample_channel, model.sample_channel, acceptance.ALL_CRITERIA,
            acceptance.criterion_3, analysis.gaussian_mi) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
