"""Command-line surface: determinism, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sdof_lab import cli, schemes
from sdof_lab.analysis import DEFAULT_GRID, leakage_slope, rate_slope
from sdof_lab.cli import main
from sdof_lab.model import RX1, RX2, PowerBudget, sample_channel
from sdof_lab.precoding import assemble_effective_system
from sdof_lab.schemes import (
    SCHEME_IDS, build_scheme, composite, from_cli_name, program, run_scheme,
)
from sdof_lab.regions import converse_alternation_system, system_to_json_dict


def run_cli(*argv):
    return main(list(argv))


# SHA-256 of the three --dump-* files of two runs: a noisy multi-seed run
# and a composite superframe
DUMP_DIGESTS = {
    ("--scheme", "mr_ddp", "--seeds", "3", "--mode", "noisy"): {
        "trace": "c153c4cbec6d462fcc5046c4fbabb59d5f190158c436f6fdc02437b3f4daf967",
        "system": "c19170e0eabcb0975b9af910a4a72cf2027f664042cb8582e5e13842f2f15100",
        "channel": "324de73f469eb41aa586f4459205a34360f3cb6ba4e6bd581f18dbdb7a6be2dd",
    },
    ("--scheme", "mr_s30_29_a", "--blocks", "10", "--seeds", "1"): {
        "trace": "8cd6123c35a3f8d6128619ebf369e5f90a5a64c0277e0c261ed4d7211d5853a1",
        "system": "51852905dc52336f917e19c6762091cf40e954bc8aaa5435aa00055dee1d0ca8",
        "channel": "653a575d2520c78dbe138323e07043285825800be74f7c7218166ff80219e1f9",
    },
}


# The benchmark's recorded output digests, keyed by command line.  Its
# composite command's bytes depend on the BLAS thread count (they match with
# one OpenBLAS thread, not with two), so it runs in a fresh interpreter with
# one BLAS thread, as the benchmark runs it.
BENCH_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())
COMPOSITES = ("MR_S30_29_A", "MR_S30_29_B")
SIMULATE_DIGEST_KEYS = sorted(
    key for key in BENCH_DIGESTS
    if key.startswith("simulate ") and from_cli_name(key.split()[2]) not in COMPOSITES)


class TestSimulate:
    def test_summary_and_rows(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        summary_path = tmp_path / "summary.json"
        code = run_cli("simulate", "--scheme", "mr_ddp", "--seeds", "3",
                       "--out", str(csv_path), "--summary", str(summary_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("scheme_id,seed,power,slots,symbols_rx1,symbols_rx2,"
                            "rate_rx1_bits,rate_rx2_bits,leakage_bits,"
                            "decode_residual_max")
        assert len(lines) == 1 + 3 * 5      # seeds x default grid
        summary = json.loads(summary_path.read_text())
        assert summary["nominal_sdof"]["rx1"] == [2, 3]
        assert summary["slopes_within_tolerance"] is True
        assert summary["decode_ok"] is True

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("simulate", "--scheme", "bc_s1_43", "--seeds", "2",
                           "--out", str(path),
                           "--summary", str(tmp_path / "s.json")) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scheme": "mr_pdp", "seeds": 2,
                                      "p_exp": [20, 40]}))
        out = tmp_path / "rows.csv"
        code = run_cli("simulate", "--config", str(config), "--seeds", "1",
                       "--out", str(out), "--summary", str(tmp_path / "s.json"))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 1 * 2

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scheme": "mr_pdp", "bogus": 1}))
        assert run_cli("simulate", "--config", str(config)) == 1

    def test_single_power_point(self, tmp_path):
        summary_path = tmp_path / "s.json"
        code = run_cli("simulate", "--scheme", "mr_ppd", "--seeds", "2",
                       "--p-exp", "30",
                       "--out", str(tmp_path / "r.csv"),
                       "--summary", str(summary_path))
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["slopes_within_tolerance"] is None
        assert summary["decode_ok"] is True

    def test_unknown_scheme_exit_code(self, tmp_path):
        assert run_cli("simulate", "--scheme", "nope") == 1

    def test_dumps(self, tmp_path):
        trace_p = tmp_path / "trace.json"
        system_p = tmp_path / "system.json"
        chan_p = tmp_path / "chan.json"
        code = run_cli("simulate", "--scheme", "mr_ppd", "--seeds", "1",
                       "--out", str(tmp_path / "rows.csv"),
                       "--summary", str(tmp_path / "s.json"),
                       "--dump-trace", str(trace_p),
                       "--dump-system", str(system_p),
                       "--dump-channel", str(chan_p))
        assert code == 0
        trace = json.loads(trace_p.read_text())
        assert trace["scheme"] == "MR_PPD"
        system = json.loads(system_p.read_text())
        assert {s["sid"] for s in system["symbols"]} == {"v", "w", "u"}
        chan = json.loads(chan_p.read_text())
        assert chan["topology"] == "multi_receiver"

    @pytest.mark.parametrize("argv", list(DUMP_DIGESTS), ids=["mr_ddp-noisy", "composite-b10"])
    def test_dump_bytes_are_pinned(self, tmp_path, argv):
        paths = {name: tmp_path / f"{name}.json" for name in DUMP_DIGESTS[argv]}
        assert run_cli("simulate", *argv,
                       "--out", str(tmp_path / "rows.csv"),
                       "--summary", str(tmp_path / "s.json"),
                       *(arg for name, path in paths.items()
                         for arg in (f"--dump-{name}", str(path)))) == 0
        assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
                for name, path in paths.items()} == DUMP_DIGESTS[argv]

    def test_dumps_the_first_failing_seed(self, tmp_path, monkeypatch):
        from dataclasses import replace

        true_decode = schemes._decode_receivers

        def failing(view):
            nodes = true_decode(view)
            if view.seed in (2, 3):
                bad = replace(nodes[RX1], max_residual=1.0, success=False)
                nodes = {**nodes, RX1: bad}
            return nodes

        monkeypatch.setattr(schemes, "_decode_receivers", failing)
        paths = {name: tmp_path / f"{name}.json" for name in ("trace", "system", "chan")}
        code = run_cli("simulate", "--scheme", "mr_ppd", "--seeds", "5",
                       "--out", str(tmp_path / "rows.csv"),
                       "--summary", str(tmp_path / "s.json"),
                       "--dump-trace", str(paths["trace"]),
                       "--dump-system", str(paths["system"]),
                       "--dump-channel", str(paths["chan"]))
        assert code == 2
        assert json.loads(paths["trace"].read_text())["seed"] == 2
        assert json.loads(paths["chan"].read_text())["seed"] == 2
        spec = build_scheme("MR_PPD")
        channels = sample_channel(spec.topology, spec.n_slots, 2)
        trace = run_scheme(spec, channels, PowerBudget(DEFAULT_GRID[0]), "noiseless", 2)
        assert paths["system"].read_text() == assemble_effective_system(trace).to_json()

    def test_dumps_seed_zero_when_nothing_fails(self, tmp_path):
        trace_p = tmp_path / "trace.json"
        code = run_cli("simulate", "--scheme", "wt_pd", "--seeds", "3",
                       "--out", str(tmp_path / "rows.csv"),
                       "--summary", str(tmp_path / "s.json"),
                       "--dump-trace", str(trace_p))
        assert code == 0
        assert json.loads(trace_p.read_text())["seed"] == 0

    def test_oracle_failure_in_a_later_chunk_is_dumped(self, tmp_path, monkeypatch):
        spec = build_scheme("MR_PPD")
        monkeypatch.setattr(program, "BATCH_CELLS", 2 * spec.n_slots * len(spec.symbols))
        true_oracle = schemes.resolved_ranks
        chunks = []

        def flagging(systems, *args):
            # chunks of two seeds: the second chunk holds seeds 2 and 3; the
            # scheme has one adversary, so one call per chunk
            ranks = true_oracle(systems, *args)
            chunks.append(len(systems.matrices[RX1]))
            if len(chunks) >= 2:
                ranks[-1] = 1
            return ranks

        monkeypatch.setattr(schemes, "resolved_ranks", flagging)
        trace_p = tmp_path / "trace.json"
        summary_p = tmp_path / "s.json"
        code = run_cli("simulate", "--scheme", "mr_ppd", "--seeds", "6",
                       "--out", str(tmp_path / "rows.csv"), "--summary", str(summary_p),
                       "--dump-trace", str(trace_p))
        assert code == 2
        assert chunks == [2, 2, 2]
        assert json.loads(trace_p.read_text())["seed"] == 3
        assert json.loads(summary_p.read_text())["decode_ok"] is False

    def test_a_leak_rank_exits_two(self, tmp_path, leaky_mr_ppd):
        """A seed whose eavesdropper has a nonzero leak rank is a failed
        invariant, though every receiver decodes."""
        summary_p = tmp_path / "s.json"
        assert run_cli("simulate", "--scheme", "mr_ppd", "--seeds", "5",
                       "--out", str(tmp_path / "rows.csv"), "--summary", str(summary_p)) == 2
        assert json.loads(summary_p.read_text())["decode_ok"] is False

    def test_analysis_runs_once_per_chunk(self, tmp_path, monkeypatch):
        """A 20-seed run assembles its systems, decodes them and takes each
        adversary's leak rank once per chunk; only sampling, execution and
        the hand decoders run per seed."""
        calls = {name: 0 for name in (
            "assemble_effective_systems", "assemble_effective_system", "decode_batch",
            "resolved_ranks", "run_scheme", "_decode_receivers")}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for name in ("assemble_effective_systems", "assemble_effective_system",
                     "decode_batch", "run_scheme"):
            counting(cli, name)
        for name in ("resolved_ranks", "_decode_receivers"):
            counting(schemes, name)
        spec = build_scheme("MR_DDP")
        assert len(list(schemes.seed_chunks(spec, range(20)))) == 1
        assert run_cli("simulate", "--scheme", "mr_ddp", "--seeds", "20",
                       "--out", str(tmp_path / "r.csv"),
                       "--summary", str(tmp_path / "s.json")) == 0
        assert calls == {"assemble_effective_systems": 1, "assemble_effective_system": 0,
                         "decode_batch": 1,
                         "resolved_ranks": len(spec.protected),
                         "run_scheme": 20, "_decode_receivers": 20}

    @pytest.mark.parametrize("argv", [
        *(pytest.param(("--scheme", s.lower()), id=s.lower()) for s in SCHEME_IDS),
        pytest.param(("--scheme", "mr_s30_29_a", "--sub", "fallback32"),
                     id="mr_s30_29_a-fallback32"),
    ])
    def test_one_seed_chunks_give_the_same_bytes(self, tmp_path, monkeypatch, argv):
        """Stacking a chunk's analysis changes no output byte: runs whose
        chunks hold one seed each write what the default chunks write (the
        composites' 20 seeds span several default chunks)."""
        def outputs(mode, tag):
            paths = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
            run_cli("simulate", *argv, "--mode", mode,
                    "--out", str(paths[0]), "--summary", str(paths[1]))
            return [path.read_bytes() for path in paths]

        for mode in ("noiseless", "noisy"):
            chunked = outputs(mode, "chunked")
            with monkeypatch.context() as patch:
                patch.setattr(program, "BATCH_CELLS", 1)
                alone = outputs(mode, "alone")
            assert chunked == alone, mode

    @pytest.mark.parametrize("scheme", ["mr_ddp", "bc_s1_43", "wt_dd_23"])
    def test_summary_slopes_match_analysis(self, tmp_path, scheme):
        """The slopes fitted from the row values equal the mean of
        rate_slope/leakage_slope over the same seeds, bit for bit."""
        summary_path = tmp_path / "s.json"
        assert run_cli("simulate", "--scheme", scheme, "--seeds", "3",
                       "--out", str(tmp_path / "r.csv"),
                       "--summary", str(summary_path)) == 0
        spec = build_scheme(from_cli_name(scheme))
        rates = {RX1: [], RX2: []}
        leaks = []
        for seed in range(3):
            channels = sample_channel(spec.topology, spec.n_slots, seed)
            trace = run_scheme(spec, channels, PowerBudget(DEFAULT_GRID[0]),
                               "noiseless", seed)
            system = assemble_effective_system(trace)
            for node, acc in rates.items():
                present = node in spec.topology.nodes() and system.message_sids(node)
                acc.append(rate_slope(system, node, spec.n_slots).slope
                           if present else 0.0)
            leaks.append(max([0.0] + [
                leakage_slope(system, adv, sorted(secret), spec.n_slots,
                              spec.adversary_known.get(adv, frozenset())).slope
                for adv, secret in sorted(spec.protected.items())]))
        summary = json.loads(summary_path.read_text())
        assert summary["rate_slopes"] == {
            node: float(np.mean(acc)) for node, acc in rates.items()}
        assert summary["leakage_slope"] == float(np.mean(leaks))

    def test_composite_sub_switch(self, tmp_path):
        summary_path = tmp_path / "s.json"
        code = run_cli("simulate", "--scheme", "mr_s30_29_a", "--sub",
                       "fallback32", "--seeds", "1",
                       "--out", str(tmp_path / "r.csv"),
                       "--summary", str(summary_path))
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["nominal_sdof"]["rx1"] == [1, 2]
        assert summary["slots"] == 36

    def test_oversized_superframe_is_refused_before_it_is_built(self, capsys):
        """A superframe above the bound is one error line and exit 1; the
        bound is checked before anything is built, so nothing large is
        allocated."""
        blocks = composite.MAX_BLOCKS + 1
        tracemalloc.start()
        try:
            code = run_cli("simulate", "--scheme", "mr_s30_29_a", "--blocks", str(blocks),
                           "--seeds", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: blocks={blocks} is above the largest superframe, "
                                f"{composite.MAX_BLOCKS} blocks\n")
        assert peak < 1 << 20

    def test_digest_gate_covers_every_small_scheme(self):
        assert sorted(from_cli_name(key.split()[2]) for key in SIMULATE_DIGEST_KEYS) \
            == sorted(set(SCHEME_IDS) - set(COMPOSITES))

    @pytest.mark.parametrize("key", SIMULATE_DIGEST_KEYS)
    def test_outputs_match_the_benchmark_digests(self, capsys, key):
        """The CSV and summary of each small-scheme `simulate` command the
        benchmark runs hash to the digests its output gate records."""
        assert main(key.split()) == 0
        out = capsys.readouterr().out
        cut = out.find("\n{") + 1     # the CSV, then the summary
        assert {"csv": hashlib.sha256(out[:cut].encode()).hexdigest(),
                "summary": hashlib.sha256(out[cut:].encode()).hexdigest()} \
            == BENCH_DIGESTS[key]

    def test_composite_output_matches_the_benchmark_digest_at_one_blas_thread(self):
        key = "simulate --scheme mr_s30_29_a --blocks 40 --seeds 1"
        threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1")
        out = subprocess.run(
            [sys.executable, "-m", "sdof_lab.cli", *key.split()], capture_output=True,
            text=True, check=True,
            env={**os.environ, **threads, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        ).stdout
        cut = out.find("\n{") + 1
        assert {"csv": hashlib.sha256(out[:cut].encode()).hexdigest(),
                "summary": hashlib.sha256(out[cut:].encode()).hexdigest()} \
            == BENCH_DIGESTS[key]


class TestRegion:
    def test_compare(self, tmp_path):
        out = tmp_path / "region.json"
        assert run_cli("region", "--theorem", "thm6", "--compare", "thm5",
                       "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["compare"]["contained"] is True
        verts = payload["region"]["vertices"]
        assert [15, 29, 15, 29] in verts
        outer = payload["compare"]["outer_region"]["vertices"]
        assert [17, 20, 17, 20] in outer

    def test_thm1_lambda(self, tmp_path, capsys):
        assert run_cli("region", "--theorem", "thm1", "--lambda", "dd=1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert [2, 3, 0, 1] in payload["region"]["vertices"]

    def test_thm8_pure_state_equals_thm7(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("region", "--theorem", "thm8", "--lambda", "pp=1",
                       "--out", str(a)) == 0
        assert run_cli("region", "--theorem", "thm7", "--lambda", "pp=1",
                       "--out", str(b)) == 0
        va = json.loads(a.read_text())["region"]["vertices"]
        vb = json.loads(b.read_text())["region"]["vertices"]
        assert va == vb

    def test_repeated_lambda_state_is_named(self, capsys):
        assert run_cli("region", "--theorem", "thm1", "--lambda", "pp=1,pd=0,pp=0") == 1
        assert capsys.readouterr().err == "error: lambda gives state PP twice\n"

    def test_unknown_theorem(self):
        assert run_cli("region", "--theorem", "thm99") == 1

    def test_region_config_file(self, tmp_path, capsys):
        config = tmp_path / "region.json"
        config.write_text(json.dumps({"theorem": "thm1", "lam": "dd=1"}))
        assert run_cli("region", "--config", str(config)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [2, 3, 0, 1] in payload["region"]["vertices"]

    def test_plot_data(self, tmp_path):
        plot = tmp_path / "plot.txt"
        assert run_cli("region", "--theorem", "thm4",
                       "--out", str(tmp_path / "r.json"),
                       "--plot-data", str(plot)) == 0
        lines = plot.read_text().splitlines()
        assert lines[0].startswith("#")
        assert any(line.startswith("0.6666") for line in lines)
        # the boundary is written as a counter-clockwise cycle, so a plotted
        # path does not cross itself
        assert run_cli("region", "--theorem", "thm3",
                       "--out", str(tmp_path / "r3.json"),
                       "--plot-data", str(plot)) == 0
        assert plot.read_text().splitlines()[1:] == ["0 0", "1 0", "1 0.5", "0 1"]


class _Unlistable:
    def __iter__(self):
        raise MemoryError


def _range_listed_below_a_million(n):
    """`range`, except that listing a million or more items fails as the
    allocation would on a machine without the memory, without allocating."""
    return range(n) if n < 10 ** 6 else _Unlistable()


@pytest.mark.parametrize("argv, files", [
    (("simulate", "--scheme", "wt_pp", "--seeds", "0"), {}),
    (("simulate", "--scheme", "wt_pp", "--seeds", "1000000000000"), {}),
    (("simulate", "--scheme", "wt_pp", "--p-exp", "2000"), {}),
    (("simulate", "--scheme", "wt_pp", "--p-exp", "-2000"), {}),
    (("region", "--theorem", "thm1", "--lambda", "dd=abc"), {}),
    (("region", "--theorem", "thm1", "--lambda", "xx=1"), {}),
    (("region", "--theorem", "thm1", "--lambda", "pp=1,pp=0"), {}),
    (("region", "--config", "{tmp}/c.json"),
     {"c.json": json.dumps({"theorem": "thm1", "lam": "pd=1/2,qq=1/2"})}),
    (("simulate", "--config", "{tmp}/c.json"),
     {"c.json": json.dumps({"scheme": "wt_pp", "seeds": "3"})}),
    (("fm", "--system", "{tmp}/s.json"), {"s.json": json.dumps({"variables": 3})}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [], "inequalities": [{"coeffs": 1}]})}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [], "inequalities": [
         {"coeffs": {"d1": [1, 0]}, "rhs": [1, 1]}]})}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [{"name": "a"}], "inequalities": [
         {"coeffs": {"a": [1, 1]}, "rhs": [-1, 1]}]})}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [], "inequalities": [
         {"coeffs": {}, "rhs": [-1, 1]}]})}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [], "inequalities": [
         {"coeffs": {"d1": [1, 1], "z": [-1, 1]}, "rhs": [0, 1]}]})}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [{"name": "a"}, {"name": "a"}], "inequalities": [
         {"coeffs": {"d1": [1, 1], "a": [-1, 1]}, "rhs": [0, 1]}]})}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [{"name": "d1"}], "inequalities": [
         {"coeffs": {"d1": [1, 1]}, "rhs": [1, 1]}]})}),
    (("simulate", "--config", "{tmp}/missing.json"), {}),
    (("fm", "--system", "{tmp}/missing.json"), {}),
    (("simulate", "--config", "{tmp}/c.json"), {"c.json": "{"}),
    (("fm", "--system", "{tmp}/s.json"), {"s.json": "{"}),
    (("simulate", "--config", "{tmp}/c.json"), {"c.json": "3"}),
    (("simulate", "--scheme", "wt_pp", "--seeds", "1",
      "--out", "{tmp}/missing/rows.csv"), {}),
    (("region", "--theorem", "thm3", "--out", "{tmp}/missing/r.json"), {}),
    (("simulate", "--scheme", "mr_ddp", "--blocks", "7"), {}),
    (("simulate", "--scheme", "wt_pp", "--tolerance", "nan"), {}),
    (("simulate", "--scheme", "wt_pp", "--tolerance", "inf"), {}),
    (("simulate", "--scheme", "wt_pp", "--tolerance", "-1"), {}),
    (("simulate", "--config", "{tmp}/c.json"),
     {"c.json": json.dumps({"scheme": "wt_pp", "tolerance": float("nan")})}),
    (("fm", "--system", "{tmp}/s.json", "--eliminate", "a", "--check"),
     {"s.json": json.dumps(system_to_json_dict(converse_alternation_system()))}),
    (("simulate", "--scheme", "wt_pp", "--sub", "fallback32"), {}),
    (("simulate", "--config", "{tmp}/c.json"),
     {"c.json": json.dumps({"scheme": "wt_pp", "sub": "tjsp53"})}),
    (("simulate", "--scheme", "wt_pp", "--mode", "bogus"), {}),
    (("simulate", "--scheme", "wt_pp", "--seeds", "abc"), {}),
    (("simulate", "--scheme", "wt_pp", "--p-exp", "nan"), {}),
    (("simulate", "--scheme", "wt_pp", "--bogus"), {}),
    (("verify", "--sub", "bogus"), {}),
    (("bogus",), {}),
    ((), {}),
    (("fm",), {}),
], ids=["zero-seeds", "huge-seeds", "huge-power", "tiny-power", "bad-lambda", "bad-state", "dup-state",
        "config-bad-state", "string-seeds",
        "fm-int-variables", "fm-int-coeffs", "fm-zero-denominator", "fm-infeasible",
        "fm-infeasible-no-vars", "fm-undeclared-variable", "fm-variable-declared-twice",
        "fm-variable-named-d1", "missing-config", "missing-system", "invalid-config-json", "invalid-system-json", "config-not-object",
        "unwritable-out", "unwritable-region-out", "blocks-non-composite",
        "nan-tolerance", "inf-tolerance", "negative-tolerance", "config-nan-tolerance",
        "fm-check-partial-projection", "sub-non-composite", "config-sub-non-composite",
        "bad-mode", "non-int-seeds", "nan-p-exp", "unknown-flag", "verify-bad-sub",
        "unknown-command", "no-command", "fm-without-system"])
def test_bad_input_gets_one_error_line(tmp_path, capsys, monkeypatch, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(cli, "range", _range_listed_below_a_million, raising=False)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("argv", [("--help",), ("simulate", "--help"), ("fm", "--help")])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: sdof-lab") and captured.err == ""


def test_parser_is_built_once_on_first_use(capsys, monkeypatch):
    probe = "import sdof_lab.cli as cli; print(cli._parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert out.stdout.strip() == "0"        # importing builds nothing
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run_cli("region", "--theorem", "thm1", "--lambda", "dd=1") == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


class TestFm:
    def test_project_converse_system(self, tmp_path, capsys):
        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps(
            system_to_json_dict(converse_alternation_system())))
        assert run_cli("fm", "--system", str(system_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variables"] == []
        rows = {
            tuple(sorted((v, tuple(c)) for v, c in row["coeffs"].items())):
            tuple(row["rhs"])
            for row in payload["inequalities"]
        }
        assert rows[(("d1", (16, 1)), ("d2", (4, 1)))] == (17, 1)

    def test_single_elimination(self, tmp_path, capsys):
        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps(
            system_to_json_dict(converse_alternation_system())))
        assert run_cli("fm", "--system", str(system_path),
                       "--eliminate", "a") == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(v["name"] for v in payload["variables"]) == \
            ["b", "c", "e", "f"]

    def test_projection_with_oracle_check(self, tmp_path, capsys):
        from sdof_lab.fm_oracle import oracle_catalog

        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps(
            system_to_json_dict(oracle_catalog()["slack_pair"])))
        assert run_cli("fm", "--system", str(system_path), "--check") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_agreement"]["ok"] is True

    def test_oracle_disagreement_exits_two(self, tmp_path, capsys, monkeypatch):
        """A failed hull check is a failed invariant: the projection and the
        oracle's verdict are still printed."""
        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps(
            system_to_json_dict(converse_alternation_system())))
        monkeypatch.setattr(cli, "hull_agreement", lambda system: (False, "vertex differs"))
        assert run_cli("fm", "--system", str(system_path), "--check") == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_agreement"] == {"ok": False, "detail": "vertex differs"}
        assert payload["variables"] == []


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        code = run_cli("verify", "--fast")
        out = capsys.readouterr().out
        assert code == 0, out
        assert "criterion 01 [PASS]" in out
        assert "criterion 11 [PASS]" in out
        assert "11/11 criteria passed" in out

    def test_corrupted_scheme_table_fails(self, capsys, monkeypatch):
        """Mutating a library entry must turn the suite red (exit 2)."""
        import sdof_lab.schemes as schemes
        from sdof_lab.model import StateLabel

        good = schemes._BUILDERS["MR_PPD"]
        broken = lambda: good().with_slot_state(0, StateLabel.parse("PDD"))
        monkeypatch.setitem(schemes._BUILDERS, "MR_PPD", broken)
        code = run_cli("verify", "--fast")
        out = capsys.readouterr().out
        assert code == 2
        assert "[FAIL]" in out

    def test_unknown_sub_protocol_fails_criterion_6(self, monkeypatch):
        """`run_all` reports the build error of an unknown sub-protocol as
        criterion 6's FAIL; the other criteria do not read `sub`."""
        from sdof_lab import acceptance

        stub = lambda: acceptance.CriterionResult(0, "stub", "PASS")   # noqa: E731
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", tuple(
            fn if fn is acceptance.criterion_6 else stub for fn in acceptance.ALL_CRITERIA))
        results = acceptance.run_all(sub="unavailable")
        assert [r.ok for r in results] == [True] * 5 + [False] + [True] * 5
        assert results[5].line() == (
            "criterion 06 [FAIL] Composite superframe accounting and measured rate prelogs."
            " -- exception: BadParams: unknown sub-protocol 'unavailable'")

    @staticmethod
    def _stub_criteria(monkeypatch, ninth):
        """Stub criteria that record their thread, with `ninth` as criterion
        9 under the real one's docstring, swapped in as perfbench's tracer
        swaps criteria: in `ALL_CRITERIA` and as the module's `criterion_9`.
        Criterion 1 waits until criterion 9 has started."""
        from sdof_lab import acceptance

        threads, started = {}, threading.Event()

        def stub(number):
            def criterion():
                threads[number] = threading.get_ident()
                if number == 1 and not started.wait(timeout=30):
                    return acceptance.CriterionResult(1, "stub", "FAIL", "criterion 9 not started")
                return acceptance.CriterionResult(number, "stub", "PASS")
            return criterion

        def criterion_9():
            threads[9] = threading.get_ident()
            started.set()
            return ninth()

        criterion_9.__doc__ = acceptance.criterion_9.__doc__
        stubs = [stub(n) for n in range(1, 12)]
        stubs[8] = criterion_9
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", tuple(stubs))
        monkeypatch.setattr(acceptance, "criterion_9", criterion_9)
        return threads

    def test_criterion_9_runs_beside_the_others(self, monkeypatch):
        """Criterion 9 starts first, off the calling thread, while the others
        run in order on it; the results come back in criterion order."""
        from sdof_lab import acceptance

        ninth = lambda: acceptance.CriterionResult(9, "ninth", "PASS")   # noqa: E731
        threads = self._stub_criteria(monkeypatch, ninth)
        results = acceptance.run_all()
        assert [(r.number, r.ok) for r in results] == [(n, True) for n in range(1, 12)]
        caller = threading.get_ident()
        assert threads.pop(9) != caller
        assert set(threads.values()) == {caller} and len(threads) == 10

    def test_criterion_9_exception_fails_only_criterion_9(self, monkeypatch):
        """An exception on criterion 9's thread is criterion 9's FAIL line,
        and the other criteria still pass."""
        from sdof_lab import acceptance

        def ninth():
            raise FloatingPointError("oracle diverged")

        threads = self._stub_criteria(monkeypatch, ninth)
        results = acceptance.run_all()
        assert threads[9] != threading.get_ident()
        assert [r.ok for r in results] == [True] * 8 + [False] + [True] * 2
        assert results[8].line() == (
            "criterion 09 [FAIL] Closed-form mutual information against the Monte-Carlo"
            " oracle. -- exception: FloatingPointError: oracle diverged")
