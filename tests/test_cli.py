"""Command-line surface: determinism, formats, exit codes."""

import json

import numpy as np
import pytest

from sdof_lab.analysis import DEFAULT_GRID, leakage_slope, rate_slope
from sdof_lab.cli import main
from sdof_lab.model import RX1, RX2, PowerBudget, sample_channel
from sdof_lab.precoding import assemble_effective_system
from sdof_lab.schemes import build_scheme, from_cli_name, run_scheme
from sdof_lab.regions import converse_alternation_system, system_to_json_dict


def run_cli(*argv):
    return main(list(argv))


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

    def test_threaded_run_matches_serial(self, tmp_path, monkeypatch):
        serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
        assert run_cli("simulate", "--scheme", "wt_dd_23", "--seeds", "4",
                       "--out", str(serial),
                       "--summary", str(tmp_path / "s1.json")) == 0
        monkeypatch.setenv("LAB_THREADS", "4")
        assert run_cli("simulate", "--scheme", "wt_dd_23", "--seeds", "4",
                       "--out", str(threaded),
                       "--summary", str(tmp_path / "s2.json")) == 0
        assert serial.read_bytes() == threaded.read_bytes()

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
            realization = sample_channel(spec.topology, spec.n_slots, seed)
            trace = run_scheme(spec, realization, PowerBudget(DEFAULT_GRID[0]),
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


@pytest.mark.parametrize("argv, files, env", [
    (("simulate", "--scheme", "wt_pp", "--seeds", "0"), {}, {}),
    (("simulate", "--scheme", "wt_pp", "--p-exp", "2000"), {}, {}),
    (("simulate", "--scheme", "wt_pp", "--p-exp", "-2000"), {}, {}),
    (("region", "--theorem", "thm1", "--lambda", "dd=abc"), {}, {}),
    (("simulate", "--config", "{tmp}/c.json"),
     {"c.json": json.dumps({"scheme": "wt_pp", "seeds": "3"})}, {}),
    (("fm", "--system", "{tmp}/s.json"), {"s.json": json.dumps({"variables": 3})}, {}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [], "inequalities": [{"coeffs": 1}]})}, {}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [], "inequalities": [
         {"coeffs": {"d1": [1, 0]}, "rhs": [1, 1]}]})}, {}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [{"name": "a"}], "inequalities": [
         {"coeffs": {"a": [1, 1]}, "rhs": [-1, 1]}]})}, {}),
    (("fm", "--system", "{tmp}/s.json"),
     {"s.json": json.dumps({"variables": [], "inequalities": [
         {"coeffs": {}, "rhs": [-1, 1]}]})}, {}),
    (("simulate", "--scheme", "wt_pp"), {}, {"LAB_THREADS": "abc"}),
    (("simulate", "--scheme", "wt_pp"), {}, {"LAB_THREADS": "0"}),
    (("simulate", "--config", "{tmp}/missing.json"), {}, {}),
    (("fm", "--system", "{tmp}/missing.json"), {}, {}),
    (("simulate", "--config", "{tmp}/c.json"), {"c.json": "{"}, {}),
    (("fm", "--system", "{tmp}/s.json"), {"s.json": "{"}, {}),
    (("simulate", "--config", "{tmp}/c.json"), {"c.json": "3"}, {}),
    (("simulate", "--scheme", "wt_pp", "--seeds", "1",
      "--out", "{tmp}/missing/rows.csv"), {}, {}),
    (("region", "--theorem", "thm3", "--out", "{tmp}/missing/r.json"), {}, {}),
    (("simulate", "--scheme", "mr_ddp", "--blocks", "7"), {}, {}),
], ids=["zero-seeds", "huge-power", "tiny-power", "bad-lambda", "string-seeds",
        "fm-int-variables", "fm-int-coeffs", "fm-zero-denominator", "fm-infeasible",
        "fm-infeasible-no-vars",
        "threads-abc", "threads-zero", "missing-config", "missing-system",
        "invalid-config-json", "invalid-system-json", "config-not-object",
        "unwritable-out", "unwritable-region-out", "blocks-non-composite"])
def test_bad_input_gets_one_error_line(tmp_path, capsys, monkeypatch, argv, files, env):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


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

    def test_missing_sub_protocol_reported_skipped(self):
        from sdof_lab.acceptance import criterion_6

        result = criterion_6(sub="unavailable")
        assert result.status == "SKIP"
        assert result.ok
