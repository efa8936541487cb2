"""Acceptance suite: one test per exit criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -s` for the live table, or use the
`sdof-lab verify` command.  Tolerances are fixed here and in the criterion
implementations; nothing is calibrated at run time.
"""

from sdof_lab import acceptance


def _check(result):
    print(result.line())
    assert result.ok, result.detail


def test_criterion_01_wiretap_ceiling_formula():
    _check(acceptance.criterion_1())


def test_criterion_02_fixed_state_region_vertices():
    _check(acceptance.criterion_2())


def test_criterion_03_decodability_and_secrecy_100_seeds():
    _check(acceptance.criterion_3(n_seeds=100))


def test_criterion_04_rate_slopes():
    _check(acceptance.criterion_4())


def test_criterion_05_leakage_slopes():
    _check(acceptance.criterion_5())


def test_criterion_06_composite_accounting_tjsp53():
    _check(acceptance.criterion_6(sub="tjsp53"))


def test_criterion_06b_composite_accounting_fallback():
    _check(acceptance.criterion_6(sub="fallback32"))


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
