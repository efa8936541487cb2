"""Hypothesis settings for the test session, and a leaky scheme.

By default every `@given` test draws the same examples on every run: the
`reproducible` profile derandomizes them (each test's examples come from a
seed derived from the test itself), so a failure seen once comes back, and
it prints the reproduction blob of a failing example.  No example count is
lowered.  `--hypothesis-seed N` switches to the `explore` profile, which
draws at random from that seed; `--hypothesis-profile` picks any profile.
"""

from dataclasses import replace

import pytest
from hypothesis import settings

from sdof_lab import schemes
from sdof_lab.model import StateLabel
from sdof_lab.schemes import Axis, Comb, SlotPlan, StreamRecipe, Sym

settings.register_profile("reproducible", derandomize=True, print_blob=True)
settings.register_profile("explore", print_blob=True)


def pytest_configure(config):
    if config.getoption("hypothesis_profile") is None:
        seeded = config.getoption("hypothesis_seed") is not None
        settings.load_profile("explore" if seeded else "reproducible")


@pytest.fixture
def leaky_mr_ppd(monkeypatch):
    """MR_PPD with one more slot, which sends v + w on antenna 0: the
    eavesdropper sees that combination in the clear, though neither symbol
    alone.  For the test's duration `build_scheme("MR_PPD")`, and so
    `simulate` and `verify`, build this spec, which the fixture returns."""
    def build():
        spec = schemes.library.build_mr_ppd()
        leak = SlotPlan(state=StateLabel.parse("PPD"), streams=(StreamRecipe(
            "leak", Comb(((1.0, Sym("v")), (1.0, Sym("w")))), Axis(0)),))
        return replace(spec, slot_plans=(*spec.slot_plans, leak))

    monkeypatch.setitem(schemes._BUILDERS, "MR_PPD", build)
    return build()
