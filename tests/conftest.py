"""Hypothesis settings for the test session.

By default every `@given` test draws the same examples on every run: the
`reproducible` profile derandomizes them (each test's examples come from a
seed derived from the test itself), so a failure seen once comes back, and
it prints the reproduction blob of a failing example.  No example count is
lowered.  `--hypothesis-seed N` switches to the `explore` profile, which
draws at random from that seed; `--hypothesis-profile` picks any profile.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, print_blob=True)
settings.register_profile("explore", print_blob=True)


def pytest_configure(config):
    if config.getoption("hypothesis_profile") is None:
        seeded = config.getoption("hypothesis_seed") is not None
        settings.load_profile("explore" if seeded else "reproducible")
