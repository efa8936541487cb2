"""Byte pins of the exact layer's command-line output.

Every catalog theorem is run through `sdof-lab region` over a fixed set of
schedules (no --lambda, pair and triple schedules, valid and not), with
each --compare target and with --plot-data; every `oracle_catalog()`
system is run through `sdof-lab fm` fully projected, partially projected
with each proper prefix of its variables, and with --check.  Each
invocation's exit code, stdout and plot data, and for `region` the class of
the exception a direct `region_from_theorem` call raises, are hashed per
theorem or per system, so any change to a vertex, an inequality, a number's
encoding or an exit code shows here.
"""

import hashlib
import json

import pytest

from sdof_lab import regions
from sdof_lab.cli import _parse_lambda, main
from sdof_lab.fm_oracle import oracle_catalog

LAMBDAS = (None, "pp=1", "pd=1", "dp=1", "dd=1", "pd=1/2,dp=1/2",
           "dd=1/3,pd=1/3,dp=1/3", "pp=1/4,pd=1/4,dp=1/4,dd=1/4", "pp=2/5,dd=3/5",
           "pd=2/3,dp=1/3", "ppd=1", "pdp=1", "ddp=1", "pdd=1/2,dpd=1/2",
           "pdd=1/3,dpd=2/3", "ppp=1")

REGION_DIGESTS = {
    "thm1":
        "dda48856cb7b2b0c79834c739cb394222211cc0cecc83775d3c61be6922de788",
    "thm2":
        "48c2499e77f13739990f3937c028f559940146ca035fe6ab91b83893b8cf240a",
    "thm3":
        "8d8bfe4693be8773bcf9d46ebdb0f3d32a07cdc445b116292d64ae806c384caa",
    "thm4":
        "7672557181132d9285e91b6ac500f36fc802585a683971fbb71a4cd7377bf2b8",
    "thm5":
        "fc2eb8c9dfad334f82417b3d0b6f27e8276465f58f6341c1a2c01e7c7e0d4fc8",
    "thm6":
        "74e3ca3a0a824c9c2b1390a608b93fb7f73f50dd99c4a19bc0780347e5495df5",
    "thm7":
        "62bee8714f1e70511a5a7211f0607e7b1125b3de4fd346bd63e0a3de6e361d8b",
    "thm8":
        "3cc49cf7854d2e5d78824ffada961b22a6160b80dcd467ad35ffa97671340380",
}

FM_DIGESTS = {
    "slack_pair":
        "fb40d135b6cc89376101f54e461d2b90a4b49dd76b77ca82f655d1e4b84456cc",
    "wedge":
        "d26e4508f053450373917ffcffaf530e983cc5e5522a35ccc9864b32fe629962",
    "converse_lite":
        "cd2c65b7150fb4b40e482f3dd38774d74e430dcb836b1937fe1a1a9a6eecfdcb",
    "converse":
        "da68f5f4544d04d5299c0540c957e0c2e42cd69f660ed4a48b2906bd1a16a680",
}


def _invoke(capsys, argv) -> str:
    code = main(argv)
    return f"{' '.join(argv)}\n{code}\n{capsys.readouterr().out}"


def _region_class(theorem: str, lam: str | None, compare: str | None) -> str:
    try:
        schedule = _parse_lambda(lam)
        region = regions.region_from_theorem(theorem, schedule)
        if compare:
            regions.bound_gap(region, regions.region_from_theorem(compare, schedule))
    except Exception as exc:      # the class is what is pinned
        return type(exc).__name__
    return "ok"


@pytest.mark.parametrize("theorem", sorted(REGION_DIGESTS))
def test_region_bytes(theorem, tmp_path, capsys):
    plot = tmp_path / "plot.txt"
    digest = hashlib.sha256()
    for lam in LAMBDAS:
        for compare in (None, *regions.THEOREM_IDS):
            argv = ["region", "--theorem", theorem, "--plot-data", str(plot)]
            argv += ["--lambda", lam] if lam else []
            argv += ["--compare", compare] if compare else []
            plot.unlink(missing_ok=True)
            record = _invoke(capsys, argv)
            record += plot.read_text() if plot.exists() else "no plot\n"
            record += _region_class(theorem, lam, compare) + "\n"
            digest.update(record.replace(str(plot), "PLOT").encode())
    assert digest.hexdigest() == REGION_DIGESTS[theorem]


@pytest.mark.parametrize("name", sorted(FM_DIGESTS))
def test_fm_bytes(name, tmp_path, capsys):
    system = oracle_catalog()[name]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(regions.system_to_json_dict(system)))
    runs = [[], ["--check"]] + [
        ["--eliminate", *system.variables[:k]] for k in range(1, len(system.variables))]
    runs.append(["--eliminate", system.variables[0], "--check"])
    digest = hashlib.sha256()
    for extra in runs:
        record = _invoke(capsys, ["fm", "--system", str(path), *extra])
        digest.update(record.replace(str(path), "SYSTEM").encode())
    assert digest.hexdigest() == FM_DIGESTS[name]
