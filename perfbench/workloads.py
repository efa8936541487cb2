"""The benchmark's workloads.

Each workload is a fixed list of `sdof-lab` command lines.  One repetition
runs every command once, in process, through `sdof_lab.cli.main`; the
closed loop (one client) starts the next repetition when the previous one
has finished.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

# The 14 schemes with 1-16 slots per seed: everything but the composites.
SMALL_SCHEMES = (
    "wt_pp", "wt_dp", "wt_pd", "wt_dd_23",
    "mr_ppd", "mr_pdp", "mr_ddp", "mr_pdd",
    "sub_pd_dp_unicast", "sub_secure_multicast",
    "bc_pp_s2", "bc_dd_s1", "bc_s1_43", "bc_s2_43",
)
COMPOSITE_SEEDS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]   # argv of each command in one repetition
    specs: tuple[tuple[str, tuple], ...]    # (scheme id, build params) the commands use;
                                            # set-up builds them, the fresh-seed check replays them
    slots_per_seed: str
    fresh_seeds: int                        # fresh master seeds per scheme
    trace_pairs: int                        # untraced/traced repetition pairs when tracing


_SMALL = tuple((s.upper(), ()) for s in SMALL_SCHEMES)
_COMPOSITE_B40 = ("MR_S30_29_A", (("blocks", 40),))
_ALL_DEFAULT = _SMALL + (("MR_S30_29_A", ()), ("MR_S30_29_B", ()))

WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="sweep_small",
            why="simulate for the 14 small schemes on the default grid: "
                "per-call Python overhead in the executor and analysis dominates",
            commands=tuple(("simulate", "--scheme", s) for s in SMALL_SCHEMES),
            specs=_SMALL,
            slots_per_seed="1-16",
            fresh_seeds=10,
            trace_pairs=9,
        ),
        Workload(
            name="composite_b40",
            why="simulate mr_s30_29_a --blocks 40, 232 slots per seed: "
                "LAPACK SVDs in the log-det analysis dominate",
            commands=(("simulate", "--scheme", "mr_s30_29_a", "--blocks", "40",
                       "--seeds", str(COMPOSITE_SEEDS)),),
            specs=(_COMPOSITE_B40,),
            slots_per_seed="232",
            fresh_seeds=2,
            trace_pairs=9,
        ),
        Workload(
            name="verify_full",
            why="the full acceptance suite: decode/secrecy over 100 seeds plus "
                "the exact region, FM and hull-oracle layers the simulate runs bypass",
            commands=(("verify",),),
            specs=_ALL_DEFAULT,
            slots_per_seed="1-58",
            fresh_seeds=3,
            trace_pairs=2,
        ),
    )
}


def pipelines(argv) -> int:
    """(scheme, seed) pipelines one command runs, by the program's defaults:
    `--seeds` or `RunConfig.seeds` for `simulate`, and criterion 3's seeds
    for every scheme for `verify`.  Needs `sdof_lab` importable."""
    from sdof_lab import acceptance, cli, schemes

    if argv[0] == "verify":
        n_seeds = inspect.signature(acceptance.criterion_3).parameters["n_seeds"].default
        return n_seeds * len(schemes.SCHEME_IDS)
    if "--seeds" in argv:
        return int(argv[argv.index("--seeds") + 1])
    return cli.RunConfig().seeds
