"""In-memory span tracing around the calls into each sdof-lab layer.

`Tracer.installed()` swaps every binding of the traced public functions in
the loaded `sdof_lab` modules (and the hand-decoder table and the acceptance
criteria) for a recording wrapper, and restores the originals on exit; the
program itself is not modified.  A span records name, start, end, parent
span and operation id.  Counts that the layers' inputs and outputs determine
are taken at the same boundaries, so they repeat exactly between runs.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from sdof_lab import acceptance, analysis, fm_oracle, model, precoding, regions, schemes
from sdof_lab.schemes import program

# (span name, module, function): one layer boundary each
LAYER_FUNCTIONS = (
    ("model.sample_channel", model, "sample_channel"),
    ("program.run_scheme", program, "run_scheme"),
    ("schemes.decode", schemes, "decode"),
    ("precoding.assemble_effective_system", precoding, "assemble_effective_system"),
    ("precoding.identifiable_symbols", precoding, "identifiable_symbols"),
    ("precoding.identifiability_check", precoding, "identifiability_check"),
    ("analysis.rate_slope", analysis, "rate_slope"),
    ("analysis.leakage_slope", analysis, "leakage_slope"),
    ("analysis.achievable_rate", analysis, "achievable_rate"),
    ("analysis.gaussian_mi", analysis, "gaussian_mi"),
    ("analysis.mc_mi_oracle", analysis, "mc_mi_oracle"),
    ("regions.region_from_theorem", regions, "region_from_theorem"),
    ("regions.project_to_coordinates", regions, "project_to_coordinates"),
    ("regions.fm_eliminate", regions, "fm_eliminate"),
    ("fm_oracle.lifted_vertices", fm_oracle, "lifted_vertices"),
    ("fm_oracle.grid_agreement", fm_oracle, "grid_agreement"),
)
N_CRITERIA = len(acceptance.ALL_CRITERIA)

# Every per-layer metric with its unit and direction, in print order.
PER_LAYER = (
    ("model.sample_channel.calls", "count", "lower"),
    ("model.sample_channel.busy_ms", "ms", "lower"),
    ("program.run_scheme.calls", "count", "lower"),
    ("program.run_scheme.busy_ms", "ms", "lower"),
    ("program.run_scheme.us_per_slot", "us/slot", "lower"),
    ("decoders.hand.calls", "count", "lower"),
    ("decoders.hand.busy_ms", "ms", "lower"),
    ("schemes.decode.busy_ms", "ms", "lower"),
    ("schemes.decode.failures", "count", "lower"),
    ("precoding.assemble_effective_system.busy_ms", "ms", "lower"),
    ("precoding.identifiable_symbols.busy_ms", "ms", "lower"),
    ("precoding.identifiability_check.busy_ms", "ms", "lower"),
    ("precoding.matrix_cells", "count", "lower"),
    ("analysis.rate_slope.busy_ms", "ms", "lower"),
    ("analysis.leakage_slope.busy_ms", "ms", "lower"),
    ("analysis.achievable_rate.busy_ms", "ms", "lower"),
    ("analysis.gaussian_mi.busy_ms", "ms", "lower"),
    ("analysis.mc_mi_oracle.busy_ms", "ms", "lower"),
    ("analysis.spectra_useful_ratio", "ratio", "higher"),
    ("regions.region_from_theorem.busy_ms", "ms", "lower"),
    ("regions.project_to_coordinates.busy_ms", "ms", "lower"),
    ("regions.fm_eliminate.rows_out", "count", "lower"),
    ("fm_oracle.lifted_vertices.busy_ms", "ms", "lower"),
    ("fm_oracle.lifted_vertices.subsets", "count", "lower"),
    ("fm_oracle.grid_agreement.busy_ms", "ms", "lower"),
    ("fm_oracle.grid_agreement.points", "count", "lower"),
    *((f"acceptance.criterion_{n:02d}.busy_ms", "ms", "lower")
      for n in range(1, N_CRITERIA + 1)),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# metrics read straight from the counts, per repetition
COUNTED = frozenset((
    "schemes.decode.failures", "precoding.matrix_cells", "regions.fm_eliminate.rows_out",
    "fm_oracle.lifted_vertices.subsets", "fm_oracle.grid_agreement.points",
))

class Tracer:
    """Spans and counts of one traced phase, kept in memory."""

    def __init__(self, phase: str):
        self.phase = phase
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, op]
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._spectra: set = set()      # distinct (system, node, columns) this op
        self._systems: dict = {}        # keeps ids in _spectra unique this op

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter_ns()
                spans[idx][1] = start
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def begin_op(self, op: str) -> None:
        self.op = op

    def end_op(self) -> None:
        """Close an operation: systems never outlive the command that built them."""
        self.counts["analysis.spectra_distinct"] += len(self._spectra)
        self._spectra.clear()
        self._systems.clear()

    # -- counts taken at the boundaries ----------------------------------------

    def _count_slots(self, args, kwargs, result):
        self.counts["program.run_scheme.slots"] += result.spec.n_slots

    def _count_decode(self, args, kwargs, report):
        if not report.all_success or report.any_protected_identifiable:
            self.counts["schemes.decode.failures"] += 1

    def _count_cells(self, args, kwargs, system):
        self.counts["precoding.matrix_cells"] += sum(
            m.shape[0] * m.shape[1] for m in system.matrices.values())

    def _count_rows(self, args, kwargs, system):
        self.counts["regions.fm_eliminate.rows_out"] += len(system.inequalities)

    def _count_subsets(self, args, kwargs, result):
        order, rows = fm_oracle._system_rows(args[0] if args else kwargs["system"])
        self.counts["fm_oracle.lifted_vertices.subsets"] += math.comb(len(rows), len(order))

    def _count_spectra(self, args, kwargs, result):
        """Each gaussian_mi call implies one SVD of the kept columns and one of
        the nuisance columns; count those and the distinct matrices among them."""
        system, node, secret = args[:3]     # gaussian_mi(system, node, secret, power, known)
        secret = frozenset(secret)
        known = frozenset(args[4] if len(args) > 4 else kwargs.get("known", ()))
        keep = tuple(i for i, d in enumerate(system.symbols) if d.sid not in known)
        nuisance = tuple(i for i in keep if system.symbols[i].sid not in secret)
        if not system.matrices[node].shape[0]:
            return
        self._systems[id(system)] = system
        for cols in (keep, nuisance):
            if cols:
                self.counts["analysis.spectra_implied"] += 1
                self._spectra.add((id(system), node, cols))

    # -- installing -------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Route every call into the traced layers through a recording wrapper."""
        hooks = {
            "program.run_scheme": self._count_slots,
            "schemes.decode": self._count_decode,
            "precoding.assemble_effective_system": self._count_cells,
            "regions.fm_eliminate": self._count_rows,
            "fm_oracle.lifted_vertices": self._count_subsets,
            "analysis.gaussian_mi": self._count_spectra,
        }
        undo: list = []                 # (namespace, key, original), restored in reverse
        saved_decoders = dict(schemes._DECODERS)
        saved_criteria = acceptance.ALL_CRITERIA
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sdof_lab" or name.startswith("sdof_lab."))]

        def replace(namespace, key, wrapper):
            undo.append((namespace, key, getattr(namespace, key)))
            setattr(namespace, key, wrapper)

        def count_point(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts["fm_oracle.grid_agreement.points"] += 1
                return fn(*args, **kwargs)
            return counted

        try:
            for name, module, attr in LAYER_FUNCTIONS:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, hooks.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            replace(mod, key, wrapper)
            replace(fm_oracle, "in_hull", count_point(fm_oracle.in_hull))
            wrapped = {}
            for scheme_id, fn in saved_decoders.items():
                if fn not in wrapped:
                    wrapped[fn] = self.wrap("decoders.hand", fn)
                schemes._DECODERS[scheme_id] = wrapped[fn]
            criteria = []
            for number, fn in enumerate(saved_criteria, start=1):
                criteria.append(self.wrap(f"acceptance.criterion_{number:02d}", fn))
                replace(acceptance, fn.__name__, criteria[-1])
            acceptance.ALL_CRITERIA = tuple(criteria)
            yield self
        finally:
            acceptance.ALL_CRITERIA = saved_criteria
            schemes._DECODERS.update(saved_decoders)
            for namespace, key, value in reversed(undo):
                setattr(namespace, key, value)

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, reps: int) -> dict[str, float]:
        """Per-layer metrics per repetition of the workload's commands.

        busy_ms sums a layer's outermost spans (a call nested in a call of the
        same name is not counted twice); cli.self_ms is each `cli.main` span
        minus the layer spans directly under it.
        """
        busy: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        children: dict[int, int] = defaultdict(int)
        spans = self.spans
        for idx, (name, start, end, parent, _) in enumerate(spans):
            children[parent] += end - start
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                busy[name] += end - start
                calls[name] += 1
        cli_self = sum(end - start - children[idx]
                       for idx, (name, start, end, _, _) in enumerate(spans)
                       if name == "cli.main")
        c = self.counts
        implied = c["analysis.spectra_implied"]
        slots = c["program.run_scheme.slots"]
        derived = {
            "program.run_scheme.us_per_slot":
                busy["program.run_scheme"] / 1e3 / slots if slots else 0.0,
            "analysis.spectra_useful_ratio":
                c["analysis.spectra_distinct"] / implied if implied else 0.0,
            "cli.self_ms": cli_self / 1e6 / reps,
        }
        out = {}
        for name, _, _ in PER_LAYER:
            if name in derived:
                out[name] = derived[name]
            elif name.endswith(".busy_ms"):
                out[name] = busy[name[:-len(".busy_ms")]] / 1e6 / reps
            elif name.endswith(".calls"):
                out[name] = calls[name[:-len(".calls")]] // reps
            elif name in COUNTED:
                out[name] = c[name] // reps
        return out

    def write(self, path: Path, mode: str = "w") -> None:
        with path.open(mode) as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"phase": self.phase, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
