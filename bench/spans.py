"""Span recorder and timing wrappers for the traced run.

The traced run installs wrappers over the package's public functions at the
bindings their callers use (module globals and class attributes), records one
span per call in memory and writes them out when the run ends. The package
itself is never edited.

Run as `python3 bench/spans.py JOBS_JSON SUMMARY_PATH SPANS_PATH TRACE` with
the package on PYTHONPATH: it repeats a workload's jobs in this one process
(`umbralqm.cli.main(argv)` for CLI jobs, `algebra.run(spec)` for the exact
algebra script), with wrappers when TRACE is 1 and without when it is 0.
An empty SPANS_PATH keeps the spans in memory only.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from array import array

# (span name, module, attribute). Attributes of the form "Class.method" are
# wrapped on the class. Each name is one layer boundary of the package.
TARGETS = [
    ("polynomials.shift", "umbralqm.polynomials", "Polynomial.shift"),
    ("polynomials.mul", "umbralqm.polynomials", "Polynomial.__mul__"),
    ("polynomials.mul", "umbralqm.polynomials", "Polynomial.__rmul__"),
    ("operators.apply_xi", "umbralqm.operators", "apply_xi"),
    ("operators.apply_delta", "umbralqm.operators", "apply_delta"),
    ("operators.commutator_residual", "umbralqm.operators", "commutator_residual"),
    ("correspondences.basic_polynomial", "umbralqm.correspondences", "basic_polynomial"),
    ("correspondences.basic_polynomial_value", "umbralqm.correspondences", "basic_polynomial_value"),
    ("correspondences.exponential_series_exact", "umbralqm.correspondences", "exponential_series_exact"),
    ("functions.umbral_exp", "umbralqm.functions", "umbral_exp"),
    ("functions.umbral_exp_series", "umbralqm.functions", "umbral_exp_series"),
    ("functions.umbral_trig", "umbralqm.functions", "umbral_trig"),
    ("schrodinger.infinite_well_spectrum", "umbralqm.schrodinger", "infinite_well_spectrum"),
    ("schrodinger.infinite_well_wavefunction", "umbralqm.schrodinger", "infinite_well_wavefunction"),
    ("cli.resolve_config", "umbralqm.cli", "resolve_config"),
    ("cli.emit", "umbralqm.cli", "emit"),
]


class SpanRecorder:
    """In-memory spans: name, start, end, parent span and run id, one per call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.series_calls: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return fn timed as span `name`; `after(args, result)` runs once the span has ended."""
        nid = self.name_id(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return timed

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        out = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def summary(self) -> dict:
        """Per span name: number of calls, total time and self time."""
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for nid, s, e, own in zip(self.name, self.start, self.end, self.self_times()):
            entry = stats[self.names[nid]]
            entry["calls"] += 1
            entry["total_s"] += e - s
            entry["self_s"] += own
        return stats

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,run,name,start,end,parent\n")
            for i, (nid, run, s, e, p) in enumerate(
                zip(self.name, self.run, self.start, self.end, self.parent)
            ):
                handle.write(f"{i},{run},{self.names[nid]},{s!r},{e!r},{p}\n")


def _resolve(module, attr: str):
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _emit_counts(rec: SpanRecorder):
    def after(args, result):
        _command, cfg, tables = args[:3]
        cells = 0
        for table in tables:
            for _name, values in table.columns:
                cells += sum(1 for v in values if isinstance(v, float) and not math.isfinite(v))
        rec.count("cli.inf_cells", cells)
        if cfg.out:
            out_dir = os.path.dirname(cfg.out) or "."
            base = os.path.basename(cfg.out)
            for entry in os.listdir(out_dir):
                if entry == base or entry.startswith(base + "_"):
                    rec.count("cli.emit.bytes", os.path.getsize(os.path.join(out_dir, entry)))

    return after


def _series_record(rec: SpanRecorder):
    def after(args, result):
        from fractions import Fraction

        c, k, m = args[:3]
        value, status = result
        rec.count(f"correspondences.exponential_series_exact.status.{status.value}")
        s = Fraction(k) * c.sigma_exact()
        rec.series_calls.append([c.kind.value, str(s), int(m), value, status.value])

    return after


def install(rec: SpanRecorder, extra_modules=()) -> int:
    """Replace every binding of each target with a timed wrapper; returns bindings replaced."""
    hooks = {"cli.emit": _emit_counts(rec), "correspondences.exponential_series_exact": _series_record(rec)}
    modules = [m for n, m in sys.modules.items() if n == "umbralqm" or n.startswith("umbralqm.")]
    modules += list(extra_modules)
    replaced = 0
    for name, module_name, attr in TARGETS:
        owner, leaf = _resolve(sys.modules[module_name], attr)
        original = getattr(owner, leaf)
        wrapper = rec.wrap(name, original, hooks.get(name))
        if owner is not sys.modules[module_name]:  # a class attribute
            setattr(owner, leaf, wrapper)
            replaced += 1
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced += 1
    return replaced


def run_jobs(jobs: list, traced: bool, spans_path: str | None) -> dict:
    """Run the jobs in this process; returns wall time, spans summary and counters.

    Each job is one run id; when traced, a root span per job ("run.cli" or
    "run.algebra") is the parent of the layer spans it causes.
    """
    import algebra
    import umbralqm.cli

    rec = SpanRecorder()
    runners = {"cli": umbralqm.cli.main, "algebra": algebra.main}
    if traced:
        install(rec, [algebra])
        runners = {kind: rec.wrap("run." + kind, fn) for kind, fn in runners.items()}
    exit_codes = []
    t0 = time.perf_counter()
    for run_id, job in enumerate(jobs):
        rec.run_id = run_id
        exit_codes.append(runners[job["kind"]](list(job["argv"])))
    wall = time.perf_counter() - t0
    if traced and spans_path:
        rec.write(spans_path)
    return {
        "wall_s": wall,
        "exit_codes": exit_codes,
        "spans": rec.summary(),
        "counters": rec.counters,
        "series_calls": rec.series_calls,
    }


def main(argv: list[str]) -> int:
    jobs_path, summary_path, spans_path, traced = argv
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    result = run_jobs(jobs, traced == "1", spans_path)
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
