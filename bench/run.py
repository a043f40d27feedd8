"""umbralqm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Workloads: exact_algebra, exp_series, tabulate_csv (or `all`). Run from the
root of a checkout; the package is imported from its `src/` directory.

With `--trace 0` each iteration runs the workload's jobs as fresh
`umbralqm` processes (interpreter start, import, config, compute, format,
write) and the end-to-end metrics are medians over the iterations that fit
in `--seconds`, with times scaled to a quiet host (see
`end_to_end_metrics`). With
`--trace 1` the same jobs run in-process, alternately without and with
timing wrappers over the package's public functions, and the per-layer
metrics come from the recorded spans. Every output is checked
against an independent oracle outside the timed region.

The last line of stdout is one JSON object with the keys `correct`,
`attempted` (program processes or in-process job runs), `failed` (those
that exited non-zero) and `metrics`. The full result, with samples, machine
facts and every failing check, goes to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# The console script installed for `umbralqm` runs exactly this.
LAUNCH = "import sys; from umbralqm.cli import console_main; sys.argv[0] = 'umbralqm'; console_main()"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import umbralqm.cli; print(time.perf_counter() - t)"
)
RUN_LIMIT_S = 170.0
# Time of reference_s() on a quiet 2-vCPU x86-64 VM (Xeon, CPython 3.11).
NOMINAL_REFERENCE_S = 0.015


def declared(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them ("end_to_end" or "per_layer")."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class MissingProgram(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "UMBRALQM_"))}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(cmd: list, cwd: str, timeout: float, stdout=subprocess.DEVNULL) -> dict:
    """Run one process to completion; wall time, CPU and peak RSS come from wait4."""
    with open(os.path.join(cwd, "stderr.txt"), "w+b") as errors:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=stdout, stderr=errors)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            timer.join()
        errors.seek(0)
        stderr = errors.read().decode(errors="replace")
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "pid": proc.pid,
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stderr": stderr[-2000:],
    }


def job_command(job: workloads.Job) -> list:
    if job.kind == "algebra":
        return [sys.executable, os.path.join(BENCH, "algebra.py"), *job.argv]
    return [sys.executable, "-c", LAUNCH, *job.argv]


def reference_s() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs right now."""
    t0 = time.perf_counter()
    acc, facc = 0, 0.0
    for i in range(150_000):
        acc += i * i
        facc += i * 0.5
    return time.perf_counter() - t0


def measure_setup(workdir: str, samples: int, deadline: float, references: list) -> list:
    """Wall times of `umbralqm --version` processes (interpreter, import, parser)."""
    out = []
    path = os.path.join(workdir, "version.txt")
    for _ in range(samples):
        references.append(reference_s())
        with open(path, "w", encoding="utf-8") as handle:
            r = run_process([sys.executable, "-c", LAUNCH, "--version"], workdir, remaining(deadline), handle)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if r["code"] != 0 or not text.startswith("umbralqm "):
            raise MissingProgram(f"`umbralqm --version` failed: {r['stderr'].strip()}")
        out.append(r["wall_s"])
    return out


def measure_import(workdir: str, samples: int, deadline: float) -> list:
    out = []
    path = os.path.join(workdir, "import.txt")
    for _ in range(samples):
        with open(path, "w", encoding="utf-8") as handle:
            r = run_process([sys.executable, "-c", IMPORT_PROBE], workdir, remaining(deadline), handle)
        if r["code"] != 0:
            raise MissingProgram(f"import umbralqm failed: {r['stderr'].strip()}")
        with open(path, encoding="utf-8") as handle:
            out.append(float(handle.read()))
    return out


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


def digest(workdir: str, jobs: list) -> str:
    h = hashlib.sha256()
    for job in jobs:
        for name in job.outputs:
            path = os.path.join(workdir, name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    for block in iter(lambda: handle.read(1 << 20), b""):
                        h.update(block)
    return h.hexdigest()


def write_jobs(workdir: str, jobs: list) -> str:
    path = os.path.join(workdir, "jobs.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([dataclasses.asdict(j) for j in jobs], handle)
    return path


def run_oracles(workdir: str, jobs_path: str, deadline: float, summary_path: str | None = None) -> dict:
    """Check the outputs in a separate process, so that this one stays small.

    Children inherit the parent's memory high-water mark in their ru_maxrss,
    so the parent must never grow past the program's own footprint.
    """
    out_path = os.path.join(workdir, "oracle.json")
    cmd = [sys.executable, os.path.join(BENCH, "oracles.py"), jobs_path, workdir, out_path]
    r = run_process(cmd + ([summary_path] if summary_path else []), workdir, remaining(deadline))
    if r["code"] != 0:
        failure = {"check": f"oracle process failed: {r['stderr'].strip()[-300:]}", "gates": True}
        empty = {"attempted": 1, "failed": 1, "gating_failed": 1, "failures": [failure]}
        return {"outputs": empty, "series_calls": dict(empty)}
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, entry, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(base, entry, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(base, entry, "size")) as f:
                    size = f.read().strip()
            except OSError:
                continue
            if kind != "Instruction":
                caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu": platform.processor() or platform.machine(),
        "caches": caches,
    }


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"p25": q1, "median": q2, "p75": q3, "n": len(values)}


def run_untraced(jobs: list, workdir: str, seconds: float, quick: bool, deadline: float):
    """Timed loop of fresh processes; returns samples, processes and the oracle's checks.

    On a shared host everything can run up to 1.5x slower for seconds or
    minutes at a time (seen on a 2-vCPU x86-64 VM). A reference_s() sample
    precedes every process, and each iteration's times are also kept scaled
    by NOMINAL_REFERENCE_S over the mean reference time around that
    iteration: seconds at the host's quiet speed, which track the program
    rather than its neighbours. A set-up sample follows every iteration, so
    set-up samples spread over the run.
    """
    references = []
    samples = {
        "wall_s": [],
        "cpu_s": [],
        "raw_wall_s": [],
        "raw_cpu_s": [],
        "speed": [],
        "peak_rss_mb": [],
        "raw_setup_s": measure_setup(workdir, 3 if quick else 5, deadline, references),
        "reference_s": references,
    }
    procs, checks, first_digest, consistent = [], None, None, True
    jobs_path = write_jobs(workdir, jobs)
    start = time.perf_counter()
    while True:
        first_reference = len(references)
        it = []
        for job in jobs:
            references.append(reference_s())
            it.append(run_process(job_command(job), workdir, remaining(deadline)))
        procs += it
        if checks is None:  # outside the timed region; later iterations must match byte for byte
            checks = run_oracles(workdir, jobs_path, deadline)
            first_digest = digest(workdir, jobs)
        elif digest(workdir, jobs) != first_digest:
            consistent = False
        samples["raw_setup_s"] += measure_setup(workdir, 1, deadline, references)
        speed = NOMINAL_REFERENCE_S / statistics.mean(references[first_reference:])
        samples["speed"].append(speed)
        samples["raw_wall_s"].append(sum(r["wall_s"] for r in it))
        samples["raw_cpu_s"].append(sum(r["cpu_s"] for r in it))
        samples["wall_s"].append(samples["raw_wall_s"][-1] * speed)
        samples["cpu_s"].append(samples["raw_cpu_s"][-1] * speed)
        samples["peak_rss_mb"].append(max(r["rss_mb"] for r in it))
        last = samples["raw_wall_s"][-1]
        if quick or time.perf_counter() - start + last > seconds or time.perf_counter() + 2 * last > deadline:
            break
    return samples, procs, checks, consistent


def end_to_end_metrics(samples: dict, checks: dict) -> dict:
    """Medians over the run; wall_s and cpu_s of the scaled iterations.

    Set-up processes are too short for their own reference sample to mean
    much, so setup_s is scaled by the run's mean reference time instead.
    """
    attempted = checks["attempted"]
    values = {
        "wall_s": statistics.median(samples["wall_s"]),
        "cpu_s": statistics.median(samples["cpu_s"]),
        "setup_s": statistics.median(samples["raw_setup_s"]) * NOMINAL_REFERENCE_S / statistics.mean(samples["reference_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "ok_frac": (attempted - checks["failed"]) / attempted if attempted else 0.0,
    }
    return {name: (values[name], unit) for name, unit in declared("end_to_end").items()}


def run_traced(name: str, jobs: list, workdir: str, seconds: float, quick: bool, deadline: float):
    """Alternate untraced and traced in-process runs of the jobs; returns their summaries."""
    jobs_path = write_jobs(workdir, jobs)
    spans_path = os.path.join(OUT, f"spans_{name}.csv")
    runs = {"0": [], "1": []}
    procs, checks = [], None
    start = time.perf_counter()
    while True:
        for flag in ("0", "1"):
            summary_path = os.path.join(workdir, f"summary_{flag}.json")
            # spans of the first traced repetition are written out; the rest only summarised
            spans_out = spans_path if flag == "1" and not runs["1"] else ""
            cmd = [sys.executable, os.path.join(BENCH, "spans.py"), jobs_path, summary_path, spans_out, flag]
            r = run_process(cmd, workdir, remaining(deadline))
            procs.append(r)
            summary = {"exit_codes": [1] * len(jobs)}
            if r["code"] == 0:
                with open(summary_path, encoding="utf-8") as handle:
                    summary = json.load(handle)
                summary.pop("series_calls")
            runs[flag].append(summary)
        if checks is None:
            checks = run_oracles(workdir, jobs_path, deadline, summary_path)
        last = sum(r["wall_s"] for r in procs[-2:])
        if quick or time.perf_counter() - start + last > seconds or time.perf_counter() + 2 * last > deadline:
            break
    return runs["0"], runs["1"], procs, checks


def layer_metrics(plain: list, traced: list, series_checks: dict, import_s: list) -> dict:
    """Medians over the traced repetitions of `<span>.calls`, `<span>.self_s` and the counters."""
    plain = [p for p in plain if "wall_s" in p]
    traced = [t for t in traced if "wall_s" in t]
    flat = [
        {f"{span}.{field}": v for span, stats in t["spans"].items() for field, v in stats.items()} | t["counters"]
        for t in traced
    ]
    attempted = series_checks["attempted"]
    extra = {
        "correspondences.exponential_series_exact.ok_frac": (
            (attempted - series_checks["failed"]) / attempted if attempted else 1.0
        ),
        "setup.import_s": statistics.median(import_s),
        "trace.overhead_s": (
            statistics.median(t["wall_s"] for t in traced) - statistics.median(p["wall_s"] for p in plain)
            if plain and traced
            else 0.0
        ),
    }
    out = {}
    for metric, unit in declared("per_layer").items():
        if metric in extra:
            out[metric] = (extra[metric], unit)
            continue
        values = [f.get(metric, 0) for f in flat] or [0]
        out[metric] = (statistics.median_low(values) if unit != "s" else statistics.median(values), unit)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    jobs = workloads.GENERATORS[name](seed, quick)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if trace:
            import_s = measure_import(workdir, 3 if quick else 5, deadline)
            plain, traced, procs, checks = run_traced(name, jobs, workdir, seconds, quick, deadline)
            metrics = layer_metrics(plain, traced, checks["series_calls"], import_s)
            codes = [c for run in plain + traced for c in run["exit_codes"]]
            consistent = bool(traced)
            samples = {
                "traced_wall_s": [t["wall_s"] for t in traced if "wall_s" in t],
                "plain_wall_s": [p["wall_s"] for p in plain if "wall_s" in p],
                "setup.import_s": import_s,
            }
        else:
            samples, procs, checks, consistent = run_untraced(jobs, workdir, seconds, quick, deadline)
            metrics = end_to_end_metrics(samples, checks["outputs"])
            codes = [r["code"] for r in procs]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = checks["outputs"]
    failed = sum(1 for c in codes if c != 0)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "machine": machine_facts(),
        "about": workloads.WORKLOADS[name],
        "jobs": [j.argv for j in jobs],
        "correct": failed == 0 and tally["gating_failed"] == 0 and consistent and tally["attempted"] > 0,
        "attempted": len(codes),
        "failed": failed,
        "checks": {k: tally[k] for k in ("attempted", "failed", "gating_failed")},
        "samples": samples,
        "quartiles": {k: quartiles(v) for k, v in samples.items() if v},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": tally["failures"],
        "process_errors": [r["stderr"] for r in procs if r["code"] != 0][:5],
        "elapsed_s": time.perf_counter() - started,
    }
    tag = f"{name}_seed{seed}_trace{int(trace)}{'_quick' if quick else ''}"
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def report(result: dict) -> None:
    print(
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
        + ("  QUICK (not comparable with full runs)" if result["quick"] else "")
    )
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print("about   " + json.dumps(result["about"]))
    for name, m in result["metrics"].items():
        q = result["quartiles"].get(name) or result["quartiles"].get("raw_" + name)
        count = f"  (n={q['n']})" if q else ""
        print(f"  {name:<62} {m['value']:.6g} {m['unit']}{count}")
    for name, q in result["quartiles"].items():
        print(f"  samples {name:<54} median {q['median']:.6g}  p25 {q['p25']:.6g}  p75 {q['p75']:.6g}  n={q['n']}")
    checks = result["checks"]
    frac = checks["failed"] / checks["attempted"] if checks["attempted"] else 0.0
    print(f"  {'fail_frac':<62} {frac:.6g} ratio  ({checks['failed']} of {checks['attempted']} checks)")
    if result["failures"]:
        print(f"failing checks ({len(result['failures'])}; gating {checks['gating_failed']}):")
        for f in result["failures"][:40]:
            print(f"  {'FAIL' if f['gates'] else 'known'} {f['check']}")
        if len(result["failures"]) > 40:
            print(f"  ... {len(result['failures']) - 40} more in .bench_out/")
    for err in result["process_errors"]:
        print("process error: " + (err.strip().splitlines() or [""])[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, one iteration; smoke test only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "umbralqm", "__init__.py")):
        print(f"error: no umbralqm package under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick))
            report(results[-1])
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
