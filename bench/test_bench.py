"""Self-tests of the benchmark: `python3 -m pytest -q bench`."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import oracles
import run
import spans
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _exp_doc(k: str, sigma: str, lo: int, hi: int) -> dict:
    """A correct `exp --format json` document, built from the oracle itself."""
    from fractions import Fraction

    s = Fraction(k) * Fraction(sigma)
    ms = list(range(lo, hi + 1))
    cols = {"m": ms}
    for kind in oracles.KINDS:
        exact = [float(oracles.exp_closed(kind, s, m)) for m in ms]
        cols[f"{kind}_closed"] = list(exact)
        cols[f"{kind}_series"] = list(exact)
        cols[f"{kind}_status"] = ["converged"] * len(ms)
    return {"data": {"tables": [{"name": "exponential", "columns": cols}]}}


def test_exp_oracle_flags_corrupted_cell_and_false_diverged():
    meta = {"k": "2", "sigma": "0.1", "window": [-3, 3]}
    clean = oracles.Tally()
    oracles.check_exp(meta, _exp_doc("2", "0.1", -3, 3), clean)
    assert clean.attempted == 1 + 7 * 3 * 2 and clean.failed == 0

    doc = _exp_doc("2", "0.1", -3, 3)
    cols = doc["data"]["tables"][0]["columns"]
    cols["left_closed"][2] *= 1 + 1e-9
    cols["symmetric_status"][4] = "diverged"  # value still right: the status alone is false
    tally = oracles.Tally()
    oracles.check_exp(meta, doc, tally)
    assert tally.failed == 2
    assert tally.gating_failed == 1  # the closed cell gates `correct`; series cells score ok_frac
    assert "left closed" in tally.failures[0]["check"]
    assert "symmetric series" in tally.failures[1]["check"] and "diverged" in tally.failures[1]["check"]


def test_polys_oracle_flags_corrupted_cell(tmp_path):
    meta = {"sigma": "0.5", "window": [-4, 4], "degrees": [3]}
    ms = range(-4, 5)
    rows = ["m,x,right_n3,left_n3,symmetric_n3"]
    for m in ms:
        vals = [0.125 * oracles.root_product(kind, 3, m) for kind in oracles.KINDS]
        rows.append(",".join([str(m), str(m * 0.5)] + [repr(v) for v in vals]))
    rows[3] = rows[3].rsplit(",", 1)[0] + ",1.5"
    (tmp_path / "polys.csv").write_text("\n".join(rows) + "\n")
    tally = oracles.Tally()
    oracles.check_polys(meta, str(tmp_path), tally)
    assert tally.failed == 1 and "symmetric n=3 m=-2" in tally.failures[0]["check"]


def test_self_time_on_synthetic_span_tree():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    leaf = rec.wrap("leaf", lambda: None)
    inner = rec.wrap("inner", lambda: leaf())
    outer = rec.wrap("outer", lambda: (inner(), leaf(), inner()))
    outer()
    # clock: outer 0..11; inner 1..4 (leaf 2..3); leaf 5..6; inner 7..10 (leaf 8..9)
    stats = rec.summary()
    assert stats["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert stats["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 4.0}
    assert stats["outer"]["calls"] == 1
    assert stats["outer"]["self_s"] == stats["outer"]["total_s"] - 6.0 - 1.0
    assert list(rec.parent) == [-1, 0, 1, 0, 0, 4]


def test_generator_is_seeded_and_reaches_the_defect_regimes():
    for name, gen in workloads.GENERATORS.items():
        assert [j.argv for j in gen(5)] == [j.argv for j in gen(5)], name
        assert [j.argv for j in gen(5)] != [j.argv for j in gen(6)], name
    for seed in range(20):
        jobs = workloads.exp_series_jobs(seed)
        cells = [(job.meta["k"], job.meta["sigma"], job.meta["window"]) for job in jobs]
        far = [w for k, s, w in cells if float(k) * float(s) == pytest.approx(0.2) and min(map(abs, w)) >= 700]
        near = [w for k, s, w in cells if float(k) * float(s) == pytest.approx(0.9) and 60 <= min(map(abs, w)) <= 100]
        assert far and near
        for k, s, (lo, hi) in cells:
            ks = float(k) * float(s)
            assert 0.1 <= ks <= 0.95 and max(abs(lo), abs(hi)) <= workloads.M_MAX
            assert max(abs(lo), abs(hi)) * ks / (1 - ks) <= workloads.TERM_PEAK_CAP


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_every_declared_metric_is_printed_with_its_unit(name, trace):
    with open(BENCHMARK, encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    cmd = [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", name, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    line = _last_json(out.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in line["metrics"].items()}
    for metric in declared:
        assert f"  {metric['name']} " in out.stdout


def test_each_iteration_runs_in_fresh_processes(tmp_path):
    jobs = workloads.exact_algebra_jobs(2, quick=True)
    deadline = time.perf_counter() + 120
    samples, procs, checks, consistent = run.run_untraced(jobs, str(tmp_path), 1.0, False, deadline)
    assert len(procs) >= 2 and len({r["pid"] for r in procs}) == len(procs)
    assert consistent and checks["outputs"]["failed"] == 0
    with open(tmp_path / "algebra.json", encoding="utf-8") as handle:
        assert json.load(handle)["cache_size_at_start"] in (0, None)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "exp_series", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
