"""Smoke tests for the benchmark itself: tiny jobs, real wiring.

Run from the repository root (they are outside the tier-1 test paths):

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import child  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_refuses_to_run_without_the_program(tmp_path):
    # a directory holding only the benchmark: exit non-zero, print no result
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench("hyper-columns", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checks_reject_wrong_outputs():
    frozen = child.load_frozen()
    job = child.JOBS["hyper-columns"]["full"][1]
    want = frozen["outputs"][job.name]
    assert child.check_frozen(job, want, None, None, frozen) is None
    assert child.check_frozen(job, want.replace("UNKNOWN", "0", 1), None, None, frozen)
    csv_text = "d1,d2,l,h,count,provenance\n3,2,2,0,96,\n3,2,2,1,17,\n"
    assert child.check_csv_counts(None, csv_text, None, ["96", "16"], frozen)
    verify = "".join("relation %2d: pass\n" % i for i in range(1, 18))
    assert child.check_verify(None, verify + "17/17 relations pass at c_max=4\n",
                              None, 4, frozen) is None
    assert child.check_verify(None, verify + "16/17 relations pass at c_max=4\n",
                              None, 4, frozen)


def test_stream_is_seeded_and_mixed():
    codim = (0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 4)
    pool = child.stream_pool(codim)
    assert len(pool) == len(child.load_pool_values())
    first = child.make_stream(pool, 11, 0, 1000)
    assert first == child.make_stream(pool, 11, 0, 1000)
    assert first != child.make_stream(pool, 12, 0, 1000)
    second = child.make_stream(pool, 12, 0, 1000)
    assert first != second
    assert sum(q[3] for q in first) == 300
    assert 30 <= sum(set(q[2]) == {4} for q in first) < 80

    # the seed picks keys and order; every stratum gets its fixed quota
    _, quotas = child.stream_quotas(pool, 670)
    assert sum(quotas.values()) == 670
    for stream in (first, second):
        mix = Counter((q[1], len(q[2])) for q in stream if not q[3])
        assert sum(mix.values()) == 700
        assert all(mix[key] >= n for key, n in quotas.items())


def test_speed_clock_counts_cpu_work_not_sleep():
    import time

    from speedclock import SpeedClock

    clock = SpeedClock().start()
    try:
        t0 = clock.now()
        time.sleep(0.2)
        slept = clock.now() - t0
        t1 = clock.now()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(100))
        busy = clock.now() - t1
    finally:
        clock.stop()
    assert slept < 0.05 < busy
    assert len(clock.samples) > 1 and all(s > 0 for s in clock.samples)
