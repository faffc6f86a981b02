"""Self-test of the benchmark: tiny versions of every workload.

    python3 -m pytest perfbench/tests -q

Each run uses ``--quick`` (lowest process count only) and
``--seconds 0`` (the two-pass minimum), so the whole file takes about
a minute on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run_bench(workload, trace=0, extra=(), env=None, cwd=ROOT, script=None):
    cmd = [
        sys.executable, str(script or BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", "0",
        "--trace", str(trace), "--quick", *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})},
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_worker_crash_is_retried_not_fatal(tmp_path):
    from_src = str(ROOT / "src")
    sys.path.insert(0, from_src)
    try:
        from repro.api import FaultPlan
    finally:
        sys.path.remove(from_src)
    plan = FaultPlan(
        kind="crash", ledger=str(tmp_path / "ledger"), match="Q6:hpv:1:"
    )
    proc = run_bench(
        "machines_jobs2", trace=1, env={"REPRO_FAULT_INJECT": plan.to_env()}
    )
    result = result_of(proc)
    assert any((tmp_path / "ledger").iterdir()), "the fault never fired"
    retries = result["metrics"]["core.parallel.retries"]["value"]
    assert retries >= 1 or result["failed"] >= 1


def test_corrupted_expected_digest_is_reported_as_failure(tmp_path):
    digests = tmp_path / "digests.json"
    recorded = result_of(run_bench(
        "q21_index", extra=["--digests", str(digests), "--record-digests"]
    ))
    assert recorded["correct"] is True
    table = json.loads(digests.read_text())
    cells = table["seeds"][str(SEED)]
    first = sorted(cells)[0]
    cells[first] = "0" * 16
    digests.write_text(json.dumps(table))

    proc = run_bench("q21_index", extra=["--digests", str(digests)])
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "digest_mismatch 0 " not in proc.stdout
    assert f"FAILED {first} (seed {SEED}): digest" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("q21_index", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
