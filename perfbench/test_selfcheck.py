"""Self-checks of the benchmark: ``python3 -m pytest perfbench``.

They run the real role processes on a few small messages.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402

COUNTS = ("algebra.pair.calls", "algebra.g0_pow.calls", "algebra.gt_pow.calls",
          "algebra.g0_decode.calls", "algebra.hash_to_g0.calls",
          "scheme.decrypt_leaf.calls", "scheme.unlock.root", "scheme.unlock.gate",
          "scheme.unlock.chain")


def measure(workload, trace, n=2, seed=3):
    return run.measure(workload, seed, n, trace, time.monotonic() + run.DEADLINE_S)


@pytest.fixture(scope="module")
def traced_runs():
    return {w: (measure(w, 1), measure(w, 1)) for w in ("many-policies", "link")}


@pytest.mark.parametrize("workload", ["many-policies", "link"])
def test_traced_counts_repeat(traced_runs, workload):
    first, second = traced_runs[workload]
    assert first[1] == second[1] == 0
    assert {k: first[2][k] for k in COUNTS} == {k: second[2][k] for k in COUNTS}
    assert first[2]["algebra.pair.calls"][0] > 0


def test_link_measures_the_pipeline(traced_runs):
    metrics = traced_runs["link"][0][2]
    assert metrics["pipeline.upload.overlap_s"][0] > 0
    assert metrics["pipeline.download.overlap_s"][0] > 0


def test_tracing_changes_no_ciphertext():
    runner = run.Runner("many-policies", 5, time.monotonic() + run.DEADLINE_S)

    def stored(traced):
        runner.run_pass(2, traced, 1)
        store = runner.workdir / "store"
        return {str(p.relative_to(store)): p.read_bytes() for p in store.rglob("*.ctb")}

    try:
        untraced, traced = stored(False), stored(True)
    finally:
        runner.cleanup()
    assert untraced and untraced == traced


def test_metric_names_match_benchmark_json(traced_runs):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    attempted, failed, metrics, _ = measure("many-policies", 0)
    assert failed == 0 and attempted > 0
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {
        (name, unit) for name, (_, unit) in metrics.items()}
    layer = traced_runs["many-policies"][0][2]
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {
        (name, unit) for name, (_, unit) in layer.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_tail_percentile():
    values = [float(v) for v in range(1, 25)]
    assert run.tail(values) == (58, 14.0)
    assert run.tail([float(v) for v in range(1, 41)]) == (75, 30.0)


def test_refuses_without_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "link",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
