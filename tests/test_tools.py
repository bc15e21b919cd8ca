import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_of_a_tree_against_itself_stores_identical_bytes():
    # A/A smoke run: both sides are this tree, so every block must match and
    # every output check pass; the timings are noise and are not checked
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
                           "--workload", "many-policies", "--seed", "1", "--messages", "3"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["identical_bytes"] and report["ctb_files"] > 0
    assert report["failures"] == {"parent": [], "change": []}
    assert all(report[kind]["of"] == 3 for kind in ("encrypt", "decrypt", "verify"))


def test_ab_reads_the_warm_up_count_of_the_tree(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    assert _ab().warmup_messages(ROOT) == workloads.WARMUP_MESSAGES


def test_ab_refuses_a_side_that_timed_another_count():
    # a comparison that measured fewer or more messages than asked is an
    # error, not a report with missing ratios
    ab = _ab()
    assert ab.ratios([1.0, 2.0], [0.5, 2.0], 2)["won"] == 1
    for parent, change in (([1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0]), ([], [])):
        with pytest.raises(ab.ABError):
            ab.ratios(parent, change, 2)
