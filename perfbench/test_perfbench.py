"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import kv_workload  # noqa: E402
import measure  # noqa: E402
import study_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def _units(metrics: dict) -> dict:
    """Units of the gated metrics a workload reported."""
    return {name: unit for name, (_, unit) in metrics.items()
            if name in END_TO_END}


def test_study_tables_untraced_checks_and_reports_every_metric():
    out = io.StringIO()
    result = study_workload.run(ROOT, seed=3, seconds=0.1, trace=False,
                                out=out, horizon=600.0)
    assert result["correct"], out.getvalue()
    assert result["failed"] == 0
    assert _units(result["metrics"]) == END_TO_END
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert "48/48 cells match" in out.getvalue()


def test_study_tables_traced_rows_sum_to_the_traced_total():
    out = io.StringIO()
    result = study_workload.run(ROOT, seed=3, seconds=0.1, trace=True,
                                out=out, horizon=600.0)
    assert result["correct"], out.getvalue()
    layers = result["layers"]
    rows = ("failures.trace_s", "evaluator.access_s", "net.view_s",
            "core.synchronize_s", "core.recover_stale_s",
            "core.is_available_s", "evaluator.replay_self_s",
            "study.unattributed_s")
    assert sum(layers[name] for name in rows) == \
        pytest.approx(layers["study.traced_s"])
    assert layers["core.evaluate_calls"] > layers["net.view_calls"] > 0
    assert 0 < layers["core.evaluate_repeat_ratio"] < 1
    assert layers["core.evaluate_per_event"] > 1
    assert set(layers) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload,seconds", [("kv-contended", 2.0),
                                              ("kv-partition", 5.0)])
def test_kv_workloads_check_and_report(tmp_path, workload, seconds):
    out = io.StringIO()
    result = kv_workload.run(workload, tmp_path, seed=5, seconds=seconds,
                             trace=True, out=out)
    assert result["correct"], out.getvalue()
    assert _units(result["metrics"]) == END_TO_END
    layers = result["layers"]
    assert set(layers) <= {m["name"] for m in SPEC["per_layer"]}
    assert layers["replica.rounds_per_op"] > 0
    assert layers["wal.records_per_op"] > 0
    assert layers["span.quorum.round.self_s"] > 0
    if workload == "kv-partition":
        assert layers["recovery.reinsert_s"] > 0
        assert layers["proxy.dropped_ratio"] > 0


def test_exclusive_time_splits_parallel_children_and_sums_to_root():
    from repro.obs.dtrace.collect import build_traces

    spans = [
        {"trace": "t", "span": "a", "name": "client.get",
         "start": 0.0, "dur": 1.0},
        {"trace": "t", "span": "b", "parent": "a", "name": "rpc.state?",
         "start": 0.2, "dur": 0.4},
        {"trace": "t", "span": "c", "parent": "a", "name": "rpc.state?",
         "start": 0.4, "dur": 0.4},
    ]
    self_s, exclusive_s, total = measure.span_times(build_traces(spans))
    assert total == pytest.approx(1.0)
    assert self_s["client.get"] == pytest.approx(0.4)
    assert self_s["rpc.state"] == pytest.approx(0.8)
    assert exclusive_s["rpc.state"] == pytest.approx(0.6)
    assert sum(exclusive_s.values()) == pytest.approx(total)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
