"""Tests of the benchmark itself, on the toy (smoke) sizes of each workload.

    python3 -m pytest perfbench

No number from these runs is ever reported.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# per-layer metrics each workload must move off zero: its layers are exercised
EXERCISED = {
    "mid-link": ["numerics.spmm.bytes", "hetgraph.generate_synthetic.s",
                 "harness.leave_one_out_split.s", "tasks.bpr_loss.grad_bytes",
                 "harness.evaluate.score_bytes", "tasks.rank_metrics.s", "harness.load.s"],
    "desk-sweep": ["hetgraph.inject_edge_noise.s", "harness.train.distinct",
                   "diffusion.denoise_predict.calls", "cli.main.s", "numerics.csr_validate.calls"],
    "mid-node-files": ["hetgraph.load_edge_list.edges", "tasks.ce_loss.s",
                       "tasks.class_metrics.s", "harness.save.s", "cli.main.s"],
}


def bench(work, workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke", "--work-dir", str(work)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(tmp_path, workload):
    proc = bench(tmp_path, workload, 0)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(tmp_path, workload):
    first, second = bench(tmp_path, workload, 1), bench(tmp_path, workload, 1)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr  # compared with the first's counts
    a, b = result(first)["metrics"], result(second)["metrics"]
    assert list(a) == [m["name"] for m in BENCH["per_layer"]]
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {k: a[k]["value"] for k in counts} == {k: b[k]["value"] for k in counts}
    assert all(a[name]["value"] > 0 for name in EXERCISED[workload])


def test_changed_report_is_a_failure(tmp_path):
    assert bench(tmp_path, "mid-link", 0).returncode == 0
    records = tmp_path / "smoke" / "records.json"
    seen = json.loads(records.read_text())
    for entry in seen.values():
        entry["digest"] = "0" * 64
    records.write_text(json.dumps(seen))
    proc = bench(tmp_path, "mid-link", 0)
    res = result(proc)
    assert proc.returncode == 1 and not res["correct"] and res["failed"] == res["attempted"]
    assert "digest differs" in proc.stderr


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path / "work", "mid-link", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class Box:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls):
        return cls()


def test_install_wraps_at_the_looked_up_name_and_uninstall_restores():
    raw = dict(vars(Box))
    tracer = tracing.Tracer("test")
    tracer.install([(Box, "method", "box.method", False, None),
                    (Box, "make", "box.make", False, None)])
    assert Box.make().method(1) == 2
    tracer.uninstall()
    assert vars(Box)["method"] is raw["method"] and vars(Box)["make"] is raw["make"]
    assert [span[tracing.NAME] for span in tracer.spans] == ["box.make", "box.method"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer("test")
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    rows = tracer.summary()
    assert tracer.spans[1][tracing.PARENT] == 0
    assert rows["outer"]["total_s"] >= 0.03
    assert rows["outer"]["s"] == pytest.approx(rows["outer"]["total_s"] - rows["inner"]["total_s"])
    assert rows["inner"]["s"] == rows["inner"]["total_s"]
