"""Smoke run of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload, untraced and traced, and checks that every metric the
benchmark promises is emitted, that the traced counts repeat exactly, and
that the command refuses to report without the repository's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import baxter_number, catalan, compositions, involutions  # noqa: E402

END_TO_END = {"setup_s", "run_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb", "fail_ratio"}
PER_LAYER = {
    "words.enum_s", "words.count",
    "plactic.key_us", "hypoplactic.key_us", "sylvester.key_us",
    "stalactic.key_us", "taiga.key_us", "baxter.key_us",
    "handles.key_calls", "handles.key_calls_per_class",
    "shiftgraph.build_s", "shiftgraph.components_s", "shiftgraph.classes", "shiftgraph.edges",
    "shiftgraph.diameter_s", "shiftgraph.bfs_sources",
    "shiftgraph.distance_s", "shiftgraph.keys_per_answer",
    "hypoplactic.path_ms", "sylvester.path_ms", "taiga.path_ms", "stalactic.path_ms",
    "hypoplactic.path_stretch", "sylvester.path_stretch", "taiga.path_stretch",
    "stalactic.path_stretch", "paths.check_ms", "path_steps_per_pair",
    "rewrite.close_ms", "rewrite.close_calls", "rewrite.class_size",
    "trace.overhead_s",
}
EXACT = [
    "words.count", "handles.key_calls", "shiftgraph.classes", "shiftgraph.edges",
    "shiftgraph.bfs_sources", "rewrite.close_calls", "path_steps_per_pair",
]
WORKLOADS = ["census", "deep", "paths", "queries"]


def bench(tmp_path: Path, workload: str, trace: int, root: Path = ROOT):
    out = tmp_path / "results.jsonl"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    return proc, out


def last_record(out: Path) -> dict:
    return json.loads(out.read_text().splitlines()[-1])


def test_digest_ignores_identity_and_set_order():
    from child import digest

    from cycshift import sylvester

    a, b = sylvester.right_bst((2, 1, 3)), sylvester.right_bst((2, 1, 3))
    assert a is not b and digest([a, {3, 1, 2}]) == digest([b, {2, 3, 1}])
    assert digest(sylvester.right_bst((1, 2, 3))) != digest(a)


def test_closed_forms():
    assert [involutions(n) for n in range(9)] == [1, 1, 2, 4, 10, 26, 76, 232, 764]
    assert [baxter_number(n) for n in range(1, 9)] == [1, 2, 6, 22, 92, 422, 2074, 10754]
    assert [catalan(n) for n in range(1, 9)] == [1, 2, 5, 14, 42, 132, 429, 1430]
    assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(tmp_path, workload, trace):
    proc, out = bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = last_record(out)
    assert END_TO_END <= set(record["end_to_end"])
    assert record["end_to_end"]["fail_ratio"] == 0
    if workload == "paths":
        assert record["end_to_end"]["path_steps_per_pair"] > 0
    if trace:
        assert PER_LAYER <= set(record["per_layer"])
        assert (tmp_path / "spans-{}-seed7.json".format(workload)).is_file()
    for key in ("seed", "python_hash_seed", "python", "nproc", "git_sha", "probe_ms"):
        assert key in record["env"]
    for name in END_TO_END:
        assert name in proc.stdout


def test_traced_counts_repeat_exactly(tmp_path):
    for workload in WORKLOADS:
        firsts = []
        for run in range(2):
            proc, out = bench(tmp_path / f"{workload}{run}", workload, 1)
            assert proc.returncode == 0, proc.stderr
            firsts.append({k: last_record(out)["per_layer"][k] for k in EXACT})
        assert firsts[0] == firsts[1]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, _ = bench(tmp_path, "census", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
