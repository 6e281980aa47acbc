"""Smoke test of the benchmark itself: python3 -m pytest perfbench -q

Runs every workload at smoke scale, untraced and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit, that per-layer
self times sum to no more than the traced wall time, and that the benchmark
refuses to run outside a checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, TRACE  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke():
    """trace flag -> (result line, stdout) of a smoke run of every workload."""
    out = {}
    for trace in (0, 1):
        proc = _run(ROOT, "--workload", "all", "--smoke", "--seconds", "1",
                    "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        out[trace] = (json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout)
    return out


def test_result_lines_are_correct(smoke):
    for result, _ in smoke.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_every_named_metric_is_emitted_with_its_unit(smoke):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, stdout = smoke[trace]
        for workload in WORKLOADS:
            for metric in BENCHMARK[section]:
                emitted = result["metrics"][f"{workload}/{metric['name']}"]
                assert emitted["unit"] == metric["unit"]
                assert isinstance(emitted["value"], (int, float))
                assert f"{workload} {metric['name']} " in stdout
            assert f"{workload} failed_frac 0 " in stdout


def test_self_times_fit_in_traced_wall_time(smoke):
    result, _ = smoke[1]
    self_metrics = [n for n, (_, _, source) in PER_LAYER.items() if source[0] == "self"]
    for workload in WORKLOADS:
        m = {k.split("/", 1)[1]: v["value"] for k, v in result["metrics"].items()
             if k.startswith(f"{workload}/")}
        assert all(m[n] >= 0.0 for n in self_metrics)
        assert sum(m[n] for n in self_metrics) <= m["trace.wall_s"] * (1 + 1e-9)


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == END_TO_END
    tables = {**{k: v[:2] for k, v in PER_LAYER.items()}, **TRACE}
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == tables


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "deep-s3", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
