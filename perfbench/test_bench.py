"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pcg():
    return run.load_pcgraph()


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.05",
                     "--trace", str(trace)])
    result = last_json(capsys.readouterr().out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_instance_over_time_limit_counts_as_failed_not_wrong(pcg):
    bench = run.Bench(pcg, run.WORKLOADS["gallai-n64"], {}, time_limit=0.05)
    out = bench.run(seed=2, seconds=0, count=1)
    assert out.attempted == 1 and not out.wrong
    assert [{k: v for k, v in f.items() if k != "reason"} for f in out.failures] == [
        {"family": "gallai", "n": 64, "seed": 2}
    ]
    assert len(out.failed_latencies) == 1 and not out.latencies
    assert run.end_to_end(out, setup=(0.1, 0.1))["failed_frac"][0] == 1.0


def test_tag_mismatch_is_wrong(pcg):
    bench = run.Bench(pcg, run.WORKLOADS["degenerate-n64"], {"tags_by_seed": "b"})
    out = bench.run(seed=0, seconds=0, count=1)
    assert out.wrong and "expected 'b'" in out.wrong[0]


def test_missing_wrapped_name_fails_loudly(pcg, monkeypatch):
    monkeypatch.delattr(pcg.sweep, "validate_result")
    classify = pcg.sweep.classify
    with pytest.raises(tracing.TraceError, match="pcgraph.sweep.validate_result"):
        tracing.Tracer().install()
    assert pcg.sweep.classify is classify  # nothing left half wrapped


def test_layer_never_called_is_an_error():
    rec = {"n": 8, "mono_triangle": False, "tag": "a", "growth_oracle_uses": 0}
    problems = tracing.call_problems(
        rec, Counter({"sweep.find_monochromatic_triangle": 1}), Counter(), "partial")
    assert any(p.startswith("sweep.classify:") for p in problems)
    assert any(p.startswith("sweep.validate_result:") for p in problems)


def test_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "k5-exhaustive", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
