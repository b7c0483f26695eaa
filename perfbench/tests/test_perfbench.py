"""The benchmark's own tests: every workload at a tiny size, traced and not.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_froblab()

import answers  # noqa: E402
import froblab.groebner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def counters(layers):
    return {k: v for k, v in layers.items() if not isinstance(v, float)}


@pytest.mark.parametrize("name", NAMES)
def test_tiny_pass_meets_known_answers(name):
    record = run.run_pass(name, seed=5, tiny=True)
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] > 0
    assert record["reports"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_passes_repeat_counters_and_output(name):
    original = froblab.groebner.ideal_member
    plain = run.run_pass(name, seed=7, tiny=True)
    first = run.run_pass(name, seed=7, traced=True, tiny=True)
    second = run.run_pass(name, seed=7, traced=True, tiny=True)
    assert froblab.groebner.ideal_member is original  # wrappers removed
    assert plain["digest"] == first["digest"] == second["digest"]
    assert counters(first["layers"]) == counters(second["layers"])
    assert set(first["layers"]) == {n for n, _, _ in tracing.PER_LAYER}
    for layer in workloads.WORKLOADS[name].layers:
        assert first["layers"][f"{layer}.calls"] > 0, layer


def test_wrong_known_answer_fails_the_pass(monkeypatch):
    monkeypatch.setattr(answers, "nu_coordinate_ideal", lambda p, e: 2 * p**e - 1)
    record = run.run_pass("thresholds", seed=0, tiny=True)
    assert record["failed"] == 1
    assert "known answer" in record["problems"][0]


def test_item_that_raises_counts_as_failed(monkeypatch):
    def boom(data):
        raise RuntimeError("injected")

    items = workloads.items_determinantal
    monkeypatch.setattr(
        workloads.WORKLOADS["determinantal"], "items",
        lambda data: [workloads.Item("boom", lambda: boom(data), None)] + items(data),
    )
    record = run.run_pass("determinantal", seed=0, tiny=True)
    assert record["failed"] == 1 and "raised RuntimeError" in record["problems"][0]


def test_tail_keeps_ten_items_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "script", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_every_metric_and_workload():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == set(run.NOMINAL_PASS_S)
