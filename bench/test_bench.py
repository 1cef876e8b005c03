"""Smoke tests of the benchmark itself: `python3 -m pytest bench -q`.

Each workload runs at its smoke size (a few seconds, every stage and check
exercised) and must print a correct result whose metrics are exactly the ones
BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpora  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                     "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    # The smoke-size model need not learn, so its accuracy may be 0.
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "test_accuracy")


def test_smoke_traced_run_reports_every_layer_and_repeats_counts():
    args = ("--workload", "email", "--seed", "4", "--seconds", "1", "--trace", "1", "--smoke")
    first, second = run_bench(*args), run_bench(*args)
    for proc in (first, second):
        assert proc.returncode == 0, proc.stderr
    result = json.loads(second.stdout.splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    details = json.loads(second.stdout.splitlines()[-2])
    assert details["checks"]["counts_repeat"]["detail"] == "identical to the recorded run"
    assert details["checks"]["tracing_leaves_artifacts_identical"]["ok"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sms", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_corpora_are_seeded_and_separable():
    counts = corpora.class_counts(100, corpora.PAPER_MIX, minimum=5)
    assert counts == {"ham": 82, "spam": 13, "phishing": 5}
    rows = corpora.make_corpus("email", counts, seed=1)
    assert rows == corpora.make_corpus("email", counts, seed=1)
    assert rows != corpora.make_corpus("email", counts, seed=2)
    assert all(corpora.keyword_label(text) == label for text, label in rows)
    assert all(len(text.split()) >= 120 for text, _ in rows)


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
