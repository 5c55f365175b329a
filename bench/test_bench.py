"""Self-test of the benchmark at its smallest sizes (banded n <= 3, five
random documents, m = 100, one corpus run).

    python3 -m pytest bench/test_bench.py

It checks the output shape, the metric names and units against
BENCHMARK.json, the known answers and the exact work counters, and asserts
nothing about wall-clock time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PRINTED_ONLY = {"failed_ratio": "ratio", "wrong_verdicts": "count"}


def bench(workload: str, trace: int, seed: int = 5) -> tuple[list[str], dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-2]), json.loads(lines[-1])


def check_final(final: dict, metrics: list[dict]) -> None:
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert isinstance(final["attempted"], int) and final["attempted"] >= 1
    assert isinstance(final["failed"], int) and 0 <= final["failed"] <= final["attempted"]
    assert {m["name"]: m["unit"] for m in metrics} == {k: v["unit"] for k, v in final["metrics"].items()}
    for value in final["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run(workload):
    lines, full, final = bench(workload, trace=0)
    check_final(final, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert final["metrics"][metric["name"]]["value"] > 0
    printed = {line.split()[1]: line.split()[3] for line in lines[:-2]}
    assert printed == {**{m["name"]: m["unit"] for m in SPEC["end_to_end"]}, **PRINTED_ONLY}
    assert set(full["machine"]) == {"nproc", "cpu", "python", "git_sha", "source_sha256"}
    (run,) = full["runs"]
    assert (run["workload"], run["seed"], run["trace"]) == (workload, 5, 0)
    assert run["metrics"]["wrong_verdicts"][0] == 0
    assert run["tail"]["samples"] == run["attempted"] - run["failed"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counters(workload):
    _, first, final = bench(workload, trace=1)
    _, second, _ = bench(workload, trace=1)
    check_final(final, SPEC["per_layer"])
    one, two = first["runs"][0], second["runs"][0]
    assert one["verdicts_match_untraced"] and two["verdicts_match_untraced"]
    assert one["counters"] == two["counters"]
    assert one["counters_sha256"] == two["counters_sha256"]
    metrics = final["metrics"]
    assert metrics["algebra.checks.calls"]["value"] > 0
    assert metrics["engine.decide_satisfiability.calls"]["value"] > 0
    assert metrics["parser.parse_only.self_s"]["value"] > 0
    if workload == "corpus-oracle":
        # the oracle runs, and 12 of 27 checks repeat a leaf check
        assert metrics["model.eval_assertion.calls"]["value"] > 0
        assert metrics["algebra.verify_min_characterization.self_s"]["value"] > 0
        assert metrics["algebra.checks.repeat_ratio"]["value"] == pytest.approx(12 / 27)
    else:
        assert metrics["algebra.verify_min_characterization.self_s"]["value"] == 0
    if workload == "banded":
        assert metrics["engine.normalize.disjuncts"]["value"] > 0
        assert metrics["engine.fm_eliminate.constraints"]["value"] > 0
        assert metrics["engine.interval_eval.calls"]["value"] > 0


def test_fails_without_the_program():
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=ROOT) as tmp:
        alone = Path(tmp)
        shutil.copytree(BENCH, alone / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        argv = [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1"]
        argv += ["--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=alone, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
