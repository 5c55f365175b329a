"""Benchmark for sccheck: times ``sccheck.cli.run_check`` end to end and,
in a separate traced run, each layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--scale full|smoke] [--out FILE]

Each workload runs in its own fresh process (``worker.py``), closed loop:
one ``run_check`` call at a time. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs a fixed prefix of the workload twice, untraced
and traced, each in a fresh process, and reports the per-layer metrics and
the tracing overhead. Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it holds the
full record: machine, Python, git SHA, seed, per-op rows and counters.

``--seconds`` sets how much work a timed run does: the whole passes over
the workload's ops that take about that long in scaled time, so every run
of one length does the same ops. Times are scaled to a reference host speed
(see ``calibration.py``); raw wall times are in the full record.
``setup_s`` is the median import time of ``sccheck.cli`` over fresh
interpreters.

Standard library only. The program is imported from ``src/`` of the
checkout this file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import HostSpeed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BUDGET_S = 170  # every run ends within 180 s, builds included
SETUP_PROBES = 15

# the end-to-end metrics the final JSON line carries; failed_ratio and
# wrong_verdicts are printed too, but are 0 on most workloads, so they reach
# the final line as ``failed`` and ``correct``
HEADLINE = ("setup_s", "atoms_per_s", "verdict_ms_p50", "verdict_ms_tail", "decided_ratio", "peak_rss_mb")

# when the import of sccheck.cli in a fresh interpreter starts and ends
PROBE = "import time; t = time.perf_counter(); import sccheck.cli; print(t, time.perf_counter())"


class BenchError(Exception):
    pass


class Runner:
    """Starts the fresh processes of one benchmark invocation, each bounded
    by what is left of the time budget."""

    def __init__(self, budget_s: float) -> None:
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def python(self, *args: str) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            done = subprocess.run(
                [sys.executable, *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(args[:3])} ran past the time budget") from None
        if done.returncode != 0:
            raise BenchError(f"{' '.join(args[:3])} exited {done.returncode}:\n{done.stderr[-2000:]}")
        return done.stdout.strip().splitlines()[-1]

    def worker(self, args: argparse.Namespace, ops: int, trace: int) -> dict:
        argv = [str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
        argv += ["--ops", str(ops), "--trace", str(trace), "--scale", args.scale]
        return json.loads(self.python(*argv))

    def setup_s(self) -> tuple[float, list[float]]:
        """Median import time of ``sccheck.cli`` over fresh interpreters,
        after one unmeasured import that leaves the bytecode cache warm."""
        self.python("-c", PROBE)
        with HostSpeed() as speed:
            spans = [tuple(map(float, self.python("-c", PROBE).split())) for _ in range(SETUP_PROBES)]
        samples = [(end - start) * speed.scale(start, end) for start, end in spans]
        return statistics.median(samples), samples


def tail(samples: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least 10 samples beyond it, by
    nearest rank: (value, percentile, samples beyond). With fewer than 11
    samples none qualifies, and the maximum is reported as percentile 100.
    A run's sample count is fixed by its length, so the percentile is too."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    percentile = (100 * (n - 10)) // n
    rank = max(1, math.ceil(percentile * n / 100))
    return ordered[rank - 1], percentile, n - rank


def end_to_end(result: dict, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics of one timed run, name -> [value, unit], and
    the facts behind the tail percentile.

    The p50 is taken over distinct inputs, each the median of its repeats,
    so that with two inputs repeated equally often (wide-conj) it does not
    fall into the gap between their samples. The tail is taken over all
    completed ops."""
    rows = result["rows"]
    done = [r for r in rows if r["error"] is None]
    times_ms = [r["scaled_s"] * 1000 for r in done] or [0.0]
    by_input: dict[str, list[float]] = {}
    for r in done:
        by_input.setdefault(r["op"], []).append(r["scaled_s"] * 1000)
    p50 = statistics.median(statistics.median(v) for v in by_input.values()) if by_input else 0.0
    value, percentile, beyond = tail(times_ms)
    checks = sum(r["checks"] for r in done)
    metrics = {
        "setup_s": [setup_s, "s"],
        "atoms_per_s": [sum(r["atoms"] for r in done) / result["busy_scaled_s"], "1/s"],
        "verdict_ms_p50": [p50, "ms"],
        "verdict_ms_tail": [value, "ms"],
        "decided_ratio": [sum(r["decided"] for r in done) / checks if checks else 0.0, "ratio"],
        "failed_ratio": [(len(rows) - len(done)) / len(rows), "ratio"],
        "wrong_verdicts": [len(result["wrong"]), "count"],
        "peak_rss_mb": [result["peak_rss_mb"], "MB"],
    }
    return metrics, {"percentile": percentile, "beyond": beyond, "samples": len(done)}


def per_op(rows: list[dict]) -> dict:
    """Per-op rows grouped by op name: runs, median time, failures."""
    out: dict[str, dict] = {}
    for r in rows:
        out.setdefault(r["op"], []).append(r)
    return {
        name: {
            "runs": len(rs),
            "median_ms": statistics.median(r["scaled_s"] * 1000 for r in rs),
            "median_raw_ms": statistics.median(r["s"] * 1000 for r in rs),
            "atoms": rs[0]["atoms"],
            "errors": sorted({r["error"] for r in rs if r["error"]}),
        }
        for name, rs in out.items()
    }


def machine() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "sccheck").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "git_sha": sha,
        "source_sha256": sources.hexdigest(),
    }


def timed(runner: Runner, args: argparse.Namespace) -> dict:
    setup, setup_samples = runner.setup_s()
    ops = WORKLOADS[args.workload].op_count(args.seconds, args.scale, traced=False)
    result = runner.worker(args, ops, trace=0)
    metrics, tail_facts = end_to_end(result, setup)
    return {
        "metrics": metrics,
        "tail": tail_facts,
        "setup_samples_s": setup_samples,
        "busy_s": result["busy_s"],
        "busy_scaled_s": result["busy_scaled_s"],
        "kernel_s_median": result["kernel_s_median"],
        "per_op": per_op(result["rows"]),
        "wrong": result["wrong"][:20],
        "attempted": len(result["rows"]),
        "failed": sum(r["error"] is not None for r in result["rows"]),
        "correct": not result["wrong"],
    }


def traced(runner: Runner, args: argparse.Namespace) -> dict:
    ops = WORKLOADS[args.workload].op_count(args.seconds, args.scale, traced=True)
    plain = runner.worker(args, ops, trace=0)
    result = runner.worker(args, ops, trace=1)
    overhead_s = result["busy_scaled_s"] - plain["busy_scaled_s"]
    metrics = {k: list(v) for k, v in result["layers"].items()}
    metrics["trace.overhead_ratio"] = [overhead_s / plain["busy_scaled_s"], "ratio"]
    same = plain["verdicts"] == result["verdicts"]
    counters = json.dumps(result["counters"], sort_keys=True)
    return {
        "metrics": metrics,
        "ops": ops,
        "untraced_busy_s": plain["busy_s"],
        "traced_busy_s": result["busy_s"],
        "overhead_scaled_s": overhead_s,
        "spans": result["spans"],
        "span_summary": result["span_summary"],
        "counters": result["counters"],
        "counters_sha256": hashlib.sha256(counters.encode()).hexdigest(),
        "verdicts_match_untraced": same,
        "per_op": per_op(result["rows"]),
        "wrong": (plain["wrong"] + result["wrong"])[:20],
        "attempted": len(result["rows"]),
        "failed": sum(r["error"] is not None for r in result["rows"]),
        "correct": same and not plain["wrong"] and not result["wrong"],
    }


def run_workload(args: argparse.Namespace) -> dict:
    runner = Runner(BUDGET_S)
    record = (traced if args.trace else timed)(runner, args)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, scale=args.scale)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest sizes, for the self-test")
    parser.add_argument("--out", default=None, help="also write the full record as JSON to this file")
    args = parser.parse_args(argv)

    if not (SRC / "sccheck" / "__init__.py").is_file():
        print(f"error: no sccheck sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            for metric, (value, unit) in record["metrics"].items():
                print(f"{name} {metric} {value:.6g} {unit}")
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    full = {"machine": machine(), "runs": records}
    print(json.dumps(full))
    if args.out:
        Path(args.out).write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    keep = None if args.trace else set(HEADLINE)
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for metric, (value, unit) in record["metrics"].items():
            if keep is None or metric in keep:
                metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
