"""Run one workload in this (fresh) process and print one JSON line.

Started by ``run.py``. Closed loop: one process, one ``run_check`` call at
a time, over the first ``--ops`` ops of the workload.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import resource
import statistics
import sys
import time

from calibration import HostSpeed
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, checks_of


def run(args: argparse.Namespace) -> dict:
    import sccheck.cli as cli

    ops = itertools.islice(WORKLOADS[args.workload].ops(args.seed, args.scale), args.ops)
    tracer = Tracer() if args.trace else None
    rows: list[dict] = []
    verdicts: list[list] = []
    problems: list[str] = []
    with HostSpeed() as speed:
        for op in ops:
            if op.text is not None:
                sys.stdin = io.StringIO(op.text)
            paths = [op.path] if op.path is not None else ["-"]
            opts = cli.CheckOptions(oracle=op.oracle, deterministic=op.deterministic)
            gc.collect()
            error = None
            if tracer:  # traced: the run_check call, not the known-answer check
                tracer.install()
            started = time.perf_counter()
            try:
                code, report = cli.run_check(paths, opts)
            except Exception as exc:  # a failed op is counted, never fatal
                error = type(exc).__name__
            ended = time.perf_counter()
            if tracer:
                tracer.uninstall()
            row = {"op": op.name, "s": ended - started, "span": (started, ended), "atoms": op.atoms, "error": error}
            if error is None:
                found = op.check(code, report)
                problems.extend(f"{op.name}: {p}" for p in found)
                statuses = [v["status"] for _, _, _, v in checks_of(report)]
                row.update(checks=len(statuses), decided=sum(s != "unknown" for s in statuses))
                verdicts.append([op.name, code, [[ob, k, v["status"]] for ob, k, _, v in checks_of(report)]])
            else:
                verdicts.append([op.name, error])
            rows.append(row)
    for row in rows:
        row["scaled_s"] = row["s"] * speed.scale(*row.pop("span"))

    out = {
        "rows": rows,
        "busy_s": sum(r["s"] for r in rows),
        "busy_scaled_s": sum(r["scaled_s"] for r in rows),
        "wrong": problems,
        "verdicts": verdicts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel_s_median": statistics.median(speed.kernels),
    }
    if tracer:
        summary = tracer.summary()
        out["spans"] = len(tracer.spans)
        out["span_summary"] = summary
        out["counters"] = dict(sorted(tracer.counters.items()))
        out["layers"] = layer_metrics(summary, tracer.counters)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()
    sys.stdout.write(json.dumps(run(args)) + "\n")


if __name__ == "__main__":
    main()
