"""Python calls per op set of ``tools/reports.py``, as cProfile counts
them. The tool uses the stdlib only, with no flags.

Runs each op of ``tools/reports.py`` (the benchmark's seed-0 ops and the
composition soundness seeds) through its ``run`` under ``cProfile``, and
prints the total calls, builtins included, per op set (corpus-oracle,
banded, random-linear, wide-conj, soundness), then a total. An op that
raises counts the calls up to its exception. The order sets iterate in
moves these counts, so the tool re-runs itself with ``PYTHONHASHSEED=0``
and two runs print the same lines: run it in two checkouts and ``diff``
the outputs. The calls are summed over the profiler's entries, one per
function object: ``pstats`` keys functions by file, line and name, so
functions that share all three (the ``__init__`` every dataclass compiles
from ``<string>``) would keep only one count, chosen by memory layout.

    python3 tools/calls.py
"""

from __future__ import annotations

import cProfile
import os
import sys

import reports


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    totals: dict[str, int] = {}
    for name, text, path, options in reports.ops():
        with cProfile.Profile() as profiler:
            try:
                reports.run(text, path, options)
            except Exception:
                pass
        op_set = name.split("/")[0]
        totals[op_set] = totals.get(op_set, 0) + sum(entry.callcount for entry in profiler.getstats())
    for op_set, calls in totals.items():
        print(op_set, calls)
    print("total", sum(totals.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
