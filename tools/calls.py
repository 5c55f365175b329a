"""Python calls per op set of ``tools/reports.py``, as cProfile counts
them. The tool uses the stdlib only, with no flags.

Runs each op of ``tools/reports.py`` (the benchmark's seed-0 ops and the
composition soundness seeds) through its ``run`` under ``cProfile``, and
prints the total calls, builtins included, per op set (corpus-oracle,
banded, random-linear, wide-conj, soundness), then a total. Under each op
set's line come the ten ``src/sccheck`` functions that op set calls most,
one ``  module.function calls`` line each (nested functions by their
qualified name on Python 3.11 and later), ties in name order. An op that
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
from collections import Counter

import reports

PACKAGE = str(reports.ROOT / "src" / "sccheck")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    totals: dict[str, int] = {}
    functions: dict[str, Counter[str]] = {}
    for name, text, path, options in reports.ops():
        with cProfile.Profile() as profiler:
            try:
                reports.run(text, path, options)
            except Exception:
                pass
        op_set = name.split("/")[0]
        entries = profiler.getstats()
        totals[op_set] = totals.get(op_set, 0) + sum(entry.callcount for entry in entries)
        counts = functions.setdefault(op_set, Counter())
        for entry in entries:
            code = entry.code  # a string for builtins
            if not isinstance(code, str) and os.path.dirname(code.co_filename) == PACKAGE:
                module = os.path.splitext(os.path.basename(code.co_filename))[0]
                counts[f"{module}.{getattr(code, 'co_qualname', code.co_name)}"] += entry.callcount
    for op_set, calls in totals.items():
        print(op_set, calls)
        for function, count in sorted(functions[op_set].items(), key=lambda item: (-item[1], item[0]))[:10]:
            print(f"  {function} {count}")
    print("total", sum(totals.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
