"""Digests of the deterministic seed-0 reports on the benchmark's ops,
stdlib only.

Takes the ops of each workload's traced run at seed 0 and full scale from
the generators in ``bench/workloads.py``, each op name at its first
occurrence (corpus 1, banded 7, random-linear 200 and wide-conj 5 today:
the corpus op repeats and wide-conj repeats its five sizes), and runs each
through ``sccheck.cli.run_check`` with ``deterministic=True`` and the op's
own ``oracle`` setting. Prints one ``workload/index/name digest``
line per op, where the digest is the SHA-256 of the exit code and the JSON
report (the exception's type name when ``run_check`` raises), then one
``total`` digest over those lines.

    python3 tools/reports.py > reports.txt

A refactor that keeps every report is one whose output matches the
parent's: run the tool in both checkouts and ``diff`` the outputs.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    os.chdir(ROOT)  # the corpus op names its file relative to the root
    from sccheck.cli import CheckOptions, run_check
    from workloads import WORKLOADS

    lines = []
    for workload, w in WORKLOADS.items():
        seen = set()
        for index, op in enumerate(itertools.islice(w.ops(0, "full"), w.trace_ops)):
            if op.name in seen:
                continue
            seen.add(op.name)
            sys.stdin = io.StringIO(op.text or "")
            paths = [op.path] if op.path is not None else ["-"]
            try:
                code, report = run_check(paths, CheckOptions(oracle=op.oracle, deterministic=True))
            except Exception as exc:
                digest = type(exc).__name__
            else:
                digest = hashlib.sha256(json.dumps([code, report]).encode()).hexdigest()
            lines.append(f"{workload}/{index}/{op.name} {digest}")
            print(lines[-1], flush=True)
    print("total", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
