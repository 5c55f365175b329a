"""Digests of deterministic reports: the seed-0 reports on the benchmark's
ops, and the oracle reports on the composition soundness seeds. The tool
uses the stdlib only, with no flags.

Takes the ops of each workload's traced run at seed 0 and full scale from
the generators in ``bench/workloads.py``, each op name at its first
occurrence (corpus 1, banded 7, random-linear 200 and wide-conj 5 today:
the corpus op repeats and wide-conj repeats its five sizes), and runs each
through ``sccheck.cli.run_check`` with ``deterministic=True`` and the op's
own ``oracle`` setting. Then takes the document of each seed in ``SEEDS``
of ``tests/test_composition_soundness.py`` (50 today, most of them with
a quantified residue), feeds it on stdin, and runs it with that module's
``OPTIONS``, ``oracle=True`` and ``deterministic=True`` (importing that
module needs pytest, as the tests do). Prints one
``workload/index/name digest`` line per op and one ``soundness/seed
digest`` line per seed, where the digest is the SHA-256 of the exit code
and the JSON report (the exception's type name when ``run_check``
raises), then one ``total`` digest over those lines.

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


def ops():
    """Yield each op as (name, text, path, options), in the order above:
    a document is given as text (fed on stdin) or by path."""
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]
    os.chdir(ROOT)  # the corpus op names its file relative to the root
    from sccheck.cli import CheckOptions
    from test_composition_soundness import OPTIONS, SEEDS, random_composition
    from workloads import WORKLOADS

    for workload, w in WORKLOADS.items():
        seen = set()
        for index, op in enumerate(itertools.islice(w.ops(0, "full"), w.trace_ops)):
            if op.name not in seen:
                seen.add(op.name)
                yield f"{workload}/{index}/{op.name}", op.text, op.path, CheckOptions(oracle=op.oracle, deterministic=True)
    options = CheckOptions(engine=OPTIONS, oracle=True, deterministic=True)
    for seed in SEEDS:
        yield f"soundness/{seed}", random_composition(seed), None, options


def run(text: str | None, path: str | None, options) -> tuple[int, dict]:
    """``run_check`` on one op's document."""
    from sccheck.cli import run_check

    sys.stdin = io.StringIO(text or "")
    return run_check([path or "-"], options)


def main() -> int:
    lines = []
    for name, text, path, options in ops():
        try:
            code, report = run(text, path, options)
        except Exception as exc:
            value = type(exc).__name__
        else:
            value = hashlib.sha256(json.dumps([code, report]).encode()).hexdigest()
        lines.append(f"{name} {value}")
        print(lines[-1], flush=True)
    print("total", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
