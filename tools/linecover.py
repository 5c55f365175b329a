"""Line coverage of ``src/sccheck`` under the tier-1 suite, stdlib only.

Runs ``pytest tests`` in this process under ``sys.settrace``, recording
only frames whose code lives in ``src/sccheck``. The executable lines of a
module are the line numbers of its compiled code objects (``co_lines``),
so ``else:``, blank lines and comments never count. Prints, per module,
the executable and never-run line counts, then every never-run line as
``file:line: source``.

    python3 tools/linecover.py

The traced suite is several times slower than a plain run.
"""

from __future__ import annotations

import os
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sccheck"


def executable_lines(path: pathlib.Path) -> set[int]:
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed: list[tuple[pathlib.Path, int]] = []
    total_exec = 0
    print(f"{'module':<16} {'executable':>10} {'never run':>10}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - ran.get(str(path), set()))
        total_exec += len(lines)
        missed.extend((path, n) for n in never)
        print(f"{path.name:<16} {len(lines):>10} {len(never):>10}")
    print(f"{'total':<16} {total_exec:>10} {len(missed):>10}")
    sources: dict[pathlib.Path, list[str]] = {}
    for path, n in missed:
        text = sources.setdefault(path, path.read_text(encoding="utf-8").splitlines())
        print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
