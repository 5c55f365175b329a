"""Which verdicts each rung of the decision ladder decides alone. The tool
uses the stdlib only, with no flags.

Runs the ops of ``tools/reports.py`` (the benchmark's seed-0 ops and the
composition soundness seeds) once as they are, then once per rung with
that rung disabled by patching a module attribute of ``sccheck.engine``:

- ``interval``: ``_revise`` never refutes and narrows nothing, so
  distribution keeps every conjunction and no nonlinear disjunct is
  proved empty;
- ``sampling``: ``sample_falsify`` finds nothing.

Prints one ``rung op obligation#check kind subject: before -> after
[reason]`` line per check verdict that moves, marked ``cap`` when its op
exceeded the DNF cap more often with the rung disabled, then per rung the
count of moved verdicts and of marked ones. Distribution drops the
partial conjunctions that ``_revise`` refutes, so disabling the interval
rung can push a formula past the cap; a marked move may show that pruning
keeps the DNF small rather than that the rung refutes a disjunct. A rung
that moves no unmarked verdict decides nothing on these ops that the
other rungs do not.

    python3 tools/ablate.py
"""

from __future__ import annotations

import sys

import reports


def _never_refutes(atoms, box, queue=None, watches=None) -> bool:
    return True


def _finds_nothing(formula, box=None, budget=0, seed=0):
    return None


RUNGS = {"interval": ("_revise", _never_refutes), "sampling": ("sample_falsify", _finds_nothing)}


def verdicts(ops, caps: dict[str, int]) -> dict[tuple[str, ...], tuple[str, str]]:
    """The status and reason of every check of every op, by op,
    obligation, check index, kind and subject; an op that raises maps to
    its exception's type name. Counts into `caps`, by op, the times the
    DNF cap was exceeded."""
    from sccheck import engine

    out: dict[tuple[str, ...], tuple[str, str]] = {}
    for name, text, path, options in ops:
        before = engine.DnfCapExceeded.raised
        try:
            _, report = reports.run(text, path, options)
        except Exception as exc:
            out[(name,)] = (type(exc).__name__, "")
            continue
        finally:
            caps[name] = engine.DnfCapExceeded.raised - before
        for ob in report["obligations"]:
            for index, check in enumerate(ob["checks"]):
                key = (name, f"{ob['name']}#{index}", check["kind"], check["subject"])
                verdict = check["verdict"]
                out[key] = (verdict["status"], verdict.get("reason", ""))
    return out


def main() -> int:
    ops = list(reports.ops())
    from sccheck import engine

    class Counted(engine.DnfCapExceeded):
        """The cap exception, counting each time it is raised; the engine
        raises it by its module global, and every handler still catches it."""

        raised = 0

        def __init__(self, cap: int):
            Counted.raised += 1
            super().__init__(cap)

    original_cap, engine.DnfCapExceeded = engine.DnfCapExceeded, Counted
    try:
        base_caps: dict[str, int] = {}
        baseline = verdicts(ops, base_caps)
        moved, capped = {}, {}
        for rung, (attribute, stub) in RUNGS.items():
            original = getattr(engine, attribute)
            setattr(engine, attribute, stub)
            caps: dict[str, int] = {}
            try:
                ablated = verdicts(ops, caps)
            finally:
                setattr(engine, attribute, original)
            moved[rung] = capped[rung] = 0
            for key in sorted(baseline.keys() | ablated.keys()):
                before = baseline.get(key, ("absent", ""))[0]
                after, reason = ablated.get(key, ("absent", ""))
                if before != after:
                    cap = caps[key[0]] > base_caps[key[0]]
                    moved[rung] += 1
                    capped[rung] += cap
                    mark = " cap" if cap else ""
                    print(f"{rung}{mark} {' '.join(key)}: {before} -> {after} [{reason}]", flush=True)
    finally:
        engine.DnfCapExceeded = original_cap
    for rung, count in moved.items():
        print(f"{rung} moved {count}, {capped[rung]} of them in ops past the DNF cap more often")
    return 0


if __name__ == "__main__":
    sys.exit(main())
