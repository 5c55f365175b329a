"""Batch front door: load specification files, run refinement obligations
through the pipeline, and emit deterministic reports.

Exit codes: 0 all checks proved; 1 some check falsified; 2 some check
unknown (and none falsified); 3 parse/type/resolution errors or bad flag
values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__
from .algebra import (
    ComposedContract,
    GridTooLarge,
    check_compatibility,
    check_consistency,
    check_refinement,
    compose_contracts,
    interpret_composed_finite,
    verify_min_characterization,
)
from .diagnostics import Diagnostic, has_errors
from .engine import DEFAULT_DNF_CAP, DEFAULT_SAMPLES, EngineOptions, Status, Verdict
from .loader import Obligation, Universe, elaborate
from .model import FiniteGrid, GridIncomplete, Loc, Rational, interpret_finite, rational, refines_finite
from .parser import merge_documents, parse_only, resolve_document


def _parse_rational(text: str) -> Rational:
    try:
        return rational(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational: {text.strip()!r}") from None


def _split_entries(text: str, what: str) -> list[tuple[str, str]]:
    """Split "name=value;name2=value2" into stripped (name, value) pairs."""
    out: list[tuple[str, str]] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad {what} entry: {part!r}")
        name, value = (s.strip() for s in part.split("=", 1))
        if any(name == seen for seen, _ in out):
            raise ValueError(f"{what} variable given twice: {name}")
        out.append((name, value))
    return out


def parse_grid_flag(text: str) -> dict[str, tuple[Rational, ...]]:
    """Parse "var=a,b,c;var2=d,e" into a grid hint mapping."""
    return {
        var: tuple(_parse_rational(v) for v in values.split(","))
        for var, values in _split_entries(text, "grid")
    }


def _witness_json(witness) -> dict[str, str]:
    return {name: str(value) for name, value in sorted(witness.items())}


def _verdict_json(v: Verdict) -> dict:
    out: dict = {"status": v.status.value}
    if v.witness:
        out["witness"] = _witness_json(v.witness)
    if v.reason is not None:
        out["reason"] = v.reason
    if v.side is not None:
        out["side"] = v.side
    return out


def exit_code_for(verdicts: Sequence[Verdict], errors: bool) -> int:
    """Exit code as a pure function of the verdict multiset."""
    if errors:
        return 3
    if any(v.status is Status.FALSIFIED for v in verdicts):
        return 1
    if any(v.status is Status.UNKNOWN for v in verdicts):
        return 2
    return 0


@dataclass
class CheckOptions:
    obligations: tuple[str, ...] = ()
    grid: Optional[dict[str, tuple[Rational, ...]]] = None
    engine: EngineOptions = EngineOptions()
    deterministic: bool = False
    oracle: bool = False


def _oracle_grid(composed: ComposedContract, hint) -> FiniteGrid:
    """Assemble the full oracle grid: parent fields plus qualified child
    fields, each looked up in the hint by :meth:`FiniteGrid.lookup`."""
    hint_grid = FiniteGrid.of(hint)
    names = list(composed.contract.subject.field_names())
    for bname, contract in composed.bindings:
        names.extend(f"{bname}.{f}" for f in contract.subject.field_names())
    return FiniteGrid.of({name: hint_grid.lookup(name) for name in names})


def _off_grid(witness, grid: FiniteGrid) -> bool:
    """Whether some witness value is not a grid point."""
    return any(value not in grid.lookup(name) for name, value in witness.items())


def _run_oracle(obligation: Obligation, composed: ComposedContract, hint, refinement: Verdict) -> dict:
    out: dict = {}
    try:
        grid = _oracle_grid(composed, hint)
    except (GridIncomplete, ValueError) as exc:  # ValueError: empty or duplicate grid values
        return {"skipped": str(exc)}
    # the grid holds every parent field and every qualified child field, and
    # the loader made the abstract subject the composed one
    concrete = interpret_composed_finite(composed, grid)
    finite = refines_finite(concrete, interpret_finite(obligation.abstract, grid))
    out["finite_refines"] = finite
    # only proved implies finite refinement: the grid shrinks the
    # composed implementations and grows its environments
    if refinement.status is Status.UNKNOWN:
        out["finite_cross_check"] = "skipped: refinement unknown"
    elif finite == (refinement.status is Status.PROVED):
        out["finite_cross_check"] = "agree"
    elif finite and _off_grid(refinement.witness or {}, grid):
        out["finite_cross_check"] = "skipped: counterexample off the grid"
    else:
        out["finite_cross_check"] = "disagree"
    try:
        out["min_characterization"] = verify_min_characterization(composed, grid, concrete)
    except GridTooLarge as exc:
        out["min_characterization"] = f"skipped: {exc}"
    return out


def run_check(paths: Sequence[str], opts: CheckOptions) -> tuple[int, dict]:
    """Run the full pipeline and return (exit code, report)."""
    report: dict = {
        "tool": "sccheck",
        "version": __version__,
        "inputs": [],
        "config": {
            "seed": opts.engine.seed,
            "samples": opts.engine.samples,
            "dnf_cap": opts.engine.dnf_cap,
            "deterministic": opts.deterministic,
            "oracle": opts.oracle,
        },
        "diagnostics": [],
        "obligations": [],
        "summary": {},
    }
    diagnostics: list[Diagnostic] = []
    documents = []
    for path in paths:
        try:
            if path == "-":
                text = sys.stdin.read()
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            # stdin may carry undecodable bytes as surrogates, which fail here
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        except UnicodeError:
            diagnostics.append(Diagnostic("error", "io", f"cannot read {path}: not valid UTF-8"))
            continue
        except OSError as exc:
            diagnostics.append(Diagnostic("error", "io", f"cannot read {path}: {exc}"))
            continue
        report["inputs"].append({"path": path, "sha256": digest})
        result = parse_only(text)
        diagnostics.extend(d.with_file(path) for d in result.diagnostics)
        documents.append(result.document)

    merged = merge_documents(documents)
    # locations in a merged multi-file document cannot be attributed to one
    # file; with a single input every later diagnostic belongs to it
    stamp = paths[0] if len(paths) == 1 else None

    def stamped(ds):
        return (d.with_file(stamp) if stamp and d.file is None else d for d in ds)

    diagnostics.extend(stamped(resolve_document(merged)))

    universe: Optional[Universe] = None
    if not has_errors(diagnostics):
        universe, more = elaborate(merged)
        diagnostics.extend(stamped(more))

    verdicts: list[Verdict] = []
    if universe is not None:
        selected = universe.obligations
        if opts.obligations:
            by_name = {o.name: o for o in selected}
            wanted = dict.fromkeys(opts.obligations)  # repeated names once, in order
            missing = [n for n in wanted if n not in by_name]
            for n in missing:
                diagnostics.append(
                    Diagnostic("error", "unknown-obligation", f"no such obligation: {n}")
                )
            selected = [by_name[n] for n in wanted if n in by_name]
        for obligation in sorted(selected, key=lambda o: o.name):
            started = time.monotonic()
            entry: dict = {"name": obligation.name, "operator": obligation.operator.name}
            checks: list[dict] = []

            def record(kind: str, subject: str, v: Verdict) -> None:
                verdicts.append(v)
                checks.append({"kind": kind, "subject": subject, "verdict": _verdict_json(v)})

            record("types", obligation.name, Verdict(Status.PROVED))
            composed = compose_contracts(obligation.operator, obligation.bindings, opts.engine)
            entry["projection"] = composed.projection
            leaves = [contract for _, contract in obligation.bindings] + [obligation.abstract]
            subjects = [(c.name, c) for c in leaves] + [(composed.contract.name, composed)]
            for name, subject in subjects:
                for kind, check in (("compatibility", check_compatibility), ("consistency", check_consistency)):
                    record(kind, name, check(subject, opts.engine))

            refinement = check_refinement(composed, obligation.abstract, opts.engine)
            record("refinement", obligation.abstract.name, refinement)
            entry["checks"] = checks

            hint: dict[str, tuple[Rational, ...]] = dict(obligation.grid_hint or {})
            if opts.grid:
                hint.update(opts.grid)
            if opts.oracle and hint:
                entry["oracle"] = _run_oracle(obligation, composed, hint, refinement)

            # a deterministic report reads the clock once, so elapsed_s is 0.0
            stopped = started if opts.deterministic else time.monotonic()
            entry["elapsed_s"] = round(stopped - started, 6)
            report["obligations"].append(entry)

    report["diagnostics"] = [
        {
            "severity": d.severity,
            "code": d.code,
            "message": d.message,
            "file": d.file,
            "line": d.loc.line if d.loc else None,
            "col": d.loc.col if d.loc else None,
            "expected": list(d.expected),
        }
        for d in diagnostics
    ]
    errors = has_errors(diagnostics)
    code = exit_code_for(verdicts, errors)
    report["summary"] = {
        "obligations": len(report["obligations"]),
        "proved": sum(1 for v in verdicts if v.status is Status.PROVED),
        "falsified": sum(1 for v in verdicts if v.status is Status.FALSIFIED),
        "unknown": sum(1 for v in verdicts if v.status is Status.UNKNOWN),
        "errors": sum(1 for d in diagnostics if d.severity == "error"),
    }
    report["exit_code"] = code
    return code, report


_MARKS = {"proved": "✓", "falsified": "✗", "unknown": "?"}


def render_text(report: dict) -> str:
    lines: list[str] = [f"sccheck {report['version']}"]
    for d in report["diagnostics"]:
        loc = None if d["line"] is None else Loc(d["line"], d["col"])
        diagnostic = Diagnostic(d["severity"], d["code"], d["message"], loc, d["file"], tuple(d["expected"]))
        lines.append(diagnostic.render())
    for ob in report["obligations"]:
        lines.append(f"== obligation {ob['name']} (operator {ob['operator']}, {ob['projection']})")
        for check in ob["checks"]:
            verdict = check["verdict"]
            mark = _MARKS[verdict["status"]]
            detail = verdict["status"]
            if "side" in verdict:
                detail += f" ({verdict['side']}-side)"
            if "witness" in verdict:
                witness = ", ".join(f"{k}={v}" for k, v in verdict["witness"].items())
                detail += f" witness: {witness}"
            if "reason" in verdict and verdict["status"] != "proved":
                detail += f" [{verdict['reason']}]"
            lines.append(f"  {mark} {check['kind']} {check['subject']}: {detail}")
        if "oracle" in ob:
            lines.append(f"  oracle: {json.dumps(ob['oracle'], sort_keys=True)}")
    s = report["summary"]
    lines.append(
        f"summary: {s.get('obligations', 0)} obligations, {s.get('proved', 0)} proved, "
        f"{s.get('falsified', 0)} falsified, {s.get('unknown', 0)} unknown, "
        f"{s.get('errors', 0)} errors"
    )
    return "\n".join(lines) + "\n"


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sccheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="check refinement obligations in spec files")
    check.add_argument("files", nargs="+", help="input .scspec files, or - for stdin")
    check.add_argument("--obligation", action="append", default=[], help="check only this obligation (repeatable)")
    check.add_argument("--grid", default=None, help='oracle grid, e.g. "r=0,1,2,3;u=0"')
    check.add_argument("--dnf-cap", type=int, default=DEFAULT_DNF_CAP)
    check.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--deterministic", action="store_true", help="zero timings for byte-identical reports")
    check.add_argument("--oracle", action="store_true", help="run finite-grid cross-checks where a grid is available")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        for flag, value in (("--samples", args.samples), ("--dnf-cap", args.dnf_cap)):
            if value < 1:
                raise ValueError(f"{flag} must be >= 1")
        opts = CheckOptions(
            obligations=tuple(args.obligation),
            grid=parse_grid_flag(args.grid) if args.grid else None,
            engine=EngineOptions(dnf_cap=args.dnf_cap, samples=args.samples, seed=args.seed),
            deterministic=args.deterministic,
            oracle=args.oracle,
        )
    except ValueError as exc:
        sys.stderr.write(f"sccheck: error: {exc}\n")
        return 3
    code, report = run_check(args.files, opts)
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=False) + "\n")
    else:
        sys.stdout.write(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
