"""Seeded workload generators and their known answers.

Every workload is a list of ops; an op is one ``sccheck.cli.run_check``
call on one ``.scspec`` text. Generators are pure functions of the workload
seed (and of the scale, ``full`` or ``smoke``), so the same seed always
yields the same texts. The program receives only the generated text.

Known answers are checked by ``Op.check`` after an op's timing stops. Each
mismatch is one wrong verdict; inputs that disagree are never dropped.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

CORPUS = Path("corpus") / "resistor.scspec"

_COMMENT = re.compile(r"//[^\n]*")
_QUANTITY = re.compile(r"\bquantity\b[^;]*;")
_REFINEMENT = re.compile(r"\brefinement\b[^;{]*(?:;|\{[^}]*\})")
_ARROWS = re.compile(r"->|<:")
_CMP = re.compile(r"<=|>=|!=|<|>|=")


def count_atoms(text: str) -> int:
    """Comparison atoms in contract formulas and operator glue.

    Counted on the benchmark's own input text, never on the program's
    parse: comments, quantity declarations, refinement grid lines and the
    ``->``/``<:`` punctuation are removed, and every comparison operator
    left is one atom.
    """
    text = _COMMENT.sub("", text)
    text = _QUANTITY.sub("", text)
    text = _REFINEMENT.sub("", text)
    text = _ARROWS.sub("", text)
    return len(_CMP.findall(text))


@dataclass
class Op:
    """One run_check call: its input, options and known-answer check."""

    name: str
    atoms: int
    check: Callable[[int, dict], list[str]]
    text: str | None = None  # generated text, fed to run_check as "-"
    path: str | None = None  # committed file, passed to run_check by path
    oracle: bool = False
    deterministic: bool = False


def checks_of(report: dict):
    """(obligation, kind, subject, verdict) for every check but the
    hard-coded ``types`` pseudo-check."""
    for ob in report["obligations"]:
        for c in ob["checks"]:
            if c["kind"] != "types":
                yield ob["name"], c["kind"], c["subject"], c["verdict"]


def _witness(verdict: dict) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in verdict.get("witness", {}).items()}


# ---------------------------------------------------------------------------
# corpus-oracle: the command users and acceptance criterion 9 run; ~95% of
# its time is the finite oracle, and it is the only input whose contracts
# are shared across obligations (18 of its 30 checks are leaf checks).

def corpus_oracle(seed: int, scale: str) -> Iterator[Op]:
    text = CORPUS.read_text(encoding="utf-8")
    atoms = count_atoms(text)
    first: list[str] = []

    def check(code: int, report: dict) -> list[str]:
        problems = []
        if code != 1:
            problems.append(f"exit code {code}, expected 1")
        s = report["summary"]
        if (s["proved"], s["falsified"], s["unknown"]) != (29, 1, 0):
            problems.append(f"summary {s}, expected 29 proved and 1 falsified")
        for ob_name, kind, _, v in checks_of(report):
            if ob_name == "SysByParallel" and kind == "refinement":
                if v["status"] != "falsified" or _witness(v).get("r") != Fraction(2, 3):
                    problems.append(f"SysByParallel refinement {v}, expected falsified at r = 2/3")
            elif v["status"] != "proved":
                problems.append(f"{ob_name} {kind} {v['status']}, expected proved")
        for ob in report["obligations"]:
            oracle = ob.get("oracle", {})
            if oracle.get("finite_cross_check") != "agree":
                problems.append(f"{ob['name']} oracle cross-check {oracle.get('finite_cross_check')!r}")
            if oracle.get("min_characterization") is not True:
                problems.append(f"{ob['name']} min_characterization {oracle.get('min_characterization')!r}")
        # deterministic reports of every repetition are byte-identical
        dumped = json.dumps(report)
        if not first:
            first.append(dumped)
        elif dumped != first[0]:
            problems.append("deterministic report differs from the first repetition")
        return problems

    for _ in itertools.count():
        yield Op("corpus", atoms, check, path=str(CORPUS), oracle=True, deterministic=True)


# ---------------------------------------------------------------------------
# banded: n-ary compositions whose children assume a band on the shared
# field. The series arm covers the arity and band axes (FM plus DNF take
# ~95% of its time, and n=6 exceeds the DNF cap); the parallel arm is the
# only generated input where interval contraction proves a refinement,
# sampling falsifies one and universal residues give unknown.

_BANDED_HEADER = """\
quantity voltage;
quantity current;
quantity resistance = voltage / current;

component Cell {{
  r: resistance;
  {shared}: {shared_q};
}}
"""


def _band_op(kind: str, n: int, names: list[str]) -> tuple[str, str]:
    shared, shared_q = ("i", "current") if kind == "series" else ("u", "voltage")
    params = ", ".join(f"{b}: Cell" for b in names)
    if kind == "series":
        r_glue = " + ".join(f"{b}.r" for b in names)
    else:
        r_glue = "1 / (" + " + ".join(f"1 / {b}.r" for b in names) + ")"
    glue = [f"r = {r_glue};", f"{shared} = {names[0]}.{shared};"]
    glue += [f"{b}.{shared} = {names[0]}.{shared};" for b in names[1:]]
    band = f"0 <= {shared} and {shared} <= 1"
    op_name = f"{kind}{n}"
    lines = [_BANDED_HEADER.format(shared=shared, shared_q=shared_q)]
    lines.append(f"operator {op_name}({params}) -> Cell {{")
    lines += [f"  {g}" for g in glue]
    lines.append("}\n")
    lines.append(f"contract Part : Cell {{\n  assume {band};\n  guarantee 1 <= r and r <= 2;\n}}\n")
    if kind == "series":
        specs = {"Spec": f"{n} <= r and r <= {2 * n}"}
    else:
        specs = {"Spec": f"1/{n} <= r and r <= 2/{n}", "Exact": f"r = 1/{n}"}
    binds = ", ".join(f"Part as {b}" for b in names)
    for spec, guarantee in specs.items():
        lines.append(f"contract {spec} : Cell {{\n  assume {band};\n  guarantee {guarantee};\n}}\n")
        lines.append(f"refinement {op_name}{spec} : compose {op_name}({binds}) <: {spec};\n")
    return f"{kind}{n}", "\n".join(lines)


def _banded_check(kind: str, n: int):
    def check(code: int, report: dict) -> list[str]:
        problems = []
        for ob_name, kind_, subject, v in checks_of(report):
            if v["status"] != "falsified":
                continue
            if not (kind == "parallel" and ob_name.endswith("Exact") and kind_ == "refinement"):
                problems.append(f"{ob_name} {kind_} {subject} falsified")
                continue
            # the counterexample lies in the band, its r is reachable from
            # child resistances in [1, 2] (exactly [1/n, 2/n]), and r != 1/n
            w = _witness(v)
            u, r = w.get("u", Fraction(0)), w.get("r", Fraction(0))
            ok = (
                v.get("side") == "implementation"
                and 0 <= u <= 1
                and Fraction(1, n) <= r <= Fraction(2, n)
                and r != Fraction(1, n)
            )
            if not ok:
                problems.append(f"{ob_name} witness {v.get('witness')} does not re-evaluate")
        return problems

    return check


def banded(seed: int, scale: str) -> Iterator[Op]:
    rng = random.Random(f"banded:{seed}")
    series_n = range(2, 4) if scale == "smoke" else range(2, 7)
    shapes = [("series", n) for n in series_n] + [("parallel", n) for n in (2, 3)]
    ops = []
    for kind, n in shapes:
        name, text = _band_op(kind, n, [f"a{k}" for k in range(n)])
        ops.append(Op(name, count_atoms(text), _banded_check(kind, n), text=text))
    # the seed orders the ops of each pass; the texts are fixed, because
    # binding names steer the sampling rung and so the verdicts
    while True:
        yield from rng.sample(ops, len(ops))


# ---------------------------------------------------------------------------
# random-linear: many small ladder queries with a heavy tail; the same
# engine layer as banded in the opposite shape (many small DNFs). Half the
# pairs refine by construction; the formulas follow the acceptance
# criteria's generator (depth-2 and/or/not, coefficients -3..3).
#
# The 5% slowest documents take half the time, so which documents a seed
# drew would swamp every timing. Document i is therefore the same formula
# pair for every seed, and the seed flips the sign of x and of y in it: a
# symmetry that keeps the problem and its difficulty, but not its text.

_LINEAR_HEADER = """\
quantity q;

component T {
  x: q;
  y: q;
}

operator id(a: T) -> T {
  x = a.x;
  y = a.y;
}
"""


def _linear_atom(rng: random.Random) -> tuple:
    coeffs = {v: rng.randint(-3, 3) for v in ("x", "y") if rng.random() < 0.8}
    if not coeffs:
        coeffs = {rng.choice(("x", "y")): rng.randint(1, 3)}
    op = rng.choice(("<=", "<", "=", ">=", ">"))
    return ("atom", coeffs, op, rng.randint(-4, 4))


def _linear_formula(rng: random.Random, depth: int = 2) -> tuple:
    if depth == 0 or rng.random() < 0.5:
        return _linear_atom(rng)
    node = (rng.choice(("and", "or")), _linear_formula(rng, depth - 1), _linear_formula(rng, depth - 1))
    if rng.random() < 0.2:
        node = ("not", node)
    return node


def _render(node: tuple, signs: dict[str, int]) -> str:
    kind = node[0]
    if kind == "atom":
        _, coeffs, op, bound = node
        terms = " + ".join(f"{c * signs[v]} * {v}" for v, c in coeffs.items())
        return f"({terms}) {op} {bound}"
    if kind == "not":
        return f"not ({_render(node[1], signs)})"
    return f"({_render(node[1], signs)}) {kind} ({_render(node[2], signs)})"


def _linear_check(text: str, refines: bool):
    def check(code: int, report: dict) -> list[str]:
        from sccheck.loader import elaborate
        from sccheck.model import FiniteGrid, Implies, eval_assertion, interpret_finite, refines_finite
        from sccheck.parser import parse_spec

        universe, _ = elaborate(parse_spec(text).document)
        obligation = universe.obligations[0]
        concrete, abstract = obligation.bindings[0][1], obligation.abstract
        problems = []
        for _, kind, subject, v in checks_of(report):
            w = _witness(v)
            env = {f: w.get(f, Fraction(0)) for f in ("x", "y")}
            if kind != "refinement":
                # the identity composition has the interpretation of C
                contract = abstract if subject == abstract.name else concrete
                formula = contract.assumption
                if kind == "consistency":
                    formula = Implies(contract.assumption, contract.guarantee)
                if v["status"] == "proved" and "witness" in v and not eval_assertion(formula, env):
                    problems.append(f"{kind} {subject} witness {v['witness']} does not re-evaluate")
                continue
            status = v["status"]
            if status == "unknown":
                continue
            if refines and status == "falsified":
                problems.append("pair built to refine was falsified")
            if status == "falsified":
                if v.get("side") == "environment":
                    holds = eval_assertion(abstract.assumption, env) and not eval_assertion(
                        concrete.assumption, env
                    )
                else:
                    holds = eval_assertion(
                        Implies(concrete.assumption, concrete.guarantee), env
                    ) and not eval_assertion(Implies(abstract.assumption, abstract.guarantee), env)
                if not holds:
                    problems.append(f"refinement witness {v.get('witness')} does not re-evaluate")
            # acceptance criterion 7: the -2..2 grid plus the witness values
            base = {f: {Fraction(k) for k in range(-2, 3)} | {env[f]} for f in ("x", "y")}
            grid = FiniteGrid.of({f: sorted(vs) for f, vs in base.items()})
            finite = refines_finite(interpret_finite(concrete, grid), interpret_finite(abstract, grid))
            if finite != (status == "proved"):
                problems.append(f"refinement {status} but finite refinement is {finite}")
        return problems

    return check


def random_linear(seed: int, scale: str) -> Iterator[Op]:
    for i in itertools.count():
        rng = random.Random(f"random-linear:{i}")
        refines = i % 2 == 0
        c_assume, c_guarantee = _linear_formula(rng), _linear_formula(rng)
        if refines:
            a_assume = ("and", c_assume, _linear_atom(rng))
            a_guarantee = ("or", c_guarantee, _linear_atom(rng))
        else:
            a_assume, a_guarantee = _linear_formula(rng), _linear_formula(rng)
        flips = random.Random(f"random-linear:{seed}:{i}")
        signs = {v: flips.choice((1, -1)) for v in ("x", "y")}
        text = (
            _LINEAR_HEADER
            + f"\ncontract C : T {{\n  assume {_render(c_assume, signs)};\n  guarantee {_render(c_guarantee, signs)};\n}}\n"
            + f"\ncontract A : T {{\n  assume {_render(a_assume, signs)};\n  guarantee {_render(a_guarantee, signs)};\n}}\n"
            + "\nrefinement R : compose id(C as c) <: A;\n"
        )
        yield Op(f"doc{i}", count_atoms(text), _linear_check(text, refines), text=text)


# ---------------------------------------------------------------------------
# wide-conj: the formula-size axis, the only one where the parser and the
# recursive walkers dominate. For m >= 1000 run_check raises RecursionError
# at the seed; those ops are recorded as failed, never sized away.

_WIDE_HEADER = """\
quantity voltage;
quantity current;
quantity resistance = voltage / current;

component Cell {
  r: resistance;
}

operator id(a: Cell) -> Cell {
  r = a.r;
}
"""


def _wide_check(code: int, report: dict) -> list[str]:
    return [f"{ob} {kind} {subject} {v['status']}" for ob, kind, subject, v in checks_of(report) if v["status"] != "proved"]


def wide_conj(seed: int, scale: str) -> Iterator[Op]:
    rng = random.Random(f"wide-conj:{seed}")
    sizes = (100,) if scale == "smoke" else (100, 300, 1000, 3000, 10000)
    for _ in itertools.count():
        for m in sizes:
            # 0 <= r plus m - 1 upper bounds; the spec repeats the tightest
            bounds = [rng.randint(m, 10 * m) for _ in range(m - 1)]
            guarantee = " and ".join(["0 <= r"] + [f"r <= {k}" for k in bounds])
            text = (
                _WIDE_HEADER
                + f"\ncontract Wide : Cell {{\n  assume true;\n  guarantee {guarantee};\n}}\n"
                + f"\ncontract Spec : Cell {{\n  assume true;\n  guarantee 0 <= r and r <= {min(bounds)};\n}}\n"
                + "\nrefinement W : compose id(Wide as w) <: Spec;\n"
            )
            yield Op(f"m{m}", count_atoms(text), _wide_check, text=text)


@dataclass(frozen=True)
class Workload:
    ops: Callable[[int, str], Iterator[Op]]
    pass_ops: int  # ops per pass at full scale
    pass_s: float  # scaled seconds per full-scale pass (see calibration.py)
    trace_ops: int  # ops in the traced run at full scale
    smoke_ops: int  # ops at smoke scale, timed and traced alike

    def op_count(self, seconds: float, scale: str, traced: bool) -> int:
        """Ops in one run. A timed run does the whole passes that take about
        ``seconds`` of scaled time, so every run of one length does the same
        ops and has the same sample count, however fast the host is."""
        if scale == "smoke":
            return self.smoke_ops
        if traced:
            return self.trace_ops
        return max(1, round(seconds / self.pass_s)) * self.pass_ops


WORKLOADS: dict[str, Workload] = {
    "corpus-oracle": Workload(corpus_oracle, pass_ops=1, pass_s=0.29, trace_ops=5, smoke_ops=1),
    "banded": Workload(banded, pass_ops=7, pass_s=10.5, trace_ops=7, smoke_ops=4),
    "random-linear": Workload(random_linear, pass_ops=1, pass_s=0.042, trace_ops=200, smoke_ops=5),
    "wide-conj": Workload(wide_conj, pass_ops=5, pass_s=0.35, trace_ops=25, smoke_ops=1),
}
