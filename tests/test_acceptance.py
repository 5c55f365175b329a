"""Acceptance suite: each test pins one advertised behavior at its stated
tolerance (exact rational arithmetic unless noted) and prints a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from docgen import random_document
from helpers import CELL, component, contract, expr, grid, operator, parallel_op, scaled_op, series_op
from sccheck.algebra import (
    check_refinement,
    compose_contracts,
    interpret_composed_finite,
    verify_min_characterization,
)
from sccheck.cli import main
from sccheck.engine import Status, check_implication, enumerate_models
from sccheck.formatter import format_spec
from sccheck.model import (
    And,
    Contract,
    FiniteGrid,
    Not,
    eval_assertion,
    interpret_finite,
    refines_finite,
)
from sccheck.parser import parse_spec

C1 = contract("C1", CELL, "true", "r = 1")
C2 = contract("C2", CELL, "true", "r = 2")
SYS3 = contract("Sys", CELL, "true", "r = 3")


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


# ---------------------------------------------------------------------------

def test_criterion_1_series_decomposition_proved():
    with criterion(1, "series decomposition r=1 + r=2 refines r=3"):
        started = time.monotonic()
        composed = compose_contracts(series_op(), [("c1", C1), ("c2", C2)])
        verdict = check_refinement(composed, SYS3)
        elapsed = time.monotonic() - started
        assert verdict.status is Status.PROVED
        assert composed.projection == "exact"
        assert elapsed < 1.0


def test_criterion_2_term_signature_ambiguity():
    with criterion(2, "scaled glue also proves r=3; interpretations differ"):
        scaled = compose_contracts(scaled_op(), [("c1", C1), ("c2", C2)])
        assert check_refinement(scaled, SYS3).status is Status.PROVED

        # swapped parts: series still entails 3, scaled entails 6
        series_swapped = compose_contracts(series_op(), [("c1", C2), ("c2", C1)])
        scaled_swapped = compose_contracts(scaled_op(), [("c1", C2), ("c2", C1)])
        assert (
            check_implication(series_swapped.contract.guarantee, expr("r = 3")).status
            is Status.PROVED
        )
        assert (
            check_implication(scaled_swapped.contract.guarantee, expr("r = 6")).status
            is Status.PROVED
        )
        g = grid(r=[0, 1, 2, 3, 4, 5, 6])
        series_interp = interpret_composed_finite(series_swapped, g)
        scaled_interp = interpret_composed_finite(scaled_swapped, g)
        assert series_interp != scaled_interp
        assert {dict(v)["r"] for v in series_interp.implementations} == {Fraction(3)}
        assert {dict(v)["r"] for v in scaled_interp.implementations} == {Fraction(6)}


def test_criterion_3_parallel_law():
    with criterion(3, "parallel falsifies r=3 with r=2/3 witness; never falsifies r=2/3"):
        composed = compose_contracts(parallel_op(), [("c1", C1), ("c2", C2)])
        verdict = check_refinement(composed, SYS3)
        assert verdict.status is Status.FALSIFIED
        assert verdict.witness["r"] == Fraction(2, 3)
        # the witness satisfies the concrete guarantee, re-evaluated exactly
        assert eval_assertion(composed.guarantee_body, verdict.witness)
        assert not eval_assertion(SYS3.guarantee, verdict.witness)

        tight = contract("Tight", CELL, "true", "r = 2/3")
        tight_verdict = check_refinement(composed, tight)
        assert tight_verdict.status in (Status.PROVED, Status.UNKNOWN)


def test_criterion_4_power_additivity():
    with criterion(4, "power sums through series glue: p=1 + p=2 refines p=3"):
        powered = component("Powered", "r:resistance", "p:power")
        series_p = operator(
            "series",
            [("a", powered), ("b", powered)],
            powered,
            ["r = a.r + b.r", "p = a.p + b.p"],
        )
        p1 = contract("P1", powered, "true", "p = 1")
        p2 = contract("P2", powered, "true", "p = 2")
        spec = contract("Spec", powered, "true", "p = 3")
        composed = compose_contracts(series_p, [("c1", p1), ("c2", p2)])
        assert composed.projection == "exact"
        assert check_refinement(composed, spec).status is Status.PROVED


def test_criterion_5_min_characterization_oracle():
    with criterion(5, "composition characterization holds; perturbations fail"):
        from dataclasses import replace

        started = time.monotonic()
        g = grid(r=[0, 1, 2, 3])  # 4-point parent space, minimality active
        composed = compose_contracts(series_op(), [("c1", C1), ("c2", C2)])
        assert verify_min_characterization(composed, g, interpret_composed_finite(composed, g))

        weakened = replace(
            composed, contract=replace(composed.contract, guarantee=expr("true"))
        )
        assert not verify_min_characterization(weakened, g, interpret_composed_finite(weakened, g))

        strengthened = replace(
            composed,
            contract=replace(
                composed.contract,
                assumption=And(composed.contract.assumption, expr("false")),
            ),
        )
        assert not verify_min_characterization(strengthened, g, interpret_composed_finite(strengthened, g))
        assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# randomized agreement criteria

def _linear_atom(rng, names):
    terms = [f"{rng.randint(-3, 3)} * {n}" for n in names if rng.random() < 0.8]
    if not terms:
        terms = [f"{rng.randint(1, 3)} * {rng.choice(names)}"]
    op = rng.choice(["<=", "<", "=", ">=", ">"])
    return f"({' + '.join(terms)}) {op} {rng.randint(-4, 4)}"


def _linear_formula(rng, names, depth=2):
    if depth == 0 or rng.random() < 0.5:
        return _linear_atom(rng, names)
    a = _linear_formula(rng, names, depth - 1)
    b = _linear_formula(rng, names, depth - 1)
    out = f"({a}) {rng.choice(['and', 'or'])} ({b})"
    if rng.random() < 0.2:
        out = f"not ({out})"
    return out


def test_criterion_6_implication_agrees_with_enumeration_oracle():
    with criterion(6, "500 random linear implications agree with the grid oracle"):
        rng = random.Random(606)
        proved = falsified = 0
        for _ in range(500):
            names = [f"x{j}" for j in range(rng.randint(1, 4))]
            phi = expr(_linear_formula(rng, names))
            psi = expr(_linear_formula(rng, names))
            verdict = check_implication(phi, psi)
            assert verdict.status is not Status.UNKNOWN
            counterexample = And(phi, Not(psi))
            base = {n: {Fraction(k) for k in range(-2, 3)} for n in names}
            if verdict.status is Status.FALSIFIED:
                assert eval_assertion(counterexample, verdict.witness)
                for n, v in verdict.witness.items():
                    base.setdefault(n, set()).add(v)
            g = FiniteGrid.of({n: sorted(vs) for n, vs in base.items()})
            models = enumerate_models(counterexample, g)
            if verdict.status is Status.PROVED:
                assert not models  # zero disagreements at every grid point
                proved += 1
            else:
                assert models
                falsified += 1
        assert proved > 50 and falsified > 50


def test_criterion_7_refinement_agrees_with_finite_semantics():
    with criterion(7, "200 random contract pairs agree with finite refinement"):
        rng = random.Random(707)
        subject = component("T", "x:q1", "y:q2")
        unknown = 0
        proved = falsified = 0
        for _ in range(200):
            names = ["x", "y"]
            concrete = Contract(
                "c",
                subject,
                expr(_linear_formula(rng, names)),
                expr(_linear_formula(rng, names)),
            )
            abstract = Contract(
                "a",
                subject,
                expr(_linear_formula(rng, names)),
                expr(_linear_formula(rng, names)),
            )
            verdict = check_refinement(concrete, abstract)
            if verdict.status is Status.UNKNOWN:
                unknown += 1
                continue
            base = {n: {Fraction(k) for k in range(-2, 3)} for n in names}
            if verdict.witness:
                for n, v in verdict.witness.items():
                    base.setdefault(n, set()).add(v)
            g = FiniteGrid.of({n: sorted(vs) for n, vs in base.items()})
            finite = refines_finite(
                interpret_finite(concrete, g), interpret_finite(abstract, g)
            )
            assert finite == (verdict.status is Status.PROVED)
            if verdict.status is Status.PROVED:
                proved += 1
            else:
                falsified += 1
        assert unknown / 200 < 0.05
        assert proved > 10 and falsified > 10


def test_criterion_8_parser_round_trip_fixpoint():
    with criterion(8, "1000 generated documents round-trip structurally"):
        rng = random.Random(808)
        for _ in range(1000):
            doc = random_document(rng)
            formatted = format_spec(doc)
            reparsed = parse_spec(formatted)
            assert reparsed.document == doc
            assert format_spec(reparsed.document) == formatted


def test_criterion_9_deterministic_reports(capsys):
    with criterion(9, "two --deterministic --seed 7 runs are byte-identical"):
        args = [
            "check",
            "corpus/resistor.scspec",
            "--deterministic",
            "--seed",
            "7",
            "--oracle",
            "--format",
            "json",
        ]
        import os

        cwd = os.getcwd()
        os.chdir(__file__.rsplit("/tests/", 1)[0])
        try:
            code_one = main(args)
            first = capsys.readouterr().out.encode()
            code_two = main(args)
            second = capsys.readouterr().out.encode()
        finally:
            os.chdir(cwd)
        assert code_one == code_two == 1
        assert first == second
        report = json.loads(first)
        assert all(ob["elapsed_s"] == 0.0 for ob in report["obligations"])
