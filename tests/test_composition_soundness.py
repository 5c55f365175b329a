"""Composition-level soundness: random operators, children and abstract
contracts, written as `.scspec` text and checked against the composition
by definition on the grid (``compose_finite``), which is built from the
children and the glue and never reads the composed formulas.

Each seed draws 1-3 children over a 1-2-field type. The glue gives each
field a sum, a scaled sum, a harmonic sum, a product or a copy of the
first child, plus an optional child-to-child equation. Child and abstract
formulas mix linear and square atoms, and the grid has 2-4 points per
field, sometimes with a line of its own for a child field.
"""

from __future__ import annotations

import functools
import random

import pytest

from sccheck.algebra import check_refinement, compose_contracts, compose_finite, interpret_composed_finite
from sccheck.cli import CheckOptions, _oracle_grid, run_check
from sccheck.engine import EngineOptions, Status
from sccheck.loader import elaborate
from sccheck.model import TRUE, And, Exists, Implies, Not, Or, eval_assertion, interpret_finite, refines_finite
from sccheck.parser import parse_spec

SEEDS = range(50)
GLUES = ("sum", "scaled", "harmonic", "product", "copy")


def _glue(rng: random.Random, field: str, params: list[str]) -> str:
    refs = [f"{p}.{field}" for p in params]
    kind = rng.choice(GLUES)
    if kind == "sum":
        rhs = " + ".join(refs)
    elif kind == "scaled":
        rhs = " + ".join(f"{rng.randint(-2, 3)} * {ref}" for ref in refs)
    elif kind == "harmonic":
        rhs = "1 / (" + " + ".join(f"1 / {ref}" for ref in refs) + ")"
    elif kind == "product":
        rhs = " * ".join(refs)
    else:
        rhs = refs[0]
    return f"{field} = {rhs};"


def _atom(rng: random.Random, fields: list[str]) -> str:
    op = rng.choice(("<=", "<", "=", ">=", ">"))
    if rng.random() < 0.3:
        f = rng.choice(fields)
        return f"{f} * {f} {op} {rng.randint(0, 4)}"
    terms = " + ".join(f"{rng.randint(-2, 2)} * {f}" for f in fields if rng.random() < 0.8) or fields[0]
    return f"{terms} {op} {rng.randint(-2, 3)}"


def _formula(rng: random.Random, fields: list[str]) -> str:
    if rng.random() < 0.25:
        return "true"
    atoms = [_atom(rng, fields) for _ in range(rng.randint(1, 2))]
    return f" {rng.choice(('and', 'or'))} ".join(atoms)


def _values(rng: random.Random, most: int) -> str:
    return ", ".join(str(v) for v in sorted(rng.sample(range(-2, 4), rng.randint(2, most))))


def random_composition(seed: int) -> str:
    """A document with one refinement obligation and its grid block."""
    rng = random.Random(seed)
    fields = ["x", "y"][: rng.randint(1, 2)]
    params = [f"a{k}" for k in range(rng.randint(1, 3))]
    glue = [_glue(rng, f, params) for f in fields]
    if len(params) > 1 and rng.random() < 0.3:
        glue.append(f"{params[0]}.{fields[-1]} = {params[1]}.{fields[-1]};")
    children = [f"c{k}" for k in range(len(params))]
    lines = [
        "quantity q;",
        "quantity n = q / q;",  # dimensionless, so products type-check
        f"component T {{ {' '.join(f'{f}: n;' for f in fields)} }}",
        f"operator op({', '.join(f'{p}: T' for p in params)}) -> T {{ {' '.join(glue)} }}",
    ]
    for name in [f"K{k}" for k in range(len(children))] + ["A"]:
        lines.append(f"contract {name} : T {{ assume {_formula(rng, fields)}; guarantee {_formula(rng, fields)}; }}")
    # at most 4^4 assemblies: the oracle enumerates every one of them
    most = 4 if len(fields) * (len(children) + 1) <= 4 else 2
    grid = [f"{f} = {_values(rng, most)};" for f in fields]
    if rng.random() < 0.3:
        grid.append(f"{rng.choice(children)}.{rng.choice(fields)} = {_values(rng, most)};")
    bindings = ", ".join(f"K{k} as {c}" for k, c in enumerate(children))
    lines.append(f"refinement R : compose op({bindings}) <: A {{ {' '.join(grid)} }}")
    return "\n".join(lines) + "\n"


OPTIONS = EngineOptions(samples=300)


@functools.lru_cache(maxsize=None)
def _case(seed: int):
    """The generated text, its obligation, composition and refinement verdict."""
    text = random_composition(seed)
    result = parse_spec(text)
    assert result.ok(), [d.render() for d in result.diagnostics]
    universe, diags = elaborate(result.document)
    assert universe is not None, [d.render() for d in diags]
    [ob] = universe.obligations
    composed = compose_contracts(ob.operator, ob.bindings, OPTIONS)
    return text, ob, composed, check_refinement(composed, ob.abstract, OPTIONS)


def _ranges_over_the_grid(composed) -> bool:
    """Whether every child value the composed formulas quantify over ranges
    over the grid: the guarantee is a residue, and the assumption a residue
    or ``true``. An exact projection ranges over the rationals instead."""
    a, g = composed.contract.assumption, composed.contract.guarantee
    return isinstance(g, Exists) and (a == TRUE or isinstance(a, Not) and isinstance(a.operand, Exists))


def _quantifies(a) -> bool:
    """Whether an assertion holds an existential anywhere."""
    match a:
        case Exists():
            return True
        case Not(operand=x):
            return _quantifies(x)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            return _quantifies(l) or _quantifies(r)
    return False


def test_projection_is_exact_iff_no_residue_is_kept():
    shapes = set()
    for seed in SEEDS:
        _, _, composed, _ = _case(seed)
        kept = _quantifies(composed.contract.assumption) or _quantifies(composed.contract.guarantee)
        assert (composed.projection == "exact") is not kept, seed
        shapes.add(kept)
    assert shapes == {False, True}


@pytest.mark.parametrize("seed", SEEDS)
def test_random_composition_is_sound_on_the_grid(seed, tmp_path):
    text, ob, composed, verdict = _case(seed)
    grid = _oracle_grid(composed, ob.grid_hint)
    concrete = interpret_composed_finite(composed, grid)

    # 1. proved implies refinement on the full oracle grid
    if verdict.status is Status.PROVED:
        assert refines_finite(concrete, interpret_finite(ob.abstract, grid)), text

    # 2. an exact falsification re-evaluates exactly on its side's formula
    if verdict.status is Status.FALSIFIED and composed.projection == "exact":
        cc, abstract = composed.contract, ob.abstract
        if verdict.side == "environment":
            holds = Implies(abstract.assumption, cc.assumption)
        else:
            holds = Implies(Implies(cc.assumption, cc.guarantee), Implies(abstract.assumption, abstract.guarantee))
        assert eval_assertion(Not(holds), verdict.witness), text

    # 3. residues range over the grid, so they are the composition by
    # definition
    if _ranges_over_the_grid(composed):
        assert concrete == compose_finite(composed, grid), text

    # 4. the whole pipeline never raises
    path = tmp_path / "composition.scspec"
    path.write_text(text)
    code, report = run_check([str(path)], CheckOptions(engine=OPTIONS, oracle=True, deterministic=True))
    assert code in (0, 1, 2) and report["obligations"][0]["oracle"]["min_characterization"] in (True, False)


def test_generator_covers_every_glue_and_verdict_shape():
    cases = [_case(seed) for seed in SEEDS]
    for shape in ("1 / (", " * a", ".x = a", "x * x", "c0.x ="):
        assert any(shape in text for text, *_ in cases), shape
    seen = {(composed.projection, verdict.status) for _, _, composed, verdict in cases}
    assert {("exact", Status.PROVED), ("exact", Status.FALSIFIED)} <= seen
    assert sum(_ranges_over_the_grid(composed) for _, _, composed, _ in cases) >= 10
