"""Exact arithmetic: a value is an int when it is whole and a Fraction when
it is not, at every division and every place a number enters; no float
appears anywhere in the package."""

import ast
import pathlib
import random
from fractions import Fraction

import pytest

from helpers import expr
from sccheck.cli import parse_grid_flag
from sccheck.engine import (
    Constraint,
    FULL_INTERVAL,
    Interval,
    LinearSystem,
    _bound_value,
    _draw,
    _iv_inv,
    _mk_constraint,
    _pick_between,
    fm_witness,
    interval_eval,
    linearize_term,
)
from sccheck.model import BinOp, Const, FiniteGrid, Neg, UndefinedTerm, Var, eval_term, quotient, rational
from sccheck.parser import parse_only

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sccheck"


def exact(value) -> bool:
    return type(value) in (int, Fraction)


def normal(value) -> bool:
    """Exact, and an int exactly when whole."""
    return type(value) is (int if value.denominator == 1 else Fraction)


# ---------------------------------------------------------------------------
# the helpers

@pytest.mark.parametrize("a, b, expected", [
    (1, 2, Fraction(1, 2)), (6, 3, 2), (-6, 4, Fraction(-3, 2)), (0, -5, 0),
    (Fraction(4, 3), Fraction(2, 3), 2), (1, Fraction(2, 3), Fraction(3, 2)), (Fraction(1, 2), 3, Fraction(1, 6)),
])
def test_quotient_is_exact_and_normal(a, b, expected):
    q = quotient(a, b)
    assert q == expected and normal(q)


@pytest.mark.parametrize("value, expected", [
    ("7", 7), ("2/3", Fraction(2, 3)), ("0.5", Fraction(1, 2)), ("2.0", 2), ("-4/2", -2), (Fraction(6, 3), 2), (5, 5),
])
def test_rational_reads_exactly_and_normalizes(value, expected):
    r = rational(value)
    assert r == expected and normal(r)


# ---------------------------------------------------------------------------
# every division site

def test_interval_reciprocal_is_exact():
    for iv, expected in ((Interval(2, 3), Interval(Fraction(1, 3), Fraction(1, 2))),
                         (Interval(Fraction(1, 4), None), Interval(0, 4))):
        inv = _iv_inv(iv)
        assert inv == expected and normal(inv.lo) and normal(inv.hi)


def test_interval_division_is_exact():
    iv = interval_eval(expr("x / y"), {"x": Interval(1, 2), "y": Interval(3, 4)})
    assert iv == Interval(Fraction(1, 4), Fraction(2, 3)) and exact(iv.lo) and exact(iv.hi)


def test_pick_between_is_exact():
    assert _pick_between(0, False, 1, False) == Fraction(1, 2) and normal(_pick_between(0, False, 1, False))
    assert _pick_between(1, False, 3, False) == 2 and normal(_pick_between(1, False, 3, False))
    assert _pick_between(None, False, None, False) == 0 and normal(_pick_between(None, False, None, False))


def test_bound_value_on_integer_rows_is_exact():
    row = Constraint((("x", 2), ("y", 1)), 7, False)  # 2x + y <= 7
    assert _bound_value(row, "x", {"y": 1}) == 3 and normal(_bound_value(row, "x", {"y": 1}))
    assert _bound_value(row, "x", {"y": 2}) == Fraction(5, 2) and normal(_bound_value(row, "x", {"y": 2}))


def test_linearize_a_quotient_is_exact():
    coeffs, const = linearize_term(expr("x / 2"))
    assert (coeffs, const) == ({"x": Fraction(1, 2)}, 0)
    assert normal(coeffs["x"]) and normal(const)
    coeffs, const = linearize_term(expr("(4 * x + 6) / 2"))
    assert (coeffs, const) == ({"x": 2}, 3) and normal(coeffs["x"]) and normal(const)


def test_eval_term_division_is_exact():
    third = eval_term(BinOp("/", Const(1), Const(3)), {})
    assert third == Fraction(1, 3) and normal(third)
    assert eval_term(expr("x / y"), {"x": 6, "y": 3}) == 2 and normal(eval_term(expr("x / y"), {"x": 6, "y": 3}))
    with pytest.raises(UndefinedTerm):
        eval_term(expr("x / y"), {"x": 1, "y": 0})


# ---------------------------------------------------------------------------
# every entry point

def test_parser_reads_and_folds_literals_exactly():
    assert expr("1/3") == Const(Fraction(1, 3)) and normal(expr("1/3").value)
    assert expr("6/3") == Const(2) and normal(expr("6/3").value)
    assert expr("-0.25") == Const(Fraction(-1, 4)) and normal(expr("-0.25").value)
    assert normal(expr("7").value) and normal(expr("2.0").value)


def test_refinement_grid_rationals_parse_exactly():
    text = "refinement R : compose op(A as a) <: B {\n  r = 0, 2/3, -1/2, 4/2, 0.25, 3;\n}\n"
    result = parse_only(text)
    assert result.ok(), [d.render() for d in result.diagnostics]
    ((name, values),) = result.document.refinements[0].grid
    assert values == (0, Fraction(2, 3), Fraction(-1, 2), 2, Fraction(1, 4), 3)
    assert all(normal(v) for v in values)


def test_grid_flags_and_grids_are_exact():
    grid = parse_grid_flag("r=1,2/3,0.5,6/3")
    assert grid == {"r": (1, Fraction(2, 3), Fraction(1, 2), 2)} and all(normal(v) for v in grid["r"])
    ((_, values),) = FiniteGrid.of({"r": ["1", Fraction(4, 2), 3, "1/3"]}).entries
    assert values == (1, 2, 3, Fraction(1, 3)) and all(normal(v) for v in values)


def test_draws_over_integer_boxes_are_exact():
    rng = random.Random(5)
    for iv in (Interval(-3, 7), Interval(0, 0), Interval(None, 4), Interval(2, None), FULL_INTERVAL):
        for attempt in range(200):
            v = _draw(rng, iv, wide=attempt % 5 == 4)
            assert normal(v) and iv.contains(v), (iv, v)


# ---------------------------------------------------------------------------
# normalized inputs agree with all-Fraction inputs

_POOL = (0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4))


def _term(rng: random.Random, depth: int, lift) -> object:
    if depth == 0 or rng.random() < 0.25:
        return Const(lift(rng.choice(_POOL))) if rng.random() < 0.4 else Var(rng.choice("xy"))
    if rng.random() < 0.15:
        return Neg(_term(rng, depth - 1, lift))
    op = rng.choice("+-*/")
    return BinOp(op, _term(rng, depth - 1, lift), _term(rng, depth - 1, lift))


def _interval(rng: random.Random, lift) -> Interval:
    lo, hi = (rng.choice((None,) + _POOL) for _ in range(2))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval(None if lo is None else lift(lo), None if hi is None else lift(hi))


def _ends(iv: Interval) -> list:
    return [end for end in (iv.lo, iv.hi) if end is not None]


def test_normalized_and_fraction_inputs_give_equal_exact_results():
    for seed in range(400):
        sides = []
        for lift in (rational, Fraction):
            rng = random.Random(seed)
            term = _term(rng, 4, lift)
            env = {n: lift(rng.choice(_POOL)) for n in "xy"}
            box = {n: _interval(rng, lift) for n in "xy"}
            try:
                value = eval_term(term, env)
            except UndefinedTerm:
                value = None
            sides.append((value, interval_eval(term, box)))
        (value, iv), (fvalue, fiv) = sides
        assert value == fvalue and iv == fiv, seed
        assert all(exact(v) for v in [value, fvalue] + _ends(iv) + _ends(fiv) if v is not None), seed


def test_normalized_and_fraction_systems_give_equal_exact_witnesses():
    for seed in range(200):
        witnesses = []
        for lift in (rational, Fraction):
            rng = random.Random(seed)
            rows = []
            for _ in range(rng.randint(1, 5)):
                coeffs = {n: lift(rng.randint(-3, 3)) for n in "xyz"}
                rows.append(_mk_constraint(coeffs, lift(rng.choice(_POOL)), rng.random() < 0.3))
            witnesses.append(fm_witness(LinearSystem(tuple(rows))))
        assert witnesses[0] == witnesses[1], seed
        assert all(exact(v) for w in witnesses if w is not None for v in w.values()), seed


# ---------------------------------------------------------------------------
# the package itself

def _inexact(source: str, filename: str) -> list[str]:
    """Each division outside `quotient`, each `float(` call and each float
    literal in a module's source."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div) and function != "quotient":
            found.append(f"{filename}:{node.lineno}: division in {function}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{filename}:{node.lineno}: float() call")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{filename}:{node.lineno}: float literal")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, filename), "<module>")
    return found


def test_the_guard_finds_each_kind_of_inexact_code():
    source = "def f(a):\n    a /= 2\n    return a / 3 + float(a) + 0.5\n\ndef quotient(a, b):\n    return a / b\n"
    assert len(_inexact(source, "m.py")) == 4


def test_no_float_and_every_division_in_the_exact_helper():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _inexact(path.read_text(encoding="utf-8"), path.name)]
    assert found == []
