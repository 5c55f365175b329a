import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CELL, component, contract, expr, grid
from sccheck.model import (
    And,
    BoolLit,
    Contract,
    Exists,
    FiniteGrid,
    GridIncompatible,
    GridIncomplete,
    ModelError,
    UnboundVariable,
    Implies,
    Interpretation,
    Not,
    Or,
    conj,
    eval_assertion,
    free_vars,
    freeze_valuation,
    interpret_finite,
    qualify,
    refines_finite,
    satisfying_valuations,
    saturate,
    simplify_bools,
)

RESISTOR = component("Resistor", "r:resistance", "u:voltage", "i:current")


def vals(interp):
    return {tuple(v for _, v in valuation) for valuation in interp.environments}, {
        tuple(v for _, v in valuation) for valuation in interp.implementations
    }


# ---------------------------------------------------------------------------
# saturate

def test_saturate_wraps_guarantee_in_implication():
    c = contract("C", CELL, "true", "r = 1")
    s = saturate(c)
    assert s.assumption == expr("true")
    assert s.guarantee == Implies(expr("true"), expr("r = 1"))


def test_saturate_true_antecedent_is_logically_identity():
    c = contract("C", CELL, "true", "r = 1")
    g = grid(r=[0, 1, 2])
    assert interpret_finite(c, g) == interpret_finite(saturate(c), g)


def test_saturate_by_definition():
    c = contract("C", RESISTOR, "i >= 0", "u = i")
    s = saturate(c)
    assert s.guarantee == Implies(expr("i >= 0"), expr("u = i"))


def test_saturate_idempotent_up_to_interpretation():
    # oracle: interpretation equality on the {-1,0,1} grid per variable
    c = contract("C", component("T", "u:voltage", "i:current"), "i >= 0", "u = i")
    g = grid(u=[-1, 0, 1], i=[-1, 0, 1])
    once = interpret_finite(saturate(c), g)
    twice = interpret_finite(saturate(saturate(c)), g)
    assert once == twice


def test_saturation_preserves_interpretation():
    c = contract("C", component("T", "u:voltage", "i:current"), "i >= 1", "u = 2 * i")
    g = grid(u=[0, 1, 2], i=[0, 1, 2])
    assert interpret_finite(c, g) == interpret_finite(saturate(c), g)


# ---------------------------------------------------------------------------
# interpret_finite

def test_interpret_true_requirement():
    c = contract("C", CELL, "true", "r = 3")
    interp = interpret_finite(c, grid(r=[0, 1, 2, 3]))
    assert len(interp.environments) == 4
    assert interp.implementations == frozenset({freeze_valuation({"r": Fraction(3)})})


def test_interpret_false_assumption_is_incompatible():
    c = contract("C", CELL, "false", "r = 3")
    interp = interpret_finite(c, grid(r=[0, 1, 2, 3]))
    assert interp.environments == frozenset()


def test_interpret_bounded_band():
    # oracle: enumerate all 4 valuations and evaluate A and A -> G
    c = contract("C", CELL, "r >= 1", "r <= 2")
    interp = interpret_finite(c, grid(r=[0, 1, 2, 3]))
    envs, impls = vals(interp)
    assert envs == {(Fraction(1),), (Fraction(2),), (Fraction(3),)}
    assert impls == {(Fraction(0),), (Fraction(1),), (Fraction(2),)}


def test_interpret_missing_variable_raises():
    c = contract("C", RESISTOR, "true", "r = 1")
    with pytest.raises(GridIncomplete):
        interpret_finite(c, grid(r=[0, 1]))


def test_grid_lookup_falls_back_to_the_bare_field_name():
    g = FiniteGrid.of({"r": [0, 1], "c2.r": [5]})
    assert g.lookup("c2.r") == (Fraction(5),)
    assert g.lookup("c1.r") == g.lookup("r") == (Fraction(0), Fraction(1))
    with pytest.raises(GridIncomplete):
        g.lookup("c1.u")


def test_grid_lookup_reads_a_renamed_binder_as_the_name_it_renames():
    # a `~k` suffix marks a binder renamed to avoid capture
    g = FiniteGrid.of({"r": [0, 1], "c2.r": [5]})
    assert g.lookup("c2.r~1") == (Fraction(5),)
    assert g.lookup("c1.r~1") == g.lookup("r~2") == g.lookup("c0.c1.r~1~2") == (Fraction(0), Fraction(1))
    with pytest.raises(GridIncomplete):
        g.lookup("c1.u~1")


def test_interpret_quantifiers_range_over_the_grid():
    # c1.r has no entry of its own, so it ranges over the values of r
    c = Contract(
        "C", CELL, Exists(("c1.r",), expr("r = 2 * c1.r")), Not(Exists(("c1.r",), expr("c1.r > r")))
    )
    envs, impls = vals(interpret_finite(c, grid(r=[0, 1, 2])))
    assert envs == {(Fraction(0),), (Fraction(2),)}
    assert impls == {(Fraction(1),), (Fraction(2),)}


# ---------------------------------------------------------------------------
# refines_finite

def _interp(g, envs, impls):
    return Interpretation(
        g,
        frozenset(freeze_valuation({"r": Fraction(v)}) for v in envs),
        frozenset(freeze_valuation({"r": Fraction(v)}) for v in impls),
    )


def test_refines_reflexive_on_examples():
    g = grid(r=[0, 1])
    interp = _interp(g, [0], [1])
    assert refines_finite(interp, interp)


def test_refines_subset_definition():
    g = grid(r=[0, 1, 2])
    abstract = _interp(g, [0, 1], [2])
    concrete = _interp(g, [0, 1, 2], [2])
    assert refines_finite(concrete, abstract)
    assert not refines_finite(abstract, concrete)


def test_refines_point_vs_band():
    g = grid(r=[0, 1, 2, 3])
    exact = interpret_finite(contract("A", CELL, "true", "r = 3"), g)
    loose = interpret_finite(contract("B", CELL, "true", "r >= 0"), g)
    assert refines_finite(exact, loose)
    # witness: r = 0 implements the loose contract but not the exact one
    assert not refines_finite(loose, exact)
    zero = freeze_valuation({"r": Fraction(0)})
    assert zero in loose.implementations - exact.implementations


def test_refines_grid_mismatch_raises():
    a = _interp(grid(r=[0, 1]), [0], [0])
    b = _interp(grid(r=[0, 2]), [0], [0])
    with pytest.raises(GridIncompatible):
        refines_finite(a, b)


def test_refines_reflexive_and_transitive_on_random_interpretations():
    rng = random.Random(7)
    g = grid(r=[0, 1, 2])  # 3 values, up to 8 subsets each
    points = [freeze_valuation({"r": Fraction(v)}) for v in (0, 1, 2)]

    def rand_interp():
        envs = frozenset(p for p in points if rng.random() < 0.5)
        impls = frozenset(p for p in points if rng.random() < 0.5)
        return Interpretation(g, envs, impls)

    for _ in range(1000):
        a, b, c = rand_interp(), rand_interp(), rand_interp()
        assert refines_finite(a, a)
        if refines_finite(a, b) and refines_finite(b, c):
            assert refines_finite(a, c)


# ---------------------------------------------------------------------------
# monotonicity in the guarantee

@settings(max_examples=60)
@given(bound=st.integers(-2, 2), extra=st.integers(-2, 2))
def test_weakening_guarantee_never_shrinks_implementations(bound, extra):
    g = grid(r=[-2, -1, 0, 1, 2])
    base = contract("C", CELL, "r >= 0", f"r <= {bound}")
    weaker = contract(
        "C", CELL, "r >= 0", f"r <= {bound} or r = {extra}"
    )
    assert (
        interpret_finite(base, g).implementations
        <= interpret_finite(weaker, g).implementations
    )


# ---------------------------------------------------------------------------
# evaluation and helpers

def test_division_by_zero_is_not_a_model():
    c = contract("C", CELL, "true", "1 / r = 1")
    interp = interpret_finite(c, grid(r=[0, 1]))
    # r = 0 makes the guarantee undefined, so it implements nothing
    assert vals(interp)[1] == {(Fraction(1),)}


def test_partial_terms_follow_kleene_semantics():
    zero = {"r": Fraction(0)}
    # a defined true side decides a disjunction; a defined false side
    # decides a conjunction
    assert eval_assertion(expr("1 / r = 1 or r = 0"), zero)
    assert not eval_assertion(expr("1 / r = 1 and r = 1"), zero)
    assert eval_assertion(expr("r = 1 implies 1 / r = 1"), zero)
    # nothing decides it: undefined, so neither it nor its negation holds
    assert not eval_assertion(expr("1 / r = 1"), zero)
    assert not eval_assertion(expr("not (1 / r = 1)"), zero)
    # an existential holds where some grid value makes its body true
    has_reciprocal = Exists(("c",), expr("x = 1 / c"))
    lookup = grid(c=[0, 1]).lookup
    assert eval_assertion(has_reciprocal, {"x": Fraction(1)}, lookup)
    assert not eval_assertion(has_reciprocal, {"x": Fraction(2)}, lookup)
    assert eval_assertion(Not(has_reciprocal), {"x": Fraction(2)}, lookup)


def test_qualify_prefixes_all_free_variables():
    e = expr("r = a + 1")
    q = qualify(e, "c1")
    assert free_vars(q) == {"c1.r", "c1.a"}
    assert qualify(expr("not -r < a"), "c1") == expr("not -c1.r < c1.a")
    # a bound name shadows the free one of the same name
    assert qualify(Exists(("a",), expr("a = r")), "c1") == Exists(("a",), expr("a = c1.r"))


def test_simplify_bools_folds_constants():
    assert simplify_bools(And(BoolLit(True), expr("r = 1"))) == expr("r = 1")
    assert simplify_bools(Or(BoolLit(True), expr("r = 1"))) == BoolLit(True)
    assert simplify_bools(Implies(BoolLit(False), expr("r = 1"))) == BoolLit(True)
    assert simplify_bools(Exists(("r",), expr("true and true"))) == BoolLit(True)


def test_evaluation_input_errors():
    with pytest.raises(UnboundVariable, match="unbound variable: r"):
        eval_assertion(expr("r = 1"), {})
    with pytest.raises(ModelError, match="quantifier in plain evaluation"):
        eval_assertion(Exists(("r",), expr("r = 1")), {})
    with pytest.raises(ValueError, match="empty grid for variable r"):
        FiniteGrid.of({"r": []})


def test_eval_exact_rationals():
    e = expr("r = 2/3")
    assert eval_assertion(e, {"r": Fraction(2, 3)})
    assert not eval_assertion(e, {"r": Fraction(667, 1000)})


# ---------------------------------------------------------------------------
# existentials: the join against plain enumeration

def _enumerated(a, env, lookup):
    """Reference strong-Kleene evaluation whose existential tries every grid
    tuple at every valuation."""
    match a:
        case Exists(names=ns, body=b):
            combos = itertools.product(*map(lookup, ns))
            return any(_enumerated(b, {**env, **dict(zip(ns, c))}, lookup) is True for c in combos)
        case Not(operand=x):
            v = _enumerated(x, env, lookup)
            return None if v is None else not v
        case And(left=l, right=r) | Or(left=l, right=r):
            vs = {_enumerated(l, env, lookup), _enumerated(r, env, lookup)}
            decides = isinstance(a, Or)  # the operand value that decides the connective
            return decides if decides in vs else None if None in vs else not decides
    return True if eval_assertion(a, env) else False if eval_assertion(Not(a), env) else None


def _assert_join_is_enumeration(e, rng):
    """Over a random grid for the free x, y and the bound a, b, c (x may be
    bound too), under three contexts of the existential."""
    g = FiniteGrid.of({n: rng.sample(range(-2, 3), rng.randint(2, 4)) for n in "abcxy"})
    for formula in (e, Not(e), And(expr("x <= y"), e)):
        sub = g.restrict(["x", "y"])
        expected = {freeze_valuation(v) for v in sub.valuations() if _enumerated(formula, v, g.lookup)}
        assert satisfying_valuations(formula, sub, g.lookup) == expected, formula


SHAPES = {
    "bound only": Exists(("a", "b"), expr("a + b >= 1 and a * b != 2 and a < b")),
    "mixed only": Exists(("a", "b"), expr("a + y = x and b <= y")),
    "ground": Exists(("a",), expr("1 = 1 and a = y")),
    "ground undefined": Exists(("a",), expr("1 / 0 = 0 and a = y")),
    "or body": Exists(("a", "b"), expr("a = x or b * y = 1")),
    "nested": Exists(("a",), And(expr("a >= y"), Exists(("b",), expr("b = a + x and b * b > 1")))),
    "nested shadowing the outer name": Exists(("a",), And(expr("a = x"), Exists(("a",), expr("a * a = y")))),
    "undefined bound only": Exists(("a", "b"), expr("1 / a = b and b != y")),
    "undefined mixed": Exists(("a",), expr("a >= 0 and a = 1 / (x - y)")),
    "no survivor": Exists(("a", "b"), expr("a * a < 0 and a = x and b = y")),
    "shadowing": Exists(("x",), expr("x = y + 1 and x * y >= 0")),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(5))
def test_exists_join_equals_enumeration_on_each_body_shape(shape, seed):
    _assert_join_is_enumeration(SHAPES[shape], random.Random(seed))


TERMS = ("a", "b", "x", "y", "1", "0", "a + b", "a * y", "1 / a", "1 / (b - y)", "x - a", "a * a")


def _random_conjunct(rng):
    atom = f"{rng.choice(TERMS)} {rng.choice(('<=', '<', '=', '>=', '>', '!='))} {rng.choice(TERMS)}"
    if rng.random() < 0.2:
        return Or(expr(atom), _random_conjunct(rng))
    if rng.random() < 0.15:
        return Exists(("c",), conj([expr("c != x"), _random_conjunct(rng)]))
    return expr(atom)


@pytest.mark.parametrize("seed", range(60))
def test_exists_join_equals_enumeration_on_random_bodies(seed):
    rng = random.Random(seed)
    names = ("a", "b", "x")[: rng.randint(2, 3)]  # a bound x shadows the free one
    body = conj([_random_conjunct(rng) for _ in range(rng.randint(1, 4))])
    _assert_join_is_enumeration(Exists(names, body), rng)


def test_a_filter_with_no_survivor_makes_the_existential_false_everywhere():
    e = SHAPES["no survivor"]
    g = grid(a=[-1, 0, 1], b=[0, 1], x=[0, 1], y=[0, 1])
    assert satisfying_valuations(e, g.restrict(["x", "y"]), g.lookup) == frozenset()
    assert len(satisfying_valuations(Not(e), g.restrict(["x", "y"]), g.lookup)) == 4
