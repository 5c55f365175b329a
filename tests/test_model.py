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
    Forall,
    GridIncompatible,
    GridIncomplete,
    Implies,
    Interpretation,
    Or,
    eval_assertion,
    free_vars,
    freeze_valuation,
    interpret_finite,
    qualify,
    refines_finite,
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


def test_interpret_quantifiers_range_over_the_grid():
    # c1.r has no entry of its own, so it ranges over the values of r
    c = Contract(
        "C", CELL, Exists(("c1.r",), expr("r = 2 * c1.r")), Forall(("c1.r",), expr("c1.r <= r"))
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
    import pytest as _pytest

    from sccheck.model import UndefinedTerm

    zero = {"r": Fraction(0)}
    # a defined true side decides a disjunction; a defined false side
    # decides a conjunction
    assert eval_assertion(expr("1 / r = 1 or r = 0"), zero)
    assert not eval_assertion(expr("1 / r = 1 and r = 1"), zero)
    assert eval_assertion(expr("r = 1 implies 1 / r = 1"), zero)
    # nothing decides it: undefined
    with _pytest.raises(UndefinedTerm):
        eval_assertion(expr("1 / r = 1"), zero)
    with _pytest.raises(UndefinedTerm):
        eval_assertion(expr("not (1 / r = 1)"), zero)


def test_qualify_prefixes_all_free_variables():
    e = expr("r = a + 1")
    q = qualify(e, "c1")
    assert free_vars(q) == {"c1.r", "c1.a"}


def test_simplify_bools_folds_constants():
    assert simplify_bools(And(BoolLit(True), expr("r = 1"))) == expr("r = 1")
    assert simplify_bools(Or(BoolLit(True), expr("r = 1"))) == BoolLit(True)
    assert simplify_bools(Implies(BoolLit(False), expr("r = 1"))) == BoolLit(True)


def test_eval_exact_rationals():
    e = expr("r = 2/3")
    assert eval_assertion(e, {"r": Fraction(2, 3)})
    assert not eval_assertion(e, {"r": Fraction(667, 1000)})
