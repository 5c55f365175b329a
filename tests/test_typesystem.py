import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CELL, component, contract, expr, operator
from sccheck.algebra import compose_contracts
from sccheck.model import DIMENSIONLESS, dim_inv, dim_mul, dimension
from sccheck.parser import parse_spec
from sccheck.typesystem import (
    OverloadSet,
    TypeSystemError,
    build_hierarchy,
    check_component_type,
    check_operator_glue,
    dimension_of,
    resolve_operator,
    scope_of,
)


def quantities(text):
    result = parse_spec(text)
    assert result.ok(), [d.render() for d in result.diagnostics]
    return result.document.quantities


ELECTRIC = quantities(
    """
    quantity voltage;
    quantity current;
    quantity power = voltage * current;
    quantity resistance = voltage / current;
    """
)


# ---------------------------------------------------------------------------
# build_hierarchy

def test_single_base_quantity():
    table = build_hierarchy(quantities("quantity resistance;"))
    assert table.dimension_of_quantity("resistance") == dimension({"resistance": 1})


def test_derived_dimensions_from_physical_laws():
    table = build_hierarchy(ELECTRIC)
    assert table.dimension_of_quantity("power") == dimension({"voltage": 1, "current": 1})
    assert table.dimension_of_quantity("resistance") == dimension({"voltage": 1, "current": -1})


def test_cyclic_subdomains_rejected():
    with pytest.raises(TypeSystemError) as err:
        build_hierarchy(quantities("quantity a <: b; quantity b <: a;"))
    assert err.value.code == "cyclic-subtype"
    assert str(err.value) == "cyclic quantity declarations: a -> b -> a"


def test_unknown_quantity_in_monomial():
    decls = parse_spec("quantity p = u * i;").document.quantities
    with pytest.raises(TypeSystemError) as err:
        build_hierarchy(decls)
    assert err.value.code == "unknown-quantity"


def test_redefined_quantity():
    with pytest.raises(TypeSystemError) as err:
        build_hierarchy(quantities("quantity a;") + quantities("quantity a;"))
    assert err.value.code == "redefined-quantity"


def test_subdomain_inherits_dimension():
    table = build_hierarchy(
        quantities("quantity resistance; quantity precision <: resistance;")
    )
    assert table.dimension_of_quantity("precision") == dimension({"resistance": 1})
    assert table.is_subquantity("precision", "resistance")
    assert not table.is_subquantity("resistance", "precision")


# ---------------------------------------------------------------------------
# dimension_of

RESISTOR = component("Resistor", "r:resistance", "u:voltage", "i:current", "p:power")
TABLE = build_hierarchy(ELECTRIC)


def test_voltage_times_current_is_power():
    d = dimension_of(expr("u * i"), RESISTOR, TABLE)
    assert d == TABLE.dimension_of_quantity("power")


def test_voltage_over_current_is_resistance():
    d = dimension_of(expr("u / i"), RESISTOR, TABLE)
    assert d == TABLE.dimension_of_quantity("resistance")


def test_resistance_plus_voltage_mismatch():
    with pytest.raises(TypeSystemError) as err:
        dimension_of(expr("r + u"), RESISTOR, TABLE)
    assert err.value.code == "dimension-mismatch"


def test_constants_adapt_to_dimensioned_context():
    assert dimension_of(expr("3 * r"), RESISTOR, TABLE) == TABLE.dimension_of_quantity("resistance")
    assert dimension_of(expr("r + 1"), RESISTOR, TABLE) == TABLE.dimension_of_quantity("resistance")
    assert dimension_of(expr("1 / r"), RESISTOR, TABLE) == dim_inv(
        TABLE.dimension_of_quantity("resistance")
    )
    assert dimension_of(expr("7"), RESISTOR, TABLE) == DIMENSIONLESS
    for term in ("1 + r", "r * 2", "r / 2", "-r"):
        assert dimension_of(expr(term), RESISTOR, TABLE) == TABLE.dimension_of_quantity("resistance")
    with pytest.raises(TypeSystemError) as err:
        TABLE.get("flux")
    assert err.value.code == "unknown-quantity"


# ---------------------------------------------------------------------------
# check_component_type

def test_resistor_component_is_well_formed():
    assert check_component_type(RESISTOR, TABLE) == []


def test_unknown_field_quantity():
    bad = component("Weird", "x:flux")
    diags = check_component_type(bad, TABLE)
    assert any(d.code == "unknown-quantity" for d in diags)


def test_subtype_must_restate_inherited_fields():
    sub = component("Precision", "u:voltage", supertype=RESISTOR)
    diags = check_component_type(sub, TABLE)
    assert any(d.code == "missing-inherited-field" for d in diags)


def test_subtype_with_all_fields_is_ok():
    sub = component(
        "Precision", "r:resistance", "u:voltage", "i:current", "p:power", supertype=RESISTOR
    )
    assert check_component_type(sub, TABLE) == []


# ---------------------------------------------------------------------------
# resolve_operator

PRECISION = component("Precision", "r:resistance", supertype=CELL)


def _overloads(*ops):
    s = OverloadSet.empty()
    for op in ops:
        assert s.add(op) is None
    return s


def _series(name, a, b, result):
    return operator(name, [("a", a), ("b", b)], result, ["r = a.r + b.r"])


def test_single_declaration_resolves():
    op = _series("series", CELL, CELL, CELL)
    assert resolve_operator("series", [CELL, CELL], _overloads(op)) is op


def test_no_matching_overload():
    capacitor = component("Capacitor", "r:resistance")
    op = _series("series", CELL, CELL, CELL)
    with pytest.raises(TypeSystemError) as err:
        resolve_operator("series", [CELL, capacitor], _overloads(op))
    assert err.value.code == "no-matching-overload"


def test_most_specific_overload_wins():
    general = _series("series", CELL, CELL, CELL)
    specific = _series("series", PRECISION, PRECISION, PRECISION)
    ov = _overloads(general, specific)
    assert resolve_operator("series", [PRECISION, PRECISION], ov) is specific
    assert resolve_operator("series", [CELL, CELL], ov) is general
    # subtype arguments still accept the general overload when no specific fits
    assert resolve_operator("series", [PRECISION, CELL], ov) is general


def test_resolution_invariant_under_declaration_order():
    general = _series("series", CELL, CELL, CELL)
    specific = _series("series", PRECISION, PRECISION, PRECISION)
    forward = resolve_operator("series", [PRECISION, PRECISION], _overloads(general, specific))
    backward = resolve_operator("series", [PRECISION, PRECISION], _overloads(specific, general))
    assert forward.parameters == backward.parameters


def test_ambiguous_diamond():
    left = _series("series", PRECISION, CELL, CELL)
    right = _series("series", CELL, PRECISION, CELL)
    with pytest.raises(TypeSystemError) as err:
        resolve_operator("series", [PRECISION, PRECISION], _overloads(left, right))
    assert err.value.code == "ambiguous-overload"


def test_duplicate_overload_rejected():
    s = OverloadSet.empty()
    assert s.add(_series("series", CELL, CELL, CELL)) is None
    dup = s.add(_series("series", CELL, CELL, CELL))
    assert dup is not None and dup.code == "duplicate-overload"


# ---------------------------------------------------------------------------
# check_operator_glue

def _resistor_op(glue):
    return operator("op", [("a", RESISTOR), ("b", RESISTOR)], RESISTOR, glue)


def test_series_glue_well_typed():
    op = _resistor_op(
        ["r = a.r + b.r", "u = a.u + b.u", "i = a.i", "b.i = a.i", "p = a.p + b.p"]
    )
    assert check_operator_glue(op, TABLE) == []


def test_scaled_glue_well_typed_but_distinct():
    # well-typed glue with the same type signature as series; the point is
    # that the term signature itself stays first-class
    op = _resistor_op(["r = 3 * a.r + 0 * b.r"])
    assert check_operator_glue(op, TABLE) == []


def test_glue_dimension_mismatch():
    op = _resistor_op(["r = a.u + b.i"])
    diags = check_operator_glue(op, TABLE)
    assert any(d.code == "dimension-mismatch" for d in diags)


def test_glue_unknown_binding():
    op = _resistor_op(["r = z.r + b.r"])
    diags = check_operator_glue(op, TABLE)
    assert any(d.code == "unknown-binding" for d in diags)


def test_glue_unknown_field():
    op = _resistor_op(["q = a.r"])
    diags = check_operator_glue(op, TABLE)
    assert any(d.code == "unknown-field" for d in diags)


def test_glue_must_be_equation():
    op = _resistor_op(["r = a.r", "r <= a.r"])
    diags = check_operator_glue(op, TABLE)
    assert [(d.code, d.message) for d in diags] == [("glue-not-equation", "glue 2 of operator op must be an equality")]


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=100)
@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=6))
def test_dimensions_form_an_abelian_group(names):
    dims = [dimension({n: 1}) for n in names]
    x = DIMENSIONLESS
    for d in dims:
        x = dim_mul(x, d)
    y = DIMENSIONLESS
    for d in reversed(dims):
        y = dim_mul(y, d)
    assert x == y  # commutative
    assert dim_mul(x, dim_inv(x)) == DIMENSIONLESS  # inverse
    if dims:
        a, rest = dims[0], dims[1:]
        left = a
        for d in rest:
            left = dim_mul(left, d)
        right = DIMENSIONLESS
        for d in rest:
            right = dim_mul(right, d)
        assert left == dim_mul(a, right)  # associative


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_subquantity_relation_is_a_partial_order(seed):
    rng = random.Random(seed)
    names = [f"q{i}" for i in range(rng.randint(1, 8))]
    lines = []
    for i, n in enumerate(names):
        if i > 0 and rng.random() < 0.7:
            lines.append(f"quantity {n} <: {names[rng.randrange(i)]};")
        else:
            lines.append(f"quantity {n};")
    table = build_hierarchy(quantities("\n".join(lines)))
    for a in names:
        assert table.is_subquantity(a, a)  # reflexive
        for b in names:
            if table.is_subquantity(a, b) and table.is_subquantity(b, a):
                assert a == b  # antisymmetric
            for c in names:
                if table.is_subquantity(a, b) and table.is_subquantity(b, c):
                    assert table.is_subquantity(a, c)  # transitive


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_checked_glue_composes_without_scoping_errors(seed):
    """Any operator accepted by the glue check composes trivially-true
    contracts without raising; the composed assertions stay well-scoped."""
    rng = random.Random(seed)
    fields = ["r", "u", "i", "p"]
    glue = []
    for f in rng.sample(fields, rng.randint(1, 4)):
        rhs = rng.choice(
            [f"a.{f} + b.{f}", f"a.{f}", f"2 * b.{f}", f"a.{f} - b.{f}"]
        )
        glue.append(f"{f} = {rhs}")
    op = _resistor_op(glue)
    assert check_operator_glue(op, TABLE) == []
    c1 = contract("C1", RESISTOR, "true", "true")
    c2 = contract("C2", RESISTOR, "true", "true")
    composed = compose_contracts(op, [("x", c1), ("y", c2)])
    scope = set(scope_of(RESISTOR)) | {
        f"x.{f}" for f in fields
    } | {f"y.{f}" for f in fields}
    from sccheck.model import free_vars

    assert free_vars(composed.contract.guarantee) <= scope
