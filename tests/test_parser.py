import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgen import random_document
from sccheck.formatter import format_expr, format_spec
from sccheck.model import And, BinOp, Const, Exists, Implies, Not, Or
from sccheck.parser import parse_expression, parse_spec, tokenize


# ---------------------------------------------------------------------------
# parsing

def test_minimal_quantity_document():
    result = parse_spec("quantity resistance;")
    assert result.ok()
    doc = result.document
    assert len(doc.quantities) == 1
    assert doc.quantities[0].name == "resistance"
    assert doc.quantities[0].kind == "base"


def test_resistor_corpus_counts(corpus_text):
    result = parse_spec(corpus_text)
    assert result.ok(), [d.render() for d in result.diagnostics]
    doc = result.document
    assert len(doc.quantities) == 4
    assert len(doc.components) == 1
    assert len(doc.operators) == 3
    assert len(doc.contracts) == 3
    assert len(doc.refinements) == 3


def test_malformed_contract_missing_type():
    result = parse_spec("contract X : { assume true; guarantee true; }")
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert errors
    # location points at the offending token
    assert errors[0].loc is not None and errors[0].loc.line == 1


def test_error_recovery_reports_each_error():
    text = """
    quantity a
    quantity b;
    component C {
      f: ;
    }
    contract K : C { assume true guarantee true; }
    """
    result = parse_spec(text)
    errors = [d for d in result.diagnostics if d.severity == "error" and d.code == "syntax"]
    assert len(errors) >= 3
    # recovery stops at the declaration keyword and resumes there
    result = parse_spec("quantity q assume true; component C { x: q; }")
    errors = [(d.message, str(d.loc), d.expected) for d in result.diagnostics if d.code == "syntax"]
    assert errors == [("expected ;, found 'assume'", "1:12", (";",))]


def test_diagnostics_carry_positions():
    result = parse_spec("quantity 5;")
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert errors and errors[0].loc.line == 1 and errors[0].loc.col == 10


def test_unresolved_names_found_after_whole_document():
    result = parse_spec("component C { f: volt; }")
    assert any(d.code == "unresolved-name" and "volt" in d.message for d in result.diagnostics)


def test_declarations_resolve_in_any_order():
    text = """
    contract K : C { assume true; guarantee f = 1; }
    component C { f: q; }
    quantity q;
    """
    assert parse_spec(text).ok()


def test_duplicate_obligation_bindings_diagnosed():
    text = """
    quantity q;
    component C { f: q; }
    operator o(a: C) -> C { f = a.f; }
    contract K : C { assume true; guarantee true; }
    refinement R : compose o(K as c1, K as c1) <: K;
    """
    result = parse_spec(text)
    assert any(d.code == "duplicate-binding" for d in result.diagnostics)


def test_sort_mismatch_diagnosed():
    result = parse_spec("quantity q; component C { f: q; } contract K : C { assume f; guarantee true; }")
    assert any(d.code == "sort-mismatch" for d in result.diagnostics)


def test_rational_literals_fold_exactly():
    assert parse_expression("1/2") == Const(Fraction(1, 2))
    assert parse_expression("-3/4") == Const(Fraction(-3, 4))
    assert parse_expression("0.25") == Const(Fraction(1, 4))
    # division by a variable is division, not a literal
    assert isinstance(parse_expression("1/x"), BinOp)


@pytest.mark.parametrize(
    "text,message",
    [
        ("x = ", "expected an expression, found 'eof'"),
        ("x = 1 )", "trailing input at 1:7"),
        ("x @ 1", "unexpected character '@'"),
        # identifiers and numbers are ASCII only
        ("x² = 1", "unexpected character '²'"),
        ("x = ①1", "unexpected character '①'"),
        ("x = ٣3", "unexpected character '٣'"),
        ("xé = 1", "unexpected character 'é'"),
        ("x = 1.٣", "unexpected character '٣'"),
        # only true and false are keyword expressions
        ("or", "expected an expression, found 'or'"),
        ("x = 1 and and y = 1", "expected an expression, found 'and'"),
    ],
)
def test_parse_expression_rejects_bad_input(text, message):
    with pytest.raises(ValueError, match=message):
        parse_expression(text)


def test_tokenizer_positions():
    # a tab is one column, \r is whitespace, a comment runs to the line end,
    # an identifier starts with a letter, and `1.` needs a digit to be a decimal
    tokens, diags = tokenize("\tx = 1;\r\n// note\n  @ _y 1.e")
    assert [(t.kind, t.text, str(t.loc)) for t in tokens] == [
        ("ident", "x", "1:2"),
        ("=", "=", "1:4"),
        ("number", "1", "1:6"),
        (";", ";", "1:7"),
        ("ident", "y", "3:6"),
        ("number", "1", "3:8"),
        (".", ".", "3:9"),
        ("ident", "e", "3:10"),
        ("eof", "", "3:11"),
    ]
    assert [(d.message, str(d.loc)) for d in diags] == [
        ("unexpected character '@'", "3:3"),
        ("unexpected character '_'", "3:5"),
    ]


def test_comparison_does_not_chain():
    result = parse_spec("quantity q; component C { f: q; } contract K : C { assume 1 < f < 2; guarantee true; }")
    assert any(d.severity == "error" for d in result.diagnostics)


# ---------------------------------------------------------------------------
# precedence and round-trips

def test_boolean_operators_are_right_associative():
    e = parse_expression("x = 1 implies y = 1 implies z = 1")
    assert isinstance(e, Implies) and isinstance(e.right, Implies)
    e = parse_expression("x = 1 and y = 1 and z = 1")
    assert isinstance(e, And) and isinstance(e.right, And)


def test_precedence_ladder():
    e = parse_expression("not a = 1 and b = 2 or c = 3 implies d = 4")
    # implies is loosest, then or, then and, then not
    assert isinstance(e, Implies)
    assert isinstance(e.left, Or)
    assert isinstance(e.left.left, And)
    assert isinstance(e.left.left.left, Not)


def test_nested_parentheses_preserved_per_precedence():
    # structure survives: parens appear exactly where precedence demands
    e = parse_expression("((a = 1 or b = 2) and c = 3) or d = 4")
    assert format_expr(e) == "(a = 1 or b = 2) and c = 3 or d = 4"
    assert parse_expression(format_expr(e)) == e
    left_nested = parse_expression("(a = 1 and b = 2) and c = 3")
    assert format_expr(left_nested) == "(a = 1 and b = 2) and c = 3"
    right_nested = parse_expression("a = 1 and b = 2 and c = 3")
    assert format_expr(right_nested) == "a = 1 and b = 2 and c = 3"
    assert left_nested != right_nested


def test_an_existential_operand_is_parenthesized():
    # an existential's body reaches as far right as it can, so one that is an
    # operand prints in parentheses and the two scopes read differently
    x_is_1, y_is_2 = parse_expression("x = 1"), parse_expression("y = 2")
    assert format_expr(Exists(("x",), And(x_is_1, y_is_2))) == "exists x . x = 1 and y = 2"
    assert format_expr(And(Exists(("x",), x_is_1), y_is_2)) == "(exists x . x = 1) and y = 2"
    assert format_expr(And(y_is_2, Exists(("x",), x_is_1))) == "y = 2 and (exists x . x = 1)"
    assert format_expr(Not(Exists(("x", "y"), x_is_1))) == "not (exists x, y . x = 1)"
    assert format_expr(Exists(("y",), Exists(("x",), x_is_1))) == "exists y . exists x . x = 1"


def test_arithmetic_precedence():
    e = parse_expression("a + b * c - d / e")
    #  ((a + (b*c)) - (d/e))
    assert isinstance(e, BinOp) and e.op == "-"
    assert isinstance(e.left, BinOp) and e.left.op == "+"
    assert isinstance(e.left.right, BinOp) and e.left.right.op == "*"
    assert isinstance(e.right, BinOp) and e.right.op == "/"


def test_corpus_round_trip(corpus_text):
    first = parse_spec(corpus_text)
    formatted = format_spec(first.document)
    second = parse_spec(formatted)
    assert second.document == first.document
    # formatting is a fixpoint on its own output
    assert format_spec(second.document) == formatted


def test_fraction_in_divisor_position_round_trips():
    e = parse_expression("x / (1/2)")
    assert isinstance(e, BinOp) and e.right == Const(Fraction(1, 2))
    assert parse_expression(format_expr(e)) == e


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_document_round_trip(seed):
    doc = random_document(random.Random(seed))
    result = parse_spec(format_spec(doc))
    syntax_errors = [d for d in result.diagnostics if d.code == "syntax"]
    assert not syntax_errors, syntax_errors
    assert result.document == doc


def test_format_minimal_quantity_canonical():
    doc = parse_spec("quantity   resistance ;  // padded").document
    assert format_spec(doc) == "quantity resistance;\n"


def test_pathological_nesting_is_a_diagnostic_not_a_crash():
    deep = "contract K : C { assume " + "(" * 500 + "true" + ")" * 500 + "; guarantee true; }"
    result = parse_spec(deep)
    assert any("nesting" in d.message for d in result.diagnostics)
    nots = "contract K : C { assume " + "not " * 500 + "true; guarantee true; }"
    assert any("nesting" in d.message for d in parse_spec(nots).diagnostics)
    # generous headroom for real documents
    def nested(depth):
        return "quantity q; component C { f: q; } contract K : C { assume " + "(" * depth + "f = 1" + ")" * depth + "; guarantee true; }"

    result = parse_spec(nested(60))
    assert result.ok(), [d.render() for d in result.diagnostics]
    # the limit is exactly 64 levels
    assert parse_spec(nested(64)).ok()
    assert [d.message for d in parse_spec(nested(65)).diagnostics][0] == "expression nesting deeper than 64"
