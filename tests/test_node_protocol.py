"""The node protocol: `model.CHILD_FIELDS` is the one place that knows a
node's children, and the walkers that treat every child alike read it.

Each such walker is checked against a reference copy of the walker it
replaced, which spelled out one case per node type: same outputs, same
list order, same diagnostic order, on 600 generated documents and on the
composed contracts of the composition soundness seeds.
"""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from docgen import random_document
from sccheck import model
from sccheck.diagnostics import Diagnostic
from sccheck.engine import _denominators
from sccheck.model import (
    CHILD_FIELDS,
    And,
    BinOp,
    BoolLit,
    Cmp,
    Const,
    Exists,
    Implies,
    Neg,
    Not,
    Or,
    Quantity,
    Var,
    children,
    dimension,
    free_vars,
    qualify,
    rebuild,
    rename_vars,
)
from sccheck.parser import check_sorts
from sccheck.typesystem import QuantityTable, TypeSystemError, _dim, check_assertion_dimensions, dim_str
from test_composition_soundness import SEEDS, _case

DOCUMENTS = range(600)


# ---------------------------------------------------------------------------
# reference copies: the walkers as they were, one case per node type

def ref_free_vars(node):
    match node:
        case Const() | BoolLit():
            return frozenset()
        case Var(name=n):
            return frozenset((n,))
        case Neg(operand=t) | Not(operand=t):
            return ref_free_vars(t)
        case BinOp(left=l, right=r) | Cmp(left=l, right=r):
            return ref_free_vars(l) | ref_free_vars(r)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            return ref_free_vars(l) | ref_free_vars(r)
        case Exists(names=ns, body=b):
            return ref_free_vars(b) - frozenset(ns)
    raise TypeError(f"not a term or assertion: {node!r}")


def ref_rename_vars(node, mapping):
    match node:
        case Const() | BoolLit():
            return node
        case Var(name=n):
            return Var(mapping.get(n, n), loc=node.loc) if n in mapping else node
        case Neg(operand=t):
            return Neg(ref_rename_vars(t, mapping), loc=node.loc)
        case Not(operand=t):
            return Not(ref_rename_vars(t, mapping), loc=node.loc)
        case BinOp(op=op, left=l, right=r):
            return BinOp(op, ref_rename_vars(l, mapping), ref_rename_vars(r, mapping), loc=node.loc)
        case Cmp(op=op, left=l, right=r):
            return Cmp(op, ref_rename_vars(l, mapping), ref_rename_vars(r, mapping), loc=node.loc)
        case And(left=l, right=r):
            return And(ref_rename_vars(l, mapping), ref_rename_vars(r, mapping), loc=node.loc)
        case Or(left=l, right=r):
            return Or(ref_rename_vars(l, mapping), ref_rename_vars(r, mapping), loc=node.loc)
        case Implies(left=l, right=r):
            return Implies(ref_rename_vars(l, mapping), ref_rename_vars(r, mapping), loc=node.loc)
        case Exists(names=ns, body=b):
            inner = {k: v for k, v in mapping.items() if k not in ns}
            return Exists(ns, ref_rename_vars(b, inner), loc=node.loc)
    raise TypeError(f"not a term or assertion: {node!r}")


def ref_denominators(node):
    match node:
        case BinOp(op="/", left=l, right=r):
            nonzero = isinstance(r, Const) and r.value != 0
            return ref_denominators(l) + ref_denominators(r) + ([] if nonzero else [r])
        case BinOp() | Cmp() | And() | Or() | Implies():
            return ref_denominators(node.left) + ref_denominators(node.right)
        case Neg(operand=x) | Not(operand=x):
            return ref_denominators(x)
    return []


def ref_check_sorts(expr, expected, diags, where):
    actual = "bool" if isinstance(expr, (BoolLit, Cmp, Not, And, Or, Implies)) else "arith"
    if actual != expected:
        diags.append(
            Diagnostic(
                "error",
                "sort-mismatch",
                f"{where}: expected {'a boolean formula' if expected == 'bool' else 'an arithmetic term'}",
                getattr(expr, "loc", None),
            )
        )
        return
    match expr:
        case BoolLit() | Var() | Const():
            return
        case Neg(operand=t):
            ref_check_sorts(t, "arith", diags, where)
        case BinOp(left=l, right=r) | Cmp(left=l, right=r):
            ref_check_sorts(l, "arith", diags, where)
            ref_check_sorts(r, "arith", diags, where)
        case Not(operand=x):
            ref_check_sorts(x, "bool", diags, where)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            ref_check_sorts(l, "bool", diags, where)
            ref_check_sorts(r, "bool", diags, where)


def ref_check_assertion_dimensions(a, scope, table):
    diags = []
    failed = object()

    def term_dim(t):
        try:
            return _dim(t, scope, table)
        except TypeSystemError as exc:
            diags.append(Diagnostic("error", exc.code, str(exc), exc.loc))
        return failed

    def walk(node):
        match node:
            case BoolLit():
                return
            case Cmp(left=l, right=r):
                dl = term_dim(l)
                dr = term_dim(r)
                if dl is not failed and dr is not failed and dl is not None and dr is not None and dl != dr:
                    message = f"dimension mismatch: {dim_str(dl)} vs {dim_str(dr)}"
                    diags.append(Diagnostic("error", "dimension-mismatch", message, node.loc))
            case Not(operand=x):
                walk(x)
            case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
                walk(l)
                walk(r)
            case _:
                raise TypeError(f"unexpected assertion node: {node!r}")

    walk(a)
    return diags


# ---------------------------------------------------------------------------
# inputs

def _mixed(rng: random.Random, formulas, terms):
    """Trees that put formulas where terms belong and terms where formulas
    belong, at some depth, so that sort checking reports something."""
    f, t = rng.choice(formulas), rng.choice(terms)
    return rng.choice((
        BinOp("+", t, f),
        Not(t),
        Cmp("<", f, t),
        And(f, Or(t, f)),
        Implies(Not(f), Neg(f)),
    ))


def _document_trees(seed: int) -> tuple[list, list]:
    """A generated document's formulas, and some of their terms."""
    doc = random_document(random.Random(seed))
    formulas = [eq for o in doc.operators for eq in o.glue]
    formulas += [f for k in doc.contracts for f in (k.assumption, k.guarantee)]
    terms = [side for eq in formulas if isinstance(eq, Cmp) for side in (eq.left, eq.right)]
    return formulas, terms


def _composed_trees():
    """Every seed's composed formulas, residues among them."""
    for seed in SEEDS:
        _, _, composed, _ = _case(seed)
        yield seed, composed, (composed.contract.assumption, composed.contract.guarantee, composed.guarantee_body)


def _binders(node) -> set[str]:
    out = set()
    todo = [node]
    while todo:
        node = todo.pop()
        if isinstance(node, Exists):
            out.update(node.names)
        todo += children(node)
    return out


# ---------------------------------------------------------------------------
# the table

def test_the_table_covers_every_node_type_and_field():
    assert set(CHILD_FIELDS) == set(model._Node.__subclasses__())
    for cls, kids in CHILD_FIELDS.items():
        names = [f.name for f in fields(cls) if f.name != "loc"]
        labels = [n for n in names if n not in kids]
        assert names == labels + list(kids), cls


def test_rebuild_keeps_labels_and_location_and_shares_unchanged_nodes():
    loc = model.Loc(3, 4)
    node = Cmp("<=", BinOp("/", Var("x"), Const(2)), Neg(Var("y")), loc=loc)
    assert rebuild(node, children(node)) is node
    other = rebuild(node, [Var("z"), Const(1)])
    assert other == Cmp("<=", Var("z"), Const(1)) and other.loc is loc
    assert rebuild(Exists(("x",), node), [BoolLit(True)]) == Exists(("x",), BoolLit(True))
    assert rebuild(Const(3), []) == Const(3)


# ---------------------------------------------------------------------------
# each protocol walker against its reference copy

@pytest.mark.parametrize("chunk", range(6))
def test_protocol_walkers_match_their_reference_copies_on_documents(chunk):
    table = QuantityTable({
        "a": Quantity("a", dimension({"a": 1})),
        "b": Quantity("b", dimension({"b": 1})),
        "n": Quantity("n", dimension({})),
    })
    for seed in DOCUMENTS[chunk::6]:
        rng = random.Random(seed)
        formulas, terms = _document_trees(seed)
        mixed = [_mixed(rng, formulas, terms) for _ in range(3)] if formulas and terms else []
        for tree in formulas + terms + mixed:
            assert free_vars(tree) == ref_free_vars(tree)
            assert _denominators(tree) == ref_denominators(tree)
            names = sorted(free_vars(tree))
            mapping = {n: rng.choice(names) + "'" for n in names if rng.random() < 0.7}
            assert rename_vars(tree, mapping) == ref_rename_vars(tree, mapping)
            for expected in ("bool", "arith"):
                new: list = []
                old: list = []
                check_sorts(tree, expected, new, "here")
                ref_check_sorts(tree, expected, old, "here")
                assert new == old
        for tree in formulas:
            scope = {n: rng.choice("abn") for n in free_vars(tree) if rng.random() < 0.85}
            assert check_assertion_dimensions(tree, scope, table) == ref_check_assertion_dimensions(tree, scope, table)


def test_protocol_walkers_match_their_reference_copies_on_compositions():
    renamed = 0
    for seed, _, trees in _composed_trees():
        for tree in trees:
            assert free_vars(tree) == ref_free_vars(tree), seed
            assert _denominators(tree) == ref_denominators(tree), seed
            for prefix in ("k", "c0", "c1"):
                mapping = {n: f"{prefix}.{n}" for n in free_vars(tree)}
                if _binders(tree).isdisjoint(mapping.values()):
                    assert rename_vars(tree, mapping) == ref_rename_vars(tree, mapping), seed
                else:
                    renamed += 1
            new: list = []
            old: list = []
            check_sorts(tree, "bool", new, "here")
            ref_check_sorts(tree, "bool", old, "here")
            assert new == old, seed
    assert renamed  # the seeds exercise capture avoidance too


# ---------------------------------------------------------------------------
# qualification never captures

def test_qualify_renames_a_binder_the_prefix_would_capture(corpus_universe):
    """Parallel composition keeps a residue that binds c1.r; qualifying its
    guarantee by c1 maps the free r to c1.r, which that binder would
    capture without the renaming."""
    parallel = corpus_universe.overloads.candidates("parallel")[0]
    from sccheck.algebra import compose_contracts

    guarantee = compose_contracts(
        parallel, [("c1", corpus_universe.contracts["R1"]), ("c2", corpus_universe.contracts["R2"])]
    ).contract.guarantee
    assert isinstance(guarantee, Exists) and "c1.r" in guarantee.names
    qualified = qualify(guarantee, "c1")
    assert free_vars(qualified) == {"c1.r", "c1.u", "c1.i", "c1.p"}
    assert "c1.r~1" in qualified.names and "c1.r" not in qualified.names
    assert "c2.r" in qualified.names  # a binder no target collides with keeps its name


def test_rename_vars_picks_a_fresh_name_free_nowhere():
    # x is bound, and x~1 is already free in the body: the binder becomes x~2
    formula = Exists(("x",), And(Cmp("=", Var("x"), Var("y")), Cmp("<", Var("x~1"), Const(0))))
    renamed = rename_vars(formula, {"y": "x"})
    assert renamed == Exists(("x~2",), And(Cmp("=", Var("x~2"), Var("x")), Cmp("<", Var("x~1"), Const(0))))
    assert free_vars(renamed) == {"x", "x~1"}


def _qualify_keeps_exactly_the_free_variables(tree, prefix: str) -> None:
    assert free_vars(qualify(tree, prefix)) == {f"{prefix}.{v}" for v in free_vars(tree)}


@pytest.mark.parametrize("chunk", range(3))
def test_qualify_keeps_exactly_the_free_variables_of_documents(chunk):
    for seed in DOCUMENTS[chunk::3]:
        formulas, terms = _document_trees(seed)
        for tree in formulas + terms:
            _qualify_keeps_exactly_the_free_variables(tree, random.Random(seed).choice(("c0", "b1", "x2")))


def test_qualify_keeps_exactly_the_free_variables_of_composed_contracts():
    residues = 0
    for _, composed, trees in _composed_trees():
        residues += composed.projection == "quantified-residue"
        for tree in trees:
            for prefix in ("c0", "c1", "c2", "k"):
                _qualify_keeps_exactly_the_free_variables(tree, prefix)
    assert residues == 43
