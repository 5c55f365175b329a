"""Grammar-directed random document generator for round-trip tests.

Generated trees avoid the two shapes the parser folds away (negated
constant literals and divisions of two constant literals), because those
are unreachable parse results; everything else in the surface grammar is
fair game.
"""

from __future__ import annotations

import random
from fractions import Fraction

from sccheck.model import And, BinOp, BoolLit, Cmp, Const, Implies, Neg, Not, Or, Var
from sccheck.parser import (
    BindingSyntax,
    ComponentDecl,
    ContractDecl,
    FieldSyntax,
    OperatorDecl,
    ParamSyntax,
    QuantityDecl,
    Ref,
    RefinementDecl,
    SpecDocument,
)

_CMP_OPS = ("<=", "<", "=", ">=", ">", "!=")


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))


def _name(rng: random.Random, prefix: str) -> str:
    return f"{prefix}{rng.randrange(100)}"


def _var(rng: random.Random) -> Var:
    if rng.random() < 0.3:
        return Var(f"{_name(rng, 'b')}.{_name(rng, 'f')}")
    return Var(_name(rng, "x"))


def _term(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        return Const(_rational(rng)) if rng.random() < 0.45 else _var(rng)
    if rng.random() < 0.15:
        inner = _term(rng, depth - 1)
        if isinstance(inner, Const):
            inner = _var(rng)  # Neg(Const) folds at parse time
        return Neg(inner)
    op = rng.choice("+-*/")
    left = _term(rng, depth - 1)
    right = _term(rng, depth - 1)
    if op == "/" and isinstance(left, Const) and isinstance(right, Const):
        right = _var(rng)  # Const/Const folds at parse time
    return BinOp(op, left, right)


def _formula(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.15:
            return BoolLit(rng.random() < 0.5)
        return Cmp(rng.choice(_CMP_OPS), _term(rng, depth - 1), _term(rng, depth - 1))
    roll = rng.random()
    if roll < 0.2:
        return Not(_formula(rng, depth - 1))
    cls = rng.choice((And, Or, Implies))
    return cls(_formula(rng, depth - 1), _formula(rng, depth - 1))


def _equation(rng: random.Random, depth: int) -> Cmp:
    return Cmp("=", _term(rng, depth), _term(rng, depth))


def _quantity(rng: random.Random) -> QuantityDecl:
    name = _name(rng, "q")
    roll = rng.random()
    if roll < 0.5:
        return QuantityDecl(name, "base")
    if roll < 0.75:
        monomial = [(Ref(_name(rng, "q")), 1)]
        for _ in range(rng.randrange(3)):
            monomial.append((Ref(_name(rng, "q")), rng.choice((1, -1))))
        return QuantityDecl(name, "derived", monomial=tuple(monomial))
    return QuantityDecl(name, "sub", parent=Ref(_name(rng, "q")))


def _component(rng: random.Random) -> ComponentDecl:
    fields = tuple(
        FieldSyntax(_name(rng, "f"), Ref(_name(rng, "q")))
        for _ in range(rng.randrange(4))
    )
    supertype = Ref(_name(rng, "C")) if rng.random() < 0.3 else None
    return ComponentDecl(_name(rng, "C"), supertype, fields)


def _operator(rng: random.Random, depth: int) -> OperatorDecl:
    params = tuple(
        ParamSyntax(_name(rng, "b"), Ref(_name(rng, "C")))
        for _ in range(rng.randint(1, 3))
    )
    glue = tuple(_equation(rng, depth) for _ in range(rng.randrange(4)))
    return OperatorDecl(_name(rng, "op"), params, Ref(_name(rng, "C")), glue)


def _contract(rng: random.Random, depth: int) -> ContractDecl:
    return ContractDecl(
        _name(rng, "K"),
        Ref(_name(rng, "C")),
        _formula(rng, depth),
        _formula(rng, depth),
    )


def _refinement(rng: random.Random) -> RefinementDecl:
    bindings = tuple(
        BindingSyntax(Ref(_name(rng, "K")), f"c{i}")
        for i in range(rng.randint(1, 3))
    )
    grid = None
    if rng.random() < 0.5:
        grid = tuple(
            (_var(rng).name, tuple(_rational(rng) for _ in range(rng.randint(1, 4))))
            for _ in range(rng.randint(1, 3))
        )
    return RefinementDecl(
        _name(rng, "R"), Ref(_name(rng, "op")), bindings, Ref(_name(rng, "K")), grid
    )


def random_document(rng: random.Random, depth: int = 5) -> SpecDocument:
    return SpecDocument(
        quantities=tuple(_quantity(rng) for _ in range(rng.randrange(4))),
        components=tuple(_component(rng) for _ in range(rng.randrange(3))),
        operators=tuple(_operator(rng, depth) for _ in range(rng.randrange(3))),
        contracts=tuple(_contract(rng, depth) for _ in range(rng.randrange(3))),
        refinements=tuple(_refinement(rng) for _ in range(rng.randrange(3))),
    )
