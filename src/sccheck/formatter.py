"""Canonical formatting of specification documents and assertions.

format_spec is the inverse of parsing up to locations: re-parsing the
output yields a structurally equal document, and formatting is a fixpoint
on its own output. Expressions are printed with the fewest parentheses
the declared precedence allows.
"""

from __future__ import annotations

from .model import (
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
    Var,
)
from .parser import (
    ComponentDecl,
    ContractDecl,
    OperatorDecl,
    QuantityDecl,
    RefinementDecl,
    SpecDocument,
)

# precedence levels, loosest first
_IMPLIES, _OR, _AND, _NOT, _CMP, _ADD, _MUL, _NEG, _ATOM = range(1, 10)


def _level(node) -> int:
    match node:
        case Implies():
            return _IMPLIES
        case Or():
            return _OR
        case And():
            return _AND
        case Not():
            return _NOT
        case Cmp():
            return _CMP
        case BinOp(op=op):
            return _ADD if op in ("+", "-") else _MUL
        case Neg():
            return _NEG
        case Const(value=v):
            # an exact value prints as n or p/q, which reads back at division level
            return _ATOM if v.denominator == 1 else _MUL
        case _:
            return _ATOM


def format_expr(node, parent_level: int = 0, right_of_same: bool = False) -> str:
    """Render a term or assertion.

    `right_of_same` marks the right operand of a left-associative operator
    at equal precedence, which needs parentheses to re-parse identically.
    """
    lvl = _level(node)
    need_parens = lvl < parent_level or (lvl == parent_level and right_of_same)

    match node:
        case BoolLit(value=v):
            s = "true" if v else "false"
        case Const(value=v):
            s = str(v)
        case Var(name=n):
            s = n
        case Neg(operand=t):
            s = "-" + format_expr(t, _NEG)
        case BinOp(op=op, left=l, right=r):
            s = f"{format_expr(l, lvl)} {op} {format_expr(r, lvl, right_of_same=True)}"
        case Cmp(op=op, left=l, right=r):
            s = f"{format_expr(l, _ADD)} {op} {format_expr(r, _ADD)}"
        case Not(operand=x):
            s = "not " + format_expr(x, _NOT)
        case And(left=l, right=r):
            # right-associative: the left child needs parens at equal level
            s = f"{format_expr(l, _AND, right_of_same=True)} and {format_expr(r, _AND)}"
        case Or(left=l, right=r):
            s = f"{format_expr(l, _OR, right_of_same=True)} or {format_expr(r, _OR)}"
        case Implies(left=l, right=r):
            s = f"{format_expr(l, _IMPLIES, right_of_same=True)} implies {format_expr(r, _IMPLIES)}"
        case Exists(names=ns, body=b):
            # not part of the surface grammar; report rendering only
            s = f"exists {', '.join(ns)} . {format_expr(b, _IMPLIES)}"
            return f"({s})" if need_parens else s
        case _:
            raise TypeError(f"cannot format: {node!r}")

    return f"({s})" if need_parens else s


def _format_quantity(q: QuantityDecl) -> str:
    if q.kind == "base":
        return f"quantity {q.name};"
    if q.kind == "sub":
        assert q.parent is not None
        return f"quantity {q.name} <: {q.parent.name};"
    assert q.monomial is not None
    parts = [q.monomial[0][0].name]
    for ref, sign in q.monomial[1:]:
        parts.append(("* " if sign > 0 else "/ ") + ref.name)
    return f"quantity {q.name} = {' '.join(parts)};"


def _format_component(c: ComponentDecl) -> str:
    head = f"component {c.name}"
    if c.supertype is not None:
        head += f" <: {c.supertype.name}"
    lines = [head + " {"]
    for f in c.fields:
        lines.append(f"  {f.name}: {f.quantity.name};")
    lines.append("}")
    return "\n".join(lines)


def _format_operator(o: OperatorDecl) -> str:
    params = ", ".join(f"{p.binding}: {p.type.name}" for p in o.parameters)
    lines = [f"operator {o.name}({params}) -> {o.result.name} {{"]
    for eq in o.glue:
        lines.append(f"  {format_expr(eq)};")
    lines.append("}")
    return "\n".join(lines)


def _format_contract(k: ContractDecl) -> str:
    return "\n".join(
        [
            f"contract {k.name} : {k.subject.name} {{",
            f"  assume {format_expr(k.assumption)};",
            f"  guarantee {format_expr(k.guarantee)};",
            "}",
        ]
    )


def _format_refinement(r: RefinementDecl) -> str:
    bindings = ", ".join(f"{b.contract.name} as {b.binding}" for b in r.bindings)
    head = f"refinement {r.name} : compose {r.operator.name}({bindings}) <: {r.abstract.name}"
    if r.grid is None:
        return head + ";"
    lines = [head + " {"]
    for var, values in r.grid:
        lines.append(f"  {var} = {', '.join(str(v) for v in values)};")
    lines.append("}")
    return "\n".join(lines)


def format_spec(doc: SpecDocument) -> str:
    """Canonical text for a document; declarations keep their source order
    within each kind."""
    blocks: list[str] = []
    blocks.extend(_format_quantity(q) for q in doc.quantities)
    blocks.extend(_format_component(c) for c in doc.components)
    blocks.extend(_format_operator(o) for o in doc.operators)
    blocks.extend(_format_contract(k) for k in doc.contracts)
    blocks.extend(_format_refinement(r) for r in doc.refinements)
    return "\n\n".join(blocks) + ("\n" if blocks else "")
