"""Canonical formatting of specification documents and assertions.

format_spec is the inverse of parsing up to locations: re-parsing the
output yields a structurally equal document, and formatting is a fixpoint
on its own output. Expressions are printed with the fewest parentheses
the precedence allows, read from the parser's operator table, so parsing
and printing share one set of binding levels.
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
    ATOM,
    MUL,
    NEG,
    NOT,
    OPERATORS,
    ComponentDecl,
    ContractDecl,
    OperatorDecl,
    QuantityDecl,
    RefinementDecl,
    SpecDocument,
)

_CONNECTIVES = {And: "and", Or: "or", Implies: "implies"}


def format_expr(node, level: int = 0) -> str:
    """Render a term or assertion, in parentheses if it binds looser than
    `level`."""
    match node:
        case BoolLit(value=v):
            own, s = ATOM, "true" if v else "false"
        case Const(value=v):
            # an exact value prints as n or p/q, which reads back at division level
            own, s = ATOM if v.denominator == 1 else MUL, str(v)
        case Var(name=n):
            own, s = ATOM, n
        case Neg(operand=t):
            own, s = NEG, "-" + format_expr(t, NEG)
        case Not(operand=x):
            own, s = NOT, "not " + format_expr(x, NOT)
        case BinOp(op=op, left=l, right=r) | Cmp(op=op, left=l, right=r):
            own, s = _infix(op, l, r)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            own, s = _infix(_CONNECTIVES[type(node)], l, r)
        case Exists(names=ns, body=b):
            # not part of the surface grammar; report rendering only. Its
            # body reaches as far right as it can, so as an operand it binds
            # loosest and is parenthesized
            own, s = 0, f"exists {', '.join(ns)} . {format_expr(b)}"
    return f"({s})" if own < level else s


def _infix(op: str, left, right) -> tuple[int, str]:
    own, left_level, right_level, _ = OPERATORS[op]
    return own, f"{format_expr(left, left_level)} {op} {format_expr(right, right_level)}"


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
