"""Structural checks: the quantity hierarchy, dimensional consistency of
assertions and glue equations, and overload resolution of composition
operators by most-specific parameter types.

Dimensions are integer exponent vectors over the base quantities, so the
usual physical laws (a voltage times a current is a power, a voltage over
a current is a resistance) are checkable rather than nominal. Subdomain
declarations (`a <: b`) order quantities without changing dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .diagnostics import Diagnostic
from .model import (
    Assertion,
    BinOp,
    BoolLit,
    Cmp,
    ComponentType,
    CompositionOperator,
    Const,
    Dimension,
    DIMENSIONLESS,
    Implies,
    Loc,
    Neg,
    Not,
    And,
    Or,
    Quantity,
    Term,
    Var,
    dim_div,
    dim_mul,
    dim_str,
    dimension,
)


class TypeSystemError(Exception):
    def __init__(self, message: str, loc: Loc | None = None):
        self.loc = loc
        super().__init__(message)


class CyclicSubtype(TypeSystemError):
    def __init__(self, path: Sequence[str], loc: Loc | None = None):
        self.path = tuple(path)
        super().__init__("cyclic quantity declarations: " + " -> ".join(self.path), loc)


class UnknownQuantity(TypeSystemError):
    def __init__(self, name: str, loc: Loc | None = None):
        self.name = name
        super().__init__(f"unknown quantity: {name}", loc)


class RedefinedQuantity(TypeSystemError):
    def __init__(self, name: str, loc: Loc | None = None):
        self.name = name
        super().__init__(f"quantity redefined: {name}", loc)


class DimensionMismatch(TypeSystemError):
    def __init__(self, left: Dimension, right: Dimension, loc: Loc | None = None):
        self.left = left
        self.right = right
        super().__init__(
            f"dimension mismatch: {dim_str(left)} vs {dim_str(right)}", loc
        )


class UnknownField(TypeSystemError):
    def __init__(self, name: str, loc: Loc | None = None):
        self.name = name
        super().__init__(f"unknown field: {name}", loc)


class NoMatchingOverload(TypeSystemError):
    def __init__(self, name: str, arg_types: Sequence[str]):
        self.name = name
        self.arg_types = tuple(arg_types)
        super().__init__(f"no overload of {name} matches ({', '.join(arg_types)})")


class AmbiguousOverload(TypeSystemError):
    def __init__(self, name: str, candidates: Sequence[str]):
        self.name = name
        self.candidates = tuple(candidates)
        super().__init__(
            f"ambiguous overload of {name}; candidates: {'; '.join(candidates)}"
        )


# ---------------------------------------------------------------------------
# quantity hierarchy

@dataclass(frozen=True)
class QuantityTable:
    """All declared quantities with normalized dimensions and the subdomain
    partial order."""

    quantities: Mapping[str, Quantity]

    def get(self, name: str) -> Quantity:
        try:
            return self.quantities[name]
        except KeyError:
            raise UnknownQuantity(name) from None

    def has(self, name: str) -> bool:
        return name in self.quantities

    def dimension_of_quantity(self, name: str) -> Dimension:
        return self.get(name).dimension

    def is_subquantity(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive subdomain order."""
        current: str | None = sub
        while current is not None:
            if current == sup:
                return True
            current = self.get(current).parent
        return False


def build_hierarchy(decls) -> QuantityTable:
    """Elaborate quantity declarations into a table with normalized
    dimensions; raises on redefinitions, unknown references, and cycles.

    `decls` is a sequence of parsed quantity declarations (kind "base",
    "derived" with a monomial, or "sub" with a parent).
    """
    by_name = {}
    for d in decls:
        if d.name in by_name:
            raise RedefinedQuantity(d.name, d.loc)
        by_name[d.name] = d

    dims: dict[str, Dimension] = {}
    visiting: list[str] = []

    def resolve(name: str, loc: Loc | None) -> Dimension:
        if name in dims:
            return dims[name]
        if name not in by_name:
            raise UnknownQuantity(name, loc)
        if name in visiting:
            cycle = visiting[visiting.index(name):] + [name]
            raise CyclicSubtype(cycle, loc)
        visiting.append(name)
        d = by_name[name]
        if d.kind == "base":
            dim = dimension({name: 1})
        elif d.kind == "sub":
            dim = resolve(d.parent.name, d.parent.loc)
        else:  # derived monomial
            dim = DIMENSIONLESS
            for ref, exponent in d.monomial:
                factor = resolve(ref.name, ref.loc)
                if exponent < 0:
                    dim = dim_div(dim, factor)
                else:
                    dim = dim_mul(dim, factor)
        visiting.pop()
        dims[name] = dim
        return dim

    for name in by_name:
        resolve(name, by_name[name].loc)

    quantities = {}
    for name, d in by_name.items():
        parent = d.parent.name if d.kind == "sub" else None
        quantities[name] = Quantity(name, dims[name], parent)
    return QuantityTable(quantities)


# ---------------------------------------------------------------------------
# dimension checking

Scope = Mapping[str, str]
"""Maps a variable name (possibly qualified) to its quantity name."""


def scope_of(ct: ComponentType) -> dict[str, str]:
    return {f.name: f.quantity for f in ct.fields}


def _dim(term: Term, scope: Scope, table: QuantityTable) -> Dimension | None:
    """Dimension of a term, or None for a constant-only subterm.

    Constant-only subterms are dimension-polymorphic: a bare rational next
    to a resistance reads as that many resistance units, so sums and
    comparisons against literals stay checkable.
    """
    match term:
        case Const():
            return None
        case Var(name=n):
            if n not in scope:
                raise UnknownField(n, term.loc)
            return table.dimension_of_quantity(scope[n])
        case Neg(operand=t):
            return _dim(t, scope, table)
        case BinOp(op=op, left=l, right=r):
            dl = _dim(l, scope, table)
            dr = _dim(r, scope, table)
            if op in ("+", "-"):
                if dl is None:
                    return dr
                if dr is None:
                    return dl
                if dl != dr:
                    raise DimensionMismatch(dl, dr, term.loc)
                return dl
            if op == "*":
                if dl is None:
                    return dr
                if dr is None:
                    return dl
                return dim_mul(dl, dr)
            # division: a constant divisor preserves, a constant dividend inverts
            if dr is None:
                return dl
            if dl is None:
                return dim_div(DIMENSIONLESS, dr)
            return dim_div(dl, dr)
    raise TypeError(f"not a term: {term!r}")


def dimension_of(term: Term, scope: Scope | ComponentType, table: QuantityTable) -> Dimension:
    """Dimension of an arithmetic term under a variable scope.

    Products and quotients add and subtract exponent vectors; sums and
    differences require compatible dimensions on both sides; rational
    constants are dimensionless and adapt to the dimensioned side they
    multiply, divide, or are compared with.
    """
    if isinstance(scope, ComponentType):
        scope = scope_of(scope)
    d = _dim(term, scope, table)
    return DIMENSIONLESS if d is None else d


def check_assertion_dimensions(
    a: Assertion, scope: Scope | ComponentType, table: QuantityTable
) -> list[Diagnostic]:
    """Every comparison must relate terms of equal dimension; variable
    references must resolve in the scope. Problems come back as
    diagnostics, one per offending node."""
    if isinstance(scope, ComponentType):
        scope = scope_of(scope)
    diags: list[Diagnostic] = []
    _FAILED = object()

    def term_dim(t: Term):
        try:
            return _dim(t, scope, table)
        except UnknownField as exc:
            diags.append(Diagnostic("error", "unknown-field", str(exc), exc.loc))
        except DimensionMismatch as exc:
            diags.append(Diagnostic("error", "dimension-mismatch", str(exc), exc.loc))
        except UnknownQuantity as exc:
            diags.append(Diagnostic("error", "unknown-quantity", str(exc), exc.loc))
        return _FAILED

    def walk(node: Assertion) -> None:
        match node:
            case BoolLit():
                return
            case Cmp(left=l, right=r):
                dl = term_dim(l)
                dr = term_dim(r)
                if (
                    dl is not _FAILED
                    and dr is not _FAILED
                    and dl is not None
                    and dr is not None
                    and dl != dr
                ):
                    diags.append(
                        Diagnostic(
                            "error",
                            "dimension-mismatch",
                            f"dimension mismatch: {dim_str(dl)} vs {dim_str(dr)}",
                            node.loc,
                        )
                    )
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
# component types

def check_component_type(ct: ComponentType, table: QuantityTable) -> list[Diagnostic]:
    """Field quantities must exist; a subtype must carry every supertype
    field with an identical quantity; field names must be unique."""
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for f in ct.fields:
        if f.name in seen:
            diags.append(
                Diagnostic("error", "duplicate-field", f"duplicate field {f.name} in {ct.name}")
            )
        seen.add(f.name)
        if not table.has(f.quantity):
            diags.append(
                Diagnostic(
                    "error", "unknown-quantity", f"unknown quantity {f.quantity} for field {ct.name}.{f.name}"
                )
            )
    if ct.supertype is not None:
        for f in ct.supertype.fields:
            q = ct.field_quantity(f.name)
            if q != f.quantity:
                diags.append(
                    Diagnostic(
                        "error",
                        "missing-inherited-field",
                        f"{ct.name} must carry inherited field {f.name}: {f.quantity} from {ct.supertype.name}",
                    )
                )
    return diags


# ---------------------------------------------------------------------------
# operator overloads

@dataclass
class OverloadSet:
    overloads: dict[str, list[CompositionOperator]]

    @staticmethod
    def empty() -> "OverloadSet":
        return OverloadSet({})

    def add(self, op: CompositionOperator) -> Diagnostic | None:
        bucket = self.overloads.setdefault(op.name, [])
        sig = tuple(t.name for _, t in op.parameters)
        for existing in bucket:
            if tuple(t.name for _, t in existing.parameters) == sig:
                return Diagnostic(
                    "error",
                    "duplicate-overload",
                    f"operator {op.name} redeclared with parameter types ({', '.join(sig)})",
                )
        bucket.append(op)
        return None

    def candidates(self, name: str) -> list[CompositionOperator]:
        return list(self.overloads.get(name, []))


def _applicable(op: CompositionOperator, arg_types: Sequence[ComponentType]) -> bool:
    if len(op.parameters) != len(arg_types):
        return False
    return all(arg.is_subtype_of(param) for arg, (_, param) in zip(arg_types, op.parameters))


def _at_most_as_specific(x: CompositionOperator, y: CompositionOperator) -> bool:
    """Every parameter of x is a subtype-or-equal of y's."""
    return all(px.is_subtype_of(py) for (_, px), (_, py) in zip(x.parameters, y.parameters))


def resolve_operator(
    name: str, arg_types: Sequence[ComponentType], overloads: OverloadSet
) -> CompositionOperator:
    """Unique most-specific applicable overload, independent of declaration
    order; ambiguity is a hard error."""
    applicable = [op for op in overloads.candidates(name) if _applicable(op, arg_types)]
    if not applicable:
        raise NoMatchingOverload(name, [t.name for t in arg_types])
    best = [
        x
        for x in applicable
        if all(_at_most_as_specific(x, y) for y in applicable)
    ]
    if len(best) != 1:
        sigs = [
            f"{name}({', '.join(t.name for _, t in op.parameters)})" for op in applicable
        ]
        raise AmbiguousOverload(name, sorted(sigs))
    return best[0]


# ---------------------------------------------------------------------------
# glue checking

def glue_scope(op: CompositionOperator) -> dict[str, str]:
    """Result fields unqualified, parameter fields qualified by binding name."""
    scope = {f.name: f.quantity for f in op.result.fields}
    for binding, ptype in op.parameters:
        for f in ptype.fields:
            scope[f"{binding}.{f.name}"] = f.quantity
    return scope


def check_operator_glue(op: CompositionOperator, table: QuantityTable) -> list[Diagnostic]:
    """Each glue equation must be an equality, reference only result fields
    (unqualified) or parameter fields (qualified), and be dimension-consistent."""
    diags: list[Diagnostic] = []
    scope = glue_scope(op)
    bindings = {binding for binding, _ in op.parameters}

    def check_vars(node) -> None:
        match node:
            case Var(name=n):
                if n in scope:
                    return
                if "." in n:
                    prefix = n.split(".", 1)[0]
                    if prefix not in bindings:
                        diags.append(
                            Diagnostic("error", "unknown-binding", f"unknown parameter binding: {prefix}", node.loc)
                        )
                        return
                diags.append(Diagnostic("error", "unknown-field", f"unknown field: {n}", node.loc))
            case Const() | BoolLit():
                return
            case Neg(operand=t) | Not(operand=t):
                check_vars(t)
            case BinOp(left=l, right=r) | Cmp(left=l, right=r):
                check_vars(l)
                check_vars(r)
            case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
                check_vars(l)
                check_vars(r)

    for eq in op.glue:
        if not (isinstance(eq, Cmp) and eq.op == "="):
            diags.append(
                Diagnostic(
                    "error",
                    "glue-not-equation",
                    f"glue of operator {op.name} must be an equality",
                    getattr(eq, "loc", None),
                )
            )
            continue
        before = len(diags)
        check_vars(eq)
        if len(diags) == before:
            diags.extend(check_assertion_dimensions(eq, scope, table))
    return diags
