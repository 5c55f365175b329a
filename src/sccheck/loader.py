"""Elaboration of a parsed document into a checked universe of model
objects: the quantity table, component types, the operator overload set,
contracts, and refinement obligations.

All problems are reported as diagnostics; a universe is returned only
when there are no errors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional

from .diagnostics import Diagnostic, has_errors
from .model import (
    ComponentType,
    CompositionOperator,
    Contract,
    FieldDecl,
)
from .parser import SpecDocument
from .typesystem import (
    OverloadSet,
    QuantityTable,
    TypeSystemError,
    build_hierarchy,
    check_assertion_dimensions,
    check_component_type,
    check_operator_glue,
    resolve_operator,
    scope_of,
)

GridHint = Mapping[str, tuple[Fraction, ...]]


@dataclass(frozen=True)
class Obligation:
    """One refinement edge: a composed term checked against an abstract
    contract, with an optional grid hint for oracle cross-checks."""

    name: str
    operator: CompositionOperator
    bindings: tuple[tuple[str, Contract], ...]
    abstract: Contract
    grid_hint: Optional[GridHint] = None


@dataclass
class Universe:
    table: QuantityTable
    components: dict[str, ComponentType]
    overloads: OverloadSet
    contracts: dict[str, Contract]
    obligations: list[Obligation]


def elaborate(doc: SpecDocument) -> tuple[Optional[Universe], list[Diagnostic]]:
    diags: list[Diagnostic] = []

    # quantity hierarchy
    try:
        table = build_hierarchy(doc.quantities)
    except TypeSystemError as exc:
        diags.append(Diagnostic("error", exc.code, str(exc), exc.loc))
        return None, diags

    # component types, supertypes resolved in dependency order
    decls = {}
    for c in doc.components:
        if c.name in decls:
            diags.append(Diagnostic("error", "duplicate-component", f"component redefined: {c.name}", c.loc))
        else:
            decls[c.name] = c
    components: dict[str, ComponentType] = {}
    building: list[str] = []

    def build_component(name: str) -> ComponentType | None:
        if name in components:
            return components[name]
        if name not in decls:
            return None  # unresolved reference, already diagnosed by the parser
        if name in building:
            cycle = building[building.index(name):] + [name]
            diags.append(
                Diagnostic(
                    "error",
                    "cyclic-component",
                    "cyclic component supertypes: " + " -> ".join(cycle),
                    decls[name].loc,
                )
            )
            return None
        building.append(name)
        d = decls[name]
        supertype = None
        if d.supertype is not None:
            supertype = build_component(d.supertype.name)
        ct = ComponentType(
            d.name,
            tuple(FieldDecl(f.name, f.quantity.name) for f in d.fields),
            supertype,
        )
        building.pop()
        components[name] = ct
        return ct

    for name in decls:
        build_component(name)
    for ct in components.values():
        diags.extend(replace(d, loc=decls[ct.name].loc) for d in check_component_type(ct, table))

    # operators and their glue
    overloads = OverloadSet.empty()
    for o in doc.operators:
        params = []
        missing = False
        for p in o.parameters:
            ptype = components.get(p.type.name)
            if ptype is None:
                missing = True
                continue
            params.append((p.binding, ptype))
        result = components.get(o.result.name)
        if missing or result is None:
            continue  # unresolved names already diagnosed
        seen = set()
        for p in o.parameters:
            if p.binding in seen:
                diags.append(
                    Diagnostic(
                        "error",
                        "duplicate-binding",
                        f"duplicate parameter binding {p.binding} in operator {o.name}",
                        p.loc,
                    )
                )
            seen.add(p.binding)
        op = CompositionOperator(o.name, tuple(params), result, o.glue)
        dup = overloads.add(op)
        if dup is not None:
            diags.append(replace(dup, loc=o.loc))
            continue
        diags.extend(check_operator_glue(op, table))

    # contracts
    contracts: dict[str, Contract] = {}
    for k in doc.contracts:
        subject = components.get(k.subject.name)
        if subject is None:
            continue
        if k.name in contracts:
            diags.append(
                Diagnostic("error", "duplicate-contract", f"contract redefined: {k.name}", k.loc)
            )
            continue
        scope = scope_of(subject)
        for a in (k.assumption, k.guarantee):
            diags.extend(check_assertion_dimensions(a, scope, table))
        contracts[k.name] = Contract(k.name, subject, k.assumption, k.guarantee)

    # refinement obligations
    obligations: list[Obligation] = []
    seen_names: set[str] = set()
    for r in doc.refinements:
        if r.name in seen_names:
            diags.append(
                Diagnostic("error", "duplicate-obligation", f"obligation redefined: {r.name}", r.loc)
            )
            continue
        seen_names.add(r.name)
        bound: list[tuple[str, Contract]] = []
        ok = True
        for b in r.bindings:
            c = contracts.get(b.contract.name)
            if c is None:
                ok = False
                continue
            bound.append((b.binding, c))
        abstract = contracts.get(r.abstract.name)
        if not ok or abstract is None:
            continue
        try:
            op = resolve_operator(
                r.operator.name, [c.subject for _, c in bound], overloads
            )
        except TypeSystemError as exc:
            diags.append(Diagnostic("error", exc.code, f"in refinement {r.name}: {exc}", r.loc))
            continue
        if abstract.subject.name != op.result.name:
            diags.append(
                Diagnostic(
                    "error",
                    "subject-type-mismatch",
                    f"refinement {r.name}: composed subject {op.result.name} does not match "
                    f"abstract contract subject {abstract.subject.name}",
                    r.loc,
                )
            )
            continue
        hint = dict(r.grid) if r.grid is not None else None
        if hint is not None and len(hint) < len(r.grid):
            repeated = sorted(var for var, n in Counter(var for var, _ in r.grid).items() if n > 1)
            message = f"refinement {r.name}: grid variable given twice: {', '.join(repeated)}"
            diags.append(Diagnostic("error", "duplicate-grid-variable", message, r.loc))
            continue
        # a grid names parent and child fields, bare or qualified by a binding
        known = set(op.result.field_names())
        for bname, c in bound:
            known.update(c.subject.field_names())
            known.update(f"{bname}.{f}" for f in c.subject.field_names())
        unknown = [var for var, _ in r.grid or () if var not in known]
        if unknown:
            message = f"refinement {r.name}: unknown field in grid: {', '.join(unknown)}"
            diags.append(Diagnostic("error", "unknown-field", message, r.loc))
            continue
        obligations.append(Obligation(r.name, op, tuple(bound), abstract, hint))

    if has_errors(diags):
        return None, diags
    return Universe(table, components, overloads, contracts, obligations), diags
