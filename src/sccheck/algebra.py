"""The contract calculus: composition through a resolved operator's glue,
compatibility, consistency, refinement, and the desk-scale oracle for the
composition characterization.

Composition builds, over parent fields and binding-qualified child fields,

    guarantee body  =  glue  and  (A_k -> G_k for every child k)
    assumption body =  guarantee body  and  not (A_k for every child k)

and then projects the children out: the composed guarantee is the
existential projection of the guarantee body, the composed assumption the
negated existential projection of the assumption body. Projections are
exact (Fourier-Motzkin) when the bodies are linear; otherwise the
quantified residue is retained and downstream checks run the
interval/sampling ladder on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence, Union

from .engine import (
    DnfCapExceeded,
    EngineOptions,
    NonlinearDisjunct,
    Status,
    Verdict,
    check_implication,
    decide_satisfiability,
    fm_project,
    normalize,
    system_to_assertion,
)
from .formatter import format_expr
from .model import (
    Assertion,
    BoolLit,
    CompositionOperator,
    Contract,
    Exists,
    FiniteGrid,
    Implies,
    Interpretation,
    Not,
    UndefinedTerm,
    Valuation,
    conj,
    disj,
    eval_assertion,
    freeze_valuation,
    interpret_finite,
    qualify,
    rename_vars,
    simplify_bools,
    FALSE,
    TRUE,
)


class AlgebraError(Exception):
    pass


class ArityMismatch(AlgebraError):
    pass


class TypeMismatch(AlgebraError):
    pass


class SubjectTypeMismatch(AlgebraError):
    pass


class GridTooLarge(AlgebraError):
    pass


@dataclass(frozen=True)
class ComposedContract:
    """A composed contract plus the provenance needed to re-run the
    composition deterministically and to interpret it on finite grids."""

    contract: Contract
    operator: CompositionOperator
    bindings: tuple[tuple[str, Contract], ...]
    glue: Assertion
    projection: str  # "exact" | "quantified-residue"
    guarantee_body: Assertion


def _as_contract(c: Union[Contract, ComposedContract]) -> Contract:
    return c.contract if isinstance(c, ComposedContract) else c


def _try_project_exists(
    body: Assertion, elim_vars: Sequence[str], cap: int
) -> Assertion | None:
    """Exact existential projection when the body is linear, else None."""
    try:
        dnf = normalize(body, cap)
    except DnfCapExceeded:
        return None
    parts: list[Assertion] = []
    for d in dnf.disjuncts:
        if isinstance(d, NonlinearDisjunct):
            return None
        projected = fm_project(d, list(elim_vars))
        if projected.trivially_unsat():
            continue
        parts.append(system_to_assertion(projected))
    return disj(parts) if parts else FALSE


def compose_contracts(
    op: CompositionOperator,
    bindings: Sequence[tuple[str, Contract]],
    opts: EngineOptions = EngineOptions(),
) -> ComposedContract:
    """Compose child contracts through an operator's glue equations.

    Child contracts are saturated internally; binding names qualify their
    fields, and the operator's parameter namespaces are renamed to the
    binding names positionally.
    """
    if len(bindings) != len(op.parameters):
        raise ArityMismatch(
            f"operator {op.name} takes {len(op.parameters)} contracts, got {len(bindings)}"
        )
    names = [b for b, _ in bindings]
    if len(set(names)) != len(names):
        raise ArityMismatch(f"duplicate binding names in {op.name} composition")
    for (bname, contract), (pname, ptype) in zip(bindings, op.parameters):
        if not contract.subject.is_subtype_of(ptype):
            raise TypeMismatch(
                f"binding {bname}: contract {contract.name} has subject "
                f"{contract.subject.name}, operator {op.name} expects {ptype.name}"
            )

    rename: dict[str, str] = {}
    for (bname, _), (pname, ptype) in zip(bindings, op.parameters):
        if bname != pname:
            for f in ptype.fields:
                rename[f"{pname}.{f.name}"] = f"{bname}.{f.name}"
    glue_eqs = [rename_vars(eq, rename) if rename else eq for eq in op.glue]
    phi = conj(glue_eqs)

    children_sat: list[Assertion] = []
    child_assumes: list[Assertion] = []
    child_vars: list[str] = []
    for bname, contract in bindings:
        children_sat.append(qualify(Implies(contract.assumption, contract.guarantee), bname))
        child_assumes.append(qualify(contract.assumption, bname))
        child_vars.extend(f"{bname}.{f}" for f in contract.subject.field_names())

    guarantee_body = simplify_bools(conj([phi] + children_sat))
    g_proj = _try_project_exists(guarantee_body, child_vars, opts.dnf_cap)
    if g_proj is not None:
        guarantee = g_proj
        g_exact = True
    else:
        guarantee = Exists(tuple(child_vars), guarantee_body)
        g_exact = False

    conj_a = simplify_bools(conj(child_assumes))
    if isinstance(conj_a, BoolLit) and conj_a.value:
        assumption = TRUE
        a_exact = True
    else:
        assumption_body = simplify_bools(conj([phi] + children_sat + [Not(conj_a)]))
        a_proj = _try_project_exists(assumption_body, child_vars, opts.dnf_cap)
        if a_proj is not None:
            assumption = simplify_bools(Not(a_proj))
            a_exact = True
        else:
            assumption = Not(Exists(tuple(child_vars), assumption_body))
            a_exact = False

    name = f"{op.name}({', '.join(f'{c.name} as {b}' for b, c in bindings)})"
    composed = Contract(name, op.result, assumption, guarantee)
    return ComposedContract(
        contract=composed,
        operator=op,
        bindings=tuple(bindings),
        glue=phi,
        projection="exact" if g_exact and a_exact else "quantified-residue",
        guarantee_body=guarantee_body,
    )


# ---------------------------------------------------------------------------
# the three verification checks

def _check_satisfiable(formula: Assertion, opts: EngineOptions, refuted: str, shown: Assertion) -> Verdict:
    """Proved iff the formula is satisfiable; a refutation cites `shown`."""
    result = decide_satisfiability(formula, opts)
    if result.status == "sat":
        return Verdict(Status.PROVED, witness=result.witness)
    if result.status == "unsat":
        return Verdict(Status.FALSIFIED, reason=f"{refuted}: {format_expr(shown)}")
    return Verdict(Status.UNKNOWN, reason=result.reason)


def check_compatibility(
    c: Union[Contract, ComposedContract], opts: EngineOptions = EngineOptions()
) -> Verdict:
    """Proved iff the assumption is satisfiable (some environment exists)."""
    contract = _as_contract(c)
    return _check_satisfiable(
        contract.assumption, opts, "incompatible: assumption unsatisfiable", contract.assumption
    )


def check_consistency(
    c: Union[Contract, ComposedContract], opts: EngineOptions = EngineOptions()
) -> Verdict:
    """Proved iff some implementation satisfies assumption -> guarantee."""
    contract = _as_contract(c)
    return _check_satisfiable(
        Implies(contract.assumption, contract.guarantee),
        opts,
        "inconsistent: no implementation",
        contract.guarantee,
    )


def check_refinement(
    concrete: Union[Contract, ComposedContract],
    abstract: Contract,
    opts: EngineOptions = EngineOptions(),
) -> Verdict:
    """Refinement as two implications: the abstract assumption must imply
    the concrete one (environments), and the concrete saturated guarantee
    must imply the abstract one (implementations)."""
    cc = _as_contract(concrete)
    if cc.subject.name != abstract.subject.name:
        raise SubjectTypeMismatch(
            f"{cc.subject.name} vs {abstract.subject.name}"
        )
    env = check_implication(abstract.assumption, cc.assumption, opts)
    if env.is_falsified():
        return replace(env, side="environment")
    impl = check_implication(
        Implies(cc.assumption, cc.guarantee),
        Implies(abstract.assumption, abstract.guarantee),
        opts,
    )
    if impl.is_falsified():
        return replace(impl, side="implementation")
    if env.is_proved() and impl.is_proved():
        return Verdict(Status.PROVED)
    reasons = [v.reason for v in (env, impl) if v.reason]
    return Verdict(Status.UNKNOWN, reason="; ".join(reasons) or "undecided")


# ---------------------------------------------------------------------------
# finite semantics of composed contracts

def interpret_composed_finite(
    composed: ComposedContract, grid: FiniteGrid
) -> Interpretation:
    """Finite interpretation of a composed contract; quantifiers in the
    residue range over the grid by :meth:`FiniteGrid.lookup`."""
    return interpret_finite(composed.contract, grid)


# ---------------------------------------------------------------------------
# the composition characterization, checked by enumeration

def verify_min_characterization(
    composed: ComposedContract, grid: FiniteGrid, interp: Interpretation
) -> bool:
    """Validate ``interp``, the composed contract's interpretation on the
    grid, against the defining property of composition.

    (a) For every parent environment of the composed contract and every
        tuple of child implementations: each child valuation consistent
        with the assembly under the glue lies in that child's
        environments, and every parent valuation consistent with the full
        child tuple lies in the composed implementations.
    (b) Minimality: when the parent valuation space has at most 8 points,
        no strictly refinement-smaller (environments, implementations)
        pair also satisfies (a); larger spaces check only (a).
    """
    parent_vals = list(interp.grid.valuations())
    child_grids = [
        FiniteGrid.of({f: grid.lookup(f"{bname}.{f}") for f in part.subject.field_names()})
        for bname, part in composed.bindings
    ]
    total = interp.grid.point_count()
    for g in child_grids:
        total *= g.point_count()
    if total > 2**16:
        raise GridTooLarge(f"{total} assemblies exceed the 2^16 guard")
    children = [interpret_finite(part, g) for (_, part), g in zip(composed.bindings, child_grids)]

    def parents(assembly: Sequence[Valuation]) -> int:
        """Bitmask of the parent valuations the glue relates to the assembly."""
        merged = {f"{b}.{f}": x for (b, _), val in zip(composed.bindings, assembly) for f, x in val}
        mask = 0
        for i, pv in enumerate(parent_vals):
            try:
                if eval_assertion(composed.glue, {**pv, **merged}):
                    mask |= 1 << i
            except UndefinedTerm:
                pass
        return mask

    # u_mask: parents of some child implementation tuple; bad_mask: parents
    # of an assembly that puts one child outside its environments
    outside = [
        [v for v in map(freeze_valuation, g.valuations()) if v not in c.environments]
        for g, c in zip(child_grids, children)
    ]
    u_mask = bad_mask = 0
    for t in itertools.product(*(c.implementations for c in children)):
        u_mask |= parents(t)
        for k, vals in enumerate(outside):
            for v_k in vals:
                bad_mask |= parents(t[:k] + (v_k,) + t[k + 1:])

    index = {freeze_valuation(pv): i for i, pv in enumerate(parent_vals)}
    e_mask = sum(1 << index[v] for v in interp.environments)
    m_mask = sum(1 << index[v] for v in interp.implementations)

    def clause_a(e: int, m: int) -> bool:
        return not (e & bad_mask) and (e == 0 or not (u_mask & ~m))

    if not clause_a(e_mask, m_mask):
        return False

    n = len(parent_vals)
    if n <= 8:
        for e in range(1 << n):
            for m in range(1 << n):
                if (e, m) == (e_mask, m_mask):
                    continue
                # strictly refinement-smaller: at least as many environments,
                # at most as many implementations
                if (e & e_mask) != e_mask or (m & m_mask) != m:
                    continue
                if clause_a(e, m):
                    return False
    return True
