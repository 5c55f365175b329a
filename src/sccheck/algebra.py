"""The contract calculus: composition through a resolved operator's glue,
compatibility, consistency, refinement, and the desk-scale oracle for the
composition characterization.

Composition builds, over parent fields and binding-qualified child fields,

    guarantee body  =  glue  and  (A_k -> G_k for every child k)
    assumption body =  guarantee body  and  not (A_k for every child k)

and then projects the children out: the composed guarantee is the
existential projection of the guarantee body, the composed assumption the
negated existential projection of the assumption body. A projection is
exact (Fourier-Motzkin) when its body is linear. It quantifies early, as
bucket elimination does (Dechter 1999): the body's conjuncts are met one
DNF part at a time, and each child field is projected out right after the
last part that mentions it, since an existential distributes over `or`
and moves past conjuncts without its variable. Each distinct system is
projected once per stage and kept once, and at the end a system that
another's constraints subsume is dropped. Otherwise the quantified
residue is kept, downstream checks run the interval/sampling ladder on
it, and the composition's projection reads "quantified-residue".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence, Union

from .engine import (
    Constraint,
    DnfCapExceeded,
    EngineOptions,
    LinearSystem,
    NonlinearDisjunct,
    Status,
    Verdict,
    _tightest,
    check_implication,
    decide_satisfiability,
    fm_project,
    nnf,
    normalize,
    prenex_exists,
    system_to_assertion,
)
from .formatter import format_expr
from .model import (
    And,
    Assertion,
    BoolLit,
    Cmp,
    CompositionOperator,
    Contract,
    Exists,
    FiniteGrid,
    Implies,
    Interpretation,
    Not,
    Valuation,
    conj,
    conjuncts,
    disj,
    eval_assertion,
    freeze_valuation,
    interpret_finite,
    qualify,
    rename_vars,
    simplify_bools,
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


def _project_exists(body: Assertion, elim_vars: Sequence[str], cap: int) -> Assertion:
    """The existential projection of the simplified body along `elim_vars`:
    exact when it is linear, else, before any projection, the residue
    ``Exists(elim_vars, body)``. The body's own existentials, those of a
    composed child's residues, are pulled out of its NNF first, and the
    names they bound are projected out too.

    The projection is a fold over the DNF parts of that prenex matrix: its
    comparison conjuncts other than `!=`, normalized together, then each
    other top-level conjunct. Single-disjunct parts go first, then the
    branching ones, those that mention the most of `elim_vars` first, ties
    in body order. From one empty system, each stage meets every system
    kept with every disjunct of its part, projects out the fields that no
    later part mentions, drops the trivially unsat systems and keeps each
    distinct one once; each distinct meet is projected once. The cap bounds
    each part's DNF and the systems each stage keeps. When a part holds a
    nonlinear disjunct, the parts after it are not normalized and the whole
    body's DNF is the one part, so the body is a residue exactly when that
    DNF is not linear; a part's DNF that would pass the cap passes it in
    the whole body's too. Of the systems the last stage keeps, one that
    contains another's constraints is subsumed and dropped."""
    residue = Exists(tuple(elim_vars), body)
    matrix, pulled = prenex_exists(nnf(body))
    elim_vars = [*elim_vars, *pulled]
    comparisons: list[Assertion] = []
    others: list[Assertion] = []
    for part in conjuncts(matrix):
        (comparisons if isinstance(part, Cmp) and part.op != "!=" else others).append(part)
    dnfs = []
    try:
        for part in ([conj(comparisons)] if comparisons else []) + others:
            dnfs.append(normalize(part, cap))
            if any(isinstance(d, NonlinearDisjunct) for d in dnfs[-1].disjuncts):
                dnfs = [normalize(matrix, cap)]
                if any(isinstance(d, NonlinearDisjunct) for d in dnfs[0].disjuncts):
                    return residue
                break
    except DnfCapExceeded:
        return residue
    elim = set(elim_vars)
    fields = [elim.intersection(v for d in dnf.disjuncts for v in d.variables()) for dnf in dnfs]
    order = sorted(range(len(dnfs)), key=lambda i: (1, -len(fields[i])) if len(dnfs[i].disjuncts) > 1 else (0, 0))
    last = {v: stage for stage, i in enumerate(order) for v in fields[i]}
    systems: dict[frozenset[Constraint], LinearSystem] = {frozenset(): LinearSystem(())}
    for stage, i in enumerate(order):
        meets: dict[frozenset[Constraint], LinearSystem] = {}
        for s in systems.values():
            for d in dnfs[i].disjuncts:
                met = LinearSystem(_tightest(s.constraints + d.constraints))
                meets.setdefault(frozenset(met.constraints), met)
        drop = [v for v in elim_vars if last.get(v) == stage]
        systems = {}
        for met in meets.values():
            projected = fm_project(met, drop) if drop else met
            if not projected.trivially_unsat():
                systems.setdefault(frozenset(projected.constraints), projected)
        if len(systems) > cap:
            return residue
    kept = [s for key, s in systems.items() if not any(other < key for other in systems)]
    return disj([system_to_assertion(s) for s in kept])


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
        child_assumes.append(qualify(contract.assumption, bname))
        children_sat.append(Implies(child_assumes[-1], qualify(contract.guarantee, bname)))
        child_vars.extend(f"{bname}.{f}" for f in contract.subject.field_names())

    guarantee_body = simplify_bools(conj([phi] + children_sat))
    guarantee = _project_exists(guarantee_body, child_vars, opts.dnf_cap)
    projections = [guarantee]
    conj_a = simplify_bools(conj(child_assumes))
    if isinstance(conj_a, BoolLit) and conj_a.value:
        assumption = TRUE
    else:
        assumption_body = simplify_bools(And(guarantee_body, Not(conj_a)))
        projections.append(_project_exists(assumption_body, child_vars, opts.dnf_cap))
        assumption = simplify_bools(Not(projections[-1]))

    name = f"{op.name}({', '.join(f'{c.name} as {b}' for b, c in bindings)})"
    composed = Contract(name, op.result, assumption, guarantee)
    return ComposedContract(
        contract=composed,
        operator=op,
        bindings=tuple(bindings),
        glue=phi,
        projection="quantified-residue" if any(isinstance(p, Exists) for p in projections) else "exact",
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
# the composition characterization, checked against the definition

def compose_finite(composed: ComposedContract, grid: FiniteGrid) -> Interpretation:
    """The composition by definition on the grid, from the children and the
    glue alone, never from the composed formulas: environments all - broken
    and saturated implementations reached | broken. A parent point is
    broken when the glue relates it to an assembly with one child outside
    its environments and the others in their implementations, and reached
    when it relates it to a tuple of child implementations. Raises
    ``GridTooLarge`` past 2^16 assemblies."""
    parent = grid.restrict(composed.contract.subject.field_names())
    points = [(pv, freeze_valuation(pv)) for pv in parent.valuations()]
    child_grids = [
        FiniteGrid.of({f: grid.lookup(f"{bname}.{f}") for f in part.subject.field_names()})
        for bname, part in composed.bindings
    ]
    total = len(points)
    for g in child_grids:
        total *= g.point_count()
    if total > 2**16:
        raise GridTooLarge(f"{total} assemblies exceed the 2^16 guard")
    children = [interpret_finite(part, g) for (_, part), g in zip(composed.bindings, child_grids)]

    def related(assembly: Sequence[Valuation]) -> set[Valuation]:
        """The parent points the glue relates to the assembly."""
        merged = {f"{b}.{f}": x for (b, _), val in zip(composed.bindings, assembly) for f, x in val}
        return {frozen for pv, frozen in points if eval_assertion(composed.glue, {**pv, **merged})}

    impls = [c.implementations for c in children]
    reached: set[Valuation] = set()
    for t in itertools.product(*impls):
        reached |= related(t)
    broken: set[Valuation] = set()
    for k, (g, c) in enumerate(zip(child_grids, children)):
        outside = frozenset(map(freeze_valuation, g.valuations())) - c.environments
        for t in itertools.product(*impls[:k], outside, *impls[k + 1:]):
            broken |= related(t)
    every = frozenset(frozen for _, frozen in points)
    return Interpretation(parent, every - broken, frozenset(reached | broken))


def verify_min_characterization(
    composed: ComposedContract, grid: FiniteGrid, interp: Interpretation
) -> bool:
    """Whether ``interp``, the composed contract's interpretation on the
    grid, is the least contract the children guarantee through the glue.

    The defining property asks that no environment be broken and, unless
    there are no environments, that every reached point be an
    implementation. Every pair (E, M) with it has E within all - broken and
    M | ~E containing reached | broken, so :func:`compose_finite` is the
    refinement-least one at every grid size. Implementations compare in
    saturated form M | ~E."""
    least = compose_finite(composed, grid)
    every = frozenset(map(freeze_valuation, interp.grid.valuations()))
    saturated = interp.implementations | (every - interp.environments)
    return replace(interp, implementations=saturated) == least
