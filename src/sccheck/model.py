"""Immutable domain model and the finite-grid contract semantics.

Every numeric value in the model is an exact rational, a :data:`Rational`:
an ``int`` when it is whole and a :class:`fractions.Fraction` only when it
is not. The two mix exactly, and every division goes through
:func:`quotient`, so there is no floating point anywhere and "proved" never
rests on rounding. A contract pairs an assumption with a guarantee over the
fields of a component type; its meaning on a finite grid is the pair of
valuation sets (environments, implementations) computed by
:func:`interpret_finite`. That brute-force semantics is the desk-scale
oracle the symbolic machinery is validated against.

Division by zero makes a term undefined, and this module decides once
what that means: a formula that is undefined at a valuation does not hold
there, and neither does its negation. Inside a formula the connectives
follow strong Kleene semantics (a connective is undefined only when the
defined side cannot decide it), and an existential on a grid holds
exactly where some grid value makes its body true.

An existential is evaluated as a join over its body's conjuncts: those
over bound names alone filter the bound grid once per evaluation pass, and
each valuation then checks the surviving tuples against the remaining
conjuncts. The meaning is that of trying every grid tuple at every
valuation; only the work differs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import attrgetter, is_
from typing import Callable, Iterator, Mapping, Sequence, Union


Rational = int | Fraction
"""An exact value: an int when whole, a Fraction otherwise; never a float."""


def quotient(a: Rational, b: Rational) -> Rational:
    """The exact a / b for a nonzero b: the int when it is whole. Every
    division goes through here, since `/` on two ints gives a float."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def rational(value: Rational | str) -> Rational:
    """A value, or a literal such as "2/3" or "0.5", exact and normal."""
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


class ModelError(Exception):
    """Base class for semantic errors raised by the model layer."""


class GridIncomplete(ModelError):
    """A grid does not cover every variable that needs a value."""

    def __init__(self, missing: Sequence[str]):
        self.missing = tuple(sorted(missing))
        super().__init__(f"grid missing variables: {', '.join(self.missing)}")


class GridIncompatible(ModelError):
    """Two interpretations are not over the same grid."""


class UndefinedTerm(ModelError):
    """Exact evaluation hit a division by zero."""


class UnboundVariable(ModelError):
    """A variable had no value in the current valuation."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: {name}")


# ---------------------------------------------------------------------------
# source locations

@dataclass(frozen=True)
class Loc:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class _Node:
    loc: Loc | None = field(default=None, compare=False, repr=False, kw_only=True)


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class Const(_Node):
    value: Rational


@dataclass(frozen=True)
class Var(_Node):
    name: str  # possibly namespace-qualified, e.g. "c1.r"


@dataclass(frozen=True)
class Neg(_Node):
    operand: "Term"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * /
    left: "Term"
    right: "Term"


Term = Union[Const, Var, Neg, BinOp]


# ---------------------------------------------------------------------------
# assertions

@dataclass(frozen=True)
class BoolLit(_Node):
    value: bool


@dataclass(frozen=True)
class Cmp(_Node):
    op: str  # one of <= < = >= > !=
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(_Node):
    operand: "Assertion"


@dataclass(frozen=True)
class And(_Node):
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class Or(_Node):
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class Implies(_Node):
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True)
class Exists(_Node):
    names: tuple[str, ...]
    body: "Assertion"


Assertion = Union[BoolLit, Cmp, Not, And, Or, Implies, Exists]

TRUE = BoolLit(True)
FALSE = BoolLit(False)


# ---------------------------------------------------------------------------
# the node protocol

CHILD_FIELDS: dict[type[_Node], tuple[str, ...]] = {
    Const: (),
    Var: (),
    BoolLit: (),
    Neg: ("operand",),
    Not: ("operand",),
    BinOp: ("left", "right"),
    Cmp: ("left", "right"),
    And: ("left", "right"),
    Or: ("left", "right"),
    Implies: ("left", "right"),
    Exists: ("body",),
}
"""The one place that knows a node's children: each node type's child
fields, in order. Its other fields but the location are labels, and come
before the children in its constructor."""


def _getter(kids: tuple[str, ...]) -> Callable[[_Node], tuple]:
    """A function from a node to the tuple of its fields `kids`."""
    if len(kids) > 1:
        return attrgetter(*kids)
    if kids:
        one = attrgetter(*kids)
        return lambda node: (one(node),)
    return lambda node: ()


def _maker(cls: type[_Node], kids: tuple[str, ...]) -> Callable[[_Node, Sequence], _Node]:
    """A function from a node of `cls` and new children to the new node."""
    labels = [f.name for f in fields(cls) if f.name != "loc" and f.name not in kids]
    if not labels:
        return lambda node, new: cls(*new, loc=node.loc)
    (label,) = labels  # no node type has two
    get = attrgetter(label)
    return lambda node, new: cls(get(node), *new, loc=node.loc)


_CHILDREN = {cls: _getter(kids) for cls, kids in CHILD_FIELDS.items()}
_MAKERS = {cls: _maker(cls, kids) for cls, kids in CHILD_FIELDS.items()}


def children(node: _Node) -> tuple:
    """A node's children, in the order of `CHILD_FIELDS`."""
    return _CHILDREN[type(node)](node)


def rebuild(node: _Node, kids: Sequence) -> _Node:
    """The node over other children, given in the order of `children`: the
    node itself when each is the child it replaces, else a new node with
    the same labels and location."""
    if all(map(is_, kids, _CHILDREN[type(node)](node))):
        return node
    return _MAKERS[type(node)](node, kids)


def conj(parts: Sequence[Assertion]) -> Assertion:
    """Right-folded conjunction; empty list is true."""
    if not parts:
        return TRUE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def disj(parts: Sequence[Assertion]) -> Assertion:
    """Right-folded disjunction; empty list is false."""
    if not parts:
        return FALSE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def free_vars(node: Term | Assertion) -> frozenset[str]:
    """The variables of a term or formula that no quantifier binds, gathered
    without recursion except into a quantifier's body."""
    out: set[str] = set()
    todo = [node]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Var:
            out.add(node.name)
        elif kind is Exists:
            out.update(free_vars(node.body).difference(node.names))
        else:
            todo += _CHILDREN[kind](node)
    return frozenset(out)


def rename_vars(node, mapping: Mapping[str, str]):
    """Rename free variables by `mapping`. A quantifier's bound names shadow
    it, and a bound name that would capture a renamed variable is renamed
    first, to the first `name~k` neither free in the body, bound beside it
    nor a target of the mapping."""
    if type(node) is Var:
        return Var(mapping[node.name], loc=node.loc) if node.name in mapping else node
    if type(node) is not Exists:
        kids = children(node)
        return rebuild(node, [rename_vars(k, mapping) for k in kids]) if kids else node
    free = free_vars(node.body)
    inner = {k: v for k, v in mapping.items() if k in free and k not in node.names}
    targets = set(inner.values())
    taken = {*free, *targets, *node.names}
    for n in node.names:
        if n in targets:
            inner[n] = next(c for c in (f"{n}~{k}" for k in itertools.count(1)) if c not in taken)
            taken.add(inner[n])
    names = tuple(inner.get(n, n) for n in node.names)
    return Exists(names, rename_vars(node.body, inner), loc=node.loc)


def qualify(node, prefix: str):
    """Prefix every free variable with a namespace, e.g. r -> c1.r."""
    mapping = {n: f"{prefix}.{n}" for n in free_vars(node)}
    return rename_vars(node, mapping)


def simplify_bools(a: Assertion) -> Assertion:
    """Fold boolean constants through connectives and quantifiers."""
    match a:
        case BoolLit() | Cmp():
            return a
        case Not(operand=x):
            inner = simplify_bools(x)
            if isinstance(inner, BoolLit):
                return BoolLit(not inner.value)
            return Not(inner, loc=a.loc)
        case And(left=l, right=r):
            sl, sr = simplify_bools(l), simplify_bools(r)
            if isinstance(sl, BoolLit):
                return sr if sl.value else FALSE
            if isinstance(sr, BoolLit):
                return sl if sr.value else FALSE
            return And(sl, sr, loc=a.loc)
        case Or(left=l, right=r):
            sl, sr = simplify_bools(l), simplify_bools(r)
            if isinstance(sl, BoolLit):
                return TRUE if sl.value else sr
            if isinstance(sr, BoolLit):
                return TRUE if sr.value else sl
            return Or(sl, sr, loc=a.loc)
        case Implies(left=l, right=r):
            sl, sr = simplify_bools(l), simplify_bools(r)
            if isinstance(sl, BoolLit):
                return sr if sl.value else TRUE
            if isinstance(sr, BoolLit) and sr.value:
                return TRUE
            return Implies(sl, sr, loc=a.loc)
    # an existential
    sb = simplify_bools(a.body)
    if isinstance(sb, BoolLit):
        return sb
    return Exists(a.names, sb, loc=a.loc)


# ---------------------------------------------------------------------------
# exact evaluation

def eval_term(term: Term, env: Mapping[str, Rational]) -> Rational:
    match term:
        case Const(value=v):
            return v
        case Var(name=n):
            try:
                return env[n]
            except KeyError:
                raise UnboundVariable(n) from None
        case Neg(operand=t):
            return -eval_term(t, env)
    # a BinOp
    op = term.op
    a = eval_term(term.left, env)
    b = eval_term(term.right, env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise UndefinedTerm("division by zero")
    return quotient(a, b)


def compare(op: str, a: Rational, b: Rational) -> bool:
    """Whether `a op b` holds, for each of the six comparisons."""
    if op == "<=":
        return a <= b
    if op == "<":
        return a < b
    if op == "=":
        return a == b
    if op == ">=":
        return a >= b
    if op == ">":
        return a > b
    if op == "!=":
        return a != b
    raise ValueError(f"unknown comparison: {op}")


GridLookup = Callable[[str], tuple[Rational, ...]]


@dataclass
class _Joins:
    """A grid lookup and, per existential node met in one evaluation pass,
    its join: the bound-name valuations that make every conjunct over bound
    names alone true, and the body's other conjuncts."""

    lookup: GridLookup
    # keyed by identity: the formula under evaluation keeps its nodes alive
    # for the whole pass, and the pass drops this object
    built: dict[int, tuple[list[dict[str, Rational]], list[Assertion]]] = field(default_factory=dict)

    def join(self, node: Exists) -> tuple[list[dict[str, Rational]], list[Assertion]]:
        if id(node) not in self.built:
            bound = frozenset(node.names)
            own: list[Assertion] = []
            rest: list[Assertion] = []
            for c in conjuncts(node.body):
                (own if free_vars(c) <= bound else rest).append(c)
            survivors = []
            for combo in itertools.product(*(self.lookup(n) for n in node.names)):
                values = dict(zip(node.names, combo))
                if all(_eval3(c, values, self) is True for c in own):
                    survivors.append(values)
            self.built[id(node)] = survivors, rest
        return self.built[id(node)]


def conjuncts(a: Assertion) -> list[Assertion]:
    """The conjuncts of an `And` chain, left to right, in one list: the
    right operands wait on a stack while the left spine is walked, so a
    right-folded chain takes no recursion and linear time."""
    out: list[Assertion] = []
    todo = [a]
    while todo:
        node = todo.pop()
        while isinstance(node, And):
            todo.append(node.right)
            node = node.left
        out.append(node)
    return out


def _eval3(a: Assertion, env: Mapping[str, Rational], joins: _Joins | None) -> bool | None:
    """Strong-Kleene evaluation: None marks an atom with an undefined term
    (division by zero), and a connective stays undefined only when the
    defined side cannot decide it. This keeps boolean simplification,
    negation normal form, and DNF distribution meaning-preserving on
    partial terms.

    An existential is never undefined: it holds where some grid value makes
    its body true. A conjunction is true exactly when every conjunct is, so
    the conjuncts over bound names alone filter the bound grid once per
    pass (:meth:`_Joins.join`), and the existential holds iff some
    surviving tuple makes every other conjunct true: the same answer as
    trying the whole bound grid at every valuation, for less work."""
    match a:
        case BoolLit(value=v):
            return v
        case Cmp(op=op, left=l, right=r):
            try:
                return compare(op, eval_term(l, env), eval_term(r, env))
            except UndefinedTerm:
                return None
        case Not(operand=x):
            inner = _eval3(x, env, joins)
            return None if inner is None else not inner
        case And(left=l, right=r):
            lv = _eval3(l, env, joins)
            if lv is False:
                return False
            rv = _eval3(r, env, joins)
            if rv is False:
                return False
            return None if lv is None or rv is None else True
        case Or(left=l, right=r):
            lv = _eval3(l, env, joins)
            if lv is True:
                return True
            rv = _eval3(r, env, joins)
            if rv is True:
                return True
            return None if lv is None or rv is None else False
        case Implies(left=l, right=r):
            lv = _eval3(l, env, joins)
            if lv is False:
                return True
            rv = _eval3(r, env, joins)
            if rv is True:
                return True
            return None if lv is None or rv is None else False
    # an existential
    if joins is None:
        raise ModelError("quantifier in plain evaluation")
    survivors, rest = joins.join(a)
    for values in survivors:
        inner = {**env, **values}
        if all(_eval3(c, inner, joins) is True for c in rest):
            return True
    return False


def eval_assertion(
    a: Assertion,
    env: Mapping[str, Rational],
    quantifier_grids: GridLookup | _Joins | None = None,
) -> bool:
    """Exact evaluation. Quantifiers range over finite grids when a lookup
    is supplied and are an error otherwise. A formula undefined at the
    valuation (division by zero that nothing decides) does not hold. The
    joins built for the existentials last this call, unless the caller
    passes the ``_Joins`` of a longer pass."""
    if quantifier_grids is not None and not isinstance(quantifier_grids, _Joins):
        quantifier_grids = _Joins(quantifier_grids)
    return _eval3(a, env, quantifier_grids) is True


# ---------------------------------------------------------------------------
# quantities and component types

Dimension = tuple[tuple[str, int], ...]
"""Integer exponent vector over base quantities, sorted, zero-free."""

DIMENSIONLESS: Dimension = ()


def dimension(exponents: Mapping[str, int]) -> Dimension:
    return tuple(sorted((k, v) for k, v in exponents.items() if v != 0))


def dim_mul(a: Dimension, b: Dimension) -> Dimension:
    out = dict(a)
    for k, v in b:
        out[k] = out.get(k, 0) + v
    return dimension(out)


def dim_inv(a: Dimension) -> Dimension:
    return tuple((k, -v) for k, v in a)


def dim_div(a: Dimension, b: Dimension) -> Dimension:
    return dim_mul(a, dim_inv(b))


def dim_str(d: Dimension) -> str:
    if not d:
        return "1"
    return "*".join(k if v == 1 else f"{k}^{v}" for k, v in d)


@dataclass(frozen=True)
class Quantity:
    """A declared extra-functional quantity with its dimension vector and,
    for subdomain declarations, the parent it specializes."""

    name: str
    dimension: Dimension
    parent: str | None = None


@dataclass(frozen=True)
class FieldDecl:
    name: str
    quantity: str


@dataclass(frozen=True)
class ComponentType:
    name: str
    fields: tuple[FieldDecl, ...]
    supertype: "ComponentType | None" = None

    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def field_quantity(self, name: str) -> str | None:
        for f in self.fields:
            if f.name == name:
                return f.quantity
        return None

    def is_subtype_of(self, other: "ComponentType") -> bool:
        t: ComponentType | None = self
        while t is not None:
            if t is other or t.name == other.name:
                return True
            t = t.supertype
        return False


@dataclass(frozen=True)
class Contract:
    """Assume/guarantee pair over the fields of one component type."""

    name: str
    subject: ComponentType
    assumption: Assertion
    guarantee: Assertion


@dataclass(frozen=True)
class CompositionOperator:
    """A named composition operator: a type signature (parameter component
    types -> result component type) plus a term signature, the glue
    equations that say how child properties assemble into parent ones."""

    name: str
    parameters: tuple[tuple[str, ComponentType], ...]
    result: ComponentType
    glue: tuple[Assertion, ...]


# ---------------------------------------------------------------------------
# finite grids and interpretations

Valuation = tuple[tuple[str, Rational], ...]
"""A valuation frozen as a name-sorted tuple of (variable, value) pairs."""


def freeze_valuation(env: Mapping[str, Rational]) -> Valuation:
    return tuple(sorted(env.items()))


@dataclass(frozen=True)
class FiniteGrid:
    """Per variable, a finite ordered set of exact rationals."""

    entries: tuple[tuple[str, tuple[Rational, ...]], ...]

    @staticmethod
    def of(values: Mapping[str, Sequence[Rational | str]]) -> "FiniteGrid":
        entries = []
        for name in sorted(values):
            vals = tuple(rational(x) for x in values[name])
            if not vals:
                raise ValueError(f"empty grid for variable {name}")
            if len(set(vals)) != len(vals):
                raise ValueError(f"duplicate grid values for variable {name}")
            entries.append((name, vals))
        return FiniteGrid(tuple(entries))

    def values_for(self, var: str) -> tuple[Rational, ...] | None:
        for name, vals in self.entries:
            if name == var:
                return vals
        return None

    def lookup(self, name: str) -> tuple[Rational, ...]:
        """Values for a variable: its own entry, else that of the name
        without the `~k` suffix a renamed binder carries, else that of its
        base field, the last dotted component: "r" for "c1.r" or "c1.r~1"."""
        unrenamed = name.split("~", 1)[0]
        field = unrenamed.rsplit(".", 1)[-1]
        vals = self.values_for(name)
        if vals is None and unrenamed != name:
            vals = self.values_for(unrenamed)
        if vals is None and field != unrenamed:
            vals = self.values_for(field)
        if vals is None:
            raise GridIncomplete([name])
        return vals

    def restrict(self, variables: Sequence[str]) -> "FiniteGrid":
        missing = [v for v in variables if self.values_for(v) is None]
        if missing:
            raise GridIncomplete(missing)
        wanted = set(variables)
        return FiniteGrid(tuple(e for e in self.entries if e[0] in wanted))

    def valuations(self) -> Iterator[dict[str, Rational]]:
        names = [name for name, _ in self.entries]
        for combo in itertools.product(*(vals for _, vals in self.entries)):
            yield dict(zip(names, combo))

    def point_count(self) -> int:
        n = 1
        for _, vals in self.entries:
            n *= len(vals)
        return n


@dataclass(frozen=True)
class Interpretation:
    """A contract's meaning on a grid: compatible environments and
    consistent implementations."""

    grid: FiniteGrid
    environments: frozenset[Valuation]
    implementations: frozenset[Valuation]


# ---------------------------------------------------------------------------
# contract operations

def saturate(c: Contract) -> Contract:
    """Normal form that replaces the guarantee G by A -> G.

    The assumption is unchanged, and the interpretation is unchanged too,
    because implementations are defined through A -> G already.
    """
    return Contract(c.name, c.subject, c.assumption, Implies(c.assumption, c.guarantee))


def satisfying_valuations(
    formula: Assertion, grid: FiniteGrid, quantifier_grids: GridLookup | None = None
) -> frozenset[Valuation]:
    """The valuations of the grid that satisfy the formula.

    Quantifiers range over ``quantifier_grids``. A valuation at which the
    formula is undefined does not satisfy it, as :func:`eval_assertion`
    decides.
    """
    joins = None if quantifier_grids is None else _Joins(quantifier_grids)
    return frozenset(
        freeze_valuation(env) for env in grid.valuations() if eval_assertion(formula, env, joins)
    )


def interpret_finite(c: Contract, grid: FiniteGrid) -> Interpretation:
    """Brute-force interpretation of a contract over a finite grid.

    Environments are the valuations of the subject's fields satisfying the
    assumption; implementations those satisfying assumption -> guarantee.
    Quantifiers, as in a composed contract's residue, range over the whole
    grid through :meth:`FiniteGrid.lookup`.
    """
    sub = grid.restrict(c.subject.field_names())
    return Interpretation(
        sub,
        satisfying_valuations(c.assumption, sub, grid.lookup),
        satisfying_valuations(Implies(c.assumption, c.guarantee), sub, grid.lookup),
    )


def refines_finite(concrete: Interpretation, abstract: Interpretation) -> bool:
    """Refinement on interpretations: the concrete contract accepts at least
    the abstract environments and offers at most its implementations."""
    if concrete.grid != abstract.grid:
        raise GridIncompatible("interpretations are over different grids")
    return (
        abstract.environments <= concrete.environments
        and concrete.implementations <= abstract.implementations
    )
