"""Symbolic and numeric reasoning over assertions.

The decision ladder, in order:

1. linear formulas are decided exactly by Fourier-Motzkin elimination on
   the DNF, each distinct linear system once. A witness is rebuilt by
   back-substitution through the systems projection kept, each variable
   picked between the bounds of the system it was eliminated from;
   completed with zeros, it is a model of the formula. A variable bound by
   an equation is eliminated through it. Distribution meets the conjuncts
   that do not branch first, carries a box for each partial conjunction
   and drops the ones interval contraction refutes, and every linear
   system keeps only the tightest bound per coefficient vector;
2. otherwise exact-rational interval contraction tries to prove each
   nonlinear disjunct empty from the bounds its own atoms imply. It is a
   worklist: it resumes from the box distribution carried for the disjunct
   and revises only the atoms not yet revised against it, requeueing an
   atom when a variable it watches narrows, within a budget of revisions
   per atom. A disjunct with nothing pending costs no interval work;
3. otherwise deterministic seeded sampling tries to find a satisfying
   valuation, evaluated exactly. It draws in the box contraction left for
   the disjunct, and never proves or refutes;
4. otherwise the verdict is an honest Unknown.

`decide_satisfiability` normalizes each query once, to a prenex negation
normal form whose existentials become extra free variables, and every rung
reads that quantifier-free matrix. A residue that would need universal
reasoning yields Unknown rather than a guess.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence, Union

from .model import (
    And,
    Assertion,
    BinOp,
    BoolLit,
    Cmp,
    Const,
    Exists,
    FiniteGrid,
    Implies,
    Neg,
    Not,
    Or,
    Rational,
    Term,
    UndefinedTerm,
    Valuation,
    Var,
    children,
    compare,
    conj,
    conjuncts,
    disj,
    eval_assertion,
    eval_term,
    free_vars,
    quotient,
    rebuild,
    rename_vars,
    satisfying_valuations,
    simplify_bools,
)

DEFAULT_DNF_CAP = 4096
DEFAULT_SAMPLES = 10000
DEFAULT_BOX_BOUND = 10**6


class EngineError(Exception):
    pass


class DnfCapExceeded(EngineError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"DNF exceeded {cap} disjuncts")


class UndecidableQuantifier(EngineError):
    """The formula needs universal reasoning the ladder does not attempt."""


# ---------------------------------------------------------------------------
# verdicts

class Status(str, Enum):
    PROVED = "proved"
    FALSIFIED = "falsified"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: Optional[Mapping[str, Rational]] = None
    reason: Optional[str] = None
    side: Optional[str] = None

    def is_proved(self) -> bool:
        return self.status is Status.PROVED

    def is_falsified(self) -> bool:
        return self.status is Status.FALSIFIED


@dataclass(frozen=True)
class SatResult:
    """Outcome of a satisfiability query: sat with witness, unsat, or unknown."""

    status: str  # "sat" | "unsat" | "unknown"
    witness: Optional[dict[str, Rational]] = None
    reason: Optional[str] = None


# ---------------------------------------------------------------------------
# intervals (every end exact, an int or a Fraction, or None = unbounded)

@dataclass(frozen=True)
class Interval:
    lo: Rational | None
    hi: Rational | None

    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def contains(self, x: Rational) -> bool:
        if self.lo is not None and x < self.lo:
            return False
        if self.hi is not None and x > self.hi:
            return False
        return True


FULL_INTERVAL = Interval(None, None)

Box = Mapping[str, Interval]


def _iv_add(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(lo, hi)


def _iv_neg(a: Interval) -> Interval:
    return Interval(None if a.hi is None else -a.hi, None if a.lo is None else -a.lo)


def _iv_mul(a: Interval, b: Interval) -> Interval:
    """Product. Each of the four end products is ranked as finite, with
    0 * unbounded = 0, or unbounded with the sign of its factors (an
    unbounded end has the sign of its side); finite ends stay exact."""
    finite: list[Rational] = []
    unbounded: set[bool] = set()  # True: unbounded above
    for x, x_up in ((a.lo, False), (a.hi, True)):
        for y, y_up in ((b.lo, False), (b.hi, True)):
            if x is not None and y is not None:
                finite.append(x * y)
            elif x == 0 or y == 0:
                finite.append(0)
            else:
                unbounded.add((x_up if x is None else x > 0) == (y_up if y is None else y > 0))
    return Interval(None if False in unbounded else min(finite), None if True in unbounded else max(finite))


def _iv_inv(a: Interval) -> Interval:
    """Reciprocal; unbounded for a denominator range through zero."""
    if a.contains(0):
        return FULL_INTERVAL
    # one sign throughout, where 1/x decreases and an unbounded end maps to 0
    return Interval(0 if a.hi is None else quotient(1, a.hi), 0 if a.lo is None else quotient(1, a.lo))


def interval_eval(term: Term, box: Box) -> Interval:
    """Sound enclosure of a term's exact values over a box, at the points
    where the term is defined. An undefined point satisfies no atom, so
    the enclosure need not cover it."""
    match term:
        case Const(value=v):
            return Interval(v, v)
        case Var(name=n):
            return box.get(n, FULL_INTERVAL)
        case Neg(operand=t):
            return _iv_neg(interval_eval(t, box))
    # a BinOp
    op, l, r = term.op, term.left, term.right
    la = interval_eval(l, box)
    rb = interval_eval(r, box)
    if op == "+":
        return _iv_add(la, rb)
    if op == "-":
        return _iv_add(la, _iv_neg(rb))
    if op == "*":
        product = _iv_mul(la, rb)
        if l == r and la.contains(0):
            # a square is never negative
            return Interval(0, product.hi)
        return product
    inv = _iv_inv(rb)
    if inv == FULL_INTERVAL:
        return inv  # sound too where la is [0, 0], and skips the product
    return _iv_mul(la, inv)


def _intersect(a: Interval, b: Interval) -> Interval:
    lo = b.lo if a.lo is None else (a.lo if b.lo is None else max(a.lo, b.lo))
    hi = b.hi if a.hi is None else (a.hi if b.hi is None else min(a.hi, b.hi))
    return Interval(lo, hi)


def _meet(a: Box, b: Box, narrowed: Optional[list[str]] = None) -> Optional[dict[str, Interval]]:
    """The intersection of two boxes, or None when it is empty. Appends to
    `narrowed`, when given, each variable whose interval in `a` shrank."""
    out = dict(a)
    for name, iv in b.items():
        old = out.get(name, FULL_INTERVAL)
        new = _intersect(old, iv)
        if new.is_empty():
            return None
        if narrowed is not None and new != old:
            narrowed.append(name)
        out[name] = new
    return out


Watches = dict[int, tuple[Cmp, frozenset[str]]]


def _watched(atom: Cmp, watches: Watches) -> frozenset[str]:
    """The variables whose narrowing may let a revised atom narrow or refute
    again, gathered once per `watches` dict, whose entries keep their atoms
    alive so that no id is reused while it lives. They are the atom's
    variables, except that a non-strict comparison of a bare variable with
    a constant term watches none: once revised, it holds in every nonempty
    box inside the box it was revised against, and revision never empties
    a box."""
    entry = watches.get(id(atom))
    if entry is None:
        sides = (atom.left, atom.right)
        names = free_vars(atom)
        if atom.op not in ("<", ">") and any(
            isinstance(side, Var) and not free_vars(other) for side, other in (sides, sides[::-1])
        ):
            names = frozenset()
        entry = watches[id(atom)] = (atom, names)
    return entry[1]


_SWAPPED_CMP = {">=": "<=", ">": "<"}
_REVISE_ROUNDS = 8


def _revise(
    atoms: Sequence[Cmp],
    box: dict[str, Interval],
    queue: Optional[Sequence[int]] = None,
    watches: Optional[Watches] = None,
) -> bool:
    """Narrow `box` in place to the bounds a conjunction of atoms implies
    within it; False when the atoms cannot all hold in the box.

    A worklist of atom indices, first in first out, starts from `queue`, or
    from every atom. Revising an atom evaluates both of its sides once,
    refutes when their enclosures' ends rule it out, and intersects each
    bare-variable side with the other side's enclosure. Each variable that
    narrows requeues every atom that watches it and is not queued; the atom
    itself only when the variable is on its other side too, since
    otherwise a second revision would narrow nothing. The atoms left out of
    `queue` must hold in the box, as revised against it; each narrowing is
    monotone, so an emptied worklist leaves the box that revising every
    atom until none narrows leaves. A budget of `_REVISE_ROUNDS` revisions
    per atom bounds the work: once it is spent, the atoms still queued are
    checked against the box and narrow nothing, and no later call resumes
    them, so the box holds every model but may be wider than the fixpoint.
    `watches` caches what each atom watches, by `_watched`.
    """
    todo = list(range(len(atoms)) if queue is None else queue)
    queued = set(todo)
    budget = _REVISE_ROUNDS * len(atoms)
    watchers: Optional[dict[str, list[int]]] = None  # variable -> the atoms that watch it
    for index in todo:  # first in first out: the loop reaches what is appended
        queued.remove(index)
        atom = atoms[index]
        left, op, right = atom.left, atom.op, atom.right
        if op in _SWAPPED_CMP:
            left, op, right = right, _SWAPPED_CMP[op], left
        lv, rv = interval_eval(left, box), interval_eval(right, box)
        # op is now <=, < or =: the left side stays under the right
        # side's upper end, and the right side over the left side's lower end
        lo, hi = lv.lo, rv.hi
        if lo is not None and hi is not None and (lo >= hi if op == "<" else lo > hi):
            return False
        if op == "=" and rv.lo is not None and lv.hi is not None and rv.lo > lv.hi:
            return False
        if not budget:
            continue
        budget -= 1
        for side, other, cur, other_lo, other_hi in ((left, right, lv, rv.lo if op == "=" else None, rv.hi),
                                                     (right, left, rv, lv.lo, lv.hi if op == "=" else None)):
            if isinstance(side, Var) and (new := _intersect(cur, Interval(other_lo, other_hi))) != cur:
                box[side.name] = new
                if watchers is None:
                    watchers = {}
                    watches = {} if watches is None else watches
                    for i, a in enumerate(atoms):
                        for name in _watched(a, watches):
                            watchers.setdefault(name, []).append(i)
                for i in watchers.get(side.name, ()):
                    if i not in queued and (i != index or side.name in free_vars(other)):
                        queued.add(i)
                        todo.append(i)
    return True


# ---------------------------------------------------------------------------
# negation normal form and DNF

_NEGATED_CMP = {"<=": ">", "<": ">=", "=": "!=", ">=": "<", ">": "<=", "!=": "="}


def nnf(a: Assertion, negate: bool = False) -> Assertion:
    """Negation normal form: no Not and no Implies remain. A negated
    existential would need universal reasoning, which the ladder does not
    attempt, so it raises UndecidableQuantifier."""
    match a:
        case BoolLit(value=v):
            return BoolLit(v != negate)
        case Cmp(op=op, left=l, right=r):
            return Cmp(_NEGATED_CMP[op], l, r) if negate else a
        case Not(operand=x):
            return nnf(x, not negate)
        case And(left=l, right=r):
            if negate:
                return Or(nnf(l, True), nnf(r, True))
            return And(nnf(l), nnf(r))
        case Or(left=l, right=r):
            if negate:
                return And(nnf(l, True), nnf(r, True))
            return Or(nnf(l), nnf(r))
        case Implies(left=l, right=r):
            if negate:
                return And(nnf(l), nnf(r, True))
            return Or(nnf(l, True), nnf(r))
    # an existential
    if negate:
        raise UndecidableQuantifier("universal quantifier in residue")
    return Exists(a.names, nnf(a.body))


def prenex_exists(a: Assertion) -> tuple[Assertion, list[str]]:
    """The matrix of an NNF formula with its existential quantifiers pulled
    out, and the names they bound, in the order met: each is free in the
    matrix.

    A bound name that would collide with a name already in scope (the
    formula's free variables, gathered at the first existential) is renamed,
    each fresh name joining the names in scope before the next is chosen.
    """
    used: set[str] = set()
    pulled: list[str] = []
    counter = itertools.count(1)

    def fresh(name: str) -> str:
        while True:
            candidate = f"{name}~{next(counter)}"
            if candidate not in used:
                return candidate

    def walk(node: Assertion) -> Assertion:
        if isinstance(node, Cmp):
            return node  # an atom holds no quantifier
        if not isinstance(node, Exists):
            return rebuild(node, [walk(k) for k in children(node)])
        if not used:
            used.update(free_vars(a))
        mapping = {}
        for n in node.names:
            if n in used:
                mapping[n] = fresh(n)
            used.add(mapping.get(n, n))
            pulled.append(mapping.get(n, n))
        return walk(rename_vars(node.body, mapping) if mapping else node.body)

    return walk(a), pulled


# ---------------------------------------------------------------------------
# linear systems

@dataclass(frozen=True)
class Constraint:
    """sum(coeff_i * var_i) (< | <=) bound, coefficients sorted and nonzero.
    An empty coefficient tuple is a ground sentinel."""

    coeffs: tuple[tuple[str, Rational], ...]
    bound: Rational
    strict: bool

    def is_ground(self) -> bool:
        return not self.coeffs

    def ground_truth(self) -> bool:
        return (0 < self.bound) if self.strict else (0 <= self.bound)

    def coeff(self, var: str) -> Rational:
        for name, c in self.coeffs:
            if name == var:
                return c
        return 0


@dataclass(frozen=True)
class LinearSystem:
    constraints: tuple[Constraint, ...]

    def variables(self) -> tuple[str, ...]:
        seen = set()
        for c in self.constraints:
            for name, _ in c.coeffs:
                seen.add(name)
        return tuple(sorted(seen))

    def trivially_unsat(self) -> bool:
        return any(c.is_ground() and not c.ground_truth() for c in self.constraints)


@dataclass(frozen=True)
class NonlinearDisjunct:
    """A conjunction that contains at least one nonlinear atom; kept in its
    original atom form for the interval/sampling paths, with the box
    distribution narrowed it to and the indices of the atoms not yet
    revised against that box, None for all of them (neither is part of its
    identity)."""

    atoms: tuple[Cmp, ...]
    box: Box = field(default_factory=dict, compare=False, repr=False)
    pending: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)


Disjunct = Union[LinearSystem, NonlinearDisjunct]


@dataclass(frozen=True)
class Dnf:
    disjuncts: tuple[Disjunct, ...]


def _mk_constraint(coeffs: Mapping[str, Rational], bound: Rational, strict: bool) -> Constraint:
    return Constraint(tuple(sorted((k, v) for k, v in coeffs.items() if v != 0)), bound, strict)


def linearize_term(term: Term) -> Optional[tuple[dict[str, Rational], Rational]]:
    """Decompose a term as (coefficients, constant) when it is linear."""
    match term:
        case Const(value=v):
            return {}, v
        case Var(name=n):
            return {n: 1}, 0
        case Neg(operand=t):
            lin = linearize_term(t)
            if lin is None:
                return None
            coeffs, const = lin
            return {k: -v for k, v in coeffs.items()}, -const
    # a BinOp
    op = term.op
    ll = linearize_term(term.left)
    rr = linearize_term(term.right)
    if ll is None or rr is None:
        return None
    (lc, lk), (rc, rk) = ll, rr
    if op == "+":
        out = dict(lc)
        for k, v in rc.items():
            out[k] = out.get(k, 0) + v
        return out, lk + rk
    if op == "-":
        out = dict(lc)
        for k, v in rc.items():
            out[k] = out.get(k, 0) - v
        return out, lk - rk
    if op == "*":
        if not lc:
            return {k: lk * v for k, v in rc.items()}, lk * rk
        if not rc:
            return {k: rk * v for k, v in lc.items()}, rk * lk
        return None  # product of variables
    if rc or rk == 0:
        return None  # variable or zero denominator
    return {k: quotient(v, rk) for k, v in lc.items()}, quotient(lk, rk)


def _linearize_atom(atom: Cmp) -> Optional[list[Constraint] | bool]:
    """Turn a comparison into <=/< constraints over left - right.

    Returns a constraint list, True/False for ground atoms, or None when
    the atom is nonlinear. `!=` never reaches here (split during DNF).
    """
    left, right = linearize_term(atom.left), linearize_term(atom.right)
    if left is None or right is None:
        return None
    (coeffs, lk), (rc, rk) = left, right  # left - right = coeffs . vars + lk - rk
    for k, v in rc.items():
        coeffs[k] = coeffs.get(k, 0) - v
    if not any(coeffs.values()):
        return compare(atom.op, lk, rk)
    if atom.op in (">=", ">"):
        return [_mk_constraint({k: -v for k, v in coeffs.items()}, lk - rk, atom.op == ">")]
    constraint = _mk_constraint(coeffs, rk - lk, atom.op == "<")
    if atom.op != "=":
        return [constraint]
    # equality: the <= pair
    return [constraint, _mk_constraint({k: -v for k, v in coeffs.items()}, lk - rk, False)]


# a partial conjunction: its atoms, a box holding all of its models, the
# index of its first atom never revised against the box, and the variables
# a meet has narrowed since the atoms before that index were revised
Product = tuple[list[Cmp], dict[str, Interval], int, tuple[str, ...]]


def _pending(atoms: Sequence[Cmp], start: int, narrowed: Sequence[str], watches: Watches) -> list[int]:
    """The indices of a product's atoms not yet revised against its box:
    the earlier atoms that watch a narrowed variable, then those from
    `start` on."""
    changed = set(narrowed)
    early = [i for i in range(start) if not changed.isdisjoint(_watched(atoms[i], watches))] if changed else []
    return early + list(range(start, len(atoms)))


def _dnf_atom_lists(a: Assertion, cap: int, watches: Optional[Watches] = None) -> list[Product]:
    """Distribute an NNF, quantifier-free formula into conjunctions of
    atoms, each with a box that holds all of its models and what of it is
    not yet revised against that box.

    A conjunction first meets each conjunct whose DNF is one product, in
    order, so a product's atoms start with theirs. When some conjunct
    branches, those unit atoms are revised once before the first split, as
    unit propagation does (Davis, Logemann & Loveland 1962), and a
    refutation there leaves no product. The conjuncts that branch follow
    left to right, and the products come in lexicographic order over them.
    Each product starts from the meet of its parts' boxes, and an empty
    meet drops it. After each conjunct that branches, every product is
    revised from that meet, starting from its pending atoms: the new
    conjunct's atoms, and the earlier ones that watch a variable some meet
    narrowed since they were last revised. The ones refuted are dropped:
    they are empty, and so is every extension of them. The cap bounds each
    product about to be built. `watches` caches what each atom watches, by
    `_watched`.
    """
    watches = {} if watches is None else watches
    match a:
        case BoolLit(value=v):
            return [([], {}, 0, ())] if v else []
        case Cmp(op=op):
            if op == "!=":
                return [([Cmp("<", a.left, a.right)], {}, 0, ()), ([Cmp(">", a.left, a.right)], {}, 0, ())]
            return [([a], {}, 0, ())]
        case Or(left=l, right=r):
            out = _dnf_atom_lists(l, cap, watches) + _dnf_atom_lists(r, cap, watches)
            if len(out) > cap:
                raise DnfCapExceeded(cap)
            return out
        case And():
            units: list[list[Product]] = []  # the conjuncts of one product or none, met first
            branching: list[list[Product]] = []
            for part in conjuncts(a):
                lists = _dnf_atom_lists(part, cap, watches)
                (branching if len(lists) > 1 else units).append(lists)
            out = [([], {}, 0, ())]
            for k, lists in enumerate(units + branching):
                if k == len(units) and k and out:
                    # unit propagation: the units met are revised once, before the first split
                    atoms, box, _, _ = out[0]
                    if not _revise(atoms, box, None, watches):
                        return []
                    out = [(atoms, box, len(atoms), ())]
                if len(out) * len(lists) > cap:
                    raise DnfCapExceeded(cap)
                extended: list[Product] = []
                for la, lbox, start, narrowed in out:
                    for ra, rbox, _, _ in lists:
                        moved: list[str] = []
                        box = _meet(lbox, rbox, moved)
                        if box is None:
                            continue
                        atoms, stale = la + ra, narrowed + tuple(moved)
                        if len(lists) == 1:
                            extended.append((atoms, box, start, stale))
                        elif _revise(atoms, box, _pending(atoms, start, stale, watches), watches):
                            extended.append((atoms, box, len(atoms), ()))
                out = extended
            return out
    raise TypeError(f"unexpected node in NNF matrix: {a!r}")


def _tightest(constraints: Sequence[Constraint]) -> tuple[Constraint, ...]:
    """One constraint per coefficient vector, at its first position: the
    least bound, strict on ties. The conjunction is unchanged."""
    best: dict[tuple[tuple[str, Rational], ...], Constraint] = {}
    for c in constraints:
        old = best.get(c.coeffs)
        if old is None or c.bound < old.bound or (c.bound == old.bound and c.strict):
            best[c.coeffs] = c
    return tuple(best.values())


def _build_disjunct(
    product: Product, linear: Mapping[int, Optional[list[Constraint] | bool]], watches: Watches
) -> Optional[Disjunct]:
    """Classify a product's conjunction of atoms, each linearized in
    `linear` by its id; None means it is ground-false."""
    atoms, box, start, narrowed = product
    constraints: list[Constraint] = []
    nonlinear = False
    for atom in atoms:
        lin = linear[id(atom)]
        if lin is None:
            nonlinear = True
        elif lin is True:
            continue
        elif lin is False:
            return None
        else:
            constraints.extend(lin)
    if nonlinear:
        return NonlinearDisjunct(tuple(atoms), box, tuple(_pending(atoms, start, narrowed, watches)))
    return LinearSystem(_tightest(constraints))


def normalize(matrix: Assertion, cap: int = DEFAULT_DNF_CAP) -> Dnf:
    """DNF, with a disjunct cap, of the NNF quantifier-free formula given.

    A conjunction meets its conjuncts of one disjunct first and contracts
    their box once, then distributes over the others left to right, each
    partial conjunction with a box narrowed from its parts' boxes. A
    partial conjunction that interval contraction refutes is dropped before
    it is extended, so the cap counts only the conjunctions kept. The order
    of the disjuncts is the order of the conjuncts that branch. `!=` splits
    into two strict disjuncts and linear equations become <= pairs; a
    linear disjunct keeps the tightest bound per coefficient vector, and a
    disjunct containing a nonlinear atom is kept as a NonlinearDisjunct
    carrying its original atoms, its box and the atoms still pending
    against that box, for the interval rung to resume from. Each distinct linear system, by constraint set, is kept
    once, at its first position; nonlinear disjuncts are kept as they come.
    Each distinct atom object is linearized once, however many disjuncts
    hold it, and its variables are gathered at most once in this call.
    """
    watches: Watches = {}
    products = _dnf_atom_lists(matrix, cap, watches)
    distinct = {id(atom): atom for atoms, *_ in products for atom in atoms}
    linear = {key: _linearize_atom(atom) for key, atom in distinct.items()}
    disjuncts: list[Disjunct] = []
    systems: dict[frozenset[Constraint], LinearSystem] = {}
    for product in products:
        d = _build_disjunct(product, linear, watches)
        if isinstance(d, LinearSystem) and systems.setdefault(frozenset(d.constraints), d) is not d:
            continue  # a repeat
        if d is not None:
            disjuncts.append(d)
    return Dnf(tuple(disjuncts))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

def _combine(lower: Constraint, upper: Constraint, var: str) -> Constraint:
    """Pair a lower and an upper bound on `var`; the result drops `var` and
    is strict when either side was strict."""
    a_up = upper.coeff(var)   # > 0
    a_lo = -lower.coeff(var)  # > 0
    coeffs: dict[str, Rational] = {}
    for name, v in upper.coeffs:
        if name != var:
            coeffs[name] = coeffs.get(name, 0) + a_lo * v
    for name, v in lower.coeffs:
        if name != var:
            coeffs[name] = coeffs.get(name, 0) + a_up * v
    bound = a_lo * upper.bound + a_up * lower.bound
    return _mk_constraint(coeffs, bound, lower.strict or upper.strict)


def _equation(
    lowers: Sequence[Constraint], uppers: Sequence[Constraint], var: str
) -> Optional[tuple[Constraint, Constraint]]:
    """The canonical equation among the bounds on `var`, as its (lower,
    upper) pair: a non-strict upper bound whose exact negation is a lower
    bound. A unit coefficient on `var` comes first, then the fewest
    variables, then the least coefficient tuple and bound; None when there
    is no equation."""
    by_bound: dict[Rational, list[Constraint]] = {}  # the non-strict lower bounds, by their negated bound
    for c in lowers:
        if not c.strict:
            by_bound.setdefault(-c.bound, []).append(c)
    equations: list[tuple[Constraint, Constraint]] = []
    for up in uppers:
        if not up.strict and up.bound in by_bound:
            negation = tuple((n, -k) for n, k in up.coeffs)
            equations += [(lo, up) for lo in by_bound[up.bound] if lo.coeffs == negation]
    return min(
        equations,
        key=lambda eq: (abs(eq[1].coeff(var)) != 1, len(eq[1].coeffs), eq[1].coeffs, eq[1].bound),
        default=None,
    )


def _refutation(constraints: Sequence[Constraint]) -> Optional[Constraint]:
    """A ground-false constraint when two of the constraints bound one
    coefficient direction, up to a positive factor, from opposite sides with
    no room between them: their sum, scaled so that the coefficients
    cancel. None when no two do. Two such constraints share a leading
    variable and a length, and their leading coefficients have opposite
    signs."""
    sides: dict[tuple[str, int], tuple[list[Constraint], list[Constraint]]] = {}
    for c in constraints:
        if c.coeffs:
            sides.setdefault((c.coeffs[0][0], len(c.coeffs)), ([], []))[c.coeffs[0][1] > 0].append(c)
    for below, above in sides.values():  # leading coefficient negative, positive
        for lo in below:
            s = -lo.coeffs[0][1]
            for up in above:
                t = up.coeffs[0][1]
                # t * lo + s * up has no coefficients left
                if all(n == m and k * t == -j * s for (n, k), (m, j) in zip(lo.coeffs, up.coeffs)):
                    ground = Constraint((), t * lo.bound + s * up.bound, lo.strict or up.strict)
                    if not ground.ground_truth():
                        return ground
    return None


def fm_eliminate(system: LinearSystem, var: str) -> LinearSystem:
    """Project a <=/< system along one variable, exactly.

    The solution set of the result over the remaining variables is the
    projection of the input's rational solution set. Each lower bound on
    `var` is paired with each upper bound. When there are at least two of
    each and two of them make an equation, every other bound is paired
    with the equation only, as the Omega test does (Pugh 1992): each pair
    left out is a positive combination of two pairs kept. `_equation`
    picks the equation canonically, so that equal constraint sets project
    alike. A pair left out that would have been ground-false leaves two
    results that bound one direction from opposite sides with no room
    between; a result through an equation in which `_refutation` finds two
    such constraints gains the ground-false constraint, so it is trivially
    unsat whenever pairing all bounds would have made it so.
    """
    out: list[Constraint] = []  # the constraints without var, then the pairs
    lowers: list[Constraint] = []  # coeff < 0: a lower bound on var
    uppers: list[Constraint] = []  # coeff > 0: an upper bound on var
    for c in system.constraints:
        k = c.coeff(var)
        if k == 0:
            out.append(c)
        elif k > 0:
            uppers.append(c)
        else:
            lowers.append(c)
    equation = _equation(lowers, uppers, var) if len(lowers) > 1 and len(uppers) > 1 else None
    if equation is None:
        pairs: Iterable[tuple[Constraint, Constraint]] = itertools.product(lowers, uppers)
    else:
        lo_eq, up_eq = equation
        pairs = [(lo, up_eq) for lo in lowers if lo is not lo_eq] + [(lo_eq, up) for up in uppers if up is not up_eq]
    for lo, up in pairs:
        combined = _combine(lo, up, var)
        if not (combined.is_ground() and combined.ground_truth()):
            out.append(combined)
    result = _tightest(out)
    if equation is not None and (ground := _refutation(result)) is not None:
        result += (ground,)
    return LinearSystem(result)


def _pairings(system: LinearSystem) -> dict[str, int]:
    """For each variable of the system, lower bounds times upper bounds: the
    constraints eliminating it pairs up. One pass over the constraints."""
    counts: dict[str, list[int]] = {}
    for c in system.constraints:
        for name, k in c.coeffs:
            counts.setdefault(name, [0, 0])[k > 0] += 1
    return {name: lowers * uppers for name, (lowers, uppers) in counts.items()}


def fm_project(
    system: LinearSystem, variables: Sequence[str], steps: Optional[list[tuple[str, LinearSystem]]] = None
) -> LinearSystem:
    """Eliminate several variables, each time the one with the fewest
    lower*upper pairings, ties by name; a variable that has dropped out of
    the system is skipped. Stops early at a ground contradiction. Each
    eliminated variable is appended to `steps`, when given, with the system
    it was eliminated from."""
    current = system
    remaining = list(variables)
    while not current.trivially_unsat():
        pairings = _pairings(current)
        remaining = [v for v in remaining if v in pairings]
        if not remaining:
            break
        var = min(remaining, key=lambda v: (pairings[v], v))
        if steps is not None:
            steps.append((var, current))
        current = fm_eliminate(current, var)
        remaining.remove(var)
    return current


def _bound_value(c: Constraint, var: str, assignment: Mapping[str, Rational]) -> Rational:
    """Value of the bound that constraint `c` puts on `var` at `assignment`."""
    k = c.coeff(var)
    rest = c.bound
    for name, v in c.coeffs:
        if name != var:
            rest -= v * assignment[name]
    return quotient(rest, k)


def _pick_between(
    lo: Rational | None, lo_strict: bool, hi: Rational | None, hi_strict: bool
) -> Rational:
    if lo is None and hi is None:
        return 0
    if lo is None:
        return hi - 1 if hi_strict else hi  # type: ignore[operator]
    if hi is None:
        return lo + 1 if lo_strict else lo
    if lo == hi:
        if lo_strict or hi_strict:
            raise EngineError("empty bounds during back-substitution")
        return lo
    if lo > hi:
        raise EngineError("inverted bounds during back-substitution")
    return quotient(lo + hi, 2)


def fm_witness(system: LinearSystem) -> Optional[dict[str, Rational]]:
    """Satisfiability with a model: `fm_project` eliminates every variable,
    then back-substitution, last eliminated first, picks each variable
    between the bounds that the system it was eliminated from puts on it.
    A variable that drops out of the system before its turn takes 0."""
    variables = system.variables()
    steps: list[tuple[str, LinearSystem]] = []
    if fm_project(system, variables, steps).trivially_unsat():
        return None
    assignment: dict[str, Rational] = dict.fromkeys(variables, 0)
    for var, source in reversed(steps):
        lo: Rational | None = None
        hi: Rational | None = None
        lo_strict = hi_strict = False
        for c in source.constraints:
            k = c.coeff(var)
            if k == 0:
                continue
            val = _bound_value(c, var, assignment)
            if k < 0 and (lo is None or val >= lo):
                lo, lo_strict = val, c.strict or (val == lo and lo_strict)
            elif k > 0 and (hi is None or val <= hi):
                hi, hi_strict = val, c.strict or (val == hi and hi_strict)
        assignment[var] = _pick_between(lo, lo_strict, hi, hi_strict)
    return assignment


# ---------------------------------------------------------------------------
# options

@dataclass(frozen=True)
class EngineOptions:
    dnf_cap: int = DEFAULT_DNF_CAP
    samples: int = DEFAULT_SAMPLES
    seed: int = 0


# ---------------------------------------------------------------------------
# sampling

_DENOMINATORS = (1, 1, 1, 1, 2, 2, 3, 4, 5, 10, 12)


def _draw(rng: random.Random, iv: Interval, wide: bool) -> Rational:
    # an open end is taken DEFAULT_BOX_BOUND out, or at the other end beyond that
    lo = iv.lo if iv.lo is not None else min(-DEFAULT_BOX_BOUND, iv.hi if iv.hi is not None else 0)
    hi = iv.hi if iv.hi is not None else max(DEFAULT_BOX_BOUND, lo)
    if not wide:
        # prefer a small window, clamped into the box
        wlo = max(lo, -10)
        whi = min(hi, 10)
        if wlo <= whi:
            lo, hi = wlo, whi
    d = rng.choice(_DENOMINATORS)
    nlo = -(-lo.numerator * d // lo.denominator)  # ceil(lo*d)
    nhi = hi.numerator * d // hi.denominator      # floor(hi*d)
    if nlo > nhi:
        return lo
    return quotient(rng.randint(nlo, nhi), d)


def _equalities(atoms: Sequence[Cmp]) -> list[tuple[str, Term, frozenset[str]]]:
    """Each equality atom's bare-variable side, in atom order, with the
    other side and that side's free variables."""
    return [
        (var_side.name, term_side, free_vars(term_side))
        for atom in atoms
        if atom.op == "="
        for var_side, term_side in ((atom.left, atom.right), (atom.right, atom.left))
        if isinstance(var_side, Var)
    ]


def _propagate_equalities(
    equalities: Sequence[tuple[str, Term, frozenset[str]]], assignment: dict[str, Rational]
) -> bool:
    """Assign variables forced by equalities (from `_equalities`) whose
    other side is already valued. Returns False when a forced value is
    undefined."""
    changed = True
    while changed:
        changed = False
        for name, term, needs in equalities:
            if name in assignment or not needs <= assignment.keys():
                continue
            try:
                value = eval_term(term, assignment)
            except UndefinedTerm:
                return False
            assignment[name] = value
            changed = True
    return True


def sample_falsify(
    matrix: Assertion,
    box: Optional[Box] = None,
    budget: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> Optional[dict[str, Rational]]:
    """Deterministic seeded search for a valuation satisfying the
    quantifier-free `matrix`, as given; an existential raises ModelError.

    Every candidate is evaluated exactly in rational arithmetic; the first
    satisfying valuation is returned, or None within the budget. Equalities
    whose one side is a bare variable are propagated before random draws so
    exact targets (e.g. r = 2/3) are reachable. Every drawn value lies in
    `box`: the ladder passes the box interval contraction left for the
    disjunct.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    box = box or {}
    rng = random.Random(seed)
    variables = sorted(free_vars(matrix))
    parts = conjuncts(matrix)
    equalities = _equalities(parts) if all(isinstance(p, Cmp) for p in parts) else []

    base: dict[str, Rational] = {}
    if equalities and not _propagate_equalities(equalities, base):
        base = {}
    to_sample = [v for v in variables if v not in base]
    attempts = budget if to_sample else 1
    for attempt in range(attempts):
        assignment = dict(base)
        ok = True
        for var in to_sample:
            if var in assignment:
                continue
            assignment[var] = _draw(rng, box.get(var, FULL_INTERVAL), wide=(attempt % 5 == 4))
            if equalities and not _propagate_equalities(equalities, assignment):
                ok = False
                break
        if not ok:
            continue
        for var in variables:
            assignment.setdefault(var, 0)
        if eval_assertion(matrix, assignment):
            return assignment
    return None


# ---------------------------------------------------------------------------
# enumeration oracle

def enumerate_models(formula: Assertion, grid: FiniteGrid) -> frozenset[Valuation]:
    """All grid valuations satisfying the formula under exact evaluation."""
    return satisfying_valuations(formula, grid.restrict(sorted(free_vars(formula))))


# ---------------------------------------------------------------------------
# the decision ladder

def system_to_assertion(system: LinearSystem) -> Assertion:
    """Render a linear system back into an assertion tree."""
    if system.trivially_unsat():
        return BoolLit(False)
    atoms: list[Assertion] = []
    for c in system.constraints:
        if c.is_ground():
            continue
        term: Term | None = None
        for name, k in c.coeffs:
            part: Term
            if k == 1:
                part = Var(name)
            elif k == -1:
                part = Neg(Var(name))
            else:
                part = BinOp("*", Const(k), Var(name))
            term = part if term is None else BinOp("+", term, part)
        assert term is not None
        atoms.append(Cmp("<" if c.strict else "<=", term, Const(c.bound)))
    return conj(atoms)


def decide_satisfiability(formula: Assertion, opts: EngineOptions = EngineOptions()) -> SatResult:
    """Run the ladder on a single satisfiability query, normalized here once
    to the prenex NNF matrix that every rung reads."""
    try:
        matrix, _ = prenex_exists(nnf(simplify_bools(formula)))
    except UndecidableQuantifier:
        return SatResult("unknown", reason="universally quantified residue")

    def complete(witness: dict[str, Rational]) -> dict[str, Rational]:
        return witness | {v: 0 for v in sorted(free_vars(matrix)) if v not in witness}

    # what the exact rungs leave open goes to one sampling pool, each with a box holding its models
    try:
        dnf = normalize(matrix, opts.dnf_cap)
    except DnfCapExceeded as exc:
        pool, reason = [(matrix, {})], str(exc)
    else:
        pool, reason = [], "not falsified within budget"
        # linear disjuncts first, so a satisfiable one ends the query before
        # any interval work
        for d in sorted(dnf.disjuncts, key=lambda d: isinstance(d, NonlinearDisjunct)):
            if isinstance(d, NonlinearDisjunct):
                box = dict(d.box)
                if _revise(d.atoms, box, d.pending):
                    pool.append((conj(list(d.atoms)), box))
            elif (w := fm_witness(d)) is not None:
                # linear atoms are defined everywhere, and under strong
                # Kleene a model of a disjunct is a model of the matrix
                return SatResult("sat", witness=complete(w))
        if not pool:
            return SatResult("unsat")

    per_budget = max(1, opts.samples // len(pool))
    for idx, (candidate, carried) in enumerate(pool):
        witness = sample_falsify(candidate, carried, per_budget, opts.seed + idx)
        if witness is not None:
            full = complete(witness)
            if eval_assertion(matrix, full):
                return SatResult("sat", witness=full)
    return SatResult("unknown", reason=reason)


def _denominators(node: Assertion | Term) -> list[Term]:
    """The denominators in a term, or in a formula's atoms outside its
    existentials, except nonzero constants, each after those inside it."""
    out: list[Term] = []
    todo = [node]
    while todo:  # each node before its children, right to left: the reverse of the order wanted
        node = todo.pop()
        if type(node) is Exists:
            continue
        if type(node) is BinOp and node.op == "/" and not (type(node.right) is Const and node.right.value != 0):
            out.append(node.right)
        todo += children(node)
    out.reverse()
    return out


def _fails(psi: Assertion) -> Assertion:
    """A formula that holds exactly where psi does not: where its negation
    holds or psi is undefined. An existential is never undefined, and a
    literal of the negation is undefined exactly where one of its
    denominators is 0, so the literals outside existentials gain those."""
    if not _denominators(psi):
        return Not(psi)

    def widen(a: Assertion) -> Assertion:
        if isinstance(a, Cmp):
            return disj([a] + [Cmp("=", d, Const(0)) for d in _denominators(a)])
        if isinstance(a, Exists):
            return a
        return rebuild(a, [widen(k) for k in children(a)])

    return widen(nnf(Not(psi)))


def check_implication(
    phi: Assertion, psi: Assertion, opts: EngineOptions = EngineOptions()
) -> Verdict:
    """Is phi -> psi valid? Proved iff phi is unsatisfiable together with
    the points where psi does not hold; a witness is such a point."""
    try:
        fails = _fails(psi)
    except UndecidableQuantifier:
        return Verdict(Status.UNKNOWN, reason="universally quantified residue")
    result = decide_satisfiability(And(phi, fails), opts)
    if result.status == "unsat":
        return Verdict(Status.PROVED)
    if result.status == "sat":
        return Verdict(Status.FALSIFIED, witness=result.witness)
    return Verdict(Status.UNKNOWN, reason=result.reason)
