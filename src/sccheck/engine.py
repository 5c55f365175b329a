"""Symbolic and numeric reasoning over assertions.

The decision ladder, in order:

1. linear formulas are decided exactly by Fourier-Motzkin elimination on
   the DNF, with witnesses rebuilt by back-substitution through the
   elimination stack. Distribution drops each partial conjunction that
   interval contraction refutes, and every linear system keeps only the
   tightest bound per coefficient vector;
2. otherwise exact-rational interval contraction tries to prove each
   nonlinear disjunct empty from the bounds its own atoms imply, with
   every variable starting unbounded;
3. otherwise deterministic seeded sampling tries to find a satisfying
   valuation, evaluated exactly; the optional box only steers where it
   draws (default +-10^6 per variable) and never proves or refutes;
4. otherwise the verdict is an honest Unknown.

Existential quantifiers in positive position are pulled to the front and
treated as extra free variables; a residue that would need universal
reasoning yields Unknown rather than a guess.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

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
    Term,
    UndefinedTerm,
    Valuation,
    Var,
    conj,
    conjuncts,
    disj,
    eval_assertion,
    eval_term,
    free_vars,
    rename_vars,
    satisfying_valuations,
    simplify_bools,
)

DEFAULT_DNF_CAP = 4096
DEFAULT_SAMPLES = 10000
DEFAULT_BOX_BOUND = Fraction(10**6)


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
    witness: Optional[Mapping[str, Fraction]] = None
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
    witness: Optional[dict[str, Fraction]] = None
    reason: Optional[str] = None


# ---------------------------------------------------------------------------
# intervals (exact rational endpoints, None = unbounded)

@dataclass(frozen=True)
class Interval:
    lo: Fraction | None
    hi: Fraction | None

    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def contains(self, x: Fraction) -> bool:
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


_INF = float("inf")


def _iv_mul(a: Interval, b: Interval) -> Interval:
    """Product, with 0 * inf = 0. An unbounded end is a float infinity
    that is compared but never multiplied, so finite ends stay exact."""
    ends = [(-_INF if a.lo is None else a.lo, _INF if a.hi is None else a.hi),
            (-_INF if b.lo is None else b.lo, _INF if b.hi is None else b.hi)]
    prods = [Fraction(0) if x == 0 or y == 0 else x * y if _INF not in (abs(x), abs(y))
             else _INF if (x > 0) == (y > 0) else -_INF for x in ends[0] for y in ends[1]]
    lo, hi = min(prods), max(prods)
    return Interval(None if lo == -_INF else lo, None if hi == _INF else hi)


def _iv_inv(a: Interval) -> Interval:
    """Reciprocal; unbounded for a denominator range through zero."""
    if a.contains(Fraction(0)):
        return FULL_INTERVAL
    # one sign throughout, where 1/x decreases and an unbounded end maps to 0
    return Interval(Fraction(0) if a.hi is None else 1 / a.hi, Fraction(0) if a.lo is None else 1 / a.lo)


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
        case BinOp(op=op, left=l, right=r):
            la = interval_eval(l, box)
            rb = interval_eval(r, box)
            if op == "+":
                return _iv_add(la, rb)
            if op == "-":
                return _iv_add(la, _iv_neg(rb))
            if op == "*":
                product = _iv_mul(la, rb)
                if l == r and la.contains(Fraction(0)):
                    # a square is never negative
                    return Interval(Fraction(0), product.hi)
                return product
            inv = _iv_inv(rb)
            if inv == FULL_INTERVAL:
                return inv  # sound too where la is [0, 0], and skips the product
            return _iv_mul(la, inv)
    raise TypeError(f"not a term: {term!r}")


def _atom_feasible(op: str, lv: Interval, rv: Interval) -> bool:
    """Can `left op right` hold anywhere in the box? Sound over-approximation."""
    if op == "<=":
        return lv.lo is None or rv.hi is None or lv.lo <= rv.hi
    if op == "<":
        return lv.lo is None or rv.hi is None or lv.lo < rv.hi
    if op == ">=":
        return _atom_feasible("<=", rv, lv)
    if op == ">":
        return _atom_feasible("<", rv, lv)
    if op == "=":
        return _atom_feasible("<=", lv, rv) and _atom_feasible("<=", rv, lv)
    raise ValueError(f"unknown comparison: {op}")


def _intersect(a: Interval, b: Interval) -> Interval:
    lo = b.lo if a.lo is None else (a.lo if b.lo is None else max(a.lo, b.lo))
    hi = b.hi if a.hi is None else (a.hi if b.hi is None else min(a.hi, b.hi))
    return Interval(lo, hi)


def _contract_once(atoms: Sequence[Cmp], box: dict[str, Interval]) -> tuple[bool, bool]:
    """One round of narrowing. Returns (changed, empty)."""
    changed = False
    for atom in atoms:
        pairs = []
        if isinstance(atom.left, Var):
            pairs.append((atom.left.name, atom.right, atom.op))
        if isinstance(atom.right, Var):
            flipped = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "="}[atom.op]
            pairs.append((atom.right.name, atom.left, flipped))
        for name, other, op in pairs:
            iv = interval_eval(other, box)
            cur = box.get(name, FULL_INTERVAL)
            if op == "=":
                new = _intersect(cur, iv)
            elif op in ("<=", "<"):
                new = _intersect(cur, Interval(None, iv.hi))
            else:  # ">=" or ">"
                new = _intersect(cur, Interval(iv.lo, None))
            if new != cur:
                box[name] = new
                changed = True
            if new.is_empty():
                return changed, True
    return changed, False


def _interval_refute(atoms: Sequence[Cmp], rounds: int = 8) -> bool:
    """Try to prove a conjunction of atoms empty from the bounds its own
    atoms imply; every variable starts unbounded."""
    box: dict[str, Interval] = {}
    for _ in range(rounds):
        changed, empty = _contract_once(atoms, box)
        if empty:
            return True
        if not changed:
            break
    for atom in atoms:
        if not _atom_feasible(atom.op, interval_eval(atom.left, box), interval_eval(atom.right, box)):
            return True
    return False


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
        case Exists(names=ns, body=b):
            if negate:
                raise UndecidableQuantifier("universal quantifier in residue")
            return Exists(ns, nnf(b))
    raise TypeError(f"not an assertion: {a!r}")


def prenex_exists(a: Assertion) -> tuple[tuple[str, ...], Assertion]:
    """Pull existential quantifiers out of an NNF formula.

    Bound names are renamed when they would collide with names already in
    scope.
    """
    used = set(free_vars(a))
    counter = itertools.count(1)
    bound: list[str] = []

    def fresh(name: str) -> str:
        while True:
            candidate = f"{name}~{next(counter)}"
            if candidate not in used:
                return candidate

    def walk(node: Assertion) -> Assertion:
        match node:
            case BoolLit() | Cmp():
                return node
            case And(left=l, right=r):
                return And(walk(l), walk(r))
            case Or(left=l, right=r):
                return Or(walk(l), walk(r))
            case Exists(names=ns, body=b):
                mapping = {}
                for n in ns:
                    if n in used:
                        mapping[n] = fresh(n)
                        used.add(mapping[n])
                        bound.append(mapping[n])
                    else:
                        used.add(n)
                        bound.append(n)
                body = rename_vars(b, mapping) if mapping else b
                return walk(body)
        raise TypeError(f"not an assertion: {node!r}")

    matrix = walk(a)
    return tuple(bound), matrix


# ---------------------------------------------------------------------------
# linear systems

@dataclass(frozen=True)
class Constraint:
    """sum(coeff_i * var_i) (< | <=) bound, coefficients sorted and nonzero.
    An empty coefficient tuple is a ground sentinel."""

    coeffs: tuple[tuple[str, Fraction], ...]
    bound: Fraction
    strict: bool

    def is_ground(self) -> bool:
        return not self.coeffs

    def ground_truth(self) -> bool:
        return (0 < self.bound) if self.strict else (0 <= self.bound)

    def coeff(self, var: str) -> Fraction:
        for name, c in self.coeffs:
            if name == var:
                return c
        return Fraction(0)


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
    original atom form for the interval/sampling paths."""

    atoms: tuple[Cmp, ...]


Disjunct = Union[LinearSystem, NonlinearDisjunct]


@dataclass(frozen=True)
class Dnf:
    disjuncts: tuple[Disjunct, ...]


def _mk_constraint(coeffs: Mapping[str, Fraction], bound: Fraction, strict: bool) -> Constraint:
    return Constraint(tuple(sorted((k, v) for k, v in coeffs.items() if v != 0)), bound, strict)


def linearize_term(term: Term) -> Optional[tuple[dict[str, Fraction], Fraction]]:
    """Decompose a term as (coefficients, constant) when it is linear."""
    match term:
        case Const(value=v):
            return {}, v
        case Var(name=n):
            return {n: Fraction(1)}, Fraction(0)
        case Neg(operand=t):
            lin = linearize_term(t)
            if lin is None:
                return None
            coeffs, const = lin
            return {k: -v for k, v in coeffs.items()}, -const
        case BinOp(op=op, left=l, right=r):
            ll = linearize_term(l)
            rr = linearize_term(r)
            if ll is None or rr is None:
                return None
            (lc, lk), (rc, rk) = ll, rr
            if op == "+":
                out = dict(lc)
                for k, v in rc.items():
                    out[k] = out.get(k, Fraction(0)) + v
                return out, lk + rk
            if op == "-":
                out = dict(lc)
                for k, v in rc.items():
                    out[k] = out.get(k, Fraction(0)) - v
                return out, lk - rk
            if op == "*":
                if not lc:
                    return {k: lk * v for k, v in rc.items()}, lk * rk
                if not rc:
                    return {k: rk * v for k, v in lc.items()}, rk * lk
                return None  # product of variables
            if op == "/":
                if rc or rk == 0:
                    return None  # variable or zero denominator
                return {k: v / rk for k, v in lc.items()}, lk / rk
    raise TypeError(f"not a term: {term!r}")


def _linearize_atom(atom: Cmp) -> Optional[list[Constraint] | bool]:
    """Turn a comparison into <=/< constraints over left - right.

    Returns a constraint list, True/False for ground atoms, or None when
    the atom is nonlinear. `!=` never reaches here (split during DNF).
    """
    ll = linearize_term(atom.left)
    rr = linearize_term(atom.right)
    if ll is None or rr is None:
        return None
    (lc, lk), (rc, rk) = ll, rr
    diff = dict(lc)
    for k, v in rc.items():
        diff[k] = diff.get(k, Fraction(0)) - v
    diff = {k: v for k, v in diff.items() if v != 0}
    bound = rk - lk  # diff <=/< bound
    op = atom.op
    if op in (">=", ">"):
        diff = {k: -v for k, v in diff.items()}
        bound = -bound
        op = "<=" if op == ">=" else "<"
    if not diff:
        if op == "<=":
            result = 0 <= bound
        elif op == "<":
            result = 0 < bound
        else:  # "="
            result = bound == 0
        return result
    if op == "<=":
        return [_mk_constraint(diff, bound, False)]
    if op == "<":
        return [_mk_constraint(diff, bound, True)]
    # equality: the <= pair
    neg = {k: -v for k, v in diff.items()}
    return [_mk_constraint(diff, bound, False), _mk_constraint(neg, -bound, False)]


def _dnf_atom_lists(a: Assertion, cap: int) -> list[list[Cmp]]:
    """Distribute an NNF, quantifier-free formula into lists of atoms.

    A conjunction distributes left to right, in lexicographic order. After
    each conjunct that branches, the partial conjunctions that interval
    contraction refutes are dropped: they are empty, and so is every
    extension of them. The cap bounds each product about to be built.
    """
    match a:
        case BoolLit(value=v):
            return [[]] if v else []
        case Cmp(op=op):
            if op == "!=":
                return [[Cmp("<", a.left, a.right)], [Cmp(">", a.left, a.right)]]
            return [[a]]
        case Or(left=l, right=r):
            out = _dnf_atom_lists(l, cap) + _dnf_atom_lists(r, cap)
            if len(out) > cap:
                raise DnfCapExceeded(cap)
            return out
        case And():
            out = [[]]
            for part in conjuncts(a):
                lists = _dnf_atom_lists(part, cap)
                if len(out) * len(lists) > cap:
                    raise DnfCapExceeded(cap)
                out = [ll + rl for ll in out for rl in lists]
                if len(lists) > 1:
                    out = [atoms for atoms in out if not _interval_refute(atoms)]
            return out
    raise TypeError(f"unexpected node in NNF matrix: {a!r}")


def _tightest(constraints: Sequence[Constraint]) -> tuple[Constraint, ...]:
    """One constraint per coefficient vector, at its first position: the
    least bound, strict on ties. The conjunction is unchanged."""
    best: dict[tuple[tuple[str, Fraction], ...], Constraint] = {}
    for c in constraints:
        old = best.get(c.coeffs)
        if old is None or c.bound < old.bound or (c.bound == old.bound and c.strict):
            best[c.coeffs] = c
    return tuple(best.values())


def _build_disjunct(atoms: Sequence[Cmp]) -> Optional[Disjunct]:
    """Classify a conjunction of atoms; None means it is ground-false."""
    constraints: list[Constraint] = []
    nonlinear = False
    for atom in atoms:
        lin = _linearize_atom(atom)
        if lin is None:
            nonlinear = True
        elif lin is True:
            continue
        elif lin is False:
            return None
        else:
            constraints.extend(lin)
    if nonlinear:
        return NonlinearDisjunct(tuple(atoms))
    return LinearSystem(_tightest(constraints))


def normalize(a: Assertion, cap: int = DEFAULT_DNF_CAP) -> Dnf:
    """Negation normal form, then DNF with a disjunct cap.

    Conjunctions distribute left to right, and a partial conjunction that
    interval contraction refutes is dropped before it is extended, so the
    cap counts only the conjunctions kept. `!=` splits into two strict
    disjuncts and linear equations become <= pairs; a linear disjunct keeps
    the tightest bound per coefficient vector, and a disjunct containing a
    nonlinear atom is kept as a NonlinearDisjunct carrying its original
    atoms.
    """
    matrix = nnf(simplify_bools(a))
    disjuncts = []
    for atoms in _dnf_atom_lists(matrix, cap):
        d = _build_disjunct(atoms)
        if d is not None:
            disjuncts.append(d)
    return Dnf(tuple(disjuncts))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

def _split_on(system: LinearSystem, var: str):
    lowers = []  # coeff < 0: gives a lower bound on var
    uppers = []  # coeff > 0: gives an upper bound on var
    rest = []
    for c in system.constraints:
        k = c.coeff(var)
        if k == 0:
            rest.append(c)
        elif k > 0:
            uppers.append(c)
        else:
            lowers.append(c)
    return lowers, uppers, rest


def _combine(lower: Constraint, upper: Constraint, var: str) -> Constraint:
    """Pair a lower and an upper bound on `var`; the result drops `var` and
    is strict when either side was strict."""
    a_up = upper.coeff(var)   # > 0
    a_lo = -lower.coeff(var)  # > 0
    coeffs: dict[str, Fraction] = {}
    for name, v in upper.coeffs:
        if name != var:
            coeffs[name] = coeffs.get(name, Fraction(0)) + a_lo * v
    for name, v in lower.coeffs:
        if name != var:
            coeffs[name] = coeffs.get(name, Fraction(0)) + a_up * v
    bound = a_lo * upper.bound + a_up * lower.bound
    return _mk_constraint(coeffs, bound, lower.strict or upper.strict)


def fm_eliminate(system: LinearSystem, var: str) -> LinearSystem:
    """Project a <=/< system along one variable, exactly.

    The solution set of the result over the remaining variables is the
    projection of the input's rational solution set.
    """
    lowers, uppers, rest = _split_on(system, var)
    out = list(rest)
    for lo in lowers:
        for up in uppers:
            combined = _combine(lo, up, var)
            if combined.is_ground() and combined.ground_truth():
                continue
            out.append(combined)
    return LinearSystem(_tightest(out))


def _pairings(system: LinearSystem) -> dict[str, int]:
    """For each variable of the system, lower bounds times upper bounds: the
    constraints eliminating it pairs up. One pass over the constraints."""
    counts: dict[str, list[int]] = {}
    for c in system.constraints:
        for name, k in c.coeffs:
            counts.setdefault(name, [0, 0])[k > 0] += 1
    return {name: lowers * uppers for name, (lowers, uppers) in counts.items()}


def _elimination_order(pairings: Mapping[str, int], candidates: Sequence[str]) -> str:
    """Pick the next variable: fewest lower*upper pairings, ties by name."""
    return min(candidates, key=lambda v: (pairings.get(v, 0), v))


def fm_project(system: LinearSystem, variables: Sequence[str]) -> LinearSystem:
    """Eliminate several variables with the pairing-count heuristic; stops
    early at a ground contradiction."""
    current = system
    remaining = list(variables)
    while not current.trivially_unsat():
        pairings = _pairings(current)
        remaining = [v for v in remaining if v in pairings]
        if not remaining:
            break
        var = _elimination_order(pairings, remaining)
        current = fm_eliminate(current, var)
        remaining.remove(var)
    return current


def _bound_value(c: Constraint, var: str, assignment: Mapping[str, Fraction]) -> Fraction:
    """Value of the bound that constraint `c` puts on `var` at `assignment`."""
    k = c.coeff(var)
    rest = c.bound
    for name, v in c.coeffs:
        if name != var:
            rest -= v * assignment[name]
    return rest / k


def _pick_between(
    lo: Fraction | None, lo_strict: bool, hi: Fraction | None, hi_strict: bool
) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
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
    return (lo + hi) / 2


def fm_witness(system: LinearSystem) -> Optional[dict[str, Fraction]]:
    """Satisfiability with a model, by full elimination plus back-substitution.

    Every original variable is processed, even when it drops out of the
    system early, so the reverse pass always has values for the variables
    a recorded bound mentions.
    """
    stack: list[tuple[str, list[Constraint], list[Constraint]]] = []
    current = system
    remaining = list(system.variables())
    while remaining:
        if current.trivially_unsat():
            return None
        var = _elimination_order(_pairings(current), remaining)
        lowers, uppers, _ = _split_on(current, var)
        stack.append((var, lowers, uppers))
        current = fm_eliminate(current, var)
        remaining.remove(var)
    if current.trivially_unsat():
        return None
    assignment: dict[str, Fraction] = {}
    for var, lowers, uppers in reversed(stack):
        lo: Fraction | None = None
        lo_strict = False
        for c in lowers:
            val = _bound_value(c, var, assignment)
            if lo is None or val > lo:
                lo, lo_strict = val, c.strict
            elif val == lo:
                lo_strict = lo_strict or c.strict
        hi: Fraction | None = None
        hi_strict = False
        for c in uppers:
            val = _bound_value(c, var, assignment)
            if hi is None or val < hi:
                hi, hi_strict = val, c.strict
            elif val == hi:
                hi_strict = hi_strict or c.strict
        assignment[var] = _pick_between(lo, lo_strict, hi, hi_strict)
    return assignment


# ---------------------------------------------------------------------------
# options

@dataclass(frozen=True)
class EngineOptions:
    dnf_cap: int = DEFAULT_DNF_CAP
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    box: Optional[Mapping[str, Interval]] = None  # where sampling draws; never proves or refutes


# ---------------------------------------------------------------------------
# sampling

_DENOMINATORS = (1, 1, 1, 1, 2, 2, 3, 4, 5, 10, 12)


def _draw(rng: random.Random, iv: Interval, wide: bool) -> Fraction:
    lo = iv.lo if iv.lo is not None else -DEFAULT_BOX_BOUND
    hi = iv.hi if iv.hi is not None else DEFAULT_BOX_BOUND
    if not wide:
        # prefer a small window, clamped into the box
        wlo = max(lo, Fraction(-10))
        whi = min(hi, Fraction(10))
        if wlo <= whi:
            lo, hi = wlo, whi
    d = rng.choice(_DENOMINATORS)
    nlo = -(-lo.numerator * d // lo.denominator)  # ceil(lo*d)
    nhi = hi.numerator * d // hi.denominator      # floor(hi*d)
    if nlo > nhi:
        return lo
    return Fraction(rng.randint(nlo, nhi), d)


def _conjunction_atoms(a: Assertion) -> Optional[list[Cmp]]:
    atoms: list[Cmp] = []

    def walk(node: Assertion) -> bool:
        match node:
            case And(left=l, right=r):
                return walk(l) and walk(r)
            case Cmp():
                atoms.append(node)
                return True
        return False

    return atoms if walk(a) else None


def _propagate_equalities(
    atoms: Sequence[Cmp], assignment: dict[str, Fraction]
) -> bool:
    """Assign variables forced by equality atoms with a bare-variable side.
    Returns False when a forced value is contradictory or undefined."""
    changed = True
    while changed:
        changed = False
        for atom in atoms:
            if atom.op != "=":
                continue
            for var_side, term_side in ((atom.left, atom.right), (atom.right, atom.left)):
                if not isinstance(var_side, Var):
                    continue
                if var_side.name in assignment:
                    continue
                if not free_vars(term_side) <= assignment.keys():
                    continue
                try:
                    value = eval_term(term_side, assignment)
                except UndefinedTerm:
                    return False
                assignment[var_side.name] = value
                changed = True
    return True


def sample_falsify(
    formula: Assertion,
    box: Optional[Box] = None,
    budget: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> Optional[dict[str, Fraction]]:
    """Deterministic seeded search for a valuation satisfying `formula`.

    Every candidate is evaluated exactly in rational arithmetic; the first
    satisfying valuation is returned, or None within the budget. Equalities
    whose one side is a bare variable are propagated before random draws so
    exact targets (e.g. r = 2/3) are reachable.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    simplified = simplify_bools(formula)
    if isinstance(simplified, BoolLit):
        return {} if simplified.value else None
    try:
        _, matrix = prenex_exists(nnf(simplified))
    except UndecidableQuantifier:
        return None
    box = box or {}
    rng = random.Random(seed)
    variables = sorted(free_vars(matrix))
    atoms = _conjunction_atoms(matrix) or []

    base: dict[str, Fraction] = {}
    if atoms and not _propagate_equalities(atoms, base):
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
            if atoms and not _propagate_equalities(atoms, assignment):
                ok = False
                break
        if not ok:
            continue
        for var in variables:
            assignment.setdefault(var, Fraction(0))
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
    """Run the ladder on a single satisfiability query."""
    simplified = simplify_bools(formula)
    try:
        _, matrix = prenex_exists(nnf(simplified))
    except UndecidableQuantifier:
        return SatResult("unknown", reason="universally quantified residue")
    matrix_vars = sorted(free_vars(matrix))

    def complete(witness: dict[str, Fraction]) -> Optional[dict[str, Fraction]]:
        full = dict(witness)
        for v in matrix_vars:
            full.setdefault(v, Fraction(0))
        return full if eval_assertion(matrix, full) else None

    # whatever the exact rungs leave open goes to one sampling pool
    try:
        dnf = normalize(matrix, opts.dnf_cap)
    except DnfCapExceeded as exc:
        pool, reason = [matrix], str(exc)
    else:
        pool, reason = [], "not falsified within budget"
        # linear disjuncts first, so a satisfiable one ends the query before
        # any interval work
        for d in sorted(dnf.disjuncts, key=lambda d: isinstance(d, NonlinearDisjunct)):
            if isinstance(d, NonlinearDisjunct):
                if not _interval_refute(d.atoms):
                    pool.append(conj(list(d.atoms)))
            elif (w := fm_witness(d)) is not None:
                full = complete(w)
                if full is not None:
                    return SatResult("sat", witness=full)
                # a guard only: under strong-Kleene evaluation a model of a
                # disjunct is a model of the matrix
                pool.append(system_to_assertion(d))
        if not pool:
            return SatResult("unsat")

    per_budget = max(1, opts.samples // len(pool))
    for idx, candidate in enumerate(pool):
        witness = sample_falsify(candidate, opts.box, per_budget, opts.seed + idx)
        if witness is not None:
            full = complete(witness)
            if full is not None:
                return SatResult("sat", witness=full)
    return SatResult("unknown", reason=reason)


def _denominators(node: Assertion | Term) -> list[Term]:
    """The denominators in a term, or in a formula's atoms outside its
    existentials, except nonzero constants."""
    match node:
        case BinOp(op="/", left=l, right=r):
            nonzero = isinstance(r, Const) and r.value != 0
            return _denominators(l) + _denominators(r) + ([] if nonzero else [r])
        case BinOp() | Cmp() | And() | Or() | Implies():
            return _denominators(node.left) + _denominators(node.right)
        case Neg(operand=x) | Not(operand=x):
            return _denominators(x)
    return []


def _fails(psi: Assertion) -> Assertion:
    """A formula that holds exactly where psi does not: where its negation
    holds or psi is undefined. An existential is never undefined, and a
    literal of the negation is undefined exactly where one of its
    denominators is 0, so the literals outside existentials gain those."""
    if not _denominators(psi):
        return Not(psi)

    def widen(a: Assertion) -> Assertion:
        match a:
            case Cmp():
                return disj([a] + [Cmp("=", d, Const(Fraction(0))) for d in _denominators(a)])
            case And(left=l, right=r):
                return And(widen(l), widen(r))
            case Or(left=l, right=r):
                return Or(widen(l), widen(r))
        return a

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
