"""Symbolic and numeric reasoning over assertions.

The decision ladder, in order:

1. linear formulas are decided exactly by Fourier-Motzkin elimination on
   the DNF, with witnesses rebuilt by back-substitution through the
   elimination stack;
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
    Forall,
    Implies,
    Neg,
    Not,
    Or,
    Term,
    UndefinedTerm,
    Valuation,
    Var,
    conj,
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

    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


FULL_INTERVAL = Interval(None, None)

Box = Mapping[str, Interval]


def _iv_add(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(lo, hi)


def _iv_neg(a: Interval) -> Interval:
    return Interval(None if a.hi is None else -a.hi, None if a.lo is None else -a.lo)


_NEG = "-inf"
_POS = "+inf"


def _ends(iv: Interval):
    return (_NEG if iv.lo is None else iv.lo, _POS if iv.hi is None else iv.hi)


def _emul(a, b):
    # extended-rational product with the interval convention 0 * inf = 0
    if a == _NEG or a == _POS or b == _NEG or b == _POS:
        sa = 0 if (a == 0) else (1 if (a == _POS or (a not in (_NEG, _POS) and a > 0)) else -1)
        sb = 0 if (b == 0) else (1 if (b == _POS or (b not in (_NEG, _POS) and b > 0)) else -1)
        s = sa * sb
        if s == 0:
            return Fraction(0)
        return _POS if s > 0 else _NEG
    return a * b


def _emin(values):
    finite = [v for v in values if v not in (_NEG, _POS)]
    if _NEG in values:
        return None  # unbounded below
    return min(finite) if finite else None


def _emax(values):
    finite = [v for v in values if v not in (_NEG, _POS)]
    if _POS in values:
        return None
    return max(finite) if finite else None


def _iv_mul(a: Interval, b: Interval) -> Interval:
    alo, ahi = _ends(a)
    blo, bhi = _ends(b)
    prods = [_emul(alo, blo), _emul(alo, bhi), _emul(ahi, blo), _emul(ahi, bhi)]
    return Interval(_emin(prods), _emax(prods))


def _iv_contains_zero(a: Interval) -> bool:
    return (a.lo is None or a.lo <= 0) and (a.hi is None or a.hi >= 0)


def _iv_inv(a: Interval) -> tuple[Interval, bool]:
    """Reciprocal. Returns (interval, singular) where singular flags a
    denominator range containing zero; the enclosure is then unbounded."""
    if _iv_contains_zero(a):
        return FULL_INTERVAL, True
    if a.lo is not None and a.lo > 0:
        lo = Fraction(0) if a.hi is None else 1 / a.hi
        hi = 1 / a.lo
        return Interval(lo, hi), False
    # entirely negative
    lo = 1 / a.hi  # type: ignore[operator]
    hi = Fraction(0) if a.lo is None else 1 / a.lo
    return Interval(lo, hi), False


def interval_eval(term: Term, box: Box) -> tuple[Interval, bool]:
    """Sound enclosure of a term's exact range over a box.

    Returns (interval, singular); singular is set when some division's
    denominator range contained zero, in which case the enclosure is
    unbounded rather than silently widened.
    """
    match term:
        case Const(value=v):
            return Interval(v, v), False
        case Var(name=n):
            return box.get(n, FULL_INTERVAL), False
        case Neg(operand=t):
            iv, s = interval_eval(t, box)
            return _iv_neg(iv), s
        case BinOp(op=op, left=l, right=r):
            la, sa = interval_eval(l, box)
            rb, sb = interval_eval(r, box)
            singular = sa or sb
            if op == "+":
                return _iv_add(la, rb), singular
            if op == "-":
                return _iv_add(la, _iv_neg(rb)), singular
            if op == "*":
                return _iv_mul(la, rb), singular
            inv, s2 = _iv_inv(rb)
            if s2:
                return FULL_INTERVAL, True
            return _iv_mul(la, inv), singular
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
    if op == "!=":
        return not (lv.is_singleton() and rv.is_singleton() and lv.lo == rv.lo)
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
            flipped = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "=", "!=": "!="}[atom.op]
            pairs.append((atom.right.name, atom.left, flipped))
        for name, other, op in pairs:
            iv, singular = interval_eval(other, box)
            if singular:
                continue
            cur = box.get(name, FULL_INTERVAL)
            if op == "=":
                new = _intersect(cur, iv)
            elif op in ("<=", "<"):
                new = _intersect(cur, Interval(None, iv.hi))
            elif op in (">=", ">"):
                new = _intersect(cur, Interval(iv.lo, None))
            else:
                continue
            if new != cur:
                box[name] = new
                changed = True
            if new.is_empty():
                return changed, True
    return changed, False


def _interval_refute(atoms: Sequence[Cmp], rounds: int = 8) -> bool:
    """Try to prove a conjunction of atoms empty from the bounds its own
    atoms imply; every variable starts unbounded. An atom whose enclosure
    has a singular division is skipped."""
    box: dict[str, Interval] = {}
    for _ in range(rounds):
        changed, empty = _contract_once(atoms, box)
        if empty:
            return True
        if not changed:
            break
    for atom in atoms:
        lv, sl = interval_eval(atom.left, box)
        rv, sr = interval_eval(atom.right, box)
        if not (sl or sr or _atom_feasible(atom.op, lv, rv)):
            return True
    return False


# ---------------------------------------------------------------------------
# negation normal form and DNF

_NEGATED_CMP = {"<=": ">", "<": ">=", "=": "!=", ">=": "<", ">": "<=", "!=": "="}


def nnf(a: Assertion, negate: bool = False) -> Assertion:
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
                return Forall(ns, nnf(b, True))
            return Exists(ns, nnf(b))
        case Forall(names=ns, body=b):
            if negate:
                return Exists(ns, nnf(b, True))
            return Forall(ns, nnf(b))
    raise TypeError(f"not an assertion: {a!r}")


def prenex_exists(a: Assertion) -> tuple[tuple[str, ...], Assertion]:
    """Pull existential quantifiers out of an NNF formula.

    Bound names are renamed when they would collide with names already in
    scope. Any universal quantifier raises UndecidableQuantifier.
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
            case Not(operand=x):
                # NNF keeps Not only around atoms; never pull a quantifier
                # through a negation
                if not isinstance(x, (BoolLit, Cmp)):
                    raise EngineError("prenex expects NNF input")
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
            case Forall():
                raise UndecidableQuantifier("universal quantifier in residue")
            case Implies():
                raise EngineError("prenex expects NNF input")
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
    """Distribute an NNF, quantifier-free formula into lists of atoms."""
    match a:
        case BoolLit(value=v):
            return [[]] if v else []
        case Cmp(op=op):
            if op == "!=":
                return [[Cmp("<", a.left, a.right)], [Cmp(">", a.left, a.right)]]
            return [[a]]
        case Not(operand=Cmp() as inner):
            return _dnf_atom_lists(Cmp(_NEGATED_CMP[inner.op], inner.left, inner.right), cap)
        case Or(left=l, right=r):
            out = _dnf_atom_lists(l, cap) + _dnf_atom_lists(r, cap)
            if len(out) > cap:
                raise DnfCapExceeded(cap)
            return out
        case And(left=l, right=r):
            left_lists = _dnf_atom_lists(l, cap)
            right_lists = _dnf_atom_lists(r, cap)
            if len(left_lists) * len(right_lists) > cap:
                raise DnfCapExceeded(cap)
            return [ll + rl for ll in left_lists for rl in right_lists]
    raise TypeError(f"unexpected node in NNF matrix: {a!r}")


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
    return LinearSystem(tuple(constraints))


def normalize(a: Assertion, cap: int = DEFAULT_DNF_CAP) -> Dnf:
    """Negation normal form, then DNF with a disjunct cap.

    `!=` splits into two strict disjuncts and linear equations become <=
    pairs; a disjunct containing a nonlinear atom is kept as a
    NonlinearDisjunct carrying its original atoms.
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
    return LinearSystem(tuple(out))


def _elimination_order(system: LinearSystem, candidates: Sequence[str]) -> str:
    """Pick the next variable: fewest lower*upper pairings, ties by name."""
    best = None
    best_key = None
    for var in sorted(candidates):
        lowers, uppers, _ = _split_on(system, var)
        key = (len(lowers) * len(uppers), var)
        if best_key is None or key < best_key:
            best, best_key = var, key
    assert best is not None
    return best


def fm_project(system: LinearSystem, variables: Sequence[str]) -> LinearSystem:
    """Eliminate several variables with the pairing-count heuristic."""
    current = system
    remaining = [v for v in variables if any(c.coeff(v) != 0 for c in current.constraints)]
    while remaining:
        var = _elimination_order(current, remaining)
        current = fm_eliminate(current, var)
        remaining = [v for v in remaining if v != var and any(c.coeff(v) != 0 for c in current.constraints)]
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
        var = _elimination_order(current, remaining)
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
            case BoolLit(value=True):
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
        try:
            if eval_assertion(matrix, assignment):
                return assignment
        except UndefinedTerm:
            continue
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
        try:
            return full if eval_assertion(matrix, full) else None
        except UndefinedTerm:
            return None

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


def check_implication(
    phi: Assertion, psi: Assertion, opts: EngineOptions = EngineOptions()
) -> Verdict:
    """Is phi -> psi valid? Proved iff phi and not-psi is unsatisfiable."""
    result = decide_satisfiability(And(phi, Not(psi)), opts)
    if result.status == "unsat":
        return Verdict(Status.PROVED)
    if result.status == "sat":
        return Verdict(Status.FALSIFIED, witness=result.witness)
    return Verdict(Status.UNKNOWN, reason=result.reason)
