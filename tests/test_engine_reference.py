"""Two engine kernels against reference copies of their all-pairs and
formula-order forms: elimination through an equation keeps the solution
set, and meeting unit conjuncts first only drops empty products."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import expr
from sccheck import engine
from sccheck.engine import (
    Constraint,
    DnfCapExceeded,
    LinearSystem,
    _dnf_atom_lists,
    _linearize_atom,
    _meet,
    _pending,
    _revise,
    fm_eliminate,
    nnf,
)
from sccheck.model import And, BoolLit, Cmp, Or, conjuncts


def c(coeffs, bound, strict=False):
    return engine._mk_constraint({k: Fraction(v) for k, v in coeffs.items()}, Fraction(bound), strict)


# ---------------------------------------------------------------------------
# elimination through an equation


def _all_pairs_eliminate(system: LinearSystem, var: str) -> LinearSystem:
    """The reference elimination: every lower bound on `var` paired with
    every upper bound."""
    out, lowers, uppers = [], [], []
    for con in system.constraints:
        k = con.coeff(var)
        (out if k == 0 else uppers if k > 0 else lowers).append(con)
    for lo in lowers:
        for up in uppers:
            combined = engine._combine(lo, up, var)
            if not (combined.is_ground() and combined.ground_truth()):
                out.append(combined)
    return LinearSystem(engine._tightest(out))


def _satisfiable(constraints) -> bool:
    """Decided by the reference elimination alone, variables in name order."""
    system = LinearSystem(engine._tightest(list(constraints)))
    for var in system.variables():
        if system.trivially_unsat():
            break
        system = _all_pairs_eliminate(system, var)
    return not system.trivially_unsat()


def _negation(con: Constraint) -> Constraint:
    return Constraint(tuple((n, -k) for n, k in con.coeffs), -con.bound, not con.strict)


def _implies(a: LinearSystem, b: LinearSystem) -> bool:
    return all(not _satisfiable(a.constraints + (_negation(con),)) for con in b.constraints)


def _random_system(rng: random.Random) -> LinearSystem:
    """Bounds with small coefficients over x and up to three other
    variables: one or two equations on x, and bounds some of which face a
    scaled opposite with no room, a single point or some room between."""
    names = ["x", "y", "z", "w"][: rng.randint(2, 4)]

    def coeffs(on_x: bool) -> dict[str, int]:
        out = {n: rng.randint(-3, 3) for n in names}
        if on_x:
            out["x"] = rng.choice([-3, -2, -1, 1, 2, 3])
        return out

    constraints = []
    for _ in range(rng.randint(1, 2)):
        k, b = coeffs(True), rng.randint(-4, 4)
        constraints += [c(k, b), c({n: -v for n, v in k.items()}, -b)]
    for _ in range(rng.randint(2, 5)):
        k, b, strict = coeffs(rng.random() < 0.8), rng.randint(-4, 4), rng.random() < 0.5
        if not any(k.values()):
            continue
        constraints.append(c(k, b, strict))
        if rng.random() < 0.4:
            s = rng.randint(1, 3)
            constraints.append(c({n: -s * v for n, v in k.items()}, s * (rng.randint(-1, 1) - b), rng.random() < 0.5))
    rng.shuffle(constraints)
    return LinearSystem(engine._tightest(constraints))


def test_elimination_through_an_equation_keeps_the_solution_set():
    rng = random.Random(35)
    through_equation = refuted = 0
    for _ in range(500):
        system = _random_system(rng)
        new, reference = fm_eliminate(system, "x"), _all_pairs_eliminate(system, "x")
        assert _implies(new, reference) and _implies(reference, new), system
        if reference.trivially_unsat():
            assert new.trivially_unsat(), system
        # the result does not depend on the order of the constraints
        shuffled = list(system.constraints)
        rng.shuffle(shuffled)
        again = fm_eliminate(LinearSystem(tuple(shuffled)), "x")
        if new.trivially_unsat():
            assert again.trivially_unsat(), system
        else:
            assert set(again.constraints) == set(new.constraints), system
        counts = Counter(con.coeff("x") > 0 for con in system.constraints if con.coeff("x"))
        if counts[False] > 1 and counts[True] > 1 and engine._equation(
            [con for con in system.constraints if con.coeff("x") < 0],
            [con for con in system.constraints if con.coeff("x") > 0],
            "x",
        ):
            through_equation += 1
            refuted += reference.trivially_unsat()
    assert through_equation > 450 and refuted > 250, (through_equation, refuted)


def test_elimination_through_an_equation_pairs_each_other_bound_with_it_once(monkeypatch):
    made = []
    combine = engine._combine
    monkeypatch.setattr(engine, "_combine", lambda lo, up, var: made.append((lo, up)) or combine(lo, up, var))
    # x = y, x >= z, x >= 1, x <= w, x < 3: all pairs would make 9
    system = LinearSystem((
        c({"x": 1, "y": -1}, 0), c({"x": -1, "y": 1}, 0),
        c({"x": -1, "z": 1}, 0), c({"x": -1}, -1),
        c({"w": -1, "x": 1}, 0), c({"x": 1}, 3, True),
    ))
    out = fm_eliminate(system, "x")
    assert len(made) == 4
    assert set(out.constraints) == {
        c({"y": -1, "z": 1}, 0), c({"y": -1}, -1), c({"w": -1, "y": 1}, 0), c({"y": 1}, 3, True),
    }


def test_the_equation_eliminated_through_is_chosen_canonically():
    # 2x + y = 0 and x = z: the unit coefficient on x wins, in any order
    system = [
        c({"x": 2, "y": 1}, 0), c({"x": -2, "y": -1}, 0),
        c({"x": 1, "z": -1}, 0), c({"x": -1, "z": 1}, 0),
        c({"x": -1}, -1), c({"x": 1}, 3, True),
    ]
    expected = {c({"y": -1, "z": -2}, 0), c({"y": 1, "z": 2}, 0), c({"z": -1}, -1), c({"z": 1}, 3, True)}
    for order in itertools.permutations(system):
        assert set(fm_eliminate(LinearSystem(order), "x").constraints) == expected
    # then the fewest variables: x = y + z loses to x = w
    system = [
        c({"x": 1, "y": -1, "z": -1}, 0), c({"x": -1, "y": 1, "z": 1}, 0),
        c({"w": -1, "x": 1}, 0), c({"w": 1, "x": -1}, 0),
        c({"x": -1}, -1), c({"x": 1}, 3),
    ]
    expected = {c({"w": -1, "y": 1, "z": 1}, 0), c({"w": 1, "y": -1, "z": -1}, 0), c({"w": -1}, -1), c({"w": 1}, 3)}
    for order in itertools.permutations(system):
        assert set(fm_eliminate(LinearSystem(order), "x").constraints) == expected


def test_a_pair_left_out_that_is_ground_false_refutes_the_result():
    # x = y, -2x <= -4 and x <= 1: the pair left out is 0 <= -2, and the
    # two results through the equation, -2y <= -4 and y <= 1, leave no room
    # between them
    system = LinearSystem((
        c({"x": 1, "y": -1}, 0), c({"x": -1, "y": 1}, 0),
        c({"x": -2}, -4), c({"x": 1}, 1),
    ))
    assert _all_pairs_eliminate(system, "x").trivially_unsat()
    assert fm_eliminate(system, "x").trivially_unsat()
    # a single point between them is room when both sides are non-strict
    for strict, unsat in ((False, False), (True, True)):
        system = LinearSystem((
            c({"x": 1, "y": -1}, 0), c({"x": -1, "y": 1}, 0),
            c({"x": -2}, -2), c({"x": 1}, 1, strict),
            c({"x": -1, "z": 1}, 0), c({"w": -1, "x": 1}, 0),
        ))
        assert fm_eliminate(system, "x").trivially_unsat() == unsat
        assert _all_pairs_eliminate(system, "x").trivially_unsat() == unsat


# ---------------------------------------------------------------------------
# unit conjuncts before the branching ones


def _reference_dnf_atom_lists(a, cap, watches=None):
    """The reference distribution: conjuncts met in formula order."""
    watches = {} if watches is None else watches
    match a:
        case BoolLit(value=v):
            return [([], {}, 0, ())] if v else []
        case Cmp(op=op):
            if op == "!=":
                return [([Cmp("<", a.left, a.right)], {}, 0, ()), ([Cmp(">", a.left, a.right)], {}, 0, ())]
            return [([a], {}, 0, ())]
        case Or(left=l, right=r):
            out = _reference_dnf_atom_lists(l, cap, watches) + _reference_dnf_atom_lists(r, cap, watches)
            if len(out) > cap:
                raise DnfCapExceeded(cap)
            return out
        case And():
            out = [([], {}, 0, ())]
            for part in conjuncts(a):
                lists = _reference_dnf_atom_lists(part, cap, watches)
                if len(out) * len(lists) > cap:
                    raise DnfCapExceeded(cap)
                extended = []
                for la, lbox, start, narrowed in out:
                    for ra, rbox, _, _ in lists:
                        moved = []
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


def _random_atom(rng: random.Random) -> str:
    op = rng.choice(["<", "<=", "=", ">=", ">", "!="])
    if rng.random() < 0.5:
        return f"{rng.choice('xyz')} {op} {rng.randint(-4, 4)}"
    terms = " + ".join(f"{rng.randint(-3, 3)} * {v}" for v in rng.sample("xyz", rng.randint(1, 2)))
    return f"{terms} {op} {rng.randint(-4, 4)}"


def _random_formula(rng: random.Random, depth: int = 2) -> str:
    parts = []
    for _ in range(rng.randint(2, 5)):
        if depth and rng.random() < 0.5:
            options = [
                _random_formula(rng, depth - 1) if rng.random() < 0.3 else _random_atom(rng)
                for _ in range(rng.randint(2, 3))
            ]
            parts.append("(" + " or ".join(options) + ")")
        else:
            parts.append(_random_atom(rng))
    return " and ".join(parts)


def _product_satisfiable(atoms) -> bool:
    constraints = []
    for atom in atoms:
        lin = _linearize_atom(atom)
        if lin is False:
            return False
        if lin is not True:
            constraints += lin
    return _satisfiable(constraints)


def test_meeting_unit_conjuncts_first_only_drops_empty_products():
    rng = random.Random(35)
    compared = left_out = 0
    for _ in range(400):
        formula = nnf(expr(_random_formula(rng)))
        try:
            reference = _reference_dnf_atom_lists(formula, 512)
        except DnfCapExceeded:
            continue
        products = [Counter(atoms) for atoms, *_ in _dnf_atom_lists(formula, 512)]
        kept = 0  # the new products are an order-preserving subsequence
        for atoms, *_ in reference:
            if kept < len(products) and Counter(atoms) == products[kept]:
                kept += 1
            else:
                assert not _product_satisfiable(atoms), (formula, atoms)
                left_out += 1
        assert kept == len(products), formula
        compared += 1
    assert compared > 350 and left_out > 500, (compared, left_out)


def test_a_unit_conjunct_prunes_the_branches_before_it():
    # in formula order, both products of the first conjunct are built and
    # revised before x >= 5 meets them; met first, it refutes one of them
    formula = nnf(expr("(x <= 1 or y <= 1) and (x <= 2 or y <= 2) and x >= 5"))
    assert [atoms for atoms, *_ in _reference_dnf_atom_lists(formula, 4096)] == [
        [expr("x <= 1"), expr("x <= 2"), expr("x >= 5")],
        [expr("x <= 1"), expr("y <= 2"), expr("x >= 5")],
        [expr("y <= 1"), expr("x <= 2"), expr("x >= 5")],
        [expr("y <= 1"), expr("y <= 2"), expr("x >= 5")],
    ]
    assert [atoms for atoms, *_ in _dnf_atom_lists(formula, 4096)] == [
        [expr("x >= 5"), expr("y <= 1"), expr("y <= 2")],
    ]
    # a cap of 2 lets the unit pruning through where formula order exceeds it
    assert len(_dnf_atom_lists(formula, 2)) == 1
    with pytest.raises(DnfCapExceeded):
        _reference_dnf_atom_lists(formula, 2)
