import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import component, contract, expr, grid
from sccheck import engine
from sccheck.algebra import check_consistency
from sccheck.engine import (
    Constraint,
    DnfCapExceeded,
    EngineOptions,
    FULL_INTERVAL,
    Interval,
    LinearSystem,
    NonlinearDisjunct,
    SatResult,
    Status,
    _dnf_atom_lists,
    _draw,
    _iv_mul,
    _linearize_atom,
    _meet,
    _revise,
    _watched,
    check_implication,
    decide_satisfiability,
    enumerate_models,
    fm_eliminate,
    fm_project,
    fm_witness,
    interval_eval,
    nnf,
    normalize,
    sample_falsify,
    system_to_assertion,
)
from sccheck.model import (
    And,
    BoolLit,
    Cmp,
    Const,
    Exists,
    FiniteGrid,
    GridIncomplete,
    Not,
    Or,
    UndefinedTerm,
    conjuncts,
    eval_assertion,
    eval_term,
    free_vars,
)


def c(coeffs, bound, strict=False):
    return Constraint(tuple(sorted((k, Fraction(v)) for k, v in coeffs.items())), Fraction(bound), strict)


# ---------------------------------------------------------------------------
# normalize

def test_normalize_equation_to_le_pair():
    dnf = normalize(expr("r = 3"))
    assert len(dnf.disjuncts) == 1
    sys_ = dnf.disjuncts[0]
    assert isinstance(sys_, LinearSystem)
    assert set(sys_.constraints) == {c({"r": 1}, 3), c({"r": -1}, -3)}


def test_normalize_de_morgan_split():
    dnf = normalize(nnf(expr("not (i >= 0 and i <= 2)")))
    assert len(dnf.disjuncts) == 2
    assert set(dnf.disjuncts) == {
        LinearSystem((c({"i": 1}, 0, strict=True),)),   # i < 0
        LinearSystem((c({"i": -1}, -2, strict=True),)),  # i > 2
    }


def test_normalize_keeps_one_system_per_constraint_set():
    # the same two constraints, met in both orders
    dnf = normalize(expr("(x <= 1 and y <= 2) or (y <= 2 and x <= 1) or x <= 0"))
    assert dnf.disjuncts == (
        LinearSystem((c({"x": 1}, 1), c({"y": 1}, 2))),
        LinearSystem((c({"x": 1}, 0),)),
    )


def test_normalize_nonlinear_residue():
    dnf = normalize(expr("p = u * i"))
    assert len(dnf.disjuncts) == 1
    assert isinstance(dnf.disjuncts[0], NonlinearDisjunct)
    assert dnf.disjuncts[0].atoms == (expr("p = u * i"),)


def test_normalize_cap_exceeded():
    # each != doubles the disjunct count
    formula = expr(" and ".join(f"x{i} != 0" for i in range(6)))
    with pytest.raises(DnfCapExceeded):
        normalize(formula, cap=32)
    with pytest.raises(DnfCapExceeded):
        normalize(expr("x = 1 or x = 2 or x = 3"), cap=2)


def test_negated_product_is_nonlinear():
    [d] = normalize(expr("-(x * y) <= 1")).disjuncts
    assert isinstance(d, NonlinearDisjunct)


@settings(max_examples=50)
@given(st.integers(0, 10**9))
def test_normalize_preserves_models(seed):
    rng = random.Random(seed)
    names = ["x", "y"]

    def atom():
        lhs = " + ".join(f"{rng.randint(-2, 2)} * {v}" for v in names)
        return f"{lhs} {rng.choice(['<=', '<', '=', '>=', '>', '!='])} {rng.randint(-2, 2)}"

    text = atom()
    for _ in range(rng.randrange(3)):
        text = f"({text}) {rng.choice(['and', 'or'])} ({atom()})"
    formula = expr(text)
    g = grid(x=[-1, 0, 1], y=[-1, 0, 1])
    dnf = normalize(formula)
    systems = [d for d in dnf.disjuncts if isinstance(d, LinearSystem)]
    assert len(set(systems)) == len(systems)
    pieces = [
        system_to_assertion(d) if isinstance(d, LinearSystem) else And(*d.atoms)
        if len(d.atoms) > 1
        else d.atoms[0]
        for d in dnf.disjuncts
    ]
    from sccheck.model import freeze_valuation

    direct = set()
    union = set()
    for env in g.valuations():
        frozen = freeze_valuation(env)
        if eval_assertion(formula, env):
            direct.add(frozen)
        if any(eval_assertion(p, env) for p in pieces):
            union.add(frozen)
    assert union == direct


def _unpruned(a):
    """How many disjuncts distribution makes from an NNF formula of
    variable atoms when it drops none."""
    match a:
        case And(left=l, right=r):
            return _unpruned(l) * _unpruned(r)
        case Or(left=l, right=r):
            return _unpruned(l) + _unpruned(r)
    return 2 if a.op == "!=" else 1


def _linked_formula(rng):
    """A conjunction, in random order, of equalities that link x, y and z and
    of clauses over atoms and pairs of atoms: the shape of a composition
    body. Every atom keeps a variable, so no disjunct is ground."""
    def atom():
        return f"{rng.choice('xyz')} {rng.choice(['<=', '<', '>=', '>', '!='])} {rng.randint(-1, 1)}"

    def item():
        return atom() if rng.random() < 0.6 else f"({atom()} and {atom()})"

    pairs = rng.sample(list(itertools.permutations("xyz", 2)), rng.randint(1, 2))
    links = [f"{u} = {v} + {rng.randint(-1, 1)}" for u, v in pairs]
    clauses = ["(" + " or ".join(item() for _ in range(rng.randint(2, 3))) + ")" for _ in range(rng.randint(2, 3))]
    parts = links + clauses
    rng.shuffle(parts)
    return " and ".join(parts)


def test_pruned_distribution_keeps_every_model():
    g = grid(x=[-1, 0, Fraction(1, 2), 1, 2], y=[-1, 0, Fraction(1, 2), 1, 2], z=[-1, 0, 1])
    pruned = 0
    for seed in range(40):
        formula = expr(_linked_formula(random.Random(seed)))
        disjuncts = [system_to_assertion(d) for d in normalize(formula).disjuncts]
        pruned += len(disjuncts) < _unpruned(formula)
        for env in g.valuations():
            assert any(eval_assertion(d, env) for d in disjuncts) == eval_assertion(formula, env), (seed, env)
    assert pruned >= 20


def test_distribution_drops_exactly_the_refuted_combinations_in_order():
    text = "a = b and (a < 0 or a > 1 or r <= 2) and (b < 0 or b > 1 or s <= 2)"
    kept = [
        normalize(expr(f"a = b and {left} and {right}")).disjuncts[0]
        for left in ("a < 0", "a > 1", "r <= 2")
        for right in ("b < 0", "b > 1", "s <= 2")
        if (left, right) not in (("a < 0", "b > 1"), ("a > 1", "b < 0"))
    ]
    assert normalize(expr(text)).disjuncts == tuple(kept)


def test_a_product_over_the_cap_fits_once_pruned():
    # 9 disjuncts unpruned; pruned, no product reaches 4
    text = "x = 0 and (x < 0 or x > 0 or y = 0) and (x < 0 or x > 0 or z = 0)"
    assert normalize(expr(text), cap=4) == normalize(expr("x = 0 and y = 0 and z = 0"))


def test_a_system_keeps_the_tightest_bound_per_coefficient_vector():
    [d] = normalize(expr("x <= 3 and 2 * y < 1 and x < 1 and x <= 1 and 2 * y <= 1")).disjuncts
    assert d.constraints == (c({"x": 1}, 1, strict=True), c({"y": 2}, 1, strict=True))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

def test_fm_transitivity():
    system = LinearSystem((c({"x": 1, "y": -1}, 0), c({"y": 1}, 2)))  # x <= y, y <= 2
    out = fm_eliminate(system, "y")
    assert set(out.constraints) == {c({"x": 1}, 2)}


def test_fm_projection_pair():
    # x + y >= 1, x - y >= 0 becomes -x-y <= -1, -x+y <= 0; eliminating y
    # leaves 2x >= 1
    system = LinearSystem((c({"x": -1, "y": -1}, -1), c({"x": -1, "y": 1}, 0)))
    out = fm_eliminate(system, "y")
    assert set(out.constraints) == {c({"x": -2}, -1)}
    # grid-enumeration oracle over x,y in {-2..2} confirms projection membership
    halves = [Fraction(k, 2) for k in range(-4, 5)]
    for xv in halves:
        oracle = any(-xv - yv <= -1 and -xv + yv <= 0 for yv in halves)
        projected = -2 * xv <= -1
        if oracle:
            assert projected


def test_fm_unbounded_side_gives_empty_system():
    system = LinearSystem((c({"y": -1}, 0),))  # y >= 0
    out = fm_eliminate(system, "y")
    assert out.constraints == ()


def test_fm_witness_backsubstitution():
    # r = 3 and r1 < 1: witness must satisfy both, r1 defaults below its bound
    system = LinearSystem((c({"r": 1}, 3), c({"r": -1}, -3), c({"r1": 1}, 1, strict=True)))
    w = fm_witness(system)
    assert w is not None
    assert w["r"] == 3 and w["r1"] < 1


def test_fm_witness_none_for_unsat():
    system = LinearSystem((c({"x": 1}, 0), c({"x": -1}, -1)))  # x <= 0 and x >= 1
    assert fm_witness(system) is None


def _reference_fm_witness(system):
    """The witness search as an elimination loop of its own: every variable
    of the system takes a turn, fewest pairings first and ties by name, a
    variable that dropped out being eliminated as a no-op, and each turn
    records the bounds on its variable for back-substitution."""
    stack = []
    current = system
    remaining = list(system.variables())
    while remaining:
        if current.trivially_unsat():
            return None
        pairings = engine._pairings(current)
        var = min(remaining, key=lambda v: (pairings.get(v, 0), v))
        lowers = [row for row in current.constraints if row.coeff(var) < 0]
        uppers = [row for row in current.constraints if row.coeff(var) > 0]
        stack.append((var, lowers, uppers))
        current = fm_eliminate(current, var)
        remaining.remove(var)
    if current.trivially_unsat():
        return None
    assignment = {}
    for var, lowers, uppers in reversed(stack):
        lo = hi = None
        lo_strict = hi_strict = False
        for row in lowers:
            val = engine._bound_value(row, var, assignment)
            if lo is None or val > lo:
                lo, lo_strict = val, row.strict
            elif val == lo:
                lo_strict = lo_strict or row.strict
        for row in uppers:
            val = engine._bound_value(row, var, assignment)
            if hi is None or val < hi:
                hi, hi_strict = val, row.strict
            elif val == hi:
                hi_strict = hi_strict or row.strict
        assignment[var] = engine._pick_between(lo, lo_strict, hi, hi_strict)
    return assignment


def _holds(system, env):
    for row in system.constraints:
        total = sum(k * env[n] for n, k in row.coeffs)
        if not (total < row.bound if row.strict else total <= row.bound):
            return False
    return True


def test_fm_witness_matches_a_separate_elimination_loop():
    """`fm_witness` back-substitutes through the systems `fm_project` kept;
    on 600 random systems it returns what a separate elimination loop over
    every variable returns, and each witness satisfies every constraint
    exactly."""
    cancelling = LinearSystem((c({"x": 1, "y": -1}, 0), c({"x": -1, "y": 1}, 0)))  # x - y <= 0, y - x <= 0
    systems = [cancelling]
    rng = random.Random(20)
    for _ in range(600):
        names = [f"v{i}" for i in range(rng.randint(2, 5))]
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {n: rng.randint(-3, 3) for n in names if rng.random() < 0.7}
            rows.append(engine._mk_constraint(coeffs, rng.randint(-4, 4), rng.random() < 0.4))
        systems.append(LinearSystem(tuple(rows)))
    sat = vanished = 0
    for system in systems:
        witness = fm_witness(system)
        assert witness == _reference_fm_witness(system), system
        if witness is None:
            continue
        sat += 1
        assert set(witness) == set(system.variables())
        assert all(type(v) in (int, Fraction) for v in witness.values())
        assert _holds(system, witness), (system, witness)
        steps = []
        fm_project(system, system.variables(), steps)
        vanished += len(steps) < len(system.variables())
    assert fm_witness(cancelling) == {"x": 0, "y": 0}
    assert 100 < sat < len(systems) and vanished > 50


def test_fm_soundness_vs_grid_oracle():
    """Projection soundness on >= 500 random linear systems: every grid
    point with a satisfying extension over the eliminated variable also
    satisfies the elimination result (exact direction of the equivalence;
    completeness holds only up to grid resolution)."""
    rng = random.Random(2024)
    halves = [Fraction(k, 2) for k in range(-8, 9)]  # -4..4 in half steps
    ints = [Fraction(k) for k in range(-2, 3)]
    checked = 0
    for _ in range(500):
        nvars = rng.randint(2, 4)
        names = [f"v{i}" for i in range(nvars)]
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {n: rng.randint(-3, 3) for n in names}
            rows.append(c(coeffs, rng.randint(-4, 4), strict=rng.random() < 0.3))
        system = LinearSystem(tuple(rows))
        target = rng.choice(names)
        projected = fm_project(system, [target])
        rest = [n for n in names if n != target]

        def satisfies(sys_, env):
            for row in sys_.constraints:
                total = sum(k * env.get(n, Fraction(0)) for n, k in row.coeffs)
                if row.strict:
                    if not total < row.bound:
                        return False
                elif not total <= row.bound:
                    return False
            return True

        for combo in itertools.product(ints, repeat=len(rest)):
            env = dict(zip(rest, combo))
            extension = any(satisfies(system, {**env, target: hv}) for hv in halves)
            if extension:
                checked += 1
                assert satisfies(projected, env)
    assert checked > 500


# ---------------------------------------------------------------------------
# check_implication

def test_implication_series_sum_proved():
    phi = expr("r1 = 1 and r2 = 2 and r = r1 + r2")
    assert check_implication(phi, expr("r = 3")).status is Status.PROVED


def test_implication_falsified_with_witness():
    v = check_implication(expr("r = 3"), expr("r1 = 1"))
    assert v.status is Status.FALSIFIED
    # any witness works as long as it satisfies phi and not psi, exactly
    assert v.witness is not None
    assert eval_assertion(And(expr("r = 3"), Not(expr("r1 = 1"))), v.witness)


def test_implication_true_implies_true():
    assert check_implication(expr("true"), expr("true")).status is Status.PROVED


@pytest.mark.parametrize("psi", ["(1 / x) * 0 = 0", "(1 / x) * (1 / x) >= 0", "x = 1 or not (1 / x = 2)"])
def test_implication_fails_where_the_consequent_is_undefined(psi):
    # at x = 0 the consequent does not hold, and neither does its negation
    v = check_implication(expr("true"), expr(psi))
    assert v.status is Status.FALSIFIED and v.witness == {"x": 0}
    assert not eval_assertion(expr(psi), v.witness)


def test_implication_proved_where_the_premise_excludes_a_zero_denominator():
    assert check_implication(expr("x >= 1"), expr("1 / x >= 0")).status is Status.PROVED
    # an existential is never undefined, and its body is left as it is
    psi = And(expr("1 / x >= 0"), Not(Exists(("c",), expr("c = 1 / x and c < 0"))))
    assert check_implication(expr("x >= 1"), psi).status is Status.PROVED
    # a positive existential needs universal reasoning once negated
    psi = And(expr("1 / x >= 0"), Exists(("c",), expr("c = x")))
    assert check_implication(expr("x >= 1"), psi).reason == "universally quantified residue"


def test_implication_never_proved_when_sampler_finds_witness():
    rng = random.Random(11)
    for _ in range(60):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        phi = expr(f"x >= {min(a, b)} and x <= {max(a, b)}")
        psi = expr(f"x != {a}")
        verdict = check_implication(phi, psi)
        witness = sample_falsify(And(phi, Not(psi)), budget=10**4, seed=5)
        if witness is not None:
            assert verdict.status is not Status.PROVED
        if verdict.status is Status.FALSIFIED:
            assert eval_assertion(And(phi, Not(psi)), verdict.witness)


@pytest.mark.parametrize("text, expected", [
    ("2 * x + 1 <= y - 3", [c({"x": 2, "y": -1}, -4)]),
    ("x < 2 * y", [c({"x": 1, "y": -2}, 0, strict=True)]),
    ("x / 2 = 1 - y", [c({"x": Fraction(1, 2), "y": 1}, 1), c({"x": Fraction(-1, 2), "y": -1}, -1)]),
    ("x >= -3", [c({"x": -1}, 3)]),
    ("1 - x > y", [c({"x": 1, "y": 1}, 1, strict=True)]),
    ("1 + 1 = 2", True),
    ("2 * 3 < 6", False),
    ("x - x < 1", True),
    ("x * y <= 1", None),
    ("x / 0 <= 1", None),
])
def test_linearize_atom(text, expected):
    """A comparison becomes <=/< constraints over left - right, a ground
    atom its truth value, and a nonlinear atom or a zero divisor None."""
    assert _linearize_atom(expr(text)) == expected


# ---------------------------------------------------------------------------
# intervals

def box(**kw):
    return {k: Interval(Fraction(a), Fraction(b)) for k, (a, b) in kw.items()}


_INF = float("inf")


def _float_sentinel_mul(a, b):
    """The interval product with unbounded ends as float infinities that
    are compared but never multiplied: the reference for `_iv_mul`."""
    ends = [(-_INF if a.lo is None else a.lo, _INF if a.hi is None else a.hi),
            (-_INF if b.lo is None else b.lo, _INF if b.hi is None else b.hi)]
    prods = [Fraction(0) if x == 0 or y == 0 else x * y if _INF not in (abs(x), abs(y))
             else _INF if (x > 0) == (y > 0) else -_INF for x in ends[0] for y in ends[1]]
    lo, hi = min(prods), max(prods)
    return Interval(None if lo == -_INF else lo, None if hi == _INF else hi)


def test_iv_mul_matches_the_float_sentinel_product():
    ends = [None] + [Fraction(v) for v in (-3, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 3)]
    rng = random.Random(17)

    def interval():
        lo, hi = rng.choice(ends), rng.choice(ends)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        return Interval(lo, hi)

    zero = Interval(Fraction(0), Fraction(0))
    pairs = [(interval(), interval()) for _ in range(2000)]
    for a, b in pairs + [(zero, FULL_INTERVAL), (Interval(None, Fraction(0)), zero)]:
        product = _iv_mul(a, b)
        assert product == _float_sentinel_mul(a, b), (a, b)
        # exact ends only: None, an int or a Fraction, never a float
        assert all(end is None or type(end) in (int, Fraction) for end in (product.lo, product.hi)), (a, b)
    # 0 * unbounded = 0
    assert _iv_mul(zero, FULL_INTERVAL) == zero
    assert _iv_mul(Interval(Fraction(0), Fraction(1)), Interval(Fraction(1), None)) == Interval(Fraction(0), None)
    assert _iv_mul(Interval(None, Fraction(0)), Interval(None, Fraction(0))) == Interval(Fraction(0), None)


def test_interval_product_of_positives():
    iv = interval_eval(expr("u * i"), box(u=(1, 2), i=(3, 4)))
    assert (iv.lo, iv.hi) == (3, 8)


def test_interval_division_through_zero_is_unbounded():
    iv = interval_eval(expr("1 / r"), box(r=(-1, 1)))
    assert iv.lo is None and iv.hi is None


def test_interval_of_a_negated_product():
    iv = interval_eval(expr("-x * y"), box(x=(1, 2), y=(3, 4)))
    assert (iv.lo, iv.hi) == (-8, -3)
    assert not iv.contains(Fraction(-9)) and not iv.contains(Fraction(-2))


def test_interval_parallel_resistance_point():
    iv = interval_eval(expr("1 / (1 / r1 + 1 / r2)"), box(r1=(2, 2), r2=(2, 2)))
    assert (iv.lo, iv.hi) == (1, 1)


def test_interval_of_a_square_is_never_negative():
    iv = interval_eval(expr("x * x"), box(x=(-2, 3)))
    assert (iv.lo, iv.hi) == (0, 9)
    iv = interval_eval(expr("(x - 1) * (x - 1)"), {})
    assert (iv.lo, iv.hi) == (0, None)
    # a square away from zero and a product of two terms keep their products
    iv = interval_eval(expr("x * x"), box(x=(-3, -1)))
    assert (iv.lo, iv.hi) == (1, 9)
    iv = interval_eval(expr("x * y"), box(x=(-2, 3), y=(-2, 3)))
    assert (iv.lo, iv.hi) == (-6, 9)


@pytest.mark.parametrize("text", ["x * x = -1", "x * x + y * y < 0", "(x + y) * (x + y) < -1/2"])
def test_negative_squares_are_unsat(text):
    assert decide_satisfiability(expr(text)).status == "unsat"


def test_enclosure_ignores_points_where_a_division_is_undefined():
    # (1 / x) * 0 is 0 wherever it is defined, and x = 0 satisfies no atom
    formula = "y = (1 / x) * 0 and y = 1"
    assert decide_satisfiability(expr(formula)).status == "unsat"
    k = contract("K", component("T", "x:q", "y:q"), "true", formula)
    assert check_consistency(k).status is Status.FALSIFIED


def test_interval_containment_on_random_terms():
    rng = random.Random(99)

    def rand_term(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(["x", "y", "z", str(rng.randint(-3, 3))])
        op = rng.choice("+-*/")
        return f"({rand_term(depth - 1)} {op} {rand_term(depth - 1)})"

    passed = 0
    for _ in range(1000):
        term = expr(rand_term(3))
        b = {}
        sample = {}
        for name in free_vars(term):
            lo = Fraction(rng.randint(-4, 2))
            hi = lo + rng.randint(0, 4)
            b[name] = Interval(lo, hi)
            sample[name] = lo + Fraction(rng.randint(0, int((hi - lo) * 2)), 2) if hi > lo else lo
        iv = interval_eval(term, b)
        try:
            value = eval_term(term, sample)
        except Exception:
            continue
        assert iv.contains(value)
        passed += 1
    assert passed > 600


def _atom_through(rng, point):
    """A random atom over x, y and z, linear or with * and /, that holds at
    `point`: a term compared with a variable, a term or its own value."""
    def term(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(["x", "y", "z", str(rng.randint(-3, 3))])
        return f"({term(depth - 1)} {rng.choice('+-*/')} {term(depth - 1)})"

    while True:
        left = expr(rng.choice("xyz") if rng.random() < 0.5 else term(2))
        try:
            lv = eval_term(left, point)
            right = rng.choice([expr(term(2)), Const(lv + rng.choice([-1, 0, 0, 1]))])
            rv = eval_term(right, point)
        except UndefinedTerm:
            continue
        ops = [op for op, holds in (("<=", lv <= rv), ("<", lv < rv), ("=", lv == rv), (">=", lv >= rv), (">", lv > rv)) if holds]
        return Cmp(rng.choice(ops), left, right)


def test_revise_never_refutes_a_conjunction_through_a_point():
    rng = random.Random(16)
    narrowed = 0
    for _ in range(400):
        point = {v: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for v in "xyz"}
        atoms = [_atom_through(rng, point) for _ in range(rng.randint(1, 5))]
        starts = [{}]
        for _ in range(3):
            start = {}
            for v in rng.sample("xyz", rng.randint(1, 3)):
                lo = None if rng.random() < 0.2 else point[v] - rng.randint(0, 3)
                hi = None if rng.random() < 0.2 else point[v] + rng.randint(0, 3)
                start[v] = Interval(lo, hi)
            starts.append(start)
        for start in starts:
            b = dict(start)
            assert _revise(atoms, b), (atoms, start)
            assert all(b[v].contains(point[v]) for v in b), (atoms, start, b)
            narrowed += b != start
    assert narrowed > 400


def test_revise_refutes_an_empty_conjunction():
    assert not _revise([expr("x < 1"), expr("x >= 1")], {})
    # an equation is refuted when either side's enclosure lies wholly above the other's
    for eq in ("x = 5", "5 = x", "x = -5", "-5 = x"):
        assert not _revise([expr(eq)], {"x": Interval(Fraction(0), Fraction(1))}), eq
    assert decide_satisfiability(expr("x < 1 and x >= 1 and x * y = 2")).status == "unsat"
    # x and y climb by one every four revisions and reach [8, 8] only with
    # the last of the budget's 32 (8 per atom), which leaves y >= x + 1 to
    # the check of the atoms still queued
    late = "x >= 0 and x <= 8 and y >= x + 1 and x >= y"
    assert not _revise(conjuncts(expr(late)), {})
    assert decide_satisfiability(expr(f"{late} and z * z >= 0")).status == "unsat"


def _settled(atoms, box):
    """Whether revising every atom again leaves the box as it is."""
    again = dict(box)
    return _revise(atoms, again) and again == box


def test_revise_resumed_from_a_fixpoint_matches_a_revise_from_scratch():
    rng = random.Random(22)
    compared = refuted = narrowed = 0
    for _ in range(400):
        point = {v: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for v in "xyz"}
        other = point if rng.random() < 0.3 else {v: Fraction(rng.randint(-6, 6)) for v in "xyz"}
        settled = [_atom_through(rng, point) for _ in range(rng.randint(1, 4))]
        atoms = settled + [_atom_through(rng, other) for _ in range(rng.randint(1, 3))]
        start = {v: Interval(point[v] - rng.randint(0, 4), point[v] + rng.randint(0, 4)) for v in rng.sample("xyz", 2)}
        box = dict(start)
        if not (_revise(settled, box) and _settled(settled, box)):
            continue
        resumed, scratch = dict(box), dict(start)
        holds = _revise(atoms, resumed, range(len(settled), len(atoms)))
        expected = _revise(atoms, scratch)
        if (holds and not _settled(atoms, resumed)) or (expected and not _settled(atoms, scratch)):
            continue  # a budget ran out before the fixpoint
        assert holds == expected, (atoms, start)
        if holds:
            assert resumed == scratch, (atoms, start)
            narrowed += resumed != box
        compared += 1
        refuted += not holds
    assert compared > 350 and refuted > 60 and narrowed > 100, (compared, refuted, narrowed)


def test_a_meet_that_narrows_a_revised_atom_requeues_it():
    # after the second conjunct, y >= x + 1 is revised and narrows nothing;
    # the third's first product, revised to x >= 5 and y <= 3, meets it
    # with a box that refutes it, though its own atoms hold there
    text = "y >= x + 1 and (w < 0 or w > 1) and (x >= 5 and y <= 3 and (u < 0 or u > 1) or v = 0)"
    lists = _dnf_atom_lists(nnf(expr(text)), 4096)
    assert [atoms for atoms, *_ in lists] == [
        [expr("y >= x + 1"), expr("w < 0"), expr("v = 0")],
        [expr("y >= x + 1"), expr("w > 1"), expr("v = 0")],
    ]
    own = [expr("x >= 5"), expr("y <= 3"), expr("u < 0")]
    assert _revise(own, {"x": Interval(5, None), "y": Interval(None, 3), "u": Interval(None, 0)})
    # the interval rung resumes each nonlinear disjunct from its pending
    # atoms, the three after the last conjunct that branched
    late = "y >= x + 1 and (w < 0 or w > 1) and x >= 5 and y <= 3 and z * z >= 0"
    assert [d.pending for d in normalize(nnf(expr(late))).disjuncts] == [(2, 3, 4), (2, 3, 4)]
    assert decide_satisfiability(expr(late)).status == "unsat"


def test_revise_halving_forever_stops_within_its_budget():
    one = Fraction(1)
    box = {"x": Interval(-one, one), "y": Interval(-one, one)}
    assert _revise(conjuncts(expr("x = y / 2 and y = x / 2")), box)
    assert box["x"].contains(0) and box["y"].contains(0)
    assert box["x"] != Interval(-one, one)
    # an atom that narrows a variable on its other side too is requeued
    box = {"x": Interval(0, 8)}
    assert _revise([expr("x <= x / 2 + 1")], box)
    assert box["x"].hi < 3


@pytest.mark.parametrize("text, watched", [
    ("x <= 3", set()),
    ("3 = x", set()),
    ("x >= 2 * 3", set()),
    ("x < 3", {"x"}),
    ("x <= y", {"x", "y"}),
    ("x <= x + 1", {"x"}),
    ("x * x <= 4", {"x"}),
])
def test_a_revised_bound_on_one_variable_watches_none(text, watched):
    """A non-strict bound of a bare variable by a constant holds in every
    box inside the one it narrowed, so no narrowing requeues it."""
    assert _watched(expr(text), {}) == watched


def test_an_empty_meet_drops_a_product_unrevised():
    one, two = Fraction(1), Fraction(2)
    assert _meet({"x": Interval(two, None)}, {"x": Interval(None, one)}) is None
    meet = _meet({"x": Interval(one, two), "y": FULL_INTERVAL}, {"x": Interval(None, one)})
    assert meet == {"x": Interval(one, one), "y": FULL_INTERVAL}
    # the second conjunct does not branch, so no product is revised: the two
    # that pair x >= 2 with x <= 1 are dropped by their boxes alone
    first = "(x >= 2 and (y < 0 or y > 1) or w = 0)"
    second = "(x <= 1 and (z < 0 or x > 5) or false)"
    lists = _dnf_atom_lists(nnf(expr(f"{first} and {second}")), 4096)
    assert [atoms for atoms, *_ in lists] == [[expr("w = 0"), expr("x <= 1"), expr("z < 0")]]
    zero = Fraction(0)
    assert lists[0][1] == {"w": Interval(zero, zero), "x": Interval(None, one), "z": Interval(None, zero)}


# ---------------------------------------------------------------------------
# sample_falsify

def test_sampler_false_formula_none():
    assert sample_falsify(expr("false"), budget=10) is None


def test_sampler_contradiction_none():
    assert sample_falsify(expr("r = 3 and not (r = 3)"), budget=1000) is None


def test_sampler_finds_point_under_parallel_resistance():
    formula = expr("r < 1 / (1 / r1 + 1 / r2)")
    b = box(r=(0, 1), r1=(1, 2), r2=(1, 2))
    witness = sample_falsify(formula, b, budget=1000, seed=42)
    assert witness is not None
    assert eval_assertion(formula, witness)


def test_sampler_propagates_equalities_to_exact_targets():
    # r is forced to exactly 2/3; blind sampling would never hit it
    formula = expr("r1 = 1 and r2 = 2 and r = 1 / (1 / r1 + 1 / r2) and r < 1")
    witness = sample_falsify(formula, budget=50, seed=0)
    assert witness is not None
    assert witness["r"] == Fraction(2, 3)
    assert eval_assertion(formula, witness)


def test_sampler_draws_inside_a_point_box():
    # no sampling denominator is a multiple of 7, so every draw is the end
    point = box(x=(Fraction(1, 7), Fraction(1, 7)))
    assert sample_falsify(expr("x * x = 1/49"), point, budget=1) == {"x": Fraction(1, 7)}


def test_sampler_draws_inside_the_box_it_is_given():
    rng = random.Random(2024)
    ends = [Fraction(-3 * 10**6), Fraction(-7, 3), Fraction(0), Fraction(1, 7), Fraction(5), Fraction(4 * 10**6)]
    for trial in range(3000):
        lo, hi = sorted(rng.choices(ends, k=2))  # equal ends make a point
        iv = Interval(rng.choice([lo, None]), rng.choice([hi, None]))
        assert iv.contains(_draw(rng, iv, wide=trial % 5 == 4)), iv
    # every draw sample_falsify makes for a formula that any point satisfies
    for seed in range(200):
        b = {"x": Interval(None, Fraction(-2 * 10**6)), "y": Interval(Fraction(3, 2), None), "z": Interval(Fraction(2, 3), Fraction(2, 3))}
        witness = sample_falsify(expr("x <= x + 1 and y * z <= y * z + 1"), b, budget=1, seed=seed)
        assert all(b[v].contains(witness[v]) for v in b)


def test_sampler_input_guards():
    with pytest.raises(ValueError, match="budget must be >= 1"):
        sample_falsify(expr("x = 1"), budget=0)
    # an undefined forced value drops every propagated equality
    assert sample_falsify(expr("y = 0 and x = 1 / y"), budget=20) is None


def test_system_to_assertion_skips_ground_constraints():
    assert system_to_assertion(LinearSystem((c({}, -1),))) == BoolLit(False)
    assert system_to_assertion(LinearSystem((c({}, 1), c({"x": 2}, 3)))) == expr("2 * x <= 3")


def test_sampler_deterministic_given_seed():
    formula = expr("x + y = 3 and x >= 0")
    one = sample_falsify(formula, budget=500, seed=9)
    two = sample_falsify(formula, budget=500, seed=9)
    assert one == two


# ---------------------------------------------------------------------------
# enumerate_models

def test_enumerate_point():
    models = enumerate_models(expr("r = 3"), grid(r=[0, 1, 2, 3]))
    assert models == {(("r", Fraction(3)),)}


def test_enumerate_additive_triples():
    # oracle: exhaustive enumeration of the 64 triples leaves the 10
    # ordered pairs with sum <= 3
    g = grid(r=[0, 1, 2, 3], r1=[0, 1, 2, 3], r2=[0, 1, 2, 3])
    models = enumerate_models(expr("r = r1 + r2"), g)
    expected = {
        (("r", Fraction(a + b)), ("r1", Fraction(a)), ("r2", Fraction(b)))
        for a in range(4)
        for b in range(4)
        if a + b <= 3
    }
    assert models == expected
    assert len(models) == 10


def test_enumerate_false_empty():
    assert enumerate_models(expr("false"), grid(r=[0])) == frozenset()


def test_enumerate_missing_variable():
    with pytest.raises(GridIncomplete):
        enumerate_models(expr("r = q"), grid(r=[0]))


# ---------------------------------------------------------------------------
# ladder behavior

def test_ladder_interval_proof_for_nonlinear_unsat():
    # forced r = 2/3 by propagation; claiming r < 2/3 is interval-refutable
    formula = expr("r1 = 1 and r2 = 2 and r = 1 / (1 / r1 + 1 / r2) and r < 2/3")
    result = decide_satisfiability(formula)
    assert result.status == "unsat"


def test_ladder_unknown_is_honest():
    # x * x = 2 has no rational solution; the ladder cannot prove or refute
    result = decide_satisfiability(expr("x * x = 2"))
    assert result.status in ("unknown", "unsat")
    assert result.status == "unknown"


def test_dnf_cap_degrades_to_sampling():
    formula = expr(" and ".join(f"x{i} != 0" for i in range(8)))
    result = decide_satisfiability(formula, EngineOptions(dnf_cap=16, samples=500))
    assert result.status == "sat"
    assert all(v != 0 for v in result.witness.values())


def _rand_term(rng, names, depth):
    if depth == 0 or rng.random() < 0.45:
        return rng.choice(names + [str(rng.randint(-3, 3))])
    op = rng.choice("++-*/")
    return f"({_rand_term(rng, names, depth - 1)} {op} {_rand_term(rng, names, depth - 1)})"


def _rand_formula(rng, names, depth):
    """Mixed linear/nonlinear formula text with divisions, negations and
    implications."""
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.1:
            return rng.choice(["true", "false"])
        op = rng.choice(["<=", "<", "=", ">=", ">", "!="])
        return f"{_rand_term(rng, names, 2)} {op} {_rand_term(rng, names, 2)}"
    a = _rand_formula(rng, names, depth - 1)
    b = _rand_formula(rng, names, depth - 1)
    if rng.random() < 0.2:
        return f"not ({a})"
    return f"({a}) {rng.choice(['and', 'or', 'implies'])} ({b})"


def test_ladder_never_contradicts_enumeration_oracle():
    """Randomized cross-check over mixed linear/nonlinear formulas: sat
    witnesses re-evaluate exactly and unsat claims survive grid
    enumeration."""
    rng = random.Random(31337)
    halves = [Fraction(k, 2) for k in range(-6, 7)]
    for trial in range(400):
        names = [f"x{j}" for j in range(rng.randint(1, 3))]
        formula = expr(_rand_formula(rng, names, rng.randint(1, 3)))
        result = decide_satisfiability(formula, EngineOptions(samples=200, seed=trial))
        fv = sorted(free_vars(formula))
        if result.status == "sat":
            full = {v: Fraction(0) for v in fv}
            full.update(result.witness)
            assert eval_assertion(formula, full)
        elif result.status == "unsat" and fv:
            g = FiniteGrid.of({v: halves for v in fv})
            assert not enumerate_models(formula, g)


_HARMONIC3 = (
    "1 <= a and a <= 2 and 1 <= b and b <= 2 and 1 <= c and c <= 2 and 0 <= u and u <= 1"
    " and r = 1 / (1 / a + 1 / b + 1 / c) and not r = 1/3"
)


@pytest.mark.parametrize("samples", [50, 10000])
def test_sampling_draws_in_the_box_interval_contraction_left(samples):
    # blind draws from [-10, 10] put a, b and c in [1, 2] and u in [0, 1]
    # less than once in 10,000 tries, and r then still has to miss 1/3
    formula = expr(_HARMONIC3)
    result = decide_satisfiability(formula, EngineOptions(samples=samples))
    assert result.status == "sat"
    assert eval_assertion(formula, result.witness)
    assert Fraction(1, 3) < result.witness["r"] <= Fraction(2, 3)


def test_sampling_leaves_a_box_that_holds_no_model():
    # no model lies in x in [0, 1]: sampling draws from the carried box instead
    result = decide_satisfiability(expr("x >= 5 and x * x = 36"), EngineOptions(box={"x": Interval(Fraction(0), Fraction(1))}))
    assert result == SatResult("sat", witness={"x": Fraction(6)})


def test_banded_parallel3_exact_refinement_is_falsified(tmp_path):
    from sccheck.cli import CheckOptions, run_check

    spec = tmp_path / "parallel3.scspec"
    spec.write_text(
        "quantity voltage;\nquantity current;\nquantity resistance = voltage / current;\n"
        "component Cell { r: resistance; u: voltage; }\n"
        "operator parallel3(a0: Cell, a1: Cell, a2: Cell) -> Cell {\n"
        "  r = 1 / (1 / a0.r + 1 / a1.r + 1 / a2.r); u = a0.u; a1.u = a0.u; a2.u = a0.u;\n}\n"
        "contract Part : Cell { assume 0 <= u and u <= 1; guarantee 1 <= r and r <= 2; }\n"
        "contract Exact : Cell { assume 0 <= u and u <= 1; guarantee r = 1/3; }\n"
        "refinement parallel3Exact : compose parallel3(Part as a0, Part as a1, Part as a2) <: Exact;\n"
    )
    _, report = run_check([str(spec)], CheckOptions(deterministic=True))
    [verdict] = [ch["verdict"] for ob in report["obligations"] for ch in ob["checks"] if ch["kind"] == "refinement"]
    assert verdict["status"] == "falsified" and verdict["side"] == "implementation"
    u, r = Fraction(verdict["witness"]["u"]), Fraction(verdict["witness"]["r"])
    assert 0 <= u <= 1 and Fraction(1, 3) < r <= Fraction(2, 3)


def test_a_negated_existential_reads_unknown():
    result = decide_satisfiability(Not(Exists(("y",), expr("x = y"))))
    assert result == SatResult("unknown", reason="universally quantified residue")


@pytest.mark.parametrize("text, status, counts", [
    ("x >= 1 and x <= 0", "unsat", (1, 1, 0)),
    ("x >= 1 and y <= 0", "sat", (1, 1, 1)),
    # interval contraction leaves x * x = 4 open, and sampling meets x = 2
    ("x * x = 4", "sat", (1, 1, 2)),
])
def test_a_query_is_normalized_once(monkeypatch, text, status, counts):
    """Boolean simplification and the prenex pass run once per query, and
    free variables are gathered only to complete a witness and to sample."""
    calls = {name: 0 for name in ("simplify_bools", "prenex_exists", "free_vars")}
    for name in calls:
        def counting(*args, original=getattr(engine, name), name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(engine, name, counting)
    assert decide_satisfiability(expr(text)).status == status
    assert tuple(calls.values()) == counts


def test_dnf_cap_on_unsat_formula_surfaces_as_unknown():
    text = " and ".join(f"x{i} != 0" for i in range(8)) + " and x0 = 0"
    result = decide_satisfiability(expr(text), EngineOptions(dnf_cap=16, samples=200))
    assert result.status == "unknown"
    assert "16" in result.reason
    verdict = check_implication(expr(text), expr("false"), EngineOptions(dnf_cap=16, samples=200))
    assert verdict.status is Status.UNKNOWN


# ---------------------------------------------------------------------------
# the box steers sampling and never refutes

@pytest.mark.parametrize(
    "text,opts",
    [
        ("x * x > 100000000000000", EngineOptions()),  # x = 2*10^7
        ("x * y = 100000000000000 and x = y", EngineOptions()),  # x = y = 10^7
        ("x * x = 4", EngineOptions(box={"x": Interval(Fraction(0), Fraction(1))})),  # x = 2
    ],
    ids=["beyond-default-bound", "square-beyond-default-bound", "outside-user-box"],
)
def test_satisfiable_outside_the_box_is_never_unsat(text, opts):
    formula = expr(text)
    result = decide_satisfiability(formula, opts)
    assert result.status != "unsat"
    if result.status == "sat":
        full = {v: Fraction(0) for v in free_vars(formula)}
        full.update(result.witness)
        assert eval_assertion(formula, full)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.integers(-4, 3), st.integers(0, 3))
def test_box_never_changes_whether_a_formula_is_unsat(seed, lo, width):
    rng = random.Random(seed)
    names = [f"x{j}" for j in range(rng.randint(1, 3))]
    formula = expr(_rand_formula(rng, names, rng.randint(1, 3)))
    b = {v: Interval(Fraction(lo), Fraction(lo + width)) for v in names}
    boxed = decide_satisfiability(formula, EngineOptions(samples=50, box=b))
    plain = decide_satisfiability(formula, EngineOptions(samples=50))
    assert (boxed.status == "unsat") == (plain.status == "unsat")
