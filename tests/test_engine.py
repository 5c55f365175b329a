import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import expr, grid
from sccheck.engine import (
    Constraint,
    DnfCapExceeded,
    EngineOptions,
    Interval,
    LinearSystem,
    NonlinearDisjunct,
    Status,
    check_implication,
    decide_satisfiability,
    enumerate_models,
    fm_eliminate,
    fm_project,
    fm_witness,
    interval_eval,
    normalize,
    sample_falsify,
    system_to_assertion,
)
from sccheck.model import (
    And,
    FiniteGrid,
    GridIncomplete,
    Not,
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
    dnf = normalize(expr("not (i >= 0 and i <= 2)"))
    assert len(dnf.disjuncts) == 2
    assert set(dnf.disjuncts) == {
        LinearSystem((c({"i": 1}, 0, strict=True),)),   # i < 0
        LinearSystem((c({"i": -1}, -2, strict=True),)),  # i > 2
    }


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


# ---------------------------------------------------------------------------
# intervals

def box(**kw):
    return {k: Interval(Fraction(a), Fraction(b)) for k, (a, b) in kw.items()}


def test_interval_product_of_positives():
    iv, singular = interval_eval(expr("u * i"), box(u=(1, 2), i=(3, 4)))
    assert (iv.lo, iv.hi) == (3, 8)
    assert not singular


def test_interval_division_through_zero_flags_singularity():
    iv, singular = interval_eval(expr("1 / r"), box(r=(-1, 1)))
    assert singular
    assert iv.lo is None and iv.hi is None


def test_interval_parallel_resistance_point():
    iv, singular = interval_eval(expr("1 / (1 / r1 + 1 / r2)"), box(r1=(2, 2), r2=(2, 2)))
    assert not singular
    assert (iv.lo, iv.hi) == (1, 1)


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
        iv, _ = interval_eval(term, b)
        try:
            value = eval_term(term, sample)
        except Exception:
            continue
        assert iv.contains(value)
        passed += 1
    assert passed > 600


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
