import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import CELL, component, contract, expr, grid, parallel_op, scaled_op, series_op
from sccheck.algebra import (
    ArityMismatch,
    GridTooLarge,
    SubjectTypeMismatch,
    TypeMismatch,
    check_compatibility,
    check_consistency,
    check_refinement,
    compose_contracts,
    compose_finite,
    interpret_composed_finite,
    verify_min_characterization,
)
from sccheck import algebra, engine
from sccheck.engine import EngineOptions, Status, check_implication
from sccheck.formatter import format_expr
from sccheck.loader import elaborate
from sccheck.model import (
    And,
    BoolLit,
    Exists,
    FALSE,
    Or,
    disj,
    eval_assertion,
    freeze_valuation,
    interpret_finite,
    refines_finite,
)
from sccheck.parser import parse_spec
from test_composition_soundness import OPTIONS as SOUNDNESS_OPTIONS, SEEDS as SOUNDNESS_SEEDS, random_composition

C1 = contract("C1", CELL, "true", "r = 1")
C2 = contract("C2", CELL, "true", "r = 2")
SYS3 = contract("Sys", CELL, "true", "r = 3")


def compose(op, *parts, names=("c1", "c2", "c3")):
    return compose_contracts(op, list(zip(names, parts)))


# ---------------------------------------------------------------------------
# compose_contracts

def test_series_composition_entails_sum():
    composed = compose(series_op(), C1, C2)
    assert composed.projection == "exact"
    v = check_implication(composed.contract.guarantee, expr("r = 3"))
    assert v.status is Status.PROVED


def test_scaled_composition_reproduces_ambiguity():
    # same type signature as series, different term signature, same r = 3
    composed = compose(scaled_op(), C1, C2)
    assert composed.projection == "exact"
    v = check_implication(composed.contract.guarantee, expr("r = 3"))
    assert v.status is Status.PROVED


def test_parallel_composition_keeps_residue_and_entails_two_thirds():
    composed = compose(parallel_op(), C1, C2)
    assert composed.projection == "quantified-residue"
    interp = interpret_composed_finite(composed, grid(r=[0, Fraction(2, 3), 1, 2, 3]))
    impls = {dict(v)["r"] for v in interp.implementations}
    assert impls == {Fraction(2, 3)}


def test_compose_arity_and_type_errors():
    with pytest.raises(ArityMismatch):
        compose_contracts(series_op(), [("c1", C1)])
    other = contract("K", component("Other", "r:resistance"), "true", "true")
    with pytest.raises(TypeMismatch):
        compose_contracts(series_op(), [("c1", C1), ("c2", other)])
    with pytest.raises(ArityMismatch, match="duplicate binding names"):
        compose_contracts(series_op(), [("c", C1), ("c", C1)])


def test_infeasible_child_projects_to_false():
    empty = contract("E", CELL, "true", "r >= 1 and r <= 0")
    composed = compose_contracts(series_op(), [("c1", empty), ("c2", C1)])
    assert composed.projection == "exact"
    assert composed.contract.guarantee == BoolLit(False)


def test_a_conditional_child_guarantee_projects_exactly():
    # c1 guarantees r = 2 only from r >= 1 on, and nothing past r = 3; c2 guarantees r = 1
    conditional = contract("K", CELL, "r <= 3", "r >= 1 implies r = 2")
    composed = compose(series_op(), conditional, C1)
    assert composed.projection == "exact"
    assert check_implication(composed.contract.guarantee, expr("r < 2 or r = 3 or r > 4")).status is Status.PROVED
    assert check_implication(composed.contract.assumption, expr("r <= 4")).status is Status.PROVED
    g = grid(r=[0, 1, 2, 3, 4, 5], **{"c1.r": [-1, 0, 1, 2, 3, 4], "c2.r": [0, 1, 2]})
    assert verify_min_characterization(composed, g, interpret_composed_finite(composed, g))


def test_a_residue_is_kept_before_any_system_is_projected(monkeypatch):
    projected = []
    fm_project = algebra.fm_project
    monkeypatch.setattr(algebra, "fm_project", lambda system, variables: projected.append(system) or fm_project(system, variables))
    # the first disjunct is linear, the second holds the product
    bounded = contract("B", CELL, "true", "r <= 0 or r * r = 2")
    composed = compose(series_op(), bounded, C1)
    assert composed.projection == "quantified-residue"
    assert projected == []


def test_nontrivial_child_assumptions_projected_into_parent_assumption():
    # child c1 assumes r <= 2; glue forces c1.r = r, so the composed
    # assumption must reject parents with r > 2
    ident = series_op()
    bounded = contract("B", CELL, "r <= 2", "r = r")
    ident_op = type(ident)("wrap", (("a", CELL),), CELL, (expr("r = a.r"),))
    composed = compose_contracts(ident_op, [("a", bounded)])
    assert composed.projection == "exact"
    env = check_implication(expr("r <= 2"), composed.contract.assumption)
    assert env.status is Status.PROVED
    too_wide = check_implication(expr("true"), composed.contract.assumption)
    assert too_wide.status is Status.FALSIFIED


# ---------------------------------------------------------------------------
# compatibility / consistency

def test_compatibility_true_assumption():
    assert check_compatibility(contract("K", CELL, "true", "r = 1")).status is Status.PROVED


def test_compatibility_unsatisfiable_band():
    k = contract("K", component("T", "i:current"), "i >= 1 and i <= 0", "true")
    assert check_compatibility(k).status is Status.FALSIFIED


def test_compatibility_band_with_sample():
    k = contract("K", component("T", "i:current"), "i >= 0 and i <= 10", "true")
    v = check_compatibility(k)
    assert v.status is Status.PROVED
    assert v.witness is not None and Fraction(0) <= v.witness["i"] <= Fraction(10)


def test_consistency_true_guarantee():
    assert check_consistency(contract("K", CELL, "true", "true")).status is Status.PROVED


def test_consistency_contradictory_guarantee():
    k = contract("K", CELL, "true", "r = 1 and r = 2")
    assert check_consistency(k).status is Status.FALSIFIED


def test_consistency_vacuous_when_assumption_false():
    k = contract("K", CELL, "false", "false")
    assert check_consistency(k).status is Status.PROVED


# ---------------------------------------------------------------------------
# refinement

def test_series_refines_sum_spec():
    assert check_refinement(compose(series_op(), C1, C2), SYS3).status is Status.PROVED


def test_parallel_falsifies_sum_spec_with_witness():
    composed = compose(parallel_op(), C1, C2)
    v = check_refinement(composed, SYS3)
    assert v.status is Status.FALSIFIED
    assert v.side == "implementation"
    # the witness satisfies the concrete guarantee body and violates the
    # abstract guarantee, with r pinned to the exact parallel value
    assert v.witness["r"] == Fraction(2, 3)
    assert eval_assertion(composed.guarantee_body, v.witness)
    assert not eval_assertion(SYS3.guarantee, v.witness)


def test_every_contract_refines_itself():
    for k in (C1, C2, SYS3, contract("K", CELL, "r >= 0", "r <= 5")):
        assert check_refinement(k, k).status is Status.PROVED


def test_refinement_subject_mismatch():
    other = contract("K", component("Other", "r:resistance"), "true", "true")
    with pytest.raises(SubjectTypeMismatch):
        check_refinement(C1, other)


def test_refinement_environment_side_falsified():
    narrow = contract("N", CELL, "r >= 1", "r = 1")
    wide = contract("W", CELL, "true", "r = 1")
    v = check_refinement(narrow, wide)
    assert v.status is Status.FALSIFIED and v.side == "environment"
    assert check_refinement(wide, narrow).status is Status.PROVED


def test_refinement_transitive_at_proved_level():
    rng = random.Random(5)
    proved = 0
    for _ in range(200):
        bounds = sorted(rng.randint(-4, 4) for _ in range(3))
        contracts = [
            contract(f"K{i}", CELL, "true", f"r >= {-b} implies r <= {b}")
            for i, b in enumerate(bounds)
        ]
        ab = check_refinement(contracts[0], contracts[1])
        bc = check_refinement(contracts[1], contracts[2])
        ac = check_refinement(contracts[0], contracts[2])
        assert ab.status is not Status.UNKNOWN
        if ab.status is Status.PROVED and bc.status is Status.PROVED:
            assert ac.status is Status.PROVED
            proved += 1
    assert proved > 20


# ---------------------------------------------------------------------------
# finite-semantics equivalence on the corpus

def test_corpus_refinements_agree_with_finite_semantics(corpus_universe):
    for ob in corpus_universe.obligations:
        composed = compose_contracts(ob.operator, ob.bindings)
        verdict = check_refinement(composed, ob.abstract)
        assert verdict.status is not Status.UNKNOWN
        hint = dict(ob.grid_hint)
        values = {}
        for f in composed.contract.subject.field_names():
            values[f] = hint[f]
        for bname, child in composed.bindings:
            for f in child.subject.field_names():
                values[f"{bname}.{f}"] = hint[f]
        g = grid(**values)
        finite = refines_finite(
            interpret_composed_finite(composed, g), interpret_finite(ob.abstract, g)
        )
        assert finite == (verdict.status is Status.PROVED), ob.name


# ---------------------------------------------------------------------------
# term-signature discrimination (the core claim)

def test_same_type_signature_different_term_signature_distinguishable():
    one = contract("One", CELL, "true", "r = 1")
    g = grid(r=[0, 1, 2, 3])
    series_interp = interpret_composed_finite(compose(series_op(), one, one), g)
    scaled_interp = interpret_composed_finite(compose(scaled_op(), one, one), g)
    series_r = {dict(v)["r"] for v in series_interp.implementations}
    scaled_r = {dict(v)["r"] for v in scaled_interp.implementations}
    assert series_r == {Fraction(2)}
    assert scaled_r == {Fraction(3)}
    assert series_interp != scaled_interp
    # and yet both compose (true, r=1), (true, r=2) into refinements of r=3
    assert check_refinement(compose(series_op(), C1, C2), SYS3).status is Status.PROVED
    assert check_refinement(compose(scaled_op(), C1, C2), SYS3).status is Status.PROVED


def test_identity_operator_preserves_interpretation():
    ident = type(series_op())("ident", (("a", CELL),), CELL, (expr("r = a.r"),))
    child = contract("K", CELL, "r >= 0", "r <= 2")
    for g in (grid(r=[0, 1, 2, 3]), grid(r=[-1, Fraction(1, 2), 2]), grid(r=[5])):
        composed = compose_contracts(ident, [("a", child)])
        assert interpret_composed_finite(composed, g) == interpret_finite(child, g)


def test_binding_order_sensitivity_matches_glue_symmetry():
    g = grid(r=[0, 1, 2, 3, 6])
    # scaled glue is not symmetric: swapping bindings changes the meaning
    forward = interpret_composed_finite(compose(scaled_op(), C1, C2), g)
    swapped = interpret_composed_finite(compose(scaled_op(), C2, C1), g)
    assert forward != swapped
    # series glue is symmetric: swapping does not
    s_forward = interpret_composed_finite(compose(series_op(), C1, C2), g)
    s_swapped = interpret_composed_finite(compose(series_op(), C2, C1), g)
    assert s_forward == s_swapped


# ---------------------------------------------------------------------------
# the composition characterization

# a 4-point and a 10-point parent space: minimality is checked on both
CHARACTERIZATION_GRIDS = [grid(r=[0, 1, 2, 3]), grid(r=range(10))]


def _perturbed(composed, **changes):
    return replace(composed, contract=replace(composed.contract, **changes))


def test_min_characterization_holds_for_series():
    composed = compose(series_op(), C1, C2)
    for g in CHARACTERIZATION_GRIDS:
        assert verify_min_characterization(composed, g, interpret_composed_finite(composed, g))
        assert compose_finite(composed, g) == interpret_composed_finite(composed, g)


def _assert_rejected(**changes):
    perturbed = _perturbed(compose(series_op(), C1, C2), **changes)
    for g in CHARACTERIZATION_GRIDS:
        assert not verify_min_characterization(perturbed, g, interpret_composed_finite(perturbed, g)), g


def test_min_characterization_rejects_weakened_guarantee():
    _assert_rejected(guarantee=BoolLit(True))


def test_min_characterization_rejects_strengthened_guarantee():
    # the children implement r = 3, which the strengthened contract forbids
    _assert_rejected(guarantee=FALSE)


def test_min_characterization_rejects_strengthened_assumption():
    composed = compose(series_op(), C1, C2)
    _assert_rejected(assumption=And(composed.contract.assumption, FALSE))


def test_compose_finite_reads_children_and_glue_only():
    # a child assumption r >= 1 breaks every parent the glue relates to
    # c1.r = 0; the composed formulas are never read
    bounded = contract("B", CELL, "r >= 1", "r = 1")
    composed = compose(series_op(), bounded, C2)
    g = grid(r=[0, 1, 2, 3])
    least = compose_finite(_perturbed(composed, assumption=FALSE, guarantee=FALSE), g)
    envs = {dict(v)["r"] for v in least.environments}
    impls = {dict(v)["r"] for v in least.implementations}
    # r = 2 is 0 + 2 with c1 outside its environments, so broken; r = 3 is
    # 1 + 2 and reached
    assert envs == {Fraction(0), Fraction(1), Fraction(3)}
    assert impls == {Fraction(2), Fraction(3)}


def test_min_characterization_grid_guard():
    composed = compose(series_op(), C1, C2)
    big = grid(r=list(range(50)))
    with pytest.raises(GridTooLarge):
        verify_min_characterization(composed, big, interpret_composed_finite(composed, big))


# ---------------------------------------------------------------------------
# projection scope and honest unknowns

def test_exact_projection_mentions_only_parent_fields(corpus_universe):
    from sccheck.model import free_vars

    ob = [o for o in corpus_universe.obligations if o.name == "SysBySeries"][0]
    composed = compose_contracts(ob.operator, ob.bindings)
    assert composed.projection == "exact"
    parent = set(composed.contract.subject.field_names())
    # child voltage/current relations collapse onto parent fields
    assert free_vars(composed.contract.guarantee) <= parent
    assert free_vars(composed.contract.assumption) <= parent


def _parallel_then_series(corpus_universe):
    """series(parallel(R1, R2) as c1, R1 as c2): r = 2/3 + 1."""
    ops = {name: corpus_universe.overloads.candidates(name)[0] for name in ("series", "parallel")}
    r1, r2 = corpus_universe.contracts["R1"], corpus_universe.contracts["R2"]
    inner = compose_contracts(ops["parallel"], [("c1", r1), ("c2", r2)])
    assert inner.projection == "quantified-residue"
    return compose_contracts(ops["series"], [("c1", inner.contract), ("c2", r1)])


def test_a_composed_contract_composes_again(corpus_universe):
    """The inner residue binds c1.r and c2.r, the names the outer
    composition gives its own children's fields; qualifying renames the
    one a prefix would capture, and projection pulls the inner binders out
    and eliminates them with the outer child fields."""
    nested = _parallel_then_series(corpus_universe)
    resistor = nested.contract.subject
    assert check_refinement(nested, contract("A", resistor, "true", "r = 5/3")).status is Status.PROVED
    verdict = check_refinement(nested, contract("B", resistor, "true", "r = 2"))
    assert verdict.status is Status.FALSIFIED and verdict.side == "implementation"
    assert verdict.witness["r"] == Fraction(5, 3)


def test_a_renamed_binder_ranges_over_its_base_fields_grid_line(corpus_universe):
    """The nested residue binds c1.r~1, which a grid over the parent fields
    reads as r. The one implementation is r = 2/3 + 1 and p = 3 + 1."""
    nested = _parallel_then_series(corpus_universe)
    assert "c1.r~1" in format_expr(nested.contract.guarantee)
    g = grid(r=[Fraction(2, 3), 1, Fraction(5, 3), 2], u=[0], i=[0], p=[1, 2, 3, 4])
    interp = interpret_finite(nested.contract, g)
    assert interp.implementations == {freeze_valuation({"r": Fraction(5, 3), "u": 0, "i": 0, "p": 4})}


def test_universal_residue_yields_honest_unknown():
    # nonlinear glue plus a nontrivial child assumption puts a universal
    # quantifier in the composed assumption; deciding it is out of scope
    bounded = contract("B", CELL, "r >= 1", "r <= 2")
    composed = compose(parallel_op(), bounded, bounded)
    assert composed.projection == "quantified-residue"
    v = check_compatibility(composed)
    assert v.status is Status.UNKNOWN
    assert "universal" in v.reason


def _banded_series(n):
    """n cells in series through one current, each assuming a band on it."""
    names = [f"a{k}" for k in range(n)]
    glue = [f"r = {' + '.join(f'{b}.r' for b in names)};", "i = a0.i;"] + [f"{b}.i = a0.i;" for b in names[1:]]
    return (
        "quantity voltage;\nquantity current;\nquantity resistance = voltage / current;\n"
        "component Cell { r: resistance; i: current; }\n"
        f"operator series{n}({', '.join(f'{b}: Cell' for b in names)}) -> Cell {{ {' '.join(glue)} }}\n"
        "contract Part : Cell { assume 0 <= i and i <= 1; guarantee 1 <= r and r <= 2; }\n"
        f"contract Spec : Cell {{ assume 0 <= i and i <= 1; guarantee {n} <= r and r <= {2 * n}; }}\n"
        f"refinement R : compose series{n}({', '.join(f'Part as {b}' for b in names)}) <: Spec;\n"
    )


def _banded_obligation(n):
    universe, diags = elaborate(parse_spec(_banded_series(n)).document)
    assert not diags
    [ob] = universe.obligations
    return ob, compose_contracts(ob.operator, ob.bindings)


def _disjuncts(a):
    return _disjuncts(a.left) + _disjuncts(a.right) if isinstance(a, Or) else [a]


def test_banded_series_projects_to_distinct_systems():
    _, composed = _banded_obligation(2)
    assert composed.projection == "exact"
    # below the band, above it, or the sum of two resistances in [1, 2]
    assert len(_disjuncts(composed.contract.guarantee)) == 3
    assert format_expr(composed.contract.assumption) == "not (i < 0 or -i < -1)"


def test_six_cells_in_series_stay_exact_and_proved():
    # unpruned, the assumption body distributes into 3^6 * 12 combinations,
    # past the 4096 cap
    ob, composed = _banded_obligation(6)
    assert composed.projection == "exact"
    assert check_refinement(composed, ob.abstract).status is Status.PROVED
    assert check_compatibility(composed).status is Status.PROVED


@pytest.mark.parametrize("n", [8, 10])
def test_eight_and_ten_cells_in_series_stay_exact_and_proved(n):
    # distributed flat, the bodies pass the 4096 cap and leave residues
    ob, composed = _banded_obligation(n)
    assert composed.projection == "exact"
    assert check_refinement(composed, ob.abstract).status is Status.PROVED
    assert check_compatibility(composed).status is Status.PROVED


def test_the_cap_bounds_the_systems_each_stage_keeps():
    # the largest part, `not (A_0 and A_1 and A_2)`, has 6 disjuncts, and
    # the largest stage keeps 10 systems
    ob, _ = _banded_obligation(3)
    for cap, projection in ((9, "quantified-residue"), (10, "exact")):
        assert compose_contracts(ob.operator, ob.bindings, EngineOptions(dnf_cap=cap)).projection == projection


def _flat_projection(body, elim_vars, cap):
    """The reference projection: the body's whole DNF, each distinct system
    projected once, each distinct result kept once, subsumed ones dropped."""
    residue = Exists(tuple(elim_vars), body)
    try:
        dnf = engine.normalize(engine.nnf(body), cap)
    except engine.DnfCapExceeded:
        return residue
    if any(isinstance(d, engine.NonlinearDisjunct) for d in dnf.disjuncts):
        return residue
    systems = {}
    for d in dnf.disjuncts:
        projected = engine.fm_project(d, list(elim_vars))
        if not projected.trivially_unsat():
            systems.setdefault(frozenset(projected.constraints), projected)
    kept = [s for key, s in systems.items() if not any(other < key for other in systems)]
    return disj([engine.system_to_assertion(s) for s in kept])


def test_projection_by_stages_is_the_flat_projection(monkeypatch, corpus_universe):
    made = []  # (body, elim_vars, cap, projection) of every projection
    project_exists = algebra._project_exists

    def recording(body, elim_vars, cap):
        made.append((body, elim_vars, cap, project_exists(body, elim_vars, cap)))
        return made[-1][-1]

    monkeypatch.setattr(algebra, "_project_exists", recording)
    for n in range(2, 7):
        _banded_obligation(n)
    for ob in corpus_universe.obligations:
        compose_contracts(ob.operator, ob.bindings)
    for seed in SOUNDNESS_SEEDS:
        universe, _ = elaborate(parse_spec(random_composition(seed)).document)
        for ob in universe.obligations:
            compose_contracts(ob.operator, ob.bindings, SOUNDNESS_OPTIONS)
    monkeypatch.undo()
    exact = 0
    for body, elim_vars, cap, projection in made:
        reference = _flat_projection(body, elim_vars, cap)
        assert isinstance(projection, Exists) == isinstance(reference, Exists), format_expr(body)
        if not isinstance(reference, Exists):
            exact += 1
            assert check_implication(projection, reference).status is Status.PROVED, format_expr(body)
            assert check_implication(reference, projection).status is Status.PROVED, format_expr(body)
    assert (exact, len(made)) == (30, 109)


def test_composition_projects_each_distinct_system_once(monkeypatch):
    """Each field is projected out at exactly one stage, so the variables
    passed to `fm_project` name the stage: no (system, variables) pair may
    repeat within a body. Projecting the flat DNF of six cells took 637
    calls."""
    bodies = []  # the (system, variables) pairs projected for each body, in order
    project_exists, fm_project = algebra._project_exists, algebra.fm_project
    monkeypatch.setattr(algebra, "_project_exists", lambda *args: bodies.append([]) or project_exists(*args))
    monkeypatch.setattr(
        algebra, "fm_project", lambda system, variables: bodies[-1].append((system, tuple(variables))) or fm_project(system, variables)
    )
    for n, projections in ((3, 72), (6, 288), (8, 512)):
        bodies.clear()
        _banded_obligation(n)
        assert len(bodies) == 2 and all(bodies)
        assert all(len(set(pairs)) == len(pairs) for pairs in bodies)
        assert sum(map(len, bodies)) == projections


def test_distribution_carries_each_conjunctions_box(monkeypatch):
    """Normalizing the three-cell banded assumption body evaluates 3,640
    terms with `interval_eval`, recursive calls included. Contracting each
    partial conjunction again from an unbounded box took 6,459. It
    linearizes each of its 22 distinct atoms once; linearizing every atom
    of every disjunct took 456 calls. Its 48 conjunctions make 38 distinct
    linear systems, each kept once."""
    bodies = []
    project_exists = algebra._project_exists
    monkeypatch.setattr(
        algebra, "_project_exists", lambda body, *args: bodies.append(engine.nnf(body)) or project_exists(body, *args)
    )
    _banded_obligation(3)
    monkeypatch.undo()
    calls = 0
    original = engine.interval_eval

    def counting(term, box):
        nonlocal calls
        calls += 1
        return original(term, box)

    monkeypatch.setattr(engine, "interval_eval", counting)
    linearized = 0
    linearize_atom = engine._linearize_atom

    def counting_linearize(atom):
        nonlocal linearized
        linearized += 1
        return linearize_atom(atom)

    monkeypatch.setattr(engine, "_linearize_atom", counting_linearize)
    assert len(engine.normalize(bodies[-1]).disjuncts) == 38
    assert calls <= 3640
    assert linearized <= 22
