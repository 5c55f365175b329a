import io
import json
import pathlib
import runpy
from fractions import Fraction

import jsonschema
import pytest

from sccheck.cli import (
    CheckOptions,
    _off_grid,
    exit_code_for,
    main,
    parse_grid_flag,
    render_text,
    run_check,
)
from sccheck.engine import EngineOptions, Status, Verdict
from sccheck.model import FiniteGrid

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = str(ROOT / "corpus" / "resistor.scspec")
GOLDEN = ROOT / "tests" / "data" / "corpus_oracle_report.json"
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())

P = Verdict(Status.PROVED)
F = Verdict(Status.FALSIFIED)
U = Verdict(Status.UNKNOWN)


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize(
    "verdicts,errors,expected",
    [
        ([P, P], False, 0),
        ([], False, 0),
        ([P, F, U], False, 1),
        ([F], False, 1),
        ([P, U], False, 2),
        ([U, U], False, 2),
        ([P], True, 3),
        ([F], True, 3),
    ],
)
def test_exit_code_is_pure_function_of_verdicts(verdicts, errors, expected):
    assert exit_code_for(verdicts, errors) == expected


# ---------------------------------------------------------------------------
# flag parsing

def test_parse_grid_flag():
    parsed = parse_grid_flag("r=0,1,2/3;;u=-1;")
    assert parsed["r"][2] == pytest.approx(2 / 3)
    assert str(parsed["r"][2]) == "2/3"
    assert str(parsed["u"][0]) == "-1"


@pytest.mark.parametrize(
    "flags",
    [
        ["--grid", "r=x"],
        ["--grid", "r=1/0"],
        ["--samples", "0", "--dnf-cap", "0"],
        ["--dnf-cap", "-5"],
        ["--grid", "r"],
        ["--grid", "r=1;r=2"],
    ],
    # each row keeps the id it had beside the rows of the removed --box flag
    ids=[f"flags{i}" for i in (0, 1, 3, 5, 6, 7)],
)
def test_bad_flag_values_are_input_errors(flags, capsys):
    code = main(["check", CORPUS, *flags])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("sccheck: error: ")


# ---------------------------------------------------------------------------
# pipeline runs

def test_series_obligation_proved_exit_zero(capsys):
    code = main(["check", CORPUS, "--obligation", "SysBySeries"])
    out = capsys.readouterr().out
    assert code == 0
    assert "refinement Sys: proved" in out
    # a repeated obligation is checked once
    assert main(["check", CORPUS, "--obligation", "SysBySeries", "--obligation", "SysBySeries"]) == 0
    assert capsys.readouterr().out == out


def test_parallel_obligation_falsified_exit_one(capsys):
    code = main(["check", CORPUS, "--obligation", "SysByParallel", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    checks = report["obligations"][0]["checks"]
    refinement = [c for c in checks if c["kind"] == "refinement"][0]
    assert refinement["verdict"]["status"] == "falsified"
    assert refinement["verdict"]["side"] == "implementation"
    assert refinement["verdict"]["witness"]["r"] == "2/3"


def test_dimension_error_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.scspec"
    bad.write_text(
        "quantity voltage;\n"
        "quantity current;\n"
        "component C { u: voltage; i: current; }\n"
        "operator o(a: C, b: C) -> C { u = a.u + b.i; }\n"
        "contract K : C { assume true; guarantee true; }\n"
        "refinement R : compose o(K as c1, K as c2) <: K;\n"
    )
    code = main(["check", str(bad), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    diag = [d for d in report["diagnostics"] if d["code"] == "dimension-mismatch"][0]
    assert diag["file"] == str(bad)
    assert diag["line"] == 4 and diag["col"] is not None


def test_unknown_obligation_exit_three(capsys):
    code = main(["check", CORPUS, "--obligation", "Nope"])
    assert code == 3


def test_report_validates_against_schema(capsys):
    main(["check", CORPUS, "--oracle", "--deterministic", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)


def test_error_report_validates_against_schema(tmp_path, capsys):
    bad = tmp_path / "bad.scspec"
    bad.write_text("quantity ;")
    main(["check", str(bad), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)


def test_deterministic_runs_byte_identical(capsys):
    args = ["check", CORPUS, "--deterministic", "--seed", "7", "--format", "json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first.encode() == second.encode()


def test_stdin_input(capsys, monkeypatch):
    text = pathlib.Path(CORPUS).read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["check", "-", "--obligation", "SysBySeries", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["inputs"][0]["path"] == "-"
    assert len(report["inputs"][0]["sha256"]) == 64


def test_oracle_cross_checks_agree(capsys):
    code = main(["check", CORPUS, "--oracle", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1  # parallel is falsified
    for ob in report["obligations"]:
        oracle = ob["oracle"]
        assert oracle["finite_cross_check"] == "agree"
        assert oracle["min_characterization"] is True


def test_oracle_interprets_each_composed_contract_once(monkeypatch):
    import sccheck.algebra
    import sccheck.cli

    calls = []
    for module in (sccheck.algebra, sccheck.cli):
        def counted(*args, _original=module.interpret_composed_finite):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(module, "interpret_composed_finite", counted)
    run_check([CORPUS], CheckOptions(deterministic=True, oracle=True))
    assert len(calls) == 3  # one per corpus obligation


def test_oracle_runs_only_when_asked():
    # the corpus obligations carry grid hints, but a hint alone runs nothing
    _, report = run_check([CORPUS], CheckOptions(deterministic=True))
    assert report["obligations"]
    assert not any("oracle" in ob for ob in report["obligations"])
    assert "oracle:" not in render_text(report)


def _oracle_eval_terms(monkeypatch, paths):
    """The report of ``run_check --oracle`` on the paths, and the number of
    ``model.eval_term`` calls made while ``interpret_composed_finite`` runs."""
    import sccheck.algebra
    import sccheck.cli
    import sccheck.model

    inside, calls = [False], [0]

    def counted(*args, _original=sccheck.model.eval_term):
        calls[0] += inside[0]
        return _original(*args)

    monkeypatch.setattr(sccheck.model, "eval_term", counted)
    for module in (sccheck.algebra, sccheck.cli):
        def interpreting(*args, _original=module.interpret_composed_finite):
            inside[0] = True
            try:
                return _original(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(module, "interpret_composed_finite", interpreting)
    _, report = run_check(paths, CheckOptions(deterministic=True, oracle=True))
    return report, calls[0]


def test_oracle_filters_each_residue_grid_once(monkeypatch):
    # enumerating every child tuple at every parent point made 110,480 calls
    _, calls = _oracle_eval_terms(monkeypatch, [CORPUS])
    assert 0 < calls < 11_048


def test_oracle_on_a_three_child_harmonic_residue(monkeypatch, tmp_path):
    spec = tmp_path / "par3.scspec"
    spec.write_text(
        "quantity q;\n"
        "component T { x: q; y: q; }\n"
        "operator par3(a: T, b: T, c: T) -> T { x = 1 / (1 / a.x + 1 / b.x + 1 / c.x); y = a.y; b.y = a.y; c.y = a.y; }\n"
        "contract K : T { assume x >= 1; guarantee x <= 2 and y >= x - 1; }\n"
        "contract S : T { assume x >= 1; guarantee x <= 1; }\n"
        "refinement R : compose par3(K as c1, K as c2, K as c3) <: S { x = 0, 1, 2, 3; y = 0, 1, 2; }\n"
    )
    report, calls = _oracle_eval_terms(monkeypatch, [str(spec)])
    [ob] = report["obligations"]
    assert ob["oracle"] == {
        "finite_refines": True,
        "finite_cross_check": "skipped: counterexample off the grid",
        "min_characterization": True,
    }
    # enumerating every child tuple at every parent point made 863,162 calls
    assert 0 < calls < 86_316


def test_falsified_refinement_off_the_grid_is_no_disagreement(tmp_path, capsys):
    # the environment-side counterexample (x=55/38, y=-8) lies off the grid,
    # where the finite refinement holds
    spec = tmp_path / "two.scspec"
    spec.write_text(
        "quantity q;\n"
        "component T { x: q; y: q; }\n"
        "operator two(a: T, b: T) -> T { x = 1 / (1 / a.x + 1 / b.x); y = a.y; b.y = a.y; }\n"
        "contract C : T { assume x >= 1; guarantee x <= 2 * y; }\n"
        "refinement R : compose two(C as c1, C as c2) <: C { x = 1, 2; y = 0, 1; }\n"
    )
    code = main(["check", str(spec), "--oracle", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    [ob] = report["obligations"]
    refinement = ob["checks"][-1]["verdict"]
    assert refinement["status"] == "falsified" and refinement["side"] == "environment"
    assert ob["oracle"]["finite_refines"] is True
    assert ob["oracle"]["finite_cross_check"] == "skipped: counterexample off the grid"


def test_undefined_glue_relates_nothing_on_both_oracle_sides(tmp_path):
    # a child value 0 makes the harmonic glue undefined: that assembly
    # reaches no parent point, and breaks none
    spec = tmp_path / "par.scspec"
    spec.write_text(
        "quantity q;\n"
        "component T { x: q; }\n"
        "operator par(a: T, b: T) -> T { x = 1 / (1 / a.x + 1 / b.x); }\n"
        "contract K : T { assume x >= 1; guarantee x = 2; }\n"
        "contract S : T { assume true; guarantee true; }\n"
        "refinement R : compose par(K as c1, K as c2) <: S { x = 0, 1, 2; }\n"
    )
    code, report = run_check([str(spec)], CheckOptions(oracle=True, deterministic=True))
    assert code == 1
    [ob] = report["obligations"]
    refinement = ob["checks"][-1]["verdict"]
    assert refinement["status"] == "falsified" and refinement["side"] == "environment"
    assert ob["oracle"] == {
        "finite_refines": True,
        "finite_cross_check": "skipped: counterexample off the grid",
        "min_characterization": True,
    }


def test_undefined_guarantee_is_a_counterexample_on_both_oracle_sides(tmp_path):
    # the abstract guarantee does not hold at x = 0, where it is undefined
    spec = tmp_path / "undefined.scspec"
    spec.write_text(
        "quantity q;\n"
        "component T { x: q; }\n"
        "operator id(a: T) -> T { x = a.x; }\n"
        "contract C : T { assume true; guarantee true; }\n"
        "contract A : T { assume true; guarantee (1 / x) * 0 = 0; }\n"
        "refinement R : compose id(C as c) <: A { x = -1, 0, 1; }\n"
    )
    code, report = run_check([str(spec)], CheckOptions(oracle=True, deterministic=True))
    assert code == 1
    [ob] = report["obligations"]
    assert ob["checks"][-1]["verdict"] == {"status": "falsified", "witness": {"x": "0"}, "side": "implementation"}
    assert ob["oracle"]["finite_refines"] is False
    assert ob["oracle"]["finite_cross_check"] == "agree"


def test_bound_outside_the_contract_never_falsifies(tmp_path, capsys):
    # x = y = 10^7 implements the guarantee, beyond the default sampling box
    spec = tmp_path / "square.scspec"
    spec.write_text(
        "quantity q;\n"
        "component P { x: q; y: q; }\n"
        "operator id(a: P) -> P { x = a.x; y = a.y; }\n"
        "contract C : P { assume true; guarantee x * y = 100000000000000 and x = y; }\n"
        "refinement R : compose id(C as c) <: C;\n"
    )
    code = main(["check", str(spec), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code != 1
    assert not report["diagnostics"]
    assert all(c["verdict"]["status"] != "falsified" for c in report["obligations"][0]["checks"])


def test_obligations_sorted_lexicographically(capsys):
    main(["check", CORPUS, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    names = [ob["name"] for ob in report["obligations"]]
    assert names == sorted(names)


def test_text_report_marks(capsys):
    main(["check", CORPUS])
    out = capsys.readouterr().out
    assert "✓" in out and "✗" in out
    assert "witness: " in out


def test_missing_file_is_an_error(capsys):
    code = main(["check", "no-such-file.scspec"])
    assert code == 3


def test_text_report_renders_diagnostics_like_the_library(tmp_path, capsys):
    bad = tmp_path / "bad.scspec"
    bad.write_text("quantity ;\n")
    assert main(["check", str(bad)]) == 3
    out = capsys.readouterr().out
    assert f"{bad}:1:10: error[syntax]: expected quantity name, found ';' (expected quantity name)\n" in out


# run_module re-executes the already imported module, which is the point
@pytest.mark.filterwarnings("ignore:'sccheck.cli' found in sys.modules:RuntimeWarning")
def test_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["sccheck", "check", CORPUS, "--obligation", "SysBySeries"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("sccheck.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert "refinement Sys: proved" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["file", "strict", "surrogateescape"])
def test_non_utf8_input_is_an_io_error(tmp_path, capsys, monkeypatch, source):
    data = b"quantity q;\xe9\n"
    if source == "file":
        path = str(tmp_path / "latin1.scspec")
        pathlib.Path(path).write_bytes(data)
    else:  # stdin decoded with these errors
        path = "-"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=source))
    assert main(["check", path, "--format", "json"]) == 3
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    diags = [(d["code"], d["message"]) for d in report["diagnostics"]]
    assert diags == [("io", f"cannot read {path}: not valid UTF-8")]


def test_run_check_api_returns_report():
    code, report = run_check([CORPUS], CheckOptions(deterministic=True))
    assert code == 1
    assert report["summary"]["falsified"] == 1
    assert report["summary"]["obligations"] == 3


def test_report_round_trips_through_generic_json(capsys):
    main(["check", CORPUS, "--deterministic", "--format", "json"])
    text = capsys.readouterr().out
    assert json.dumps(json.loads(text), indent=2, sort_keys=False) + "\n" == text


CELL_SPEC = (
    "quantity resistance;\n"
    "component Cell { r: resistance; }\n"
    "operator pair(a: Cell, b: Cell) -> Cell { r = a.r + b.r; }\n"
    "contract One : Cell { assume true; guarantee r = 1; }\n"
    "contract Two : Cell { assume true; guarantee r = 2; }\n"
    "contract Three : Cell { assume true; guarantee r = 3; }\n"
    "refinement R : compose pair(One as c1, Two as c2) <: Three"
)


def test_grid_flag_supplies_oracle_hint(tmp_path, capsys):
    spec = tmp_path / "cell.scspec"
    spec.write_text(CELL_SPEC + ";\n")
    code = main(["check", str(spec), "--oracle", "--grid", "r=0,1,2,3", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    oracle = report["obligations"][0]["oracle"]
    assert oracle["finite_cross_check"] == "agree"
    assert oracle["min_characterization"] is True


@pytest.mark.parametrize(
    "block,flags",
    [(";", ["--grid", "r=1,1"]), (" { r = 1, 1; }", [])],
    ids=["grid-flag", "grid-block"],
)
def test_duplicate_grid_values_skip_the_oracle(tmp_path, capsys, block, flags):
    spec = tmp_path / "cell.scspec"
    spec.write_text(CELL_SPEC + block + "\n")
    code = main(["check", str(spec), "--oracle", "--format", "json", *flags])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["obligations"][0]["oracle"] == {"skipped": "duplicate grid values for variable r"}
    jsonschema.validate(report, SCHEMA)


def test_corpus_oracle_report_matches_golden(capsys, monkeypatch):
    """The corpus report, read from stdin so that inputs[].path is stable,
    equals the committed one byte for byte."""
    monkeypatch.setattr("sys.stdin", io.StringIO(pathlib.Path(CORPUS).read_text()))
    main(["check", "-", "--oracle", "--deterministic", "--format", "json"])
    assert capsys.readouterr().out.encode() == GOLDEN.read_bytes()


NONLINEAR_SPEC = (
    "quantity q;\n"
    "component T { r: q; }\n"
    "operator par(a: T, b: T) -> T { r = 1 / (1 / a.r + 1 / b.r); }\n"
    "operator id(a: T) -> T { r = a.r; }\n"
    "contract K : T { assume true; guarantee r >= 0; }\n"
    "contract Bad : T { assume true; guarantee r >= 1 and r * r <= 0; }\n"
    "refinement Par : compose par(K as c1, K as c2) <: K { r = 0, 1; }\n"
    "refinement Void : compose id(Bad as c) <: K;\n"
)


def test_text_report_of_quantified_residues(tmp_path, capsys):
    spec = tmp_path / "nonlinear.scspec"
    spec.write_text(NONLINEAR_SPEC)
    code = main(["check", str(spec), "--oracle", "--samples", "200"])
    out = capsys.readouterr().out
    assert code == 1
    # the grid leaves the harmonic sum 1/2 out, and c1.r = 0 divides by zero
    assert "? refinement K: unknown [not falsified within budget]\n" in out
    assert (
        '  oracle: {"finite_cross_check": "skipped: refinement unknown", '
        '"finite_refines": true, "min_characterization": true}\n'
    ) in out
    assert (
        "✗ consistency id(Bad as c): falsified [inconsistent: no implementation: "
        "exists c.r . r = c.r and c.r >= 1 and c.r * c.r <= 0]\n"
    ) in out


def test_dnf_cap_keeps_the_residue(tmp_path):
    spec = tmp_path / "cell.scspec"
    spec.write_text(CELL_SPEC.replace("guarantee r = 1;", "guarantee r = 1 or r = 4;") + ";\n")
    capped = run_check([str(spec)], CheckOptions(engine=EngineOptions(dnf_cap=1), deterministic=True))[1]
    assert capped["obligations"][0]["projection"] == "quantified-residue"
    assert run_check([str(spec)], CheckOptions(deterministic=True))[1]["obligations"][0]["projection"] == "exact"


# a random linear ladder whose leaf has no environments: y <= 0 or y >= 1/2 holds
# everywhere, so the negated assumption is valid
UNSAT_LEAF_SPEC = """\
quantity q;
component T { x: q; y: q; }
operator id(a: T) -> T { x = a.x; y = a.y; }
contract C : T {
  assume not ((((3 * y) <= 0) and ((2 * x + 1 * y) > -2)) or (not (((-2 * y) < 1) and ((0 * x + 2 * y) < -4))));
  guarantee (1 * x + 0 * y) > -3;
}
contract A : T {
  assume (1 * x + -3 * y) > -1;
  guarantee (1 * x + 1 * y) = 2;
}
refinement R : compose id(C as c) <: A;
"""


def test_identity_composition_of_an_incompatible_leaf_is_incompatible(monkeypatch):
    # with repeated and infeasible projections kept, the composed assumption
    # negates 12 disjuncts, and deciding it distributes past the 4096 cap
    monkeypatch.setattr("sys.stdin", io.StringIO(UNSAT_LEAF_SPEC))
    [ob] = run_check(["-"], CheckOptions(deterministic=True))[1]["obligations"]
    compatibility = {c["subject"]: c["verdict"]["status"] for c in ob["checks"] if c["kind"] == "compatibility"}
    assert compatibility == {"C": "falsified", "A": "proved", "id(C as c)": "falsified"}
    assert ob["projection"] == "exact"


def test_oracle_skips_a_grid_too_large(tmp_path, capsys):
    spec = tmp_path / "cell.scspec"
    spec.write_text(CELL_SPEC + ";\n")
    grid = "r=" + ",".join(str(v) for v in range(41))
    main(["check", str(spec), "--oracle", "--grid", grid, "--format", "json"])
    oracle = json.loads(capsys.readouterr().out)["obligations"][0]["oracle"]
    assert oracle["finite_cross_check"] == "agree"
    assert oracle["min_characterization"] == "skipped: 68921 assemblies exceed the 2^16 guard"


NOENV_SPEC = (
    "quantity q;\n"
    "component T { x: q; t: q; }\n"
    "operator id(a: T) -> T { x = a.x; }\n"
    "contract C : T { assume t >= 0; guarantee x = 1; }\n"
    "refinement R : compose id(C as c) <: C { x = 0, 1; t = -1, 0; }\n"
)


def test_composition_without_environments_is_minimal(tmp_path, capsys):
    # the glue leaves c.t free, so a child outside its assumption is always
    # possible and the composed assumption is false; (false, M) and
    # (false, everything) are one contract
    spec = tmp_path / "noenv.scspec"
    spec.write_text(NOENV_SPEC)
    assert main(["check", str(spec), "--oracle", "--format", "json"]) == 1
    [ob] = json.loads(capsys.readouterr().out)["obligations"]
    assert ob["checks"][5]["verdict"]["reason"] == "incompatible: assumption unsatisfiable: false"
    assert ob["oracle"] == {"finite_refines": False, "finite_cross_check": "agree", "min_characterization": True}
    # a grid without the child values that break the assumption cannot
    # tell the empty environments from all of them
    spec.write_text(NOENV_SPEC.replace("t = -1, 0;", "t = 0, 1;"))
    main(["check", str(spec), "--oracle", "--format", "json"])
    [ob] = json.loads(capsys.readouterr().out)["obligations"]
    assert ob["oracle"]["min_characterization"] is False


SUBTYPE_SPEC = """\
quantity resistance;
quantity precision <: resistance;

component Resistor { r: resistance; }
component Precise <: Resistor { r: resistance; tol: precision; }

operator series(a: Resistor, b: Resistor) -> Resistor { r = a.r + b.r; }
operator series(a: Precise, b: Precise) -> Precise { r = a.r + b.r; tol = a.tol + b.tol; }

contract P1 : Precise { assume true; guarantee r = 1 and tol <= 1; }
contract R1 : Resistor { assume true; guarantee r = 1; }
contract P2 : Precise { assume tol >= 0; guarantee r = 2 and tol <= 2; }
contract R2 : Resistor { assume true; guarantee r = 2; }

refinement BothPrecise : compose series(P1 as c1, P1 as c2) <: P2 { r = 1, 2; tol = 0, 1, 2; }
refinement Mixed : compose series(P1 as c1, R1 as c2) <: R2 { r = 0, 1, 2; tol = 0, 1; }
"""


def test_subtype_children_select_the_most_specific_overload(tmp_path, capsys):
    spec = tmp_path / "subtype.scspec"
    spec.write_text(SUBTYPE_SPEC)
    assert main(["check", str(spec), "--oracle", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    verdicts = {
        ob["name"]: (ob["checks"][-1]["verdict"]["status"], ob["oracle"]["min_characterization"])
        for ob in report["obligations"]
    }
    # two Precise children compose through the Precise overload: its result
    # refines a Precise contract, and only its glue bounds tol
    assert verdicts == {"BothPrecise": ("proved", True), "Mixed": ("proved", True)}
    # mixed children fall back to the general overload, whose result is a
    # Resistor, not a Precise
    spec.write_text(SUBTYPE_SPEC + "refinement Wrong : compose series(P1 as c1, R1 as c2) <: P2;\n")
    assert main(["check", str(spec), "--format", "json"]) == 3
    [diag] = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diag["code"] == "subject-type-mismatch" and diag["line"] == 17
    assert "composed subject Resistor" in diag["message"]


def test_grid_block_names_qualified_child_fields(tmp_path, capsys):
    # with P1 assuming tol >= 0, the parent point r = 0 is reached only
    # through c1.r = -1, which the bare r line does not hold
    text = SUBTYPE_SPEC.replace("P1 : Precise { assume true;", "P1 : Precise { assume tol >= 0;")
    spec = tmp_path / "subtype.scspec"
    readings = []
    for child_line in ("", "c1.r = -1, 0, 1, 2; "):
        spec.write_text(text.replace("tol = 0, 1; }", f"tol = -1, 0, 1; {child_line}}}"))
        main(["check", str(spec), "--obligation", "Mixed", "--oracle", "--format", "json"])
        [ob] = json.loads(capsys.readouterr().out)["obligations"]
        readings.append(ob["oracle"]["min_characterization"])
    assert readings == [False, True]


def test_a_renamed_witness_variable_is_read_on_the_line_it_renames():
    # c1.r~1 is a copy of c1.r, renamed when two residues both bind c1.r
    g = FiniteGrid.of({"r": [0, 1], "c1.r": [5]})
    assert not _off_grid({"r": Fraction(1), "c1.r~1": Fraction(5)}, g)
    assert _off_grid({"r": Fraction(1), "c1.r~1": Fraction(1)}, g)
    assert _off_grid({"c2.r~1": Fraction(5)}, g) and not _off_grid({"c2.r~1": Fraction(0)}, g)


@pytest.mark.parametrize("name", ["zz", "c2.zz", "c3.r", "c2.tol"])
def test_grid_block_rejects_names_of_no_field(tmp_path, capsys, name):
    # c2 is bound to R1, a Resistor without tol
    spec = tmp_path / "subtype.scspec"
    spec.write_text(SUBTYPE_SPEC.replace("tol = 0, 1; }", f"tol = 0, 1; {name} = 0; }}"))
    assert main(["check", str(spec), "--oracle", "--format", "json"]) == 3
    [diag] = json.loads(capsys.readouterr().out)["diagnostics"]
    assert (diag["code"], diag["line"]) == ("unknown-field", 16)
    assert diag["message"] == f"refinement Mixed: unknown field in grid: {name}"
