import io
import json
import pathlib

import jsonschema
import pytest

from sccheck.cli import (
    CheckOptions,
    exit_code_for,
    main,
    parse_box_flag,
    parse_grid_flag,
    run_check,
)
from sccheck.engine import Status, Verdict

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
    parsed = parse_grid_flag("r=0,1,2/3;u=-1")
    assert parsed["r"][2] == pytest.approx(2 / 3)
    assert str(parsed["r"][2]) == "2/3"
    assert str(parsed["u"][0]) == "-1"


def test_parse_box_flag():
    parsed = parse_box_flag("r=[0,10];u=[-5,5]")
    assert str(parsed["r"].lo) == "0" and str(parsed["r"].hi) == "10"
    assert str(parsed["u"].lo) == "-5"


@pytest.mark.parametrize(
    "flags",
    [
        ["--grid", "r=x"],
        ["--grid", "r=1/0"],
        ["--box", "r=[1]"],
        ["--samples", "0", "--dnf-cap", "0"],
        ["--box", "r=[2,1]"],
        ["--dnf-cap", "-5"],
    ],
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
