"""Every diagnostic code: each one a document can reach is emitted through
``run_check`` at the asserted line with exit 3; the rest through the
library call that emits it. The schema's code enum and the README table
list exactly the codes these tests emit."""

import json
import pathlib
import re

import pytest

from helpers import component, expr
from sccheck.cli import CheckOptions, run_check
from sccheck.diagnostics import Diagnostic
from sccheck.loader import elaborate
from sccheck.parser import parse_spec
from sccheck.typesystem import build_hierarchy, check_assertion_dimensions, check_component_type

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())
README = (ROOT / "README.md").read_text()

BASE = (
    "quantity q;\n"
    "quantity v;\n"
    "component C { x: q; y: v; }\n"
    "operator o(a: C) -> C { x = a.x; y = a.y; }\n"
    "contract K : C { assume true; guarantee x = 1; }\n"
)  # five lines; a case's own text starts on line 6

# (id, document, code, line of the first diagnostic with that code)
DOCUMENT_CASES = [
    ("syntax-character", "quantity q;\ncomponent C { x: q @ }\n", "syntax", 2),
    ("syntax-non-ascii-digit", BASE + "contract L : C { assume x = ²; guarantee true; }\n", "syntax", 6),
    ("syntax-end-of-input", "quantity q;\nquantity v", "syntax", 2),
    ("syntax-keyword", BASE + "contract L : C { guarantee x = 1; }\n", "syntax", 6),
    ("syntax-expression", BASE + "contract L : C { assume ; guarantee true; }\n", "syntax", 6),
    ("syntax-zero-denominator", BASE + "refinement R : compose o(K as c) <: K { x = 1/0; }\n", "syntax", 6),
    ("unresolved-name", "quantity q;\ncomponent C { x: volt; }\n", "unresolved-name", 2),
    ("sort-mismatch", BASE + "contract L : C { assume x; guarantee true; }\n", "sort-mismatch", 6),
    ("duplicate-binding-refinement", BASE + "operator p(a: C, b: C) -> C { x = a.x; }\n"
     "refinement R : compose p(K as c, K as c) <: K;\n", "duplicate-binding", 7),
    ("duplicate-binding-operator", BASE + "operator p(a: C,\n a: C) -> C { x = a.x; }\n", "duplicate-binding", 7),
    ("glue-not-equation", BASE + "operator p(a: C) -> C {\n x = a.x;\n x <= a.x; }\n", "glue-not-equation", 8),
    ("cyclic-subtype", "quantity a <: b;\nquantity b <: a;\n", "cyclic-subtype", 2),
    ("redefined-quantity", "quantity q;\nquantity q;\n", "redefined-quantity", 2),
    ("duplicate-component", BASE + "component C { z: q; }\n", "duplicate-component", 6),
    ("cyclic-component", "quantity q;\ncomponent A <: B { x: q; }\ncomponent B <: A { x: q; }\n", "cyclic-component", 2),
    ("duplicate-field", BASE + "component D {\n z: q;\n z: q; }\n", "duplicate-field", 6),
    ("missing-inherited-field", BASE + "component D <: C { x: q; }\n", "missing-inherited-field", 6),
    ("duplicate-overload", BASE + "operator o(b: C) -> C { x = b.x; }\n", "duplicate-overload", 6),
    ("unknown-binding", BASE + "operator p(a: C) -> C { x = z.x; }\n", "unknown-binding", 6),
    ("unknown-field-glue", BASE + "operator p(a: C) -> C { w = -a.x; }\n", "unknown-field", 6),
    ("unknown-field-contract", BASE + "contract L : C { assume w = 1; guarantee true; }\n", "unknown-field", 6),
    ("unknown-field-grid", BASE + "refinement R : compose o(K as c) <: K {\n zz = 0, 1;\n x = 0, 1;\n y = 0; }\n",
     "unknown-field", 6),
    ("dimension-mismatch-term", BASE + "contract L : C { assume x + y = 1; guarantee true; }\n", "dimension-mismatch", 6),
    ("dimension-mismatch-comparison", BASE + "contract L : C { assume not x = x / x; guarantee true; }\n",
     "dimension-mismatch", 6),
    ("duplicate-contract", BASE + "contract K : C { assume true; guarantee true; }\n", "duplicate-contract", 6),
    ("duplicate-obligation", BASE + "refinement R : compose o(K as c) <: K;\nrefinement R : compose o(K as c) <: K;\n",
     "duplicate-obligation", 7),
    ("no-matching-overload", BASE + "refinement R : compose o(K as c1, K as c2) <: K;\n", "no-matching-overload", 6),
    ("ambiguous-overload", BASE + "component D <: C { x: q; y: v; }\n"
     "operator p(a: D, b: C) -> C { x = a.x; }\noperator p(a: C, b: D) -> C { x = a.x; }\n"
     "contract M : D { assume true; guarantee true; }\n"
     "refinement R : compose p(M as c1, M as c2) <: K;\n", "ambiguous-overload", 10),
    ("subject-type-mismatch", BASE + "component D <: C { x: q; y: v; }\n"
     "contract M : D { assume true; guarantee true; }\n"
     "refinement R : compose o(K as c) <: M;\n", "subject-type-mismatch", 8),
    ("duplicate-grid-variable", BASE + "refinement R : compose o(K as c) <: K {\n x = 1;\n x = 2; }\n",
     "duplicate-grid-variable", 6),
]


def _check_document(tmp_path, text, **options):
    path = tmp_path / "case.scspec"
    path.write_text(text)
    return run_check([str(path)], CheckOptions(deterministic=True, **options))


@pytest.mark.parametrize("text,code,line", [c[1:] for c in DOCUMENT_CASES], ids=[c[0] for c in DOCUMENT_CASES])
def test_document_diagnostic(tmp_path, text, code, line):
    exit_code, report = _check_document(tmp_path, text)
    assert exit_code == 3
    first = next(d for d in report["diagnostics"] if d["code"] == code)
    assert (first["line"], first["file"]) == (line, str(tmp_path / "case.scspec"))


def test_diagnostics_without_a_document_position(tmp_path):
    exit_code, report = _check_document(tmp_path, BASE, obligations=("Nope",))
    assert exit_code == 3
    assert [(d["code"], d["line"]) for d in report["diagnostics"]] == [("unknown-obligation", None)]
    exit_code, report = run_check([str(tmp_path / "missing.scspec")], CheckOptions())
    assert exit_code == 3
    assert [(d["code"], d["line"]) for d in report["diagnostics"]] == [("io", None)]


def test_render_without_a_position():
    assert Diagnostic("error", "io", "cannot read", file="a.scspec").render() == "a.scspec: error[io]: cannot read"
    assert Diagnostic("error", "io", "cannot read").render() == "error[io]: cannot read"


def _library_codes():
    """Codes that no document reaches: the parser reports every unknown
    quantity a document names as ``unresolved-name`` first."""
    table = build_hierarchy(parse_spec("quantity q;").document.quantities)
    unresolved = parse_spec("quantity p = u * i;").document
    return [
        [d.code for d in elaborate(unresolved)[1]],
        [d.code for d in check_component_type(component("W", "x:flux"), table)],
        [d.code for d in check_assertion_dimensions(expr("x = 1"), {"x": "flux"}, table)],
    ]


def test_library_only_diagnostics():
    assert _library_codes() == [["unknown-quantity"]] * 3


def test_elaborate_tolerates_unresolved_references():
    result = parse_spec(
        "quantity q;\n"
        "component C <: Gone { x: q; }\n"
        "operator o(a: Gone) -> C { x = a.x; }\n"
        "operator p(a: C) -> Gone { x = a.x; }\n"
        "contract K : Gone { assume true; guarantee true; }\n"
        "contract L : C { assume true; guarantee true; }\n"
        "refinement R : compose o(Nope as c) <: L;\n"
        "refinement S : compose o(L as c) <: Nope;\n"
    )
    assert {d.code for d in result.diagnostics} == {"unresolved-name"}
    # elaboration skips whatever the parser already diagnosed
    universe, diags = elaborate(result.document)
    assert diags == []
    assert set(universe.components) == {"C"} and universe.components["C"].supertype is None
    assert set(universe.contracts) == {"L"} and universe.obligations == []


def test_schema_enum_is_the_set_of_emitted_codes():
    # the tests above assert that each of these codes is emitted
    emitted = {code for _, _, code, _ in DOCUMENT_CASES} | {"io", "unknown-obligation"}
    emitted |= {code for codes in _library_codes() for code in codes}
    enum = SCHEMA["properties"]["diagnostics"]["items"]["properties"]["code"]["enum"]
    assert len(enum) == len(set(enum)) == 24
    assert set(enum) == emitted


def test_readme_lists_every_code():
    enum = SCHEMA["properties"]["diagnostics"]["items"]["properties"]["code"]["enum"]
    listed = re.findall(r"^\| `([a-z-]+)` \|", README, flags=re.MULTILINE)
    assert sorted(listed) == sorted(enum)
