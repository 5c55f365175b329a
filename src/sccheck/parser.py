"""Parser for the `.scspec` specification language.

The language declares quantities, component types, composition operators
(type signature plus glue equations), contracts, and refinement
obligations. One compiled pattern tokenizes the text. Declarations are
parsed by recursive descent, expressions by precedence climbing over one
operator table, `OPERATORS`, which the formatter also prints by. Parsing
collects every syntax error instead of stopping at the first one,
synchronizing on `;`, `}` and declaration keywords; a second pass
resolves all cross-references, so declarations may appear in any order.

Grammar summary (the full EBNF ships in docs/grammar.ebnf):

    quantity NAME ;                        base quantity
    quantity NAME = NAME (*|/ NAME)* ;     derived (monomial) quantity
    quantity NAME <: NAME ;                subdomain
    component NAME [<: NAME] { (field : quantity ;)* }
    operator NAME(b : T, ...) -> T { (expr = expr ;)* }
    contract NAME : T { assume expr ; guarantee expr ; }
    refinement NAME : compose OP(C as b, ...) <: C (; | { grid })

Rational literals are exact: decimals convert exactly and `p/q` divisions
of literals fold to a single rational constant, so formatting and
re-parsing is the identity on the tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from .diagnostics import Diagnostic
from .model import (
    And,
    Assertion,
    BinOp,
    BoolLit,
    Cmp,
    Const,
    Implies,
    Loc,
    Neg,
    Not,
    Or,
    Rational,
    Term,
    Var,
    children,
    quotient,
    rational,
)

KEYWORDS = frozenset(
    {
        "quantity",
        "component",
        "operator",
        "contract",
        "refinement",
        "assume",
        "guarantee",
        "compose",
        "as",
        "and",
        "or",
        "not",
        "implies",
        "true",
        "false",
    }
)

# One token per match, in this order of preference. IDENT and NUMBER are
# ASCII, spelled out because \w and \d also admit other scripts; any
# character nothing else takes is a token of its own, `bad`.
_TOKEN = re.compile(
    r"""(?P<space>(?:[ \t\r\n]|//[^\n]*)+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<number>[0-9]+(?:\.[0-9]+)?)
      | (?P<punct><=|>=|!=|->|<:|[;:,(){}=<>+\-*/.])
      | (?P<bad>.)""",
    re.VERBOSE,
)


# ---------------------------------------------------------------------------
# syntax tree for declarations

@dataclass(frozen=True)
class Ref:
    """A by-name reference; equality ignores the location."""

    name: str
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class QuantityDecl:
    name: str
    kind: str  # "base" | "derived" | "sub"
    monomial: tuple[tuple[Ref, int], ...] | None = None
    parent: Ref | None = None
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FieldSyntax:
    name: str
    quantity: Ref
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ComponentDecl:
    name: str
    supertype: Ref | None
    fields: tuple[FieldSyntax, ...]
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ParamSyntax:
    binding: str
    type: Ref
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class OperatorDecl:
    name: str
    parameters: tuple[ParamSyntax, ...]
    result: Ref
    glue: tuple[Assertion, ...]
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ContractDecl:
    name: str
    subject: Ref
    assumption: Assertion
    guarantee: Assertion
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BindingSyntax:
    contract: Ref
    binding: str
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RefinementDecl:
    name: str
    operator: Ref
    bindings: tuple[BindingSyntax, ...]
    abstract: Ref
    grid: tuple[tuple[str, tuple[Rational, ...]], ...] | None
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SpecDocument:
    quantities: tuple[QuantityDecl, ...] = ()
    components: tuple[ComponentDecl, ...] = ()
    operators: tuple[OperatorDecl, ...] = ()
    contracts: tuple[ContractDecl, ...] = ()
    refinements: tuple[RefinementDecl, ...] = ()


@dataclass(frozen=True)
class ParseResult:
    document: SpecDocument
    diagnostics: tuple[Diagnostic, ...]

    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


def merge_documents(docs: Sequence[SpecDocument]) -> SpecDocument:
    return SpecDocument(
        quantities=sum((d.quantities for d in docs), ()),
        components=sum((d.components for d in docs), ()),
        operators=sum((d.operators for d in docs), ()),
        contracts=sum((d.contracts for d in docs), ()),
        refinements=sum((d.refinements for d in docs), ()),
    )


# ---------------------------------------------------------------------------
# lexer

@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "keyword" | punctuation text | "eof"
    text: str
    loc: Loc
    value: Rational | None = None


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, line_start = 1, 0  # a column counts from the last newline
    for m in _TOKEN.finditer(text):
        kind, word, start = m.lastgroup, m.group(), m.start()
        if kind == "space":
            if "\n" in word:
                line += word.count("\n")
                line_start = start + word.rindex("\n") + 1
            continue
        loc = Loc(line, start - line_start + 1)
        if kind == "ident":
            tokens.append(Token("keyword" if word in KEYWORDS else "ident", word, loc))
        elif kind == "number":
            tokens.append(Token("number", word, loc, rational(word) if "." in word else int(word)))
        elif kind == "punct":
            tokens.append(Token(word, word, loc))
        else:
            diags.append(Diagnostic("error", "syntax", f"unexpected character {word!r}", loc))
    tokens.append(Token("eof", "", Loc(line, len(text) - line_start + 1)))
    return tokens, diags


# ---------------------------------------------------------------------------
# parser

_SYNC_KEYWORDS = {"quantity", "component", "operator", "contract", "refinement"}

# Binding levels, loosest first. Prefix `not` binds at NOT, unary `-` at
# NEG, and a literal, variable or parenthesized expression is an ATOM.
IMPLIES, OR, AND, NOT, CMP, ADD, MUL, NEG, ATOM = range(1, 10)


def _divide(left, right, *, loc):
    if isinstance(left, Const) and isinstance(right, Const) and right.value != 0:
        # fold p/q literals so formatting round-trips structurally
        return Const(quotient(left.value, right.value), loc=left.loc)
    return BinOp("/", left, right, loc=loc)


def _binary(level: int, nests: str, build) -> tuple:
    """A table entry: the operator's level, the least level its left and
    its right operand may bind at without parentheses, and its builder."""
    return level, level + (nests != "left"), level + (nests != "right"), build


# The one operator table: the parser climbs it and the formatter prints by
# it. `and`, `or` and `implies` nest to the right, arithmetic to the left,
# and a comparison does not chain.
OPERATORS = {
    "implies": _binary(IMPLIES, "right", Implies),
    "or": _binary(OR, "right", Or),
    "and": _binary(AND, "right", And),
    **{op: _binary(CMP, "none", partial(Cmp, op)) for op in ("<=", "<", "=", ">=", ">", "!=")},
    "+": _binary(ADD, "left", partial(BinOp, "+")),
    "-": _binary(ADD, "left", partial(BinOp, "-")),
    "*": _binary(MUL, "left", partial(BinOp, "*")),
    "/": _binary(MUL, "left", _divide),
}


class _Recover(Exception):
    pass


_MAX_EXPR_NESTING = 64


class _Parser:
    def __init__(self, tokens: list[Token], diagnostics: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diagnostics
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def at_keyword(self, word: str) -> bool:
        return self.at("keyword", word)

    def take(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, message: str, expected: Sequence[str] = (), loc: Loc | None = None) -> None:
        where = loc if loc is not None else self.peek().loc
        self.diags.append(
            Diagnostic("error", "syntax", message, where, expected=tuple(sorted(expected)))
        )

    def expect(self, kind: str, what: str | None = None) -> Token:
        """Take the next token if it is a keyword `kind` or of kind `kind`
        (punctuation, "number" or "ident", the last named `what`)."""
        t = self.tokens[self.pos]
        keyword = kind in KEYWORDS
        if (t.kind == "keyword" and t.text == kind) if keyword else t.kind == kind:
            self.pos += 1  # never the end of input
            return t
        what = what or kind
        self.error(
            f"expected {repr(what) if keyword else what}, found {t.text or t.kind!r}",
            expected=(what,),
        )
        raise _Recover()

    def variable(self, what: str = "variable") -> str:
        """A variable name: IDENT ["." IDENT]."""
        name = self.expect("ident", what).text
        if self.tokens[self.pos].kind == ".":
            self.pos += 1
            name = f"{name}.{self.expect('ident', 'field name').text}"
        return name

    def sync(self) -> None:
        """Panic-mode recovery: skip to a `;`, past a `}`, or to the next
        declaration keyword."""
        while True:
            t = self.peek()
            if t.kind == "eof":
                return
            if t.kind == ";":
                self.take()
                return
            if t.kind == "}":
                self.take()
                return
            if t.kind == "keyword" and t.text in _SYNC_KEYWORDS:
                return
            self.take()

    # -- expressions -------------------------------------------------------

    def _nested(self, level: int):
        """The operand of `not`, `-` or `(`. Recursion guard: malformed or
        adversarial nesting must surface as a diagnostic, not a stack
        overflow."""
        if self.depth >= _MAX_EXPR_NESTING:
            self.error(f"expression nesting deeper than {_MAX_EXPR_NESTING}")
            raise _Recover()
        self.depth += 1
        try:
            return self.parse_expr(level)
        finally:
            self.depth -= 1

    def parse_expr(self, level: int = IMPLIES) -> Assertion | Term:
        """An expression binding at `level` or tighter, by precedence
        climbing: `bound` is the level of the expression built so far, and
        an operator extends it only if that is tight enough for the
        operator's left operand. Each right operand is one recursive call.
        Tokens are read in place: no token taken here is the end of input."""
        t = self.tokens[self.pos]
        if t.kind == "-":
            self.pos += 1
            operand = self._nested(NEG)
            left = Const(-operand.value, loc=t.loc) if isinstance(operand, Const) else Neg(operand, loc=t.loc)
            bound = NEG
        elif t.kind == "keyword" and t.text == "not" and level <= NOT:
            self.pos += 1
            left, bound = Not(self._nested(NOT), loc=t.loc), NOT
        else:
            left, bound = self._primary(), ATOM
        while True:
            t = self.tokens[self.pos]
            entry = OPERATORS.get(t.text)
            if entry is None or entry[0] < level or bound < entry[1]:
                return left
            self.pos += 1
            bound, _, right_level, build = entry
            left = build(left, self.parse_expr(right_level), loc=t.loc)

    def _primary(self):
        t = self.tokens[self.pos]
        if t.kind == "number":
            self.pos += 1
            return Const(t.value, loc=t.loc)
        if t.kind == "ident":
            return Var(self.variable(), loc=t.loc)
        if t.kind == "keyword" and t.text in ("true", "false"):
            self.pos += 1
            return BoolLit(t.text == "true", loc=t.loc)
        if t.kind == "(":
            self.pos += 1
            inner = self._nested(IMPLIES)
            self.expect(")")
            return inner
        shown = t.text or t.kind
        self.error(f"expected an expression, found {shown!r}", expected=("expression",))
        raise _Recover()

    def parse_rational(self) -> Rational:
        """Signed rational literal for grid values: [-] NUM [/ NUM]."""
        negative = False
        if self.at("-"):
            self.take()
            negative = True
        num = self.expect("number")
        value = num.value
        assert value is not None
        if self.at("/"):
            self.take()
            den = self.expect("number")
            if den.value == 0:
                self.error("zero denominator in rational literal", loc=den.loc)
                raise _Recover()
            value = quotient(value, den.value)
        return -value if negative else value

    # -- declarations ------------------------------------------------------

    def parse_document(self) -> SpecDocument:
        quantities: list[QuantityDecl] = []
        components: list[ComponentDecl] = []
        operators: list[OperatorDecl] = []
        contracts: list[ContractDecl] = []
        refinements: list[RefinementDecl] = []
        while not self.at("eof"):
            t = self.peek()
            try:
                if self.at_keyword("quantity"):
                    quantities.append(self._quantity())
                elif self.at_keyword("component"):
                    components.append(self._component())
                elif self.at_keyword("operator"):
                    operators.append(self._operator())
                elif self.at_keyword("contract"):
                    contracts.append(self._contract())
                elif self.at_keyword("refinement"):
                    refinements.append(self._refinement())
                else:
                    shown = t.text or t.kind
                    self.error(
                        f"expected a declaration, found {shown!r}",
                        expected=sorted(_SYNC_KEYWORDS),
                    )
                    raise _Recover()
            except _Recover:
                self.depth = 0
                self.sync()
        return SpecDocument(
            tuple(quantities), tuple(components), tuple(operators), tuple(contracts), tuple(refinements)
        )

    def _quantity(self) -> QuantityDecl:
        kw = self.expect("quantity")
        name = self.expect("ident", "quantity name")
        if self.at("<:"):
            self.take()
            parent = self.expect("ident", "parent quantity")
            self.expect(";")
            return QuantityDecl(name.text, "sub", parent=Ref(parent.text, parent.loc), loc=kw.loc)
        if self.at("="):
            self.take()
            first = self.expect("ident", "quantity name")
            monomial: list[tuple[Ref, int]] = [(Ref(first.text, first.loc), 1)]
            while self.at("*") or self.at("/"):
                sign = 1 if self.take().text == "*" else -1
                nxt = self.expect("ident", "quantity name")
                monomial.append((Ref(nxt.text, nxt.loc), sign))
            self.expect(";")
            return QuantityDecl(name.text, "derived", monomial=tuple(monomial), loc=kw.loc)
        self.expect(";")
        return QuantityDecl(name.text, "base", loc=kw.loc)

    def _component(self) -> ComponentDecl:
        kw = self.expect("component")
        name = self.expect("ident", "component type name")
        supertype = None
        if self.at("<:"):
            self.take()
            sup = self.expect("ident", "supertype name")
            supertype = Ref(sup.text, sup.loc)
        self.expect("{")
        fields: list[FieldSyntax] = []
        while not self.at("}") and not self.at("eof"):
            fld = self.expect("ident", "field name")
            self.expect(":")
            qty = self.expect("ident", "quantity name")
            self.expect(";")
            fields.append(FieldSyntax(fld.text, Ref(qty.text, qty.loc), loc=fld.loc))
        self.expect("}")
        return ComponentDecl(name.text, supertype, tuple(fields), loc=kw.loc)

    def _operator(self) -> OperatorDecl:
        kw = self.expect("operator")
        name = self.expect("ident", "operator name")
        self.expect("(")
        params: list[ParamSyntax] = []
        while True:
            binding = self.expect("ident", "parameter binding")
            self.expect(":")
            ptype = self.expect("ident", "component type name")
            params.append(ParamSyntax(binding.text, Ref(ptype.text, ptype.loc), loc=binding.loc))
            if self.at(","):
                self.take()
                continue
            break
        self.expect(")")
        self.expect("->")
        result = self.expect("ident", "result component type")
        self.expect("{")
        glue: list[Assertion] = []
        while not self.at("}") and not self.at("eof"):
            expr = self.parse_expr()
            self.expect(";")
            glue.append(expr)  # equation shape enforced by the sort check
        self.expect("}")
        return OperatorDecl(
            name.text, tuple(params), Ref(result.text, result.loc), tuple(glue), loc=kw.loc
        )

    def _contract(self) -> ContractDecl:
        kw = self.expect("contract")
        name = self.expect("ident", "contract name")
        self.expect(":")
        subject = self.expect("ident", "component type name")
        self.expect("{")
        self.expect("assume")
        assumption = self.parse_expr()
        self.expect(";")
        self.expect("guarantee")
        guarantee = self.parse_expr()
        self.expect(";")
        self.expect("}")
        return ContractDecl(
            name.text, Ref(subject.text, subject.loc), assumption, guarantee, loc=kw.loc
        )

    def _refinement(self) -> RefinementDecl:
        kw = self.expect("refinement")
        name = self.expect("ident", "obligation name")
        self.expect(":")
        self.expect("compose")
        op = self.expect("ident", "operator name")
        self.expect("(")
        bindings: list[BindingSyntax] = []
        while True:
            contract = self.expect("ident", "contract name")
            self.expect("as")
            binding = self.expect("ident", "binding name")
            bindings.append(BindingSyntax(Ref(contract.text, contract.loc), binding.text, loc=contract.loc))
            if self.at(","):
                self.take()
                continue
            break
        self.expect(")")
        self.expect("<:")
        abstract = self.expect("ident", "abstract contract name")
        grid = None
        if self.at("{"):
            self.take()
            lines: list[tuple[str, tuple[Rational, ...]]] = []
            while not self.at("}") and not self.at("eof"):
                var = self.variable("grid variable")
                self.expect("=")
                values = [self.parse_rational()]
                while self.at(","):
                    self.take()
                    values.append(self.parse_rational())
                self.expect(";")
                lines.append((var, tuple(values)))
            self.expect("}")
            grid = tuple(lines)
        else:
            self.expect(";")
        return RefinementDecl(
            name.text,
            Ref(op.text, op.loc),
            tuple(bindings),
            Ref(abstract.text, abstract.loc),
            grid,
            loc=kw.loc,
        )


# ---------------------------------------------------------------------------
# sort checking (boolean vs arithmetic positions)

def _sort_of(node) -> str:
    if isinstance(node, (BoolLit, Cmp, Not, And, Or, Implies)):
        return "bool"
    return "arith"


def check_sorts(expr, expected: str, diags: list[Diagnostic], where: str) -> None:
    actual = _sort_of(expr)
    if actual != expected:
        diags.append(
            Diagnostic(
                "error",
                "sort-mismatch",
                f"{where}: expected {'a boolean formula' if expected == 'bool' else 'an arithmetic term'}",
                getattr(expr, "loc", None),
            )
        )
        return
    # a comparison relates two terms; every other node's children are of its own sort
    inner = "arith" if isinstance(expr, Cmp) else expected
    for child in children(expr):
        check_sorts(child, inner, diags, where)


# ---------------------------------------------------------------------------
# resolution

def resolve_document(doc: SpecDocument) -> list[Diagnostic]:
    """Check that every by-name reference resolves somewhere in the document
    and that expressions are well-sorted. Returns diagnostics only; the
    document itself is left untouched."""
    diags: list[Diagnostic] = []
    quantities = {q.name for q in doc.quantities}
    components = {c.name for c in doc.components}
    operators = {o.name for o in doc.operators}
    contracts = {c.name for c in doc.contracts}

    def want(ref: Ref | None, names: set[str], what: str) -> None:
        if ref is not None and ref.name not in names:
            diags.append(
                Diagnostic("error", "unresolved-name", f"unresolved {what}: {ref.name}", ref.loc)
            )

    for q in doc.quantities:
        if q.monomial:
            for ref, _ in q.monomial:
                want(ref, quantities, "quantity")
        want(q.parent, quantities, "quantity")
    for c in doc.components:
        want(c.supertype, components, "component type")
        for f in c.fields:
            want(f.quantity, quantities, "quantity")
    for o in doc.operators:
        for p in o.parameters:
            want(p.type, components, "component type")
        want(o.result, components, "component type")
        for i, eq in enumerate(o.glue):
            check_sorts(eq, "bool", diags, f"glue {i + 1} of operator {o.name}")
    for k in doc.contracts:
        want(k.subject, components, "component type")
        check_sorts(k.assumption, "bool", diags, f"assumption of contract {k.name}")
        check_sorts(k.guarantee, "bool", diags, f"guarantee of contract {k.name}")
    for r in doc.refinements:
        want(r.operator, operators, "operator")
        want(r.abstract, contracts, "contract")
        seen_bindings: set[str] = set()
        for b in r.bindings:
            want(b.contract, contracts, "contract")
            if b.binding in seen_bindings:
                diags.append(
                    Diagnostic(
                        "error",
                        "duplicate-binding",
                        f"duplicate binding name {b.binding} in refinement {r.name}",
                        b.loc,
                    )
                )
            seen_bindings.add(b.binding)
    return diags


def parse_only(text: str) -> ParseResult:
    """Parse without the cross-reference resolution pass."""
    tokens, diags = tokenize(text)
    parser = _Parser(tokens, diags)
    doc = parser.parse_document()
    return ParseResult(doc, tuple(diags))


def parse_spec(text: str) -> ParseResult:
    """Parse and resolve a specification; collects all diagnostics."""
    result = parse_only(text)
    diags = list(result.diagnostics)
    diags.extend(resolve_document(result.document))
    return ParseResult(result.document, tuple(diags))


def parse_expression(text: str):
    """Parse a single expression; raises ValueError on any syntax problem."""
    tokens, diags = tokenize(text)
    parser = _Parser(tokens, diags)
    try:
        expr = parser.parse_expr()
    except _Recover:
        raise ValueError(f"bad expression {text!r}: {diags[-1].message}") from None
    if diags or not parser.at("eof"):
        message = diags[-1].message if diags else f"trailing input at {parser.peek().loc}"
        raise ValueError(f"bad expression {text!r}: {message}")
    return expr
