"""Recursive-descent parser for the `.scspec` specification language.

The language declares quantities, component types, composition operators
(type signature plus glue equations), contracts, and refinement
obligations. Parsing collects every syntax error instead of stopping at
the first one, synchronizing on `;`, `}` and declaration keywords; a
second pass resolves all cross-references, so declarations may appear in
any order.

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

import string
from dataclasses import dataclass, field
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

# the grammar's IDENT and NUMBER are ASCII: str.isalpha and str.isdigit
# would also admit letters and digits of other scripts
_DIGITS = frozenset(string.digits)
_LETTERS = frozenset(string.ascii_letters)
_WORD = _LETTERS | _DIGITS | {"_"}
_TWO_CHAR = ("<=", ">=", "!=", "->", "<:")
_ONE_CHAR = ";:,(){}=<>+-*/."


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
    line, col = 1, 1
    i = 0
    n = len(text)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance()
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance()
            continue
        loc = Loc(line, col)
        if c in _LETTERS:
            j = i
            while j < n and text[j] in _WORD:
                j += 1
            word = text[i:j]
            advance(j - i)
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, loc))
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            lit = text[i:j]
            advance(j - i)
            tokens.append(Token("number", lit, loc, int(lit) if "." not in lit else rational(lit)))
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR:
            advance(2)
            tokens.append(Token(two, two, loc))
            continue
        if c in _ONE_CHAR:
            advance()
            tokens.append(Token(c, c, loc))
            continue
        diags.append(Diagnostic("error", "syntax", f"unexpected character {c!r}", loc))
        advance()
    tokens.append(Token("eof", "", Loc(line, col)))
    return tokens, diags


# ---------------------------------------------------------------------------
# parser

_SYNC_KEYWORDS = {"quantity", "component", "operator", "contract", "refinement"}

_CMP_OPS = ("<=", "<", "=", ">=", ">", "!=")


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
        if self.at(kind):
            return self.take()
        found = self.peek()
        shown = found.text or found.kind
        self.error(
            f"expected {what or kind!s}, found {shown!r}",
            expected=(what or kind,),
        )
        raise _Recover()

    def expect_keyword(self, word: str) -> Token:
        if self.at_keyword(word):
            return self.take()
        found = self.peek()
        shown = found.text or found.kind
        self.error(f"expected {word!r}, found {shown!r}", expected=(word,))
        raise _Recover()

    def expect_ident(self, what: str) -> Token:
        if self.at("ident"):
            return self.take()
        found = self.peek()
        shown = found.text or found.kind
        self.error(f"expected {what}, found {shown!r}", expected=(what,))
        raise _Recover()

    def variable(self, what: str = "variable") -> str:
        """A variable name: IDENT ["." IDENT]."""
        name = self.expect_ident(what).text
        if self.at("."):
            self.take()
            name = f"{name}.{self.expect_ident('field name').text}"
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

    def _enter(self) -> None:
        # recursion guard: malformed or adversarial nesting must surface as
        # a diagnostic, not a stack overflow
        self.depth += 1
        if self.depth > _MAX_EXPR_NESTING:
            self.depth -= 1
            self.error(f"expression nesting deeper than {_MAX_EXPR_NESTING}")
            raise _Recover()

    def parse_expr(self) -> Assertion | Term:
        return self._implies()

    def _implies(self):
        left = self._or()
        if self.at_keyword("implies"):
            loc = self.take().loc
            right = self._implies()
            return Implies(left, right, loc=loc)
        return left

    def _or(self):
        left = self._and()
        if self.at_keyword("or"):
            loc = self.take().loc
            right = self._or()
            return Or(left, right, loc=loc)
        return left

    def _and(self):
        left = self._not()
        if self.at_keyword("and"):
            loc = self.take().loc
            right = self._and()
            return And(left, right, loc=loc)
        return left

    def _not(self):
        if self.at_keyword("not"):
            loc = self.take().loc
            self._enter()
            try:
                return Not(self._not(), loc=loc)
            finally:
                self.depth -= 1
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        for op in _CMP_OPS:
            if self.at(op):
                loc = self.take().loc
                right = self._additive()
                return Cmp(op, left, right, loc=loc)
        return left

    def _additive(self):
        left = self._multiplicative()
        while self.at("+") or self.at("-"):
            t = self.take()
            right = self._multiplicative()
            left = BinOp(t.text, left, right, loc=t.loc)
        return left

    def _multiplicative(self):
        left = self._unary()
        while self.at("*") or self.at("/"):
            t = self.take()
            right = self._unary()
            if (
                t.text == "/"
                and isinstance(left, Const)
                and isinstance(right, Const)
                and right.value != 0
            ):
                # fold p/q literals so formatting round-trips structurally
                left = Const(quotient(left.value, right.value), loc=left.loc)
            else:
                left = BinOp(t.text, left, right, loc=t.loc)
        return left

    def _unary(self):
        if self.at("-"):
            loc = self.take().loc
            self._enter()
            try:
                operand = self._unary()
            finally:
                self.depth -= 1
            if isinstance(operand, Const):
                return Const(-operand.value, loc=loc)
            return Neg(operand, loc=loc)
        return self._primary()

    def _primary(self):
        t = self.peek()
        if t.kind == "number":
            self.take()
            return Const(t.value, loc=t.loc)
        if t.kind == "ident":
            return Var(self.variable(), loc=t.loc)
        if t.kind == "keyword" and t.text in ("true", "false"):
            self.take()
            return BoolLit(t.text == "true", loc=t.loc)
        if t.kind == "(":
            self.take()
            self._enter()
            try:
                inner = self.parse_expr()
            finally:
                self.depth -= 1
            self.expect(")", ")")
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
        num = self.expect("number", "number")
        value = num.value
        assert value is not None
        if self.at("/"):
            self.take()
            den = self.expect("number", "number")
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
        kw = self.expect_keyword("quantity")
        name = self.expect_ident("quantity name")
        if self.at("<:"):
            self.take()
            parent = self.expect_ident("parent quantity")
            self.expect(";", ";")
            return QuantityDecl(name.text, "sub", parent=Ref(parent.text, parent.loc), loc=kw.loc)
        if self.at("="):
            self.take()
            first = self.expect_ident("quantity name")
            monomial: list[tuple[Ref, int]] = [(Ref(first.text, first.loc), 1)]
            while self.at("*") or self.at("/"):
                sign = 1 if self.take().text == "*" else -1
                nxt = self.expect_ident("quantity name")
                monomial.append((Ref(nxt.text, nxt.loc), sign))
            self.expect(";", ";")
            return QuantityDecl(name.text, "derived", monomial=tuple(monomial), loc=kw.loc)
        self.expect(";", ";")
        return QuantityDecl(name.text, "base", loc=kw.loc)

    def _component(self) -> ComponentDecl:
        kw = self.expect_keyword("component")
        name = self.expect_ident("component type name")
        supertype = None
        if self.at("<:"):
            self.take()
            sup = self.expect_ident("supertype name")
            supertype = Ref(sup.text, sup.loc)
        self.expect("{", "{")
        fields: list[FieldSyntax] = []
        while not self.at("}") and not self.at("eof"):
            fld = self.expect_ident("field name")
            self.expect(":", ":")
            qty = self.expect_ident("quantity name")
            self.expect(";", ";")
            fields.append(FieldSyntax(fld.text, Ref(qty.text, qty.loc), loc=fld.loc))
        self.expect("}", "}")
        return ComponentDecl(name.text, supertype, tuple(fields), loc=kw.loc)

    def _operator(self) -> OperatorDecl:
        kw = self.expect_keyword("operator")
        name = self.expect_ident("operator name")
        self.expect("(", "(")
        params: list[ParamSyntax] = []
        while True:
            binding = self.expect_ident("parameter binding")
            self.expect(":", ":")
            ptype = self.expect_ident("component type name")
            params.append(ParamSyntax(binding.text, Ref(ptype.text, ptype.loc), loc=binding.loc))
            if self.at(","):
                self.take()
                continue
            break
        self.expect(")", ")")
        self.expect("->", "->")
        result = self.expect_ident("result component type")
        self.expect("{", "{")
        glue: list[Assertion] = []
        while not self.at("}") and not self.at("eof"):
            expr = self.parse_expr()
            self.expect(";", ";")
            glue.append(expr)  # equation shape enforced by the sort check
        self.expect("}", "}")
        return OperatorDecl(
            name.text, tuple(params), Ref(result.text, result.loc), tuple(glue), loc=kw.loc
        )

    def _contract(self) -> ContractDecl:
        kw = self.expect_keyword("contract")
        name = self.expect_ident("contract name")
        self.expect(":", ":")
        subject = self.expect_ident("component type name")
        self.expect("{", "{")
        self.expect_keyword("assume")
        assumption = self.parse_expr()
        self.expect(";", ";")
        self.expect_keyword("guarantee")
        guarantee = self.parse_expr()
        self.expect(";", ";")
        self.expect("}", "}")
        return ContractDecl(
            name.text, Ref(subject.text, subject.loc), assumption, guarantee, loc=kw.loc
        )

    def _refinement(self) -> RefinementDecl:
        kw = self.expect_keyword("refinement")
        name = self.expect_ident("obligation name")
        self.expect(":", ":")
        self.expect_keyword("compose")
        op = self.expect_ident("operator name")
        self.expect("(", "(")
        bindings: list[BindingSyntax] = []
        while True:
            contract = self.expect_ident("contract name")
            self.expect_keyword("as")
            binding = self.expect_ident("binding name")
            bindings.append(BindingSyntax(Ref(contract.text, contract.loc), binding.text, loc=contract.loc))
            if self.at(","):
                self.take()
                continue
            break
        self.expect(")", ")")
        self.expect("<:", "<:")
        abstract = self.expect_ident("abstract contract name")
        grid = None
        if self.at("{"):
            self.take()
            lines: list[tuple[str, tuple[Rational, ...]]] = []
            while not self.at("}") and not self.at("eof"):
                var = self.variable("grid variable")
                self.expect("=", "=")
                values = [self.parse_rational()]
                while self.at(","):
                    self.take()
                    values.append(self.parse_rational())
                self.expect(";", ";")
                lines.append((var, tuple(values)))
            self.expect("}", "}")
            grid = tuple(lines)
        else:
            self.expect(";", ";")
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
    match expr:
        case BoolLit() | Var() | Const():
            return
        case Neg(operand=t):
            check_sorts(t, "arith", diags, where)
        case BinOp(left=l, right=r):
            check_sorts(l, "arith", diags, where)
            check_sorts(r, "arith", diags, where)
        case Cmp(left=l, right=r):
            check_sorts(l, "arith", diags, where)
            check_sorts(r, "arith", diags, where)
        case Not(operand=x):
            check_sorts(x, "bool", diags, where)
        case And(left=l, right=r) | Or(left=l, right=r) | Implies(left=l, right=r):
            check_sorts(l, "bool", diags, where)
            check_sorts(r, "bool", diags, where)


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
