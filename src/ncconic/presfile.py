"""Parser for the presentation file format.

Grammar (one directive per line):

    field: Q | Q(i) | Q(sqrt N)   (before gens)
    gens:  ident+                 (once)
    rel:   polyexpr        (repeatable)
    elem:  polyexpr        (repeatable)
    expect_<key>: text     (repeatable; read by the table rows' checks)
    label: text
    # comment

Products need '*', whitespace or parentheses between factors; a multi-letter
identifier is a single name, never a product.  Scalar literals: integers,
fractions via '/', 'i' for sqrt(-1), 'sqrt(N)' for sqrt(N).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .freealg import Ambient, NcPoly, UsageError
from .scalars import FieldSpec, QI, QQ, Scalar, _squarefree_core


class PresSyntaxError(UsageError):
    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


@dataclass
class PresentationFile:
    spec: FieldSpec | None = None
    ambient: Ambient | None = None
    relations: list[NcPoly] = field(default_factory=list)
    elems: list[NcPoly] = field(default_factory=list)
    expects: dict[str, list[str]] = field(default_factory=dict)  # expect_<key> values by key
    label: str = ""


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


class _Lexer:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            m = _TOKEN.match(text, self.pos)
            if m is None or m.end() == self.pos:
                if text[self.pos :].strip():
                    raise PresSyntaxError(line, self.pos + 1, "a token")
                break
            col = m.start(m.lastindex) + 1
            if m.group(1):
                self.tokens.append(("num", m.group(1), col))
            elif m.group(2):
                self.tokens.append(("ident", m.group(2), col))
            else:
                self.tokens.append(("op", m.group(3), col))
            self.pos = m.end()
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else ("eof", "", len(self.text) + 1)

    def next(self):
        t = self.peek()
        self.idx += 1
        return t

    def expect_op(self, op: str):
        kind, val, col = self.next()
        if kind != "op" or val != op:
            raise PresSyntaxError(self.line, col, f"'{op}'")


class _ExprParser:
    """Recursive-descent parser producing NcPoly values; scalar subexpressions
    are degree-0 polynomials, and '/' needs a scalar divisor."""

    def __init__(self, lex: _Lexer, ambient: Ambient):
        self.lex = lex
        self.amb = ambient

    def parse(self) -> NcPoly:
        p = self.expr()
        kind, val, col = self.lex.peek()
        if kind != "eof":
            raise PresSyntaxError(self.lex.line, col, "end of expression")
        return p

    def expr(self) -> NcPoly:
        kind, val, _ = self.lex.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.lex.next()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.lex.peek()
            if kind == "op" and val in "+-":
                self.lex.next()
                rhs = self.term()
                acc = acc - rhs if val == "-" else acc + rhs
            else:
                return acc

    def term(self) -> NcPoly:
        acc = self.atom()
        while True:
            kind, val, col = self.lex.peek()
            if kind == "op" and val == "*":
                self.lex.next()
                acc = acc * self.atom()
            elif kind == "op" and val == "/":
                self.lex.next()
                rhs = self.atom()
                if rhs.degree() > 0:
                    raise PresSyntaxError(self.lex.line, col, "a scalar divisor")
                c = rhs.terms.get((), None)
                if c is None or c.is_zero():
                    raise PresSyntaxError(self.lex.line, col, "a nonzero divisor")
                acc = acc.scale(c.inverse())
            elif kind in ("num", "ident") or (kind == "op" and val == "("):
                acc = acc * self.atom()
            else:
                return acc

    def atom(self) -> NcPoly:
        kind, val, col = self.lex.next()
        if kind == "num":
            return NcPoly.scalar(self.amb, int(val))
        if kind == "ident":
            if val in self.amb.names:
                p = NcPoly.generator(self.amb, self.amb.index(val))
                return self._maybe_power(p)
            if val == "i":
                if self.amb.spec != QI:
                    raise PresSyntaxError(self.lex.line, col, "'i' only over Q(i)")
                return NcPoly.scalar(self.amb, Scalar.sqrt_part(1, QI))
            if val == "sqrt":
                self.lex.expect_op("(")
                sign = 1
                kind2, val2, col2 = self.lex.next()
                if kind2 == "op" and val2 == "-":
                    sign = -1
                    kind2, val2, col2 = self.lex.next()
                if kind2 != "num":
                    raise PresSyntaxError(self.lex.line, col2, "an integer under sqrt")
                self.lex.expect_op(")")
                n = sign * int(val2)
                if n == 0:
                    return NcPoly.zero(self.amb)
                core, m = _squarefree_core(n)
                if core == 1:
                    return NcPoly.scalar(self.amb, m)
                if self.amb.spec.is_rational or self.amb.spec.d != core:
                    raise PresSyntaxError(
                        self.lex.line, col, f"sqrt({n}) needs field Q(sqrt {core})"
                    )
                return NcPoly.scalar(self.amb, Scalar.sqrt_part(m, self.amb.spec))
            raise PresSyntaxError(self.lex.line, col, f"a declared generator (got '{val}')")
        if kind == "op" and val == "(":
            p = self.expr()
            self.lex.expect_op(")")
            return p
        raise PresSyntaxError(self.lex.line, col, "a number, generator or '('")

    def _maybe_power(self, p: NcPoly) -> NcPoly:
        kind, val, col = self.lex.peek()
        if kind == "op" and val == "^":
            self.lex.next()
            kind2, val2, col2 = self.lex.next()
            if kind2 != "num":
                raise PresSyntaxError(self.lex.line, col2, "an integer exponent")
            e = int(val2)
            out = NcPoly.one(self.amb)
            for _ in range(e):
                out = out * p
            return out
        return p


def parse_field(text: str, line: int) -> FieldSpec:
    t = text.strip()
    if t == "Q":
        return QQ
    if t == "Q(i)":
        return QI
    m = re.fullmatch(r"Q\(sqrt\s*(-?\d+)\)", t)
    if m:
        try:
            return FieldSpec(int(m.group(1)))
        except ValueError:
            raise PresSyntaxError(line, 1, "a squarefree N other than 0, 1 in Q(sqrt N)") from None
    raise PresSyntaxError(line, 1, "Q, Q(i) or Q(sqrt N)")


def parse_poly(text: str, ambient: Ambient, line: int = 1) -> NcPoly:
    return _ExprParser(_Lexer(text, line), ambient).parse()


def directives(text: str):
    """(line number, key, value) for each directive line of text."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise PresSyntaxError(ln, 1, "'key: value'")
        key, _, value = line.partition(":")
        yield ln, key.strip(), value.strip()


def directive_poly(pf: PresentationFile, ln: int, key: str, value: str) -> NcPoly:
    """The polynomial value of a key directive, in pf's generators."""
    if pf.ambient is None:
        raise PresSyntaxError(ln, 1, f"gens before {key}")
    return parse_poly(value, pf.ambient, ln)


def read_directive(pf: PresentationFile, ln: int, key: str, value: str) -> bool:
    """Apply one presentation directive to pf; False if key is not one."""
    if key == "field":
        if pf.ambient is not None:
            raise PresSyntaxError(ln, 1, "field before gens")
        pf.spec = parse_field(value, ln)
    elif key == "gens":
        names = tuple(value.split())
        if not names:
            raise PresSyntaxError(ln, 1, "at least one generator")
        if len(set(names)) != len(names):
            raise PresSyntaxError(ln, 1, "distinct generator names")
        if pf.spec is None:
            raise PresSyntaxError(ln, 1, "field before gens")
        if pf.ambient is not None:
            raise PresSyntaxError(ln, 1, "one gens directive")
        pf.ambient = Ambient(names, pf.spec)
    elif key == "label":
        pf.label = value
    elif key in ("rel", "elem"):
        (pf.relations if key == "rel" else pf.elems).append(directive_poly(pf, ln, key, value))
    elif key.startswith("expect_"):
        pf.expects.setdefault(key[len("expect_") :], []).append(value)
    else:
        return False
    return True


def parse(text: str) -> PresentationFile:
    pf = PresentationFile()
    for ln, key, value in directives(text):
        if not read_directive(pf, ln, key, value):
            raise PresSyntaxError(ln, 1, f"a known directive (got '{key}')")
    if pf.ambient is None:
        raise PresSyntaxError(1, 1, "field and gens directives")
    return pf


def print_poly(p: NcPoly) -> str:
    return str(p)


def print_presentation(pf: PresentationFile) -> str:
    lines = []
    if pf.label:
        lines.append(f"label: {pf.label}")
    lines.append(f"field: {pf.spec}")
    lines.append("gens: " + " ".join(pf.ambient.names))
    for r in pf.relations:
        lines.append("rel: " + print_poly(r))
    for e in pf.elems:
        lines.append("elem: " + print_poly(e))
    return "\n".join(lines) + "\n"
