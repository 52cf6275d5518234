"""Session files: the batch input language.

A session declares one ring, then any number of named objects:

    ring p=7 vars=x,y,z order=grevlex
    ideal conic = x*z - y^2
    forms proj = x, z
    projection P = conic : proj

Statements are one per line; blank lines and '#' comments are skipped.  The
ring line must come first.  `ext=k` after `p=` puts the ring over GF(p^k).

Polynomial grammar (implicit multiplication is rejected, so "2x" is a
syntax error):

    poly   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := integer | variable ('^' nat)? | '(' poly ')'

Parse errors carry line, column and the expected-token set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, UsageError
from .fields import GF, is_prime
from .orders import GREVLEX, ORDER_KINDS, MonomialOrder
from .polynomials import PolyRing, Polynomial

SESSION_EXTENSION = ".reg"

_SYMBOLS = "+-*^()=,:"


@dataclass(frozen=True)
class Token:
    kind: str  # 'name', 'int', one of the symbols, or 'end'
    text: str
    line: int
    col: int


def _tokenize(text: str, line_no: int):
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and (text[j].isalpha() or text[j] == "_"):
                raise ParseError(
                    "implicit multiplication is not allowed; write '*' "
                    "between coefficient and variable",
                    line_no, j + 1,
                )
            out.append(Token("int", text[i:j], line_no, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("name", text[i:j], line_no, col))
            i = j
            continue
        if ch in _SYMBOLS:
            out.append(Token(ch, ch, line_no, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, col)
    out.append(Token("end", "", line_no, len(text) + 1))
    return out


_KIND_NAMES = {"name": "a name", "int": "an integer", "end": "end of line"}


def _describe(tok: Token) -> str:
    if tok.kind == "end":
        return "end of line"
    if tok.kind in ("name", "int"):
        return f"{tok.kind} {tok.text!r}"
    return f"{tok.text!r}"


def _expected(kinds):
    return tuple(_KIND_NAMES.get(k, repr(k)) for k in kinds)


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, *kinds) -> Token:
        tok = self.peek()
        if tok.kind not in kinds:
            raise ParseError(
                f"unexpected {_describe(tok)}", tok.line, tok.col,
                expected=_expected(kinds),
            )
        return self.next()


class _PolyParser:
    """Recursive descent over the expression grammar."""

    def __init__(self, stream: _TokenStream, ring: PolyRing, var_index):
        self.stream = stream
        self.ring = ring
        self.var_index = var_index

    def parse_poly(self) -> Polynomial:
        total = self.parse_term()
        while self.stream.peek().kind in ("+", "-"):
            op = self.stream.next().kind
            term = self.parse_term()
            total = total + term if op == "+" else total - term
        return total

    def parse_term(self) -> Polynomial:
        total = self.parse_factor()
        while self.stream.peek().kind == "*":
            self.stream.next()
            total = total * self.parse_factor()
        return total

    def parse_factor(self) -> Polynomial:
        tok = self.stream.peek()
        if tok.kind == "int":
            self.stream.next()
            return self.ring.constant(int(tok.text))
        if tok.kind == "name":
            self.stream.next()
            if tok.text not in self.var_index:
                raise ParseError(
                    f"unknown variable {tok.text!r}; ring variables are "
                    f"{', '.join(self.ring.names)}",
                    tok.line, tok.col,
                )
            var = self.ring.variable(self.var_index[tok.text])
            if self.stream.peek().kind == "^":
                self.stream.next()
                etok = self.stream.expect("int")
                return var ** int(etok.text)
            return var
        if tok.kind == "(":
            self.stream.next()
            inner = self.parse_poly()
            self.stream.expect(")")
            return inner
        raise ParseError(
            f"unexpected {_describe(tok)}", tok.line, tok.col,
            expected=("an integer", "a variable", "'('"),
        )


@dataclass(frozen=True)
class SessionFile:
    ring: PolyRing
    ideals: dict
    forms: dict
    projections: dict  # name -> (ideal_name, forms_name)


def _parse_ring_line(stream: _TokenStream, line_no: int) -> PolyRing:
    settings = {}
    while stream.peek().kind != "end":
        key = stream.expect("name")
        stream.expect("=")
        if key.text in settings:
            raise ParseError(
                f"duplicate ring setting {key.text!r}", key.line, key.col
            )
        if key.text in ("p", "ext"):
            val = stream.expect("int")
            settings[key.text] = int(val.text)
        elif key.text == "vars":
            names = [stream.expect("name").text]
            while stream.peek().kind == ",":
                stream.next()
                names.append(stream.expect("name").text)
            settings["vars"] = names
        elif key.text == "order":
            val = stream.expect("name")
            if val.text not in ORDER_KINDS:
                raise ParseError(
                    f"unknown order {val.text!r}", val.line, val.col,
                    expected=ORDER_KINDS,
                )
            settings["order"] = val.text
        else:
            raise ParseError(
                f"unknown ring setting {key.text!r}", key.line, key.col,
                expected=("p", "ext", "vars", "order"),
            )
    for required in ("p", "vars"):
        if required not in settings:
            raise ParseError(
                f"ring declaration is missing {required!r}", line_no
            )
    p = settings["p"]
    if not is_prime(p):
        raise ParseError(f"characteristic {p} is not prime", line_no)
    names = settings["vars"]
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable names", line_no)
    order = MonomialOrder(settings.get("order", GREVLEX), len(names))
    try:
        field = GF(p, settings.get("ext", 1))
    except UsageError as exc:
        raise ParseError(str(exc), line_no) from exc
    return PolyRing(tuple(names), field, order)


def _parse_poly_list(stream: _TokenStream, ring: PolyRing, var_index):
    parser = _PolyParser(stream, ring, var_index)
    polys = [parser.parse_poly()]
    while stream.peek().kind == ",":
        stream.next()
        polys.append(parser.parse_poly())
    stream.expect("end")
    return tuple(polys)


def parse_session(text: str) -> SessionFile:
    """Parse a session file into its ring and named objects."""
    ring = None
    var_index = None
    ideals: dict = {}
    forms: dict = {}
    projections: dict = {}
    names_seen = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if tokens[0].kind == "end":
            continue
        stream = _TokenStream(tokens)
        head = stream.expect("name")

        if head.text == "ring":
            if ring is not None:
                raise ParseError("the ring is already declared", line_no)
            ring = _parse_ring_line(stream, line_no)
            var_index = {name: i for i, name in enumerate(ring.names)}
            continue

        if ring is None:
            raise ParseError(
                f"the ring must be declared before {head.text!r}", line_no
            )
        if head.text in ("ideal", "forms", "projection"):
            name = stream.expect("name")
            if name.text in names_seen:
                raise ParseError(
                    f"the name {name.text!r} is already in use",
                    name.line, name.col,
                )
            stream.expect("=")
            if head.text == "ideal":
                ideals[name.text] = _parse_poly_list(stream, ring, var_index)
            elif head.text == "forms":
                forms[name.text] = _parse_poly_list(stream, ring, var_index)
            else:
                ideal_name = stream.expect("name")
                stream.expect(":")
                forms_name = stream.expect("name")
                stream.expect("end")
                if ideal_name.text not in ideals:
                    raise ParseError(
                        f"unknown ideal {ideal_name.text!r}",
                        ideal_name.line, ideal_name.col,
                    )
                if forms_name.text not in forms:
                    raise ParseError(
                        f"unknown forms list {forms_name.text!r}",
                        forms_name.line, forms_name.col,
                    )
                projections[name.text] = (ideal_name.text, forms_name.text)
            names_seen.add(name.text)
            continue

        raise ParseError(
            f"unknown statement {head.text!r}", head.line, head.col,
            expected=("ring", "ideal", "forms", "projection"),
        )

    if ring is None:
        raise ParseError("the session declares no ring")
    return SessionFile(ring, ideals, forms, projections)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse one polynomial over an existing ring (also the round-trip
    inverse of the polynomial printer)."""
    tokens = _tokenize(text, 1)
    stream = _TokenStream(tokens)
    var_index = {name: i for i, name in enumerate(ring.names)}
    poly = _PolyParser(stream, ring, var_index).parse_poly()
    stream.expect("end")
    return poly
