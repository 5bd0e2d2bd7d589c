"""Line-oriented text format for algebra definitions.

A document declares families (graded generator symbols with an index kind
and a parity), bracket rules in the index variables m (left) and n (right),
explicit generators and bracket entries for finite algebras, left-symmetric
product entries, symplectic form entries, and named scalar cocycles.  Rules
and cocycles may carry a delta constraint ("when m + n + 1 = 0").

Example::

    algebra esvla convention super
    family L integer even
    family Y half odd
    rule L[m] L[n] => (n - m) L[m+n]
    rule Y[m+1/2] Y[n+1/2] => 2 L[m+n+1]
    cocycle omega1 Y[m+1/2] Y[n+1/2] => 1 when m + n + 1 = 0

``parse`` refuses the first fault with a ``ParseError`` naming its line and
column: a family index must be declared, integer or half-integer, and (except
in a result offset) of the family's kind; a document without rules has only
the generators its ``generator`` lines declare, so its entries, products and
forms may name no other; and no directive may repeat a pair or a cocycle
name.  ``parse`` and ``render`` are exact inverses on canonical documents;
``instantiate`` evaluates every rule over a finite index window, dropping
(and counting) out-of-window results instead of zeroing them, and
``instantiate_cocycle`` evaluates a cocycle over an instance's generators.
Both match patterns through one enumerator, which solves a linear
condition for n instead of testing it on every pair.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, NamedTuple, Optional

from lieforge.algebra import AlgebraInstance, Finding, GeneratorId
from lieforge.cohomology import Cochain2
from lieforge.linalg import MAX_DIGITS

RESERVED = {"m", "n", "when"}

# Largest total degree a polynomial may have.  In "p^e", e times the degree
# of p (a constant counts as degree 1) may not exceed it, checked before the
# power is expanded by repeated multiplication, since an unbounded exponent
# would not return.  No product, written with "*" or by juxtaposition, may
# exceed it either: evaluated in the window, a monomial of unbounded degree
# outgrows the 4,300-digit limit on int-to-str conversion.
MAX_EXPONENT = 16

# Deepest nesting a polynomial may have: each open parenthesis and each
# unary minus counts one level.  The parser recurses once per level, so a
# deeper expression is refused before it exhausts the interpreter's stack.
MAX_NESTING = 32

# Largest dimension an instance may have, from the window's family grids
# and the declared generators together.  The bracket store keeps a dense
# dim x dim grid of pairs, so its time and memory grow as dim**2; at 2,000
# generators instantiation takes about 0.4 s and 111 MB.
MAX_DIM = 2048

# An integer literal, and the numerator or denominator of a polynomial
# coefficient after any arithmetic, may have at most MAX_DIGITS digits, so a
# product of two coefficients evaluated in the window still renders.
_DIGIT_LIMIT = 10 ** MAX_DIGITS

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<arrow>=>)"
    r"|(?P<punct>[\[\]()+\-*/^=,]))"
)


class ParseError(Exception):
    """Syntax or semantic error with 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


class Token(NamedTuple):
    kind: str  # name | int | arrow | punct | end
    text: str
    col: int


def _tokenize(line: str, lineno: int) -> list[Token]:
    out = []
    pos = 0
    stripped = line.split("#", 1)[0]
    while pos < len(stripped):
        m = _TOKEN_RE.match(stripped, pos)
        if m is None:
            rest = stripped[pos:].lstrip()
            if not rest:
                break
            col = len(stripped) - len(rest) + 1
            raise ParseError(lineno, col, f"unexpected character {rest[0]!r}")
        for kind in ("name", "int", "arrow", "punct"):
            text = m.group(kind)
            if text is not None:
                col = m.start(kind) + 1
                if kind == "int" and len(text) > MAX_DIGITS:
                    raise ParseError(
                        lineno, col, f"integer with more than {MAX_DIGITS} digits"
                    )
                out.append(Token(kind, text, col))
                break
        pos = m.end()
    out.append(Token("end", "", len(stripped) + 1))
    return out


class Poly2:
    """Polynomial in m and n with rational coefficients, stored sparsely as
    {(deg_m, deg_n): coefficient}."""

    __slots__ = ("mono",)

    def __init__(self, mono=()):
        items = mono.items() if isinstance(mono, dict) else mono
        store: dict[tuple[int, int], Fraction] = {}
        for k, c in items:
            f = Fraction(c)
            if f:
                store[k] = store.get(k, Fraction(0)) + f
                if not store[k]:
                    del store[k]
        self.mono = store

    @classmethod
    def const(cls, c) -> "Poly2":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "Poly2":
        return cls({(1, 0) if name == "m" else (0, 1): Fraction(1)})

    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2([*self.mono.items(), *other.mono.items()])

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __neg__(self) -> "Poly2":
        return Poly2((k, -c) for k, c in self.mono.items())

    def __mul__(self, other: "Poly2") -> "Poly2":
        return Poly2(
            ((i + k, j + l), c * d)
            for (i, j), c in self.mono.items()
            for (k, l), d in other.mono.items()
        )

    def scale(self, c) -> "Poly2":
        f = Fraction(c)
        return Poly2((k, v * f) for k, v in self.mono.items())

    def constant_value(self) -> Optional[Fraction]:
        if not self.mono:
            return Fraction(0)
        if set(self.mono) == {(0, 0)}:
            return self.mono[(0, 0)]
        return None

    def degree(self) -> int:
        return max((i + j for i, j in self.mono), default=-1)

    def eval(self, m, n) -> Fraction:
        return sum(
            (c * (m**i * n**j) for (i, j), c in self.mono.items()), Fraction(0)
        )

    def __bool__(self) -> bool:
        return bool(self.mono)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.mono == other.mono

    def __hash__(self):
        return hash(frozenset(self.mono.items()))

    def render(self) -> str:
        if not self.mono:
            return "0"
        items = sorted(
            self.mono.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0])
        )
        parts = []
        for (i, j), c in items:
            pieces = []
            if i:
                pieces.append("m" if i == 1 else f"m^{i}")
            if j:
                pieces.append("n" if j == 1 else f"n^{j}")
            var = "*".join(pieces)
            if not var:
                parts.append(str(c))
            elif c == 1:
                parts.append(var)
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{c}*{var}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Poly2({self.render()})"


class LinCond(NamedTuple):
    """Constraint poly(m, n) = rhs with poly of degree at most 1."""

    poly: Poly2
    rhs: Fraction

    def holds(self, m, n) -> bool:
        return self.poly.eval(m, n) == self.rhs

    def render(self) -> str:
        return f"{self.poly.render()} = {self.rhs}"


class FamilyDecl(NamedTuple):
    symbol: str
    kind: str  # integer | half
    parity: str  # even | odd


class GenPat(NamedTuple):
    family: str
    var: str  # m | n
    offset: Fraction

    def render(self) -> str:
        return f"{self.family}[{_index_expr(self.var, self.offset)}]"


class RuleTerm(NamedTuple):
    poly: Poly2
    family: str
    offset: Fraction  # result index is m + n + offset

    def render(self) -> str:
        coeff = self.poly.render()
        if len(self.poly.mono) > 1:
            coeff = f"({coeff})"
        return f"{coeff} {self.family}[{_index_expr('m+n', self.offset)}]"


# The five records that carry their source line, as their last field,
# compare and hash without it, so a document read back from its own
# rendering equals the original.  Each equals only a record of its own type.


def _same_but_line(self, other):
    return type(other) is type(self) and self[:-1] == other[:-1]


def _differs_but_line(self, other):
    return not _same_but_line(self, other)


def _hash_but_line(self):
    return hash(self[:-1])


class BracketRule(NamedTuple):
    left: GenPat
    right: GenPat
    terms: tuple[RuleTerm, ...]  # empty means explicit zero
    condition: Optional[LinCond]
    line: int = 0
    __eq__, __ne__, __hash__ = _same_but_line, _differs_but_line, _hash_but_line

    def render(self) -> str:
        rhs = " + ".join(t.render() for t in self.terms) if self.terms else "0"
        s = f"rule {self.left.render()} {self.right.render()} => {rhs}"
        if self.condition is not None:
            s += f" when {self.condition.render()}"
        return s


class GeneratorDecl(NamedTuple):
    family: str
    index: Fraction
    line: int = 0
    __eq__, __ne__, __hash__ = _same_but_line, _differs_but_line, _hash_but_line

    def render(self) -> str:
        return f"generator {self.family}[{self.index}]"


def _pair_text(left: tuple[str, Fraction], right: tuple[str, Fraction]) -> str:
    """An explicit pair as the document writes it, e.g. ``L[1] L[2]``."""
    return " ".join(f"{fam}[{ix}]" for fam, ix in (left, right))


class ExplicitEntry(NamedTuple):
    kind: str  # entry | product
    left: tuple[str, Fraction]
    right: tuple[str, Fraction]
    value: tuple[tuple[Fraction, str, Fraction], ...]
    line: int = 0
    __eq__, __ne__, __hash__ = _same_but_line, _differs_but_line, _hash_but_line

    def render(self) -> str:
        items = " ".join(f"{c} {fam}[{ix}]" for c, fam, ix in self.value)
        s = f"{self.kind} {_pair_text(self.left, self.right)} =>"
        return f"{s} {items}" if items else s


class FormEntry(NamedTuple):
    left: tuple[str, Fraction]
    right: tuple[str, Fraction]
    value: Fraction
    line: int = 0
    __eq__, __ne__, __hash__ = _same_but_line, _differs_but_line, _hash_but_line

    def render(self) -> str:
        return f"form {_pair_text(self.left, self.right)} => {self.value}"


class CocycleDecl(NamedTuple):
    name: str
    left: GenPat
    right: GenPat
    poly: Poly2
    condition: Optional[LinCond]
    line: int = 0
    __eq__, __ne__, __hash__ = _same_but_line, _differs_but_line, _hash_but_line

    def render(self) -> str:
        s = (
            f"cocycle {self.name} {self.left.render()} {self.right.render()}"
            f" => {self.poly.render()}"
        )
        if self.condition is not None:
            s += f" when {self.condition.render()}"
        return s


class AlgebraSpecDoc(NamedTuple):
    name: str
    convention: str  # plain | super
    families: tuple[FamilyDecl, ...]
    generators: tuple[GeneratorDecl, ...]
    rules: tuple[BracketRule, ...]
    entries: tuple[ExplicitEntry, ...]
    products: tuple[ExplicitEntry, ...]
    forms: tuple[FormEntry, ...]
    cocycles: tuple[CocycleDecl, ...]

    def parity_map(self) -> dict[str, int]:
        return {f.symbol: 1 if f.parity == "odd" else 0 for f in self.families}


def _index_expr(head: str, offset: Fraction) -> str:
    if offset == 0:
        return head
    if offset > 0:
        return f"{head}+{offset}"
    return f"{head}-{-offset}"


class _LineParser:
    def __init__(self, tokens: list[Token], lineno: int):
        self.toks = tokens
        self.lineno = lineno
        self.pos = 0
        self.depth = 0  # nesting of the polynomial being parsed

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def fail(self, message: str, tok: Optional[Token] = None):
        t = tok or self.peek()
        raise ParseError(self.lineno, t.col, message)

    def expect_name(self, what: str = "name") -> Token:
        t = self.next()
        if t.kind != "name":
            self.fail(f"expected {what}, got {t.text or 'end of line'!r}", t)
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            self.fail(f"expected {text!r}, got {t.text or 'end of line'!r}", t)
        return t

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def expect_end(self):
        if not self.at_end():
            self.fail(f"unexpected trailing {self.peek().text!r}")

    # rational literal with optional sign: used in index and value positions
    def rational(self) -> Fraction:
        sign = 1
        t = self.peek()
        if t.text == "-":
            self.next()
            sign = -1
        elif t.text == "+":
            self.next()
        t = self.next()
        if t.kind != "int":
            self.fail("expected number", t)
        num = int(t.text)
        if self.peek().text == "/":
            self.next()
            d = self.next()
            if d.kind != "int" or int(d.text) == 0:
                self.fail("expected nonzero denominator", d)
            return Fraction(sign * num, int(d.text))
        return Fraction(sign * num)

    # --- polynomial expression parsing -------------------------------
    def _bounded(self, p: Poly2, tok: Token) -> Poly2:
        """``p``, unless its degree exceeds MAX_EXPONENT or a coefficient has
        more than MAX_DIGITS digits."""
        degree = p.degree()
        if degree > MAX_EXPONENT:
            self.fail(
                f"polynomial of degree {degree} exceeds the limit {MAX_EXPONENT}", tok
            )
        for c in p.mono.values():
            if abs(c.numerator) >= _DIGIT_LIMIT or c.denominator >= _DIGIT_LIMIT:
                self.fail(f"coefficient with more than {MAX_DIGITS} digits", tok)
        return p

    def poly(self) -> Poly2:
        p = self._poly_product()
        while self.peek().text in ("+", "-"):
            t = self.next()
            q = self._poly_product()
            p = self._bounded(p + q if t.text == "+" else p - q, t)
        return p

    def _poly_product(self) -> Poly2:
        p = self._poly_factor()
        while True:
            t = self.peek()
            if t.text == "*":
                self.next()
                p = p * self._poly_factor()
            elif t.text == "/":
                self.next()
                tok = self.peek()
                q = self._poly_factor()
                c = q.constant_value()
                if c is None or c == 0:
                    self.fail("division only by nonzero constants", tok)
                p = p.scale(Fraction(1) / c)
            elif t.kind == "int" or t.text == "(" or t.text in ("m", "n"):
                # juxtaposition inside a polynomial is multiplication
                p = p * self._poly_factor()
            else:
                return p
            p = self._bounded(p, t)

    def _poly_factor(self) -> Poly2:
        t = self.peek()
        if t.text == "-":
            self.next()
            return -self._nested(t, self._poly_factor)
        return self._poly_power()

    def _nested(self, tok: Token, parse) -> Poly2:
        """``parse()`` one nesting level deeper, refused past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)
        self.depth += 1
        p = parse()
        self.depth -= 1
        return p

    def _poly_power(self) -> Poly2:
        p = self._poly_atom()
        if self.peek().text == "^":
            self.next()
            t = self.next()
            if t.kind != "int":
                self.fail("expected integer exponent", t)
            e = int(t.text)
            degree = e * max(p.degree(), 1)
            if degree > MAX_EXPONENT:
                self.fail(
                    f"power of degree {degree} exceeds the limit {MAX_EXPONENT}", t
                )
            out = Poly2.const(1)
            for _ in range(e):
                out = out * p
            return self._bounded(out, t)
        return p

    def _poly_atom(self) -> Poly2:
        t = self.next()
        if t.kind == "int":
            return Poly2.const(int(t.text))
        if t.text in ("m", "n"):
            return Poly2.var(t.text)
        if t.text == "(":
            p = self._nested(t, self.poly)
            self.expect(")")
            return p
        self.fail("expected number, m, n, or '('", t)

    def lincond(self) -> LinCond:
        tok = self.peek()
        p = self.poly()
        if p.degree() > 1:
            self.fail("constraint must be linear in m, n", tok)
        self.expect("=")
        rhs = self.rational()
        return LinCond(p, rhs)

    def genpat(self, expected_var: str) -> GenPat:
        fam = self.expect_name("family symbol")
        self.expect("[")
        v = self.next()
        if v.text not in ("m", "n"):
            self.fail("expected index variable m or n", v)
        if v.text != expected_var:
            self.fail(
                f"left pattern must use m and right pattern n, got {v.text!r}", v
            )
        offset = Fraction(0)
        t = self.peek()
        if t.text in ("+", "-"):
            offset = self.rational()
        self.expect("]")
        return GenPat(fam.text, v.text, offset)

    def indexed_symbol(self) -> tuple[str, Fraction]:
        fam = self.expect_name("family symbol")
        self.expect("[")
        ix = self.rational()
        self.expect("]")
        return fam.text, ix

    def result_pattern(self) -> tuple[str, Fraction]:
        fam = self.expect_name("result family")
        self.expect("[")
        t = self.next()
        if t.text != "m":
            self.fail("result index must start with m+n", t)
        self.expect("+")
        t = self.next()
        if t.text != "n":
            self.fail("result index must start with m+n", t)
        offset = Fraction(0)
        if self.peek().text in ("+", "-"):
            offset = self.rational()
        self.expect("]")
        return fam.text, offset

    def condition_at_end(self) -> Optional[LinCond]:
        """The optional 'when' clause that ends a rule or cocycle line."""
        cond = None
        if self.peek().text == "when":
            self.next()
            cond = self.lincond()
        self.expect_end()
        return cond


# The directives whose lines a document collects, in AlgebraSpecDoc field order.
_DIRECTIVES = ("family", "generator", "rule", "entry", "product", "form", "cocycle")


def parse(text: str) -> AlgebraSpecDoc:
    """Parse a document; raises ParseError with line and column on failure."""
    name = convention = None
    found: dict[str, list] = {d: [] for d in _DIRECTIVES}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if tokens[0].kind == "end":
            continue
        p = _LineParser(tokens, lineno)
        head = p.expect_name("keyword")
        if name is None and head.text != "algebra":
            p.fail("document must start with an 'algebra' header", head)
        if head.text == "algebra":
            if name is not None:
                p.fail("duplicate 'algebra' header", head)
            name = p.expect_name("algebra name").text
            kw = p.expect_name()
            if kw.text != "convention":
                p.fail("expected 'convention'", kw)
            conv = p.expect_name("plain or super")
            if conv.text not in ("plain", "super"):
                p.fail("convention must be plain or super", conv)
            convention = conv.text
            p.expect_end()
        elif head.text == "family":
            sym = p.expect_name("family symbol")
            if sym.text in RESERVED:
                p.fail(f"{sym.text!r} is reserved and cannot name a family", sym)
            kind = p.expect_name("integer or half")
            if kind.text not in ("integer", "half"):
                p.fail("index kind must be integer or half", kind)
            par = p.expect_name("even or odd")
            if par.text not in ("even", "odd"):
                p.fail("parity must be even or odd", par)
            p.expect_end()
            if any(f.symbol == sym.text for f in found["family"]):
                p.fail(f"duplicate family {sym.text!r}", sym)
            found["family"].append(FamilyDecl(sym.text, kind.text, par.text))
        elif head.text == "generator":
            fam, ix = p.indexed_symbol()
            p.expect_end()
            found["generator"].append(GeneratorDecl(fam, ix, lineno))
        elif head.text == "rule":
            left, right = p.genpat("m"), p.genpat("n")
            p.expect("=>")
            terms: list[RuleTerm] = []
            if p.peek().kind == "int" and p.peek().text == "0" and (
                p.toks[p.pos + 1].text in ("", "when")
            ):
                p.next()
            else:
                # a '+' after a completed term always separates terms; the
                # '+' signs inside a term's polynomial are consumed by poly()
                while True:
                    poly = p.poly()
                    fam, offset = p.result_pattern()
                    terms.append(RuleTerm(poly, fam, offset))
                    if p.peek().text == "+":
                        p.next()
                        continue
                    break
            cond = p.condition_at_end()
            found["rule"].append(BracketRule(left, right, tuple(terms), cond, lineno))
        elif head.text in ("entry", "product"):
            left, right = p.indexed_symbol(), p.indexed_symbol()
            p.expect("=>")
            items = []
            while not p.at_end():
                items.append((p.rational(), *p.indexed_symbol()))
            e = ExplicitEntry(head.text, left, right, tuple(items), lineno)
            found[head.text].append(e)
        elif head.text == "form":
            left, right = p.indexed_symbol(), p.indexed_symbol()
            p.expect("=>")
            v = p.rational()
            p.expect_end()
            found["form"].append(FormEntry(left, right, v, lineno))
        elif head.text == "cocycle":
            cname = p.expect_name("cocycle name").text
            left, right = p.genpat("m"), p.genpat("n")
            p.expect("=>")
            poly = p.poly()
            cond = p.condition_at_end()
            found["cocycle"].append(CocycleDecl(cname, left, right, poly, cond, lineno))
        else:
            p.fail(f"unknown directive {head.text!r}", head)

    if name is None:
        raise ParseError(1, 1, "empty document: missing 'algebra' header")

    doc = AlgebraSpecDoc(name, convention, *map(tuple, found.values()))
    _validate(doc)
    return doc


def _kind_admits(kind: str, doubled: int) -> bool:
    """Whether a family of ``kind`` (integer, half, or both once promoted)
    carries the index whose double is ``doubled``."""
    return kind == "both" or (kind == "half") == (doubled % 2 == 1)


def _validate(doc: AlgebraSpecDoc) -> None:
    """Refuse the first fault in check order: rules (patterns, duplicate,
    result offsets), generators, entries and products, forms, cocycles.
    Without rules, an entry, product or form may name only declared
    generators; with rules, the window makes the generators, and
    ``instantiate`` checks the entries against it."""
    kinds = {f.symbol: f.kind for f in doc.families}
    seen: set[tuple[str, str]] = set()
    declared = None if doc.rules else {(g.family, g.index) for g in doc.generators}

    def index(line: int, fam: str, value: Fraction, what: str, shown: str = ""):
        """Refuse an undeclared family or a value that is not an integer or
        half-integer; given how to show the index, one of the wrong kind."""
        if fam not in kinds:
            raise ParseError(line, 1, f"undeclared family {fam!r}")
        doubled = value * 2
        if doubled.denominator != 1:
            raise ParseError(
                line, 1, f"{what} {value} is not an integer or half-integer"
            )
        if shown and not _kind_admits(kinds[fam], int(doubled)):
            raise ParseError(
                line, 1, f"{shown} does not match {kinds[fam]} family {fam!r}"
            )

    def patterns(decl: BracketRule | CocycleDecl) -> None:
        for pat in (decl.left, decl.right):
            shown = f"pattern {pat.render()}"
            index(decl.line, pat.family, pat.offset, "offset", shown)

    def once(line: int, directive: str, detail: str) -> None:
        if (directive, detail) in seen:
            raise ParseError(line, 1, f"duplicate {directive} {detail}")
        seen.add((directive, detail))

    for r in doc.rules:
        patterns(r)
        once(r.line, "rule", f"for pair {r.left.family} {r.right.family}")
        for t in r.terms:
            index(r.line, t.family, t.offset, "result offset")
    for g in doc.generators:
        index(g.line, g.family, g.index, "index", f"index {g.index}")
    explicit = [(e.kind, e, e.value) for e in (*doc.entries, *doc.products)]
    for directive, e, values in explicit + [("form", f, ()) for f in doc.forms]:
        for fam, ix in (e.left, e.right, *(item[1:] for item in values)):
            index(e.line, fam, ix, "index", f"index {ix}")
            if declared is not None and (fam, ix) not in declared:
                raise ParseError(e.line, 1, f"{fam}[{ix}] is not a declared generator")
        once(e.line, directive, f"for {_pair_text(e.left, e.right)}")
    for c in doc.cocycles:
        patterns(c)
        once(c.line, "cocycle", repr(c.name))


def render(doc: AlgebraSpecDoc) -> str:
    """Canonical text; parse(render(doc)) is structurally equal to doc."""
    lines = [f"algebra {doc.name} convention {doc.convention}"]
    for f in doc.families:
        lines.append(f"family {f.symbol} {f.kind} {f.parity}")
    for g in doc.generators:
        lines.append(g.render())
    for r in doc.rules:
        lines.append(r.render())
    for e in doc.entries:
        lines.append(e.render())
    for e in doc.products:
        lines.append(e.render())
    for f in doc.forms:
        lines.append(f.render())
    for c in doc.cocycles:
        lines.append(c.render())
    return "\n".join(lines) + "\n"


def _family_grid(kind: str, window: int) -> range:
    """Doubled indices for one family over |index| <= window."""
    if kind == "integer":
        return range(-2 * window, 2 * window + 1, 2)
    if kind == "half":
        return range(-2 * window + 1, 2 * window, 2)
    # both kinds (promoted family)
    return range(-2 * window, 2 * window + 1)


def _promoted_families(doc: AlgebraSpecDoc) -> set[str]:
    """Families that receive an ill-kinded result index from some rule."""
    kinds = {f.symbol: f.kind for f in doc.families}
    return {
        t.family
        for r in doc.rules
        for t in r.terms
        if not _kind_admits(kinds[t.family], int(t.offset * 2))
    }


def _pattern_pairs(
    left: GenPat,
    right: GenPat,
    condition: Optional[LinCond],
    by_family: Mapping[str, list[GeneratorId]],
) -> Iterator[tuple[GeneratorId, GeneratorId, int, int]]:
    """(g, h, m, n) for every generator pair the two patterns match and the
    condition admits: g from the left family, h from the right one, each in
    generator order, with integer pattern values m and n.

    The condition a*m + b*n + c = rhs is linear, so it is solved for n at
    each m instead of being tested on every pair.  With b = 0 it holds for
    all or none of the right generators; otherwise only the generator at the
    solved n matches, and a non-integer or out-of-grid n matches none.
    """

    def values(pat: GenPat) -> list[tuple[GeneratorId, int]]:
        shift = int(2 * pat.offset)
        return [
            (g, (g.doubled_index - shift) // 2)
            for g in by_family.get(pat.family, ())
            if (g.doubled_index - shift) % 2 == 0
        ]

    rights = values(right)
    mono = condition.poly.mono if condition is not None else {}
    a, b = mono.get((1, 0), 0), mono.get((0, 1), 0)
    rest = (condition.rhs if condition is not None else 0) - mono.get((0, 0), 0)
    # the condition over one denominator, so n is solved in integers
    den = lcm(a.denominator, b.denominator, rest.denominator)
    a, b, rest = int(a * den), int(b * den), int(rest * den)
    at_n = {n: h for h, n in rights}
    for g, m in values(left):
        if not b:
            if a * m == rest:
                for h, n in rights:
                    yield g, h, m, n
            continue
        n, r = divmod(rest - a * m, b)
        h = None if r else at_n.get(n)
        if h is not None:
            yield g, h, m, n


def _layout(
    doc: AlgebraSpecDoc, window: Optional[int], kind_mode: str
) -> tuple[Optional[int], dict[str, str], dict[str, range], set[tuple[str, int]]]:
    """The window the rules run over, each family's kind and grid of
    doubled indices, and the declared (family, doubled index) pairs.  A
    window below 1 is refused; a document without rules then has no window
    and empty grids, since it declares all of its generators."""
    if kind_mode not in ("strict", "extended"):
        raise ValueError(f"unknown kind_mode {kind_mode!r}")
    if doc.rules and window is None:
        raise ValueError("document has rules; a window is required")
    if window is not None and window < 1:
        raise ValueError("window must be >= 1")
    if not doc.rules:
        window = None
    promoted = _promoted_families(doc) if kind_mode == "extended" else set()
    fam_kind = {
        f.symbol: ("both" if f.symbol in promoted else f.kind)
        for f in doc.families
    }
    grids = {
        f.symbol: range(0) if window is None else _family_grid(fam_kind[f.symbol], window)
        for f in doc.families
    }
    declared = {(g.family, int(g.index * 2)) for g in doc.generators}
    return window, fam_kind, grids, declared


def dimension(
    doc: AlgebraSpecDoc, window: Optional[int] = None, kind_mode: str = "strict"
) -> int:
    """The dimension of ``instantiate(doc, window, kind_mode)``, counted
    before any grid is built (len() of a range stops at sys.maxsize): each
    grid's size, and the declared generators off it."""
    _, _, grids, declared = _layout(doc, window, kind_mode)
    return sum(-((r.start - r.stop) // r.step) for r in grids.values()) + sum(
        d not in grids[fam] for fam, d in declared
    )


def instantiate(
    doc: AlgebraSpecDoc,
    window: Optional[int] = None,
    kind_mode: str = "strict",
    found=None,
) -> AlgebraInstance:
    """Evaluate rules and entries into a finite AlgebraInstance.

    kind_mode governs rule terms whose result index does not match the
    declared kind of the result family (integer family receiving m+n+1/2):
    "strict" drops each occurrence with an E_KIND finding, "extended" widens
    the family to carry both integer and half-integer indices.  ``found`` is
    the sink of those findings, the instance's ``findings``: any object with
    ``append`` and ``len``, a new list when None.

    Every rule coefficient and entry value is an integer over one
    document-wide denominator, so each rule term is evaluated as integer
    monomials in m and n, with doubled result indices.

    The window truncates the family grids the rules run over.  A window
    below 1 is refused for every document; one without rules declares all
    of its generators, so it is built without a window.  An instance of more
    than MAX_DIM generators is refused before any grid is built.
    """
    dim = dimension(doc, window, kind_mode)
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the limit {MAX_DIM}")
    window, fam_kind, grids, declared = _layout(doc, window, kind_mode)

    # each family's grid and declared generators, once each, by index
    doubled = {fam: set(grid) for fam, grid in grids.items()}
    for fam, d in declared:
        doubled[fam].add(d)
    by_family = {
        fam: [GeneratorId(fam, d) for d in sorted(ds)] for fam, ds in doubled.items()
    }

    generators: list[GeneratorId] = []
    for f in doc.families:
        generators.extend(by_family[f.symbol])
    at = {(g.family, g.doubled_index): g for g in generators}

    scale = lcm(
        *(c.denominator for r in doc.rules for t in r.terms for c in t.poly.mono.values()),
        *(c.denominator for e in doc.entries for c, _, _ in e.value),
    )

    def over(c: Fraction) -> int:
        """The coefficient c as an integer over ``scale``."""
        return c.numerator * (scale // c.denominator)

    entries: dict[tuple[GeneratorId, GeneratorId], dict[GeneratorId, int]] = {}
    findings = [] if found is None else found
    boundary: set[tuple[GeneratorId, GeneratorId]] = set()
    dropped = 0

    for r in doc.rules:
        rule_terms = [
            ([(over(c), *ij) for ij, c in t.poly.mono.items()], t.family, int(2 * t.offset))
            for t in r.terms
        ]
        for g, h, m, n in _pattern_pairs(r.left, r.right, r.condition, by_family):
            acc: dict[GeneratorId, int] = {}
            flagged = False
            for mono, family, shift in rule_terms:
                coeff = sum(c * m**i * n**j for c, i, j in mono)
                if not coeff:
                    continue
                d = 2 * (m + n) + shift
                kind = fam_kind[family]
                if not _kind_admits(kind, d):
                    findings.append(
                        Finding(
                            "E_KIND",
                            f"rule@{r.line} [{g},{h}]",
                            f"result index {GeneratorId(family, d).index_str()}"
                            f" invalid for {kind} family {family!r}",
                        )
                    )
                    continue
                if abs(d) > 2 * window:
                    flagged = True
                    dropped += 1
                    continue
                tgt = at[family, d]
                acc[tgt] = acc.get(tgt, 0) + coeff
            if flagged:
                boundary.add((g, h))
            if any(acc.values()):
                entries[(g, h)] = acc

    in_scope = {
        g for g in generators if window is None or abs(g.doubled_index) <= 2 * window
    }
    for e in doc.entries:
        g = GeneratorId(e.left[0], int(e.left[1] * 2))
        h = GeneratorId(e.right[0], int(e.right[1] * 2))
        value: dict[GeneratorId, int] = {}
        for c, fam, ix in e.value:
            tgt = GeneratorId(fam, int(ix * 2))
            value[tgt] = value.get(tgt, 0) + over(c)
        for t in (g, h, *value):
            if t not in in_scope:
                raise ValueError(
                    f"entry at line {e.line} references out-of-scope"
                    f" generator {t}"
                )
        if any(value.values()):
            if (g, h) in entries:
                raise ValueError(f"duplicate bracket entry for ({g}, {h})")
            entries[(g, h)] = value

    return AlgebraInstance(
        doc.name,
        generators,
        entries,
        scale,
        doc.parity_map(),
        doc.convention,
        window=window,
        boundary_pairs=boundary,
        dropped_terms=dropped,
        findings=findings,
    )


def instantiate_cocycle(decl: CocycleDecl, A: AlgebraInstance) -> Cochain2:
    """Evaluate one cocycle declaration over an instance's generators.

    A value is stored on every ordered pair the declaration matches, so a
    symmetric display stores both orders and a one-sided display extends by
    the convention on lookup.  Families the instance lacks match nothing.
    """
    by_family: dict[str, list[GeneratorId]] = {}
    for g in A.generators:
        by_family.setdefault(g.family, []).append(g)
    pairs = _pattern_pairs(decl.left, decl.right, decl.condition, by_family)
    raw = {(g, h): decl.poly.eval(m, n) for g, h, m, n in pairs}
    return Cochain2(A.parity, A.convention, raw)
