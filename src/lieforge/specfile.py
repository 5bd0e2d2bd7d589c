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

``parse`` and ``render`` are exact inverses on canonical documents;
``instantiate`` evaluates every rule over a finite index window, dropping
(and counting) out-of-window results instead of zeroing them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from lieforge.algebra import (
    AlgebraInstance,
    BracketTable,
    Element,
    Finding,
    GeneratorId,
)
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


@dataclass(frozen=True)
class Token:
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
        out = dict(self.mono)
        for k, c in other.mono.items():
            v = out.get(k, Fraction(0)) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        p = Poly2.__new__(Poly2)
        p.mono = out
        return p

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __neg__(self) -> "Poly2":
        p = Poly2.__new__(Poly2)
        p.mono = {k: -c for k, c in self.mono.items()}
        return p

    def __mul__(self, other: "Poly2") -> "Poly2":
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.mono.items():
            for (k, l), d in other.mono.items():
                key = (i + k, j + l)
                v = out.get(key, Fraction(0)) + c * d
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        p = Poly2.__new__(Poly2)
        p.mono = out
        return p

    def scale(self, c) -> "Poly2":
        f = Fraction(c)
        p = Poly2.__new__(Poly2)
        p.mono = {} if not f else {k: v * f for k, v in self.mono.items()}
        return p

    def constant_value(self) -> Optional[Fraction]:
        if not self.mono:
            return Fraction(0)
        if set(self.mono) == {(0, 0)}:
            return self.mono[(0, 0)]
        return None

    def degree(self) -> int:
        return max((i + j for i, j in self.mono), default=-1)

    def eval(self, m, n) -> Fraction:
        total = Fraction(0)
        for (i, j), c in self.mono.items():
            total += c * Fraction(m) ** i * Fraction(n) ** j
        return total

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


@dataclass(frozen=True)
class LinCond:
    """Constraint poly(m, n) = rhs with poly of degree at most 1."""

    poly: Poly2
    rhs: Fraction

    def holds(self, m, n) -> bool:
        return self.poly.eval(m, n) == self.rhs

    def render(self) -> str:
        return f"{self.poly.render()} = {_frac(self.rhs)}"


@dataclass(frozen=True)
class FamilyDecl:
    symbol: str
    kind: str  # integer | half
    parity: str  # even | odd


@dataclass(frozen=True)
class GenPat:
    family: str
    var: str  # m | n
    offset: Fraction

    def render(self) -> str:
        return f"{self.family}[{_index_expr(self.var, self.offset)}]"


@dataclass(frozen=True)
class RuleTerm:
    poly: Poly2
    family: str
    offset: Fraction  # result index is m + n + offset

    def render(self) -> str:
        coeff = self.poly.render()
        if len(self.poly.mono) > 1:
            coeff = f"({coeff})"
        return f"{coeff} {self.family}[{_index_expr('m+n', self.offset)}]"


@dataclass(frozen=True)
class BracketRule:
    left: GenPat
    right: GenPat
    terms: tuple[RuleTerm, ...]  # empty means explicit zero
    condition: Optional[LinCond]
    line: int = field(compare=False, default=0)

    def render(self) -> str:
        rhs = " + ".join(t.render() for t in self.terms) if self.terms else "0"
        s = f"rule {self.left.render()} {self.right.render()} => {rhs}"
        if self.condition is not None:
            s += f" when {self.condition.render()}"
        return s


@dataclass(frozen=True)
class GeneratorDecl:
    family: str
    index: Fraction
    line: int = field(compare=False, default=0)

    def render(self) -> str:
        return f"generator {self.family}[{_frac(self.index)}]"


@dataclass(frozen=True)
class ExplicitEntry:
    kind: str  # entry | product
    left: tuple[str, Fraction]
    right: tuple[str, Fraction]
    value: tuple[tuple[Fraction, str, Fraction], ...]
    line: int = field(compare=False, default=0)

    def render(self) -> str:
        items = " ".join(
            f"{_frac(c)} {fam}[{_frac(ix)}]" for c, fam, ix in self.value
        )
        lf, li = self.left
        rf, ri = self.right
        s = f"{self.kind} {lf}[{_frac(li)}] {rf}[{_frac(ri)}] =>"
        return f"{s} {items}" if items else s


@dataclass(frozen=True)
class FormEntry:
    left: tuple[str, Fraction]
    right: tuple[str, Fraction]
    value: Fraction
    line: int = field(compare=False, default=0)

    def render(self) -> str:
        lf, li = self.left
        rf, ri = self.right
        return f"form {lf}[{_frac(li)}] {rf}[{_frac(ri)}] => {_frac(self.value)}"


@dataclass(frozen=True)
class CocycleDecl:
    name: str
    left: GenPat
    right: GenPat
    poly: Poly2
    condition: Optional[LinCond]
    line: int = field(compare=False, default=0)

    def render(self) -> str:
        s = (
            f"cocycle {self.name} {self.left.render()} {self.right.render()}"
            f" => {self.poly.render()}"
        )
        if self.condition is not None:
            s += f" when {self.condition.render()}"
        return s


@dataclass(frozen=True)
class AlgebraSpecDoc:
    name: str
    convention: str  # plain | super
    families: tuple[FamilyDecl, ...]
    generators: tuple[GeneratorDecl, ...]
    rules: tuple[BracketRule, ...]
    entries: tuple[ExplicitEntry, ...]
    products: tuple[ExplicitEntry, ...]
    forms: tuple[FormEntry, ...]
    cocycles: tuple[CocycleDecl, ...]

    def family(self, symbol: str) -> Optional[FamilyDecl]:
        for f in self.families:
            if f.symbol == symbol:
                return f
        return None

    def parity_map(self) -> dict[str, int]:
        return {f.symbol: 1 if f.parity == "odd" else 0 for f in self.families}


def _frac(f: Fraction) -> str:
    return str(f)


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
    def poly(self) -> Poly2:
        p = self._poly_sum()
        return p

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

    def _poly_sum(self) -> Poly2:
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
            p = self._nested(t, self._poly_sum)
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

    def indexed_symbol(self) -> tuple[str, Fraction, Token]:
        fam = self.expect_name("family symbol")
        self.expect("[")
        ix = self.rational()
        self.expect("]")
        return fam.text, ix, fam

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


def parse(text: str) -> AlgebraSpecDoc:
    """Parse a document; raises ParseError with line and column on failure."""
    name = None
    convention = None
    families: list[FamilyDecl] = []
    generators: list[GeneratorDecl] = []
    rules: list[BracketRule] = []
    entries: list[ExplicitEntry] = []
    products: list[ExplicitEntry] = []
    forms: list[FormEntry] = []
    cocycles: list[CocycleDecl] = []

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
            if any(f.symbol == sym.text for f in families):
                p.fail(f"duplicate family {sym.text!r}", sym)
            families.append(FamilyDecl(sym.text, kind.text, par.text))
        elif head.text == "generator":
            fam, ix, tok = p.indexed_symbol()
            p.expect_end()
            generators.append(GeneratorDecl(fam, ix, lineno))
        elif head.text == "rule":
            left = p.genpat("m")
            right = p.genpat("n")
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
            cond = None
            if p.peek().text == "when":
                p.next()
                cond = p.lincond()
            p.expect_end()
            rules.append(BracketRule(left, right, tuple(terms), cond, lineno))
        elif head.text in ("entry", "product"):
            lf = p.indexed_symbol()
            rf = p.indexed_symbol()
            p.expect("=>")
            items = []
            while not p.at_end():
                c = p.rational()
                fam, ix, _ = p.indexed_symbol()
                items.append((c, fam, ix))
            e = ExplicitEntry(
                head.text, (lf[0], lf[1]), (rf[0], rf[1]), tuple(items), lineno
            )
            (entries if head.text == "entry" else products).append(e)
        elif head.text == "form":
            lf = p.indexed_symbol()
            rf = p.indexed_symbol()
            p.expect("=>")
            v = p.rational()
            p.expect_end()
            forms.append(FormEntry((lf[0], lf[1]), (rf[0], rf[1]), v, lineno))
        elif head.text == "cocycle":
            cname = p.expect_name("cocycle name").text
            left = p.genpat("m")
            right = p.genpat("n")
            p.expect("=>")
            poly = p.poly()
            cond = None
            if p.peek().text == "when":
                p.next()
                cond = p.lincond()
            p.expect_end()
            cocycles.append(CocycleDecl(cname, left, right, poly, cond, lineno))
        else:
            p.fail(f"unknown directive {head.text!r}", head)

    if name is None:
        raise ParseError(1, 1, "empty document: missing 'algebra' header")

    doc = AlgebraSpecDoc(
        name,
        convention,
        tuple(families),
        tuple(generators),
        tuple(rules),
        tuple(entries),
        tuple(products),
        tuple(forms),
        tuple(cocycles),
    )
    _validate(doc)
    return doc


def _validate(doc: AlgebraSpecDoc) -> None:
    fams = {f.symbol: f for f in doc.families}

    def need_family(sym: str, line: int):
        if sym not in fams:
            raise ParseError(line, 1, f"undeclared family {sym!r}")
        return fams[sym]

    def check_pattern_kind(pat: GenPat, line: int):
        f = need_family(pat.family, line)
        d = pat.offset * 2
        if d.denominator != 1:
            raise ParseError(
                line, 1, f"offset {pat.offset} is not an integer or half-integer"
            )
        half = int(d) % 2 == 1
        if (f.kind == "half") != half:
            raise ParseError(
                line,
                1,
                f"pattern {pat.render()} does not match {f.kind} family"
                f" {pat.family!r}",
            )

    def check_index_kind(fam: str, index: Fraction, line: int):
        f = need_family(fam, line)
        d = index * 2
        if d.denominator != 1:
            raise ParseError(
                line, 1, f"index {index} is not an integer or half-integer"
            )
        half = int(d) % 2 == 1
        if (f.kind == "half") != half:
            raise ParseError(
                line, 1, f"index {index} does not match {f.kind} family {fam!r}"
            )

    seen_rules: set[tuple[str, str]] = set()
    for r in doc.rules:
        check_pattern_kind(r.left, r.line)
        check_pattern_kind(r.right, r.line)
        key = (r.left.family, r.right.family)
        if key in seen_rules:
            raise ParseError(
                r.line, 1, f"duplicate rule for pair {key[0]} {key[1]}"
            )
        seen_rules.add(key)
        for t in r.terms:
            need_family(t.family, r.line)
            if (t.offset * 2).denominator != 1:
                raise ParseError(
                    r.line,
                    1,
                    f"result offset {t.offset} is not an integer or half-integer",
                )

    for g in doc.generators:
        check_index_kind(g.family, g.index, g.line)

    seen_pairs: dict[str, set] = {"entry": set(), "product": set(), "form": set()}
    for e in (*doc.entries, *doc.products):
        check_index_kind(e.left[0], e.left[1], e.line)
        check_index_kind(e.right[0], e.right[1], e.line)
        for _, fam, ix in e.value:
            check_index_kind(fam, ix, e.line)
        key = (e.left, e.right)
        if key in seen_pairs[e.kind]:
            raise ParseError(e.line, 1, f"duplicate {e.kind} for {key}")
        seen_pairs[e.kind].add(key)

    for f in doc.forms:
        check_index_kind(f.left[0], f.left[1], f.line)
        check_index_kind(f.right[0], f.right[1], f.line)
        key = (f.left, f.right)
        if key in seen_pairs["form"]:
            raise ParseError(f.line, 1, f"duplicate form for {key}")
        seen_pairs["form"].add(key)

    seen_names = set()
    for c in doc.cocycles:
        check_pattern_kind(c.left, c.line)
        check_pattern_kind(c.right, c.line)
        if c.name in seen_names:
            raise ParseError(c.line, 1, f"duplicate cocycle {c.name!r}")
        seen_names.add(c.name)


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


def _family_grid(kind: str, window: int) -> list[int]:
    """Doubled indices for one family over |index| <= window."""
    if kind == "integer":
        return [2 * k for k in range(-window, window + 1)]
    if kind == "half":
        return list(range(-2 * window + 1, 2 * window, 2))
    # both kinds (promoted family)
    return list(range(-2 * window, 2 * window + 1))


def _promoted_families(doc: AlgebraSpecDoc) -> set[str]:
    """Families that receive an ill-kinded result index from some rule."""
    fams = {f.symbol: f for f in doc.families}
    out = set()
    for r in doc.rules:
        for t in r.terms:
            half = int(t.offset * 2) % 2 == 1
            if (fams[t.family].kind == "half") != half:
                out.add(t.family)
    return out


def instantiate(
    doc: AlgebraSpecDoc,
    window: Optional[int] = None,
    kind_mode: str = "strict",
    interior_margin: int = 2,
) -> AlgebraInstance:
    """Evaluate rules and entries into a finite AlgebraInstance.

    kind_mode governs rule terms whose result index does not match the
    declared kind of the result family (integer family receiving m+n+1/2):
    "strict" drops each occurrence with a finding, "extended" widens the
    family to carry both integer and half-integer indices.
    """
    if kind_mode not in ("strict", "extended"):
        raise ValueError(f"unknown kind_mode {kind_mode!r}")
    if doc.rules and window is None:
        raise ValueError("document has rules; a window is required")
    if window is not None and window < 1:
        raise ValueError("window must be >= 1")

    promoted = _promoted_families(doc) if kind_mode == "extended" else set()
    fam_kind = {
        f.symbol: ("both" if f.symbol in promoted else f.kind)
        for f in doc.families
    }

    by_family: dict[str, list[GeneratorId]] = {f.symbol: [] for f in doc.families}
    if window is not None:
        for f in doc.families:
            by_family[f.symbol] = [
                GeneratorId(f.symbol, d) for d in _family_grid(fam_kind[f.symbol], window)
            ]
    for g in doc.generators:
        gen = GeneratorId(g.family, int(g.index * 2))
        if gen not in by_family[g.family]:
            by_family[g.family].append(gen)
            by_family[g.family].sort(key=lambda x: x.doubled_index)

    generators: list[GeneratorId] = []
    for f in doc.families:
        generators.extend(by_family[f.symbol])

    table = BracketTable(doc.parity_map(), doc.convention)
    findings: list[Finding] = []
    boundary: set[tuple[GeneratorId, GeneratorId]] = set()
    dropped = 0

    for r in doc.rules:
        left_gens = [
            g
            for g in by_family[r.left.family]
            if (g.index - r.left.offset).denominator == 1
        ]
        right_gens = [
            h
            for h in by_family[r.right.family]
            if (h.index - r.right.offset).denominator == 1
        ]
        for g in left_gens:
            m = int(g.index - r.left.offset)
            for h in right_gens:
                n = int(h.index - r.right.offset)
                if r.condition is not None and not r.condition.holds(m, n):
                    continue
                acc: dict[GeneratorId, Fraction] = {}
                flagged = False
                for t in r.terms:
                    coeff = t.poly.eval(m, n)
                    if not coeff:
                        continue
                    idx = m + n + t.offset
                    d = int(idx * 2)
                    kind = fam_kind[t.family]
                    half = d % 2 == 1
                    if kind != "both" and (kind == "half") != half:
                        findings.append(
                            Finding(
                                "E_KIND",
                                f"rule@{r.line} [{g},{h}]",
                                f"result index {idx} invalid for {kind}"
                                f" family {t.family!r}",
                            )
                        )
                        continue
                    if abs(idx) > window:
                        flagged = True
                        dropped += 1
                        continue
                    tgt = GeneratorId(t.family, d)
                    acc[tgt] = acc.get(tgt, Fraction(0)) + coeff
                if flagged:
                    boundary.add((g, h))
                elem = Element(acc)
                if elem:
                    table.assign(g, h, elem)

    for e in doc.entries:
        g = GeneratorId(e.left[0], int(e.left[1] * 2))
        h = GeneratorId(e.right[0], int(e.right[1] * 2))
        terms = {}
        for c, fam, ix in e.value:
            tgt = GeneratorId(fam, int(ix * 2))
            terms[tgt] = terms.get(tgt, Fraction(0)) + c
        for t in (g, h, *terms):
            if t not in by_family.get(t.family, []) or (
                window is not None and abs(t.index) > window
            ):
                raise ValueError(
                    f"entry at line {e.line} references out-of-scope"
                    f" generator {t}"
                )
        elem = Element(terms)
        if elem:
            table.assign(g, h, elem)

    return AlgebraInstance(
        doc.name,
        generators,
        table,
        window=window,
        interior_margin=interior_margin,
        boundary_pairs=boundary,
        dropped_terms=dropped,
        findings=findings,
        metadata={"kind_mode": kind_mode, "convention": doc.convention},
    )
