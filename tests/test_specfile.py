"""DSL parsing, canonical rendering, and window instantiation."""

from __future__ import annotations

import functools
import pathlib
import random
from fractions import Fraction

import pytest

from lieforge import esvla, specfile
from lieforge.algebra import gid
from lieforge.specfile import (
    AlgebraSpecDoc,
    BracketRule,
    CocycleDecl,
    ExplicitEntry,
    FamilyDecl,
    FormEntry,
    GeneratorDecl,
    GenPat,
    MAX_DIGITS,
    MAX_DIM,
    MAX_EXPONENT,
    MAX_NESTING,
    LinCond,
    ParseError,
    Poly2,
    RuleTerm,
    dimension,
    instantiate,
    instantiate_cocycle,
    parse,
    render,
)
from algebra_fixtures import witt_window
from oracles import (
    naive_instantiate,
    naive_instantiate_cocycle,
    naive_pattern_pairs,
    pair_values,
    written_entries,
)

DATA = pathlib.Path(__file__).parent / "data"

WITT = """algebra witt convention plain
family L integer even
rule L[m] L[n] => (n - m) L[m+n]
"""

MINI_SUPER = """algebra mini convention super
family M integer even
family N integer even
family Y half odd
rule M[m] Y[n+1/2] => 1 N[m+n+1/2]
"""


def test_parse_basic_rule():
    doc = parse(WITT)
    assert doc.name == "witt"
    assert doc.convention == "plain"
    assert len(doc.rules) == 1
    r = doc.rules[0]
    assert r.left == GenPat("L", "m", Fraction(0))
    assert r.terms[0].poly == Poly2({(0, 1): 1, (1, 0): -1})
    assert r.terms[0].offset == 0


def test_parse_half_integer_pattern():
    doc = parse(
        "algebra a convention super\n"
        "family L integer even\n"
        "family Y half odd\n"
        "rule Y[m+1/2] Y[n+1/2] => 2 L[m+n+1]\n"
    )
    r = doc.rules[0]
    assert r.left.offset == Fraction(1, 2)
    assert r.terms[0].poly == Poly2.const(2)
    assert r.terms[0].offset == 1


def test_parse_zero_rule_and_condition():
    doc = parse(
        "algebra a convention plain\n"
        "family M integer even\n"
        "family N integer even\n"
        "rule M[m] N[n] => 0\n"
        "rule N[m] M[n] => 1 M[m+n] when m + n + 1 = 0\n"
    )
    assert doc.rules[0].terms == ()
    cond = doc.rules[1].condition
    assert cond is not None
    assert cond.holds(2, -3)
    assert not cond.holds(0, 0)


def test_parse_multi_term_rule():
    doc = parse(
        "algebra a convention plain\n"
        "family L integer even\n"
        "family M integer even\n"
        "rule L[m] M[n] => (n - m) L[m+n] + 1/2 M[m+n-1] + m n^2 M[m+n]\n"
    )
    terms = doc.rules[0].terms
    assert len(terms) == 3
    assert terms[1].poly == Poly2.const(Fraction(1, 2))
    assert terms[1].offset == -1
    assert terms[2].poly == Poly2({(1, 2): 1})


def test_parse_entries_and_generators():
    doc = parse((DATA / "heisenberg.lie").read_text())
    assert len(doc.generators) == 3
    assert doc.entries[0].value == ((Fraction(1), "e", Fraction(3)),)


def test_parse_cocycle():
    doc = parse(
        "algebra a convention super\n"
        "family L integer even\n"
        "family Y half odd\n"
        "cocycle w2 L[m] Y[n+1/2] => m/2 when m + n + 1 = 0\n"
    )
    c = doc.cocycles[0]
    assert c.name == "w2"
    assert c.poly == Poly2({(1, 0): Fraction(1, 2)})
    assert c.condition.holds(2, -3)


def test_roundtrip_sample_files():
    for name in ("heisenberg.lie", "sl2.lie", "abelian4.lie", "witt.lie"):
        text = (DATA / name).read_text()
        doc = parse(text)
        assert parse(render(doc)) == doc
        assert render(parse(render(doc))) == render(doc)


LINE_RECORDS_DOC = (
    "algebra t convention plain\n"
    "family L integer even\n"
    "generator L[1]\n"
    "rule L[m] L[n] => (n - m) L[m+n]\n"
    "entry L[1] L[2] => 3 L[3]\n"
    "form L[1] L[2] => 1\n"
    "cocycle w L[m] L[n] => m^3 when m + n = 0\n"
)


def test_line_records_compare_and_hash_without_their_line():
    doc = parse(LINE_RECORDS_DOC)
    records = [
        doc.generators[0], doc.rules[0], doc.entries[0], doc.forms[0], doc.cocycles[0]
    ]
    assert [type(r) for r in records] == [
        GeneratorDecl, BracketRule, ExplicitEntry, FormEntry, CocycleDecl
    ]
    assert [r.line for r in records] == [3, 4, 5, 6, 7]
    for r in records:
        moved = r._replace(line=r.line + 10)
        assert moved == r and r == moved
        assert not (moved != r) and not (r != moved)
        assert hash(moved) == hash(r)
        assert len({r, moved}) == 1
        # the other fields still count, and a record equals no plain tuple
        assert r._replace(**{r._fields[0]: None}) != r
        assert r != tuple(r) and tuple(r) != r
    # read back from its rendering two lines further down, a document
    # still equals the original
    shifted = parse("\n\n" + render(doc))
    assert shifted.rules[0].line == 6
    assert shifted == doc and hash(shifted) == hash(doc)


CORRUPT_LINES = {
    "c01_noheader.lie": 1,
    "c02_badconv.lie": 1,
    "c03_badkind.lie": 2,
    "c04_dupfamily.lie": 3,
    "c05_undeclared.lie": 3,
    "c06_missing_arrow.lie": 3,
    "c07_bad_index_var.lie": 3,
    "c08_unterminated.lie": 3,
    "c09_nonlinear_cond.lie": 3,
    "c10_badchar.lie": 3,
    "c11_duprule.lie": 4,
    "c12_kind_mismatch.lie": 4,
    "c13_undeclared_generator.lie": 5,
}


def test_corrupt_fixtures_report_correct_lines():
    assert len(CORRUPT_LINES) >= 10
    for name, expected_line in CORRUPT_LINES.items():
        text = (DATA / "corrupt" / name).read_text()
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == expected_line, name
        assert exc.value.col >= 1


def test_undeclared_family_named_in_error():
    with pytest.raises(ParseError) as exc:
        parse((DATA / "corrupt" / "c05_undeclared.lie").read_text())
    assert "'Z'" in str(exc.value)


# --- every refusal, exactly --------------------------------------------

_H = "algebra a convention plain\n"
_F = _H + "family L integer even\n"
_HALF = _F + "family Y half odd\n"
_G = _F + "generator L[1]\ngenerator L[2]\n"
_BIG = "9" * MAX_DIGITS
_PAIR = "L[1] L[2]"

# One minimal document per ParseError raise site of the tokenizer, the line
# parser, parse and the validator, then documents with two faults that pin
# the validator's order: the first error wins.
REFUSALS = {
    "unexpected-character": (
        _F + "generator L[1] $\n",
        3, 16, "unexpected character '$'",
    ),
    "integer-digits": (
        _F + "generator L[" + "1" * (MAX_DIGITS + 1) + "]\n",
        3, 13, f"integer with more than {MAX_DIGITS} digits",
    ),
    "expected-name": (
        "algebra 1 convention plain\n",
        1, 9, "expected algebra name, got '1'",
    ),
    "expected-token": (
        _F + "rule L[m] L[n] (n - m) L[m+n]\n",
        3, 16, "expected '=>', got '('",
    ),
    "expected-end-of-line": (
        _F + "generator L[1\n",
        3, 14, "expected ']', got 'end of line'",
    ),
    "trailing": (
        _H + "family L integer even extra\n",
        2, 23, "unexpected trailing 'extra'",
    ),
    "expected-number": (_F + "generator L[x]\n", 3, 13, "expected number"),
    "zero-denominator": (
        _F + "generator L[1/0]\n",
        3, 15, "expected nonzero denominator",
    ),
    "degree": (
        _F + "rule L[m] L[n] => m^8 n^9 L[m+n]\n",
        3, 23, f"polynomial of degree 17 exceeds the limit {MAX_EXPONENT}",
    ),
    "coefficient-digits": (
        _F + f"rule L[m] L[n] => {_BIG} * {_BIG} L[m+n]\n",
        3, 20 + MAX_DIGITS, f"coefficient with more than {MAX_DIGITS} digits",
    ),
    "division": (
        _F + "rule L[m] L[n] => m / n L[m+n]\n",
        3, 23, "division only by nonzero constants",
    ),
    "nesting": (
        _F + "rule L[m] L[n] => " + "(" * 33 + "m" + ")" * 33 + " L[m+n]\n",
        3, 51, f"expression nested deeper than {MAX_NESTING} levels",
    ),
    "exponent": (
        _F + "rule L[m] L[n] => m^n L[m+n]\n",
        3, 21, "expected integer exponent",
    ),
    "power-degree": (
        _F + "rule L[m] L[n] => (m n)^9 L[m+n]\n",
        3, 25, f"power of degree 18 exceeds the limit {MAX_EXPONENT}",
    ),
    "atom": (
        _F + "rule L[m] L[n] => ) L[m+n]\n",
        3, 19, "expected number, m, n, or '('",
    ),
    "nonlinear": (
        _F + "rule L[m] L[n] => 0 when m n = 0\n",
        3, 26, "constraint must be linear in m, n",
    ),
    "index-variable": (
        _F + "rule L[k] L[n] => 0\n",
        3, 8, "expected index variable m or n",
    ),
    "pattern-variable": (
        _F + "rule L[n] L[n] => 0\n",
        3, 8, "left pattern must use m and right pattern n, got 'n'",
    ),
    "result-m": (
        _F + "rule L[m] L[n] => 1 L[n+m]\n",
        3, 23, "result index must start with m+n",
    ),
    "result-n": (
        _F + "rule L[m] L[n] => 1 L[m+m]\n",
        3, 25, "result index must start with m+n",
    ),
    "no-header": (
        "family L integer even\n",
        1, 1, "document must start with an 'algebra' header",
    ),
    "duplicate-header": (_H + _H, 2, 1, "duplicate 'algebra' header"),
    "convention-keyword": ("algebra a conv plain\n", 1, 11, "expected 'convention'"),
    "convention-value": (
        "algebra a convention odd\n",
        1, 22, "convention must be plain or super",
    ),
    "reserved": (
        _H + "family when integer even\n",
        2, 8, "'when' is reserved and cannot name a family",
    ),
    "index-kind": (
        _H + "family L quarter even\n",
        2, 10, "index kind must be integer or half",
    ),
    "parity": (_H + "family L integer neutral\n", 2, 18, "parity must be even or odd"),
    "duplicate-family": (_F + "family L half odd\n", 3, 8, "duplicate family 'L'"),
    "unknown-directive": (_F + "famly Y half odd\n", 3, 1, "unknown directive 'famly'"),
    "empty": ("# nothing\n", 1, 1, "empty document: missing 'algebra' header"),
    "undeclared-pattern": (_F + "rule L[m] K[n] => 0\n", 3, 1, "undeclared family 'K'"),
    "undeclared-result": (
        _F + "rule L[m] L[n] => 1 K[m+n]\n",
        3, 1, "undeclared family 'K'",
    ),
    "undeclared-generator": (_F + "generator K[1]\n", 3, 1, "undeclared family 'K'"),
    "undeclared-value": (
        _G + "entry L[1] L[2] => 1 K[3]\n",
        5, 1, "undeclared family 'K'",
    ),
    "undeclared-explicit-generator": (
        _G + "entry L[1] L[2] => 1 L[5]\n",
        5, 1, "L[5] is not a declared generator",
    ),
    "undeclared-form-generator": (
        _HALF + "generator Y[1/2]\nform Y[1/2] Y[3/2] => 1\n",
        5, 1, "Y[3/2] is not a declared generator",
    ),
    "offset": (
        _F + "rule L[m+1/3] L[n] => 0\n",
        3, 1, "offset 1/3 is not an integer or half-integer",
    ),
    "pattern-kind": (
        _HALF + "rule L[m] Y[n] => 0\n",
        4, 1, "pattern Y[n] does not match half family 'Y'",
    ),
    "cocycle-kind": (
        _F + "cocycle w L[m+1/2] L[n] => 1\n",
        3, 1, "pattern L[m+1/2] does not match integer family 'L'",
    ),
    "result-offset": (
        _F + "rule L[m] L[n] => 1 L[m+n+1/3]\n",
        3, 1, "result offset 1/3 is not an integer or half-integer",
    ),
    "duplicate-rule": (
        _F + "rule L[m] L[n] => 0\nrule L[m] L[n] => 1 L[m+n]\n",
        4, 1, "duplicate rule for pair L L",
    ),
    "index": (
        _F + "generator L[2/3]\n",
        3, 1, "index 2/3 is not an integer or half-integer",
    ),
    "index-kind-mismatch": (
        _HALF + "generator Y[1]\n",
        4, 1, "index 1 does not match half family 'Y'",
    ),
    "duplicate-entry": (
        _G + "entry L[1] L[2] => 1 L[1]\nentry L[1] L[2] => 1 L[2]\n",
        6, 1, f"duplicate entry for {_PAIR}",
    ),
    "duplicate-product": (
        _G + "product L[1] L[2] => 1 L[1]\nproduct L[1] L[2] =>\n",
        6, 1, f"duplicate product for {_PAIR}",
    ),
    "duplicate-form": (
        _G + "form L[1] L[2] => 1\nform L[1] L[2] => 2\n",
        6, 1, f"duplicate form for {_PAIR}",
    ),
    "duplicate-cocycle": (
        _F + "cocycle w L[m] L[n] => 1\ncocycle w L[m] L[n] => m\n",
        4, 1, "duplicate cocycle 'w'",
    ),
    "rules-before-generators": (
        _F + "generator L[1/3]\nrule K[m] L[n] => 0\n",
        4, 1, "undeclared family 'K'",
    ),
    "patterns-before-duplicate": (
        _F + "rule L[m] L[n] => 0\nrule L[m+1/2] L[n] => 0\n",
        4, 1, "pattern L[m+1/2] does not match integer family 'L'",
    ),
    "generators-before-entries": (
        _F + "entry L[1] L[2] => 1 L[1/3]\ngenerator L[1/2]\n",
        4, 1, "index 1/2 does not match integer family 'L'",
    ),
    "duplicate-before-result-offset": (
        _F + "rule L[m] L[n] => 0\nrule L[m] L[n] => 1 L[m+n+1/3]\n",
        4, 1, "duplicate rule for pair L L",
    ),
    "values-before-duplicate": (
        _G + "entry L[1] L[2] =>\nentry L[1] L[2] => 1 L[1/2]\n",
        6, 1, "index 1/2 does not match integer family 'L'",
    ),
    "entries-before-forms": (
        _G + "form L[1] L[2] => 1\nform L[1] L[2] => 1\nproduct L[1] L[1/3] =>\n",
        7, 1, "index 1/3 is not an integer or half-integer",
    ),
    "generators-in-line-order": (
        _G + "product L[5] L[1/3] =>\n",
        5, 1, "L[5] is not a declared generator",
    ),
    "forms-before-cocycles": (
        _G + "cocycle w L[m] L[n] => 1\ncocycle w L[m] L[n] => 1\n"
        "form L[1] Y[2] => 1\n",
        7, 1, "undeclared family 'Y'",
    ),
}


@pytest.mark.parametrize("text, line, col, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_is_exact(text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)


# --- randomized round-trip --------------------------------------------


def _rand_poly(rng: random.Random) -> Poly2:
    mono = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(0, 2), rng.randint(0, 2))
        if sum(key) > 2:
            key = (key[0], 0)
        mono[key] = Fraction(
            rng.choice([1, -1, 2, 3, -2]), rng.choice([1, 1, 2])
        )
    return Poly2(mono)


def _rand_offset(rng: random.Random, kind: str) -> Fraction:
    if kind == "integer":
        return Fraction(rng.choice([0, 0, 1, -1, 2]))
    return Fraction(rng.choice([1, -1, 3, -3]), 2)


def _rand_index(rng: random.Random, kind: str) -> Fraction:
    if kind == "integer":
        return Fraction(rng.randint(-3, 3))
    return Fraction(rng.choice([-3, -1, 1, 3]), 2)


def _rand_lincond(rng: random.Random) -> LinCond:
    # (m, n) coefficients for every way a condition is solved for n: both
    # nonzero (n coefficient 2 leaves some m without an integer n), no n term
    # (2m = c has no integer solution for odd c), no m term, and constant
    a, b = rng.choice(
        [(1, 1), (1, 1), (1, -1), (1, 2), (2, 0), (0, 1), (0, 2), (0, 0)]
    )
    mono = {(1, 0): Fraction(a), (0, 1): Fraction(b)}
    if rng.random() < 0.5:
        mono[(0, 0)] = Fraction(rng.randint(-2, 2))
    return LinCond(Poly2(mono), Fraction(rng.randint(-1, 1)))


def _random_doc(rng: random.Random) -> AlgebraSpecDoc:
    nfam = rng.randint(1, 4)
    syms = rng.sample(["A", "B", "C", "D", "E", "F", "G", "H"], nfam)
    families = tuple(
        FamilyDecl(
            s, rng.choice(["integer", "half"]), rng.choice(["even", "odd"])
        )
        for s in syms
    )
    kind_of = {f.symbol: f.kind for f in families}

    pairs = [(a, b) for a in syms for b in syms]
    rng.shuffle(pairs)
    rules = []
    for a, b in pairs[: rng.randint(0, min(4, len(pairs)))]:
        terms = tuple(
            RuleTerm(
                _rand_poly(rng),
                rng.choice(syms),
                Fraction(rng.choice([0, 1, -1, 2])) + Fraction(rng.choice([0, 1]), 2),
            )
            for _ in range(rng.randint(0, 2))
        )
        cond = _rand_lincond(rng) if rng.random() < 0.4 else None
        rules.append(
            BracketRule(
                GenPat(a, "m", _rand_offset(rng, kind_of[a])),
                GenPat(b, "n", _rand_offset(rng, kind_of[b])),
                terms,
                cond,
            )
        )

    generators = []
    seen_g = set()
    for _ in range(rng.randint(0, 4)):
        fam = rng.choice(syms)
        ix = _rand_index(rng, kind_of[fam])
        if (fam, ix) not in seen_g:
            seen_g.add((fam, ix))
            generators.append(GeneratorDecl(fam, ix))

    def rand_items():
        out = []
        for _ in range(rng.randint(0, 2)):
            fam = rng.choice(syms)
            out.append(
                (
                    Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2])),
                    fam,
                    _rand_index(rng, kind_of[fam]),
                )
            )
        return tuple(out)

    entries = []
    products = []
    seen_pairs = {"entry": set(), "product": set()}
    for kind_name, target in (("entry", entries), ("product", products)):
        for _ in range(rng.randint(0, 3)):
            lf = rng.choice(syms)
            rf = rng.choice(syms)
            key = ((lf, _rand_index(rng, kind_of[lf])), (rf, _rand_index(rng, kind_of[rf])))
            if key in seen_pairs[kind_name]:
                continue
            seen_pairs[kind_name].add(key)
            target.append(ExplicitEntry(kind_name, key[0], key[1], rand_items()))

    forms = []
    seen_f = set()
    for _ in range(rng.randint(0, 3)):
        lf = rng.choice(syms)
        rf = rng.choice(syms)
        key = ((lf, _rand_index(rng, kind_of[lf])), (rf, _rand_index(rng, kind_of[rf])))
        if key in seen_f:
            continue
        seen_f.add(key)
        forms.append(
            FormEntry(key[0], key[1], Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2])))
        )

    if not rules:
        # without rules, a document may name only the generators it declares
        named = [
            g
            for e in (*entries, *products)
            for g in (e.left, e.right, *(item[1:] for item in e.value))
        ]
        for g in [*named, *(g for f in forms for g in (f.left, f.right))]:
            if g not in seen_g:
                seen_g.add(g)
                generators.append(GeneratorDecl(*g))

    cocycles = []
    for i in range(rng.randint(0, 2)):
        a, b = rng.choice(syms), rng.choice(syms)
        cocycles.append(
            CocycleDecl(
                f"w{i}",
                GenPat(a, "m", _rand_offset(rng, kind_of[a])),
                GenPat(b, "n", _rand_offset(rng, kind_of[b])),
                _rand_poly(rng),
                _rand_lincond(rng) if rng.random() < 0.5 else None,
            )
        )

    return AlgebraSpecDoc(
        "doc" + str(rng.randint(0, 999)),
        rng.choice(["plain", "super"]),
        families,
        tuple(generators),
        tuple(rules),
        tuple(entries),
        tuple(products),
        tuple(forms),
        tuple(cocycles),
    )


def test_roundtrip_randomized_docs():
    rng = random.Random(55555)
    for _ in range(100):
        doc = _random_doc(rng)
        text = render(doc)
        back = parse(text)
        assert back == doc, text
        assert render(back) == text


# --- instantiation -----------------------------------------------------


def test_instantiate_witt_matches_hand_built():
    A = instantiate(parse(WITT), window=4)
    B = witt_window(4)
    assert [str(g) for g in A.generators] == [str(g) for g in B.generators]
    assert written_entries(A) == written_entries(B)
    assert A.boundary_pairs == B.boundary_pairs
    assert A.dropped_terms == B.dropped_terms


@pytest.mark.parametrize(
    "body, window, order",
    [
        ("generator L[3]\ngenerator L[1]\ngenerator L[2]\n", None, "L[1] L[2] L[3]"),
        ("generator L[2]\ngenerator L[1]\ngenerator L[2]\n", None, "L[1] L[2]"),
        (
            "family Y half odd\ngenerator Y[1/2]\ngenerator L[-1]\ngenerator Y[-1/2]\n",
            None,
            "L[-1] Y[-1/2] Y[1/2]",
        ),
        (
            "rule L[m] L[n] => 0\ngenerator L[1]\ngenerator L[-2]\ngenerator L[1]\n",
            2,
            "L[-2] L[-1] L[0] L[1] L[2]",
        ),
    ],
    ids=["reversed", "repeated", "two-families", "grid-repeated"],
)
def test_generator_order(body, window, order):
    # families in declaration order; in each, every generator once, by index
    A = instantiate(parse(_F + body), window=window)
    assert " ".join(map(str, A.generators)) == order


def test_rule_document_entries_are_checked_against_the_window():
    # with rules the window makes the generators, so parse cannot know them
    doc = parse(_F + "rule L[m] L[n] => 0\nentry L[1] L[5] => 1 L[1]\n")
    message = r"^entry at line 4 references out-of-scope generator L\[5\]$"
    with pytest.raises(ValueError, match=message):
        instantiate(doc, window=2)
    assert instantiate(doc, window=5).dim == 11


def test_instantiate_finite_doc_without_window():
    A = instantiate(parse((DATA / "heisenberg.lie").read_text()))
    assert A.dim == 3
    assert A.window is None
    assert written_entries(A) == {(gid("e", 1), gid("e", 2)): {gid("e", 3): 1}}


def test_instantiate_requires_window_for_rules():
    with pytest.raises(ValueError):
        instantiate(parse(WITT))
    with pytest.raises(ValueError):
        instantiate(parse(WITT), window=0)


def test_instantiate_strict_kind_findings():
    A = instantiate(parse(MINI_SUPER), window=2, kind_mode="strict")
    # M: 5 integer gens, Y: 4 half gens; every pair produces an ill-kinded
    # N index, so 20 findings and no M-Y table entries
    kind = [f for f in A.findings if f.code == "E_KIND"]
    assert len(kind) == 20
    assert all("N" in f.detail for f in kind)
    m0, y = gid("M", 0), gid("Y", Fraction(1, 2))
    assert not pair_values(A)(m0, y)


def test_instantiate_extended_promotes_family():
    A = instantiate(parse(MINI_SUPER), window=2, kind_mode="extended")
    assert not A.findings
    # N now carries both integer and half indices: 9 generators at W=2
    n_gens = [g for g in A.generators if g.family == "N"]
    assert len(n_gens) == 9
    m0, y = gid("M", 0), gid("Y", Fraction(1, 2))
    assert pair_values(A)(m0, y) == {gid("N", Fraction(1, 2)): 1}


def test_instantiate_deterministic_dump():
    doc = parse(MINI_SUPER)
    def dump(A):
        return (A.generators, list(written_entries(A).items()), A.dropped_terms, A.findings)

    d1 = dump(instantiate(doc, window=3, kind_mode="extended"))
    d2 = dump(instantiate(doc, window=3, kind_mode="extended"))
    assert d1 == d2


_TABLE = "algebra big convention plain\nfamily e integer even\n"
_HALF = (
    "algebra halves convention plain\nfamily e half even\n"
    "rule e[m+1/2] e[n+1/2] => 1 e[m+n+1/2] when m + n = 0\n"
)


@pytest.mark.parametrize(
    "text, window, extra",
    [
        # 2,048 declared generators, or one half family over |index| <= 1024
        (_TABLE + "".join(f"generator e[{i}]\n" for i in range(2048)), None, 1),
        (_HALF, 1024, 2),
    ],
    ids=["declared", "window"],
)
def test_dimension_limit(text, window, extra):
    assert MAX_DIM == 2048
    assert instantiate(parse(text), window=window).dim == MAX_DIM
    if window is None:
        text += f"generator e[{MAX_DIM}]\n"
    else:
        window += 1
    assert dimension(parse(text), window) == MAX_DIM + extra
    with pytest.raises(ValueError) as refused:
        instantiate(parse(text), window=window)
    assert str(refused.value) == f"dimension {MAX_DIM + extra} exceeds the limit {MAX_DIM}"


@pytest.mark.parametrize("kind_mode", ["strict", "extended"])
@pytest.mark.parametrize("window", [1, 2, 5])
@pytest.mark.parametrize(
    "text",
    [WITT, MINI_SUPER, (DATA / "heisenberg.lie").read_text()],
    ids=["witt", "mini-super", "declared"],
)
def test_dimension_counts_the_instance(text, window, kind_mode):
    doc = parse(text)
    A = instantiate(doc, window=window, kind_mode=kind_mode)
    assert dimension(doc, window, kind_mode) == A.dim


def test_instantiate_rejects_bad_mode():
    with pytest.raises(ValueError):
        instantiate(parse(WITT), window=2, kind_mode="loose")


# --- the pattern-pair enumerator against testing every pair ------------


def _instance_dump(build):
    """What instantiation produced, in order, or the ValueError it raised."""
    try:
        A = build()
    except ValueError as e:
        return str(e)
    return (
        A.generators,
        list(written_entries(A).items()),
        A.boundary_pairs,
        A.dropped_terms,
        A.findings,
    )


def _assert_rules_match_naive(build, monkeypatch):
    solved = _instance_dump(build)
    with monkeypatch.context() as mp:
        mp.setattr(specfile, "_pattern_pairs", naive_pattern_pairs)
        assert _instance_dump(build) == solved


def _assert_cocycle_matches_naive(decl, A):
    solved = list(instantiate_cocycle(decl, A).raw.items())
    assert solved == list(naive_instantiate_cocycle(decl, A).raw.items())


def test_random_docs_instantiate_as_if_every_pair_were_tested(monkeypatch):
    rng = random.Random(2468)
    docs = [_random_doc(rng) for _ in range(60)]
    kind_findings = 0
    for doc, other in zip(docs, docs[1:] + docs[:1]):
        for window in (2, 3, 4):
            for mode in ("strict", "extended"):
                build = functools.partial(instantiate, doc, window=window, kind_mode=mode)
                _assert_rules_match_naive(build, monkeypatch)
                try:
                    A = build()
                except ValueError:
                    continue
                kind_findings += len(A.findings)
                # the other document's families may be absent from A
                for decl in doc.cocycles + other.cocycles:
                    _assert_cocycle_matches_naive(decl, A)
    assert kind_findings  # the E_KIND order was compared, not vacuous


@pytest.mark.parametrize("mode", ["strict", "extended"])
def test_esvla_instantiates_as_if_every_pair_were_tested(mode, monkeypatch):
    absent = parse(
        "algebra other convention super\n"
        "family Q integer even\n"
        "family Y integer even\n"
        "cocycle q Q[m] Q[n] => 1 when m + n = 0\n"
        "cocycle y Y[m] Y[n] => 1\n"
    ).cocycles
    for window in range(4, 9):
        cfg = esvla.EsvlaConfig(window, n_index_mode=mode)
        _assert_rules_match_naive(functools.partial(esvla.build_esvla, cfg), monkeypatch)
        A = esvla.build_esvla(cfg)
        for decl in esvla._bundled_doc().cocycles + absent:
            _assert_cocycle_matches_naive(decl, A)
        assert not any(instantiate_cocycle(decl, A).raw for decl in absent)


# --- integer evaluation against the Fraction path -----------------------


def _assert_matches_fraction_path(doc, window, mode):
    try:
        expected = naive_instantiate(doc, window, mode)
    except ValueError as e:
        expected = str(e)
    build = functools.partial(instantiate, doc, window=window, kind_mode=mode)
    assert _instance_dump(build) == expected


def test_random_docs_instantiate_as_the_fraction_path():
    rng = random.Random(2468)
    for doc in [_random_doc(rng) for _ in range(60)]:
        for window in (2, 3, 4):
            for mode in ("strict", "extended"):
                _assert_matches_fraction_path(doc, window, mode)


@pytest.mark.parametrize(
    "path",
    sorted([*(DATA.parent.parent / "samples").glob("*.lie"), *DATA.glob("*.lie")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_documents_instantiate_as_the_fraction_path(path):
    doc = parse(path.read_text())
    for window in ((None,) if not doc.rules else ()) + (1, 2, 3, 4):
        for mode in ("strict", "extended"):
            _assert_matches_fraction_path(doc, window, mode)


@pytest.mark.parametrize("convention", ["super", "plain"])
def test_esvla_instantiates_as_the_fraction_path(convention):
    doc = esvla._bundled_doc()._replace(convention=convention)
    for window in range(4, 9):
        for mode in ("strict", "extended"):
            _assert_matches_fraction_path(doc, window, mode)


def test_entry_repeating_a_rule_pair_is_refused():
    doc = parse(f"{WITT}entry L[1] L[2] => 1 L[3]\n")
    with pytest.raises(ValueError, match=r"^duplicate bracket entry for \(L\[1\], L\[2\]\)$"):
        instantiate(doc, window=3)
    # a rule that brackets the pair to zero leaves the entry as the only one
    zero = parse(f"{WITT}entry L[1] L[1] => 1 L[2]\n")
    assert written_entries(instantiate(zero, window=3))[(gid("L", 1), gid("L", 1))]


@pytest.mark.parametrize(
    "condition, expected",
    [
        # n = (1 - m) / 2: only odd m give an integer n
        ("m + 2n = 1", [(-3, 2), (-1, 1), (1, 0), (3, -1)]),
        ("2m = 2", [(1, n) for n in range(-3, 4)]),
        ("2m = 1", []),
        ("n = -2", [(m, -2) for m in range(-3, 4)]),
        ("n = 4", []),  # out of the grid
        ("0 = 0", [(m, n) for m in range(-3, 4) for n in range(-3, 4)]),
        ("1 = 0", []),
    ],
)
def test_conditions_are_solved_for_n(condition, expected, monkeypatch):
    doc = parse(f"{WITT}cocycle c L[m] L[n] => 1 when {condition}\n")
    A = instantiate(doc, window=3)

    def refuse(*args):
        raise AssertionError("condition tested on a pair")

    monkeypatch.setattr(LinCond, "holds", refuse)
    omega = instantiate_cocycle(doc.cocycles[0], A)
    assert [(g.doubled_index // 2, h.doubled_index // 2) for g, h in omega.raw] == expected
    ruled = instantiate(parse(f"{WITT[:-1]} when {condition}\n"), window=3)
    flagged = {(g.doubled_index // 2, h.doubled_index // 2) for g, h in ruled.boundary_pairs}
    stored = {(g.doubled_index // 2, h.doubled_index // 2) for g, h in written_entries(ruled)}
    assert stored | flagged == {(m, n) for m, n in expected if m != n}


@pytest.mark.parametrize(
    "poly, ok",
    [
        (f"(n - m)^{MAX_EXPONENT}", True),
        (f"2^{MAX_EXPONENT}", True),
        ("((n - m)^4)^4", True),
        (f"(n - m)^{MAX_EXPONENT + 1}", False),
        (f"2^{MAX_EXPONENT + 1}", False),
        ("((n - m)^8)^4", False),
        ("(n - m)^99999999", False),
        (" ".join(["m"] * MAX_EXPONENT), True),
        ("m^8 * n^8", True),
        (" ".join(["m"] * (MAX_EXPONENT + 1)), False),
        (f"m^{MAX_EXPONENT} * n", False),
        (f"(m^{MAX_EXPONENT}) (m - n)", False),
    ],
)
def test_power_limit(poly, ok):
    text = (
        "algebra a convention plain\nfamily L integer even\n"
        f"rule L[m] L[n] => {poly} L[m+n]\n"
    )
    if ok:
        parse(text)
    else:
        with pytest.raises(ParseError, match="exceeds the limit") as exc:
            parse(text)
        assert exc.value.line == 3


NINES = "9" * MAX_DIGITS
HALF = "9" * (MAX_DIGITS // 2 + 1)


@pytest.mark.parametrize(
    "poly, ok",
    [
        (f"{NINES} (n - m)", True),
        (f"1/{NINES} (n - m)", True),
        (f"9{NINES} (n - m)", False),
        (f"1/9{NINES} (n - m)", False),
        (f"{HALF} * {HALF}", False),
        (f"{HALF} {HALF} m", False),
        (f"1/{HALF} + 1/{HALF[:-1]}7", False),
        ("(9^16)^16", True),
        ("((9^16)^16)^16", False),
        ("((((9^16)^16)^16)^16)^16", False),
    ],
    ids=[
        "literal",
        "denominator",
        "long-literal",
        "long-denominator",
        "product",
        "juxtaposition",
        "sum",
        "power",
        "nested-power",
        "deeply-nested-power",
    ],
)
def test_digit_limit(poly, ok):
    text = (
        "algebra a convention plain\nfamily L integer even\n"
        f"rule L[m] L[n] => {poly} L[m+n]\n"
    )
    if ok:
        parse(text)
    else:
        with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits") as exc:
            parse(text)
        assert exc.value.line == 3


@pytest.mark.parametrize(
    "poly, ok",
    [
        ("(" * MAX_NESTING + "n - m" + ")" * MAX_NESTING, True),
        ("- " * MAX_NESTING + "m", True),
        ("-(" * (MAX_NESTING // 2) + "m" + ")" * (MAX_NESTING // 2), True),
        ("(" * (MAX_NESTING + 1) + "n - m" + ")" * (MAX_NESTING + 1), False),
        ("- " * (MAX_NESTING + 1) + "m", False),
        ("-(" * (MAX_NESTING // 2) + "-m" + ")" * (MAX_NESTING // 2), False),
        ("(" * 200 + "n - m" + ")" * 200, False),
        ("(" * 3000 + "n - m" + ")" * 3000, False),
        ("- " * 200 + "m", False),
        ("- " * 3000 + "m", False),
    ],
    ids=[
        "parentheses",
        "minus",
        "mixed",
        "parentheses-over",
        "minus-over",
        "mixed-over",
        "parentheses-200",
        "parentheses-3000",
        "minus-200",
        "minus-3000",
    ],
)
def test_nesting_limit(poly, ok):
    # parentheses and unary minus both count, so the recursive descent
    # parser never nears the interpreter's recursion limit
    text = (
        "algebra a convention plain\nfamily L integer even\n"
        f"rule L[m] L[n] => {poly} L[m+n]\n"
    )
    if ok:
        parse(text)
    else:
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}") as exc:
            parse(text)
        assert exc.value.line == 3


def test_poly_eval_and_render():
    p = Poly2({(1, 0): Fraction(1, 2), (0, 1): -1})
    assert p.eval(4, 1) == 1
    assert p.render() == "1/2*m - n"
    assert parse(
        "algebra a convention plain\nfamily L integer even\n"
        f"rule L[m] L[n] => ({p.render()}) L[m+n]\n"
    ).rules[0].terms[0].poly == p
