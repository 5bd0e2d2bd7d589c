"""DSL parsing, canonical rendering, and window instantiation."""

from __future__ import annotations

import pathlib
import random
from fractions import Fraction

import pytest

from lieforge.algebra import Element, gid
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
    MAX_EXPONENT,
    MAX_NESTING,
    LinCond,
    ParseError,
    Poly2,
    RuleTerm,
    instantiate,
    parse,
    render,
)
from algebra_fixtures import witt_window

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
    mono = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    if rng.random() < 0.5:
        mono[(0, 0)] = Fraction(rng.randint(-2, 2))
    if rng.random() < 0.3:
        mono[(0, 1)] = Fraction(rng.choice([-1, 2]))
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
    assert A.table.raw == B.table.raw
    assert A.boundary_pairs == B.boundary_pairs
    assert A.dropped_terms == B.dropped_terms


def test_instantiate_finite_doc_without_window():
    A = instantiate(parse((DATA / "heisenberg.lie").read_text()))
    assert A.dim == 3
    assert A.window is None
    v = A.table.value(gid("e", 1), gid("e", 2))
    assert v == Element.of(gid("e", 3))


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
    assert not A.table.value(m0, y)


def test_instantiate_extended_promotes_family():
    A = instantiate(parse(MINI_SUPER), window=2, kind_mode="extended")
    assert not A.findings
    # N now carries both integer and half indices: 9 generators at W=2
    n_gens = [g for g in A.generators if g.family == "N"]
    assert len(n_gens) == 9
    m0, y = gid("M", 0), gid("Y", Fraction(1, 2))
    assert A.table.value(m0, y) == Element.of(gid("N", Fraction(1, 2)))


def test_instantiate_deterministic_dump():
    doc = parse(MINI_SUPER)
    def dump(A):
        return (A.generators, list(A.table.raw.items()), A.dropped_terms, A.findings)

    d1 = dump(instantiate(doc, window=3, kind_mode="extended"))
    d2 = dump(instantiate(doc, window=3, kind_mode="extended"))
    assert d1 == d2


def test_instantiate_rejects_bad_mode():
    with pytest.raises(ValueError):
        instantiate(parse(WITT), window=2, kind_mode="loose")


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
