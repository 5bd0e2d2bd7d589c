"""Product tables, symplectic forms, SNLA checks, search, extensions."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lieforge.algebra import (
    AlgebraInstance,
    Element,
    check_alternating,
    check_jacobi,
    gid,
)
from lieforge.snla import (
    CompatViolation,
    ProductTable,
    SnlaInstance,
    SymplecticForm,
    check_associative,
    check_compat,
    check_novikov,
    check_symplectic_cocycle,
    commutator_bracket,
    linear_constraints,
    snla_fingerprint,
    snla_from_doc,
    snla_search,
    standard_form,
    verify_snla,
)
from lieforge import snla, specfile
from lieforge.automorphisms import check_product_preserved, check_symplectomorphism
from lieforge.cohomology import LinearEndo
from lieforge.linalg import SparseMatrix, matvec, rank
from oracles import (
    brute_force_snla_pass,
    brute_force_snla_search,
    naive_associative,
    naive_form_cocycle,
    naive_form_compat,
    naive_product_preserved,
    naive_right_commutative,
    naive_symplectomorphism_residual,
    rational_rref,
    written_entries,
)

REPO = Path(__file__).resolve().parent.parent
E = [None] + [gid("e", i) for i in range(1, 5)]


def ptable(dim, coeffs):
    return ProductTable.from_coeffs(dim, coeffs)


def form_matrix(f):
    """The dense Fraction matrix of a form, omega(e_a, e_b) at [a-1][b-1],
    read off its store for the oracles."""
    return [
        [Fraction(dict(row).get(b, 0), f.scale) for b in range(f.dim)] for row in f.rows
    ]


def test_product_table_basics():
    p = ptable(2, {(1, 1, 2): 1})
    assert p.value(1, 1) == Element.of(E[2])
    assert p.value(2, 1) == Element.zero()
    assert p.coeff(1, 1, 2) == 1
    assert p.coeff(1, 1, 1) == 0
    assert (p.scale, p.terms) == (1, ((((1, 1),), ()), ((), ())))
    half = ptable(2, {(2, 1, 1): Fraction(1, 2), (2, 1, 2): Fraction(-1, 3)})
    assert (half.scale, half.terms[1][0]) == (6, ((0, 3), (1, -2)))
    assert half.coeff(2, 1, 2) == Fraction(-1, 3)
    for slot in ((0, 1, 1), (1, 3, 1), (1, 1, 3), (Fraction(3, 2), 1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            ptable(2, {slot: 1})
    with pytest.raises(ValueError):
        ptable(0, {})


def snla4(product_lines: str):
    """The SNLA4 document with its product lines replaced."""
    head = SNLA4_DOC.split("product", 1)[0]
    forms = SNLA4_DOC[SNLA4_DOC.index("form"):]
    return snla_from_doc(specfile.parse(head + product_lines + forms)).product


@pytest.mark.parametrize(
    "written",
    [
        "product e[1] e[2] => 2/4 e[3]\nproduct e[2] e[1] => -2 e[4]\n",
        "product e[1] e[2] => 1/4 e[3] + 1/4 e[3]\n"
        "product e[2] e[1] => -1 e[4] - 1 e[4]\n",
        "product e[1] e[2] => 1/2 e[3] + 1/3 e[1] - 1/3 e[1]\n"
        "product e[2] e[1] => -2 e[4]\nproduct e[2] e[3] => 1/5 e[2] - 1/5 e[2]\n",
    ],
    ids=["2/4", "repeated-terms", "terms-summing-to-zero"],
)
def test_equal_products_written_differently_are_equal(written):
    # the store is canonical: one scale, terms in order of position, no zeros
    want = snla4("product e[1] e[2] => 1/2 e[3]\nproduct e[2] e[1] => -2 e[4]\n")
    assert (want.scale, want.terms[0][1]) == (2, ((2, 1),))
    got = snla4(written)
    assert got == want
    assert (got.scale, got.terms) == (want.scale, want.terms)
    assert got != snla4("product e[1] e[2] => 1/3 e[3]\nproduct e[2] e[1] => -2 e[4]\n")


def test_one_sided_product_stays_one_sided():
    p = ptable(2, {(1, 2, 1): 1})  # e[1].e[2] = e[1]
    assert p.terms[0][1] == ((0, 1),) and p.terms[1][0] == ()
    assert p.value(2, 1) == Element.zero()
    assert commutator_bracket(p) == {(E[1], E[2]): {E[1]: 1}}
    raw = {(1, 2, 1): 1}
    # stored two-sided, e[2].e[1] = -e[1] would break right-commutativity
    assert check_novikov(p) == naive_right_commutative(2, raw) == []
    assert check_associative(p) == naive_associative(2, raw) != []
    assert check_compat(p, standard_form(1)) == naive_form_compat(
        2, raw, form_matrix(standard_form(1))
    )


def test_one_instance_builds_its_generator_list_once(monkeypatch):
    # the commutator builds only the generators its entries name
    calls = []
    real = ProductTable.generators
    monkeypatch.setattr(ProductTable, "generators", lambda p: calls.append(p.dim) or real(p))
    doc = specfile.parse(
        "algebra p convention plain\nfamily e integer even\n"
        + "".join(f"generator e[{i}]\n" for i in range(1, 5))
        + "product e[1] e[2] => 1 e[3]\nproduct e[3] e[1] => 2 e[4]\n"
    )
    s = snla_from_doc(doc)
    assert calls == [4]
    assert s.bracket.generators == [gid("e", i) for i in range(1, 5)]
    assert written_entries(s.bracket) == {
        (gid("e", 1), gid("e", 2)): {gid("e", 3): 1},
        (gid("e", 1), gid("e", 3)): {gid("e", 4): -2},
    }


def naive_commutator(p: ProductTable, raw: dict) -> dict:
    """[e_i, e_j] for i < j from the raw constants, as integers over p.scale:
    every pair visited, in order."""
    gens, r = p.generators(), range(1, p.dim + 1)
    out = {}
    for i, j in itertools.combinations(r, 2):
        v = {gens[k - 1]: raw.get((i, j, k), 0) - raw.get((j, i, k), 0) for k in r}
        if any(v.values()):
            out[(gens[i - 1], gens[j - 1])] = {g: c * p.scale for g, c in v.items() if c}
    return out


@pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.9])
def test_commutator_bracket_follows_the_support(density):
    # seeded zero, sparse and dense products, some symmetric pairs and
    # diagonal entries among them: the pairs come out in i < j order
    rng = random.Random(f"commutator-{density}")
    for _ in range(30):
        dim = rng.randint(1, 7)
        raw = {}
        for slot in itertools.product(range(1, dim + 1), repeat=3):
            if rng.random() < density:
                raw[slot] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                if rng.random() < 0.3:  # e_i*e_j = e_j*e_i on this term
                    raw[(slot[1], slot[0], slot[2])] = raw[slot]
        p = ptable(dim, raw)
        assert list(commutator_bracket(p).items()) == list(naive_commutator(p, raw).items())


def test_commutator_bracket_is_over_the_product_scale():
    # the entries are integers over p.scale; the instance built over that
    # scale reads back the Fraction commutator, pair by pair in order
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.choice([2, 4])
        raw = {
            slot: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for slot in itertools.product(range(1, dim + 1), repeat=3)
            if rng.random() < 0.3
        }
        p = ptable(dim, raw)
        want = {
            pair: {g: Fraction(c, p.scale) for g, c in v.items()}
            for pair, v in naive_commutator(p, raw).items()
        }
        entries = commutator_bracket(p)
        assert all(type(c) is int for v in entries.values() for c in v.values())
        s = SnlaInstance(dim, p, standard_form(dim // 2))
        assert list(written_entries(s.bracket).items()) == list(want.items())


def test_symplectic_form_validation():
    # refused in order: a conflicting completion, odd dimension, rank
    cases = [
        (2, [((1, 2), 0), ((2, 1), 1)], "conflicting form entries at (2,1)"),
        (2, [((1, 2), 1), ((2, 1), 1)], "conflicting form entries at (2,1)"),
        (2, [((1, 1), 1)], "conflicting form entries at (1,1)"),
        (3, [((2, 2), 1)], "conflicting form entries at (2,2)"),
        (3, [((1, 2), 1)], "symplectic form needs even dimension"),
        (1, [], "symplectic form needs even dimension"),
        (2, [((1, 2), 0)], "form is degenerate"),
        (4, [((1, 2), 1), ((3, 4), 0)], "form is degenerate"),
        (2, [((1, 3), 1)], "index out of range 1..2 in (1, 3)"),
    ]
    for dim, pairs, message in cases:
        with pytest.raises(ValueError) as err:
            SymplecticForm(dim, pairs)
        assert str(err.value) == message
    f = SymplecticForm(2, [((2, 1), Fraction(-2, 3)), ((1, 1), 0)])
    assert (f.dim, f.scale, f.rows) == (2, 3, (((1, 2),), ((0, -2),)))
    assert f == SymplecticForm(2, [((1, 2), "2/3"), ((2, 1), Fraction(-2, 3))])
    assert f != SymplecticForm(2, [((1, 2), 2)])


def test_standard_form_values():
    f1 = standard_form(1)
    assert (f1.scale, f1.rows) == (1, (((1, 1),), ((0, -1),)))
    f2 = standard_form(2)
    assert form_matrix(f2) == [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-1, 0, 0, 0],
    ]
    # O(n) store: one nonzero per row
    assert [len(row) for row in standard_form(512).rows] == [1] * 1024
    for n in (1, 2, 3):
        assert standard_form(n).dim == 2 * n
    with pytest.raises(ValueError):
        standard_form(0)


def test_commutator_bracket_examples():
    assert commutator_bracket(ptable(2, {})) == {}
    assert commutator_bracket(ptable(2, {(1, 1, 2): 1})) == {}
    b = commutator_bracket(ptable(2, {(1, 2, 1): 1}))
    assert b == {(E[1], E[2]): {E[1]: 1}}
    # alternating by construction
    s = SnlaInstance(2, ptable(2, {(1, 2, 1): 1}), standard_form(1))
    assert check_alternating(s.bracket) == []


def test_check_novikov_hand_cases():
    assert check_novikov(ptable(2, {})) == []
    assert check_novikov(ptable(2, {(1, 1, 2): 1})) == []
    assert check_novikov(ProductTable.from_coeffs(1, {(1, 1, 1): 1})) == []
    bad = check_novikov(ptable(2, {(1, 1, 1): 1, (1, 2, 2): 1}))
    assert any(v.triple == (1, 1, 2) for v in bad)


def test_check_associative_hand_cases():
    assert check_associative(ptable(2, {})) == []
    assert check_associative(ptable(2, {(1, 1, 2): 1})) == []
    # e1 e1 = e1, e1 e2 = e2 is associative but not right-commutative
    p = ptable(2, {(1, 1, 1): 1, (1, 2, 2): 1})
    assert check_associative(p) == []
    assert check_novikov(p) != []


def test_check_compat_hand_case():
    p = ptable(2, {(1, 1, 2): 1})
    vio = check_compat(p, standard_form(1))
    assert vio == [CompatViolation((1, 1, 1), Fraction(-1), Fraction(1))]
    assert check_compat(ptable(2, {}), standard_form(1)) == []
    with pytest.raises(ValueError):
        check_compat(ptable(2, {}), standard_form(2))


def brackets(dim, entries):
    """The instance on e_1..e_dim with the brackets ``entries`` as written."""
    return AlgebraInstance("b", E[1:dim + 1], entries)


def test_check_symplectic_cocycle_cases():
    f = standard_form(1)
    assert check_symplectic_cocycle(f, brackets(2, {})) == []
    b = {(E[1], E[2]): {E[1]: 1}}
    assert check_symplectic_cocycle(f, brackets(2, b)) == []  # dim 2 has no 3-forms
    # non-alternating diagonal entry is caught via repeats
    d = {(E[1], E[1]): {E[2]: 1}}
    vio = check_symplectic_cocycle(standard_form(1), brackets(2, d))
    assert vio and vio[0].triple == (1, 1, 1) and vio[0].total == -3
    # dim 4: [e1,e2] = e1 breaks closedness at (1,2,4)
    vio4 = check_symplectic_cocycle(standard_form(2), brackets(4, b))
    assert any(v.triple == (1, 2, 4) and v.total == 1 for v in vio4)


def test_identity_checks_match_oracles():
    rng = random.Random(411)
    for _ in range(60):
        dim = rng.choice([2, 3, 4])
        coeffs = {}
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                for k in range(1, dim + 1):
                    if rng.random() < 0.3:
                        c = Fraction(rng.randint(-2, 2))
                        if c:
                            coeffs[(i, j, k)] = c
        p = ProductTable.from_coeffs(dim, coeffs)
        assert (check_novikov(p) == []) == (naive_right_commutative(dim, coeffs) == [])
        assert (check_associative(p) == []) == (naive_associative(dim, coeffs) == [])
        if dim % 2 == 0:
            f = standard_form(dim // 2)
            ours = check_compat(p, f) == []
            assert ours == (naive_form_compat(dim, coeffs, form_matrix(f)) == [])


def seeded_form(rng, n):
    """A nondegenerate skew form with rational values over a scale above 1,
    as its dense matrix and the pairs that write it: each value above the
    diagonal written one way, the other way or both, some zeros too."""
    values = [0, 0, 1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
    while True:
        m = [[Fraction(0)] * n for _ in range(n)]
        pairs = []
        for i, j in itertools.combinations(range(n), 2):
            v = Fraction(rng.choice(values))
            m[i][j], m[j][i] = v, -v
            if v or rng.random() < 0.3:
                way = rng.randrange(3)
                if way != 1:
                    pairs.append(((i + 1, j + 1), v))
                if way != 0:
                    pairs.append(((j + 1, i + 1), -v))
        rng.shuffle(pairs)
        cells = {(a, b): v for a, row in enumerate(m) for b, v in enumerate(row)}
        full = SparseMatrix(n, n, cells)
        if len(rational_rref(full)[0]) == n and any(v.denominator > 1 for _, v in pairs):
            return m, pairs


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_seeded_rational_forms_match_the_oracles(n):
    # forms other than the standard one read as their dense matrix, and
    # every form check equals its oracle on that matrix; explicit brackets
    # are written on pairs i <= j, some also on (j, i) with a value that
    # need not be skew, and the form check reads each pair as written
    rng = random.Random(2700 + n)
    gens = [gid("e", i) for i in range(1, n + 1)]
    slots = list(itertools.product(range(1, n + 1), repeat=3))
    passed = failed = 0
    for _ in range(4):
        m, pairs = seeded_form(rng, n)
        f = SymplecticForm(n, pairs)
        assert f.scale > 1 and form_matrix(f) == m
        values = [-1, 2, Fraction(1, 3)]
        raw = {t: rng.choice(values) for t in slots if rng.random() < 0.1}
        p = ptable(n, raw)
        assert check_compat(p, f) == naive_form_compat(n, raw, m)
        explicit = {
            (gens[i], gens[j]): {gens[k]: Fraction(rng.randint(-2, 2), 3)}
            for i, j in itertools.combinations_with_replacement(range(n), 2)
            for k in [rng.randrange(n)]
            if rng.random() < 0.3
        }
        for g, h in list(explicit):
            if g != h and rng.random() < 0.5:
                explicit[(h, g)] = {gens[rng.randrange(n)]: Fraction(rng.randint(-2, 2), 2)}
        for A in (SnlaInstance(n, p, f).bracket, AlgebraInstance("b", gens, explicit)):
            got = check_symplectic_cocycle(f, A)
            assert [(v.triple, v.total) for v in got] == naive_form_cocycle(A, m)
        minus = [[-int(a == b) for b in range(n)] for a in range(n)]
        for phi in seeded_maps(rng, n) + [minus]:
            ok, residual = check_symplectomorphism(f, LinearEndo(phi))
            want = naive_symplectomorphism_residual(m, phi)
            assert ok == (not any(map(any, want)))
            assert residual == (None if ok else want)
            if residual:
                assert {type(v) for row in residual for v in row} == {Fraction}
            passed, failed = passed + ok, failed + (not ok)
    assert passed and failed


def seeded_maps(rng, dim):
    """The identity, a diagonal scaling and a random rational map."""
    r = range(dim)

    def entry():
        return Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.3 else 0

    return [
        [[int(a == b) for b in r] for a in r],
        [[rng.randint(1, 3) if a == b else 0 for b in r] for a in r],
        [[entry() for b in r] for a in r],
    ]


def assert_matches_oracles(p, raw, form, maps):
    """Every product identity is list-equal to its raw-constant oracle."""
    n = p.dim
    assert check_novikov(p) == naive_right_commutative(n, raw)
    assert check_associative(p) == naive_associative(n, raw)
    if form is not None:
        assert check_compat(p, form) == naive_form_compat(n, raw, form_matrix(form))
    for m in maps:
        assert check_product_preserved(p, LinearEndo(m)) == naive_product_preserved(
            n, raw, m
        )


def doc_constants(doc):
    """The raw structure constants of a document's product lines."""
    raw = {}
    for e in doc.products:
        for c, _, ix in e.value:
            slot = (int(e.left[1]), int(e.right[1]), int(ix))
            raw[slot] = raw.get(slot, 0) + c
    return raw


@pytest.mark.parametrize(
    "text",
    [
        (REPO / "samples" / "snla_compat_fail.lie").read_text(),
        (REPO / "src" / "lieforge" / "data" / "snla_dim2.lie").read_text(),
        "SNLA4",
    ],
    ids=["snla_compat_fail", "snla_dim2", "snla4"],
)
def test_documents_match_the_oracles(text):
    doc = specfile.parse(SNLA4_DOC if text == "SNLA4" else text)
    s = snla_from_doc(doc)
    assert_matches_oracles(
        s.product, doc_constants(doc), s.form, seeded_maps(random.Random(5), s.dim)
    )


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("density", [0.1, 0.9], ids=["sparse", "dense"])
def test_seeded_products_match_the_oracles(n, density):
    # ``density`` is the share of pairs (i, j) with a nonzero product, of one
    # to three terms
    rng = random.Random(n * 100 + int(density * 100))
    raw = {}
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        if rng.random() < density:
            for k in rng.sample(range(1, n + 1), rng.randint(1, 3)):
                raw[(i, j, k)] = rng.choice([-2, -1, 1, 2, Fraction(1, 2)])
    form, maps = standard_form(n // 2), seeded_maps(rng, n)
    assert_matches_oracles(ptable(n, raw), raw, form, maps)


def test_dim2_tuples_match_the_oracles():
    # a seeded 1,000 of the 4^8 = 65,536 tuples over {-1, 0, 1, 2}
    rng = random.Random(65536)
    form = standard_form(1)
    for position in rng.sample(range(4**8), 1000):
        digits = [(position // 4**s) % 4 - 1 for s in reversed(range(8))]
        raw = {slot: c for slot, c in zip(SLOTS2, digits) if c}
        assert_matches_oracles(ptable(2, raw), raw, form, ())


def test_associative_implies_left_symmetric():
    # both associator orders vanish, so the left-symmetric identity is 0 = 0
    for coeffs in ({}, {(1, 1, 1): 1}, {(1, 1, 1): 1, (1, 2, 2): 1}):
        p = ptable(2, coeffs)
        if check_associative(p) != []:
            continue
        c = p.coeff
        for i, j, k, l in itertools.product((1, 2), repeat=4):
            # the coefficients of e_l in (x, y, z) - (y, x, z), x y z = e_i e_j e_k
            lhs = sum(c(i, j, t) * c(t, k, l) - c(j, k, t) * c(i, t, l) for t in (1, 2))
            rhs = sum(c(j, i, t) * c(t, k, l) - c(i, k, t) * c(j, t, l) for t in (1, 2))
            assert lhs == rhs


def test_jacobi_from_associativity():
    # every associative product's commutator passes Jacobi
    checked = 0
    for cs in itertools.product((0, 1), repeat=8):
        coeffs = {
            (i, j, k): Fraction(cs[((i - 1) * 2 + (j - 1)) * 2 + (k - 1)])
            for i in (1, 2)
            for j in (1, 2)
            for k in (1, 2)
        }
        p = ProductTable.from_coeffs(2, coeffs)
        if check_associative(p):
            continue
        A = AlgebraInstance("assoc2", p.generators(), commutator_bracket(p))
        assert check_jacobi(A, scope="all") == []
        checked += 1
    assert checked > 1


def test_verify_snla_hand_cases():
    zero = SnlaInstance(2, ptable(2, {}), standard_form(1))
    rep = verify_snla(zero)
    assert rep.passed and all(n == 0 for n in rep.counts().values())
    s = SnlaInstance(2, ptable(2, {(1, 1, 2): 1}), standard_form(1))
    rep2 = verify_snla(s)
    assert not rep2.passed
    assert rep2.violations["compat"] == [
        CompatViolation((1, 1, 1), Fraction(-1), Fraction(1))
    ]
    failing = {k for k, v in rep2.violations.items() if v}
    assert failing == {"compat"}


def test_verify_explicit_bracket():
    table = brackets(2, {(E[1], E[1]): {E[2]: 1}})
    s = SnlaInstance(2, ptable(2, {}), standard_form(1), table)
    assert s.bracket is table
    rep = verify_snla(s)
    assert rep.violations["symplectic_cocycle"] != []
    with pytest.raises(ValueError):
        SnlaInstance(4, ptable(2, {}), standard_form(2))
    with pytest.raises(ValueError):
        SnlaInstance(2, ptable(2, {}), standard_form(1), brackets(4, {}))


def test_verify_snla_reads_form_facts_from_construction(monkeypatch):
    # SymplecticForm refused skew and rank faults already: verifying takes
    # no rank, and the two counts stay in the report at 0
    from lieforge import cohomology, linalg

    s = SnlaInstance(2, ptable(2, {(1, 1, 2): 1}), standard_form(1))

    def no_rank(m):
        raise AssertionError("verify_snla took a rank")

    for module in (snla, linalg, cohomology):
        monkeypatch.setattr(module, "rank", no_rank)
    rep = verify_snla(s)
    assert (rep.counts()["skew"], rep.counts()["nondegenerate"]) == (0, 0)
    assert rep.counts()["compat"] == 1


SLOTS2 = [(i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2)]


def searched(res):
    """A dim-2 search result in the oracle's shape."""
    hits = [tuple(s.product.coeff(*slot) for slot in SLOTS2) for s in res.instances]
    return hits, res.examined, res.total, res.partial


def test_brute_force_oracle_matches_verify_exhaustively():
    f = standard_form(1)
    for cs in itertools.product((Fraction(0), Fraction(1)), repeat=8):
        p = ProductTable.from_coeffs(2, dict(zip(SLOTS2, cs)))
        s = SnlaInstance(2, p, f)
        assert brute_force_snla_pass(cs, 2) == verify_snla(s).passed


@pytest.mark.parametrize("n", [1, 2])
def test_linear_constraints_have_full_rank(n):
    # compatibility and skew-symmetry give omega(xy, z) = -omega(xy, z), so
    # nondegeneracy forces the zero product: one point survives elimination
    m = linear_constraints(standard_form(n))
    assert m.cols == (2 * n) ** 3
    assert rank(m) == (2 * n) ** 3


def constraint_rows(keep):
    m = linear_constraints(standard_form(1))
    rows = sorted(keep)
    return SparseMatrix(
        len(rows),
        m.cols,
        {(rows.index(r), c): v for (r, c), v in m.entries.items() if r in keep},
    )


@pytest.mark.parametrize(
    "system, coeffs",
    [
        (SparseMatrix(0, 8), [0, 1]),
        (constraint_rows({1, 2, 3, 4, 5, 6}), [-1, 0, 1]),
        (constraint_rows({1, 3, 6}), [-1, 0, 1]),
        (
            SparseMatrix(
                2, 8, {(0, 0): 1, (0, 3): -2, (1, 5): 1, (1, 2): 1, (1, 7): -1}
            ),
            ["-1/2", 0, 1],
        ),
    ],
    ids=["no-rows", "six-rows", "three-rows", "fractional"],
)
def test_lex_solutions_are_the_filtered_product(system, coeffs):
    coeff_list = tuple(sorted(Fraction(c) for c in coeffs))
    want = [
        (pos, cs)
        for pos, cs in enumerate(itertools.product(coeff_list, repeat=8))
        if not any(matvec(system, list(cs)))
    ]
    assert list(snla._lex_solutions(system, coeff_list)) == want


def test_search_verifies_every_candidate(monkeypatch):
    # with no linear rows every tuple is a candidate, so verify_snla alone
    # must reproduce the brute-force oracle
    monkeypatch.setattr(snla, "linear_constraints", lambda f: SparseMatrix(0, 8))
    for budget in (0, 10, 100, 256):
        res = snla_search(2, [0, 1], budget=budget)
        assert searched(res) == tuple(brute_force_snla_search(2, [0, 1], budget))


@pytest.mark.parametrize(
    "coeffs",
    [[0], [0, 1], [1, 2], [-1, 0, 1], ["-1/2", 0, 3], [-1, 0, 1, 2]],
    ids=["0", "0,1", "1,2", "-1,0,1", "-1/2,0,3", "-1,0,1,2"],
)
def test_search_matches_brute_force_oracle(coeffs):
    total = len(coeffs) ** 8
    oracle = {}  # budgets at or past the total cover the same candidates
    for budget in (0, 10, 3280, 3281, total, 10 ** 9):
        res = snla_search(2, coeffs, budget=budget)
        covered = min(budget, total)
        if covered not in oracle:
            oracle[covered] = brute_force_snla_search(2, coeffs, budget)
        assert searched(res) == tuple(oracle[covered]), budget


def test_search_single_candidate():
    res = snla_search(2, [0])
    assert res.examined == res.total == 1
    assert not res.partial
    assert len(res.instances) == 1
    assert res.instances[0].product == ptable(2, {})


def test_search_dim2_full():
    res = snla_search(2, [-1, 0, 1])
    assert res.examined == res.total == 6561
    assert not res.partial
    # compat with the standard form forces the zero product in dim 2
    assert len(res.instances) == 1
    assert res.instances[0].product == ptable(2, {})
    for s in res.instances:
        assert verify_snla(s).passed
    again = snla_search(2, [1, 0, -1])
    assert [s.product for s in again.instances] == [s.product for s in res.instances]


def test_search_budget():
    res = snla_search(2, [0, 1], budget=10)
    assert res.examined == 10 and res.partial
    assert len(res.instances) == 1  # the zero product is candidate #1
    empty = snla_search(2, [0, 1], budget=0)
    assert empty.examined == 0 and empty.instances == []
    crossing = snla_search(2, [0, 1], budget=200)
    assert crossing.examined == 200 and crossing.partial
    big = snla_search(2, [0, 1], budget=10 ** 9)
    assert big.examined == 256 and not big.partial


def test_search_rejects_bad_input():
    with pytest.raises(ValueError):
        snla_search(3, [0, 1])
    with pytest.raises(ValueError):
        snla_search(2, [])
    with pytest.raises(ValueError):
        snla_search(2, [0], budget=-1)


def test_fingerprint_frozen():
    zero = SnlaInstance(2, ptable(2, {}), standard_form(1))
    assert snla_fingerprint(zero) == {"center": 2, "derived": 0, "h2": 1}


SNLA4_DOC = """\
algebra snla4 convention plain
family e integer even
generator e[1]
generator e[2]
generator e[3]
generator e[4]
product e[1] e[2] => 1/2 e[3]
product e[2] e[1] => -2 e[4]
product e[3] e[3] => 1 e[1]
form e[1] e[4] => 1
form e[2] e[3] => 1
"""


def test_doc_roundtrip_commutator():
    # product and form lines give the table and the form; the instance
    # survives rendering the document and parsing it again
    doc = specfile.parse(SNLA4_DOC)
    s = snla_from_doc(doc)
    assert s.dim == 4
    assert s.product == ProductTable.from_coeffs(
        4, {(1, 2, 3): Fraction(1, 2), (2, 1, 4): -2, (3, 3, 1): 1}
    )
    assert s.form == standard_form(2)
    bracket = {E[3]: Fraction(1, 2), E[4]: 2}  # e1.e2 - e2.e1
    assert written_entries(s.bracket) == {(E[1], E[2]): bracket}
    back = snla_from_doc(specfile.parse(specfile.render(doc)))
    assert (back.product, back.form) == (s.product, s.form)


def test_doc_roundtrip_explicit_bracket():
    # entry lines give an explicit bracket that overrides the commutator
    text = "\n".join(
        [
            "algebra snla2x convention plain",
            "family e integer even",
            "generator e[1]",
            "generator e[2]",
            "entry e[1] e[2] => 3 e[1]",
            "form e[1] e[2] => 1",
        ]
    )
    doc = specfile.parse(text)
    for s in (snla_from_doc(doc), snla_from_doc(specfile.parse(specfile.render(doc)))):
        assert written_entries(s.bracket) == {(E[1], E[2]): {E[1]: 3}}
        assert s.bracket.generators == E[1:3]
        assert s.product == ptable(2, {})
        assert s.form == standard_form(1)


def test_doc_with_explicit_form():
    text = "\n".join(
        [
            "algebra tiny convention plain",
            "family e integer even",
            "generator e[1]",
            "generator e[2]",
            "form e[1] e[2] => 2",
        ]
    )
    s = snla_from_doc(specfile.parse(text))
    assert (s.form.scale, s.form.rows) == (1, (((1, 2),), ((0, -2),)))
    assert s.product == ptable(2, {})


def test_snla_from_doc_validation():
    def doc_of(lines):
        return specfile.parse("\n".join(lines))

    with pytest.raises(ValueError, match="plain"):
        snla_from_doc(
            doc_of(
                [
                    "algebra t convention super",
                    "family e integer even",
                    "generator e[1]",
                    "generator e[2]",
                ]
            )
        )
    with pytest.raises(ValueError, match="generator"):
        snla_from_doc(doc_of(["algebra t convention plain", "family e integer even"]))
    with pytest.raises(ValueError, match="1..dim"):
        snla_from_doc(
            doc_of(
                [
                    "algebra t convention plain",
                    "family e integer even",
                    "generator e[2]",
                    "generator e[3]",
                ]
            )
        )
    with pytest.raises(ValueError, match="single"):
        snla_from_doc(
            doc_of(
                [
                    "algebra t convention plain",
                    "family e integer even",
                    "family f integer even",
                    "generator e[1]",
                    "generator f[1]",
                ]
            )
        )
    with pytest.raises(ValueError, match="odd dimension"):
        snla_from_doc(
            doc_of(["algebra t convention plain", "family e integer even", "generator e[1]"])
        )
