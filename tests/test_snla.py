"""Product tables, symplectic forms, SNLA checks, search, extensions."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

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
from lieforge.linalg import SparseMatrix, matvec, rank
from oracles import (
    brute_force_snla_pass,
    brute_force_snla_search,
    naive_associative,
    naive_form_compat,
    naive_right_commutative,
    written_entries,
)

E = [None] + [gid("e", i) for i in range(1, 5)]


def ptable(dim, coeffs):
    return ProductTable.from_coeffs(dim, coeffs)


def test_product_table_basics():
    p = ptable(2, {(1, 1, 2): 1})
    assert p.value(1, 1) == Element.of(E[2])
    assert p.value(2, 1) == Element.zero()
    assert p.coeff(1, 1, 2) == 1
    assert p.coeff(1, 1, 1) == 0
    x = Element({E[1]: 2})
    assert p.mult(x, x) == Element.of(E[2], 4)
    with pytest.raises(ValueError):
        ProductTable(2, {(0, 1): Element.of(E[1])})
    with pytest.raises(ValueError):
        ProductTable(2, {(1, 3): Element.of(E[1])})
    with pytest.raises(ValueError):
        ProductTable(2, {(1, 1): Element.of(gid("f", 1))})


def test_symplectic_form_validation():
    with pytest.raises(ValueError):
        SymplecticForm([[0, 1]])
    with pytest.raises(ValueError):
        SymplecticForm([[0]])  # odd dim
    with pytest.raises(ValueError):
        SymplecticForm([[0, 1], [1, 0]])  # symmetric
    with pytest.raises(ValueError):
        SymplecticForm([[0, 0], [0, 0]])  # degenerate
    f = SymplecticForm([[0, 2], [-2, 0]])
    assert f.matrix == [[0, 2], [-2, 0]]


def test_standard_form_values():
    f1 = standard_form(1)
    assert f1.matrix == [[0, 1], [-1, 0]]
    f2 = standard_form(2)
    assert f2.matrix == [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    for n in (1, 2, 3):
        assert standard_form(n).dim == 2 * n
    with pytest.raises(ValueError):
        standard_form(0)


def test_form_pair_bilinear():
    f = standard_form(1)
    x = Element({E[1]: 2, E[2]: 3})
    y = Element({E[1]: Fraction(1, 2), E[2]: -1})
    # 2*(-1)*w12 + 3*(1/2)*w21 = -2 - 3/2
    assert f.pair(x, y) == Fraction(-7, 2)
    assert f.pair(x, x) == 0


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
        assert (check_novikov(p) == []) == naive_right_commutative(dim, coeffs)
        assert (check_associative(p) == []) == naive_associative(dim, coeffs)
        if dim % 2 == 0:
            f = standard_form(dim // 2)
            ours = check_compat(p, f) == []
            assert ours == naive_form_compat(dim, coeffs, f.matrix)


def test_associative_implies_left_symmetric():
    # both associator orders vanish, so the left-symmetric identity is 0 = 0
    for coeffs in ({}, {(1, 1, 1): 1}, {(1, 1, 1): 1, (1, 2, 2): 1}):
        p = ptable(2, coeffs)
        if check_associative(p) != []:
            continue
        for i, j, k in itertools.product((1, 2), repeat=3):
            lhs = p.mult(p.value(i, j), Element.of(E[k])) - p.mult(
                Element.of(E[i]), p.value(j, k)
            )
            rhs = p.mult(p.value(j, i), Element.of(E[k])) - p.mult(
                Element.of(E[j]), p.value(i, k)
            )
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
    assert res.instances[0].product.entries == {}


def test_search_dim2_full():
    res = snla_search(2, [-1, 0, 1])
    assert res.examined == res.total == 6561
    assert not res.partial
    # compat with the standard form forces the zero product in dim 2
    assert len(res.instances) == 1
    assert res.instances[0].product.entries == {}
    for s in res.instances:
        assert verify_snla(s).passed
    again = snla_search(2, [1, 0, -1])
    assert [s.product.entries for s in again.instances] == [
        s.product.entries for s in res.instances
    ]


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
        assert s.product.entries == {}
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
    assert s.form.matrix == [[0, 2], [-2, 0]]
    assert s.product.entries == {}


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
