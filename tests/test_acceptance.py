"""Acceptance gate: one test per numbered criterion, time bounds enforced
in-test.  The conftest terminal hook prints one ACCEPTANCE line per
criterion at the end of the run."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from algebra_fixtures import (
    abelian,
    borel2,
    filiform4,
    heisenberg3,
    random_table,
    sl2_type,
    witt_window,
)
from oracles import matvec, naive_jacobi_failures, pair_values, paper_cocycles, solve, transpose
from test_specfile import CORRUPT_LINES, _random_doc

from lieforge import cli
from lieforge.algebra import Violation, derived_subalgebra, gid, jacobi_audit
from lieforge.automorphisms import (
    CoefficientFamily,
    automorphism_audit,
    check_symplectomorphism,
    product_map_audit,
    recurrence_audit,
)
from lieforge.cohomology import (
    Cochain2,
    LinearEndo,
    central_extension,
    coboundary2_space,
    cocycle2_space,
    cocycle_audit,
    derivation_space,
    h2_dimension,
    inner_split,
)
from lieforge.esvla import EsvlaConfig
from lieforge.linalg import SparseMatrix, nullspace, rank
from lieforge.snla import (
    ProductTable,
    SnlaInstance,
    snla_search,
    standard_form,
    verify_snla,
)
from lieforge.specfile import ParseError, parse, render

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"


def Y(half):
    return gid("Y", Fraction(half, 2))


def test_acceptance_01_linalg_invariants():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(200):
        n = rng.randint(1, 30)
        m = rng.randint(1, 30)
        entries = {
            (i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for i in range(n)
            for j in range(m)
            if rng.random() < 0.3
        }
        M = SparseMatrix(n, m, entries)
        r = rank(M)
        assert r == rank(transpose(M))
        ns = nullspace(M)
        assert r + len(ns) == m
        for v in ns:
            assert all(x == 0 for x in matvec(M, v))
        x = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        b = matvec(M, x)
        xs = solve(M, b)
        assert xs is not None
        assert matvec(M, xs) == b
    assert time.perf_counter() - t0 < 10


def test_acceptance_02_jacobi_oracle_equivalence():
    rng = random.Random(1002)
    corpus = [heisenberg3(), sl2_type()]
    corpus += [abelian(n) for n in range(1, 7)]
    corpus += [random_table(rng, rng.randint(2, 6)) for _ in range(20)]
    for A in corpus:
        assert A.dim <= 6
        ours = {v.at for v in jacobi_audit(A, scope="all").violations}
        naive = set(naive_jacobi_failures(A))
        assert ours == naive


def test_acceptance_03_cohomology_exact_values():
    t0 = time.perf_counter()
    for n in range(2, 6):
        assert h2_dimension(abelian(n)) == n * (n - 1) // 2
    assert h2_dimension(heisenberg3()) == 2
    ders = derivation_space(sl2_type())
    inner, outer = inner_split(sl2_type(), ders)
    assert outer == 0
    corpus = [heisenberg3(), sl2_type(), filiform4(), borel2()]
    corpus += [abelian(n) for n in range(2, 6)]
    for A in corpus:
        assert jacobi_audit(A, scope="all").violations == []
        assert len(coboundary2_space(A)) == len(derived_subalgebra(A))
    assert time.perf_counter() - t0 < 5


def test_acceptance_04_extension_iff_cocycle():
    A = filiform4()
    assert A.dim == 4
    basis = cocycle2_space(A)
    rng = random.Random(1004)
    gens = A.generators
    both = {True: 0, False: 0}
    for i in range(100):
        if i % 2:
            raw = {}
            for b in basis:
                c = Fraction(rng.randint(-2, 2))
                for pair, v in b.raw.items():
                    raw[pair] = raw.get(pair, Fraction(0)) + c * v
            raw = {p: v for p, v in raw.items() if v}
        else:
            raw = {}
            for a in range(4):
                for b in range(a + 1, 4):
                    if rng.random() < 0.6:
                        c = Fraction(rng.randint(-4, 4))
                        if c:
                            raw[(gens[a], gens[b])] = c
        w = Cochain2(A.parity, A.convention, raw)
        ext_ok = jacobi_audit(central_extension(A, w), scope="all").violations == []
        coc_ok = cocycle_audit(A, w, scope="all").violations == []
        assert ext_ok == coc_ok
        both[coc_ok] += 1
    assert both[True] > 0 and both[False] > 0


def test_acceptance_05_delta_squared_zero():
    rng = random.Random(1005)
    corpus = [heisenberg3(), sl2_type(), filiform4(), borel2(), abelian(4)]
    checked = 0
    for A in corpus:
        gens = A.generators
        value = pair_values(A)
        for _ in range(40):
            f = {g: Fraction(rng.randint(-5, 5), rng.choice([1, 2])) for g in gens}
            raw = {}
            for i, g in enumerate(gens):
                for h in gens[i + 1 :]:
                    val = sum(
                        (c * f[t] for t, c in value(g, h).items()),
                        Fraction(0),
                    )
                    if val:
                        raw[(g, h)] = val
            df = Cochain2(A.parity, A.convention, raw)
            assert cocycle_audit(A, df, scope="all").violations == []
            checked += 1
    assert checked == 200


def test_acceptance_06_esvla_audit_golden(capsys):
    argv = [
        "esvla", "audit", "--window", "4", "--convention", "super",
        "--n-index", "extended", "--json",
    ]
    outs = []
    for _ in range(3):
        code, _ = cli.run(argv)
        outs.append(capsys.readouterr().out)
        assert code == 1
    assert outs[0] == outs[1] == outs[2]
    assert outs[0] == (GOLDEN / "esvla_audit_w4_extended.json").read_text()

    code, rep = cli.run(["esvla", "audit", "--window", "3", "--convention", "plain"])
    capsys.readouterr()
    assert code == 1
    diag = [
        f for f in rep.findings
        if f.code == "V_ALT" and f.location.startswith("(Y[")
    ]
    assert diag, "Y-Y alternating violation expected under plain convention"

    t0 = time.perf_counter()
    code, _ = cli.run(["esvla", "audit", "--window", "6", "--n-index", "extended"])
    capsys.readouterr()
    assert time.perf_counter() - t0 < 60
    assert code == 1


def test_acceptance_07_paper_cocycle_values():
    pc = paper_cocycles(EsvlaConfig(window=4))
    assert pc["w1"].value(Y(1), Y(-1)) == 1
    assert pc["w2"].value(gid("L", 2), Y(-5)) == 1
    for m in range(-4, 5):
        for r2 in range(-7, 8, 2):
            n = Fraction(r2, 2) - Fraction(1, 2)
            expected = Fraction(1) if m + n + 1 == 0 else Fraction(0)
            assert pc["w3"].value(gid("M", m), Y(r2)) == expected
    assert pc["w1"].value(Y(1), Y(3)) == 0
    assert pc["w2"].value(gid("L", 0), Y(-1)) == 0


def test_acceptance_08_snla_hand_cases():
    zero = SnlaInstance(2, ProductTable.from_coeffs(2, {}), standard_form(1))
    rep = verify_snla(zero)
    assert rep.passed
    assert not any(rep.counts().values())

    s = SnlaInstance(
        2, ProductTable.from_coeffs(2, {(1, 1, 2): 1}), standard_form(1)
    )
    rep = verify_snla(s)
    assert not rep.passed
    assert rep.audits["novikov"].found == []
    assert rep.audits["associative"].found == []
    e1 = gid("e", 1)
    assert rep.audits["compat"].violations == [
        Violation((e1, e1, e1), (Fraction(-1), Fraction(1)))
    ]


def test_acceptance_09_snla_search_catalog():
    t0 = time.perf_counter()
    res = snla_search(2, [-1, 0, 1])
    assert time.perf_counter() - t0 < 10
    assert res.total == 6561
    assert res.examined == 6561
    assert not res.partial
    for inst in res.instances:
        assert verify_snla(inst).passed

    def serialize(r):
        return {
            "dim": r.dim,
            "coeffs": [str(c) for c in r.coeffs],
            "total": r.total,
            "examined": r.examined,
            "instances": [
                {
                    f"{i},{j},{k}": str(inst.product.coeff(i, j, k))
                    for i in range(1, inst.dim + 1)
                    for j in range(1, inst.dim + 1)
                    for k in range(1, inst.dim + 1)
                    if inst.product.coeff(i, j, k)
                }
                for inst in r.instances
            ],
        }

    first = serialize(res)
    assert first == serialize(snla_search(2, [-1, 0, 1]))
    golden = json.loads((GOLDEN / "snla_search_dim2.json").read_text())
    assert first == golden


def test_acceptance_10_automorphism_suite():
    t0 = time.perf_counter()
    for A in (heisenberg3(), sl2_type(), filiform4(), witt_window(3)):
        assert automorphism_audit(A, LinearEndo.identity(A.dim)).violations == []
    zero2 = ProductTable.from_coeffs(2, {})
    assert product_map_audit(zero2, LinearEndo.identity(2)).violations == []
    form = standard_form(1)
    ok, _ = check_symplectomorphism(form, LinearEndo.identity(2))
    assert ok

    half = Fraction(1, 2)
    ok, _ = check_symplectomorphism(
        form, LinearEndo([[2, 0], [0, half]])
    )
    assert ok
    ok, residual = check_symplectomorphism(form, LinearEndo([[2, 0], [0, 2]]))
    assert not ok
    assert residual == [
        [Fraction(0), Fraction(3)],
        [Fraction(-3), Fraction(0)],
    ]

    W = 8
    cf = CoefficientFamily(
        {n: Fraction(2) ** n for n in range(-W, W + 1)},
        {n: n * Fraction(2) ** n for n in range(-W, W + 1)},
        {n: Fraction(0) for n in range(-W, W + 1)},
        {k: Fraction(0) for k in range(-2 * W, 2 * W + 1)},
        W,
    )
    assert not any(aud.found for aud in recurrence_audit(cf).values())
    assert time.perf_counter() - t0 < 1


def test_acceptance_11_specfile_roundtrip():
    import lieforge

    pkg = Path(lieforge.__file__).parent
    for name in ("esvla.lie", "snla_dim2.lie"):
        text = (pkg / "data" / name).read_text()
        doc = parse(text)
        assert parse(render(doc)) == doc
        assert render(parse(render(doc))) == render(doc)

    rng = random.Random(1011)
    for _ in range(100):
        doc = _random_doc(rng)
        text = render(doc)
        assert parse(text) == doc

    assert len(CORRUPT_LINES) >= 10
    for name, line in CORRUPT_LINES.items():
        text = (DATA / "corrupt" / name).read_text()
        try:
            parse(text)
        except ParseError as e:
            assert e.line == line, name
        else:
            raise AssertionError(f"{name} parsed without error")
