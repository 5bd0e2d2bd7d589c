"""Derivation spaces, 2-cocycles, coboundaries, H2, central extensions."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import NamedTuple

import pytest

from lieforge import cohomology, esvla, specfile
from lieforge.algebra import (
    AlgebraInstance,
    Element,
    bracket,
    center,
    check_alternating,
    derived_subalgebra,
    gid,
    Violation,
    jacobi_audit,
    swap_sign,
)
from lieforge.cohomology import (
    Cochain2,
    LinearEndo,
    ad_matrix,
    central_extension,
    coboundary2_space,
    cocycle2_space,
    cocycle_audit,
    derivation_space,
    h2_dimension,
    inner_split,
    symmetry_audit,
)
from algebra_fixtures import (
    abelian,
    borel2,
    filiform4,
    finite_instance,
    heisenberg3,
    random_super_table,
    random_table,
    sl2_type,
    super_heisenberg,
    witt_window,
)
from oracles import (
    check_derivation,
    map_image,
    naive_cocycle_residual,
    naive_is_derivation,
    pair_value,
    pair_values,
    written_entries,
)
from test_indexed_view import FIXTURES

E1, E2, E3 = gid("e", 1), gid("e", 2), gid("e", 3)


def images_of(A, D):
    return {g: map_image(A, D, g) for g in A.generators}


def random_cochain(rng, A, density=0.6):
    gens = A.generators
    raw = {}
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if rng.random() < density:
                c = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
                if c:
                    raw[(g, h)] = c
    return Cochain2(A.parity, A.convention, raw)


def test_linear_endo_basics():
    A = heisenberg3()
    D = LinearEndo.identity(3)
    assert D == LinearEndo([[1, 0, 0], [0, 1, 0], [0, 0, Fraction(2, 2)]])
    assert [D.image(A.generators, j) for j in range(3)] == [
        Element.of(g) for g in A.generators
    ]
    # e1 -> 3 e2, the rest -> 0; column j holds only the nonzero entries
    E = LinearEndo([[0, 0, 0], [3, 0, 0], [0, 0, 0]])
    assert E.dim == 3
    assert dict(E.column(0)) == {1: Fraction(3)} and not E.column(1)
    assert E.image(A.generators, 0) == Element.of(E2, 3)
    assert E.image(A.generators, 1) == Element.zero()
    assert E == LinearEndo.from_columns([{1: Fraction(3)}, {}, {}])
    assert E != D
    with pytest.raises(ValueError):
        LinearEndo([[1, 2]])


def test_cochain_value_extends_by_symmetry():
    w = Cochain2(raw={(E1, E2): Fraction(3)})
    assert w.value(E1, E2) == 3
    assert w.value(E2, E1) == -3
    assert w.value(E1, E3) == 0
    Y = gid("Y", Fraction(1, 2))
    ws = Cochain2(parity={"Y": 1}, convention="super", raw={(Y, Y): 5})
    assert ws.value(Y, Y) == 5
    assert Cochain2(raw={(E1, E2): 0}).raw == {}
    # equality compares what a cochain reads: a super cochain's parity map
    # decides its reading, a plain cochain's does not
    Y3 = gid("Y", Fraction(3, 2))
    odd = Cochain2({"Y": 1}, "super", {(Y, Y3): 2})
    even = Cochain2({}, "super", {(Y, Y3): 2})
    assert (odd.value(Y3, Y), even.value(Y3, Y)) == (2, -2)
    assert odd != even
    assert w == Cochain2({"e": 1}, "plain", {(E1, E2): 3}) == Cochain2(raw={(E2, E1): -3})
    # the reading is built once, from a store that cannot change under it
    with pytest.raises(TypeError):
        w.raw[(E1, E3)] = Fraction(1)


def test_cochain_symmetry_violations():
    A = heisenberg3()
    w = Cochain2(raw={(E1, E2): 1, (E2, E1): 1, (E1, E3): 2})
    audit = symmetry_audit(w, A)
    assert audit.examined == 1 and audit.violations == [Violation((E1, E2), 2)]
    d = Cochain2(raw={(E1, E1): 3})
    assert symmetry_audit(d, A).violations == [Violation((E1, E1), 6)]
    Y = gid("Y", Fraction(1, 2))
    ok = Cochain2(parity={"Y": 1}, convention="super", raw={(Y, Y): 3})
    odd = AlgebraInstance("y", [Y], {}, parity={"Y": 1}, convention="super")
    assert symmetry_audit(ok, odd).found == []
    # a pair is oriented by generator order, not by position
    L = gid("L", 1)
    swapped = AlgebraInstance("yl", [Y, L], {})
    both = Cochain2(raw={(Y, L): 1, (L, Y): 2})
    assert symmetry_audit(both, swapped).found == [((1, 0), 3)]


L1, Y1, Y3 = gid("L", 1), gid("Y", Fraction(1, 2)), gid("Y", Fraction(3, 2))
Z0 = gid("Z", 0)


@pytest.mark.parametrize(
    "convention, g, h, sign",
    [
        ("plain", E1, E2, -1),
        ("plain", E1, E1, -1),
        ("super", L1, Y1, -1),
        ("super", Y1, Y3, 1),
        ("super", Y1, Y1, 1),
    ],
    ids=["plain", "plain-diagonal", "even-odd", "odd-odd", "odd-odd-diagonal"],
)
def test_bracket_table_and_cochain_agree(convention, g, h, sign):
    parity = {"Y": 1}
    gens = list(dict.fromkeys([g, h, Z0]))
    one = finite_instance("t", gens, {(g, h): {Z0: 2}}, parity, convention)
    omega = Cochain2(parity, convention, {(g, h): 2})
    assert omega.swap_sign(g, h) == omega.swap_sign(h, g) == sign
    assert swap_sign(convention, g.family == "Y", h.family == "Y") == sign
    # one-sided entries extend by the same symmetry
    assert omega.value(h, g) == (2 if g == h else 2 * sign)
    value, _ = bracket(one, Element.of(h), Element.of(g))
    assert value == Element.of(Z0, omega.value(h, g))
    # both directions stored (one diagonal entry when g == h)
    raw = {(g, h): Fraction(2), (h, g): Fraction(5)}
    A = finite_instance("t", gens, {p: {Z0: v} for p, v in raw.items()}, parity, convention)
    expected = (1 - sign) * 5 if g == h else 5 - sign * 2
    alt = [(*v.at, v.residual) for v in check_alternating(A).violations]
    both = Cochain2(parity, convention, raw)
    sym = [(*v.at, Element.of(Z0, v.residual)) for v in symmetry_audit(both, A).violations]
    assert alt == sym == ([(g, h, Element.of(Z0, expected))] if expected else [])
    # the extension by the both-ways cochain and its cocycle audit read it
    # as ``value`` does on every ordered pair; with [p,q] = a the cyclic sum
    # of a triple (b, p, q) reads omega(a, b) alone
    ext = central_extension(one, both)
    z = ext.generators[-1]
    p, q = gid("p", 0), gid("q", 0)
    pair = list(dict.fromkeys([g, h]))
    for a in pair:
        probe = finite_instance("p", [*gens, p, q], {(p, q): {a: 1}}, parity, convention)
        audit = cocycle_audit(probe, both, "all")
        assert {v.at: v.residual for v in audit.violations} == {
            (b, p, q): both.value(a, b) for b in pair if both.value(a, b)
        }
        for b in pair:
            assert pair_value(ext, a, b).terms.get(z, 0) == both.value(a, b)


def test_extension_z_column_is_the_cochain_reading():
    # cochains that store some pairs both ways, with values that break the
    # swap sign, on plain and super tables that store each bracket one way
    rng = random.Random(2505)
    contradicted = 0
    for trial in range(40):
        if trial % 2:
            A = random_super_table(rng, rng.randint(1, 3), rng.randint(1, 3))
        else:
            A = random_table(rng, rng.randint(2, 5))
        raw = {
            pair: Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            for pair in itertools.product(A.generators, repeat=2)
            if rng.random() < 0.4
        }
        omega = Cochain2(A.parity, A.convention, raw)
        contradicted += bool(symmetry_audit(omega, A).found)
        ext = central_extension(A, omega)
        z, value = ext.generators[-1], pair_values(ext)
        for g, h in itertools.product(A.generators, repeat=2):
            assert value(g, h).get(z, 0) == omega.value(g, h)
            assert {t: c for t, c in value(g, h).items() if t != z} == pair_values(A)(g, h)
    assert contradicted > 20


def test_cochain_pair_outside_the_instance_is_refused():
    A = heisenberg3()
    omega = Cochain2(raw={(E1, gid("e", 9)): 1})
    refusal = r"^the cochain reads a pair outside the instance: unknown generator e\[9\]$"
    for consumer in (cocycle_audit, central_extension):
        with pytest.raises(ValueError, match=refusal):
            consumer(A, omega)


def test_ad_matrix_values():
    A = heisenberg3()
    ad1 = ad_matrix(A, E1)
    assert map_image(A, ad1, E2) == Element.of(E3)
    assert map_image(A, ad1, E1) == Element.zero()
    S = sl2_type()
    e, f, h = S.generators
    adh = ad_matrix(S, h)
    assert map_image(S, adh, e) == Element.of(e, 2)
    assert map_image(S, adh, f) == Element.of(f, -2)
    assert map_image(S, adh, h) == Element.zero()
    assert ad_matrix(S, Element({e: 1, f: 1})) == LinearEndo(
        [[0, 0, -2], [0, 0, 2], [-1, 1, 0]]
    )
    # [e1,e3] = [e2,e3] = e4: the entries of ad(e1 - e2) cancel and are
    # not stored, so it equals the zero map
    e1, e2, e3, e4 = (gid("e", i) for i in range(1, 5))
    twin = finite_instance("twin", [e1, e2, e3, e4], {(e1, e3): {e4: 1}, (e2, e3): {e4: 1}})
    zero = ad_matrix(twin, Element({e1: 1, e2: -1}))
    assert zero == LinearEndo([[0] * 4 for _ in range(4)])
    assert not any(zero.column(j) for j in range(4))


def test_ad_maps_are_derivations():
    for A in (heisenberg3(), sl2_type(), filiform4(), borel2(), super_heisenberg()):
        for g in A.generators:
            D = ad_matrix(A, g)
            assert check_derivation(A, D) == []
            assert naive_is_derivation(A, images_of(A, D))


def test_derivation_space_dims():
    assert len(derivation_space(sl2_type())) == 3
    assert len(derivation_space(heisenberg3())) == 6
    assert len(derivation_space(filiform4())) == 7
    for n in (2, 3, 4):
        assert len(derivation_space(abelian(n))) == n * n


def test_derivation_basis_passes_oracle():
    for A in (heisenberg3(), sl2_type(), filiform4(), borel2(), super_heisenberg()):
        basis = derivation_space(A)
        for D in basis:
            assert check_derivation(A, D) == []
            assert naive_is_derivation(A, images_of(A, D))


def test_super_derivations_stay_parity_pure():
    # super_heisenberg also has the parity-mixing solution Y -> Z
    A = super_heisenberg()
    odd = [A.parity.get(g.family, 0) for g in A.generators]
    basis = derivation_space(A)
    assert basis
    for D in basis:
        for j in range(D.dim):
            for i in D.column(j):
                assert odd[i] == odd[j]


def test_derivation_check_agrees_with_oracle():
    rng = random.Random(404)
    for _ in range(30):
        A = random_table(rng, rng.randint(3, 5))
        mat = [
            [Fraction(rng.randint(-2, 2)) for _ in range(A.dim)]
            for _ in range(A.dim)
        ]
        D = LinearEndo(mat)
        ours = check_derivation(A, D) == []
        assert ours == naive_is_derivation(A, images_of(A, D))


def test_inner_split_frozen():
    cases = [
        (sl2_type(), 3, 0),
        (heisenberg3(), 2, 4),
        (abelian(3), 0, 9),
        (filiform4(), 3, 4),
    ]
    for A, inner, outer in cases:
        ders = derivation_space(A)
        assert inner_split(A, ders) == (inner, outer)
        # for consistent tables inner = dim - dim center
        assert inner == A.dim - len(center(A))


def test_witt_grade_zero_derivations():
    A = witt_window(4)
    ders = derivation_space(A, grade_restriction=0)
    assert len(ders) == 1
    L0 = gid("L", 0)
    assert inner_split(A, ders, ad_generators=[L0]) == (1, 0)
    # the basis map scales L_k by a multiple of k
    (D,) = ders
    k1 = map_image(A, D, gid("L", 1)).terms[gid("L", 1)]
    for m in range(-4, 5):
        img = map_image(A, D, gid("L", m))
        expect = Element.of(gid("L", m), k1 * m)
        assert img == expect


def test_cocycle_space_dims_frozen():
    H = heisenberg3()
    assert len(cocycle2_space(H)) == 3
    assert len(coboundary2_space(H)) == 1
    assert h2_dimension(H) == 2
    assert h2_dimension(sl2_type()) == 0
    assert h2_dimension(filiform4()) == 2
    assert h2_dimension(borel2()) == 0
    for n in range(2, 6):
        assert h2_dimension(abelian(n)) == n * (n - 1) // 2
    S = super_heisenberg()
    assert len(cocycle2_space(S)) == 1
    assert len(coboundary2_space(S)) == 1
    assert h2_dimension(S) == 0


def test_b2_dim_equals_derived_dim():
    for A in (heisenberg3(), sl2_type(), filiform4(), borel2(), abelian(4)):
        assert len(coboundary2_space(A)) == len(derived_subalgebra(A))


def test_coboundaries_are_cocycles():
    rng = random.Random(405)
    fixtures = [heisenberg3(), sl2_type(), filiform4(), borel2(), super_heisenberg()]
    for i in range(200):
        A = fixtures[i % len(fixtures)]
        f = {
            t: Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            for t in A.generators
        }
        raw = {}
        gens = A.generators
        sup = A.convention == "super"
        for a in range(len(gens)):
            for b in range(a if sup else a + 1, len(gens)):
                g, h = gens[a], gens[b]
                val = sum(
                    (f[t] * c for t, c in pair_value(A, g, h).terms.items()),
                    Fraction(0),
                )
                if val:
                    raw[(g, h)] = val
        df = Cochain2(A.parity, A.convention, raw)
        assert cocycle_audit(A, df, scope="all").violations == []
        assert naive_cocycle_residual(A, df.value)


def test_cocycle_basis_passes_check():
    for A in (heisenberg3(), sl2_type(), filiform4(), super_heisenberg()):
        for w in cocycle2_space(A):
            assert cocycle_audit(A, w, scope="all").violations == []
            assert naive_cocycle_residual(A, w.value)


def test_cocycle_check_agrees_with_oracle():
    rng = random.Random(406)
    for _ in range(40):
        A = random_table(rng, 4)
        w = random_cochain(rng, A)
        ours = cocycle_audit(A, w, scope="all").violations == []
        assert ours == naive_cocycle_residual(A, w.value)


def test_cocycle_audit_counts():
    A = witt_window(4)
    w = Cochain2(raw={})
    audit = cocycle_audit(A, w, scope="all")
    assert audit.violations == []
    assert audit.skipped_boundary > 0
    interior = cocycle_audit(A, w, scope="interior")
    assert interior.examined > 0
    with pytest.raises(ValueError):
        cocycle_audit(A, w, scope="everything")


def test_extension_jacobi_iff_cocycle():
    A = filiform4()
    basis = cocycle2_space(A)
    rng = random.Random(407)
    passed = failed = 0
    for i in range(100):
        if i % 2 == 0:
            w = random_cochain(rng, A)
        else:
            raw = {}
            for b in basis:
                c = Fraction(rng.randint(-2, 2))
                for pair, v in b.raw.items():
                    raw[pair] = raw.get(pair, Fraction(0)) + c * v
            w = Cochain2(A.parity, A.convention, raw)
        ext = central_extension(A, w)
        jac_ok = jacobi_audit(ext, scope="all").violations == []
        coc_ok = cocycle_audit(A, w, scope="all").violations == []
        assert jac_ok == coc_ok
        passed += jac_ok
        failed += not jac_ok
    assert passed > 0 and failed > 0


def test_central_extension_structure():
    A = heisenberg3()
    w = Cochain2(raw={(E1, E3): Fraction(1)})
    ext = central_extension(A, w)
    assert ext.dim == 4
    z = gid("Z", 0)
    assert z in ext.generators
    assert pair_value(ext, E1, E3) == Element.of(z)
    assert pair_value(ext, E1, E2) == Element.of(E3)
    assert any(x.terms.get(z) for x in center(ext))
    assert jacobi_audit(ext, scope="all").violations == []


@pytest.mark.parametrize("cocycle", ["e[m] h[n] => 1", "h[m] e[n] => -1"])
def test_central_extension_cochain_stored_against_the_table(cocycle):
    # sl2 stores [h,e]; the cochain may store its value on (e,h) instead
    text = (Path(__file__).parent / "data" / "sl2.lie").read_text()
    doc = specfile.parse(f"{text}cocycle w {cocycle}\n")
    A = specfile.instantiate(doc)
    omega = specfile.instantiate_cocycle(doc.cocycles[0], A)
    ext = central_extension(A, omega)
    e, h, z = gid("e", 0), gid("h", 0), gid("Z", 0)
    assert check_alternating(ext).violations == []
    assert pair_value(ext, e, h) == Element({e: -2, z: 1})
    assert pair_value(ext, h, e) == Element({e: 2, z: -1})


def test_central_extension_avoids_family_collision():
    A = super_heisenberg()  # already uses family Z
    w = Cochain2(A.parity, "super", {})
    ext = central_extension(A, w)
    assert gid("Z1", 0) in ext.generators


def test_h2_basis_order_independent():
    e1, e2, e3 = E1, E2, E3
    reordered = finite_instance("heisenberg3r", [e2, e3, e1], {(e1, e2): {e3: 1}})
    assert h2_dimension(reordered) == 2
    S = sl2_type()
    e, f, h = S.generators
    back = finite_instance(
        "sl2r",
        [h, f, e],
        {(e, f): {h: 1}, (h, e): {e: 2}, (h, f): {f: -2}},
    )
    assert h2_dimension(back) == 0


def test_grade_zero_spaces_on_witt():
    A = witt_window(4)
    z2 = cocycle2_space(A, grade_zero=True)
    b2 = coboundary2_space(A, grade_zero=True)
    assert len(z2) == 2
    assert len(b2) == 1
    assert h2_dimension(A, grade_zero=True) == 1
    # the one-dimensional quotient carries the cubic class: some cocycle in
    # Z2 is not proportional to the coboundary pattern j -> 2j
    pairs = [(gid("L", -j), gid("L", j)) for j in range(1, 5)]
    vals = [[w.value(g, h) for g, h in pairs] for w in z2]
    cubic = [Fraction(-(j ** 3 - j)) for j in range(1, 5)]
    # cubic profile must lie in span(z2 values)
    import lieforge.linalg as la

    rows = {
        (r, c): v for r, vec in enumerate(vals) for c, v in enumerate(vec) if v
    }
    m = la.SparseMatrix(len(vals), 4, rows)
    aug = {
        (r, c): v
        for r, vec in enumerate(vals + [cubic])
        for c, v in enumerate(vec)
        if v
    }
    m2 = la.SparseMatrix(len(vals) + 1, 4, aug)
    assert la.rank(m) == la.rank(m2) == 2


def test_h2_degenerate_dims():
    assert h2_dimension(abelian(1)) == 0
    one = finite_instance("one", [E1], {})
    assert cocycle2_space(one) == []
    assert h2_dimension(one) == 0


def _h2_instances() -> dict[str, AlgebraInstance]:
    cases = {name: make() for name, make in FIXTURES.items()}
    cases.update({f"witt{w}": witt_window(w) for w in range(3, 7)})
    for w, convention in itertools.product((4, 5), ("plain", "super")):
        cfg = esvla.EsvlaConfig(w, convention=convention)
        cases[f"esvla{w}_{convention}"] = esvla.build_esvla(cfg)
    cases["abelian1"] = abelian(1)
    cases["empty"] = finite_instance("empty", [], {})
    # one odd generator: every even graded-symmetric form is closed, and
    # there is no bracket to be a coboundary (Fuks 1986, ch. 1)
    cases["odd1"] = finite_instance("odd1", [gid("Y", 0)], {}, {"Y": 1}, "super")
    return cases


@pytest.mark.parametrize("grade_zero", [False, True])
def test_h2_is_z2_minus_b2_on_every_instance(grade_zero):
    # h2_dimension counts ranks; the two bases are built from the same
    # systems, so their sizes must give the same difference everywhere
    counts = {}
    for name, A in _h2_instances().items():
        z2 = len(cocycle2_space(A, grade_zero=grade_zero))
        b2 = len(coboundary2_space(A, grade_zero=grade_zero))
        assert h2_dimension(A, grade_zero=grade_zero) == z2 - b2, name
        counts[name] = (z2, b2)
    assert counts["odd1"] == (1, 0)
    assert counts["empty"] == counts["abelian1"] == (0, 0)


def test_unknown_limit_refuses_before_any_row(monkeypatch):
    # abelian(n) has n * (n - 1) / 2 cochain unknowns and n**2 derivation
    # unknowns; the limit is checked on their count before they are numbered
    limit = cohomology.MAX_UNKNOWNS
    assert 256 * 255 // 2 <= limit < 257 * 256 // 2 and 181**2 <= limit < 182**2
    reached = []

    def no_rows(*args):
        reached.append(args[0].dim)
        raise AssertionError("rows assembled")

    monkeypatch.setattr(cohomology, "_cocycle_rows", no_rows)
    monkeypatch.setattr(cohomology, "_pair_iter", no_rows)
    message = f"the system has more than {limit} unknowns"
    for space, dim in (
        (cocycle2_space, 257),
        (coboundary2_space, 257),
        (derivation_space, 182),
    ):
        with pytest.raises(ValueError, match=message):
            space(abelian(dim))
    assert reached == []
    # one less is accepted: the spaces get as far as their rows
    for space, dim in ((cocycle2_space, 256), (derivation_space, 181)):
        with pytest.raises(AssertionError, match="rows assembled"):
            space(abelian(dim))
    assert reached == [256, 181]
    assert coboundary2_space(abelian(256)) == []
    # the instance-free bound refuses exactly the dimensions whose
    # whole-window systems are all over the limit
    cohomology.refuse_whole_window(256)
    with pytest.raises(ValueError, match=message):
        cohomology.refuse_whole_window(257)


def test_each_system_refuses_once_on_its_exact_unknown_count(monkeypatch):
    # the count read from the (index, parity) tally equals the slots the loop
    # numbers, and it reaches _refuse_unknowns once per system, before any row
    refused = []
    real = cohomology._refuse_unknowns
    monkeypatch.setattr(cohomology, "_refuse_unknowns", lambda c: refused.append(c) or real(c))

    def no_rows(*args):
        raise AssertionError("rows assembled")

    monkeypatch.setattr(cohomology, "_pair_iter", no_rows)
    configs = itertools.product([4, 5], ["super", "plain"], ["strict", "extended"])
    instances = [esvla.build_esvla(esvla.EsvlaConfig(*cfg)) for cfg in configs]
    instances += [witt_window(6), super_heisenberg(), abelian(5)]
    instances += [random_super_table(random.Random(seed), 3, 4) for seed in range(3)]
    for A in instances:
        n, odd, sup = A.dim, A.view.odd, A.convention == "super"
        index = [g.doubled_index for g in A.generators]
        for grade_zero in (False, True):
            refused.clear()
            slots = cohomology._cochain_unknowns(A, grade_zero)
            want = sum(
                1
                for i in range(n)
                for j in range(i, n)
                if (i != j or swap_sign(A.convention, odd[i], odd[i]) == 1)
                and (not grade_zero or index[i] + index[j] == 0)
            )
            assert refused == [len(slots)] == [want]
        for r in (None, 0, 1, -2, Fraction(1, 2), Fraction(-3, 2)):
            refused.clear()
            shift = None if r is None else int(2 * r)
            want = sum(
                1
                for i in range(n)
                for j in range(n)
                if (shift is None or index[i] - index[j] == shift)
                and (not sup or odd[i] == odd[j])
            )
            try:
                derivation_space(A, r)
            except AssertionError:  # the unknowns were numbered
                assert want
            assert refused == [want]


def test_derivation_space_empty_restriction():
    A = heisenberg3()
    assert derivation_space(A, grade_restriction=Fraction(7, 2)) == []
    assert inner_split(A, []) == (0, 0)


def _read(path: str) -> str:
    return (Path(__file__).parent.parent / path).read_text()


ALL_EVEN = {
    "witt-6": (_read("samples/witt.lie"), 6),
    "witt-9": (_read("samples/witt.lie"), 9),
    "sl2": (_read("tests/data/sl2.lie"), None),
    "heisenberg": (_read("tests/data/heisenberg.lie"), None),
    "abelian4": (_read("tests/data/abelian4.lie"), None),
    "h3_extension": (_read("samples/h3_extension.lie"), None),
    # J(e1, e2, e3) = -e2: the relation covers findings, not only passes
    "not-lie": (
        "algebra nl convention plain\nfamily e integer even\n"
        "generator e[1]\ngenerator e[2]\ngenerator e[3]\n"
        "entry e[1] e[2] => 1 e[1]\nentry e[1] e[3] => 1 e[2]\n",
        None,
    ),
}


def _parity_facts(doc, window):
    """What the two conventions must agree on for an all-even algebra, and
    the Jacobi scan's size with the interior scope's size."""
    A = specfile.instantiate(doc, window=window)
    jac = jacobi_audit(A, "interior")
    facts = {
        "alternating": {(v.at, v.residual) for v in check_alternating(A).violations},
        "jacobi": {(v.at, v.residual) for v in jac.violations},
        "center": len(center(A)),
        "z2": len(cocycle2_space(A)),
        "b2": len(coboundary2_space(A)),
        "derivations": len(derivation_space(A)),
    }
    return facts, jac.examined + jac.skipped_boundary, len(A.view.interior)


@pytest.mark.parametrize("text, window", ALL_EVEN.values(), ids=ALL_EVEN)
def test_parity_is_invisible_on_all_even_algebras(text, window):
    # super reads an even pair exactly as plain does; its Jacobi scan also
    # covers triples with a repeat, which an alternating bracket passes
    doc = specfile.parse(text)
    assert doc.convention == "plain" and {f.parity for f in doc.families} == {"even"}
    plain, plain_scanned, s = _parity_facts(doc, window)
    graded, graded_scanned, _ = _parity_facts(
        doc._replace(convention="super"), window
    )
    assert plain == graded
    assert plain["alternating"] == set()
    assert (plain_scanned, graded_scanned) == (comb(s, 3), comb(s + 2, 3))


def _rescaled(A: AlgebraInstance, rng: random.Random) -> AlgebraInstance:
    """A with each generator g replaced by c_g g for a seeded nonzero
    rational c_g: [g,h]' = sum over t of c_g c_h / c_t * coeff * t.  The map
    is an isomorphism that keeps the grading, the parities and the boundary
    pairs."""
    # a prime over 1, 11 or 13: no c_g c_h / c_t is 1, so every constant moves
    c = {
        g: Fraction(rng.choice([-7, -5, -3, -2, 2, 3, 5, 7]), rng.choice([1, 11, 13]))
        for g in A.generators
    }
    entries = {
        (g, h): {t: c[g] * c[h] / c[t] * v for t, v in value.items()}
        for (g, h), value in written_entries(A).items()
    }
    return AlgebraInstance(
        A.name,
        A.generators,
        entries,
        parity=A.parity,
        convention=A.convention,
        window=A.window,
        interior_margin=A.interior_margin,
        boundary_pairs=A.boundary_pairs,
        dropped_terms=A.dropped_terms,
    )


def _basis_free_counts(A: AlgebraInstance) -> dict:
    """The counts no change of basis by rescaling can move."""
    ders = derivation_space(A)
    jac = jacobi_audit(A, "interior")
    out = {
        "center": len(center(A)),
        "derivations": (len(ders), *inner_split(A, ders)),
        "jacobi": (jac.examined, jac.skipped_boundary, {v.at for v in jac.violations}),
        "alternating": len(check_alternating(A).found),
    }
    for grade_zero in (False, True):
        z2 = len(cocycle2_space(A, grade_zero))
        b2 = len(coboundary2_space(A, grade_zero))
        out["cohomology", grade_zero] = (z2, b2, z2 - b2)
    return out


def _rescaling_cases():
    explicit = sorted(
        p
        for folder in ("samples", "tests/data")
        for p in (Path(__file__).parent.parent / folder).glob("*.lie")
        if not specfile.parse(p.read_text()).rules
    )
    for p in explicit:
        yield f"{p.parent.name}/{p.stem}", lambda p=p: specfile.instantiate(
            specfile.parse(p.read_text())
        )
    witt = specfile.parse(_read("tests/data/witt.lie"))
    for w in range(6, 11):
        yield f"witt-{w}", lambda w=w: specfile.instantiate(witt, window=w)
    for convention in ("super", "plain"):
        for w in range(4, 7):
            cfg = esvla.EsvlaConfig(w, convention=convention)
            yield f"esvla-{w}-{convention}", lambda cfg=cfg: esvla.build_esvla(cfg)


RESCALING = dict(_rescaling_cases())


@pytest.mark.parametrize("name", RESCALING)
def test_rescaling_the_basis_changes_no_count(name):
    A = RESCALING[name]()
    B = _rescaled(A, random.Random(name))
    before, after = written_entries(A), written_entries(B)
    assert all(after[p] != before[p] for p in before)
    assert _basis_free_counts(B) == _basis_free_counts(A)


class Closed(NamedTuple):
    """A plain Lie algebra on e[1]..e[dim], its brackets ``{(i, j): {k: c}}``
    (1-based, i < j), and the invariants the theorems give it: dim H1 (the
    abelianisation), the center's dimension, dim H2, dim Der and the inner
    derivations' dimension."""

    dim: int
    brackets: dict
    h1: int
    center: int
    h2: int
    der: int
    inner: int


def heisenberg(k: int) -> Closed:
    # [x_i, y_i] = z on x_1..x_k, y_1..y_k, z.  H2 is C(2k, 2) - 1 for k >= 2
    # (Santharoubane) and 2 for h3; Der has dimension (2k+1)(k+1)
    n = 2 * k + 1
    brackets = {(i, k + i): {n: 1} for i in range(1, k + 1)}
    h2 = 2 if k == 1 else comb(2 * k, 2) - 1
    return Closed(n, brackets, 2 * k, 1, h2, n * (k + 1), 2 * k)


def sl2() -> Closed:
    # semisimple: H1 = H2 = 0 and every derivation inner (Whitehead)
    return Closed(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}, 0, 0, 0, 3, 3)


def borel() -> Closed:
    # [x, y] = y: H2 = Z2 / B2 = 1 / 1, and Der = ad, of dimension 2
    return Closed(2, {(1, 2): {2: 1}}, 1, 0, 0, 2, 2)


def abelian_closed(n: int) -> Closed:
    return Closed(n, {}, n, n, comb(n, 2), n * n, 0)


def direct_sum(a: Closed, b: Closed) -> Closed:
    """a + b with b's generators after a's.  Kunneth: H2 = H2(a) + H2(b) +
    H1(a) H1(b); Der = Der(a) + Der(b) + Hom(a/[a,a], Z(b)) + Hom(b/[b,b], Z(a))."""
    shifted = {
        (i + a.dim, j + a.dim): {k + a.dim: c for k, c in v.items()}
        for (i, j), v in b.brackets.items()
    }
    return Closed(
        a.dim + b.dim,
        {**a.brackets, **shifted},
        a.h1 + b.h1,
        a.center + b.center,
        a.h2 + b.h2 + a.h1 * b.h1,
        a.der + b.der + a.h1 * b.center + b.h1 * a.center,
        a.inner + b.inner,
    )


def assert_closed_form(c: Closed) -> None:
    gens = [gid("e", i) for i in range(1, c.dim + 1)]
    entries = {
        (gens[i - 1], gens[j - 1]): {gens[k - 1]: Fraction(v) for k, v in value.items()}
        for (i, j), value in c.brackets.items()
    }
    A = AlgebraInstance("closed", gens, entries)
    assert h2_dimension(A) == c.h2
    assert len(cocycle2_space(A)) - len(coboundary2_space(A)) == c.h2
    ders = derivation_space(A)
    assert (len(ders), inner_split(A, ders)) == (c.der, (c.inner, c.der - c.inner))


@pytest.mark.parametrize("k", range(1, 9))
def test_heisenberg_family_meets_the_closed_forms(k):
    assert_closed_form(heisenberg(k))


def test_sl2_meets_whitehead():
    assert_closed_form(sl2())


PARTS = {
    "h3": heisenberg(1),
    "h5": heisenberg(2),
    "h9": heisenberg(4),
    "h15": heisenberg(7),
    "sl2": sl2(),
    "borel2": borel(),
    "abelian1": abelian_closed(1),
    "abelian4": abelian_closed(4),
}


@pytest.mark.parametrize(
    "left, right", list(itertools.combinations_with_replacement(PARTS, 2))
)
def test_direct_sums_meet_kunneth(left, right):
    # every value is the theorems' own, none is read from the library
    assert_closed_form(direct_sum(PARTS[left], PARTS[right]))
