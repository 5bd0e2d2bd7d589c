"""Structural checks: brackets, symmetry, Jacobi, center, derived series."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lieforge import algebra, automorphisms, cli, cohomology, esvla, snla, specfile
from lieforge.algebra import (
    Element,
    GeneratorId,
    bracket,
    center,
    check_alternating,
    derived_subalgebra,
    gid,
    is_abelian,
    jacobi_audit,
)
from algebra_fixtures import (
    abelian,
    borel2,
    filiform4,
    finite_instance,
    heisenberg3,
    random_element,
    random_table,
    sl2_type,
    super_bad,
    super_heisenberg,
    super_pair,
    witt_window,
)
from oracles import naive_jacobi_failures


def test_gid_rejects_bad_index():
    with pytest.raises(ValueError):
        gid("L", Fraction(1, 3))
    assert gid("Y", Fraction(3, 2)).doubled_index == 3
    assert str(gid("Y", Fraction(-1, 2))) == "Y[-1/2]"
    assert str(gid("L", 2)) == "L[2]"


def test_generator_id_hashes_and_orders_by_its_fields():
    # set and dict layouts, and so every report under a fixed hash seed,
    # follow this hash
    gens = [GeneratorId(f, d) for f in ("Y", "L", "M") for d in (3, -2, 0, 1)]
    for g in gens:
        assert hash(g) == hash((g.family, g.doubled_index))
    assert sorted(gens) == sorted(gens, key=lambda g: (g.family, g.doubled_index))
    assert [str(g) for g in sorted(gens)[:4]] == ["L[-1]", "L[0]", "L[1/2]", "L[3/2]"]
    assert GeneratorId("L", 3) < GeneratorId("L", 4) < GeneratorId("M", -8)


RECORD_MODULES = (algebra, automorphisms, cli, cohomology, esvla, snla, specfile)


def test_immutable_records_refuse_assignment():
    records = [
        obj
        for module in RECORD_MODULES
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, tuple)
        and obj.__module__ == module.__name__
    ]
    assert {"GeneratorId", "Report", "AlgebraSpecDoc", "SearchResult"} <= {
        r.__name__ for r in records
    }
    for record in records:
        value = record._make([0] * len(record._fields))
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)


def test_element_arithmetic_drops_zeros():
    a, b = gid("e", 1), gid("e", 2)
    x = Element({a: 1, b: 2})
    y = Element({a: -1, b: Fraction(1, 2)})
    assert (x + y).terms == {b: Fraction(5, 2)}
    assert x.scale(0) == Element.zero()
    assert not Element({a: 0})


def test_bracket_witt_values():
    A = witt_window(4)
    L = lambda m: Element.of(gid("L", m))
    v, flagged = bracket(A, L(1), L(2))
    assert not flagged
    assert v == Element.of(gid("L", 3))  # coefficient n-m = 1
    v, flagged = bracket(A, L(-1), L(1))
    assert v == Element.of(gid("L", 0), 2)
    v, flagged = bracket(A, L(3), L(4))
    assert flagged and not v  # result index 7 dropped at the window


def test_bracket_unknown_generator_rejected():
    A = heisenberg3()
    with pytest.raises(ValueError):
        bracket(A, Element.of(gid("x", 9)), Element.of(gid("e", 1)))


def test_bracket_bilinear_random():
    rng = random.Random(11)
    for A in (heisenberg3(), sl2_type(), filiform4()):
        for _ in range(25):
            x = random_element(rng, A)
            y = random_element(rng, A)
            z = random_element(rng, A)
            a = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            b = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            lhs, _ = bracket(A, x.scale(a) + y.scale(b), z)
            r1, _ = bracket(A, x, z)
            r2, _ = bracket(A, y, z)
            assert lhs == r1.scale(a) + r2.scale(b)
            lhs, _ = bracket(A, z, x.scale(a) + y.scale(b))
            r1, _ = bracket(A, z, x)
            r2, _ = bracket(A, z, y)
            assert lhs == r1.scale(a) + r2.scale(b)


def test_alternating_abelian_empty():
    assert check_alternating(abelian(4)).violations == []


def test_alternating_witt_consistent_both_directions():
    assert check_alternating(witt_window(3)).violations == []


def test_alternating_symmetric_diagonal_flagged_plain():
    A = super_pair(same_sign=False)
    viols = check_alternating(A).violations
    assert len(viols) == 1
    y = gid("Y", Fraction(1, 2))
    assert viols[0].at == (y, y)
    assert viols[0].residual == Element.of(gid("L", 1), 4)


def test_alternating_symmetric_diagonal_ok_super():
    assert check_alternating(super_pair(same_sign=True)).violations == []


def test_jacobi_heisenberg_holds():
    assert jacobi_audit(heisenberg3()).violations == []
    assert jacobi_audit(filiform4()).violations == []
    assert jacobi_audit(abelian(5)).violations == []
    assert jacobi_audit(sl2_type()).violations == []
    assert jacobi_audit(borel2()).violations == []


def test_jacobi_witt_interior_holds():
    audit = jacobi_audit(witt_window(4), scope="interior")
    assert audit.violations == []
    assert audit.examined > 0


def test_jacobi_boundary_triples_skipped_not_scored():
    audit = jacobi_audit(witt_window(4), scope="all")
    assert audit.violations == []
    assert audit.skipped_boundary > 0


def test_jacobi_super_diagonal_triples():
    assert jacobi_audit(super_heisenberg()).violations == []
    viols = jacobi_audit(super_bad()).violations
    assert len(viols) == 1
    y = gid("Y", Fraction(1, 2))
    assert viols[0].at == (y, y, y)
    # graded sum is 3 * (-1) * [Y,[Y,Y]] = -3Y
    assert viols[0].residual == Element.of(y, -3)


def test_jacobi_matches_naive_oracle():
    rng = random.Random(2024)
    for dim in (3, 4, 5, 6):
        for _ in range(5):
            A = random_table(rng, dim)
            lib = {v.at for v in jacobi_audit(A, scope="all").violations}
            assert lib == set(naive_jacobi_failures(A))


def test_jacobi_rejects_unknown_scope():
    with pytest.raises(ValueError):
        jacobi_audit(heisenberg3(), scope="everything")


def test_center_heisenberg():
    basis = center(heisenberg3())
    assert len(basis) == 1
    assert basis[0].terms == {gid("e", 3): Fraction(1)}


def test_center_abelian_full():
    assert len(center(abelian(4))) == 4


def test_center_sl2_trivial():
    assert center(sl2_type()) == []


def test_center_finds_combinations():
    # [e1,e3] = [e2,e3] = e4: e1 - e2 is central, neither e1 nor e2 is
    e1, e2, e3, e4 = (gid("e", i) for i in range(1, 5))
    A = finite_instance("twin", [e1, e2, e3, e4], {(e1, e3): {e4: 1}, (e2, e3): {e4: 1}})
    assert [z.terms for z in center(A)] == [{e1: -1, e2: 1}, {e4: 1}]


def test_center_vectors_commute():
    for A in (heisenberg3(), filiform4(), witt_window(4)):
        for z in center(A):
            for g in filter(A.is_interior, A.generators):
                v, _ = bracket(A, z, Element.of(g))
                assert not v


def test_derived_heisenberg():
    A = heisenberg3()
    der = derived_subalgebra(A)
    assert len(der) == 1
    assert der[0].terms == {gid("e", 3): Fraction(1)}
    assert is_abelian(A, der)


def test_derived_abelian_empty():
    assert derived_subalgebra(abelian(3)) == []
    assert is_abelian(abelian(3), [])


def test_derived_sl2_full_not_solvable():
    A = sl2_type()
    der = derived_subalgebra(A)
    assert len(der) == 3
    assert not is_abelian(A, der)


def test_derived_borel2():
    A = borel2()
    der = derived_subalgebra(A)
    assert len(der) == 1
    assert is_abelian(A, der)


def test_instance_validates_table_generators():
    from lieforge.algebra import AlgebraInstance

    a, b = gid("e", 1), gid("e", 2)
    with pytest.raises(ValueError, match=r"unknown generator e\[2\]"):
        AlgebraInstance("bad", [a], {(a, a): {b: 1}})
    with pytest.raises(ValueError, match=r"unknown generator e\[2\]"):
        AlgebraInstance("bad", [a], {(a, b): {}})
