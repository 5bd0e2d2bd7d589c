"""Exact linear algebra: frozen examples plus randomized invariants."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lieforge import cohomology, esvla, linalg, specfile
from lieforge.linalg import (
    MAX_DIGITS,
    Echelon,
    SparseMatrix,
    echelon,
    nullspace,
    rank,
    rat,
    rref,
)
from oracles import list_scan_forward, matvec, rational_rref, solve, transpose


def dense(rows):
    entries = {(r, c): rat(v) for r, row in enumerate(rows) for c, v in enumerate(row)}
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0, entries)


def invert_dense(mat):
    """Exact inverse of a square matrix read off rref([mat | I]), or None
    when it is singular."""
    n = len(mat)
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mat)]
    ech = rref(dense(aug))
    if len(ech.pivots) < n or any(p >= n for p in ech.pivots):
        return None
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for row in ech.rows[:n]]


def test_rat_parsing():
    assert rat("-3/2") == Fraction(-3, 2)
    assert rat(5) == Fraction(5)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)
    # at most MAX_DIGITS digits, an exponent e counting as |e| of them
    assert rat("1.5e3") == 1500
    assert rat("1e999") == 10**999
    assert rat("-1e-999") == Fraction(-1, 10**999)
    assert rat("9" * MAX_DIGITS) == 10**MAX_DIGITS - 1
    too_many = "9" * (MAX_DIGITS + 1)
    for text in ("1e1000", "1.5e999", "1e99999", too_many, "1/" + too_many):
        with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
            rat(text)


def test_sparse_matrix_drops_zero_entries():
    m = SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 0})
    assert m.nnz() == 1


def test_int_entries_are_stored_as_ints():
    built = [
        SparseMatrix(2, 3, {(0, 0): 3, (1, 2): -1, (1, 1): 0}),
        SparseMatrix(2, 3, [((0, 0), 1), ((0, 1), 0), ((0, 2), 2), ((1, 1), -3)]),
        SparseMatrix.from_rows(3, [{0: 1}, {}, {2: -4, 1: 10**40}]),
    ]
    for m in built + [transpose(m) for m in built]:
        assert m.nnz() and all(type(v) is int for v in m.entries.values())
    mixed = SparseMatrix(1, 2, {(0, 0): 2, (0, 1): "1/2"})
    assert mixed.entries == {(0, 0): 2, (0, 1): Fraction(1, 2)}
    assert [type(v) for v in mixed.entries.values()] == [int, Fraction]


REFUSED_ROWS = [{3: 1}, {-1: 1}, {0: 0}, {1: Fraction(0)}, {0: 0.5}, {0: "1"}]


@pytest.mark.parametrize("row", REFUSED_ROWS)
def test_from_rows_refuses_what_would_break_the_row_contract(row):
    # from_rows only holds the rows: the refusal comes when rref eliminates
    m = SparseMatrix.from_rows(3, [{0: 1}, row])
    with pytest.raises(ValueError):
        rref(m)


@pytest.mark.parametrize("row", REFUSED_ROWS)
def test_echelon_refuses_a_row_as_it_arrives(row):
    # the bad row is refused before the next one is read
    def rows():
        yield {0: 1}
        yield row
        raise AssertionError("read past the refused row")

    with pytest.raises(ValueError):
        echelon(3, rows())


@pytest.mark.parametrize("row", [{1: Fraction(1, 2)}, {2: Fraction(4)}])
def test_fraction_rows_are_scaled_as_they_arrive(row):
    # streamed or held, Fraction rows give the echelon form of their scaled
    # integer rows, which is the one Gauss-Jordan on Fractions gives
    F = Fraction
    rows = [{0: 1}, row, {0: F(2, 3), 1: 5, 2: F(-1, 6)}, {1: F(3, 4), 2: 1}]
    held = SparseMatrix.from_rows(3, rows)
    expected = rational_rref(held)
    assert echelon(3, iter(rows)) == expected
    assert rref(held) == expected
    assert rref(SparseMatrix.from_rows(3, scaled_rows(held))) == expected


def test_each_row_is_checked_once(monkeypatch):
    checked = []
    real = linalg._integer_row

    def counting(cols, row):
        checked.append(row)
        return real(cols, row)

    monkeypatch.setattr(linalg, "_integer_row", counting)
    rows = [{0: 1, 2: 2}, {1: Fraction(1, 3)}, {0: 2, 2: 4}, {2: -1}, {}]
    rref(SparseMatrix.from_rows(3, rows))
    assert sorted(map(id, checked)) == sorted(map(id, rows))
    checked.clear()
    echelon(3, (dict(row) for row in rows))
    assert len(checked) == len(rows)


def test_sparse_matrix_bounds_checked():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(0, -1): 1})


def test_rank_identity_3():
    assert rank(dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_zero_2x2():
    assert rank(SparseMatrix(2, 2)) == 0


def test_rank_dependent_rows():
    assert rank(dense([[1, 2], [2, 4]])) == 1


def test_nullspace_identity_empty():
    assert nullspace(dense([[1, 0], [0, 1]])) == []


def test_nullspace_dependent_rows():
    basis = nullspace(dense([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    # proportional to (-2, 1)
    assert v[0] * 1 == v[1] * -2
    assert v != [0, 0]


def test_nullspace_zero_row_has_full_nullity():
    # a single zero constraint on 3 unknowns removes nothing: rank 0,
    # so rank + nullity = cols forces a 3-vector basis
    basis = nullspace(SparseMatrix(1, 3))
    assert len(basis) == 3


def test_solve_identity():
    x = solve(dense([[1, 0], [0, 1]]), [rat("3/2"), rat(-1)])
    assert x == [Fraction(3, 2), Fraction(-1)]


def test_solve_inconsistent_absent():
    assert solve(dense([[1, 2], [2, 4]]), [1, 3]) is None


def test_solve_zero_matrix_zero_rhs():
    m = SparseMatrix(2, 2)
    x = solve(m, [0, 0])
    assert x is not None
    assert matvec(m, x) == [Fraction(0), Fraction(0)]


@pytest.mark.parametrize(
    "rows, b",
    [
        # a zero row with a nonzero right-hand side
        ([[1, 2], [0, 0]], [1, 5]),
        # forcing x1 = 0 leaves the second equation as 0 = 3
        ([[0, 1], [0, 1]], [0, 3]),
    ],
)
def test_solve_inconsistent_by_singleton_in_rhs_column(rows, b):
    assert solve(dense(rows), b) is None


def test_solve_rhs_length_checked():
    with pytest.raises(ValueError):
        solve(SparseMatrix(2, 2), [0, 0, 0])


def _random_matrix(rng: random.Random, max_dim: int = 6) -> SparseMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.6:
                num = rng.randint(-4, 4)
                den = rng.choice([1, 1, 2, 3])
                entries[(r, c)] = Fraction(num, den)
    return SparseMatrix(rows, cols, entries)


def test_random_rank_transpose_and_nullity():
    rng = random.Random(20260819)
    for _ in range(200):
        m = _random_matrix(rng)
        r = rank(m)
        assert r == rank(transpose(m))
        basis = nullspace(m)
        assert r + len(basis) == m.cols
        for v in basis:
            assert all(x == 0 for x in matvec(m, v))


def test_random_methods_agree():
    # small matrices too: list-scan pivots, and the rref of Gauss-Jordan on
    # Fractions (the form is unique over the rationals)
    rng = random.Random(7)
    for _ in range(200):
        assert_sparse_kernel_matches_oracles(_random_matrix(rng))


def test_random_solve_consistent_systems():
    rng = random.Random(99)
    for _ in range(100):
        m = _random_matrix(rng)
        x0 = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(m.cols)]
        b = matvec(m, x0)
        x = solve(m, b)
        assert x is not None
        assert matvec(m, x) == b


def test_sparse_path_agrees_with_rational():
    # 40 sparse rational rows over 70 cols
    rng = random.Random(3)
    entries = {}
    for r in range(40):
        for _ in range(5):
            entries[(r, rng.randrange(70))] = Fraction(
                rng.randint(-5, 5), rng.choice([1, 2, 3])
            )
    random_rows = SparseMatrix(40, 70, entries)
    # entries far beyond machine words
    bigint_rows = SparseMatrix(
        3, 70, {(0, 0): 10**40, (0, 5): -3, (1, 0): 7, (1, 5): 10**40, (2, 5): 1}
    )
    for m in (random_rows, bigint_rows, *row_copies(random_rows)):
        assert rref(m) == rational_rref(m)
        r = rank(m)
        basis = nullspace(m)
        assert r + len(basis) == 70
        for v in basis[:10]:
            assert all(x == 0 for x in matvec(m, v))


def scaled_rows(m):
    """The rows of ``m``, each scaled to ints by the lcm of its denominators."""
    out = []
    for row in m.row_dicts():
        scale = lcm(1, *(Fraction(v).denominator for v in row.values()))
        out.append({c: int(v * scale) for c, v in row.items()})
    return out


def row_copies(m):
    """``m`` rebuilt by ``from_rows`` twice: with every value a Fraction, and
    with each row scaled to ints by the lcm of its denominators (same rref)."""
    fractions = [{c: Fraction(v) for c, v in row.items()} for row in m.row_dicts()]
    return [SparseMatrix.from_rows(m.cols, rows) for rows in (fractions, scaled_rows(m))]


def assert_sparse_kernel_matches_oracles(m):
    """rref matches Gauss-Jordan on Fractions for the rows as given,
    reversed and shuffled, and on the ``from_rows`` copies, whose rows it
    leaves as they were; its pivot columns are those a list-scan forward
    elimination finds."""
    expected = rational_rref(m)
    rows = m.row_dicts()
    shuffled = random.Random(0).sample(rows, len(rows))
    ech = rref(m)
    assert ech == expected
    for order in (rows[::-1], shuffled):
        assert rref(SparseMatrix.from_rows(m.cols, order)) == expected
    pivots, _ = list_scan_forward(scaled_rows(m), m.cols)
    assert list(ech.pivots) == pivots
    for copy in row_copies(m):
        before = copy.row_dicts()
        assert rref(copy) == expected
        assert copy.row_dicts() == before


def test_reduce_clears_new_pivots_from_the_basis():
    # Shortest first: {5: 3} becomes the pivot row {5: 1}, and its duplicate
    # reduces to empty.  Row 4 pivots at 2, which rows 2 and 3 hold: clearing
    # it fills in column 3 of row 2 and column 4 of row 3, cancels column 4
    # of row 2 and leaves row 3 with content 2.  Row 5 pivots at 3, now
    # held by three basis rows: it fills column 4 of row 2 back in and
    # cancels it in row 3, so row 7, which pivots at 4, is cleared from
    # rows 2, 4 and 5 only.  Row 0 is row 2 + row 4 + 2 * row 1 and reduces
    # to empty.
    rows = [
        {0: 2, 2: 2, 3: 1, 4: 4, 5: 6},
        {5: 3},
        {0: 2, 2: 1, 4: 2},
        {1: 2, 2: 3, 3: 1},
        {2: 1, 3: 1, 4: 2},
        {3: 1, 4: 3, 5: 1},
        {5: 3},
        {4: 1, 5: 1, 6: 1},
    ]
    before = [dict(row) for row in rows]
    m = SparseMatrix.from_rows(7, rows)
    F = Fraction
    expected = Echelon(
        (0, 1, 2, 3, 4, 5),
        (
            {0: F(1), 6: F(-3, 2)},
            {1: F(1)},
            {2: F(1), 6: F(1)},
            {3: F(1), 6: F(-3)},
            {4: F(1), 6: F(1)},
            {5: F(1)},
        ),
    )
    assert rref(m) == expected
    assert rows == before
    assert_sparse_kernel_matches_oracles(m)


@st.composite
def permuted_block_systems(draw):
    """Block-diagonal rational matrix with at least 64 columns, rows and
    columns permuted at random.

    Each block with three or more columns gets two extra rows that share
    only one column: eliminating it with either fills in a column the other
    did not hold.  Some blocks get a chain of short rows: the first has one
    entry and each next one shares a column with the one before, so the
    shorter rows pivot first and later pivots are cleared back out of
    them.  Rational combinations of rows of one block are appended, so rows
    cancel to empty, then duplicates and copies rescaled by negative and
    fractional factors."""
    rng = draw(st.randoms(use_true_random=False))
    target = 64 + draw(st.integers(0, 16))
    blocks = []
    ncols = 0
    while ncols < target:
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 8)))
        blocks.append((ncols, shape))
        ncols += shape[1]
    rows: list[dict[int, Fraction]] = []
    block_rows: list[list[int]] = []
    for c0, (nr, nc) in blocks:
        mine = []
        for _ in range(nr):
            row = {
                c0 + c: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for c in range(nc)
                if rng.random() < 0.5
            }
            mine.append(len(rows))
            rows.append(row)
        if nc >= 3:
            for other in (1, 2):
                mine.append(len(rows))
                rows.append(
                    {c0: Fraction(rng.randint(1, 3)), c0 + other: Fraction(-1, other)}
                )
        if rng.random() < 0.4:
            cs = rng.sample(range(c0, c0 + nc), rng.randint(1, min(nc, 4)))
            chain = [{cs[0]: Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3))}]
            chain += [
                {a: Fraction(rng.randint(1, 3)), b: Fraction(-1, rng.randint(1, 2))}
                for a, b in zip(cs, cs[1:])
            ]
            for row in chain:
                mine.append(len(rows))
                rows.append(row)
        block_rows.append(mine)
    for _ in range(draw(st.integers(1, 12))):
        mine = rng.choice(block_rows)
        combo: dict[int, Fraction] = {}
        for r in rng.sample(mine, min(len(mine), rng.randint(1, 3))):
            f = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
            for c, v in rows[r].items():
                combo[c] = combo.get(c, Fraction(0)) + f * v
        rows.append(combo)
    for _ in range(draw(st.integers(1, 8))):
        f = Fraction(rng.choice([1, 1, -1, -2, 3]), rng.choice([1, 2, 5]))
        rows.append({c: f * v for c, v in rng.choice(rows).items()})
    row_perm = list(range(len(rows)))
    col_perm = list(range(ncols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    entries = {
        (row_perm[r], col_perm[c]): v
        for r, row in enumerate(rows)
        for c, v in row.items()
    }
    return SparseMatrix(len(rows), ncols, entries), rng


@settings(derandomize=True, deadline=None, max_examples=30)
@given(permuted_block_systems())
def test_sparse_kernel_on_permuted_block_systems(system):
    m, rng = system
    assert_sparse_kernel_matches_oracles(m)
    shuffled = SparseMatrix.from_rows(m.cols, rng.sample(m.row_dicts(), m.rows))
    assert rref(shuffled) == rref(m)
    assert rank(m) + len(nullspace(m)) == m.cols
    x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m.cols)]
    b = matvec(m, x0)
    x = solve(m, b)
    assert x is not None
    assert matvec(m, x) == b


WITT = Path(__file__).resolve().parent / "data" / "witt.lie"


def test_sparse_kernel_on_witt_cocycle_system():
    # the system cocycle2_space eliminates
    A = specfile.instantiate(specfile.parse(WITT.read_text()), window=8)
    unknowns = cohomology._cochain_unknowns(A, False)
    rows = list(cohomology._cocycle_rows(A, unknowns))
    m = SparseMatrix(
        len(rows),
        len(unknowns),
        {(r, u): v for r, row in enumerate(rows) for u, v in row.items()},
    )
    assert_sparse_kernel_matches_oracles(m)


def test_sparse_kernel_on_esvla_derivation_system(monkeypatch):
    # the grade-0 derivation system of the bundled ESVLA at window 4
    systems = []
    real_rref = cohomology.rref

    def recording_rref(m):
        systems.append(m)
        return real_rref(m)

    monkeypatch.setattr(cohomology, "rref", recording_rref)
    A = esvla.build_esvla(esvla.EsvlaConfig(window=4))
    cohomology.derivation_space(A, grade_restriction=0)
    [m] = systems
    assert_sparse_kernel_matches_oracles(m)


def test_invert_dense_roundtrip():
    a = [[rat(2), rat(1)], [rat(1), rat(1)]]
    inv = invert_dense(a)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_invert_dense_singular_none():
    assert invert_dense([[1, 2], [2, 4]]) is None


def test_invert_dense_random():
    rng = random.Random(41)
    found = 0
    while found < 20:
        n = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        inv = invert_dense(a)
        if inv is None:
            continue
        found += 1
        prod = [
            [sum(a[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        ident = [
            [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)
        ]
        assert prod == ident
