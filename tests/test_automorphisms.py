"""Map verification and the scalar coefficient recurrences."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from lieforge.algebra import Element, gid
from lieforge.automorphisms import (
    CoefficientFamily,
    SingularMapError,
    automorphism_audit,
    check_symplectomorphism,
    parse_coeff_file,
    parse_map_file,
    product_map_audit,
    recurrence_audit,
)
from lieforge.cohomology import LinearEndo
from lieforge.snla import ProductTable, standard_form
import oracles
from algebra_fixtures import (
    abelian,
    borel2,
    filiform4,
    heisenberg3,
    mixed_entries,
    random_super_table,
    sl2_type,
    super_heisenberg,
    super_pair,
    witt_window,
)
from test_linalg import invert_dense

F = Fraction


def endo(A, images):
    """The map sending each listed generator to its image, the others to 0."""
    rows = [[F(0)] * A.dim for _ in range(A.dim)]
    for g, img in images.items():
        for t, c in img.terms.items():
            rows[A.position(t)][A.position(g)] = c
    return LinearEndo(rows)


def matrix(phi):
    rows = [[F(0)] * phi.dim for _ in range(phi.dim)]
    for j in range(phi.dim):
        for i, v in phi.column(j).items():
            rows[i][j] = v
    return rows


def compose(phi, psi):
    a, b, n = matrix(phi), matrix(psi), phi.dim
    return LinearEndo(
        [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    )


def scaling_family(alpha, window):
    """The solution family a_n = alpha^n with b = c = d = 0."""
    grid = range(-window, window + 1)
    return CoefficientFamily(
        a={n: F(alpha) ** n for n in grid},
        b={n: F(0) for n in grid},
        c={n: F(0) for n in grid},
        d={k: F(0) for k in range(-2 * window, 2 * window + 1)},
        window=window,
    )


def test_automorphism_identity_and_rotation():
    A = heisenberg3()
    e1, e2, e3 = A.generators
    assert automorphism_audit(A, LinearEndo.identity(3)).violations == []
    # e1 -> e2, e2 -> -e1 fixes e3 = [e1,e2]
    rot = endo(A, {e1: Element.of(e2), e2: Element.of(e1, -1), e3: Element.of(e3)})
    assert automorphism_audit(A, rot).violations == []


def test_automorphism_center_scaling_fails():
    A = heisenberg3()
    e1, e2, e3 = A.generators
    phi = endo(A, {e1: Element.of(e1), e2: Element.of(e2), e3: Element.of(e3, 2)})
    viols = automorphism_audit(A, phi).violations
    assert len(viols) == 1
    v = viols[0]
    assert v.at == (e1, e2)
    # phi[x,y], then [phi x, phi y]
    assert v.residual == (Element.of(e3, 2), Element.of(e3))


def test_automorphism_rejects_bad_maps():
    # the CLI reports E_SINGULAR by the error's type, never by its text
    A = heisenberg3()
    with pytest.raises(SingularMapError, match="rank 2 < 3"):
        automorphism_audit(
            A, LinearEndo([[1, 0, 0], [0, 1, 0], [0, 1, 0]])
        )
    with pytest.raises(ValueError, match="dimension") as exc:
        automorphism_audit(A, LinearEndo.identity(4))
    assert not isinstance(exc.value, SingularMapError)


def test_automorphism_windowed_scaling():
    # phi(L_m) = alpha^m L_m intertwines (n-m)L_{m+n}; clipped pairs are
    # skipped so the truncation verdict is clean
    A = witt_window(4)
    audit = automorphism_audit(A, witt_scaling(A, F(3)))
    assert audit.violations == [] and audit.skipped_boundary > 0
    assert audit.examined + audit.skipped_boundary == A.dim * (A.dim + 1) // 2
    assert automorphism_audit(A, witt_scaling(A, F(3), at_zero=2)).violations != []


def random_map(rng, n, density):
    """Nonzero diagonal plus off-diagonal entries drawn with ``density``;
    usually invertible, occasionally singular."""
    return LinearEndo(
        [
            [
                F(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
                if i == j
                else F(rng.randint(-2, 2)) * (rng.random() < density)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def witt_scaling(A, alpha, at_zero=1):
    """phi(L_m) = alpha^m L_m for m != 0 and phi(L_0) = at_zero * L_0."""
    return endo(
        A,
        {
            g: Element.of(g, at_zero if g.index == 0 else alpha ** int(g.index))
            for g in A.generators
        },
    )


PARITY_ALGEBRAS = {
    "heisenberg3": heisenberg3,
    "sl2_type": sl2_type,
    "filiform4": filiform4,
    "borel2": borel2,
    "abelian3": lambda: abelian(3),
    "witt4": lambda: witt_window(4),
    "witt5_margin1": lambda: witt_window(5, margin=1),
    "super_heisenberg": super_heisenberg,
    "super_pair": lambda: super_pair(True),
    "mixed_plain": lambda: mixed_entries("plain"),
    "mixed_super": lambda: mixed_entries("super"),
    "random_super": lambda: random_super_table(random.Random(3), 3, 2),
}


@pytest.mark.parametrize("name", sorted(PARITY_ALGEBRAS))
def test_check_automorphism_matches_generator_keyed_reference(name):
    # the position-indexed check returns exactly the reference's violations,
    # in the same order, and raises the same error on singular maps
    A = PARITY_ALGEBRAS[name]()
    rng = random.Random(f"aut-{name}")
    density = 0.1 if A.boundary_pairs else 0.4
    maps = [LinearEndo.identity(A.dim)]
    maps += [random_map(rng, A.dim, density) for _ in range(12)]
    if name.startswith("witt"):
        maps += [witt_scaling(A, F(3)), witt_scaling(A, F(3), at_zero=2)]
    compared = 0
    for phi in maps:
        try:
            expected = oracles.check_automorphism(A, phi)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                automorphism_audit(A, phi)
            assert str(got.value) == str(e)
            continue
        assert automorphism_audit(A, phi).violations == expected
        compared += 1
    assert compared > 1
    if name.startswith("witt"):
        # clipped pairs are skipped and the bad scaling still fails
        assert A.boundary_pairs and automorphism_audit(A, maps[-1]).violations


def test_symplectomorphism_examples():
    om = standard_form(1)
    ok, res = check_symplectomorphism(om, LinearEndo.identity(2))
    assert ok and res is None
    ok, res = check_symplectomorphism(om, LinearEndo([[2, 0], [0, F(1, 2)]]))
    assert ok and res is None
    ok, res = check_symplectomorphism(om, LinearEndo([[2, 0], [0, 2]]))
    assert not ok
    assert res == [[F(0), F(3)], [F(-3), F(0)]]  # 3 * Omega
    with pytest.raises(ValueError, match="dimension"):
        check_symplectomorphism(om, LinearEndo.identity(4))


def test_sp2_is_sl2():
    om = standard_form(1)
    rng = random.Random(7)
    hits = 0
    for _ in range(120):
        mat = [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
            for _ in range(2)
        ]
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        ok, _ = check_symplectomorphism(om, LinearEndo(mat))
        assert ok == (det == 1)
        hits += ok
    assert hits > 0


def test_product_preserved_examples():
    zero = ProductTable.from_coeffs(2, {})
    any_phi = LinearEndo([[1, 2], [3, 4]])
    assert product_map_audit(zero, any_phi).violations == []

    p = ProductTable.from_coeffs(2, {(1, 1, 2): 1})  # e1.e1 = e2
    assert product_map_audit(p, LinearEndo.identity(2)).violations == []
    assert product_map_audit(p, LinearEndo([[2, 0], [0, 4]])).violations == []
    viols = product_map_audit(p, LinearEndo([[2, 0], [0, 5]])).violations
    e1, e2 = gid("e", 1), gid("e", 2)
    assert [v.at for v in viols] == [(e1, e1)]
    # phi(x.y), then phi(x).phi(y)
    assert viols[0].residual == (Element.of(e2, 5), Element.of(e2, 4))
    with pytest.raises(ValueError, match="dimension"):
        product_map_audit(p, LinearEndo.identity(3))


def test_coefficient_family_validation():
    grid = {n: F(0) for n in range(-1, 2)}
    dgrid = {k: F(0) for k in (-1, 1)}
    CoefficientFamily(grid, grid, grid, dgrid, 1)
    with pytest.raises(ValueError, match="window"):
        CoefficientFamily(grid, grid, grid, dgrid, 0)
    with pytest.raises(ValueError, match=r"b undefined at indices \[-1\]"):
        CoefficientFamily(grid, {0: 0, 1: 0}, grid, dgrid, 1)
    with pytest.raises(ValueError, match=r"d undefined"):
        CoefficientFamily(grid, grid, grid, {1: 0}, 1)


def recurrence_violations(cf):
    """Every violation of the four relations, as (relation, (m, n), sides)."""
    return [
        (rel, v.at, v.residual)
        for rel, aud in recurrence_audit(cf).items()
        for v in aud.violations
    ]


def test_recurrences_scaling_families():
    assert recurrence_violations(scaling_family(1, 4)) == []
    assert recurrence_violations(scaling_family(2, 8)) == []
    assert recurrence_violations(scaling_family(F(5, 7), 3)) == []


def test_recurrences_b_relation():
    # a_n = 2^n with b_n = n 2^n: (m+n)2^{m+n} = 2^m n2^n + m2^m 2^n
    W = 8
    grid = range(-W, W + 1)
    cf = CoefficientFamily(
        a={n: F(2) ** n for n in grid},
        b={n: n * F(2) ** n for n in grid},
        c={n: F(0) for n in grid},
        d={k: F(0) for k in range(-2 * W, 2 * W + 1)},
        window=W,
    )
    assert recurrence_violations(cf) == []


def test_recurrences_linear_a_fails():
    W = 2
    grid = range(-W, W + 1)
    cf = CoefficientFamily(
        a={n: F(n) for n in grid},
        b={n: F(0) for n in grid},
        c={n: F(0) for n in grid},
        d={k: F(0) for k in range(-2 * W, 2 * W + 1)},
        window=W,
    )
    viols = recurrence_violations(cf)
    assert ("a", (1, 1), (F(2), F(1))) in viols
    assert all(rel == "a" for rel, _, _ in viols)


def test_d_relation_reads_integer_indices_literally():
    W = 1
    grid = range(-W, W + 1)
    half_only = CoefficientFamily(
        a={n: F(1) for n in grid},
        b={n: F(0) for n in grid},
        c={n: F(0) for n in grid},
        d={k: F(1) for k in (-1, 1)},
        window=W,
    )
    audit = recurrence_audit(half_only)["d"]
    # every pair with |m+n+1/2| <= 1 hits the missing integer-index reads,
    # and keeps only its left side
    assert audit.examined == len(audit.found) == 5
    assert all(len(v.residual) == 1 for v in audit.violations)

    full = CoefficientFamily(
        a={n: F(1) for n in grid},
        b={n: F(0) for n in grid},
        c={n: F(0) for n in grid},
        d={k: F(1) for k in range(-2 * W, 2 * W + 1)},
        window=W,
    )
    viols = recurrence_audit(full)["d"].violations
    # lhs is 1 everywhere; rhs (m/2 - n) equals 1 only at (0,-1)
    assert [v.at for v in viols] == [(-1, 0), (-1, 1), (0, 0), (1, -1)]


def test_automorphisms_compose_on_h3():
    # e1 -> a e1 + b e2, e2 -> c e1 + d e2, e3 -> (ad - bc) e3 preserves
    # [e1,e2] = e3 whenever ad - bc != 0
    A = heisenberg3()
    e1, e2, e3 = A.generators
    rng = random.Random(23)

    def sample():
        while True:
            a, b, c, d = (F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))
            if a * d - b * c:
                return endo(
                    A,
                    {
                        e1: Element({e1: a, e2: b}),
                        e2: Element({e1: c, e2: d}),
                        e3: Element.of(e3, a * d - b * c),
                    },
                )

    maps = [sample() for _ in range(6)]
    for phi in maps:
        assert automorphism_audit(A, phi).violations == []
        inv = LinearEndo(invert_dense(matrix(phi)))
        assert automorphism_audit(A, inv).violations == []
    for phi, psi in zip(maps, maps[1:]):
        assert automorphism_audit(A, compose(phi, psi)).violations == []


def sl2_sample(rng):
    # det-1 2x2 block: fix a nonzero corner, solve the last entry
    while True:
        a = F(rng.randint(-3, 3), rng.randint(1, 2))
        if a:
            break
    b = F(rng.randint(-3, 3), rng.randint(1, 2))
    c = F(rng.randint(-3, 3), rng.randint(1, 2))
    return a, b, c, (1 + b * c) / a


def test_symplectomorphisms_form_a_group_2x2():
    om = standard_form(1)
    rng = random.Random(5)
    maps = [LinearEndo([[a, b], [c, d]]) for a, b, c, d in
            (sl2_sample(rng) for _ in range(6))]
    for phi in maps:
        assert check_symplectomorphism(om, phi)[0]
        inv = invert_dense(matrix(phi))
        assert inv is not None
        assert check_symplectomorphism(om, LinearEndo(inv))[0]
    for phi, psi in zip(maps, maps[1:]):
        assert check_symplectomorphism(om, compose(phi, psi))[0]


def test_symplectomorphisms_form_a_group_4x4():
    # standard_form(2) pairs basis 1<->4 and 2<->3; an SL2 block on either
    # pair (identity elsewhere) is a symplectomorphism
    om = standard_form(2)
    rng = random.Random(11)

    def block_map(pair):
        a, b, c, d = sl2_sample(rng)
        i, j = pair
        mat = [[F(int(r == s)) for s in range(4)] for r in range(4)]
        mat[i][i], mat[i][j], mat[j][i], mat[j][j] = a, b, c, d
        return LinearEndo(mat)

    maps = [block_map((0, 3)), block_map((1, 2)), block_map((0, 3))]
    for phi in maps:
        assert check_symplectomorphism(om, phi)[0]
        inv = invert_dense(matrix(phi))
        assert inv is not None
        assert check_symplectomorphism(om, LinearEndo(inv))[0]
    for phi, psi in zip(maps, maps[1:]):
        assert check_symplectomorphism(om, compose(phi, psi))[0]


def test_parse_map_file():
    phi = parse_map_file(
        """
        # a symplectomorphism
        dim 2
        2 0
        0 1/2
        """
    )
    assert phi == LinearEndo([[2, 0], [0, F(1, 2)]])
    assert check_symplectomorphism(standard_form(1), phi)[0]
    with pytest.raises(ValueError, match="expected 'dim"):
        parse_map_file("rows 2\n1 0\n0 1")
    with pytest.raises(ValueError, match="matrix rows"):
        parse_map_file("dim 2\n1 0")
    with pytest.raises(ValueError, match="entries"):
        parse_map_file("dim 2\n1 0\n0 1 2")
    with pytest.raises(ValueError, match="bad rational"):
        parse_map_file("dim 2\n1 0\n0 x")
    with pytest.raises(ValueError, match="empty"):
        parse_map_file("# nothing\n")


@pytest.mark.parametrize("seed", range(5))
def test_parsed_map_is_the_dense_map(seed):
    # fractions, negatives and zeros, written in the forms a file may use
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    words = ["0", "-0", "0/5", "1", "-1", "3", "-7/2", "2/4", "-5/3", "+4"]
    rows = [[rng.choice(words) for _ in range(n)] for _ in range(n)]
    text = f"dim {n}\n" + "\n".join(" ".join(row) for row in rows) + "\n"
    assert parse_map_file(text) == LinearEndo([[F(w) for w in row] for row in rows])


def test_parse_map_file_holds_no_dense_matrix():
    # the identity at n = 300 held 90,000 Fractions, 5.1 MiB traced, when
    # read as dense rows first
    n = 300
    text = f"dim {n}\n" + "".join(
        " ".join("1" if i == j else "0" for j in range(n)) + "\n" for i in range(n)
    )
    tracemalloc.start()
    try:
        phi = parse_map_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi == LinearEndo.identity(n)
    assert peak < 2**20


def test_parse_coeff_file():
    cf = parse_coeff_file(
        """
        window 1
        coef a -1 1/2
        coef a 0 1
        coef a 1 2
        coef b -1 0
        coef b 0 0
        coef b 1 0
        coef c -1 0
        coef c 0 0
        coef c 1 0
        coef d -1/2 0
        coef d 1/2 0
        """
    )
    assert cf.window == 1
    assert cf.a == {-1: F(1, 2), 0: F(1), 1: F(2)}
    assert cf.d == {-1: F(0), 1: F(0)}
    viols = recurrence_violations(cf)
    # a is the geometric family 2^n restricted to the window: a/b/c clean,
    # d stored half-grid-only so every d evaluation flags the index mix
    assert all(rel == "d" and len(sides) == 1 for rel, _, sides in viols)
    assert len(viols) == 5

    with pytest.raises(ValueError, match="expected 'window"):
        parse_coeff_file("coef a 0 1")
    with pytest.raises(ValueError, match="duplicate"):
        parse_coeff_file("window 1\ncoef a 0 1\ncoef a 0 2")
    with pytest.raises(ValueError, match="index must be integer"):
        parse_coeff_file("window 1\ncoef a 1/2 1")
    with pytest.raises(ValueError, match="undefined"):
        parse_coeff_file("window 1\ncoef a 0 1")


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (parse_map_file, "dim two\n1 0\n0 1\n", "line 1: bad dimension 'two'"),
        (parse_map_file, "# identity\ndim 0\n", "line 2: dimension must be >= 1"),
        (parse_coeff_file, "\n# nothing\n", "empty coefficient file"),
        (parse_coeff_file, "window 1/2\ncoef a 0 1\n", "line 1: bad window '1/2'"),
        (
            parse_coeff_file,
            "window 1\ncoef e 0 1\n",
            "line 2: expected 'coef a|b|c|d <index> <value>'",
        ),
        (
            parse_coeff_file,
            "window 1\ncoef a 0 1 2\n",
            "line 2: expected 'coef a|b|c|d <index> <value>'",
        ),
        (
            parse_coeff_file,
            "window 1\ncoef d 1/3 0\n",
            "line 2: d index must be integer or half-integer",
        ),
    ],
)
def test_reader_refusals_are_exact(reader, text, message):
    with pytest.raises(ValueError) as exc:
        reader(text)
    assert str(exc.value) == message
