"""The position-indexed view and the audits that run on it, checked against
the table itself and against a generator-keyed oracle."""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from algebra_fixtures import (
    abelian,
    coprime_denominators,
    heisenberg3,
    mixed_entries,
    random_cochain,
    random_super_table,
    sixths_cochain,
    sl2_type,
    super_bad,
    super_heisenberg,
    super_pair,
    witt_window,
)
from lieforge import esvla, snla
from lieforge.algebra import TripleScan, jacobi_audit
from lieforge.cohomology import (
    Cochain2,
    _cochain_unknowns,
    _cocycle_rows,
    _slot_reading,
    coboundary2_space,
    cocycle2_space,
    cocycle_audit,
    cyclic_sums,
    symmetry_audit,
)
from lieforge.linalg import SparseMatrix, echelon, rref
from lieforge.specfile import instantiate, parse
from oracles import (
    blockwise_rational_rref,
    bundled_cocycles,
    full_scan_cocycle_rows,
    naive_windowed_audit,
    pair_values,
    paper_cocycles,
    rational_rref,
)

DATA = Path(__file__).parent / "data"

ESVLA_W5 = {
    "super_strict": esvla.EsvlaConfig(5),
    "super_extended": esvla.EsvlaConfig(5, n_index_mode="extended"),
    "plain": esvla.EsvlaConfig(5, convention="plain"),
}

FIXTURES = {
    "coprime": coprime_denominators,
    "mixed_super": lambda: mixed_entries("super"),
    "mixed_plain": lambda: mixed_entries("plain"),
    "odd_diagonal_bad": super_bad,
    "odd_diagonal_heisenberg": super_heisenberg,
    "odd_diagonal_plain": lambda: super_pair(False),
    "witt_window": lambda: witt_window(5),
}


def _jacobi_as_oracle(audit):
    return (
        audit.examined,
        audit.skipped_boundary,
        [(v.at, v.residual.terms) for v in audit.violations],
    )


def _cocycle_as_oracle(audit):
    return (
        audit.examined,
        audit.skipped_boundary,
        [(v.at, v.residual) for v in audit.violations],
    )


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_view_reads_the_table(name):
    A = FIXTURES[name]()
    view = A.view
    value = pair_values(A)
    producers = {}
    for i, g in enumerate(A.generators):
        assert view.odd[i] == bool(A.parity.get(g.family))
        for j, h in enumerate(A.generators):
            assert {k: Fraction(c, view.scale) for k, c in view.terms[i][j]} == {
                A.position(t): c for t, c in value(g, h).items()
            }
            for k, _ in view.terms[i][j]:
                producers.setdefault(k, set()).add(i * A.dim + j)
            assert (j in view.flagged[i]) == (
                (g, h) in A.boundary_pairs or (h, g) in A.boundary_pairs
            )
    assert [A.generators[i] for i in view.interior] == [
        g for g in A.generators if A.is_interior(g)
    ]
    assert {k: set(pairs) for k, pairs in enumerate(view.producers) if pairs} == producers


@pytest.mark.parametrize("scope", ["interior", "all"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_audits_match_oracle(name, scope):
    A = FIXTURES[name]()
    assert _jacobi_as_oracle(jacobi_audit(A, scope)) == naive_windowed_audit(A, scope)
    rng = random.Random(name)
    for _ in range(3):
        omega = random_cochain(rng, A)
        assert _cocycle_as_oracle(cocycle_audit(A, omega, scope)) == (
            naive_windowed_audit(A, scope, omega)
        )


@pytest.mark.parametrize("name", sorted(ESVLA_W5))
def test_esvla_audits_match_oracle(name):
    cfg = ESVLA_W5[name]
    A = esvla.build_esvla(cfg)
    jac = naive_windowed_audit(A, "interior")
    assert jac[2], "the bundled algebra fails Jacobi on the window"
    assert _jacobi_as_oracle(jacobi_audit(A, "interior")) == jac
    for _, omega in paper_cocycles(cfg).items():
        assert _cocycle_as_oracle(cocycle_audit(A, omega, "interior")) == (
            naive_windowed_audit(A, "interior", omega)
        )


def assert_cochain_bases_match_oracle(A, grade_zero):
    """Z2 is the canonical kernel basis of the oracle's cocycle residual map
    and B2 the Gauss-Jordan rows of the coboundaries of dual 1-cochains, both
    over the slots (generator pairs) in position order, compared in order."""
    sup = A.convention == "super"
    gens = A.generators
    value = pair_values(A)
    slots = [
        (g, h)
        for i, g in enumerate(gens)
        for h in gens[i:]
        if (g != h or (sup and A.parity.get(g.family)))
        and not (grade_zero and g.index + h.index != 0)
    ]
    row_of = {}
    entries = {}
    for col, pair in enumerate(slots):
        omega = Cochain2(A.parity, A.convention, {pair: 1})
        for triple, residual in naive_windowed_audit(A, "all", omega)[2]:
            entries[(row_of.setdefault(triple, len(row_of)), col)] = residual
    pivots, rows = rational_rref(SparseMatrix(max(len(row_of), 1), len(slots), entries))
    kernel = {f: {f: Fraction(1)} for f in range(len(slots)) if f not in pivots}
    for c, row in zip(pivots, rows):
        for f, v in row.items():
            if f != c:
                kernel[f][c] = -v
    duals = [t for t in gens if not grade_zero or t.index == 0]
    deltas = {
        (r, u): value(g, h).get(t, 0)
        for r, t in enumerate(duals)
        for u, (g, h) in enumerate(slots)
    }
    _, rows = rational_rref(SparseMatrix(max(len(duals), 1), len(slots), deltas))
    for space, basis in ((cocycle2_space, kernel.values()), (coboundary2_space, rows)):
        assert [list(w.raw.items()) for w in space(A, grade_zero)] == [
            [(slots[u], vec[u]) for u in sorted(vec)] for vec in basis
        ]


@pytest.mark.parametrize("seed", range(6))
def test_cocycle_space_matches_oracle(seed):
    # odd-odd slots are read through the swap sign when assembling rows
    A = random_super_table(random.Random(seed), 1, 4)
    assert_cochain_bases_match_oracle(A, grade_zero=False)


@pytest.mark.parametrize("grade_zero", [False, True])
@pytest.mark.parametrize(
    "fixture",
    [heisenberg3, sl2_type, lambda: witt_window(6), lambda: mixed_entries("super")],
    ids=["heisenberg3", "sl2", "witt_window_6", "mixed_super"],
)
def test_cochain_bases_match_oracle(fixture, grade_zero):
    assert_cochain_bases_match_oracle(fixture(), grade_zero)


def test_coprime_denominators_match_oracle():
    # 1/3, 2/5, 3/7 in the table and sixths in the cochain: both the view's
    # denominator and the audit's own one differ from 1
    A = coprime_denominators()
    assert A.view.scale == 105
    omega = sixths_cochain(A)
    assert {w.denominator for w in omega.raw.values()} == {6}
    for scope in ("interior", "all"):
        jac = naive_windowed_audit(A, scope)
        assert jac[2], "the fixture fails Jacobi"
        assert _jacobi_as_oracle(jacobi_audit(A, scope)) == jac
        coc = naive_windowed_audit(A, scope, omega)
        assert coc[2], "the cochain is not a cocycle"
        assert _cocycle_as_oracle(cocycle_audit(A, omega, scope)) == coc


ROW_CASES = {
    **FIXTURES,
    "esvla_w4": lambda: esvla.build_esvla(esvla.EsvlaConfig(4)),
    "esvla_w6": lambda: esvla.build_esvla(esvla.EsvlaConfig(6)),
}


@pytest.mark.parametrize("grade_zero", [False, True])
@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_cocycle_rows_match_full_scan(name, grade_zero):
    A = ROW_CASES[name]()
    unknowns = _cochain_unknowns(A, grade_zero)
    rows = [
        {u: Fraction(v, A.view.scale) for u, v in row.items()}
        for row in _cocycle_rows(A, unknowns)
    ]
    assert rows == full_scan_cocycle_rows(A, unknowns)


AGREE_CASES = {
    **FIXTURES,
    **{
        f"witt_w{w}_{conv}": (lambda w=w, conv=conv: _witt(w, conv))
        for w in (4, 6)
        for conv in ("plain", "super")
    },
    **{
        f"esvla_w{w}_{conv}": (
            lambda w=w, conv=conv: esvla.build_esvla(esvla.EsvlaConfig(w, conv))
        )
        for w in (4, 6)
        for conv in ("plain", "super")
    },
}


@pytest.mark.parametrize("grade_zero", [False, True])
@pytest.mark.parametrize("name", sorted(AGREE_CASES))
def test_cocycle_audit_reads_the_rows(name, grade_zero):
    # a cochain on the unknown slots, each given one way only (either way):
    # the audit's triples and residuals are exactly the rows' nonzero dot
    # products with the cochain's slot vector
    A = AGREE_CASES[name]()
    sup, gens, n = A.convention == "super", A.generators, A.dim
    unknowns = _cochain_unknowns(A, grade_zero)
    reading = _slot_reading(A, unknowns)
    scan = TripleScan(A, "all", sup, (divmod(key, n) for key in reading))
    rows = list(cyclic_sums(A, scan, reading))
    assert [row for _, row in rows] == list(_cocycle_rows(A, unknowns))
    rng = random.Random(f"{name}-{grade_zero}")
    for _ in range(4):
        raw = {}
        for key in unknowns:
            if rng.random() < 0.6:
                i, j = divmod(key, n)
                if rng.random() < 0.5:
                    i, j = j, i
                value = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
                raw[(gens[i], gens[j])] = value
        omega = Cochain2(A.parity, A.convention, raw)
        assert not symmetry_audit(omega, A).found
        vec = {u: omega.value(gens[key // n], gens[key % n]) for key, u in unknowns.items()}
        dots = [
            (t, sum(c * vec[u] for u, c in row.items()) / A.view.scale) for t, row in rows
        ]
        audit = cocycle_audit(A, omega, "all")
        assert [(t, Fraction(r, audit.denominator)) for t, r in audit.found] == [
            (t, d) for t, d in dots if d
        ]


STREAM_CASES = {
    **{(name, g): build for name, build in ROW_CASES.items() for g in (False, True)},
    ("witt_w8", False): lambda: _witt(8),
    ("witt_w28", False): lambda: _witt(28),
    **{
        (f"esvla_w5_{name}", True): (lambda cfg=cfg: esvla.build_esvla(cfg))
        for name, cfg in ESVLA_W5.items()
    },
}


@pytest.mark.parametrize(
    "case",
    sorted(STREAM_CASES),
    ids=[f"{name}-{'grade0' if g else 'all'}" for name, g in sorted(STREAM_CASES)],
)
def test_streamed_cocycle_rows_give_the_held_echelon(case):
    # the generator cocycle2_space hands to echelon, against the rows held
    # in a matrix, eliminated shortest first and by Gauss-Jordan on Fractions
    A = STREAM_CASES[case]()
    unknowns = _cochain_unknowns(A, case[1])
    streamed = echelon(len(unknowns), _cocycle_rows(A, unknowns))
    held = SparseMatrix.from_rows(len(unknowns), list(_cocycle_rows(A, unknowns)))
    assert streamed == rref(held) == blockwise_rational_rref(held)


def test_cocycle_space_holds_no_row_system():
    # Witt W=40: 37,280 cocycle rows of rank 2,814 over 3,240 unknowns; held
    # in a list and a matrix they peaked above 12 MiB
    A = _witt(40)
    tracemalloc.start()
    try:
        basis = cocycle2_space(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 426
    assert peak < 4 * 2**20


def _touches(A, value, t, support):
    """Whether a rotation (a, b, c) of t has g_k in [g_a, g_b] as ``value``
    reads it with (k, c) in the support."""
    x, y, z = (A.generators[i] for i in t)
    return any(
        (A.position(g), A.position(c)) in support
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y))
        for g in value(a, b)
    )


@pytest.mark.parametrize("repeats", [False, True])
@pytest.mark.parametrize("scope", ["interior", "all"])
@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_support_scan_is_the_touching_part_of_the_full_scan(name, scope, repeats):
    A = ROW_CASES[name]()
    pairs = [(k, c) for k in range(A.dim) for c in range(A.dim)]
    rng = random.Random(name)
    supports = [
        set(),
        set(pairs),
        set(rng.sample(pairs, len(pairs) // 8)),
        {(A.position(g), A.position(h)) for g, h in random_cochain(rng, A).raw},
    ]
    full_scan = TripleScan(A, scope, repeats)
    full = list(full_scan)
    value = pair_values(A)
    for support in supports:
        # a fresh instance: only a scan that went full has recorded the
        # scope's counts, and a narrowed one must count the scope itself
        B = ROW_CASES[name]()
        scan = TripleScan(B, scope, repeats, iter(support))
        got = list(scan)
        went_full = (scope, repeats) in B._scan_counts
        if went_full:
            assert got == full
        else:
            assert got == [t for t in full if _touches(A, value, t, support)]
        assert (scan.checkable, scan.skipped) == (len(full), full_scan.skipped)
        if not support:
            # no step to take: it narrows whenever the scope has a triple
            assert went_full == (not full and not full_scan.skipped)


def _witt(window, convention="plain"):
    text = (DATA / "witt.lie").read_text().replace("plain", convention)
    return instantiate(parse(text), window=window)


def _paths(monkeypatch, run) -> list[str]:
    """The way each TripleScan went while ``run`` ran."""
    paths = []
    narrowed = TripleScan._narrowed

    def spy(scan):
        triples = narrowed(scan)
        paths.append("full" if triples is None else "narrowed")
        return triples

    with monkeypatch.context() as mp:
        mp.setattr(TripleScan, "_narrowed", spy)
        run()
    return paths


def test_scan_path_follows_the_cost_rule(monkeypatch):
    # Witt W=28: a support naming every slot costs 134,848 producer steps
    # against 29,260 triples, so the rows scan in full; the grade-zero slots
    # cost 2,352 and narrow
    A = _witt(28)
    for grade_zero, path in ((False, "full"), (True, "narrowed")):
        unknowns = _cochain_unknowns(A, grade_zero)
        assert _paths(monkeypatch, lambda: list(_cocycle_rows(A, unknowns))) == [path]
    # esvla W=8: each displayed cocycle names few pairs, so its audit narrows
    B = esvla.build_esvla(esvla.EsvlaConfig(8))
    for _, omega in bundled_cocycles(B).items():
        assert _paths(monkeypatch, lambda: cocycle_audit(B, omega)) == ["narrowed"]


WITT_AND_INERT_Y = """algebra witt_y convention plain
family L integer even
family Y integer even
rule L[m] L[n] => (n - m) L[m+n]
"""


def test_jacobi_scan_path_follows_the_cost_rule(monkeypatch):
    # esvla W=8: walking the producers of its bracketing pairs takes more
    # steps than the interior has triples, so Jacobi scans in full
    B = esvla.build_esvla(esvla.EsvlaConfig(8))
    assert _paths(monkeypatch, lambda: jacobi_audit(B)) == ["full"]
    # Witt plus a family Y that brackets with nothing: only L triples can be
    # nonzero or clipped, so Jacobi walks the producers, and counts the
    # whole scope as the oracle's full walk does
    for window, examined, skipped in ((4, 696, 120), (6, 2202, 398)):
        A = instantiate(parse(WITT_AND_INERT_Y), window=window)
        audit = []
        assert _paths(monkeypatch, lambda: audit.append(jacobi_audit(A, "all"))) == [
            "narrowed"
        ]
        assert _jacobi_as_oracle(audit[0]) == naive_windowed_audit(A, "all")
        assert (audit[0].examined, audit[0].skipped_boundary) == (examined, skipped)


def test_jacobi_of_a_bracket_with_no_terms_walks_no_triple(monkeypatch):
    # every rule term has coefficient 0: no pair brackets and none is
    # clipped, so the C(250, 3) interior triples are counted, not walked
    doc = parse(WITT_AND_INERT_Y.replace("(n - m) L[m+n]", "0 Y[m+n]"))
    A = instantiate(doc, window=64)
    t0 = time.perf_counter()
    audit = []
    assert _paths(monkeypatch, lambda: audit.append(jacobi_audit(A))) == ["narrowed"]
    assert time.perf_counter() - t0 < 1
    assert (audit[0].examined, audit[0].skipped_boundary, audit[0].found) == (
        2_573_000,
        0,
        [],
    )


def _zero_product_bracket(dim):
    # the bracket snla verify checks for a zero product: all of it zero
    return snla.SnlaInstance(
        dim, snla.ProductTable.from_coeffs(dim, ()), snla.standard_form(dim // 2)
    ).bracket


SCOPES = [("interior", False), ("interior", True), ("all", False), ("all", True)]
COUNT_CASES = {
    **{
        f"esvla_w5_{name}": ((lambda cfg=cfg: esvla.build_esvla(cfg)), SCOPES)
        for name, cfg in ESVLA_W5.items()
    },
    "witt_w8": (lambda: _witt(8), SCOPES),
    "abelian6": (lambda: abelian(6), SCOPES),
    # the scope symplectic_cocycle_audit walks: C(258, 3) triples
    "zero_product_256": (lambda: _zero_product_bracket(256), [("all", True)]),
}


@pytest.mark.parametrize("name", sorted(COUNT_CASES))
def test_scan_counts_without_a_walk_equal_the_walked_counts(name, monkeypatch):
    build, scopes = COUNT_CASES[name]
    A, B = build(), build()
    walks = []
    real = TripleScan.__iter__

    def counting_iter(scan):
        walks.append(scan._key)
        return real(scan)

    for key in scopes:
        for _ in TripleScan(A, *key):
            pass
        walked = A._scan_counts[key]
        monkeypatch.setattr(TripleScan, "__iter__", counting_iter)
        scan = TripleScan(B, *key)
        assert (scan.checkable, scan.skipped) == walked
        monkeypatch.setattr(TripleScan, "__iter__", real)
        flagged = any(B.view.flagged[p] for p in scan._positions())
        # a scope with no flagged partner is counted by formula, no walk
        assert walks == ([key] if flagged else [])
        walks.clear()
