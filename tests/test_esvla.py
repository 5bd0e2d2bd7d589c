"""Windowed build, paper cocycles, and the full audit report."""

from __future__ import annotations

import importlib.util
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from lieforge import esvla, specfile
from lieforge.algebra import Element, bracket, check_alternating, gid, jacobi_audit
from lieforge.cohomology import cocycle_audit, derivation_space, symmetry_audit
from oracles import (
    bundled_cocycles,
    check_derivation,
    esvla_w3_cyclic,
    pair_values,
    paper_cocycles,
)


def Y(half: int):
    return gid("Y", Fraction(half, 2))


def test_config_validation():
    with pytest.raises(ValueError, match="window"):
        esvla.EsvlaConfig(window=1)
    with pytest.raises(ValueError, match="window"):
        esvla.EsvlaConfig(1)
    with pytest.raises(ValueError, match="convention"):
        esvla.EsvlaConfig(window=3, convention="graded")
    with pytest.raises(ValueError, match="n_index_mode"):
        esvla.EsvlaConfig(window=3, n_index_mode="loose")
    with pytest.raises(ValueError, match="convention"):
        esvla.EsvlaConfig(3, "graded", "loose")  # checked in field order
    cfg = esvla.EsvlaConfig(2)
    assert (cfg.window, cfg.convention, cfg.n_index_mode) == (2, "super", "strict")
    # a value: equal configurations compare and hash alike, so do the
    # audit reports that hold them, and a field cannot be reassigned
    assert cfg == esvla.EsvlaConfig(window=2, convention="super")
    assert hash(cfg) == hash(esvla.EsvlaConfig(2))
    assert cfg != esvla.EsvlaConfig(2, "plain")
    assert repr(cfg) == (
        "EsvlaConfig(window=2, convention='super', n_index_mode='strict')"
    )
    with pytest.raises(AttributeError):
        cfg.window = 3


def test_build_dimensions():
    A = esvla.build_esvla(esvla.EsvlaConfig(window=3))
    assert A.dim == 27  # 7 L + 7 M + 7 N + 6 Y
    by_family = {}
    for g in A.generators:
        by_family.setdefault(g.family, []).append(g)
    assert {f: len(gs) for f, gs in by_family.items()} == {
        "L": 7, "M": 7, "N": 7, "Y": 6
    }
    assert all(abs(g.index) <= 3 for g in A.generators)

    B = esvla.build_esvla(esvla.EsvlaConfig(window=3, n_index_mode="extended"))
    assert B.dim == 33  # N widened to 13 indices
    assert esvla.build_esvla(esvla.EsvlaConfig(window=2)).dim == 19


def test_bracket_entries():
    A = esvla.build_esvla(esvla.EsvlaConfig(window=4))

    def t(g, h):
        return bracket(A, Element.of(g), Element.of(h))[0]

    assert t(gid("M", 1), gid("N", 2)) == Element.zero()
    assert t(gid("L", 1), gid("M", 1)) == Element.of(gid("M", 2))
    assert t(gid("L", 0), gid("L", 1)) == Element.of(gid("L", 1))
    assert t(Y(1), Y(-1)) == Element.of(gid("L", 0), 2)
    assert t(Y(1), Y(1)) == Element.of(gid("L", 1), 2)
    assert t(gid("L", 2), Y(-1)) == Element.of(Y(3), 2)
    # lookup extends the stored direction by the graded swap sign
    assert t(gid("M", 1), gid("L", 1)) == Element.of(gid("M", 2), -1)
    assert t(Y(-1), Y(1)) == Element.of(gid("L", 0), 2)


def test_n_index_modes():
    strict = esvla.build_esvla(esvla.EsvlaConfig(window=3))
    assert not pair_values(strict)(gid("M", 0), Y(1))
    assert len(strict.findings) == 42  # every M x Y pair drops its result
    assert {f.code for f in strict.findings} == {"E_KIND"}

    ext = esvla.build_esvla(esvla.EsvlaConfig(window=3, n_index_mode="extended"))
    assert pair_values(ext)(gid("M", 0), Y(1)) == {gid("N", Fraction(1, 2)): 1}
    assert ext.findings == []


def test_paper_cocycle_values():
    pc = paper_cocycles(esvla.EsvlaConfig(window=4))
    assert pc["w1"].value(Y(1), Y(-1)) == 1
    assert pc["w1"].value(Y(-1), Y(1)) == 1  # odd-odd pairs are symmetric
    assert pc["w1"].value(Y(3), Y(-1)) == 0
    assert pc["w2"].value(gid("L", 2), Y(-5)) == 1
    assert pc["w2"].value(Y(-5), gid("L", 2)) == -1
    assert pc["w2"].value(gid("L", 0), Y(-1)) == 0  # on the delta, m/2 = 0
    assert pc["w2"].value(gid("L", 1), Y(1)) == 0
    assert pc["w3"].value(gid("M", 1), Y(-3)) == 1
    assert pc["w3"].value(Y(-3), gid("M", 1)) == -1
    assert pc["w3"].value(gid("M", 1), Y(-1)) == 0
    A = esvla.build_esvla(esvla.EsvlaConfig(window=4))
    for _, om in pc.items():
        assert symmetry_audit(om, A).found == []


def test_paper_cocycle_support_grading():
    pc = paper_cocycles(esvla.EsvlaConfig(window=5))
    for g, h in pc["w1"].raw:
        assert (g.family, h.family) == ("Y", "Y")
        assert g.index + h.index == 0
    for om, fams in ((pc["w2"], ("L", "Y")), (pc["w3"], ("M", "Y"))):
        assert om.raw
        for g, h in om.raw:
            assert (g.family, h.family) == fams
            assert g.index + h.index == Fraction(-1, 2)


@pytest.mark.parametrize("mode", ["strict", "extended"])
@pytest.mark.parametrize("big,small", [(5, 3), (4, 2)])
def test_truncation_coherence(mode, big, small):
    # the wide build restricted to the narrow window is the narrow build
    A = esvla.build_esvla(esvla.EsvlaConfig(window=big, n_index_mode=mode))
    B = esvla.build_esvla(esvla.EsvlaConfig(window=small, n_index_mode=mode))
    inner = [g for g in A.generators if abs(g.index) <= small]
    assert inner == B.generators
    wide, narrow = pair_values(A), pair_values(B)
    for g in B.generators:
        for h in B.generators:
            if (g, h) in B.boundary_pairs or (h, g) in B.boundary_pairs:
                continue  # narrow build clipped this pair
            assert wide(g, h) == narrow(g, h)


def _window_violations(cfg):
    """Jacobi's examined count and the (check, triple, residual text) of
    every Jacobi and w1-w3 violation on the window's interior triples."""
    A = esvla.build_esvla(cfg)
    jac = jacobi_audit(A, "interior")
    found = {("jacobi", v.at, str(v.residual)) for v in jac.violations}
    for name, omega in bundled_cocycles(A).items():
        audit = cocycle_audit(A, omega, "interior")
        found |= {(name, v.at, str(v.residual)) for v in audit.violations}
    return jac.examined, found


@pytest.mark.parametrize("mode", ["strict", "extended"])
@pytest.mark.parametrize("convention", ["super", "plain"])
def test_violations_persist_as_the_window_grows(convention, mode):
    # a widened window adds generators and unclips pairs but changes no
    # bracket it already had, so no interior finding may vanish or change
    prev_examined, prev = _window_violations(esvla.EsvlaConfig(4, convention, mode))
    assert prev
    for window in range(5, 10):
        examined, found = _window_violations(esvla.EsvlaConfig(window, convention, mode))
        assert prev <= found, window
        assert prev_examined <= examined, window
        prev_examined, prev = examined, found


def test_witt_jacobi_examined_grows_with_the_window():
    doc = specfile.parse((Path(__file__).parent / "data" / "witt.lie").read_text())
    examined = [
        jacobi_audit(specfile.instantiate(doc, window=w), "interior").examined
        for w in range(4, 13)
    ]
    assert examined == sorted(examined) and examined[0] > 0


def _shuffled_lines(rng):
    """The bundled document with its family lines, and its rule lines,
    shuffled among themselves."""
    lines = esvla.bundled_source().decode("utf-8").splitlines()
    for head in ("family ", "rule "):
        at = [i for i, line in enumerate(lines) if line.startswith(head)]
        moved = [lines[i] for i in at]
        rng.shuffle(moved)
        for i, line in zip(at, moved):
            lines[i] = line
    return specfile.parse("\n".join(lines))


def _audit_up_to_order(cfg):
    """The audit's summaries, and its Jacobi and cocycle violations as a
    multiset of (check, generator names, residual up to sign): a location
    lists its triple in family order, and a residual's sign follows it."""
    rep = esvla.audit_esvla(cfg)
    found = Counter()
    checks = [("jacobi", rep.jacobi), *sorted(rep.cocycles.items())]
    for name, audit in checks:
        for v in audit.violations:
            r = v.residual
            minus = r.scale(-1) if isinstance(r, Element) else -r
            names = tuple(sorted(map(str, v.at)))
            found[name, names, frozenset((str(r), str(minus)))] += 1
    return rep.summaries, found


@pytest.mark.parametrize("mode", ["strict", "extended"])
@pytest.mark.parametrize("convention", ["super", "plain"])
def test_line_order_changes_no_finding(convention, mode, monkeypatch):
    # family and rule lines in any order give the same algebra up to the
    # order of its generators; the report text is not compared, since
    # locations, truncation and E_KIND line numbers follow the lines
    rng = random.Random(f"{convention}-{mode}")
    for window in (3, 4, 5):
        cfg = esvla.EsvlaConfig(window, convention, mode)
        want = _audit_up_to_order(cfg)
        for _ in range(3):
            doc = _shuffled_lines(rng)
            monkeypatch.setattr(esvla, "_bundled_doc", lambda: doc)
            assert _audit_up_to_order(cfg) == want, specfile.render(doc)
            monkeypatch.undo()


@pytest.mark.parametrize("mode", ["strict", "extended"])
def test_w3_cyclic_matches_hand_expansion(mode):
    # small-scope oracle: the cyclic sum on (L_p, M_m, Y_r) triples was
    # expanded by hand from the displayed formulas; the audit must agree
    # on both the verdict and the residual
    cfg = esvla.EsvlaConfig(window=4, n_index_mode=mode)
    rep = esvla.audit_esvla(cfg)
    aud = rep.cocycles["w3"]
    assert aud.skipped_boundary == 0
    got = {v.at: v.residual for v in aud.violations}
    hits = 0
    for p in range(-2, 3):
        for m in range(-2, 3):
            for rh in (-3, -1, 1, 3):
                r = Fraction(rh, 2)
                trip = (gid("L", p), gid("M", m), Y(rh))
                expected = esvla_w3_cyclic(p, m, r)
                assert got.get(trip, Fraction(0)) == expected
                if expected:
                    hits += 1
    assert hits > 0  # the oracle scope actually exercises violations


def test_jacobi_residuals_hand_cases():
    rep = esvla.audit_esvla(esvla.EsvlaConfig(window=4))
    got = {v.at: v.residual for v in rep.jacobi.violations}
    # [L,[L,Y]] chain: (n-m) L-L convention is sign-incompatible with the
    # (m/2-n) L-Y coefficient, leaving residual Y[-7/2]
    trip = (gid("L", -2), gid("L", -1), Y(-1))
    assert got[trip] == Element.of(Y(-7))
    # [M,[Y,Y]] hits -2m M: [Y,Y] lands in L and [M,L] does not vanish
    trip = (gid("M", 1), Y(-1), Y(1))
    assert got[trip] == Element.of(gid("M", 1), -2)
    ext = esvla.audit_esvla(esvla.EsvlaConfig(window=4, n_index_mode="extended"))
    got_ext = {v.at: v.residual for v in ext.jacobi.violations}
    assert got_ext[trip] == Element.of(gid("M", 1), -2)


def test_alternating_by_convention():
    sup = esvla.build_esvla(esvla.EsvlaConfig(window=3))
    assert check_alternating(sup).violations == []
    plain = esvla.build_esvla(esvla.EsvlaConfig(window=3, convention="plain"))
    viols = check_alternating(plain).violations
    assert viols  # [Y_a, Y_a] = 2 L_{2a} contradicts plain alternation
    diag = [v for v in viols if v.at == (Y(1), Y(1))]
    assert len(diag) == 1
    rep = esvla.audit_esvla(esvla.EsvlaConfig(window=3, convention="plain"))
    assert rep.alternating.violations == viols


def test_audit_w4_strict_frozen():
    rep = esvla.audit_esvla(esvla.EsvlaConfig(window=4))
    assert rep.summaries == {
        "dim": 35,
        "boundary_pairs": 86,
        "dropped_terms": 86,
        "instantiation_findings": 72,
        "alternating_violations": 0,
        "jacobi_examined": 1304,
        "jacobi_skipped": 26,
        "jacobi_violations": 176,
        "center_dim": 2,
        "derivations_grade0": 5,
        "inner_grade0": 0,
        "outer_grade0": 5,
        "z2_grade0": 3,
        "b2_grade0": 3,
        "h2_grade0": 0,
        "w1_examined": 1330,
        "w1_skipped": 0,
        "w1_violations": 8,
        "w2_examined": 1330,
        "w2_skipped": 0,
        "w2_violations": 10,
        "w3_examined": 1330,
        "w3_skipped": 0,
        "w3_violations": 14,
    }
    # strict mode silences [M_0, Y], so M_0 joins N_0 in the window center
    assert [str(e) for e in rep.center_basis] == ["M[0]", "N[0]"]


def test_audit_extended_center():
    rep = esvla.audit_esvla(esvla.EsvlaConfig(window=4, n_index_mode="extended"))
    # widened N carries half indices no rule matches, so interior ones are
    # central; M_0 is not ([M_0, Y] = N now exists)
    assert [str(e) for e in rep.center_basis] == [
        "N[-3/2]", "N[-1/2]", "N[0]", "N[1/2]", "N[3/2]"
    ]
    assert rep.summaries["center_dim"] == 5


def test_grade_zero_derivations_check_out():
    A = esvla.build_esvla(esvla.EsvlaConfig(window=4))
    ders = derivation_space(A, grade_restriction=0)
    assert len(ders) == 5
    for D in ders:
        assert check_derivation(A, D) == []
    # ad L_0 is grade-zero but fails the derivation identity on the window
    # because Jacobi fails, hence the audit's inner_grade0 = 0
    rep = esvla.audit_esvla(esvla.EsvlaConfig(window=4))
    assert (rep.summaries["inner_grade0"], rep.summaries["outer_grade0"]) == (0, 5)


def test_audit_determinism():
    cfg = esvla.EsvlaConfig(window=3, n_index_mode="extended")
    a, b = esvla.audit_esvla(cfg), esvla.audit_esvla(cfg)
    assert a.summaries == b.summaries
    assert a.jacobi.violations == b.jacobi.violations
    assert [str(e) for e in a.center_basis] == [str(e) for e in b.center_basis]
    for name in ("w1", "w2", "w3"):
        assert a.cocycles[name].violations == b.cocycles[name].violations


def test_window8_summaries_match_benchmark_answer():
    # the benchmark checks `esvla audit --window 8` against these numbers
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    report = esvla.audit_esvla(esvla.EsvlaConfig(workloads.ESVLA_WINDOW))
    assert report.summaries == workloads.ESVLA_SUMMARIES
