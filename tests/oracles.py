"""Independent brute-force oracles used to cross-check the library.

These deliberately reimplement the checks with naive nested loops and no
shared helper code, so a bug in the library's iteration or sign handling
cannot cancel against itself in the tests.  The module also keeps the
helpers that only tests call: ``matvec``, ``solve`` (which reads
``linalg.rref``), ``transpose``, ``bundled_cocycles`` and ``paper_cocycles``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from lieforge.algebra import (
    AlgebraInstance,
    Element,
    Finding,
    GeneratorId,
    TripleScan,
    Violation,
    bracket,
    gid,
)
from lieforge import esvla
from lieforge.cohomology import Cochain2
from lieforge.linalg import SparseMatrix, rat, rref
from lieforge.specfile import instantiate_cocycle


def matvec(m: SparseMatrix, v: list) -> list[Fraction]:
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    return [sum((a * rat(v[c]) for c, a in row.items()), Fraction(0)) for row in m._data]


def solve(m: SparseMatrix, b: list) -> Optional[list[Fraction]]:
    """Some exact solution of m x = b, or None when inconsistent.  Free
    variables are set to zero."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length must equal row count")
    aug = [dict(row) for row in m._data]
    for row, v in zip(aug, b):
        f = v if type(v) is int else rat(v)
        if f:
            row[m.cols] = f
    ech = rref(SparseMatrix.from_rows(m.cols + 1, aug))
    if m.cols in ech.pivots:
        return None
    x = [Fraction(0)] * m.cols
    for i, c in enumerate(ech.pivots):
        x[c] = ech.rows[i].get(m.cols, Fraction(0))
    return x


def transpose(m: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


def bundled_cocycles(A: AlgebraInstance) -> dict[str, Cochain2]:
    """The bundled cocycle declarations evaluated over A's generators,
    keyed by their names in document order."""
    return {c.name: instantiate_cocycle(c, A) for c in esvla._bundled_doc().cocycles}


def paper_cocycles(cfg: esvla.EsvlaConfig) -> dict[str, Cochain2]:
    """The bundled cocycle declarations evaluated over the window's grid."""
    return bundled_cocycles(esvla.build_esvla(cfg))


def written_entries(A: AlgebraInstance) -> dict:
    """The pairs A was given as written, in the order given, each with its
    value read back as ``{generator: Fraction}``.  Only these pairs of
    ``A.view.terms`` are read."""
    gens, view = A.generators, A.view
    return {
        (gens[i], gens[j]): {gens[k]: Fraction(c, view.scale) for k, c in view.terms[i][j]}
        for i, j in view.written
    }


def pair_values(A: AlgebraInstance):
    """``value(g, h)``, [g,h] as ``{generator: Fraction}``: the written entry,
    or the written (h,g) entry times -1, or times +1 for two odd generators
    under super."""
    written = written_entries(A)

    def value(g: GeneratorId, h: GeneratorId) -> dict:
        v = written.get((g, h))
        if v is not None:
            return dict(v)
        w = written.get((h, g))
        if w is None:
            return {}
        both_odd = A.parity.get(g.family) and A.parity.get(h.family)
        sign = 1 if A.convention == "super" and both_odd else -1
        return {t: sign * c for t, c in w.items()}

    return value


def pair_value(A: AlgebraInstance, g: GeneratorId, h: GeneratorId) -> Element:
    """[g,h] as an Element, by ``pair_values``."""
    return Element(pair_values(A)(g, h))


def _flagged(A: AlgebraInstance) -> set:
    return set(A.boundary_pairs) | {(h, g) for g, h in A.boundary_pairs}


def full_scan_cocycle_rows(A: AlgebraInstance, unknowns: dict[int, int]):
    """The cyclic cocycle rows of ``cohomology._cocycle_rows`` over the same
    unknown slots (keyed i * dim + j, i <= j), built the way it built them
    before it narrowed its triples to a support: every checkable triple of
    the full scan, with Fraction coefficients read from the table.  A triple
    gives a row when its row is nonzero."""
    sup = A.convention == "super"
    gens, n = A.generators, A.dim
    odd = [bool(A.parity.get(g.family)) for g in gens]
    value = pair_values(A)
    terms = [[[(A.position(t), c) for t, c in value(g, h).items()] for h in gens] for g in gens]
    rows = []
    for x, y, z in TripleScan(A, "all", repeats=sup):
        row: dict[int, Fraction] = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            sign = -1 if sup and odd[a] and odd[c] else 1
            for t, ct in terms[a][b]:
                if t <= c:
                    u = unknowns.get(t * n + c)
                    coeff = sign * ct
                else:
                    # omega(t,c) is read through the slot (c,t) by the swap sign
                    u = unknowns.get(c * n + t)
                    coeff = (sign if sup and odd[c] and odd[t] else -sign) * ct
                if u is None:
                    continue
                row[u] = row.get(u, 0) + coeff
                if not row[u]:
                    del row[u]
        if row:
            rows.append(row)
    return rows


def _pattern_value(pat, g: GeneratorId) -> Optional[int]:
    """The integer value of the index variable of ``pat`` at g, else None."""
    if g.family != pat.family:
        return None
    v = g.index - pat.offset
    return int(v) if v.denominator == 1 else None


def naive_pattern_pairs(left, right, condition, by_family):
    """The (g, h, m, n) of ``specfile._pattern_pairs``, found by visiting
    every pair of the two families and testing the condition on each."""
    for g in by_family.get(left.family, ()):
        m = _pattern_value(left, g)
        if m is None:
            continue
        for h in by_family.get(right.family, ()):
            n = _pattern_value(right, h)
            if n is not None and (condition is None or condition.holds(m, n)):
                yield g, h, m, n


def naive_instantiate(doc, window=None, kind_mode="strict"):
    """What ``specfile.instantiate`` builds, by the Fraction path: every rule
    evaluated with ``Poly2.eval`` at each pair ``naive_pattern_pairs``
    finds, Fraction result indices, and Element sums.  Returns (generators,
    the pairs given as written with their ``{generator: Fraction}`` values in
    order, boundary pairs, dropped terms, findings), or raises the
    ValueError instantiation raises for a document with faulty entries."""

    def admits(kind, index):
        return kind == "both" or (kind == "half") == (index.denominator == 2)

    kind = {f.symbol: f.kind for f in doc.families}
    if kind_mode == "extended":
        ill = {t.family for r in doc.rules for t in r.terms if not admits(kind[t.family], t.offset)}
        kind.update(dict.fromkeys(ill, "both"))
    by_family = {f.symbol: [] for f in doc.families}
    if not doc.rules:
        window = None  # a document without rules declares its generators
    if window is not None:
        for fam, k in kind.items():
            step = 1 if k == "both" else 2
            start = -2 * window + (k == "half")
            by_family[fam] = [GeneratorId(fam, d) for d in range(start, 2 * window + 1, step)]
    for decl in doc.generators:
        g = GeneratorId(decl.family, int(decl.index * 2))
        if g not in by_family[decl.family]:
            by_family[decl.family] = sorted(by_family[decl.family] + [g])
    gens = [g for f in doc.families for g in by_family[f.symbol]]

    written, findings, boundary, dropped = {}, [], set(), 0
    for r in doc.rules:
        for g, h, m, n in naive_pattern_pairs(r.left, r.right, r.condition, by_family):
            value = Element.zero()
            for t in r.terms:
                coeff = t.poly.eval(Fraction(m), Fraction(n))
                if not coeff:
                    continue
                index = m + n + t.offset
                if not admits(kind[t.family], index):
                    findings.append(
                        Finding(
                            "E_KIND",
                            f"rule@{r.line} [{g},{h}]",
                            f"result index {index} invalid for {kind[t.family]}"
                            f" family {t.family!r}",
                        )
                    )
                elif abs(index) > window:
                    boundary.add((g, h))
                    dropped += 1
                else:
                    value = value + Element.of(gid(t.family, index), coeff)
            if value:
                written[(g, h)] = value.terms
    for e in doc.entries:
        g, h = gid(*e.left), gid(*e.right)
        value = Element.zero()
        for c, fam, ix in e.value:
            value = value + Element.of(gid(fam, ix), c)
        for t in (g, h, *(gid(fam, ix) for _, fam, ix in e.value)):
            if t not in gens or (window is not None and abs(t.index) > window):
                raise ValueError(
                    f"entry at line {e.line} references out-of-scope generator {t}"
                )
        if value:
            if (g, h) in written:
                raise ValueError(f"duplicate bracket entry for ({g}, {h})")
            written[(g, h)] = value.terms
    for g in gens:
        if window is not None and abs(g.index) > window:
            raise ValueError(f"generator {g} outside window {window}")
    return gens, list(written.items()), boundary, dropped, findings


def naive_instantiate_cocycle(decl, A: AlgebraInstance) -> Cochain2:
    """``specfile.instantiate_cocycle`` by testing the declaration's
    condition on all dim^2 ordered generator pairs of the instance."""
    raw = {}
    for g in A.generators:
        m = _pattern_value(decl.left, g)
        if m is None:
            continue
        for h in A.generators:
            n = _pattern_value(decl.right, h)
            if n is None:
                continue
            if decl.condition is not None and not decl.condition.holds(m, n):
                continue
            c = decl.poly.eval(Fraction(m), Fraction(n))
            if c:
                raw[(g, h)] = c
    return Cochain2(A.parity, A.convention, raw)


def naive_jacobi_failures(A: AlgebraInstance) -> list[tuple]:
    """All generator triples (by index, i<=j<=k for super, i<j<k plain)
    where the cyclic (graded) Jacobi sum is nonzero.  No window handling:
    intended for windowless instances only."""
    gens = A.generators
    n = len(gens)
    sup = A.convention == "super"
    par = A.parity.get
    value = pair_values(A)
    failures = []
    for i in range(n):
        for j in range(i if sup else i + 1, n):
            for k in range(j if sup else j + 1, n):
                x, y, z = gens[i], gens[j], gens[k]
                total: dict[GeneratorId, Fraction] = {}
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    sign = 1
                    if sup and par(a.family) and par(c.family):
                        sign = -1
                    inner = value(b, c)
                    for t, ct in inner.items():
                        outer = value(a, t)
                        for u, cu in outer.items():
                            total[u] = total.get(u, Fraction(0)) + sign * ct * cu
                if any(v != 0 for v in total.values()):
                    failures.append((x, y, z))
    return failures


def naive_windowed_audit(A: AlgebraInstance, scope: str, omega=None, repeats=None):
    """Window-aware Jacobi audit (``omega`` None) or cyclic cocycle audit of
    the 2-cochain ``omega``, by nested index loops over generator-keyed
    lookups.

    Triples come from the interior generators (scope "interior") or from
    all of them, with repetition under super unless ``repeats`` says
    otherwise.  A triple with a window-flagged cyclic pair is skipped, and
    so is a Jacobi triple one of whose inner brackets [a,t] is flagged.
    Returns (examined, skipped, [(triple, residual)]): a Jacobi residual is
    a {generator: coefficient} dict, a cocycle residual a Fraction.
    """
    sup = A.convention == "super"
    if repeats is None:
        repeats = sup
    par = A.parity.get
    value = pair_values(A)
    flagged = _flagged(A)
    gens = [g for g in A.generators if scope == "all" or A.is_interior(g)]
    n = len(gens)

    def omega_value(g, h):
        v = omega.raw.get((g, h))
        if v is not None:
            return v
        w = omega.raw.get((h, g))
        if w is None:
            return Fraction(0)
        both_odd = omega.parity.get(g.family) and omega.parity.get(h.family)
        return w if omega.convention == "super" and both_odd else -w

    examined = skipped = 0
    violations = []
    for i in range(n):
        for j in range(i if repeats else i + 1, n):
            for k in range(j if repeats else j + 1, n):
                x, y, z = gens[i], gens[j], gens[k]
                if (x, y) in flagged or (y, z) in flagged or (z, x) in flagged:
                    skipped += 1
                    continue
                clipped = False
                jacobi: dict[GeneratorId, Fraction] = {}
                cocycle = Fraction(0)
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    sign = -1 if sup and par(a.family) and par(c.family) else 1
                    if omega is None:
                        for t, ct in value(b, c).items():
                            if (a, t) in flagged:
                                clipped = True
                            for u, cu in value(a, t).items():
                                jacobi[u] = jacobi.get(u, Fraction(0)) + sign * ct * cu
                    else:
                        for t, ct in value(a, b).items():
                            cocycle += sign * ct * omega_value(t, c)
                if clipped:
                    skipped += 1
                    continue
                examined += 1
                residual = (
                    {u: v for u, v in jacobi.items() if v} if omega is None else cocycle
                )
                if residual:
                    violations.append(((x, y, z), residual))
    return examined, skipped, violations


def naive_is_derivation(A: AlgebraInstance, images: dict) -> bool:
    """Check D[g,h] = [Dg,h] + [g,Dh] on every assigned pair by expansion.
    ``images`` maps generator to Element."""
    value = pair_values(A)
    for (g, h), v in written_entries(A).items():
        left: dict[GeneratorId, Fraction] = {}
        for t, c in v.items():
            for u, cu in images.get(t, Element.zero()).terms.items():
                left[u] = left.get(u, Fraction(0)) + c * cu
        right: dict[GeneratorId, Fraction] = {}
        for t, c in images.get(g, Element.zero()).terms.items():
            for u, cu in value(t, h).items():
                right[u] = right.get(u, Fraction(0)) + c * cu
        for t, c in images.get(h, Element.zero()).terms.items():
            for u, cu in value(g, t).items():
                right[u] = right.get(u, Fraction(0)) + c * cu
        diff = set(left) | set(right)
        for u in diff:
            if left.get(u, Fraction(0)) != right.get(u, Fraction(0)):
                return False
    return True


def map_image(A: AlgebraInstance, D, g: GeneratorId) -> Element:
    """The image of generator g under the linear map D."""
    return D.image(A.generators, A.position(g))


def _map_apply(A: AlgebraInstance, D, x: Element) -> Element:
    out = Element.zero()
    for g, c in x.terms.items():
        out = out + map_image(A, D, g).scale(c)
    return out


def check_derivation(A: AlgebraInstance, D) -> list[tuple]:
    """Pairs (g, h, residual) where D[g,h] != [Dg,h] + [g,Dh], by
    generator-keyed table lookups over unordered pairs (diagonals included
    under super).  A pair is skipped when its own bracket, or a bracket of
    an image term with the other generator, is window-flagged."""
    out = []
    gens = A.generators
    n = len(gens)
    sup = A.convention == "super"
    value, flagged = pair_values(A), _flagged(A)
    for i in range(n):
        for j in range(i if sup else i + 1, n):
            a, b = gens[i], gens[j]
            if (a, b) in flagged:
                continue
            lhs = _map_apply(A, D, Element(value(a, b)))
            rhs = Element.zero()
            skip = False
            for t, c in map_image(A, D, a).terms.items():
                if (t, b) in flagged:
                    skip = True
                    break
                rhs = rhs + Element(value(t, b)).scale(c)
            if skip:
                continue
            for t, c in map_image(A, D, b).terms.items():
                if (a, t) in flagged:
                    skip = True
                    break
                rhs = rhs + Element(value(a, t)).scale(c)
            if skip:
                continue
            residual = lhs - rhs
            if residual:
                out.append((a, b, residual))
    return out


def check_automorphism(A: AlgebraInstance, phi) -> list[Violation]:
    """Generator pairs g <= h (by position) where phi([g,h]) differs from
    [phi g, phi h], with the two sides, by generator-keyed table lookups
    and the bilinear ``bracket``.  A singular map raises ValueError; a pair is skipped when
    its own bracket or any bracket of image terms is window-flagged."""
    n = A.dim
    if phi.dim != n:
        raise ValueError(f"map dimension {phi.dim} != algebra dimension {n}")
    entries = {
        (i, j): v for j in range(n) for i, v in phi.column(j).items()
    }
    r = len(rational_rref(SparseMatrix(n, n, entries))[0])
    if r < n:
        raise ValueError(f"singular map: rank {r} < {n}")
    out = []
    gens = A.generators
    value, flagged = pair_values(A), _flagged(A)
    for i in range(n):
        for j in range(i, n):
            g, h = gens[i], gens[j]
            if (g, h) in flagged:
                continue
            lhs = _map_apply(A, phi, Element(value(g, h)))
            rhs, clipped = bracket(A, map_image(A, phi, g), map_image(A, phi, h))
            if clipped:
                continue
            if lhs != rhs:
                out.append(Violation((g, h), (lhs, rhs)))
    return out


def naive_cocycle_residual(A: AlgebraInstance, omega) -> bool:
    """True iff the cyclic cocycle sum vanishes on all generator triples.
    ``omega(g, h)`` returns a Fraction; super signs follow the table."""
    gens = A.generators
    n = len(gens)
    sup = A.convention == "super"
    par = A.parity.get
    value = pair_values(A)
    for i in range(n):
        for j in range(i if sup else i + 1, n):
            for k in range(j if sup else j + 1, n):
                x, y, z = gens[i], gens[j], gens[k]
                total = Fraction(0)
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    sign = 1
                    if sup and par(a.family) and par(c.family):
                        sign = -1
                    for t, ct in value(a, b).items():
                        total += sign * ct * omega(t, c)
                if total:
                    return False
    return True


def _constants(dim: int, coeff: dict) -> list:
    """c[i][j][k], 1-based (row and column 0 unused), the coefficient of e_k
    in e_i e_j from a dict of raw structure constants keyed (i, j, k)."""
    r = range(dim + 1)
    return [[[coeff.get((i, j, k), 0) for k in r] for j in r] for i in r]


def _times(c: list, dim: int, x: list, y: list) -> list:
    """x y for dense coefficient vectors x, y (1-based) under constants c;
    zero coefficients are skipped, nothing else."""
    out = [0] * (dim + 1)
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            if x[a] and y[b]:
                for l in range(1, dim + 1):
                    if c[a][b][l]:
                        out[l] += x[a] * y[b] * c[a][b][l]
    return out


def _unit(dim: int, i: int) -> list:
    return [int(t == i) for t in range(dim + 1)]


def _element(v: list) -> Element:
    return Element((gid("e", l), x) for l, x in enumerate(v) if l and x)


def _triple(i: int, j: int, k: int) -> tuple:
    return gid("e", i), gid("e", j), gid("e", k)


def _product_identity(dim: int, coeff: dict, other) -> list[Violation]:
    """Every triple (e_i, e_j, e_k), in nested-loop order, where
    (e_i e_j) e_k differs from ``other(c, i, j, k)``, with the difference."""
    c = _constants(dim, coeff)
    r = range(1, dim + 1)
    out = []
    for i in r:
        for j in r:
            for k in r:
                lhs = _times(c, dim, c[i][j], _unit(dim, k))
                rhs = other(c, i, j, k)
                residual = _element([a - b for a, b in zip(lhs, rhs)])
                if residual:
                    out.append(Violation(_triple(i, j, k), residual))
    return out


def naive_right_commutative(dim: int, coeff: dict) -> list[Violation]:
    """Every triple where (e_i e_j) e_k differs from (e_i e_k) e_j, via raw
    structure constants; coeff maps (i,j,k) to the coefficient of e_k in
    e_i e_j."""
    return _product_identity(
        dim, coeff, lambda c, i, j, k: _times(c, dim, c[i][k], _unit(dim, j))
    )


def naive_associative(dim: int, coeff: dict) -> list[Violation]:
    """Every triple where (e_i e_j) e_k differs from e_i (e_j e_k)."""
    return _product_identity(
        dim, coeff, lambda c, i, j, k: _times(c, dim, _unit(dim, i), c[j][k])
    )


def naive_form_compat(dim: int, coeff: dict, matrix) -> list[Violation]:
    """Every triple where omega(e_i e_j, e_k) differs from omega(e_i, e_j e_k),
    with the two sides, via raw constants; ``matrix`` holds omega(e_a, e_b)
    at [a-1][b-1]."""
    c = _constants(dim, coeff)
    r = range(1, dim + 1)
    out = []
    for i in r:
        for j in r:
            for k in r:
                left = sum(c[i][j][t] * matrix[t - 1][k - 1] for t in r if c[i][j][t])
                right = sum(c[j][k][t] * matrix[i - 1][t - 1] for t in r if c[j][k][t])
                if left != right:
                    sides = (Fraction(left), Fraction(right))
                    out.append(Violation(_triple(i, j, k), sides))
    return out


def naive_product_preserved(
    dim: int, coeff: dict, matrix
) -> list[Violation]:
    """Every ordered pair (e_i, e_j) where phi(e_i e_j) differs from
    phi(e_i) phi(e_j), with the two sides, via raw constants; phi(e_b) = sum over a of
    matrix[a-1][b-1] e_a."""
    c = _constants(dim, coeff)
    r = range(1, dim + 1)
    image = [None] + [[0] + [matrix[a - 1][b - 1] for a in r] for b in r]
    out = []
    for i in r:
        for j in r:
            lhs = [0] * (dim + 1)
            for k in r:
                for l in r:
                    lhs[l] += c[i][j][k] * image[k][l]
            rhs = _times(c, dim, image[i], image[j])
            lhs, rhs = _element(lhs), _element(rhs)
            if lhs != rhs:
                out.append(Violation((gid("e", i), gid("e", j)), (lhs, rhs)))
    return out


def naive_form_cocycle(A: AlgebraInstance, matrix) -> list[Violation]:
    """Every generator triple at positions i <= j <= k where the cyclic sum
    omega([x,y],z) + omega([y,z],x) + omega([z,x],y) of the generators of a
    plain A at those positions is nonzero, with the sum; ``matrix`` holds
    omega(g_a, g_b) at [a-1][b-1]."""
    gens = A.generators
    position = {g: a for a, g in enumerate(gens)}
    value = pair_values(A)
    n = len(gens)
    out = []
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                total = Fraction(0)
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, ct in value(gens[a], gens[b]).items():
                        total += ct * matrix[position[t]][c]
                if total:
                    out.append(Violation((gens[i], gens[j], gens[k]), total))
    return out


def naive_symplectomorphism_residual(form, matrix) -> list[list[Fraction]]:
    """phi^T Omega phi - Omega by dense sums, ``form`` holding omega(e_a, e_b)
    at [a-1][b-1] and phi(e_b) = sum over a of matrix[a-1][b-1] e_a."""
    r = range(len(form))
    return [
        [
            sum(
                Fraction(matrix[k][i]) * form[k][l] * matrix[l][j] for k in r for l in r
            )
            - form[i][j]
            for j in r
        ]
        for i in r
    ]


def brute_force_snla_pass(cs: tuple, dim: int) -> bool:
    """Every SNLA check for one candidate, on raw structure constants with
    early exit: cs lists c_ij^k in slot order (i, then j, then k, 1-based)
    and the form is the standard one, +1 at (i, j) for i < j with
    i + j = dim + 1.  Novikov, associativity, compatibility, the form
    cocycle of the commutator bracket, and two-step solvability."""
    n = dim
    form = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        j = n - 1 - i
        if i < j:
            form[i][j], form[j][i] = Fraction(1), Fraction(-1)

    def c(i, j, k):
        return cs[((i - 1) * n + (j - 1)) * n + (k - 1)]

    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    lhs = sum(c(i, j, t) * c(t, k, l) for t in rng)
                    if lhs != sum(c(i, k, t) * c(t, j, l) for t in rng):
                        return False
                    if lhs != sum(c(j, k, t) * c(i, t, l) for t in rng):
                        return False
    for i in rng:
        for j in rng:
            for k in rng:
                left = sum(c(i, j, t) * form[t - 1][k - 1] for t in rng)
                right = sum(c(j, k, t) * form[i - 1][t - 1] for t in rng)
                if left != right:
                    return False

    def br(a, b, l):
        return c(a, b, l) - c(b, a, l)

    for x in rng:
        for y in rng:
            if y <= x:
                continue
            for z in rng:
                if z <= y:
                    continue
                total = sum(
                    br(a, b, t) * form[t - 1][cc - 1]
                    for a, b, cc in ((x, y, z), (y, z, x), (z, x, y))
                    for t in rng
                )
                if total:
                    return False
    derived = [[br(i, j, l) for l in rng] for i in rng for j in rng if i < j]
    derived = [v for v in derived if any(v)]
    for u in derived:
        for v in derived:
            for l in rng:
                total = sum(
                    u[a - 1] * v[b - 1] * br(a, b, l) for a in rng for b in rng
                )
                if total:
                    return False
    return True


class BruteForceSearch(NamedTuple):
    hits: list[tuple]  # passing coefficient tuples, slot order
    examined: int
    total: int
    partial: bool


def brute_force_snla_search(dim: int, coeffs, budget: Optional[int]) -> BruteForceSearch:
    """Check every tuple over the coefficient set, in lexicographic order
    of the sorted set, stopping after ``budget`` tuples."""
    coeff_list = sorted({Fraction(c) for c in coeffs})
    nslots = dim ** 3
    total = len(coeff_list) ** nslots
    examined = total if budget is None else min(budget, total)
    candidates = itertools.product(coeff_list, repeat=nslots)
    hits = [
        cs
        for cs in itertools.islice(candidates, examined)
        if brute_force_snla_pass(cs, dim)
    ]
    return BruteForceSearch(hits, examined, total, examined < total)


def esvla_w3_cyclic(p, m, r) -> Fraction:
    """Cyclic cocycle sum for the M-Y delta cochain on (L_p, M_m, Y_r).

    Expanded by hand from the displayed formulas: with b = r - 1/2,
    only omega3([L_p,M_m], Y_r) and omega3([Y_r,L_p], M_m) can hit the
    M-Y support, both under the same delta p+m+b+1 = 0, giving
    (m + p/2 - b) on the delta and 0 off it.
    """
    b = Fraction(r) - Fraction(1, 2)
    if p + m + b + 1 != 0:
        return Fraction(0)
    return m + Fraction(p, 2) - b


def list_scan_forward(rows: list[dict[int, int]], ncols: int):
    """Sparse integer forward elimination with no column index: for each
    column, scan every pending row in row order for the first that holds
    it, then combine every other pending row holding it with that row and
    divide each result by the gcd of its entries.  Returns
    ``(pivot_cols, echelon_rows)`` in the shape of the sparse kernel."""
    pending = [dict(row) for row in rows if row]
    done = []
    pivots = []
    for c in range(ncols):
        pr = next((i for i, row in enumerate(pending) if c in row), None)
        if pr is None:
            continue
        prow = pending.pop(pr)
        piv = prow[c]
        for i, row in enumerate(pending):
            f = row.get(c)
            if f is None:
                continue
            new = {}
            for j in set(row) | set(prow):
                v = piv * row.get(j, 0) - f * prow.get(j, 0)
                if v:
                    new[j] = v
            g = 0
            for v in new.values():
                g = gcd(g, v)
            pending[i] = {j: v // g for j, v in new.items()}
        pending = [row for row in pending if row]
        done.append(prow)
        pivots.append(c)
    return pivots, done


def rational_rref(m: SparseMatrix) -> tuple[tuple[int, ...], tuple[dict, ...]]:
    """Reduced row echelon form by Gauss-Jordan elimination on a dense grid
    of Fractions: each pivot row is scaled to 1 and its column cleared in
    every other row at once.  Returns ``(pivot_cols, rows)`` with each row
    as a dict of its nonzero entries, the shape of ``linalg.rref``."""
    grid = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        grid[r][c] = Fraction(v)
    pivots = []
    top = 0
    for c in range(m.cols):
        if top == m.rows:
            break
        pr = next((i for i in range(top, m.rows) if grid[i][c] != 0), None)
        if pr is None:
            continue
        grid[top], grid[pr] = grid[pr], grid[top]
        piv = grid[top][c]
        grid[top] = [v / piv for v in grid[top]]
        for i in range(m.rows):
            if i != top and grid[i][c] != 0:
                f = grid[i][c]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[top])]
        pivots.append(c)
        top += 1
    rows = tuple({c: v for c, v in enumerate(grid[i]) if v} for i in range(top))
    return tuple(pivots), rows


def blockwise_rational_rref(m: SparseMatrix) -> tuple[tuple[int, ...], tuple[dict, ...]]:
    """``rational_rref`` of ``m``, computed block by block: rows that share
    no column, directly or through other rows, span independent column
    sets, so the reduced form of the whole is the union of the blocks'
    reduced forms.  Keeps the dense grids small on large graded systems
    such as the Witt and ESVLA cocycle rows, which split by index sum."""
    parent = list(range(m.cols))

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    rows = [row for row in m.row_dicts() if row]
    for row in rows:
        first, *rest = row
        for c in rest:
            parent[root(c)] = root(first)
    blocks: dict[int, list[dict]] = {}
    for row in rows:
        blocks.setdefault(root(next(iter(row))), []).append(row)
    found = []
    for block in blocks.values():
        cols = sorted({c for row in block for c in row})
        local = {c: i for i, c in enumerate(cols)}
        sub = SparseMatrix.from_rows(
            len(cols), [{local[c]: v for c, v in row.items()} for row in block]
        )
        for p, row in zip(*rational_rref(sub)):
            found.append((cols[p], {cols[i]: v for i, v in row.items()}))
    found.sort(key=lambda item: item[0])
    return tuple(p for p, _ in found), tuple(row for _, row in found)
