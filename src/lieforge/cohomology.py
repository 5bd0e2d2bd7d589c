"""Derivations, 2-cocycles, coboundaries, H2, and central extensions.

All spaces are computed as exact nullspaces or column spans over the
rationals.  On window-truncated instances every constraint whose data was
clipped by the window (a boundary-flagged pair) is skipped and counted, so
truncation can shrink the constraint set but never fabricates or deletes
solutions silently.  Cochains read through the same symmetric lookup as
bracket tables (``algebra.PairTable``), so super-convention cochains are
graded-skew with the bracket's swap sign; parity-mixing pairs are allowed
and their verdicts reported without interpreting the grading.  Triple
identities and constraint rows run on the instance's position-indexed view
(``AlgebraInstance.view``) and visit triples through
``AlgebraInstance.checkable_triples``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from lieforge.algebra import (
    AlgebraInstance,
    BracketTable,
    Element,
    GeneratorId,
    PairTable,
)
from lieforge.linalg import SparseMatrix, rank, rat, rref
from lieforge.linalg import nullspace  # unused; perfbench/trace_run.py LAYERS wraps it


class LinearEndo:
    """Linear self-map in the generator basis.  Column j, the image of
    generator j, is kept as a dict from row position to nonzero coefficient;
    the rest of the package reads a map only through these methods."""

    __slots__ = ("_cols",)

    def __init__(self, rows: list[list]):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self._cols: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                f = rat(v)
                if f:
                    self._cols[j][i] = f

    @classmethod
    def from_columns(cls, cols: list[dict[int, Fraction]]) -> "LinearEndo":
        """The map whose column j is ``cols[j]``, nonzero Fractions keyed by
        row position, kept as given."""
        phi = cls.__new__(cls)
        phi._cols = cols
        return phi

    @classmethod
    def identity(cls, n: int) -> "LinearEndo":
        return cls.from_columns([{j: Fraction(1)} for j in range(n)])

    @property
    def dim(self) -> int:
        return len(self._cols)

    def column(self, j: int) -> Mapping[int, Fraction]:
        """Nonzero entries of column j by row position; read only."""
        return self._cols[j]

    def image(self, basis: Sequence[GeneratorId], j: int) -> Element:
        """The image of ``basis[j]``, written in the same basis."""
        return Element({basis[i]: v for i, v in self._cols[j].items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearEndo) and self._cols == other._cols


class Cochain2(PairTable):
    """Scalar-valued bilinear 2-cochain stored on ordered pairs as written.

    A ``PairTable`` of Fractions: lookup is the bracket table's own
    symmetric extension (skew for plain, graded-skew for super), and
    ``symmetry_violations`` reports stored pairs that contradict it, so
    as-written data remains auditable.
    """

    __slots__ = ()

    zero = staticmethod(Fraction)

    def __init__(
        self,
        parity: Mapping[str, int] = (),
        convention: str = "plain",
        raw: Union[Mapping, Iterable] = (),
    ):
        super().__init__(parity, convention)
        items = raw.items() if isinstance(raw, Mapping) else raw
        for (g, h), v in items:
            f = rat(v)
            if f:
                self.raw[(g, h)] = f

    def symmetry_violations(self) -> list[tuple[GeneratorId, GeneratorId, Fraction]]:
        """Stored pairs violating the symmetry: (g, h, residual) with g <= h,
        residual = stored(h,g) - s*stored(g,h), or (1-s)*stored(g,g)."""
        return sorted(
            self.symmetry_residuals(lambda g: g), key=lambda t: (t[0], t[1])
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain2)
            and self.convention == other.convention
            and self.raw == other.raw
        )


def ad_matrix(A: AlgebraInstance, x: Union[GeneratorId, Element]) -> LinearEndo:
    """The map ad_x = [x, -] in the generator basis."""
    if isinstance(x, GeneratorId):
        x = Element.of(x)
    cols: list[dict[int, Fraction]] = [{} for _ in range(A.dim)]
    for g, c in x.terms.items():
        for col, pair in zip(cols, A.view.terms[A.position(g)]):
            for t, ct in pair:
                col[t] = col.get(t, 0) + c * ct
    return LinearEndo.from_columns(
        [{t: v for t, v in col.items() if v} for col in cols]
    )


def _pair_iter(A: AlgebraInstance):
    """Unordered position pairs; diagonals included under super (an odd
    generator may bracket with itself)."""
    if A.table.convention == "super":
        return itertools.combinations_with_replacement(range(A.dim), 2)
    return itertools.combinations(range(A.dim), 2)


def derivation_space(
    A: AlgebraInstance, grade_restriction: Optional[object] = None
) -> list[LinearEndo]:
    """Basis of {D : D[g,h] = [Dg,h] + [g,Dh] on every checkable pair}.

    grade_restriction = r keeps only matrix entries sending a generator of
    index i to generators of index i + r (r = 0 gives grade-preserving
    maps).  Under the super convention entries always stay parity-pure:
    mixing parities would need sign conventions the audited identities do
    not define.  Pairs with window-clipped brackets are skipped.
    """
    shift = None if grade_restriction is None else rat(grade_restriction)
    gens = A.generators
    n = A.dim
    terms, flagged, odd = A.view.terms, A.view.flagged, A.view.odd
    sup = A.table.convention == "super"

    # unknowns[(i, j)]: the entry D[i][j]; column[j] maps i to its unknown
    unknowns: dict[tuple[int, int], int] = {}
    column: list[dict[int, int]] = [{} for _ in range(n)]
    for j, g in enumerate(gens):
        for i, t in enumerate(gens):
            if shift is not None and t.index - g.index != shift:
                continue
            if sup and odd[i] != odd[j]:
                continue
            unknowns[(i, j)] = column[j][i] = len(unknowns)
    if not unknowns:
        return []

    rows: list[dict[int, Fraction]] = []
    for a, b in _pair_iter(A):
        if b in flagged[a]:
            continue
        col_a, col_b = column[a], column[b]
        if any(i in flagged[b] for i in col_a) or any(
            i in flagged[a] for i in col_b
        ):
            continue
        # componentwise D(v) - [Da,b] - [a,Db] = 0, one row per component
        comp: dict[int, dict[int, Fraction]] = {}

        def put(component: int, u: int, c: Fraction):
            row = comp.setdefault(component, {})
            row[u] = row.get(u, Fraction(0)) + c
            if not row[u]:
                del row[u]

        for t, c in terms[a][b]:
            for i, u in column[t].items():
                put(i, u, c)
        for i in sorted(col_a.keys() | col_b.keys()):
            u = col_a.get(i)
            if u is not None:
                for k, ck in terms[i][b]:
                    put(k, u, -ck)
            u = col_b.get(i)
            if u is not None:
                for k, ck in terms[a][i]:
                    put(k, u, -ck)
        rows.extend(r for r in comp.values() if r)

    entries = {
        (r, u): v for r, row in enumerate(rows) for u, v in row.items()
    }
    m = SparseMatrix(max(len(rows), 1), len(unknowns), entries)
    index_of = list(unknowns)  # unknown u is entry index_of[u] = (i, j)
    basis = []
    for vec in rref(m).kernel(len(unknowns)):
        cols: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for u, val in vec.items():
            i, j = index_of[u]
            cols[j][i] = val
        basis.append(LinearEndo.from_columns(cols))
    return basis


def inner_split(
    A: AlgebraInstance,
    ders: list[LinearEndo],
    ad_generators: Optional[list[GeneratorId]] = None,
) -> tuple[int, int]:
    """(inner_dim, outer_dim) for a derivation-space basis.

    inner_dim is the dimension of the intersection of span{ad_g} with the
    given space; when every ad map is itself a derivation (Jacobi holds)
    this equals dim span{ad_g} = dim A - dim center(A).
    """
    if not ders:
        return 0, 0
    n = A.dim
    gens = ad_generators if ad_generators is not None else A.generators

    def nonzero_entries(D: LinearEndo) -> dict[int, Fraction]:
        # entry (i, j) of the map sits in column i * n + j of the rank rows
        return {i * n + j: v for j in range(n) for i, v in D.column(j).items()}

    def rank_of(rows: list[dict[int, Fraction]]) -> int:
        if not rows:
            return 0
        entries = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
        return rank(SparseMatrix(len(rows), n * n, entries))

    ad_rows = [nonzero_entries(ad_matrix(A, g)) for g in gens]
    der_rows = [nonzero_entries(d) for d in ders]
    r_ad = rank_of(ad_rows)
    r_der = rank_of(der_rows)
    r_union = rank_of(ad_rows + der_rows)
    inner = r_ad + r_der - r_union
    return inner, r_der - inner


def _cochain_unknowns(A: AlgebraInstance, grade_zero: bool) -> dict[int, int]:
    """Canonical unknown slots keyed i * dim + j for position pairs i <= j,
    diagonal only for odd generators under super, optionally restricted to
    index-sum 0."""
    sup = A.table.convention == "super"
    gens, odd, n = A.generators, A.view.odd, A.dim
    out: dict[int, int] = {}
    for i, g in enumerate(gens):
        for j in range(i, n):
            if i == j and not (sup and odd[i]):
                continue
            if grade_zero and g.index + gens[j].index != 0:
                continue
            out[i * n + j] = len(out)
    return out


def _cochain_from_vector(
    A: AlgebraInstance, slots: list[int], vec: Mapping[int, Fraction]
) -> Cochain2:
    """The cochain with value ``vec[u]`` on slot ``slots[u]`` (nonzeros only)."""
    gens = A.generators
    raw = {}
    for u in sorted(vec):
        i, j = divmod(slots[u], A.dim)
        raw[(gens[i], gens[j])] = vec[u]
    return Cochain2(A.table.parity, A.table.convention, raw)


def _cocycle_rows(A: AlgebraInstance, unknowns: dict[int, int]):
    """Linear constraint rows of the cyclic cocycle identity, one candidate
    row per checkable triple, expressed over the unknown pair slots."""
    sup = A.table.convention == "super"
    terms, odd, n = A.view.terms, A.view.odd, A.dim
    rows = []
    for x, y, z in A.checkable_triples("all", repeats=sup):
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


def cocycle2_space(A: AlgebraInstance, grade_zero: bool = False) -> list[Cochain2]:
    """Basis of Z2: cochains with vanishing cyclic sum on all checkable
    triples (graded signs under super)."""
    unknowns = _cochain_unknowns(A, grade_zero)
    if not unknowns:
        return []
    rows = _cocycle_rows(A, unknowns)
    entries = {
        (r, u): v for r, row in enumerate(rows) for u, v in row.items()
    }
    m = SparseMatrix(max(len(rows), 1), len(unknowns), entries)
    slots = list(unknowns)
    return [_cochain_from_vector(A, slots, v) for v in rref(m).kernel(m.cols)]


def coboundary2_space(A: AlgebraInstance, grade_zero: bool = False) -> list[Cochain2]:
    """Basis of B2 = {delta f : f a 1-cochain}, delta f(x,y) = f([x,y]).

    With grade_zero, f runs over duals of index-0 generators only (the
    grade-preserving 1-cochains), matching the grade-zero Z2 support.
    """
    unknowns = _cochain_unknowns(A, grade_zero)
    if not unknowns:
        return []
    # vector of delta(dual of g_k) over the unknown slots, for each dual k
    duals: dict[int, dict[int, Fraction]] = {
        k: {} for k, t in enumerate(A.generators) if not grade_zero or t.index == 0
    }
    terms = A.view.terms
    for key, u in unknowns.items():
        i, j = divmod(key, A.dim)
        for k, c in terms[i][j]:
            vec = duals.get(k)
            if vec is not None:
                vec[u] = c
    vectors = [vec for vec in duals.values() if vec]
    if not vectors:
        return []
    entries = {(r, u): c for r, vec in enumerate(vectors) for u, c in vec.items()}
    ech = rref(SparseMatrix(len(vectors), len(unknowns), entries))
    slots = list(unknowns)
    return [_cochain_from_vector(A, slots, row) for row in ech.rows]


def h2_dimension(A: AlgebraInstance, grade_zero: bool = False) -> int:
    """dim Z2 - dim B2 (0 immediately for dim <= 1 algebras)."""
    if A.dim <= 1:
        return 0
    return len(cocycle2_space(A, grade_zero)) - len(coboundary2_space(A, grade_zero))


@dataclass(frozen=True)
class CocycleViolation:
    triple: tuple[GeneratorId, GeneratorId, GeneratorId]
    residual: Fraction


@dataclass
class CocycleAudit:
    scope: str
    examined: int
    skipped_boundary: int
    violations: list[CocycleViolation]


def cocycle_audit(
    A: AlgebraInstance, omega: Cochain2, scope: str = "interior"
) -> CocycleAudit:
    """Evaluate the cyclic cocycle identity for a concrete cochain."""
    return _cocycle_audit(A, omega, scope, A.table.convention == "super")


def _cocycle_audit(
    A: AlgebraInstance, omega: Cochain2, scope: str, repeats: bool
) -> CocycleAudit:
    """cocycle_audit with the triple repeats chosen by the caller."""
    sup = A.table.convention == "super"
    terms, odd, n = A.view.terms, A.view.odd, A.dim
    om = A.indexed_values(omega)
    triples = A.checkable_triples(scope, repeats)
    examined = 0
    violations = []
    for t in triples:
        x, y, z = t
        total = 0
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            part = 0
            for k, ck in terms[a][b]:
                w = om.get(k * n + c)
                if w is not None:
                    part += ck * w
            if sup and odd[a] and odd[c]:
                total -= part
            else:
                total += part
        examined += 1
        if total:
            violations.append(CocycleViolation(A.generators_at(t), total))
    return CocycleAudit(scope, examined, triples.skipped, violations)


def check_cocycle(
    A: AlgebraInstance, omega: Cochain2, scope: str = "interior"
) -> list[CocycleViolation]:
    return cocycle_audit(A, omega, scope).violations


def central_extension(
    A: AlgebraInstance, omega: Cochain2, center_family: str = "Z"
) -> AlgebraInstance:
    """Adjoin a central generator z and twist the bracket by omega:
    [x,y]_ext = [x,y] + omega(x,y) z.  The cochain is not required to be
    closed; Jacobi on the result reports any failure."""
    fam = center_family
    existing = {g.family for g in A.generators}
    k = 0
    while fam in existing:
        k += 1
        fam = f"{center_family}{k}"
    z = GeneratorId(fam, 0)

    parity = dict(A.table.parity)
    parity[fam] = 0
    table = BracketTable(parity, A.table.convention)
    for (g, h), v in A.table.raw.items():
        w = omega.value(g, h)
        table.assign(g, h, (v + Element.of(z, w)) if w else v)
    for (g, h), w in omega.raw.items():
        if (g, h) not in A.table.raw and w:
            table.assign(g, h, Element.of(z, w))

    return AlgebraInstance(
        A.name + "+z",
        list(A.generators) + [z],
        table,
        window=A.window,
        interior_margin=A.interior_margin,
        boundary_pairs=A.boundary_pairs,
        dropped_terms=A.dropped_terms,
        findings=list(A.findings),
        metadata={**A.metadata, "extension_of": A.name, "center_generator": str(z)},
    )
