"""Derivations, 2-cocycles, coboundaries, H2, and central extensions.

All spaces are computed as exact nullspaces or column spans over the
rationals.  On window-truncated instances every constraint whose data was
clipped by the window (a boundary-flagged pair) is skipped and counted, so
truncation can shrink the constraint set but never fabricates or deletes
solutions silently.  Cochains and the unknown slots of a 2-cochain system
are read by the bracket's own as-written rule, ``algebra.extend_as_written``,
so super-convention cochains are graded-skew; parity-mixing pairs are
allowed and their verdicts reported without interpreting the grading.  The
cyclic cocycle sum is written once, in ``cyclic_sums``: the 2-cocycle rows
run it on the slots' reading, and ``cyclic_audit``, the one audit body of
``cocycle_audit`` and ``snla.symplectic_cocycle_audit``, on a cochain's
reading or on the form's rows, each reading one
(column, integer coefficient) per ordered position pair, over the triples
``algebra.TripleScan`` gives for the reading's pairs.  All of it
runs on the position-indexed view (``AlgebraInstance.view``), whose integer
terms share the denominator ``view.scale``: rows are assembled over it
(scaling a row changes no row echelon form) and values are divided once,
where they are reported.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from lieforge.algebra import (
    AlgebraInstance,
    Audit,
    Element,
    GeneratorId,
    TripleScan,
    extend_as_written,
    swap_sign,
)
from lieforge.linalg import SparseMatrix, echelon, rank, rat, rref
from lieforge.linalg import nullspace  # unused; perfbench/trace_run.py LAYERS wraps it

# Most unknowns a derivation or 2-cochain system may have, checked before
# any row is assembled.  Whole-window systems grow as dim**2 (derivations)
# and dim**2 / 2 (cochains), so the largest accepted dimension, 2,047, would
# give millions.  Near the bound, Witt cohomology at W=127 (32,385 unknowns)
# takes about 9 s and Witt derivations at W=90 (32,761) about 3 s.
MAX_UNKNOWNS = 32768


def _refuse_unknowns(count: int) -> None:
    """Refuse a system of ``count`` unknowns, or of at least that many, when
    it exceeds MAX_UNKNOWNS."""
    if count > MAX_UNKNOWNS:
        raise ValueError(f"the system has more than {MAX_UNKNOWNS} unknowns")


def _tally(A: AlgebraInstance, by_index: bool, by_parity: bool) -> dict:
    """How many generators of A have each (doubled index, parity), an index
    read as 0 unless ``by_index`` and a parity as even unless ``by_parity``;
    the unknown counts are read from it in O(dim), before any slot is made."""
    tally: dict[tuple[int, bool], int] = {}
    for g, odd in zip(A.generators, A.view.odd):
        key = (g.doubled_index if by_index else 0, odd and by_parity)
        tally[key] = tally.get(key, 0) + 1
    return tally


def refuse_whole_window(dim: int) -> None:
    """Refuse, before it is built, an instance of dimension ``dim`` whose
    whole-window derivation and 2-cochain systems, of at least
    dim * (dim - 1) / 2 unknowns each, exceed MAX_UNKNOWNS."""
    _refuse_unknowns(dim * (dim - 1) // 2)


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


class Cochain2:
    """Scalar-valued bilinear 2-cochain stored on ordered pairs as written.

    It is read by the bracket's own rule, ``algebra.extend_as_written``
    (skew for plain, graded-skew for super); ``parity`` maps family symbol to
    0 or 1, unlisted families even.  ``symmetry_audit`` reports stored
    pairs that contradict the symmetry, so as-written data remains auditable.
    ``raw`` is read only, since the reading is built from it on first use.
    Two cochains are equal when they read the same.
    """

    __slots__ = ("parity", "convention", "raw", "_reading")

    def __init__(
        self,
        parity: Mapping[str, int] = (),
        convention: str = "plain",
        raw: Union[Mapping, Iterable] = (),
    ):
        if convention not in ("plain", "super"):
            raise ValueError(f"unknown convention {convention!r}")
        self.parity = dict(parity)
        self.convention = convention
        stored: dict[tuple[GeneratorId, GeneratorId], Fraction] = {}
        items = raw.items() if isinstance(raw, Mapping) else raw
        for (g, h), v in items:
            f = rat(v)
            if f:
                stored[(g, h)] = f
        self.raw = MappingProxyType(stored)
        self._reading = None

    def swap_sign(self, g: GeneratorId, h: GeneratorId) -> int:
        """Sign s with value(h, g) = s * value(g, h)."""
        return swap_sign(self.convention, self._odd(g), self._odd(h))

    def _odd(self, g: GeneratorId) -> int:
        return self.parity.get(g.family, 0)

    def _read(self) -> Mapping[tuple[GeneratorId, GeneratorId], Fraction]:
        """omega on every ordered pair it reads nonzero; read only."""
        if self._reading is None:
            self._reading = dict(self.raw)
            self._reading.update(extend_as_written(self.raw, self.convention, self._odd))
        return self._reading

    def value(self, g: GeneratorId, h: GeneratorId) -> Fraction:
        """omega(g,h) as stored, extending a one-sided entry by symmetry."""
        return self._read().get((g, h), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain2)
            and self.convention == other.convention
            and self._read() == other._read()
        )


def symmetry_audit(omega: Cochain2, A: AlgebraInstance, found=None) -> Audit:
    """The pairs g <= h (by generator order) that omega stores both ways,
    diagonals included, audited as ``algebra.check_alternating`` audits a
    bracket's: each such pair examined, and an entry for each that breaks
    the symmetry, its positions in A and its residual
    stored(h,g) - s*stored(g,h), or (1-s)*stored(g,g), a Fraction over 1,
    handed to the sink ``found``."""
    audit = extend_as_written(omega.raw, omega.convention, omega._odd, audit=True)
    found = [] if found is None else found
    for g, h, r in audit:
        if r:
            found.append(((A.position(g), A.position(h)), r))
    return Audit(len(audit), 0, found, 1, A.generators)


def ad_matrix(A: AlgebraInstance, x: Union[GeneratorId, Element]) -> LinearEndo:
    """The map ad_x = [x, -] in the generator basis."""
    if isinstance(x, GeneratorId):
        x = Element.of(x)
    cols: list[dict[int, Fraction]] = [{} for _ in range(A.dim)]
    for g, c in x.terms.items():
        for col, pair in zip(cols, A.view.terms[A.position(g)]):
            for t, ct in pair:
                col[t] = col.get(t, 0) + c * ct
    scale = A.view.scale
    return LinearEndo.from_columns(
        [{t: v / scale for t, v in col.items() if v} for col in cols]
    )


def _pair_iter(A: AlgebraInstance):
    """Unordered position pairs; diagonals included under super (an odd
    generator may bracket with itself)."""
    if A.convention == "super":
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
    shift = None  # doubled, like GeneratorId.doubled_index
    if grade_restriction is not None:
        doubled = 2 * rat(grade_restriction)
        if doubled.denominator != 1:
            return []  # no two indices differ by a non-half-integer
        shift = int(doubled)
    index = [g.doubled_index for g in A.generators]
    n = A.dim
    terms, flagged, odd = A.view.terms, A.view.flagged, A.view.odd
    sup = A.convention == "super"

    # one unknown per j and i of index index[j] + shift and, under super,
    # the parity of j
    tally = _tally(A, shift is not None, sup)
    _refuse_unknowns(
        sum(c * tally.get((d + (shift or 0), p), 0) for (d, p), c in tally.items())
    )
    # unknowns[(i, j)]: the entry D[i][j]; column[j] maps i to its unknown
    unknowns: dict[tuple[int, int], int] = {}
    column: list[dict[int, int]] = [{} for _ in range(n)]
    for j in range(n):
        for i in range(n):
            if shift is not None and index[i] - index[j] != shift:
                continue
            if sup and odd[i] != odd[j]:
                continue
            unknowns[(i, j)] = column[j][i] = len(unknowns)
    if not unknowns:
        return []

    rows: list[dict[int, int]] = []  # over view.scale, like the terms
    for a, b in _pair_iter(A):
        col_a, col_b = column[a], column[b]
        if b in flagged[a] or not (
            flagged[b].isdisjoint(col_a) and flagged[a].isdisjoint(col_b)
        ):
            continue
        # componentwise D[a,b] - [Da,b] - [a,Db] = 0, one row per component:
        # each (component, unknown, coefficient) contribution in one pass
        comp: dict[int, dict[int, int]] = {}
        for k, u, c in itertools.chain(
            ((i, u, c) for t, c in terms[a][b] for i, u in column[t].items()),
            ((k, u, -ck) for i, u in col_a.items() for k, ck in terms[i][b]),
            ((k, u, -ck) for i, u in col_b.items() for k, ck in terms[a][i]),
        ):
            row = comp.setdefault(k, {})
            row[u] = row.get(u, 0) + c
        for row in comp.values():
            if row := {u: c for u, c in row.items() if c}:
                rows.append(row)

    m = SparseMatrix.from_rows(len(unknowns), rows)
    index_of = list(unknowns)  # unknown u is entry index_of[u] = (i, j)
    basis = []
    for vec in rref(m).kernel(m.cols):
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
    n = A.dim
    gens = ad_generators if ad_generators is not None else A.generators

    def nonzero_entries(D: LinearEndo) -> dict[int, Fraction]:
        # entry (i, j) of the map sits in column i * n + j of the rank rows
        return {i * n + j: v for j in range(n) for i, v in D.column(j).items()}

    ad_rows = [nonzero_entries(ad_matrix(A, g)) for g in gens]
    der_rows = [nonzero_entries(d) for d in ders]
    r_ad = rank(SparseMatrix.from_rows(n * n, ad_rows))
    r_der = len(ders)  # a basis: its vectors are independent
    r_union = rank(SparseMatrix.from_rows(n * n, ad_rows + der_rows))
    inner = r_ad + r_der - r_union
    return inner, r_der - inner


def _cochain_unknowns(A: AlgebraInstance, grade_zero: bool) -> dict[int, int]:
    """Canonical unknown slots keyed i * dim + j for position pairs i <= j,
    diagonal only where the swap sign is +1 (odd generators under super),
    optionally restricted to index-sum 0."""
    odd, n = A.view.odd, A.dim
    index = [g.doubled_index for g in A.generators]
    # the pairs i < j of index sum 0 are half the ordered pairs i != j; the
    # diagonals are the odd generators of index 0 when their sign is +1
    width = _tally(A, grade_zero, False)
    pairs = sum(c * width.get((-d, False), 0) for (d, _), c in width.items())
    pairs = (pairs - width.get((0, False), 0)) // 2
    diagonals = 0
    if swap_sign(A.convention, True, True) == 1:
        diagonals = _tally(A, grade_zero, True).get((0, True), 0)
    _refuse_unknowns(pairs + diagonals)
    out: dict[int, int] = {}
    for i in range(n):
        for j in range(i, n):
            if i == j and swap_sign(A.convention, odd[i], odd[i]) != 1:
                continue
            if grade_zero and index[i] + index[j] != 0:
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
    return Cochain2(A.parity, A.convention, raw)


def cyclic_sums(
    A: AlgebraInstance, triples: TripleScan, reading: Mapping[int, tuple[int, int]]
) -> Iterator[tuple[tuple[int, int, int], dict[int, int]]]:
    """Each triple with its nonzero row of the cyclic cocycle sum
    omega([x,y],z) + s*omega([y,z],x) + s'*omega([z,x],y), graded signs under
    super, where omega on the ordered position pair keyed i * dim + j reads
    as ``reading``: (column, integer coefficient), or nothing when zero."""
    sup = A.convention == "super"
    terms, odd, n = A.view.terms, A.view.odd, A.dim
    for t in triples:
        x, y, z = t
        row: dict[int, int] = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            sign = -1 if sup and odd[a] and odd[c] else 1
            for k, ck in terms[a][b]:
                if (slot := reading.get(k * n + c)) is None:
                    continue
                u, w = slot
                if v := row.get(u, 0) + sign * ck * w:
                    row[u] = v
                else:
                    del row[u]
        if row:
            yield t, row


def _slot_reading(A: AlgebraInstance, unknowns: dict[int, int]) -> dict[int, tuple]:
    """The unknown slots as a reading for ``cyclic_sums``: each canonical
    slot (i, j), i <= j, reads (its unknown, 1), and ``extend_as_written``
    gives its reverse (j, i) the swap sign."""
    n = A.dim
    reading = {key: (u, 1) for key, u in unknowns.items()}
    written = dict.fromkeys(map(divmod, unknowns, itertools.repeat(n)), 1)
    for (j, i), s in extend_as_written(written, A.convention, A.view.odd.__getitem__):
        reading[j * n + i] = (unknowns[i * n + j], s)
    return reading


def _cocycle_rows(A: AlgebraInstance, unknowns: dict[int, int]) -> Iterator[dict[int, int]]:
    """Rows of the cyclic cocycle identity over the unknown pair slots: the
    nonzero row of each checkable triple, in triple order, with integer
    coefficients over ``A.view.scale``.  The slots' reading is the support."""
    reading, n = _slot_reading(A, unknowns), A.dim
    triples = TripleScan(A, "all", A.convention == "super", (divmod(k, n) for k in reading))
    return (row for _, row in cyclic_sums(A, triples, reading))


def _coboundary_vectors(
    A: AlgebraInstance, unknowns: dict[int, int], grade_zero: bool
) -> list[dict[int, int]]:
    """delta(dual of g_k) over the unknown slots, over ``A.view.scale``, for
    each dual k (index-0 generators only with grade_zero) whose coboundary
    reads a slot."""
    duals: dict[int, dict[int, int]] = {
        k: {} for k, t in enumerate(A.generators) if not grade_zero or t.doubled_index == 0
    }
    terms = A.view.terms
    for key, u in unknowns.items():
        i, j = divmod(key, A.dim)
        for k, c in terms[i][j]:
            vec = duals.get(k)
            if vec is not None:
                vec[u] = c
    return [vec for vec in duals.values() if vec]


def cocycle2_space(A: AlgebraInstance, grade_zero: bool = False) -> list[Cochain2]:
    """Basis of Z2: cochains with vanishing cyclic sum on all checkable
    triples (graded signs under super).  The rows stream into ``echelon``
    as they are built, so none is held."""
    unknowns = _cochain_unknowns(A, grade_zero)
    ech = echelon(len(unknowns), _cocycle_rows(A, unknowns))
    slots = list(unknowns)
    return [_cochain_from_vector(A, slots, v) for v in ech.kernel(len(slots))]


def coboundary2_space(A: AlgebraInstance, grade_zero: bool = False) -> list[Cochain2]:
    """Basis of B2 = {delta f : f a 1-cochain}, delta f(x,y) = f([x,y]).

    With grade_zero, f runs over duals of index-0 generators only (the
    grade-preserving 1-cochains), matching the grade-zero Z2 support.
    """
    unknowns = _cochain_unknowns(A, grade_zero)
    vectors = _coboundary_vectors(A, unknowns, grade_zero)
    ech = rref(SparseMatrix.from_rows(len(unknowns), vectors))
    slots = list(unknowns)
    return [_cochain_from_vector(A, slots, row) for row in ech.rows]


def h2_dimension(A: AlgebraInstance, grade_zero: bool = False) -> int:
    """dim Z2 - dim B2 on every instance, counted from the ranks of the two
    systems the bases are read from: no basis cochain is built."""
    unknowns = _cochain_unknowns(A, grade_zero)
    z2 = len(unknowns) - len(echelon(len(unknowns), _cocycle_rows(A, unknowns)).pivots)
    vectors = _coboundary_vectors(A, unknowns, grade_zero)
    return z2 - rank(SparseMatrix.from_rows(len(unknowns), vectors))


def _integer_reading(
    A: AlgebraInstance, omega: Cochain2
) -> tuple[dict[int, tuple[int, int]], int]:
    """omega's reading on the ordered position pairs (i, j) of A, keyed
    i * dim + j, as ``cyclic_sums`` reads it: (column 0, nonzero integer over
    their common denominator e); and e.  A pair naming a generator A lacks
    is refused."""
    reading, n = omega._read(), A.dim
    e = lcm(*(w.denominator for w in reading.values()))
    try:
        return {
            A.position(g) * n + A.position(h): (0, w.numerator * (e // w.denominator))
            for (g, h), w in reading.items()
        }, e
    except ValueError as err:
        raise ValueError(f"the cochain reads a pair outside the instance: {err}") from None


def cocycle_audit(
    A: AlgebraInstance, omega: Cochain2, scope: str = "interior", found=None
) -> Audit:
    """Evaluate the cyclic cocycle identity for a concrete cochain, with
    repeated generators in a triple under super only, as Jacobi does.
    ``found`` is the sink of the violations, as for ``jacobi_audit``: any
    object with ``append`` and ``len``, a new list when None."""
    reading, e = _integer_reading(A, omega)
    return cyclic_audit(A, reading, e, scope, A.convention == "super", found)


def cyclic_audit(
    A: AlgebraInstance, reading: Mapping, e: int, scope: str, repeats: bool, found=None
) -> Audit:
    """The audit of the cyclic cocycle sum of a scalar cochain whose
    ``reading`` (as ``cyclic_sums`` reads it, in column 0) is over ``e``:
    the triples of the scope that ``TripleScan`` gives for the reading's
    pairs, each entry the triple and its sum, an int over scale * e."""
    n = A.dim
    triples = TripleScan(A, scope, repeats, (divmod(k, n) for k in reading))
    found = [] if found is None else found
    for t, row in cyclic_sums(A, triples, reading):
        found.append((t, row[0]))
    return Audit(
        triples.checkable, triples.skipped, found, A.view.scale * e, A.generators
    )


def central_extension(A: AlgebraInstance, omega: Cochain2) -> AlgebraInstance:
    """Adjoin a central generator z and twist the bracket by omega:
    [x,y]_ext = [x,y] + omega(x,y) z, written on the pairs A was given as
    written and on every pair omega reads nonzero, so z's column is omega's
    reading.  The generator is Z[0], or Z1[0], Z2[0], ... when the family
    name is taken.  The cochain is not required to be closed; Jacobi on the
    result reports any failure."""
    fam = "Z"
    existing = {g.family for g in A.generators}
    k = 0
    while fam in existing:
        k += 1
        fam = f"Z{k}"
    z = GeneratorId(fam, 0)

    gens, terms, scale, n = A.generators, A.view.terms, A.view.scale, A.dim
    om, e = _integer_reading(A, omega)
    pairs = dict.fromkeys(A.view.written)
    pairs.update(dict.fromkeys(divmod(key, n) for key in om))
    entries: dict[tuple[GeneratorId, GeneratorId], dict[GeneratorId, Fraction]] = {}
    for i, j in pairs:
        value = entries[(gens[i], gens[j])] = {gens[k]: c for k, c in terms[i][j]}
        value[z] = Fraction(om.get(i * n + j, (0, 0))[1] * scale, e)

    return AlgebraInstance(
        A.name + "+z",
        list(gens) + [z],
        entries,
        scale,
        {**A.parity, fam: 0},
        A.convention,
        window=A.window,
        interior_margin=A.interior_margin,
        boundary_pairs=A.boundary_pairs,
        dropped_terms=A.dropped_terms,
        findings=A.findings,
    )
