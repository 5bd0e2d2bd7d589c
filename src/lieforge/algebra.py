"""Generators, elements, bracket tables, and structural checks.

``PairTable`` is the one symmetric-extension lookup: values stay keyed by
ordered generator pair exactly as assigned, and a missing direction is read
through the convention's symmetry (plain: [h,g] = -[g,h]; super:
[h,g] = -(-1)^{|g||h|}[g,h]).  ``BracketTable`` (Element values) and
``cohomology.Cochain2`` (scalar values) are its two kinds, so a table given
only one side of each pair is always symmetric-consistent, while one assigned
on both sides, or on a diagonal, can violate the convention and
``PairTable.symmetry_residuals`` says exactly where.

Each ``AlgebraInstance`` compiles its table once into an ``IndexedView``:
the symmetric-extended structure constants, window flags, parities and
interior generators, all indexed by generator position.  Every triple
identity visits position triples through one enumerator,
``AlgebraInstance.checkable_triples``, and works on plain ints, building
generator objects only for what it reports.  Window-truncated instances never
treat a dropped (out-of-window) bracket result as zero: evaluations touching
such a pair raise a boundary flag, and the enumerator skips and counts those
triples instead of reporting fake residuals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional

from lieforge.linalg import SparseMatrix, rat, rref
from lieforge.linalg import nullspace  # unused; perfbench/trace_run.py LAYERS wraps it

EVEN = 0


@dataclass(frozen=True, order=True)
class GeneratorId:
    """A basis generator: family symbol plus doubled index.

    The index is stored doubled so half-integer indices stay exact ints:
    doubled_index 3 means index 3/2, doubled_index 4 means index 2.
    """

    family: str
    doubled_index: int

    @property
    def index(self) -> Fraction:
        return Fraction(self.doubled_index, 2)

    def index_str(self) -> str:
        if self.doubled_index % 2 == 0:
            return str(self.doubled_index // 2)
        return f"{self.doubled_index}/2"

    def __str__(self) -> str:
        return f"{self.family}[{self.index_str()}]"


def gid(family: str, index) -> GeneratorId:
    """Build a GeneratorId from an actual (possibly half-integer) index."""
    d = rat(index) * 2
    if d.denominator != 1:
        raise ValueError(f"index {index} is not an integer or half-integer")
    return GeneratorId(family, int(d))


class Element:
    """Sparse rational linear combination of generators."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[GeneratorId, object] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        store: dict[GeneratorId, Fraction] = {}
        for g, c in items:
            f = rat(c)
            if f:
                store[g] = store.get(g, Fraction(0)) + f
                if not store[g]:
                    del store[g]
        self.terms = store

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def of(cls, g: GeneratorId, coeff=1) -> "Element":
        return cls({g: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for g, c in other.terms.items():
            v = out.get(g, Fraction(0)) + c
            if v:
                out[g] = v
            elif g in out:
                del out[g]
        res = Element.__new__(Element)
        res.terms = out
        return res

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1)

    def scale(self, c) -> "Element":
        f = rat(c)
        if not f:
            return Element.zero()
        res = Element.__new__(Element)
        res.terms = {g: v * f for g, v in self.terms.items()}
        return res

    def __rmul__(self, c) -> "Element":
        return self.scale(c)

    def sorted_terms(self) -> list[tuple[GeneratorId, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for g, c in self.sorted_terms():
            if c == 1:
                parts.append(str(g))
            elif c == -1:
                parts.append(f"-{g}")
            else:
                parts.append(f"{c}*{g}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Element({self})"


class PairTable:
    """Values on ordered generator pairs, stored exactly as assigned and read
    through the convention's symmetry.

    ``parity`` maps family symbol to 0 (even) or 1 (odd); unlisted families
    are even.  ``convention`` is "plain" or "super".  Subclasses fix the
    value type through ``zero()``, the value of a pair stored in neither
    direction; values must support ``int * value``.
    """

    __slots__ = ("parity", "convention", "raw")

    def __init__(self, parity: Mapping[str, int] = (), convention: str = "plain"):
        if convention not in ("plain", "super"):
            raise ValueError(f"unknown convention {convention!r}")
        self.parity = dict(parity.items() if isinstance(parity, Mapping) else parity)
        self.convention = convention
        self.raw: dict = {}

    def family_parity(self, family: str) -> int:
        return self.parity.get(family, EVEN)

    def swap_sign(self, g: GeneratorId, h: GeneratorId) -> int:
        """Sign s with v(h,g) = s*v(g,h) under this table's convention."""
        if self.convention == "super":
            if self.family_parity(g.family) and self.family_parity(h.family):
                return 1
        return -1

    def value(self, g: GeneratorId, h: GeneratorId):
        """v(g,h) as stored, extending a one-sided entry by symmetry."""
        v = self.raw.get((g, h))
        if v is not None:
            return v
        w = self.raw.get((h, g))
        if w is not None:
            return self.swap_sign(h, g) * w
        return self.zero()

    def symmetry_residuals(
        self, order: Callable[[GeneratorId], object]
    ) -> list[tuple[GeneratorId, GeneratorId, object]]:
        """Stored pairs contradicting the symmetry, as (a, b, residual) with
        order(a) <= order(b): residual = v(b,a) - s*v(a,b) for a pair stored
        in both directions, (1-s)*v(a,a) on a diagonal.  Unsorted."""
        seen: set[tuple[GeneratorId, GeneratorId]] = set()
        out = []
        for g, h in self.raw:
            a, b = (g, h) if order(g) <= order(h) else (h, g)
            if (a, b) in seen:
                continue
            seen.add((a, b))
            s = self.swap_sign(a, b)
            if a == b:
                residual = (1 - s) * self.raw[(a, a)]
            else:
                v_ab = self.raw.get((a, b))
                v_ba = self.raw.get((b, a))
                if v_ab is None or v_ba is None:
                    continue
                residual = v_ba - s * v_ab
            if residual:
                out.append((a, b, residual))
        return out


class BracketTable(PairTable):
    """Structure constants: Element values stored exactly as assigned."""

    zero = staticmethod(Element.zero)

    def assign(self, g: GeneratorId, h: GeneratorId, value: Element) -> None:
        if (g, h) in self.raw:
            raise ValueError(f"duplicate bracket entry for ({g}, {h})")
        self.raw[(g, h)] = value


@dataclass(frozen=True)
class Finding:
    """One structured diagnostic: stable code, location string, detail."""

    code: str
    location: str
    detail: str


@dataclass(frozen=True)
class IndexedView:
    """An instance's table compiled to generator positions.

    ``terms[i][j]`` holds the nonzero ``(k, coefficient)`` terms of
    [g_i, g_j]: stored entries exactly as written, a one-sided entry extended
    by the convention's swap sign.  ``flagged[i]`` is the set of positions j
    with (g_i, g_j) window-flagged, in either order.  ``odd[i]`` is the
    parity of g_i; ``interior`` lists the interior positions in order.
    """

    terms: tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]
    flagged: tuple[frozenset[int], ...]
    odd: tuple[bool, ...]
    interior: tuple[int, ...]


class AlgebraInstance:
    """A finite-dimensional algebra given by structure constants.

    ``window`` bounds |generator index| for truncations of graded algebras
    (None for genuinely finite algebras).  ``boundary_pairs`` records the
    ordered generator pairs whose bracket lost at least one out-of-window
    term at instantiation time; ``dropped_terms`` counts the lost terms.
    """

    def __init__(
        self,
        name: str,
        generators: Iterable[GeneratorId],
        table: BracketTable,
        window: Optional[int] = None,
        interior_margin: int = 2,
        boundary_pairs: Iterable[tuple[GeneratorId, GeneratorId]] = (),
        dropped_terms: int = 0,
        findings: Iterable[Finding] = (),
        metadata: Optional[dict] = None,
    ):
        self.name = name
        self.generators = list(generators)
        self.table = table
        self.window = window
        self.interior_margin = interior_margin
        self.boundary_pairs = set(boundary_pairs)
        self.dropped_terms = dropped_terms
        self.findings = list(findings)
        self.metadata = metadata or {}
        self._pos = {g: i for i, g in enumerate(self.generators)}
        if len(self._pos) != len(self.generators):
            raise ValueError("duplicate generators")
        for (g, h), v in table.raw.items():
            for t in (g, h, *v.terms):
                if t not in self._pos:
                    raise ValueError(f"table references unknown generator {t}")
        if window is not None:
            for g in self.generators:
                if abs(g.doubled_index) > 2 * window:
                    raise ValueError(f"generator {g} outside window {window}")
        self.view = self._compile()

    def _compile(self) -> IndexedView:
        pos, n = self._pos, self.dim
        terms = [[()] * n for _ in range(n)]
        for key, v in self.indexed_values(self.table).items():
            i, j = divmod(key, n)
            terms[i][j] = tuple((pos[t], c) for t, c in v.terms.items())
        flagged = [set() for _ in range(n)]
        for g, h in self.boundary_pairs:
            i, j = self.position(g), self.position(h)
            flagged[i].add(j)
            flagged[j].add(i)
        return IndexedView(
            tuple(map(tuple, terms)),
            tuple(map(frozenset, flagged)),
            tuple(bool(self.table.family_parity(g.family)) for g in self.generators),
            tuple(i for i, g in enumerate(self.generators) if self.is_interior(g)),
        )

    def indexed_values(self, table: PairTable) -> dict[int, object]:
        """``table.value(g_i, g_j)`` keyed by i * dim + j on every pair of
        this instance's generators stored in either direction; pairs naming
        other generators are left out."""
        pos, n = self._pos, self.dim
        out = {}
        for (g, h), v in table.raw.items():
            i, j = pos.get(g), pos.get(h)
            if i is None or j is None:
                continue
            out[i * n + j] = v
            if (h, g) not in table.raw:
                out[j * n + i] = table.swap_sign(g, h) * v
        return out

    @property
    def dim(self) -> int:
        return len(self.generators)

    def position(self, g: GeneratorId) -> int:
        try:
            return self._pos[g]
        except KeyError:
            raise ValueError(f"unknown generator {g}") from None

    def is_interior(self, g: GeneratorId) -> bool:
        if self.window is None:
            return True
        return abs(g.doubled_index) <= 2 * (self.window - self.interior_margin)

    def pair_flagged(self, g: GeneratorId, h: GeneratorId) -> bool:
        i, j = self._pos.get(g), self._pos.get(h)
        return i is not None and j is not None and j in self.view.flagged[i]

    def checkable_triples(self, scope: str, repeats: bool) -> "TripleScan":
        """Position triples in order for a triple identity.

        scope "interior" draws from the interior positions, "all" from every
        position; ``repeats`` allows x = y or y = z.  Triples with a
        window-flagged cyclic pair are dropped and counted by the scan.
        """
        if scope not in ("interior", "all"):
            raise ValueError(f"unknown scope {scope!r}")
        positions = self.view.interior if scope == "interior" else range(self.dim)
        combinations = (
            itertools.combinations_with_replacement
            if repeats
            else itertools.combinations
        )
        return TripleScan(combinations(positions, 3), self.view.flagged)

    def generators_at(self, positions: Iterable[int]) -> tuple[GeneratorId, ...]:
        """The generators at the given positions, in order."""
        return tuple(self.generators[i] for i in positions)


class TripleScan:
    """One pass over position triples.  A triple with a window-flagged
    cyclic pair (x,y), (y,z) or (z,x) is not yielded; ``skipped`` counts it."""

    def __init__(self, triples: Iterable[tuple], flagged: tuple[frozenset, ...]):
        self._triples = triples
        self._flagged = flagged
        self.skipped = 0

    def __iter__(self) -> Iterator[tuple]:
        flagged = self._flagged
        for t in self._triples:
            x, y, z = t
            if y in flagged[x] or z in flagged[y] or x in flagged[z]:
                self.skipped += 1
            else:
                yield t


def bracket(A: AlgebraInstance, x: Element, y: Element) -> tuple[Element, bool]:
    """Bilinear extension of the table; the flag reports whether any
    generator-pair evaluation had dropped out-of-window terms."""
    acc = Element.zero()
    flagged = False
    for g, cg in x.terms.items():
        A.position(g)
        for h, ch in y.terms.items():
            A.position(h)
            if A.pair_flagged(g, h):
                flagged = True
            v = A.table.value(g, h)
            if v:
                acc = acc + v.scale(cg * ch)
    return acc, flagged


@dataclass(frozen=True)
class AlternatingViolation:
    left: GeneratorId
    right: GeneratorId
    residual: Element


def check_alternating(A: AlgebraInstance) -> list[AlternatingViolation]:
    """Check the convention's symmetry axiom on every assigned pair.

    For a pair stored in both directions the two entries must satisfy
    [h,g] = s*[g,h]; a diagonal entry (g,g) must satisfy (1-s)*[g,g] = 0,
    which constrains it to zero except for odd generators under super.
    """
    out = [
        AlternatingViolation(a, b, residual)
        for a, b, residual in A.table.symmetry_residuals(A.position)
    ]
    out.sort(key=lambda v: (A.position(v.left), A.position(v.right)))
    return out


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple[GeneratorId, GeneratorId, GeneratorId]
    residual: Element


@dataclass
class JacobiAudit:
    scope: str
    convention: str
    examined: int
    skipped_boundary: int
    violations: list[JacobiViolation]


def jacobi_audit(A: AlgebraInstance, scope: str = "interior") -> JacobiAudit:
    """Evaluate the (graded) Jacobi identity on generator triples.

    Plain convention: J(x,y,z) = [x,[y,z]] + [y,[z,x]] + [z,[x,y]] over
    distinct triples.  Super convention: the graded cyclic sum with signs
    (-1)^{|x||z|}, over triples with repetition (a repeated odd generator is
    a real constraint there).  Triples touching a boundary-flagged pair,
    outer or inner, are skipped and counted, never scored as violations.
    """
    sup = A.table.convention == "super"
    terms, flagged, odd = A.view.terms, A.view.flagged, A.view.odd
    triples = A.checkable_triples(scope, repeats=sup)
    examined = 0
    inner_skipped = 0
    violations = []
    for t in triples:
        x, y, z = t
        total: dict[int, Fraction] = {}
        clipped = False
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            row, skip = terms[a], flagged[a]
            flip = sup and odd[a] and odd[c]
            for k, ck in terms[b][c]:
                if k in skip:
                    clipped = True
                    break
                if flip:
                    ck = -ck
                for u, cu in row[k]:
                    total[u] = total.get(u, 0) + ck * cu
            if clipped:
                break
        if clipped:
            inner_skipped += 1
            continue
        examined += 1
        residual = {A.generators[u]: v for u, v in total.items() if v}
        if residual:
            violations.append(JacobiViolation(A.generators_at(t), Element(residual)))
    return JacobiAudit(
        scope,
        A.table.convention,
        examined,
        triples.skipped + inner_skipped,
        violations,
    )


def check_jacobi(A: AlgebraInstance, scope: str = "interior") -> list[JacobiViolation]:
    return jacobi_audit(A, scope).violations


def center(A: AlgebraInstance) -> list[Element]:
    """Basis of {x in interior span : [x,g] = 0 for all interior g}.

    Constraints use in-window bracket components only; the truncation caveat
    is visible through the instance's boundary data, not silently absorbed.
    """
    cols = A.view.interior
    terms = A.view.terms
    entries: dict[tuple[int, int], Fraction] = {}
    row_of: dict[tuple[int, int], int] = {}
    for col, h in enumerate(cols):
        for g in cols:
            for t, c in terms[h][g]:
                r = row_of.setdefault((g, t), len(row_of))
                entries[(r, col)] = entries.get((r, col), Fraction(0)) + c
    m = SparseMatrix(max(len(row_of), 1), len(cols), entries)
    return [
        Element({A.generators[cols[k]]: v[k] for k in sorted(v)})
        for v in rref(m).kernel(m.cols)
    ]


def _span_basis(A: AlgebraInstance, vectors: list[Element]) -> list[Element]:
    """Canonical basis of the span of the given elements."""
    if not vectors:
        return []
    entries = {}
    for r, v in enumerate(vectors):
        for g, c in v.terms.items():
            entries[(r, A.position(g))] = c
    ech = rref(SparseMatrix(len(vectors), A.dim, entries))
    return [
        Element({A.generators[c]: v for c, v in row.items()}) for row in ech.rows
    ]


def derived_subalgebra(A: AlgebraInstance) -> list[Element]:
    """Canonical basis of span{[g,h]} over all assigned pairs (in-window)."""
    values = [v for v in A.table.raw.values() if v]
    return _span_basis(A, values)


def is_two_step_solvable(A: AlgebraInstance) -> bool:
    """True iff the derived subalgebra is abelian: [[g,h],[g',h']] = 0."""
    der = derived_subalgebra(A)
    for u, v in itertools.combinations_with_replacement(der, 2):
        w, _ = bracket(A, u, v)
        if w:
            return False
    return True
