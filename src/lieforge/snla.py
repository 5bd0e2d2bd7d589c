"""Symplectic Novikov Lie algebra support.

Product tables with 1-based generator indices, the standard symplectic
form, the four identity checks (Novikov right-commutativity, associativity,
form compatibility, symplectic 2-cocycle), an aggregate verifier, instances
read from spec documents, and a deterministic structure search over finite
coefficient sets that solves the linear identities exactly before it
verifies anything.

Each ``SnlaInstance`` builds its bracket once, as an ``AlgebraInstance``:
the explicit entries of its document, read by ``specfile.instantiate``, or
else the commutator of its product.  Every check of the bracket reads that
instance.  A ``SymplecticForm`` refuses a matrix that is not skew or not
of full rank when it is built, so the verifier takes both as given.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from lieforge.algebra import (
    AlgebraInstance,
    Element,
    GeneratorId,
    center,
    derived_subalgebra,
    gid,
    is_two_step_solvable,
)
from lieforge.cohomology import Cochain2, cocycle_audit, h2_dimension
from lieforge.linalg import SparseMatrix, rank, rat, rref
from lieforge import specfile


class ProductTable:
    """Left-symmetric product e_i * e_j = sum_k c_ij^k e_k, indices 1-based."""

    __slots__ = ("dim", "family", "entries")

    def __init__(
        self,
        dim: int,
        entries: Union[Mapping, Sequence] = (),
        family: str = "e",
    ):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.family = family
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[tuple[int, int], Element] = {}
        for (i, j), v in items:
            self._check_index(i)
            self._check_index(j)
            for g in v.terms:
                if g.family != family:
                    raise ValueError(f"foreign family {g.family!r} in product value")
                self._check_index(g.index)
            if v:
                store[(i, j)] = v
        self.entries = store

    def _check_index(self, i) -> None:
        if i != int(i) or not 1 <= i <= self.dim:
            raise ValueError(f"generator index {i} out of range 1..{self.dim}")

    @classmethod
    def from_coeffs(
        cls, dim: int, coeffs: Mapping[tuple[int, int, int], object], family: str = "e"
    ) -> "ProductTable":
        entries: dict[tuple[int, int], dict[GeneratorId, Fraction]] = {}
        for (i, j, k), c in coeffs.items():
            f = rat(c)
            if f:
                entries.setdefault((i, j), {})[gid(family, k)] = f
        return cls(dim, {p: Element(t) for p, t in entries.items()}, family)

    def generators(self) -> list[GeneratorId]:
        return [gid(self.family, i) for i in range(1, self.dim + 1)]

    def value(self, i: int, j: int) -> Element:
        return self.entries.get((i, j), Element.zero())

    def coeff(self, i: int, j: int, k: int) -> Fraction:
        return self.value(i, j).terms.get(gid(self.family, k), Fraction(0))

    def mult(self, x: Element, y: Element) -> Element:
        out = Element.zero()
        for g, c in x.terms.items():
            for h, d in y.terms.items():
                out = out + self.value(int(g.index), int(h.index)).scale(c * d)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProductTable)
            and self.dim == other.dim
            and self.family == other.family
            and self.entries == other.entries
        )


class SymplecticForm:
    """Even-dimensional skew-symmetric nondegenerate bilinear form, validated
    at construction."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix: Sequence[Sequence]):
        n = len(matrix)
        rows = [[rat(v) for v in row] for row in matrix]
        if any(len(row) != n for row in rows):
            raise ValueError("form matrix must be square")
        if n % 2:
            raise ValueError("symplectic form needs even dimension")
        for i in range(n):
            for j in range(n):
                if rows[i][j] + rows[j][i]:
                    raise ValueError(f"form not skew-symmetric at ({i + 1},{j + 1})")
        if n and rank(SparseMatrix.from_dense(rows)) != n:
            raise ValueError("form is degenerate")
        self.dim = n
        self.matrix = rows

    def pair(self, x: Element, y: Element) -> Fraction:
        total = Fraction(0)
        for g, c in x.terms.items():
            for h, d in y.terms.items():
                total += c * d * self.matrix[int(g.index) - 1][int(h.index) - 1]
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, SymplecticForm) and self.matrix == other.matrix


def standard_form(n: int) -> SymplecticForm:
    """+1 at (i, j) for i < j with i + j = 2n+1, skew-completed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = 2 * n
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d + 1):
        j = d + 1 - i
        if i < j:
            m[i - 1][j - 1] = Fraction(1)
            m[j - 1][i - 1] = Fraction(-1)
    return SymplecticForm(m)


class SnlaInstance:
    """An SNLA candidate.  Its ``bracket`` is the instance given, else the
    commutator of the product, built once."""

    def __init__(
        self,
        dim: int,
        product: ProductTable,
        form: SymplecticForm,
        bracket: Optional[AlgebraInstance] = None,
    ):
        if bracket is None:
            bracket = AlgebraInstance(
                f"snla{product.dim}", product.generators(), commutator_bracket(product)
            )
        if {product.dim, form.dim, bracket.dim} != {dim}:
            raise ValueError("product/form/bracket dimensions do not match")
        self.dim = dim
        self.product = product
        self.form = form
        self.bracket = bracket


def commutator_bracket(p: ProductTable) -> dict:
    """[e_i, e_j] = e_i*e_j - e_j*e_i for i < j, as entries ``{(g, h): {t: c}}``;
    alternating by construction."""
    out = {}
    for i in range(1, p.dim + 1):
        for j in range(i + 1, p.dim + 1):
            v = p.value(i, j) - p.value(j, i)
            if v:
                out[(gid(p.family, i), gid(p.family, j))] = v.terms
    return out


class ProductViolation(NamedTuple):
    triple: tuple[int, int, int]
    residual: Element

    def describe(self) -> str:
        return f"{self.triple} residual {self.residual}"


class CompatViolation(NamedTuple):
    triple: tuple[int, int, int]
    left: Fraction
    right: Fraction

    def describe(self) -> str:
        return f"{self.triple} left {self.left} right {self.right}"


class FormCocycleViolation(NamedTuple):
    triple: tuple[int, int, int]
    total: Fraction

    def describe(self) -> str:
        return f"{self.triple} cyclic sum {self.total}"


def _basis(p: ProductTable, i: int) -> Element:
    return Element.of(gid(p.family, i))


def check_novikov(p: ProductTable) -> list[ProductViolation]:
    """Triples with (e_i*e_j)*e_k != (e_i*e_k)*e_j."""
    out = []
    r = range(1, p.dim + 1)
    for i, j, k in itertools.product(r, r, r):
        residual = p.mult(p.value(i, j), _basis(p, k)) - p.mult(
            p.value(i, k), _basis(p, j)
        )
        if residual:
            out.append(ProductViolation((i, j, k), residual))
    return out


def check_associative(p: ProductTable) -> list[ProductViolation]:
    """Triples with (e_i*e_j)*e_k != e_i*(e_j*e_k)."""
    out = []
    r = range(1, p.dim + 1)
    for i, j, k in itertools.product(r, r, r):
        residual = p.mult(p.value(i, j), _basis(p, k)) - p.mult(
            _basis(p, i), p.value(j, k)
        )
        if residual:
            out.append(ProductViolation((i, j, k), residual))
    return out


def check_compat(p: ProductTable, f: SymplecticForm) -> list[CompatViolation]:
    """Triples with omega(e_i*e_j, e_k) != omega(e_i, e_j*e_k)."""
    if p.dim != f.dim:
        raise ValueError("product/form dimensions do not match")
    out = []
    r = range(1, p.dim + 1)
    for i, j, k in itertools.product(r, r, r):
        left = f.pair(p.value(i, j), _basis(p, k))
        right = f.pair(_basis(p, i), p.value(j, k))
        if left != right:
            out.append(CompatViolation((i, j, k), left, right))
    return out


def check_symplectic_cocycle(
    f: SymplecticForm, A: AlgebraInstance
) -> list[FormCocycleViolation]:
    """Triples i <= j <= k with nonzero cyclic sum omega([x,y],z) +
    omega([y,z],x) + omega([z,x],y) for the bracket of ``A``, whose
    generators are the form's basis in order.  Repeats are included so
    non-alternating explicit tables stay auditable."""
    gens = A.generators
    omega = Cochain2(
        raw={(g, h): v for g, row in zip(gens, f.matrix) for h, v in zip(gens, row)}
    )
    audit = cocycle_audit(A, omega, "all", repeats=True)
    return [
        FormCocycleViolation(tuple(int(g.index) for g in v.triple), v.residual)
        for v in audit.violations
    ]


class VerdictReport(NamedTuple):
    passed: bool
    violations: dict[str, list]

    def counts(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.violations.items()}


def verify_snla(s: SnlaInstance) -> VerdictReport:
    """Aggregate of every defining identity; passes iff all hold.  The form
    is skew and nondegenerate by construction (``SymplecticForm``), so those
    two counts always read 0."""
    vio: dict[str, list] = {
        "novikov": check_novikov(s.product),
        "associative": check_associative(s.product),
        "compat": check_compat(s.product, s.form),
        "symplectic_cocycle": check_symplectic_cocycle(s.form, s.bracket),
        "skew": [],
        "nondegenerate": [],
        "two_step_solvable": [],
    }
    if not is_two_step_solvable(s.bracket):
        vio["two_step_solvable"].append("derived subalgebra is not abelian")
    return VerdictReport(all(not v for v in vio.values()), vio)


def snla_fingerprint(s: SnlaInstance) -> dict[str, int]:
    """Center/derived/H2 dimensions of the bracket algebra, for manual
    de-duplication of search results."""
    A = s.bracket
    return {
        "center": len(center(A)),
        "derived": len(derived_subalgebra(A)),
        "h2": h2_dimension(A),
    }


def _slot_list(dim: int) -> list[tuple[int, int, int]]:
    r = range(1, dim + 1)
    return [(i, j, k) for i in r for j in r for k in r]


def linear_constraints(f: SymplecticForm) -> SparseMatrix:
    """Form compatibility and the form's 2-cocycle condition for the
    commutator bracket, as rows over the n^3 structure constants c_ij^k
    (column ((i-1)n + (j-1))n + (k-1), the order of ``_slot_list``).  With
    the form fixed both identities are linear in the constants."""
    n = f.dim
    m = f.matrix
    r = range(n)
    rows: list[dict[int, Fraction]] = []

    def add(row: dict, i: int, j: int, k: int, v: Fraction) -> None:
        col = (i * n + j) * n + k
        row[col] = row.get(col, 0) + v

    for i, j, k in itertools.product(r, r, r):
        row: dict[int, Fraction] = {}
        for t in r:
            add(row, i, j, t, m[t][k])
            add(row, j, k, t, -m[i][t])
        rows.append(row)
    for x, y, z in itertools.combinations(r, 3):
        row = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for t in r:
                add(row, a, b, t, m[t][c])
                add(row, b, a, t, -m[t][c])
        rows.append(row)
    return SparseMatrix.from_rows(
        n**3, [{col: v for col, v in row.items() if v} for row in rows]
    )


def _lex_solutions(
    system: SparseMatrix, coeff_list: tuple[Fraction, ...]
) -> Iterator[tuple[int, tuple[Fraction, ...]]]:
    """Solutions of ``system`` (columns as slots) with every slot in the
    sorted coefficient set, in lexicographic order, each with its position
    among all tuples over the set.

    Eliminating with the columns reversed makes each pivot slot depend only
    on earlier free slots, so enumerating the free slots lexicographically
    and forcing the pivots visits the solutions in lexicographic order; a
    forced value outside the set rules the solution out."""
    last = system.cols - 1
    reversed_rows = [{last - c: v for c, v in row.items()} for row in system.row_dicts()]
    ech = rref(SparseMatrix.from_rows(system.cols, reversed_rows))
    forced = {
        last - pc: [(last - c, -v) for c, v in row.items() if c != pc]
        for pc, row in zip(ech.pivots, ech.rows)
    }
    free = [s for s in range(system.cols) if s not in forced]
    digit = {c: d for d, c in enumerate(coeff_list)}
    base = len(coeff_list)
    for values in itertools.product(coeff_list, repeat=len(free)):
        cs = dict(zip(free, values))
        for s, terms in forced.items():
            cs[s] = sum((a * cs[f] for f, a in terms), Fraction(0))
        if any(cs[s] not in digit for s in forced):
            continue
        position = 0
        for s in range(system.cols):
            position = position * base + digit[cs[s]]
        yield position, tuple(cs[s] for s in range(system.cols))


class SearchResult(NamedTuple):
    dim: int
    coeffs: tuple[Fraction, ...]
    examined: int
    total: int
    partial: bool
    instances: list[SnlaInstance]


def snla_search(
    dim: int, coeffs: Sequence, budget: Optional[int] = None
) -> SearchResult:
    """All structure-constant tuples over the coefficient set that pass
    every check with the standard form, in lexicographic order.

    Only solutions of the linear identities (``linear_constraints``) are
    candidates worth verifying, and they come in lexicographic order
    (``_lex_solutions``); each goes through ``verify_snla``.  ``budget``
    covers the first ``budget`` tuples of the full lexicographic order, so
    ``examined`` counts tuples covered, not solutions visited."""
    if dim not in (2, 4):
        raise ValueError("search supports dim 2 or 4 only")
    coeff_list = tuple(sorted({rat(c) for c in coeffs}))
    if not coeff_list:
        raise ValueError("coefficient set is empty")
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    slots = _slot_list(dim)
    total = len(coeff_list) ** len(slots)
    examined = total if budget is None else min(budget, total)
    form = standard_form(dim // 2)
    instances = []
    for position, cs in _lex_solutions(linear_constraints(form), coeff_list):
        if position >= examined:
            break
        table = ProductTable.from_coeffs(dim, dict(zip(slots, cs)))
        inst = SnlaInstance(dim, table, form)
        if verify_snla(inst).passed:
            instances.append(inst)
    return SearchResult(
        dim, coeff_list, examined, total, examined < total, instances
    )


def snla_from_doc(doc: specfile.AlgebraSpecDoc) -> SnlaInstance:
    """Build an instance from a parsed spec document: product lines give the
    table, form lines the matrix (skew-completed; standard form when absent),
    entry lines an explicit bracket, read by ``specfile.instantiate``, that
    overrides the commutator.  ``parse`` has already refused undeclared
    generators and repeated pairs."""
    if doc.convention != "plain":
        raise ValueError("snla documents must use the plain convention")
    if doc.rules:
        raise ValueError("snla documents take no rule lines")
    if not doc.generators:
        raise ValueError("snla documents need explicit generator lines")
    fams = {g.family for g in doc.generators}
    if len(fams) != 1:
        raise ValueError("snla documents use a single generator family")
    fam = fams.pop()
    indices = sorted(g.index for g in doc.generators)
    dim = len(indices)
    if indices != list(range(1, dim + 1)):
        raise ValueError("generator indices must be exactly 1..dim")

    products = {}
    for e in doc.products:
        # repeated terms add up, as in the entries instantiate reads
        terms = [(gid(f, ix), c) for c, f, ix in e.value]
        products[(int(e.left[1]), int(e.right[1]))] = Element(terms)
    product = ProductTable(dim, products, fam)

    if doc.forms:
        m = [[Fraction(0)] * dim for _ in range(dim)]
        seen = set()
        for fe in doc.forms:
            i, j = int(fe.left[1]), int(fe.right[1])
            for a, b, v in ((i, j, fe.value), (j, i, -fe.value)):
                if (a, b) in seen and m[a - 1][b - 1] != v:
                    raise ValueError(f"conflicting form entries at ({a},{b})")
                seen.add((a, b))
                m[a - 1][b - 1] = v
        form = SymplecticForm(m)
    else:
        if dim % 2:
            raise ValueError("odd dimension admits no symplectic form")
        form = standard_form(dim // 2)

    bracket = specfile.instantiate(doc) if doc.entries else None
    return SnlaInstance(dim, product, form, bracket)
