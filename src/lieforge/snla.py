"""Symplectic Novikov Lie algebra support.

Product tables with 1-based generator indices, the standard symplectic
form, the four identity checks (Novikov right-commutativity, associativity,
form compatibility, symplectic 2-cocycle), an aggregate verifier, instances
read from spec documents, and a deterministic structure search over finite
coefficient sets that solves the linear identities exactly before it
verifies anything.

A ``ProductTable`` keeps integer terms by position, as ``IndexedView``
keeps a bracket, and the product checks sum them over the triples where a
product is nonzero: n^2 steps for a zero product, n^3 for a dense one.
Each ``SnlaInstance`` builds its bracket once, as an ``AlgebraInstance``:
the explicit entries of its document, read by ``specfile.instantiate``, or
else the commutator of its product.  Every check of the bracket reads that
instance; the form's 2-cocycle check reads the form's integer rows through
``cohomology.cyclic_sums``, the one cyclic cocycle sum.  A
``SymplecticForm`` is skew by construction and refuses a degenerate form
when it is built, so the verifier takes both as given.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from lieforge.algebra import (
    AlgebraInstance,
    Element,
    GeneratorId,
    TripleScan,
    center,
    derived_subalgebra,
    is_two_step_solvable,
)
from lieforge.cohomology import cyclic_sums, h2_dimension
from lieforge.linalg import SparseMatrix, rank, rat, rref
from lieforge import specfile


class ProductTable(NamedTuple):
    """A product e_i * e_j = sum_k c_ij^k e_k: ``terms[i][j]`` holds the
    nonzero ``(k, c)`` of e_{i+1} * e_{j+1} by 0-based position, in order of
    k, each c an integer over ``scale``, the lcm of the denominators.  Equal
    products compare equal however they were written, and a pair is stored
    only in the order given.  ``from_coeffs`` builds it."""

    dim: int
    family: str
    scale: int
    terms: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

    @classmethod
    def from_coeffs(
        cls, dim: int, coeffs: Union[Mapping, Iterable], family: str = "e"
    ) -> "ProductTable":
        """c_ij^k is the value at key (i, j, k), 1-based; given as (key,
        value) pairs, the values of a repeated key add up."""
        if dim < 1:
            raise ValueError("dim must be positive")
        indices = set(range(1, dim + 1))
        acc: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j, k), c in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            if not {i, j, k} <= indices:
                raise ValueError(f"index out of range 1..{dim} in {(i, j, k)}")
            pair = acc.setdefault((int(i) - 1, int(j) - 1), {})
            pair[int(k) - 1] = pair.get(int(k) - 1, 0) + rat(c)
        scale = lcm(*(c.denominator for pair in acc.values() for c in pair.values()))
        terms = [[()] * dim for _ in range(dim)]
        for (i, j), pair in acc.items():
            ordered = sorted(pair.items())
            terms[i][j] = tuple((k, int(c * scale)) for k, c in ordered if c)
        return cls(dim, family, scale, tuple(map(tuple, terms)))

    def generators(self) -> list[GeneratorId]:
        return [_generator(self, k) for k in range(self.dim)]

    def value(self, i: int, j: int) -> Element:
        return _element(self, self.terms[i - 1][j - 1], self.scale)

    def coeff(self, i: int, j: int, k: int) -> Fraction:
        return Fraction(dict(self.terms[i - 1][j - 1]).get(k - 1, 0), self.scale)


def _generator(p: ProductTable, k: int) -> GeneratorId:
    """e_{k+1}, whose doubled index is 2k + 2."""
    return GeneratorId(p.family, 2 * k + 2)


def _element(p: ProductTable, terms: Iterable[tuple[int, int]], d: int) -> Element:
    """The element with the coefficients ``(k, c)``, c over ``d``, of e_{k+1}."""
    return Element((_generator(p, k), Fraction(c, d)) for k, c in terms)


class SymplecticForm:
    """A nondegenerate skew form, stored as ``ProductTable`` stores a product:
    ``rows[i]`` holds the nonzero ``(j, c)`` with omega(e_{i+1}, e_{j+1}) =
    c / ``scale`` by 0-based position, in order of j.  Built from written
    pairs ``((i, j), v)``, 1-based, each completed by omega(e_j, e_i) = -v;
    refused at the first completion that contradicts a value written (a
    zero against a nonzero reverse, a nonzero diagonal), then for odd
    ``dim``, then for rows not of full rank."""

    __slots__ = ("dim", "scale", "rows")

    def __init__(self, dim: int, pairs: Iterable):
        written: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in pairs:
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError(f"index out of range 1..{dim} in {(i, j)}")
            v = rat(v)
            for a, b, w in ((i, j, v), (j, i, -v)):
                if written.setdefault((a, b), w) != w:
                    raise ValueError(f"conflicting form entries at ({a},{b})")
        if dim % 2:
            raise ValueError("symplectic form needs even dimension")
        scale = lcm(*(v.denominator for v in written.values()))
        rows: list[dict[int, int]] = [{} for _ in range(dim)]
        for (a, b), v in sorted(written.items()):
            if v:
                rows[a - 1][b - 1] = int(v * scale)
        if rank(SparseMatrix.from_rows(dim, rows)) != dim:
            raise ValueError("form is degenerate")
        self.dim = dim
        self.scale = scale
        self.rows = tuple(tuple(row.items()) for row in rows)

    def __eq__(self, other) -> bool:
        same = isinstance(other, SymplecticForm) and self.scale == other.scale
        return same and self.rows == other.rows


def standard_form(n: int) -> SymplecticForm:
    """+1 at (i, j) for i < j with i + j = 2n+1, skew-completed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SymplecticForm(2 * n, (((i, 2 * n + 1 - i), 1) for i in range(1, n + 1)))


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
            gens, entries = product.generators(), commutator_bracket(product)
            bracket = AlgebraInstance(f"snla{dim}", gens, entries, product.scale)
        if {product.dim, form.dim, bracket.dim} != {dim}:
            raise ValueError("product/form/bracket dimensions do not match")
        self.dim = dim
        self.product = product
        self.form = form
        self.bracket = bracket


def commutator_bracket(p: ProductTable) -> dict:
    """[e_i, e_j] = e_i*e_j - e_j*e_i for i < j, as entries ``{(g, h): {t: c}}``
    with each c an integer over ``p.scale``; alternating by construction.
    Only the generators the entries name are built."""
    terms, every = p.terms, range(p.dim)
    # only the pairs i < j where e_i*e_j or e_j*e_i is nonzero, in order
    support = {
        (min(i, j), max(i, j))
        for i in every
        for j in itertools.compress(every, terms[i])
        if i != j
    }
    out = {}
    for i, j in sorted(support):
        acc = dict(terms[i][j])
        for k, c in terms[j][i]:
            acc[k] = acc.get(k, 0) - c
        if any(acc.values()):
            value = {_generator(p, k): c for k, c in acc.items() if c}
            out[(_generator(p, i), _generator(p, j))] = value
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


def _support(terms, by_j: bool) -> Iterator[tuple[int, int, int]]:
    """The position triples (i, j, k), in ``itertools.product`` order, where
    e_i*e_j or e_i*e_k (e_j*e_k when ``by_j``) is nonzero: every k when
    e_i*e_j is, else the nonzero columns of row i (row j)."""
    every = range(len(terms))
    nonzero = [[k for k in every if row[k]] for row in terms]
    for i, j in itertools.product(every, every):
        for k in every if terms[i][j] else nonzero[j if by_j else i]:
            yield i, j, k


def _product_violations(p: ProductTable, by_j: bool, found) -> list[ProductViolation]:
    """Triples where (e_i*e_j)*e_k differs from (e_i*e_k)*e_j, or from
    e_i*(e_j*e_k) when ``by_j``, appended to the sink ``found`` (a new list
    when None) and returned in it; only those of ``_support`` can, and each
    residual is summed in integers over scale^2."""
    terms = p.terms
    out = [] if found is None else found
    for i, j, k in _support(terms, by_j):
        acc: dict[int, int] = {}
        for t, c in terms[i][j]:
            for l, d in terms[t][k]:
                acc[l] = acc.get(l, 0) + c * d
        for t, c in terms[j][k] if by_j else terms[i][k]:
            for l, d in terms[i][t] if by_j else terms[t][j]:
                acc[l] = acc.get(l, 0) - c * d
        if any(acc.values()):
            residual = _element(p, acc.items(), p.scale**2)
            out.append(ProductViolation((i + 1, j + 1, k + 1), residual))
    return out


def check_novikov(p: ProductTable, found=None) -> list[ProductViolation]:
    """Triples with (e_i*e_j)*e_k != (e_i*e_k)*e_j.

    Each check of this module hands its violations, in order, to the sink
    ``found``, any object with ``append`` and ``len``, and returns it; with
    None, to a new list."""
    return _product_violations(p, False, found)


def check_associative(p: ProductTable, found=None) -> list[ProductViolation]:
    """Triples with (e_i*e_j)*e_k != e_i*(e_j*e_k)."""
    return _product_violations(p, True, found)


def check_compat(p: ProductTable, f: SymplecticForm, found=None) -> list[CompatViolation]:
    """Triples with omega(e_i*e_j, e_k) != omega(e_i, e_j*e_k); only those
    of ``_support`` with ``by_j`` can, each side an integer over both scales."""
    if p.dim != f.dim:
        raise ValueError("product/form dimensions do not match")
    terms, s = p.terms, p.scale * f.scale
    omega = [dict(row) for row in f.rows]
    out = [] if found is None else found
    for i, j, k in _support(terms, by_j=True):
        left = sum(c * omega[t].get(k, 0) for t, c in terms[i][j])
        right = sum(c * omega[i].get(t, 0) for t, c in terms[j][k])
        if left != right:
            triple = (i + 1, j + 1, k + 1)
            out.append(CompatViolation(triple, Fraction(left, s), Fraction(right, s)))
    return out


def check_symplectic_cocycle(
    f: SymplecticForm, A: AlgebraInstance, found=None
) -> list[FormCocycleViolation]:
    """Triples i <= j <= k with nonzero cyclic sum omega([x,y],z) +
    omega([y,z],x) + omega([z,x],y) for the bracket of ``A``, whose
    generators are the form's basis in order.  Repeats are included so
    non-alternating explicit tables stay auditable."""
    gens, d, n = A.generators, A.view.scale * f.scale, A.dim
    # the form's rows are skew already: read as they are, in one column,
    # each cyclic sum is an integer over d
    reading = {i * n + j: (0, c) for i, row in enumerate(f.rows) for j, c in row}
    triples = TripleScan(A, "all", True, (divmod(k, n) for k in reading))
    out = [] if found is None else found
    for t, row in cyclic_sums(A, triples, reading):
        triple = tuple(int(gens[u].index) for u in t)
        out.append(FormCocycleViolation(triple, Fraction(row[0], d)))
    return out


class VerdictReport(NamedTuple):
    passed: bool
    violations: dict[str, list]

    def counts(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.violations.items()}


def verify_snla(s: SnlaInstance, found: Optional[Mapping] = None) -> VerdictReport:
    """Aggregate of every defining identity; passes iff all hold.  The form
    is skew and nondegenerate by construction (``SymplecticForm``), so those
    two counts always read 0.  ``found`` maps the name of a triple check
    (novikov, associative, compat, symplectic_cocycle) to the sink of its
    violations, which the report keeps; a check it does not name gets a list."""
    sink = (found or {}).get
    vio: dict[str, list] = {
        "novikov": check_novikov(s.product, sink("novikov")),
        "associative": check_associative(s.product, sink("associative")),
        "compat": check_compat(s.product, s.form, sink("compat")),
        "symplectic_cocycle": check_symplectic_cocycle(
            s.form, s.bracket, sink("symplectic_cocycle")
        ),
        "skew": [],
        "nondegenerate": [],
        "two_step_solvable": [],
    }
    if not is_two_step_solvable(s.bracket):
        vio["two_step_solvable"].append("derived subalgebra is not abelian")
    return VerdictReport(all(not v for v in vio.values()), vio)


def snla_fingerprint(s: SnlaInstance) -> dict[str, int]:
    """Center/derived/H2 dimensions of the bracket algebra, for manual
    de-duplication of search results.  H2 is computed first, so a system
    over ``MAX_UNKNOWNS`` is refused before the other two are built."""
    A = s.bracket
    h2 = h2_dimension(A)
    return {"center": len(center(A)), "derived": len(derived_subalgebra(A)), "h2": h2}


def _slot_list(dim: int) -> list[tuple[int, int, int]]:
    r = range(1, dim + 1)
    return [(i, j, k) for i in r for j in r for k in r]


def linear_constraints(f: SymplecticForm) -> SparseMatrix:
    """Form compatibility and the form's 2-cocycle condition for the
    commutator bracket, as rows over the n^3 structure constants c_ij^k
    (column ((i-1)n + (j-1))n + (k-1), the order of ``_slot_list``).  With
    the form fixed both identities are linear in the constants: integer rows
    over the form's scale, with omega(e_t, e_c) minus row c's entry at t."""
    n, omega = f.dim, f.rows
    r = range(n)
    rows: list[dict[int, int]] = []

    def add(row: dict, i: int, j: int, k: int, v: int) -> None:
        col = (i * n + j) * n + k
        row[col] = row.get(col, 0) + v

    for i, j, k in itertools.product(r, r, r):
        row: dict[int, int] = {}
        for t, v in omega[k]:
            add(row, i, j, t, -v)
        for t, v in omega[i]:
            add(row, j, k, t, -v)
        rows.append(row)
    for x, y, z in itertools.combinations(r, 3):
        row = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for t, v in omega[c]:
                add(row, a, b, t, -v)
                add(row, b, a, t, v)
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
    table, form lines the form's written pairs (standard form when absent),
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

    # repeated terms add up, as in the entries instantiate reads
    coeffs = (
        ((e.left[1], e.right[1], ix), c) for e in doc.products for c, _, ix in e.value
    )
    product = ProductTable.from_coeffs(dim, coeffs, fam)

    if doc.forms:
        pairs = (((int(fe.left[1]), int(fe.right[1])), fe.value) for fe in doc.forms)
        form = SymplecticForm(dim, pairs)
    else:
        if dim % 2:
            raise ValueError("odd dimension admits no symplectic form")
        form = standard_form(dim // 2)

    bracket = specfile.instantiate(doc) if doc.entries else None
    return SnlaInstance(dim, product, form, bracket)
