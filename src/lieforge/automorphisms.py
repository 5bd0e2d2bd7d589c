"""Candidate-map verification: bracket, form, and product preservation,
plus the scalar coefficient recurrences.

Maps are checked, never searched for.  The coefficient recurrences are
scalar identities on a stored family (a, b, c on integers, d on a
doubled-index grid); the d-relation mixes integer and half-integer
indices as displayed, and lookups that miss the stored grid are flagged
as violations rather than repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .algebra import AlgebraInstance, Element, GeneratorId
from .cohomology import LinearEndo
from .linalg import SparseMatrix, rank, rat
from .snla import ProductTable, SymplecticForm


class SingularMapError(ValueError):
    """A candidate map that is not invertible."""


@dataclass(frozen=True)
class AutomorphismViolation:
    pair: tuple[GeneratorId, GeneratorId]
    mapped_bracket: Element  # phi([x,y])
    bracket_of_images: Element  # [phi(x), phi(y)]

    def describe(self) -> str:
        g, h = self.pair
        return (
            f"({g},{h}): phi[x,y] = {self.mapped_bracket} "
            f"!= [phi x, phi y] = {self.bracket_of_images}"
        )


def check_automorphism(
    A: AlgebraInstance, phi: LinearEndo
) -> list[AutomorphismViolation]:
    """Generator pairs where phi fails to intertwine the bracket.

    A singular map raises SingularMapError; pairs whose own bracket is
    window-clipped, or whose image bracket touches a clipped pair, are
    skipped (their comparison would mix truncation artifacts in).
    """
    n = A.dim
    if phi.dim != n:
        raise ValueError(f"map dimension {phi.dim} != algebra dimension {n}")
    cols = [phi.column(j) for j in range(n)]
    entries = {(i, j): v for j, col in enumerate(cols) for i, v in col.items()}
    r = rank(SparseMatrix(n, n, entries))
    if r < n:
        raise SingularMapError(f"singular map: rank {r} < {n}")
    terms, flagged = A.view.terms, A.view.flagged

    def element(acc: dict[int, Fraction]) -> Element:
        return Element({A.generators[t]: v for t, v in acc.items()})

    out = []
    for i, ci in enumerate(cols):
        for j in range(i, n):
            cj = cols[j]
            if j in flagged[i] or any(not flagged[a].isdisjoint(cj) for a in ci):
                continue
            mapped: dict[int, Fraction] = {}  # phi([g_i, g_j]) by position
            for k, ck in terms[i][j]:
                for t, v in cols[k].items():
                    mapped[t] = mapped.get(t, 0) + ck * v
            of_images: dict[int, Fraction] = {}  # [phi(g_i), phi(g_j)]
            for a, ca in ci.items():
                row = terms[a]
                for b, cb in cj.items():
                    for t, ct in row[b]:
                        of_images[t] = of_images.get(t, 0) + ca * cb * ct
            lhs, rhs = element(mapped), element(of_images)
            if lhs != rhs:
                pair = (A.generators[i], A.generators[j])
                out.append(AutomorphismViolation(pair, lhs, rhs))
    return out


def check_symplectomorphism(
    f: SymplecticForm, phi: LinearEndo
) -> tuple[bool, Optional[list[list[Fraction]]]]:
    """Exact test of phi^T Omega phi = Omega; the residual difference
    matrix accompanies a failing verdict."""
    n = f.dim
    if phi.dim != n:
        raise ValueError(f"map dimension {phi.dim} != form dimension {n}")
    om = f.matrix
    cols = [phi.column(j) for j in range(n)]
    # column j of Omega phi
    om_cols = [
        [sum((om[k][l] * v for l, v in col.items()), Fraction(0)) for k in range(n)]
        for col in cols
    ]
    residual = [
        [
            sum((v * om_cols[j][k] for k, v in cols[i].items()), Fraction(0))
            - om[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    if all(not v for row in residual for v in row):
        return True, None
    return False, residual


@dataclass(frozen=True)
class ProductPreservationViolation:
    pair: tuple[int, int]
    mapped_product: Element  # phi(x.y)
    product_of_images: Element  # phi(x).phi(y)

    def describe(self) -> str:
        i, j = self.pair
        return (
            f"({i},{j}): phi(x.y) = {self.mapped_product} "
            f"!= phi(x).phi(y) = {self.product_of_images}"
        )


def check_product_preserved(
    p: ProductTable, phi: LinearEndo
) -> list[ProductPreservationViolation]:
    """Ordered index pairs where phi(x.y) != phi(x).phi(y)."""
    if phi.dim != p.dim:
        raise ValueError(f"map dimension {phi.dim} != product dimension {p.dim}")
    gens = p.generators()
    images = [phi.image(gens, j) for j in range(p.dim)]
    out = []
    for i in range(1, p.dim + 1):
        for j in range(1, p.dim + 1):
            lhs = Element.zero()
            for g, c in p.value(i, j).terms.items():
                lhs = lhs + images[int(g.index) - 1].scale(c)
            rhs = p.mult(images[i - 1], images[j - 1])
            if lhs != rhs:
                out.append(ProductPreservationViolation((i, j), lhs, rhs))
    return out


class CoefficientFamily:
    """Scalar coefficient families over a window: a, b, c keyed by integer
    index, d keyed by doubled index so half-integers stay exact.

    a, b, c must cover every integer |n| <= W and d every half-integer
    |n| <= W (odd doubled keys); d may additionally carry integer-index
    entries, which the displayed d-relation reads on its right side.
    """

    def __init__(
        self,
        a: Mapping[int, object],
        b: Mapping[int, object],
        c: Mapping[int, object],
        d: Mapping[int, object],
        window: int,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.a = {int(k): rat(v) for k, v in a.items()}
        self.b = {int(k): rat(v) for k, v in b.items()}
        self.c = {int(k): rat(v) for k, v in c.items()}
        self.d = {int(k): rat(v) for k, v in d.items()}
        grid = range(-window, window + 1)
        for name, mp in (("a", self.a), ("b", self.b), ("c", self.c)):
            missing = [n for n in grid if n not in mp]
            if missing:
                raise ValueError(f"{name} undefined at indices {missing}")
        odd = [k for k in range(-2 * window + 1, 2 * window) if k % 2]
        missing = [k for k in odd if k not in self.d]
        if missing:
            raise ValueError(
                f"d undefined at half-integer doubled indices {missing}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoefficientFamily)
            and self.window == other.window
            and (self.a, self.b, self.c, self.d)
            == (other.a, other.b, other.c, other.d)
        )


@dataclass(frozen=True)
class RecurrenceViolation:
    relation: str  # a | b | c | d
    pair: tuple[int, int]
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    note: str = ""


def check_recurrences(cf: CoefficientFamily) -> list[RecurrenceViolation]:
    """Evaluate the four displayed recurrences over the window.

    a_{m+n} = a_m a_n, b_{m+n} = a_m b_n + b_m a_n, and the same shape
    for c, on every pair with m, n, m+n in the window.  The d-relation
    d_{m+n+1/2} = (m/2 - n) d_m d_n is taken literally: its right side
    reads d at integer indices, and a family storing d only on its
    half-integer grid gets a violation per unevaluable pair.
    """
    W = cf.window
    out = []
    grid = range(-W, W + 1)
    for m in grid:
        for n in grid:
            if abs(m + n) <= W:
                lhs, rhs = cf.a[m + n], cf.a[m] * cf.a[n]
                if lhs != rhs:
                    out.append(RecurrenceViolation("a", (m, n), lhs, rhs))
                lhs = cf.b[m + n]
                rhs = cf.a[m] * cf.b[n] + cf.b[m] * cf.a[n]
                if lhs != rhs:
                    out.append(RecurrenceViolation("b", (m, n), lhs, rhs))
                lhs = cf.c[m + n]
                rhs = cf.a[m] * cf.c[n] + cf.c[m] * cf.a[n]
                if lhs != rhs:
                    out.append(RecurrenceViolation("c", (m, n), lhs, rhs))
            target = 2 * (m + n) + 1
            if abs(target) <= 2 * W:
                lhs = cf.d[target]
                dm, dn = cf.d.get(2 * m), cf.d.get(2 * n)
                if dm is None or dn is None:
                    out.append(
                        RecurrenceViolation(
                            "d",
                            (m, n),
                            lhs,
                            None,
                            note="right side reads d at an integer index "
                            "the family does not store",
                        )
                    )
                    continue
                rhs = (Fraction(m, 2) - n) * dm * dn
                if lhs != rhs:
                    out.append(RecurrenceViolation("d", (m, n), lhs, rhs))
    return out


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            out.append((ln, body))
    return out


def parse_map_file(text: str) -> LinearEndo:
    """Plain-text matrix: first line "dim d", then d rows of d rationals."""
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty map file")
    ln, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise ValueError(f"line {ln}: expected 'dim <n>', got {head!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ValueError(f"line {ln}: bad dimension {parts[1]!r}") from None
    if n < 1:
        raise ValueError(f"line {ln}: dimension must be >= 1")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    matrix = []
    for ln, body in lines[1:]:
        toks = body.split()
        if len(toks) != n:
            raise ValueError(f"line {ln}: expected {n} entries, got {len(toks)}")
        try:
            matrix.append([rat(t) for t in toks])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {ln}: bad rational entry") from None
    return LinearEndo(matrix)


def parse_coeff_file(text: str) -> CoefficientFamily:
    """Coefficient family file: "window W" then "coef a <index> <value>"
    lines; d accepts integer and half-integer indices."""
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty coefficient file")
    ln, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "window":
        raise ValueError(f"line {ln}: expected 'window <W>', got {head!r}")
    try:
        window = int(parts[1])
    except ValueError:
        raise ValueError(f"line {ln}: bad window {parts[1]!r}") from None
    maps: dict[str, dict[int, Fraction]] = {"a": {}, "b": {}, "c": {}, "d": {}}
    for ln, body in lines[1:]:
        toks = body.split()
        if len(toks) != 4 or toks[0] != "coef" or toks[1] not in maps:
            raise ValueError(
                f"line {ln}: expected 'coef a|b|c|d <index> <value>'"
            )
        name = toks[1]
        try:
            idx = rat(toks[2])
            val = rat(toks[3])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {ln}: bad rational") from None
        if name == "d":
            doubled = idx * 2
            if doubled.denominator != 1:
                raise ValueError(
                    f"line {ln}: d index must be integer or half-integer"
                )
            key = int(doubled)
        else:
            if idx.denominator != 1:
                raise ValueError(f"line {ln}: {name} index must be integer")
            key = int(idx)
        if key in maps[name]:
            raise ValueError(f"line {ln}: duplicate entry for {name}[{toks[2]}]")
        maps[name][key] = val
    return CoefficientFamily(
        maps["a"], maps["b"], maps["c"], maps["d"], window
    )
