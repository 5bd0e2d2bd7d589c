"""Exact rational linear algebra: rank, nullspace, solve.

All scalars are ``fractions.Fraction``; nothing here ever rounds.  There is
one elimination route, fraction-free: each rational row is scaled by the lcm
of its denominators (which changes neither rank nor nullspace), forward
elimination runs on the integer rows, and the echelon form is normalized back
to the canonical reduced row echelon form over the rationals.

Forward elimination keeps the rows as sparse dicts and uses gcd-reduced
cross-multiplication over a column index: each column maps to the set of
pending rows with a nonzero entry in it, so a pivot step reads only the rows
that hold its column.  Columns are scanned left to right and each pivots on
the lowest-numbered row still pending with a nonzero entry in it, so the
output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Optional, Union

# Most decimal digits a literal may have: an integer token of a ``.lie``
# document, or a rational string such as ``-3/2`` or ``1.5e3``, whose exponent
# e counts as |e| digits.  Products of two such numbers still render as text.
MAX_DIGITS = 1000


def rat(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce ints, Fractions, and strings like ``-3/2`` to Fraction.  A
    string over MAX_DIGITS is refused with ValueError before ``Fraction``
    builds any power of ten."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        mantissa, _, exponent = text.lower().partition("e")
        # an exponent prefix one digit longer than MAX_DIGITS exceeds it
        exponent = exponent.lstrip("+-").replace("_", "").lstrip("0")
        shift = int(exponent[: len(str(MAX_DIGITS)) + 1]) if exponent.isdecimal() else 0
        if sum(map(str.isdecimal, mantissa)) + shift > MAX_DIGITS:
            raise ValueError(f"rational literal with more than {MAX_DIGITS} digits")
        return Fraction(text)
    raise TypeError(f"not an exact rational: {value!r}")


class SparseMatrix:
    """Immutable sparse rational matrix; zero entries are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Union[Mapping[tuple[int, int], object], Iterable] = (),
    ):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in items:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            f = rat(v)
            if f:
                store[(r, c)] = f
        self.entries = store

    @classmethod
    def from_dense(cls, dense: list[list]) -> "SparseMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        return cls(
            rows,
            cols,
            {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)},
        )

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def row_dicts(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def nnz(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


class Echelon(NamedTuple):
    """Canonical reduced row echelon form: unit pivots, zeros above and below."""

    pivots: tuple[int, ...]
    rows: tuple  # tuple[dict[int, Fraction], ...], rows[i] pivoted at pivots[i]

    def kernel(self, cols: int) -> list[dict[int, Fraction]]:
        """Canonical nullspace basis of a matrix with ``cols`` columns and
        this echelon form, as sparse vectors of nonzero entries: one per free
        column in ascending order, 1 there and minus the reduced row's
        coefficient at each pivot."""
        pivot_set = set(self.pivots)
        basis = {
            free: {free: Fraction(1)} for free in range(cols) if free not in pivot_set
        }
        # every non-pivot entry of a reduced row sits in a free column
        for c, row in zip(self.pivots, self.rows):
            for free, coeff in row.items():
                if free != c:
                    basis[free][c] = -coeff
        return list(basis.values())


def matvec(m: SparseMatrix, v: list) -> list[Fraction]:
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    out = [Fraction(0)] * m.rows
    for (r, c), a in m.entries.items():
        out[r] += a * rat(v[c])
    return out


def _integer_rows(row_dicts: list[dict[int, Fraction]]) -> list[dict[int, int]]:
    out = []
    for row in row_dicts:
        if not row:
            out.append({})
            continue
        scale = lcm(*(v.denominator for v in row.values()))
        out.append({c: v.numerator * (scale // v.denominator) for c, v in row.items()})
    return out


def _column_index(rows: Mapping[int, dict]) -> dict[int, set[int]]:
    """Map each column to the set of row ids with a nonzero entry in it."""
    holders: dict[int, set[int]] = {}
    for i, row in rows.items():
        for c in row:
            held = holders.get(c)
            if held is None:
                holders[c] = {i}
            else:
                held.add(i)
    return holders


def _ff_forward_sparse(rows: list[dict[int, int]], ncols: int):
    """Sparse integer elimination with per-row gcd reduction.

    ``rows`` maps column index to nonzero integer entry; the dicts are
    consumed.  A column index maps each column to the pending rows that hold
    it.  For each column in ascending order the lowest-numbered of those rows
    is the pivot, and only the others are combined with it; each combined row
    is divided by the gcd of its entries to bound coefficient growth.  The
    index follows every fill-in and cancellation, and rows that cancel to
    empty leave it.  Returns ``(pivot_cols, echelon_rows)``.
    """
    pending = {i: row for i, row in enumerate(rows) if row}
    holders = _column_index(pending)
    done: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(ncols):
        if not pending:
            break
        held = holders.pop(c, None)
        if not held:
            continue
        pr = min(held)
        held.discard(pr)
        prow = pending.pop(pr)
        piv = prow[c]
        rest = [(j, v) for j, v in prow.items() if j != c]
        for j, _ in rest:
            holders[j].discard(pr)
        for i in held:
            row = pending[i]
            f = row.pop(c)
            new = {j: piv * v for j, v in row.items()}
            for j, v in rest:
                w = new.get(j, 0) - f * v
                if w:
                    if j not in new:
                        holders[j].add(i)
                    new[j] = w
                else:
                    del new[j]
                    holders[j].discard(i)
            if new:
                g = gcd(*new.values())
                if g > 1:
                    new = {j: v // g for j, v in new.items()}
                pending[i] = new
            else:
                del pending[i]
        done.append(prow)
        pivots.append(c)
    return pivots, done


def _normalize(pivots: list[int], rows: list[dict[int, Fraction]]) -> Echelon:
    """Back-eliminate above pivots and scale pivots to 1 (canonical RREF).

    Mutates ``rows``.  Each pivot column is cleared only in the earlier rows
    that hold it.  Clearing adds entries in free columns alone, so the rows
    that hold a pivot column can be read off once, before any clearing."""
    holders = _column_index(dict(enumerate(rows)))
    for i in range(len(rows) - 1, -1, -1):
        c = pivots[i]
        piv = rows[i][c]
        if piv != 1:
            rows[i] = {j: v / piv for j, v in rows[i].items()}
        prow = rows[i]
        for k in holders[c]:
            if k == i:
                continue
            row = rows[k]
            f = row[c]
            for j, v in prow.items():
                nv = row.get(j, 0) - f * v
                if nv:
                    row[j] = nv
                else:
                    del row[j]
    return Echelon(tuple(pivots), tuple(rows))


def rref(m: SparseMatrix) -> Echelon:
    """Reduced row echelon form of ``m`` (unique over the rationals)."""
    pivots, ech = _ff_forward_sparse(_integer_rows(m.row_dicts()), m.cols)
    return _normalize(pivots, [{c: Fraction(v) for c, v in row.items()} for row in ech])


def rank(m: SparseMatrix) -> int:
    return len(rref(m).pivots)


def nullspace(m: SparseMatrix) -> list[list[Fraction]]:
    """Canonical nullspace basis, one vector per free column in ascending
    column order.  Every returned v satisfies m @ v = 0 exactly.  The vectors
    are dense lists; ``Echelon.kernel`` gives the same basis sparse."""
    zero = Fraction(0)
    return [[vec.get(c, zero) for c in range(m.cols)] for vec in rref(m).kernel(m.cols)]


def solve(m: SparseMatrix, b: list) -> Optional[list[Fraction]]:
    """Some exact solution of m x = b, or None when inconsistent.  Free
    variables are set to zero."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length must equal row count")
    entries = dict(m.entries)
    for r, v in enumerate(b):
        f = rat(v)
        if f:
            entries[(r, m.cols)] = f
    aug = SparseMatrix(m.rows, m.cols + 1, entries)
    ech = rref(aug)
    if m.cols in ech.pivots:
        return None
    x = [Fraction(0)] * m.cols
    for i, c in enumerate(ech.pivots):
        x[c] = ech.rows[i].get(m.cols, Fraction(0))
    return x
