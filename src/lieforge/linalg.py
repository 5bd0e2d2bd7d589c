"""Exact rational linear algebra: rank, nullspace, solve.

Every scalar is an exact int or ``fractions.Fraction``; nothing here ever
rounds.  A ``SparseMatrix`` stores one dict per row, so the integer rows the
library assembles are eliminated as built (``SparseMatrix.from_rows``).  There
is one elimination route, fraction-free: a row holding a Fraction is scaled by
the lcm of its denominators (which changes neither rank nor nullspace), and
the echelon form of the integer rows is normalized back to the canonical
reduced row echelon form over the rationals.

Before elimination, a presolve replaces the integer rows by rows with the
same row space that eliminate with less fill-in: a row with one entry forces
its column to zero, so every forced column becomes a unit row and leaves the
other rows, and the rows are sorted shortest first (Markowitz 1957;
LaMacchia and Odlyzko, CRYPTO '90).  The reduced row echelon form depends
only on the row space, so every ``Echelon`` and every report is the same
with or without it.

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
    """Immutable sparse rational matrix, one dict per row from column to
    nonzero value: ints stay ints, other values are Fractions.  No zero is
    ever stored, so elimination never pivots on one."""

    __slots__ = ("rows", "cols", "_data")

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
        data: list[dict[int, Union[int, Fraction]]] = [{} for _ in range(rows)]
        for (r, c), v in items:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            if type(v) is not int:
                v = rat(v)
            if v:
                data[r][c] = v
        self._data = data

    @classmethod
    def from_rows(cls, cols: int, rows: list[dict]) -> "SparseMatrix":
        """The matrix whose row i is ``rows[i]``, a dict from column to a
        nonzero int or Fraction.  The dicts are kept, not copied: the caller
        must not change them afterwards.  ValueError for a column outside
        ``0..cols-1`` or a value that is zero or not an int or Fraction."""
        for row in rows:
            for c, v in row.items():
                if not 0 <= c < cols:
                    raise ValueError(f"column {c} outside 0..{cols - 1}")
                if not v or (type(v) is not int and not isinstance(v, Fraction)):
                    raise ValueError(f"not a nonzero int or Fraction: {v!r}")
        m = cls.__new__(cls)
        m.rows, m.cols, m._data = len(rows), cols, rows
        return m

    @classmethod
    def from_dense(cls, dense: list[list]) -> "SparseMatrix":
        entries = {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)}
        return cls(len(dense), len(dense[0]) if dense else 0, entries)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    @property
    def entries(self) -> dict[tuple[int, int], Union[int, Fraction]]:
        """The nonzero entries keyed ``(row, col)``, as a new dict."""
        return {(r, c): v for r, row in enumerate(self._data) for c, v in row.items()}

    def row_dicts(self) -> list[dict[int, Union[int, Fraction]]]:
        """A copy of each row's nonzero entries keyed by column."""
        return [dict(row) for row in self._data]

    def nnz(self) -> int:
        return sum(map(len, self._data))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.cols == other.cols
            and self._data == other._data
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
    return [sum((a * rat(v[c]) for c, a in row.items()), Fraction(0)) for row in m._data]


def _integer_rows(rows: list[dict]) -> list[dict[int, int]]:
    """The rows as integers: a row holding a Fraction scaled by its lcm."""
    out = []
    for row in rows:
        if any(type(v) is not int for v in row.values()):
            scale = lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
        out.append(row)
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


def _presolve(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """The same row space, in an order that keeps elimination sparse.

    A row with one entry forces its column to zero, which can leave another
    row with one entry; this repeats until no new column is forced.  Each
    forced column then becomes one ``{c: 1}`` row and is dropped from every
    other row, and rows left empty go.  The rows are stably sorted by entry
    count, so each column pivots on its shortest row.  Changed rows are new
    dicts; the input is only read."""
    rows = list(rows)
    singles = [i for i, row in enumerate(rows) if len(row) == 1]
    holders = _column_index(dict(enumerate(rows))) if singles else {}
    forced = []
    while singles:
        row = rows[singles.pop()]
        # a queued singleton is emptied when another row forces its column
        if not row:
            continue
        [c] = row
        forced.append(c)
        for i in holders.pop(c):
            rows[i] = {j: v for j, v in rows[i].items() if j != c}
            if len(rows[i]) == 1:
                singles.append(i)
    units = [{c: 1} for c in sorted(forced)]
    return sorted(units + [row for row in rows if row], key=len)


def _ff_forward_sparse(rows: list[dict[int, int]], ncols: int):
    """Sparse integer elimination with per-row gcd reduction.

    ``rows`` maps column index to nonzero integer entry; the dicts are only
    read.  A column index maps each column to the pending rows that hold it.
    For each column in ascending order the lowest-numbered of those rows is
    the pivot, and only the others are combined with it; each combined row
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
            f = row[c]
            new = {j: piv * v for j, v in row.items() if j != c}
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
    """Reduced row echelon form of ``m`` (unique over the rationals).

    The rows are made integer, presolved (forced columns out, shortest rows
    first) and eliminated.  The presolve keeps the row space, so the result
    is the one elimination in assembly order gives.  ``m`` is only read."""
    pivots, ech = _ff_forward_sparse(_presolve(_integer_rows(m._data)), m.cols)
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
