"""Exact rational linear algebra: rank, rref and nullspace.

Every scalar is an exact int or ``fractions.Fraction``; nothing here ever
rounds.  A ``SparseMatrix`` stores one dict per row, so the integer rows the
library assembles are eliminated as built (``SparseMatrix.from_rows``).  There
is one elimination route, fraction-free, and one row contract: ``echelon``
checks each row as it takes it and scales a row holding a Fraction by the lcm
of its denominators, which changes neither rank nor nullspace.

Elimination is Gauss-Jordan kept incrementally (``echelon``).  The rows are
taken one at a time, in the order given, against a basis of integer rows
kept in reduced form: each basis row starts at its own pivot column and
holds no other pivot column.  ``rref`` gives a held matrix's rows shortest
first; a system too large to hold, such as the 2-cocycle rows of
``cohomology.cocycle2_space``, is passed as a generator in the order it is
built, so no row outlives its own reduction and memory follows the basis.
An arriving row is reduced once by the basis rows at its pivot columns; a
row that cancels to empty is dependent and is dropped.  A row that is left
over makes its lowest column a new pivot, that column is cleared from the
basis rows that hold it (a column index says which), and the row joins the
basis.  Each combination is a gcd-reduced cross-multiplication,
row <- (p/g)*row - (a/g)*basis_row, where p and a are the basis row's and
the row's entries at the pivot column and g = gcd(p, a), so every entry
stays an integer (fraction-free elimination: Bareiss, Math. Comp. 22 (1968)
565-578), and each row that joins or changes the basis is divided by the
gcd of its entries to keep the integers small.

Dividing each basis row by its pivot entry then gives the reduced row
echelon form over the rationals.  That form depends only on the row space,
so neither the order the rows arrive in nor the fraction-free scaling can
change any ``Echelon`` or any report.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Union

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


def _integer_row(cols: int, row: Mapping[int, object]) -> dict[int, int]:
    """A new integer row with the entries of ``row``, scaled by the lcm of its
    denominators when it holds a Fraction.  ValueError for a column outside
    ``0..cols-1`` or a value that is zero or not an int or Fraction, which
    elimination could not pivot on."""
    fractional = False
    for c, v in row.items():
        if not 0 <= c < cols:
            raise ValueError(f"column {c} outside 0..{cols - 1}")
        if type(v) is int:
            if v:
                continue
        elif isinstance(v, Fraction) and v:
            fractional = True
            continue
        raise ValueError(f"not a nonzero int or Fraction: {v!r}")
    if not fractional:
        return dict(row)
    scale = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (scale // v.denominator) for c, v in row.items()}


class SparseMatrix:
    """Immutable sparse rational matrix, one dict per row from column to
    nonzero value: ints stay ints, other values are Fractions.  The rows are
    only held; ``echelon`` checks each one as it eliminates it, so no zero
    ever becomes a pivot."""

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
        nonzero int or Fraction.  The dicts are kept, not copied or read: the
        caller must not change them afterwards, and ``echelon`` refuses a
        row that breaks its contract when the matrix is eliminated."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._data = len(rows), cols, rows
        return m

    @property
    def entries(self) -> dict[tuple[int, int], Union[int, Fraction]]:
        """The nonzero entries keyed ``(row, col)``, as a new dict."""
        return {(r, c): v for r, row in enumerate(self._data) for c, v in row.items()}

    def row_dicts(self) -> list[dict[int, Union[int, Fraction]]]:
        """A copy of each row's nonzero entries keyed by column."""
        return [dict(row) for row in self._data]

    def nnz(self) -> int:
        return sum(map(len, self._data))


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


def echelon(cols: int, rows: Iterable[Mapping[int, object]]) -> Echelon:
    """Reduced row echelon form of rows over ``cols`` columns, each reduced
    once, in the order given, and then dropped or kept in the basis.

    ``rows`` may be a generator: no row is held beyond its own reduction.
    Each row is checked and made integer as it arrives (``_integer_row``),
    so a bad row raises ValueError before the next one is read.
    ``basis`` maps each pivot column to a primitive integer row that starts
    there with a positive entry and holds no other pivot column; ``holders``
    maps every other column to the pivots whose basis rows hold it.  The
    dicts of ``rows`` are only read."""
    basis: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}
    for row in rows:
        row = _integer_row(cols, row)
        # reducing by one basis row adds no other pivot column
        for c in [c for c in row if c in basis]:
            _clear(row, c, basis[c])
        if not row:
            continue
        c = min(row)
        g = gcd(*row.values())
        if row[c] < 0:
            g = -g
        if g != 1:
            row = {j: v // g for j, v in row.items()}
        rest = [j for j in row if j != c]
        for j in rest:
            holders.setdefault(j, set()).add(c)
        for k in holders.pop(c, ()):
            brow = basis[k]
            _clear(brow, c, row)
            for j in rest:
                if j in brow:
                    holders[j].add(k)
                else:
                    holders[j].discard(k)
            g = gcd(*brow.values())
            if g != 1:
                basis[k] = {j: v // g for j, v in brow.items()}
        basis[c] = row
    pivots = sorted(basis)
    reduced = []
    for c in pivots:
        p = basis[c][c]
        reduced.append({j: Fraction(v, p) for j, v in basis[c].items()})
    return Echelon(tuple(pivots), tuple(reduced))


def _clear(row: dict[int, int], c: int, prow: dict[int, int]) -> None:
    """Cancel column ``c`` of ``row`` in place with ``prow``, whose entry at
    ``c`` is positive: row <- (p/g)*row - (a/g)*prow, g = gcd(p, a)."""
    p, a = prow[c], row[c]
    g = gcd(p, a)
    if g != p:
        q = p // g
        for j in row:
            row[j] *= q
    f = a // g
    for j, v in prow.items():
        w = row.get(j, 0) - f * v
        if w:
            row[j] = w
        else:
            del row[j]


def rref(m: SparseMatrix) -> Echelon:
    """Reduced row echelon form of ``m`` (unique over the rationals).

    The rows are handed to ``echelon`` shortest first; it keeps the basis in
    reduced form, so no back-substitution pass follows.
    The form depends only on the row space, so the result is the one any
    elimination order gives.  ``m`` is only read."""
    return echelon(m.cols, sorted(m._data, key=len))


def rank(m: SparseMatrix) -> int:
    return len(rref(m).pivots)


def nullspace(m: SparseMatrix) -> list[list[Fraction]]:
    """Canonical nullspace basis, one vector per free column in ascending
    column order.  Every returned v satisfies m @ v = 0 exactly.  The vectors
    are dense lists; ``Echelon.kernel`` gives the same basis sparse."""
    zero = Fraction(0)
    return [[vec.get(c, zero) for c in range(m.cols)] for vec in rref(m).kernel(m.cols)]
