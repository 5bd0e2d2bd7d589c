"""Candidate-map verification: bracket, form, and product preservation,
plus the scalar coefficient recurrences.

Maps are checked, never searched for.  The bracket and product checks
are audits (``algebra.Audit``) over generator pairs, sharing one
intertwining loop over the map's columns read as integers: compact entries,
and a violation object only for what is read.  The coefficient recurrences are
scalar identities on a stored family (a, b, c on integers, d on a
doubled-index grid), audited the same way over index pairs, one audit per
relation; the d-relation mixes integer and half-integer indices as
displayed, and lookups that miss the stored grid are flagged as violations
rather than repaired.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .algebra import AlgebraInstance, Audit
from .cohomology import LinearEndo
from .linalg import SparseMatrix, rank, rat
from .snla import ProductTable, SymplecticForm


class SingularMapError(ValueError):
    """A candidate map that is not invertible."""


def _integer_columns(phi: LinearEndo) -> tuple[list[dict[int, int]], int]:
    """phi's columns as integers over e, the lcm of its denominators, and e."""
    cols = [phi.column(j) for j in range(phi.dim)]
    e = lcm(*(v.denominator for col in cols for v in col.values()))
    ints = [{i: v.numerator * (e // v.denominator) for i, v in col.items()} for col in cols]
    return ints, e


def _intertwining_audit(terms, scale, gens, cols, e, pairs, total, found) -> Audit:
    """The audit of the position pairs (i, j) of ``pairs``, ``total`` of
    them before any was skipped, where the map with integer columns ``cols``
    over ``e`` fails to intertwine the product ``terms`` (integers over
    ``scale``, as ``IndexedView.terms``): each entry is the pair and
    (phi(g_i g_j), phi(g_i) phi(g_j)), two dicts of nonzero ints over
    scale * e**2, handed to the sink ``found`` as ``jacobi_audit`` hands
    its triples."""
    found = [] if found is None else found
    examined = 0
    for i, j in pairs:
        examined += 1
        mapped: dict[int, int] = {}  # phi(g_i g_j)
        for k, ck in terms[i][j]:
            ck *= e
            for t, v in cols[k].items():
                mapped[t] = mapped.get(t, 0) + ck * v
        of_images: dict[int, int] = {}  # phi(g_i) phi(g_j)
        for a, ca in cols[i].items():
            for b, cb in cols[j].items():
                for t, ct in terms[a][b]:
                    of_images[t] = of_images.get(t, 0) + ca * cb * ct
        lhs = {t: v for t, v in mapped.items() if v}
        rhs = {t: v for t, v in of_images.items() if v}
        if lhs != rhs:
            found.append(((i, j), (lhs, rhs)))
    return Audit(examined, total - examined, found, scale * e * e, gens)


def automorphism_audit(A: AlgebraInstance, phi: LinearEndo, found=None) -> Audit:
    """Generator pairs g <= h (by position) where phi fails to intertwine
    the bracket.

    A singular map raises SingularMapError; pairs whose own bracket is
    window-clipped, or whose image bracket touches a clipped pair, are
    skipped and counted (their comparison would mix truncation artifacts
    in), and the others examined.
    """
    n = A.dim
    if phi.dim != n:
        raise ValueError(f"map dimension {phi.dim} != algebra dimension {n}")
    cols, e = _integer_columns(phi)
    r = rank(SparseMatrix.from_rows(n, cols))  # the transpose: same rank
    if r < n:
        raise SingularMapError(f"singular map: rank {r} < {n}")
    view, flagged = A.view, A.view.flagged
    pairs = (
        (i, j)
        for i, j in itertools.combinations_with_replacement(range(n), 2)
        if j not in flagged[i] and all(flagged[a].isdisjoint(cols[j]) for a in cols[i])
    )
    total = n * (n + 1) // 2
    gens = A.generators
    return _intertwining_audit(view.terms, view.scale, gens, cols, e, pairs, total, found)


def check_symplectomorphism(
    f: SymplecticForm, phi: LinearEndo
) -> tuple[bool, Optional[list[list[Fraction]]]]:
    """Exact test of phi^T Omega phi = Omega; the dense residual difference
    matrix accompanies a failing verdict.  Row i of phi^T Omega sums the
    form's rows at the support of phi(e_i), over the form's scale."""
    n = f.dim
    if phi.dim != n:
        raise ValueError(f"map dimension {phi.dim} != form dimension {n}")
    cols, s = [phi.column(j) for j in range(n)], f.scale
    residual = []
    for i in range(n):
        left: dict[int, Fraction] = {}  # row i of phi^T Omega, times s
        for k, v in cols[i].items():
            for l, c in f.rows[k]:
                left[l] = left.get(l, 0) + v * c
        own = dict(f.rows[i])
        sums = (sum(left.get(l, 0) * v for l, v in col.items()) for col in cols)
        residual.append([Fraction(x - own.get(j, 0), s) for j, x in enumerate(sums)])
    if not any(map(any, residual)):
        return True, None
    return False, residual


def product_map_audit(p: ProductTable, phi: LinearEndo, found=None) -> Audit:
    """Ordered position pairs where phi(x.y) != phi(x).phi(y), all n^2 of
    them examined."""
    n = p.dim
    if phi.dim != n:
        raise ValueError(f"map dimension {phi.dim} != product dimension {n}")
    cols, e = _integer_columns(phi)
    pairs, gens = itertools.product(range(n), repeat=2), p.generators()
    return _intertwining_audit(p.terms, p.scale, gens, cols, e, pairs, n * n, found)


# Most missing indices a refusal lists; the rest are counted.
SHOWN_MISSING = 8

# Widest window recurrence_audit evaluates: it visits (2W+1)^2 index pairs,
# about 1.7 s at W = 128 on a 2-CPU machine.
MAX_RECURRENCE_WINDOW = 128


def _require(what: str, grid: range, stored: Mapping[int, object]) -> None:
    """Raise ValueError naming the first indices of ``grid`` missing from
    ``stored`` and counting the others.  The count comes from the stored
    keys and the scan stops after SHOWN_MISSING misses, so the cost follows
    what is stored, not the width of the grid."""
    missing = len(grid) - sum(1 for k in stored if k in grid)
    if not missing:
        return
    first = list(itertools.islice((k for k in grid if k not in stored), SHOWN_MISSING))
    more = f" and {missing - len(first)} more" if missing > len(first) else ""
    raise ValueError(f"{what} {first}{more}")


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
            _require(f"{name} undefined at indices", grid, mp)
        odd = range(-2 * window + 1, 2 * window, 2)
        _require("d undefined at half-integer doubled indices", odd, self.d)


def recurrence_audit(cf: CoefficientFamily, found=None) -> dict[str, Audit]:
    """Evaluate the four displayed recurrences over the window, one audit
    per relation, keyed "a" to "d".

    a_{m+n} = a_m a_n, b_{m+n} = a_m b_n + b_m a_n, and the same shape
    for c, on every pair with m, n, m+n in the window.  The d-relation
    d_{m+n+1/2} = (m/2 - n) d_m d_n is taken literally: its right side
    reads d at integer indices, and a family storing d only on its
    half-integer grid gets a violation per unevaluable pair.  A window
    over MAX_RECURRENCE_WINDOW is refused with ValueError.

    Each audit's generators are the window's integers, so an entry's
    positions (m + W, n + W) read back as the pair (m, n).  Its residual
    is the two sides (lhs, rhs), Fractions over 1, or (lhs,) alone for a
    d pair whose right side reads d at an integer index the family does
    not store.  ``found`` maps a relation to the sink of its entries, as
    for ``snla.verify_snla``; a relation it does not name gets a list.
    """
    W = cf.window
    if W > MAX_RECURRENCE_WINDOW:
        raise ValueError(f"window {W} exceeds the bound {MAX_RECURRENCE_WINDOW}")
    found = found or {}
    fa, fb, fc, fd = (found.get(rel, []) for rel in "abcd")
    grid = range(-W, W + 1)
    by_abc = by_d = 0  # the pairs examined by a, b and c, and by d
    for m in grid:
        for n in grid:
            at = (m + W, n + W)
            if abs(m + n) <= W:
                by_abc += 1
                lhs, rhs = cf.a[m + n], cf.a[m] * cf.a[n]
                if lhs != rhs:
                    fa.append((at, (lhs, rhs)))
                for x, fx in ((cf.b, fb), (cf.c, fc)):
                    lhs, rhs = x[m + n], cf.a[m] * x[n] + x[m] * cf.a[n]
                    if lhs != rhs:
                        fx.append((at, (lhs, rhs)))
            target = 2 * (m + n) + 1
            if abs(target) <= 2 * W:
                by_d += 1
                lhs = cf.d[target]
                dm, dn = cf.d.get(2 * m), cf.d.get(2 * n)
                if dm is None or dn is None:
                    fd.append((at, (lhs,)))
                    continue
                rhs = (Fraction(m, 2) - n) * dm * dn
                if lhs != rhs:
                    fd.append((at, (lhs, rhs)))
    return {
        "a": Audit(by_abc, 0, fa, 1, grid),
        "b": Audit(by_abc, 0, fb, 1, grid),
        "c": Audit(by_abc, 0, fc, 1, grid),
        "d": Audit(by_d, 0, fd, 1, grid),
    }


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            out.append((ln, body))
    return out


def parse_map_file(text: str) -> LinearEndo:
    """Plain-text matrix: first line "dim d", then d rows of d rationals,
    read straight into the map's columns of nonzero entries."""
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
    cols: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for i, (ln, body) in enumerate(lines[1:]):
        toks = body.split()
        if len(toks) != n:
            raise ValueError(f"line {ln}: expected {n} entries, got {len(toks)}")
        try:
            for col, t in zip(cols, toks):
                # a plain "0", most entries of a sparse map, reads as nothing
                if t != "0" and (f := rat(t)):
                    col[i] = f
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {ln}: bad rational entry") from None
    return LinearEndo.from_columns(cols)


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
