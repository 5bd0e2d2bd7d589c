"""Generators, elements, the instance's bracket store, and structural checks.

An ``AlgebraInstance`` is built from its brackets as written and keeps them
once, as an ``IndexedView``: the structure constants as integers over one
common denominator, their reverse index, window flags, parities and interior
generators, all indexed by generator position.  Brackets and scalar
2-cochains (``cohomology.Cochain2``) follow one as-written pair rule,
``extend_as_written``: a pair given one way only is read back by
``swap_sign`` (plain: [h,g] = -[g,h]; super: [h,g] = -(-1)^{|g||h|}[g,h]),
and a pair given both ways that breaks it is reported, here by
``check_alternating``.

Every pair and triple identity reports through one audit record, ``Audit``,
and each cyclic one (Jacobi, the cocycle sums) visits position triples
through one enumerator, ``TripleScan``, which walks only the triples that
can be nonzero when the identity names a support and that walk is the
cheaper one; all work on plain ints, dividing once and building generator
objects only for what is read.
Window-truncated instances never treat a dropped (out-of-window) bracket
result as zero: evaluations touching such a pair raise a boundary flag, and
the enumerator skips and counts those triples instead of reporting fake
residuals.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from lieforge.linalg import SparseMatrix, rat, rref
from lieforge.linalg import nullspace  # unused; perfbench/trace_run.py LAYERS wraps it

EVEN = 0


class GeneratorId(NamedTuple):
    """A basis generator: family symbol plus doubled index.

    The index is stored doubled so half-integer indices stay exact ints:
    doubled_index 3 means index 3/2, doubled_index 4 means index 2.  As a
    tuple it hashes and orders as ``(family, doubled_index)`` and equals
    any tuple with those items.
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


def swap_sign(convention: str, odd_g: int, odd_h: int) -> int:
    """The sign s with v(h,g) = s*v(g,h) for the bracket, or a 2-cochain, of
    generators g and h of parities ``odd_g`` and ``odd_h``: -1 under the plain
    convention, -(-1)^{|g||h|} under super."""
    return 1 if convention == "super" and odd_g and odd_h else -1


def extend_as_written(written: Mapping, convention: str, odd, audit: bool = False):
    """The as-written pair rule, for brackets and 2-cochains alike.

    ``written`` maps ordered pairs (g, h) to values: numbers, or tuples of
    (key, coefficient) terms.  A pair is read as written; the reverse (h, g)
    of a pair given one way only is read as s times its value, where
    s = swap_sign(convention, odd(g), odd(h)), and an iterator over these
    reverse pairs and their values is returned.  With ``audit``, the pairs
    g <= h given both ways, diagonals included, are returned instead, in
    order, as (g, h, back - s*value) with back the value of (h, g): the pair
    keeps the rule when that is zero (for terms, once summed by key).
    """
    if audit:
        return sorted(
            (g, h, back + _scaled(value, -swap_sign(convention, odd(g), odd(h))))
            for (g, h), value in written.items()
            if g <= h and (back := written.get((h, g))) is not None
        )
    return (
        ((h, g), _scaled(value, swap_sign(convention, odd(g), odd(h))))
        for (g, h), value in written.items()
        if (h, g) not in written
    )


def _scaled(value, s: int):
    if isinstance(value, tuple):
        return tuple((k, s * c) for k, c in value)
    return s * value


class Finding(NamedTuple):
    """One structured diagnostic: stable code, location string, detail."""

    code: str
    location: str
    detail: str


class IndexedView(NamedTuple):
    """An instance's brackets by generator position, stored once.

    ``terms[i][j]`` holds the nonzero ``(k, c)`` terms of [g_i, g_j] as
    integers over the common denominator ``scale``: the coefficient of g_k is
    ``c / scale``.  ``written`` lists the position pairs (i, j) given as
    written, in the order given; ``extend_as_written`` reads the rest.
    ``producers[k]`` lists the ordered pairs (i, j) with k in
    ``terms[i][j]``, as keys i * dim + j.  ``flagged[i]`` is the set of
    positions j with (g_i, g_j) window-flagged, in either order.  ``odd[i]``
    is the parity of g_i; ``interior`` lists the interior positions in order.
    """

    terms: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    scale: int
    written: tuple[tuple[int, int], ...]
    producers: tuple[tuple[int, ...], ...]
    flagged: tuple[frozenset[int], ...]
    odd: tuple[bool, ...]
    interior: tuple[int, ...]


class AlgebraInstance:
    """A finite-dimensional algebra given by structure constants.

    ``entries`` gives the brackets as written, ``{(g, h): {t: c}}`` for
    [g,h] = sum of c/scale t, each c an int or Fraction; a pair left out in
    both directions brackets to zero.  ``parity`` maps family symbol to 0
    (even) or 1 (odd), unlisted families even; ``convention`` is "plain" or
    "super".  ``window`` bounds |generator index| for truncations of graded
    algebras (None for genuinely finite algebras).  ``boundary_pairs``
    records the ordered generator pairs whose bracket lost at least one
    out-of-window term at instantiation time; ``dropped_terms`` counts the
    lost terms.  ``findings`` holds the instantiation findings, kept as given
    (a sink that holds only some of them still counts all with ``len``).
    """

    def __init__(
        self,
        name: str,
        generators: Iterable[GeneratorId],
        entries: Mapping[tuple[GeneratorId, GeneratorId], Mapping[GeneratorId, object]],
        scale: int = 1,
        parity: Mapping[str, int] = (),
        convention: str = "plain",
        window: Optional[int] = None,
        interior_margin: int = 2,
        boundary_pairs: Iterable[tuple[GeneratorId, GeneratorId]] = (),
        dropped_terms: int = 0,
        findings: Optional[list[Finding]] = None,
    ):
        if convention not in ("plain", "super"):
            raise ValueError(f"unknown convention {convention!r}")
        self.name = name
        self.generators = list(generators)
        self.parity = dict(parity)
        self.convention = convention
        self.window = window
        self.interior_margin = interior_margin
        self.boundary_pairs = set(boundary_pairs)
        self.dropped_terms = dropped_terms
        self.findings = [] if findings is None else findings
        self._pos = {g: i for i, g in enumerate(self.generators)}
        if len(self._pos) != len(self.generators):
            raise ValueError("duplicate generators")
        if window is not None:
            for g in self.generators:
                if abs(g.doubled_index) > 2 * window:
                    raise ValueError(f"generator {g} outside window {window}")
        self.view = self._compile(entries, scale)
        # (checkable, skipped) per (scope, repeats), recorded by full scans
        self._scan_counts: dict[tuple[str, bool], tuple[int, int]] = {}

    def _compile(self, entries: Mapping, scale: int) -> IndexedView:
        """The view of ``entries``, every coefficient brought to one integer
        denominator: ``scale`` times the lcm of the coefficients' own."""
        pos, n = self._pos, self.dim
        d = lcm(*(c.denominator for value in entries.values() for c in value.values()))
        written = {}
        try:
            for (g, h), value in entries.items():
                i, j = pos[g], pos[h]
                pair = tuple(
                    (pos[t], c.numerator * (d // c.denominator))
                    for t, c in value.items()
                    if c
                )
                if pair:
                    written[(i, j)] = pair
        except KeyError as e:
            raise ValueError(f"entries reference unknown generator {e.args[0]}") from None
        odd = tuple(bool(self.parity.get(g.family, EVEN)) for g in self.generators)
        terms = [[()] * n for _ in range(n)]
        producers = [[] for _ in range(n)]
        reverse = extend_as_written(written, self.convention, odd.__getitem__)
        for (i, j), pair in itertools.chain(written.items(), reverse):
            terms[i][j] = pair
            for k, _ in pair:
                producers[k].append(i * n + j)
        flagged = [set() for _ in range(n)]
        for g, h in self.boundary_pairs:
            i, j = self.position(g), self.position(h)
            flagged[i].add(j)
            flagged[j].add(i)
        return IndexedView(
            tuple(map(tuple, terms)),
            scale * d,
            tuple(written),
            tuple(map(tuple, producers)),
            tuple(map(frozenset, flagged)),
            odd,
            tuple(i for i, g in enumerate(self.generators) if self.is_interior(g)),
        )

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


class TripleScan:
    """One pass over an instance's position triples for one scope, in order.

    scope "interior" draws from the interior positions, "all" from every
    position; ``repeats`` allows x = y or y = z.  A triple with a
    window-flagged cyclic pair (x,y), (y,z) or (z,x) is not yielded.

    An identity whose terms for a rotation (a, b, c) of a triple read some
    value at (k, c) with k in ``terms[a][b]`` passes the ordered position
    pairs (k, c) it can read nonzero as ``support``, an iterable read once;
    every other triple contributes exactly zero.  When walking the producers
    of the supported pairs takes fewer steps (the sum over k of
    |producers[k]| times the number of in-scope pairs (k, c)) than the scope
    has triples, the scan yields only the triples with such a rotation, in
    the same order; otherwise, and without a support, it yields them all.

    ``checkable`` and ``skipped`` count the whole scope's triples without
    and with a flagged pair, whichever way it was walked: a full scan
    records both in ``A._scan_counts`` as it ends, and a narrowed scan reads
    them there.  If none has run, they are the scope's size and 0 when no
    position of the scope has a flagged partner, and otherwise one full
    scan per instance and (scope, repeats) counts them.
    """

    def __init__(
        self,
        A: AlgebraInstance,
        scope: str,
        repeats: bool,
        support: Optional[Iterable[tuple[int, int]]] = None,
    ):
        if scope not in ("interior", "all"):
            raise ValueError(f"unknown scope {scope!r}")
        self._A = A
        self._key = (scope, repeats)
        self._support = support

    def _positions(self):
        A = self._A
        return A.view.interior if self._key[0] == "interior" else range(A.dim)

    def _narrowed(self) -> Optional[list[tuple[int, int, int]]]:
        """Sorted triples of the scope with a rotation (a, b, c) that has
        k in ``terms[a][b]`` and (k, c) in the support, or None when walking
        the producers would take more steps than the full scan."""
        positions = self._positions()
        inside = set(positions)
        wanted: dict[int, list[int]] = {}
        for k, c in self._support:
            if c in inside:
                wanted.setdefault(k, []).append(c)
        producers, n = self._A.view.producers, self._A.dim
        steps = sum(len(producers[k]) * len(cs) for k, cs in wanted.items())
        if steps >= self._size(positions):
            return None
        found = set()
        for k, cs in wanted.items():
            for key in producers[k]:
                a, b = divmod(key, n)
                if a not in inside or b not in inside:
                    continue
                # the rotation of (a, b, c) that is in scan order, if any
                for c in cs:
                    if a <= b <= c:
                        found.add((a, b, c))
                    elif b <= c <= a:
                        found.add((b, c, a))
                    elif c <= a <= b:
                        found.add((c, a, b))
        if not self._key[1]:
            found = {t for t in found if t[0] != t[1] != t[2]}
        return sorted(found)

    def __iter__(self) -> Iterator[tuple]:
        flagged = self._A.view.flagged
        triples = None if self._support is None else self._narrowed()
        full = triples is None
        if full:
            combinations = (
                itertools.combinations_with_replacement
                if self._key[1]
                else itertools.combinations
            )
            triples = combinations(self._positions(), 3)
        checkable = skipped = 0
        for t in triples:
            x, y, z = t
            if y in flagged[x] or z in flagged[y] or x in flagged[z]:
                skipped += 1
            else:
                checkable += 1
                yield t
        if full:
            self._A._scan_counts[self._key] = (checkable, skipped)

    def _size(self, positions) -> int:
        """The number of triples the scope draws from ``positions``."""
        return comb(len(positions) + 2 * self._key[1], 3)

    def _counts(self) -> tuple[int, int]:
        counts = self._A._scan_counts
        if self._key not in counts:
            positions = self._positions()
            flagged = self._A.view.flagged
            if any(flagged[p] for p in positions):
                for _ in TripleScan(self._A, *self._key):
                    pass
            else:
                counts[self._key] = (self._size(positions), 0)
        return counts[self._key]

    @property
    def checkable(self) -> int:
        return self._counts()[0]

    @property
    def skipped(self) -> int:
        return self._counts()[1]


class Violation(NamedTuple):
    """Where an identity fails, as a tuple of generators (a pair or a
    triple; for the coefficient recurrences, a pair of indices), and its
    exact residual: an Element (Jacobi, the alternating rule, the SNLA
    products), a Fraction (a scalar identity such as the cocycle one) or a
    tuple of those (the two sides of form compatibility, of a map check or
    of a recurrence)."""

    at: tuple[GeneratorId, ...]
    residual: Union[Element, Fraction, tuple]


class Audit:
    """What a pair or triple identity found: the pairs or triples it
    examined, those it skipped because a window-flagged pair clipped them,
    and its violations in order.

    ``found`` keeps each violation compactly, as its tuple of positions and
    its integer residual over ``denominator``: an int for a scalar identity
    (or a Fraction over 1, as the cochain symmetry and the recurrences keep
    theirs), a dict from generator position to nonzero int for a vector one,
    or a tuple of those for one with two sides.  ``violations`` builds the
    ``Violation`` objects on first read; ``violation`` builds one.  An audit
    given a sink (see ``jacobi_audit``) keeps that sink as ``found``, and
    ``len(found)`` still counts every violation.
    """

    def __init__(
        self,
        examined: int,
        skipped_boundary: int,
        found: list[tuple[tuple[int, ...], object]],
        denominator: int,
        generators: Sequence,
    ):
        self.examined = examined
        self.skipped_boundary = skipped_boundary
        self.found = found
        self.denominator = denominator
        self.generators = generators

    def violation(self, entry: tuple[tuple[int, ...], object]) -> Violation:
        """The violation object of one entry of ``found``."""
        at, r = entry
        return Violation(tuple(self.generators[p] for p in at), self._read(r))

    def _read(self, r):
        """An int or Fraction as a Fraction, a dict as an Element and a
        tuple as the tuple of those, each over ``denominator``."""
        if isinstance(r, (int, Fraction)):
            return Fraction(r, self.denominator)
        if isinstance(r, tuple):
            return tuple(map(self._read, r))
        gens, d = self.generators, self.denominator
        return Element({gens[u]: Fraction(v, d) for u, v in r.items()})

    @cached_property
    def violations(self) -> list[Violation]:
        return [self.violation(e) for e in self.found]


def bracket(A: AlgebraInstance, x: Element, y: Element) -> tuple[Element, bool]:
    """Bilinear extension of the structure constants; the flag reports
    whether any generator-pair evaluation had dropped out-of-window terms."""
    terms, flagged = A.view.terms, A.view.flagged
    acc: dict[int, Fraction] = {}
    clipped = False
    for g, cg in x.terms.items():
        i = A.position(g)
        for h, ch in y.terms.items():
            j = A.position(h)
            clipped = clipped or j in flagged[i]
            for k, c in terms[i][j]:
                acc[k] = acc.get(k, 0) + cg * ch * c
    scale = A.view.scale
    return Element({A.generators[k]: v / scale for k, v in acc.items()}), clipped


def check_alternating(A: AlgebraInstance, found=None) -> Audit:
    """Check the convention's symmetry axiom on every pair given as written.

    For a pair given in both directions the two entries must satisfy
    [h,g] = s*[g,h]; a diagonal entry (g,g) must satisfy (1-s)*[g,g] = 0,
    which constrains it to zero except for odd generators under super.
    Each pair given both ways is examined; an entry is the pair and the
    summed residual over ``A.view.scale``, handed to the sink ``found`` as
    ``jacobi_audit`` hands its triples.
    """
    terms, odd = A.view.terms, A.view.odd
    written = {(i, j): terms[i][j] for i, j in A.view.written}
    audit = extend_as_written(written, A.convention, odd.__getitem__, audit=True)
    found = [] if found is None else found
    for a, b, diff in audit:
        total: dict[int, int] = {}
        for k, c in diff:
            total[k] = total.get(k, 0) + c
        if residual := {k: c for k, c in total.items() if c}:
            found.append(((a, b), residual))
    return Audit(len(audit), 0, found, A.view.scale, A.generators)


def jacobi_audit(
    A: AlgebraInstance, scope: str = "interior", found=None
) -> Audit:
    """Evaluate the (graded) Jacobi identity on generator triples.

    Plain convention: J(x,y,z) = [x,[y,z]] + [y,[z,x]] + [z,[x,y]] over
    distinct triples.  Super convention: the graded cyclic sum with signs
    (-1)^{|x||z|}, over triples with repetition (a repeated odd generator is
    a real constraint there).  Triples touching a boundary-flagged pair,
    outer or inner, are skipped and counted, never scored as violations.

    ``found`` is the sink of the violations: any object with ``append`` and
    ``len``, handed each entry in triple order and kept as the audit's
    ``found``; a new list when None.  A sink that keeps only the entries it
    reports, as the CLI's does, keeps the audit's memory bounded.
    """
    sup = A.convention == "super"
    terms, flagged, odd = A.view.terms, A.view.flagged, A.view.odd
    # the term [a,[b,c]] reads row a at each k of [b,c], so it is nonzero,
    # or clipped inside, only where terms[a][k] is nonzero or k in flagged[a]
    support = (
        (k, a)
        for a, row in enumerate(terms)
        for k, pair in enumerate(row)
        if pair or k in flagged[a]
    )
    triples = TripleScan(A, scope, sup, support)
    inner_skipped = 0
    found = [] if found is None else found
    for t in triples:
        x, y, z = t
        total: dict[int, int] = {}
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
        residual = {u: v for u, v in total.items() if v}
        if residual:
            found.append((t, residual))
    return Audit(
        triples.checkable - inner_skipped,
        triples.skipped + inner_skipped,
        found,
        A.view.scale**2,
        A.generators,
    )


def center(A: AlgebraInstance) -> list[Element]:
    """Basis of {x in interior span : [x,g] = 0 for all interior g}.

    Constraints use in-window bracket components only; the truncation caveat
    is visible through the instance's boundary data, not silently absorbed.
    """
    cols = A.view.interior
    terms = A.view.terms
    # row (g, t) holds the coefficient of t in [h, g] at column h, over scale
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for col, h in enumerate(cols):
        for g in cols:
            for t, c in terms[h][g]:
                rows.setdefault((g, t), {})[col] = c
    m = SparseMatrix.from_rows(len(cols), list(rows.values()))
    return [
        Element({A.generators[cols[k]]: v[k] for k in sorted(v)})
        for v in rref(m).kernel(m.cols)
    ]


def derived_subalgebra(A: AlgebraInstance) -> list[Element]:
    """Canonical basis of span{[g,h]} over the pairs given as written
    (in-window)."""
    terms = A.view.terms
    rows = [dict(terms[i][j]) for i, j in A.view.written]
    ech = rref(SparseMatrix.from_rows(A.dim, rows))
    return [
        Element({A.generators[c]: v for c, v in row.items()}) for row in ech.rows
    ]


def is_abelian(A: AlgebraInstance, basis: list[Element]) -> bool:
    """True iff [u, v] = 0 for every u, v of ``basis``; on the derived
    subalgebra, iff A is two-step solvable: [[g,h],[g',h']] = 0."""
    pairs = itertools.combinations_with_replacement(basis, 2)
    return not any(bracket(A, u, v)[0] for u, v in pairs)
